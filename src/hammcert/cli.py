"""Command-line interface: config ingestion, command dispatch, report emission.

Subcommands
-----------
constants CONFIG                      emit the constants report
certify CONFIG --mode {S,Sstar} --rho1 R1 --rho2 R2 [--i0 I]
certify-nonexistence CONFIG --rho R --setI 2 --setJ 1
falsify CONFIG --rho R --samples N [--witness-dir DIR]
solve CONFIG [--rho1 R1 --rho2 R2] [--solution-csv PATH]
sweep CONFIG --axis name:min:max:steps ... --mode {S,Sstar} --rho1 --rho2
      [--nonexistence-rho R --setI ... --setJ ...] --out table.csv

Common flags: ``--out PATH`` (JSON report to a file instead of stdout),
``--set name=value`` (override a lambda_i or eta_ij for this invocation;
repeatable), ``--seed N``.

Flags, declared-bounds blocks and sweep axes are checked before assembly.

Exit codes: 0 success/certified; 10 evaluated cleanly but not certified;
20 solver non-convergence; 1 model or config error.

Reports are deterministic for identical config + seed + flags (keys sorted,
no timestamps) and embed the sha256 of the config file together with the
symbol name of every constant used.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

from . import certify as certify_mod
from .bounds import estimate_ranges, falsify_bounds
from .cone import state_to_csv
from .constants import assemble_cone_constants, constants_report
from .errors import ContradictionError, HammcertError
from .problem import Params, ProblemSpec, load_config, parse_param_name
from .solver import solve_fixed_point

EXIT_OK = 0
EXIT_NOT_CERTIFIED = 10
EXIT_NO_CONVERGENCE = 20
EXIT_ERROR = 1


def _config_hash(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _emit(report: dict, out: str | None) -> None:
    text = json.dumps(report, sort_keys=True, indent=2, allow_nan=True) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _parse_overrides(pairs) -> dict:
    overrides = {}
    for pair in pairs or ():
        name, _, value = pair.partition("=")
        parse_param_name(name)  # validates the shape early
        try:
            overrides[name] = float(value)
        except ValueError:
            raise HammcertError(f"bad --set {pair!r}; expected NAME=VALUE with a "
                                "numeric VALUE") from None
    return overrides


def _load(args) -> tuple[ProblemSpec, Params, str]:
    spec = load_config(args.config)
    params = Params.from_spec(spec).with_overrides(_parse_overrides(args.set))
    return spec, params, _config_hash(args.config)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("config", help="path of the JSON config document")
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.add_argument("--set", action="append", metavar="NAME=VALUE",
                   help="override a lambda<i> or eta<i><j> parameter; repeatable")
    p.add_argument("--seed", type=int, default=None,
                   help="override the config's random seed")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hammcert",
        description="existence/nonexistence certificates and numerical solving "
                    "for systems of perturbed Hammerstein integral equations "
                    "with functional terms")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="compute and report every cone/kernel constant")
    _add_common(p)

    p = sub.add_parser("certify", help="existence certificate over an annulus")
    _add_common(p)
    p.add_argument("--mode", choices=("S", "Sstar"), required=True)
    p.add_argument("--rho1", type=float, required=True)
    p.add_argument("--rho2", type=float, required=True)
    p.add_argument("--i0", type=int, default=None,
                   help="distinguished component for mode Sstar")

    p = sub.add_parser("certify-nonexistence",
                       help="at-most-zero-solutions certificate on a closed ball")
    _add_common(p)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--setI", required=True, help="comma-separated component indices")
    p.add_argument("--setJ", required=True, help="comma-separated component indices")

    p = sub.add_parser("falsify", help="attack the declared bounds by sampling")
    _add_common(p)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--ball", action="store_true",
                   help="also sample the interior (for bounds declared over "
                        "the closed ball, as nonexistence requires)")
    p.add_argument("--witness-dir", help="write witness states as CSV files here")

    p = sub.add_parser("estimate", help="non-rigorous sampled functional ranges")
    _add_common(p)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--samples", type=int, default=1000)

    p = sub.add_parser("solve", help="damped Picard iteration to a fixed point")
    _add_common(p)
    p.add_argument("--rho1", type=float, default=None)
    p.add_argument("--rho2", type=float, default=None)
    p.add_argument("--solution-csv", help="write the solved state as CSV")

    p = sub.add_parser("sweep", help="classify a parameter grid")
    _add_common(p)
    p.add_argument("--axis", action="append", required=True,
                   metavar="NAME:MIN:MAX:STEPS")
    p.add_argument("--mode", choices=("S", "Sstar"), required=True)
    p.add_argument("--rho1", type=float, required=True)
    p.add_argument("--rho2", type=float, required=True)
    p.add_argument("--i0", type=int, default=None)
    p.add_argument("--nonexistence-rho", type=float, default=None)
    p.add_argument("--setI", default=None)
    p.add_argument("--setJ", default=None)
    p.add_argument("--csv", help="write the classification table as CSV")
    return ap


def _indices(text: str, flag: str) -> list[int]:
    try:
        return [int(s) for s in text.split(",") if s.strip()]
    except ValueError:
        raise HammcertError(f"bad {flag} {text!r}; expected comma-separated "
                            "component indices") from None


def _axis(text: str) -> certify_mod.SweepAxis:
    parts = text.split(":")
    if len(parts) == 4:
        name, lo, hi, steps = parts
        parse_param_name(name)
        try:
            lo, hi, steps = float(lo), float(hi), int(steps)
            if math.isfinite(lo) and math.isfinite(hi):
                return certify_mod.SweepAxis(name, lo, hi, steps)
        except ValueError:  # not a number, or SweepAxis rejects steps or order
            pass
    raise HammcertError(f"bad --axis {text!r}; expected NAME:MIN:MAX:STEPS with "
                        "finite MIN <= MAX and an integer STEPS >= 1")


def _check_samples(samples: int) -> None:
    if samples < 1:
        raise HammcertError(f"bad --samples {samples}; expected an integer >= 1")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ContradictionError as e:
        _emit({"error": str(e), "dump": e.dump}, getattr(args, "out", None))
        return EXIT_ERROR
    except HammcertError as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_ERROR


def _dispatch(args) -> int:
    spec, params, cfg_hash = _load(args)
    seed = args.seed if args.seed is not None else spec.seed

    if args.command == "constants":
        cc = assemble_cone_constants(spec)
        report = constants_report(spec, cc)
        report["config_hash"] = cfg_hash
        _emit(report, args.out)
        return EXIT_OK

    if args.command == "certify":
        db1, db2 = spec.bounds_at(args.rho1), spec.bounds_at(args.rho2)
        cc = assemble_cone_constants(spec)
        cert = certify_mod.existence_certificate(spec, cc, db1, db2, args.mode,
                                                 args.i0, params)
        report = cert.as_dict()
        report["config_hash"] = cfg_hash
        _emit(report, args.out)
        return EXIT_OK if cert.certified else EXIT_NOT_CERTIFIED

    if args.command == "certify-nonexistence":
        setI, setJ = _indices(args.setI, "--setI"), _indices(args.setJ, "--setJ")
        db = spec.bounds_at(args.rho)
        cc = assemble_cone_constants(spec)
        cert = certify_mod.nonexistence_certificate(spec, cc, db, setI, setJ, params)
        report = cert.as_dict()
        report["config_hash"] = cfg_hash
        _emit(report, args.out)
        return EXIT_OK if cert.certified else EXIT_NOT_CERTIFIED

    if args.command == "falsify":
        _check_samples(args.samples)
        db = spec.bounds_at(args.rho)
        cc = assemble_cone_constants(spec)
        rep = falsify_bounds(spec, cc, db, args.samples, seed,
                             include_interior=args.ball)
        report = rep.as_dict()
        report["config_hash"] = cfg_hash
        if args.witness_dir:
            wdir = Path(args.witness_dir)
            wdir.mkdir(parents=True, exist_ok=True)
            for k, v in enumerate(rep.violations):
                if v.witness is not None:
                    path = wdir / f"witness-{k:03d}-{v.kind}.csv"
                    state_to_csv(v.witness, path)
                    report["violations"][k]["witness_csv"] = str(path)
        _emit(report, args.out)
        return EXIT_OK if not rep.falsified else EXIT_NOT_CERTIFIED

    if args.command == "estimate":
        _check_samples(args.samples)
        if not args.rho > 0:
            raise HammcertError(f"bad --rho {args.rho!r}; expected a positive number")
        cc = assemble_cone_constants(spec)
        report = estimate_ranges(spec, cc, args.rho, args.samples, seed)
        report["config_hash"] = cfg_hash
        _emit(report, args.out)
        return EXIT_OK

    if args.command == "solve":
        cc = assemble_cone_constants(spec)
        interval = None
        if args.rho1 is not None and args.rho2 is not None:
            interval = (args.rho1, args.rho2)
        rep = solve_fixed_point(spec, params=params, cc=cc, rho_interval=interval)
        report = rep.as_dict()
        report["config_hash"] = cfg_hash
        if args.solution_csv:
            state_to_csv(rep.state, args.solution_csv)
            report["solution_csv"] = args.solution_csv
        _emit(report, args.out)
        if not rep.converged:
            return EXIT_NO_CONVERGENCE
        if interval is not None and not rep.localization:
            return EXIT_NOT_CERTIFIED
        return EXIT_OK

    if args.command == "sweep":
        axes = [_axis(a) for a in args.axis]
        certify_mod._axis_slots(params, axes)
        nonex = None
        if args.nonexistence_rho is not None:
            if not (args.setI and args.setJ):
                raise HammcertError("--nonexistence-rho needs --setI and --setJ")
            nonex = {"db": spec.bounds_at(args.nonexistence_rho),
                     "setI": _indices(args.setI, "--setI"),
                     "setJ": _indices(args.setJ, "--setJ")}
        db1, db2 = spec.bounds_at(args.rho1), spec.bounds_at(args.rho2)
        cc = assemble_cone_constants(spec)
        result = certify_mod.sweep(spec, cc, axes, mode=args.mode, db1=db1, db2=db2,
                                   i0=args.i0, nonexistence=nonex)
        if args.csv:
            result.to_csv(args.csv)
        report = {"config_hash": cfg_hash, "axes": [vars(a) for a in axes],
                  "counts": result.counts(),
                  "rows": result.rows if not args.csv else f"written to {args.csv}"}
        _emit(report, args.out)
        return EXIT_OK

    raise AssertionError(args.command)


if __name__ == "__main__":
    sys.exit(main())
