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
20 solver non-convergence; 1 model, config or file error.

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
from functools import lru_cache
from pathlib import Path

from . import certify as certify_mod
from .bounds import estimate_ranges, falsify_bounds
from .cone import state_to_csv
from .constants import assemble_cone_constants, constants_report
from .errors import ConfigError, ContradictionError, HammcertError
from .problem import Params, ProblemSpec, load_config, parse_param_name
from .solver import _check_radii, solve_fixed_point

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
    params = spec.params.with_overrides(_parse_overrides(args.set))
    return spec, params, _config_hash(args.config)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("config", help="path of the JSON config document")
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.add_argument("--set", action="append", metavar="NAME=VALUE",
                   help="override a lambda<i> or eta<i><j> parameter; repeatable")
    p.add_argument("--seed", type=int, default=None,
                   help="override the config's random seed")


def _add_radii(p: argparse.ArgumentParser, required: bool) -> None:
    p.add_argument("--rho1", type=float, required=required)
    p.add_argument("--rho2", type=float, required=required)


def _add_existence(p: argparse.ArgumentParser) -> None:
    """certify's and sweep's existence flags."""
    p.add_argument("--mode", choices=("S", "Sstar"), required=True)
    _add_radii(p, required=True)
    p.add_argument("--i0", type=int, default=None,
                   help="distinguished component for mode Sstar")


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
    _add_existence(p)

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
    _add_radii(p, required=False)
    p.add_argument("--solution-csv", help="write the solved state as CSV")

    p = sub.add_parser("sweep", help="classify a parameter grid")
    _add_common(p)
    p.add_argument("--axis", action="append", required=True,
                   metavar="NAME:MIN:MAX:STEPS")
    _add_existence(p)
    p.add_argument("--nonexistence-rho", type=float, default=None)
    p.add_argument("--setI", default=None)
    p.add_argument("--setJ", default=None)
    p.add_argument("--csv", help="write the classification table as CSV")
    return ap


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The one parser ``main`` reads, built on its first call; parsing
    leaves no state in it."""
    return build_parser()


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
            return certify_mod.SweepAxis(name, float(lo), float(hi), int(steps))
        except ValueError:  # not a number, or SweepAxis rejects the axis
            pass
    raise HammcertError(f"bad --axis {text!r}; expected NAME:MIN:MAX:STEPS with "
                        "finite MIN <= MAX, a finite MAX - MIN and an integer "
                        "STEPS >= 1")


def _check_samples(samples: int) -> None:
    if samples < 1:
        raise HammcertError(f"bad --samples {samples}; expected an integer >= 1")


def _check_radius_flags(args) -> None:
    """Every radius flag given must be a finite number > 0."""
    for name in ("rho", "rho1", "rho2", "nonexistence_rho"):
        rho = getattr(args, name, None)
        if rho is not None and not 0 < rho < math.inf:
            flag = "--" + name.replace("_", "-")
            raise HammcertError(f"bad {flag} {rho!r}; expected a finite number > 0")


def _solve_radii(rho1: float | None, rho2: float | None) -> tuple[float, float] | None:
    """solve's --rho1/--rho2: both or neither, with rho1 < rho2."""
    if rho1 is None and rho2 is None:
        return None
    for flag, rho, other in (("--rho1", rho1, "--rho2"), ("--rho2", rho2, "--rho1")):
        if rho is None:
            raise HammcertError(f"{other} needs {flag}")
    _check_radii(rho1, rho2)
    return rho1, rho2


def _constants(args, spec, params, seed):
    return constants_report(spec, assemble_cone_constants(spec)), EXIT_OK


def _certify(args, spec, params, seed):
    db1, db2 = spec.bounds_at(args.rho1), spec.bounds_at(args.rho2)
    certify_mod._check_existence(spec, db1, db2, args.mode, args.i0)
    cc = assemble_cone_constants(spec)
    cert = certify_mod.existence_certificate(spec, cc, db1, db2, args.mode,
                                             args.i0, params)
    return cert.as_dict(), EXIT_OK if cert.certified else EXIT_NOT_CERTIFIED


def _certify_nonexistence(args, spec, params, seed):
    setI, setJ = _indices(args.setI, "--setI"), _indices(args.setJ, "--setJ")
    db = spec.bounds_at(args.rho)
    certify_mod._partition(spec, setI, setJ)
    cc = assemble_cone_constants(spec)
    cert = certify_mod.nonexistence_certificate(spec, cc, db, setI, setJ, params)
    return cert.as_dict(), EXIT_OK if cert.certified else EXIT_NOT_CERTIFIED


def _falsify(args, spec, params, seed):
    _check_samples(args.samples)
    db = spec.bounds_at(args.rho)
    cc = assemble_cone_constants(spec)
    rep = falsify_bounds(spec, cc, db, args.samples, seed, include_interior=args.ball)
    report = rep.as_dict()
    if args.witness_dir:
        wdir = Path(args.witness_dir)
        wdir.mkdir(parents=True, exist_ok=True)
        for k, v in enumerate(rep.violations):
            if v.witness is not None:
                path = wdir / f"witness-{k:03d}-{v.kind}.csv"
                state_to_csv(v.witness, path)
                report["violations"][k]["witness_csv"] = str(path)
    return report, EXIT_OK if not rep.falsified else EXIT_NOT_CERTIFIED


def _estimate(args, spec, params, seed):
    _check_samples(args.samples)
    cc = assemble_cone_constants(spec)
    return estimate_ranges(spec, cc, args.rho, args.samples, seed), EXIT_OK


def _solve(args, spec, params, seed):
    interval = _solve_radii(args.rho1, args.rho2)
    cc = assemble_cone_constants(spec)
    rep = solve_fixed_point(spec, params=params, cc=cc, rho_interval=interval)
    report = rep.as_dict()
    if args.solution_csv:
        state_to_csv(rep.state, args.solution_csv)
        report["solution_csv"] = args.solution_csv
    if not rep.converged:
        return report, EXIT_NO_CONVERGENCE
    if interval is not None and not rep.localization:
        return report, EXIT_NOT_CERTIFIED
    return report, EXIT_OK


def _sweep(args, spec, params, seed):
    axes = [_axis(a) for a in args.axis]
    slots = certify_mod._axis_slots(params, axes)
    for name in _parse_overrides(args.set):
        slot = parse_param_name(name)
        if slot in slots:
            raise ConfigError(name, "--set sets the same parameter as axis "
                                    f"{axes[slots.index(slot)].name!r}")
    nonex = None
    if args.nonexistence_rho is None and (args.setI or args.setJ):
        raise HammcertError("--setI and --setJ need --nonexistence-rho")
    if args.nonexistence_rho is not None:
        if not (args.setI and args.setJ):
            raise HammcertError("--nonexistence-rho needs --setI and --setJ")
        nonex = {"db": spec.bounds_at(args.nonexistence_rho),
                 "setI": _indices(args.setI, "--setI"),
                 "setJ": _indices(args.setJ, "--setJ")}
    db1, db2 = spec.bounds_at(args.rho1), spec.bounds_at(args.rho2)
    certify_mod._check_existence(spec, db1, db2, args.mode, args.i0)
    if nonex is not None:
        certify_mod._partition(spec, nonex["setI"], nonex["setJ"])
    cc = assemble_cone_constants(spec)
    result = certify_mod.sweep(spec, cc, axes, mode=args.mode, db1=db1, db2=db2,
                               i0=args.i0, nonexistence=nonex, params=params)
    if args.csv:
        result.to_csv(args.csv)
    return {"axes": [vars(a) for a in axes], "counts": result.counts(),
            "rows": result.rows if not args.csv else f"written to {args.csv}"}, EXIT_OK


# per subcommand: (args, spec, params, seed) -> (report, exit code); each
# checks its flags before it assembles the cone constants
_COMMANDS = {"constants": _constants, "certify": _certify,
             "certify-nonexistence": _certify_nonexistence, "falsify": _falsify,
             "estimate": _estimate, "solve": _solve, "sweep": _sweep}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        spec, params, cfg_hash = _load(args)
        if args.seed is not None and args.seed < 0:
            raise HammcertError(f"bad --seed {args.seed}; expected an integer >= 0")
        _check_radius_flags(args)
        seed = args.seed if args.seed is not None else spec.seed
        report, code = _COMMANDS[args.command](args, spec, params, seed)
        report["config_hash"] = cfg_hash
        _emit(report, args.out)
        return code
    except ContradictionError as e:
        _emit({"error": str(e), "dump": e.dump}, getattr(args, "out", None))
        return EXIT_ERROR
    except (HammcertError, OSError) as e:  # OSError: an output path not writable
        sys.stderr.write(f"error: {e}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
