"""Problem description and JSON config ingestion.

A problem is an n-component system of perturbed integral equations

    u_i(t) = lambda_i * integral over [0,1] of k_i(t,s) f_i(s, u(s), u'(s), w_i[u]) ds
             + sum_j eta_ij * gamma_ij(t) * h_ij[u]

together with a window [a_i, b_i] per component, an envelope specification
for each kernel, optional declared constants, and declared analytic bounds
keyed by radius.  The config document is a single JSON file; every
expression is a DSL string, and every numeric bound may be either a JSON
number or a constant DSL string (so values like ``1/(1+e)`` are exact as
written).

Validation is front-loaded: every failure names the offending key path and,
where applicable, the violated model condition (C1..C8, see README).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

from .bounds import ComponentBounds, DeclaredBounds, HBounds
from .constants import Opt1DConfig, Window
from .errors import ConfigError, DslSyntaxError, EvalDomainError, ModelViolationError
from .expr import (BOUNDARY_CONTEXT, ENVELOPE_CONTEXT, FunctionalExpr,
                   ScalarExpr, nonlinearity_context, parse_constant,
                   parse_expr, parse_functional)
from .kernels import (EnvelopeSpec, GammaDef, KernelDef, gamma_from_catalog,
                      kernel_from_catalog, validate_envelope_nonnegative,
                      validate_gamma_derivative, validate_kernel_derivative)
from .quad import QuadConfig
from .solver import SolverConfig

__all__ = ["GammaTerm", "Component", "ProblemSpec", "Params", "load_config",
           "spec_from_dict", "example_config_path"]


@dataclass(frozen=True)
class GammaTerm:
    gamma: GammaDef
    eta: float
    h: FunctionalExpr


@dataclass(frozen=True)
class Component:
    kernel: KernelDef
    window: Window
    lam: float
    f: ScalarExpr
    w: FunctionalExpr
    envelope: EnvelopeSpec
    gammas: tuple[GammaTerm, ...]
    declared_items: tuple = ()

    @property
    def declared(self) -> dict:
        return {k: v for k, v in self.declared_items}


@dataclass(frozen=True)
class Params:
    """The parameter point (lambda_i, eta_ij) a certificate is evaluated at."""
    lambdas: tuple[float, ...]
    etas: tuple[tuple[float, ...], ...]

    @classmethod
    def from_spec(cls, spec: "ProblemSpec") -> "Params":
        return cls(tuple(c.lam for c in spec.components),
                   tuple(tuple(g.eta for g in c.gammas) for c in spec.components))

    def with_overrides(self, overrides: dict) -> "Params":
        lambdas = list(self.lambdas)
        etas = [list(row) for row in self.etas]
        for name, value in overrides.items():
            kind, i, j = parse_param_name(name)
            value = float(value)
            if not math.isfinite(value):
                raise ConfigError(name, f"expected a finite number, got {value}")
            self._check_index(name, kind, i, j)
            if kind == "lambda":
                lambdas[i] = value
            else:
                etas[i][j] = value
        if any(v < 0 for v in lambdas) or any(v < 0 for row in etas for v in row):
            raise ConfigError("params", "parameters must be nonnegative (C6)")
        return Params(tuple(lambdas), tuple(tuple(row) for row in etas))

    def _check_index(self, name: str, kind: str, i: int, j: int) -> None:
        """Raise ConfigError if ``parse_param_name(name)`` = (kind, i, j)
        names no parameter of this point."""
        if i >= len(self.lambdas):
            raise ConfigError(name, f"component index out of range 1..{len(self.lambdas)}")
        if kind == "eta" and j >= len(self.etas[i]):
            raise ConfigError(name, f"gamma-term index out of range "
                                    f"1..{len(self.etas[i])} for component {i + 1}")


def parse_param_name(name: str) -> tuple[str, int, int]:
    """Parse 'lambda2' or 'eta21' / 'eta2_1' into (kind, i-1, j-1)."""
    if name.startswith("lambda"):
        tail = name[len("lambda"):]
        if tail.isdigit() and int(tail) >= 1:
            return "lambda", int(tail) - 1, -1
    if name.startswith("eta"):
        tail = name[len("eta"):]
        if "_" in tail:
            i, _, j = tail.partition("_")
        elif len(tail) == 2:
            i, j = tail[0], tail[1]
        else:
            i = j = ""
        if i.isdigit() and j.isdigit() and int(i) >= 1 and int(j) >= 1:
            return "eta", int(i) - 1, int(j) - 1
    raise ConfigError(name, "parameter names are lambda<i> or eta<i><j> (or eta<i>_<j>)")


@dataclass(frozen=True)
class ProblemSpec:
    n: int
    components: tuple[Component, ...]
    bounds: tuple[DeclaredBounds, ...]
    quad: QuadConfig
    opt: Opt1DConfig
    solver: SolverConfig
    seed: int = 0

    def __hash__(self):
        # the dataclass hash, kept in the instance __dict__ (outside the
        # fields, so equality ignores it): the spec keys the operator and
        # constants caches, and hashing it walks every AST node
        try:
            return self.__dict__["_hash"]
        except KeyError:
            h = hash(tuple(getattr(self, f.name) for f in fields(self)))
            object.__setattr__(self, "_hash", h)
            return h

    def __getstate__(self):
        # string hashes differ between processes, so the memo is not pickled
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    def bounds_at(self, rho: float) -> DeclaredBounds:
        for db in self.bounds:
            if abs(db.rho - rho) <= 1e-12 * max(1.0, rho):
                return db
        raise ConfigError("bounds", f"no declared-bounds block at rho = {rho}; "
                                    f"available: {[db.rho for db in self.bounds]}")


# ---------------------------------------------------------------------------
# Config ingestion

def example_config_path() -> Path:
    """Path of the bundled example configuration."""
    return Path(__file__).parent / "data" / "example.cfg"


def load_config(path) -> ProblemSpec:
    """Load and fully validate a JSON config document."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(str(path), "config file does not exist")
    try:
        doc = json.loads(p.read_text())
    except OSError as e:  # a directory, or a file that cannot be read
        raise ConfigError(str(path), f"cannot read the config file: {e}") from None
    except ValueError as e:  # JSONDecodeError, or an integer literal too long to read
        raise ConfigError(str(path), f"not valid JSON: {e}") from None
    return spec_from_dict(doc)


def _const(doc, key_path, default=None, required=False):
    value = doc
    if value is None:
        if required:
            raise ConfigError(key_path, "missing required value")
        return default
    try:
        value = parse_constant(value, key_path)
    except (DslSyntaxError, EvalDomainError) as e:
        raise ConfigError(key_path, f"bad constant expression: {e}") from None
    if not math.isfinite(value):
        raise ConfigError(key_path, f"expected a finite number, got {value}")
    return value


def _is_int(value) -> bool:
    """A JSON integer (Python's json gives bool for true/false, an int subclass)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _list(doc, key: str, key_path: str) -> list:
    value = doc.get(key, [])
    if not isinstance(value, list):
        raise ConfigError(key_path, "expected a JSON list")
    return value


def _opt_const(doc: dict, key: str, key_path: str):
    return _const(doc.get(key), f"{key_path}.{key}") if key in doc else None


def spec_from_dict(doc: dict) -> ProblemSpec:
    if not isinstance(doc, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    n = doc.get("n")
    if not _is_int(n):
        raise ConfigError("n", "missing or non-integer component count")
    if n < 1:
        raise ConfigError("n", "need at least one component")

    comps = doc.get("components")
    if not isinstance(comps, list) or len(comps) != n:
        raise ConfigError("components", f"expected a list of exactly n={n} components")

    components = tuple(_parse_component(cdoc, i, n) for i, cdoc in enumerate(comps))

    bounds = []
    seen_rho = []
    for bi, bdoc in enumerate(_list(doc, "bounds", "bounds")):
        db = _parse_bounds_block(bdoc, bi, components)
        if any(abs(db.rho - r) <= 1e-12 for r in seen_rho):
            raise ConfigError(f"bounds[{bi}].rho", f"duplicate radius {db.rho}")
        seen_rho.append(db.rho)
        bounds.append(db)

    quad = _parse_section(doc.get("quad", {}), "quad", QuadConfig, {
        "gauss_order": int, "rel_tol": float, "abs_tol": float, "max_subdivisions": int})
    opt = _parse_section(doc.get("opt", {}), "opt", Opt1DConfig, {
        "coarse_grid": int, "refine_tol": float})
    solver = _parse_section(doc.get("solver", {}), "solver", SolverConfig, {
        "nodes": int, "damping": float, "tol": float, "max_iterations": int,
        "initial": str, "initial_constant": float})

    seed = doc.get("seed", 0)
    if not _is_int(seed):
        raise ConfigError("seed", "expected a JSON integer")
    return ProblemSpec(n=n, components=components, bounds=tuple(bounds),
                       quad=quad, opt=opt, solver=solver, seed=seed)


def _parse_section(doc, key_path, cls, fields):
    if not isinstance(doc, dict):
        raise ConfigError(key_path, "expected a JSON object")
    kwargs = {}
    for key, value in doc.items():
        kp = f"{key_path}.{key}"
        if key not in fields:
            raise ConfigError(kp, f"unknown key; expected one of {sorted(fields)}")
        kind = fields[key]
        if kind is float:
            kwargs[key] = _const(value, kp, required=True)
        elif _is_int(value) if kind is int else isinstance(value, kind):
            kwargs[key] = value
        else:
            raise ConfigError(kp, f"expected a JSON {'integer' if kind is int else 'string'}, "
                                  f"got {value!r}")
    try:
        return cls(**kwargs)
    except ValueError as e:
        raise ConfigError(key_path, str(e)) from None


def _parse_component(cdoc: dict, i: int, n: int) -> Component:
    kp = f"components[{i}]"
    if not isinstance(cdoc, dict):
        raise ConfigError(kp, "expected a JSON object")

    kernel = _parse_kernel(cdoc.get("kernel"), f"{kp}.kernel")

    win = cdoc.get("window")
    if not (isinstance(win, list) and len(win) == 2):
        raise ConfigError(f"{kp}.window", "expected [a, b]")
    try:
        window = Window(_const(win[0], f"{kp}.window[0]", required=True),
                        _const(win[1], f"{kp}.window[1]", required=True))
    except ValueError as e:
        raise ConfigError(f"{kp}.window", f"{e} (C2 requires a window "
                                          "[a,b] inside [0,1])") from None

    lam = _const(cdoc.get("lambda"), f"{kp}.lambda", required=True)
    if lam < 0:
        raise ConfigError(f"{kp}.lambda", "negative parameter violates (C6)")

    f_text = cdoc.get("f")
    if not isinstance(f_text, str):
        raise ConfigError(f"{kp}.f", "missing nonlinearity expression (C4)")
    try:
        f = parse_expr(f_text, nonlinearity_context(n))
    except DslSyntaxError as e:
        raise ConfigError(f"{kp}.f", str(e)) from None

    w_text = cdoc.get("w", "1")
    try:
        w = parse_functional(w_text, n)
    except DslSyntaxError as e:
        raise ConfigError(f"{kp}.w", f"{e} (C8 functional)") from None

    envelope = _parse_envelope(cdoc.get("envelope", "tight"), f"{kp}.envelope")

    gammas = []
    for j, gdoc in enumerate(_list(cdoc, "gammas", f"{kp}.gammas")):
        gammas.append(_parse_gamma_term(gdoc, f"{kp}.gammas[{j}]", n))

    declared = _parse_declared(cdoc.get("declared", {}), f"{kp}.declared", len(gammas))

    try:
        validate_kernel_derivative(kernel)
    except (ModelViolationError, EvalDomainError) as e:
        raise ConfigError(f"{kp}.kernel", str(e)) from None
    for phi_key, phi in (("phi0", envelope.declared_phi0),
                         ("phi1", envelope.declared_phi1)):
        if phi is None:
            continue
        try:
            validate_envelope_nonnegative(phi)
        except (ModelViolationError, EvalDomainError) as e:
            raise ConfigError(f"{kp}.envelope.{phi_key}", str(e)) from None

    return Component(kernel=kernel, window=window, lam=lam, f=f, w=w,
                     envelope=envelope, gammas=tuple(gammas),
                     declared_items=declared)


def _parse_kernel(kdoc, key_path) -> KernelDef:
    if isinstance(kdoc, str):
        try:
            return kernel_from_catalog(kdoc)
        except KeyError as e:
            raise ConfigError(key_path, str(e)) from None
    if not isinstance(kdoc, dict):
        raise ConfigError(key_path, "expected a catalog name or an inline kernel object")
    try:
        k = parse_expr(kdoc["k"], frozenset({"t", "s"}))
        dk = parse_expr(kdoc["dk_dt"], frozenset({"t", "s"}))
    except KeyError as e:
        raise ConfigError(key_path, f"missing key {e} (C1/C3 require k and dk_dt)") from None
    except DslSyntaxError as e:
        raise ConfigError(key_path, str(e)) from None
    bps = tuple(sorted(_const(b, f"{key_path}.breakpoints[{j}]", required=True)
                       for j, b in enumerate(_list(kdoc, "breakpoints",
                                                   f"{key_path}.breakpoints"))))
    moving = kdoc.get("moving_breakpoint", True)
    if not isinstance(moving, bool):
        raise ConfigError(f"{key_path}.moving_breakpoint", "expected true or false")
    try:
        return KernelDef(k, dk, bps, moving)
    except ValueError as e:
        raise ConfigError(f"{key_path}.breakpoints", str(e)) from None


def _parse_envelope(edoc, key_path) -> EnvelopeSpec:
    if edoc == "tight":
        return EnvelopeSpec(mode="tight")
    if not isinstance(edoc, dict):
        raise ConfigError(key_path, "expected \"tight\" or {\"phi0\": expr}")
    phi0, phi1 = (_parse_envelope_phi(edoc, key, key_path) for key in ("phi0", "phi1"))
    if phi0 is None:
        raise ConfigError(f"{key_path}.phi0", "declared envelope requires phi0 (C2)")
    return EnvelopeSpec(mode="declared", declared_phi0=phi0, declared_phi1=phi1)


def _parse_envelope_phi(edoc: dict, key: str, key_path: str):
    if key not in edoc:
        return None
    try:
        return parse_expr(edoc[key], ENVELOPE_CONTEXT)
    except DslSyntaxError as e:
        raise ConfigError(f"{key_path}.{key}", f"{e} (C2/C3 envelopes)") from None


def _parse_gamma_term(gdoc, key_path, n) -> GammaTerm:
    if not isinstance(gdoc, dict):
        raise ConfigError(key_path, "expected a gamma-term object")
    gname = gdoc.get("gamma")
    if isinstance(gname, str) and gname.startswith("example-"):
        try:
            gd = gamma_from_catalog(gname)
        except KeyError as e:
            raise ConfigError(f"{key_path}.gamma", str(e)) from None
    else:
        try:
            gamma = parse_expr(gdoc["gamma"], BOUNDARY_CONTEXT)
            dgamma = parse_expr(gdoc["dgamma"], BOUNDARY_CONTEXT)
        except KeyError as e:
            raise ConfigError(key_path, f"missing key {e} (C5 requires gamma and dgamma)") from None
        except DslSyntaxError as e:
            raise ConfigError(key_path, str(e)) from None
        gd = GammaDef(gamma, dgamma)
        try:
            validate_gamma_derivative(gd)
        except (ModelViolationError, EvalDomainError) as e:
            raise ConfigError(f"{key_path}.dgamma", str(e)) from None
    eta = _const(gdoc.get("eta"), f"{key_path}.eta", required=True)
    if eta < 0:
        raise ConfigError(f"{key_path}.eta", "negative parameter violates (C6)")
    h_text = gdoc.get("h")
    if not isinstance(h_text, str):
        raise ConfigError(f"{key_path}.h", "missing functional expression (C7)")
    try:
        h = parse_functional(h_text, n)
    except DslSyntaxError as e:
        raise ConfigError(f"{key_path}.h", f"{e} (C7 functional)") from None
    return GammaTerm(gamma=gd, eta=eta, h=h)


_DECLARED_SCALARS = ("c_tilde", "recip_m0", "recip_m1", "recip_M")
_DECLARED_LISTS = ("c_gamma", "gamma_sup", "dgamma_sup")


def _parse_declared(ddoc, key_path, n_gammas: int) -> tuple:
    if not isinstance(ddoc, dict):
        raise ConfigError(key_path, "expected an object of declared constants")
    items = []
    for key, value in ddoc.items():
        if key in _DECLARED_SCALARS:
            items.append((key, _const(value, f"{key_path}.{key}", required=True)))
        elif key in _DECLARED_LISTS:
            if not (isinstance(value, list) and len(value) == n_gammas):
                raise ConfigError(f"{key_path}.{key}", f"expected a list of one entry per "
                                                       f"gamma term ({n_gammas})")
            items.append((key, tuple(_const(v, f"{key_path}.{key}[{j}]", required=True)
                                     for j, v in enumerate(value))))
        else:
            raise ConfigError(f"{key_path}.{key}",
                              f"unknown declared constant; expected one of "
                              f"{sorted(_DECLARED_SCALARS + _DECLARED_LISTS)}")
    return tuple(sorted(items))


def _parse_bounds_block(bdoc, bi, components) -> DeclaredBounds:
    kp = f"bounds[{bi}]"
    if not isinstance(bdoc, dict):
        raise ConfigError(kp, "expected a bounds object")
    rho = _const(bdoc.get("rho"), f"{kp}.rho", required=True)
    if rho <= 0:
        raise ConfigError(f"{kp}.rho", "radius must be positive")
    cdocs = bdoc.get("components")
    if not isinstance(cdocs, list) or len(cdocs) != len(components):
        raise ConfigError(f"{kp}.components", "expected one bounds entry per component")
    comp_bounds = []
    for i, (cb, comp) in enumerate(zip(cdocs, components)):
        ckp = f"{kp}.components[{i}]"
        if not isinstance(cb, dict):
            raise ConfigError(ckp, "expected an object")
        hdocs = cb.get("h", [{}] * len(comp.gammas))
        if not isinstance(hdocs, list) or len(hdocs) != len(comp.gammas):
            raise ConfigError(f"{ckp}.h", "expected a list of one h-bounds entry per "
                                          "gamma term")
        hb = []
        for j, hdoc in enumerate(hdocs):
            hkp = f"{ckp}.h[{j}]"
            if not isinstance(hdoc, dict):
                raise ConfigError(hkp, "expected an object")
            try:
                hb.append(HBounds(
                    lo=_const(hdoc.get("lo", 0.0), f"{hkp}.lo", default=0.0),
                    hi=_opt_const(hdoc, "hi", hkp),
                    delta=_opt_const(hdoc, "delta", hkp),
                    xi=_opt_const(hdoc, "xi", hkp),
                ))
            except ValueError as e:
                raise ConfigError(hkp, str(e)) from None
        try:
            comp_bounds.append(ComponentBounds(
                w_lo=_opt_const(cb, "w_lo", ckp), w_hi=_opt_const(cb, "w_hi", ckp),
                f_hi=_opt_const(cb, "f_hi", ckp), f_lo=_opt_const(cb, "f_lo", ckp),
                delta_tilde=_opt_const(cb, "delta_tilde", ckp),
                xi_tilde=_opt_const(cb, "xi_tilde", ckp),
                h=tuple(hb)))
        except ValueError as e:
            raise ConfigError(ckp, str(e)) from None
    try:
        return DeclaredBounds(rho=rho, components=tuple(comp_bounds))
    except ValueError as e:
        raise ConfigError(kp, str(e)) from None
