"""Problem description and JSON config ingestion.

A problem is an n-component system of perturbed integral equations

    u_i(t) = lambda_i * integral over [0,1] of k_i(t,s) f_i(s, u(s), u'(s), w_i[u]) ds
             + sum_j eta_ij * gamma_ij(t) * h_ij[u]

together with a window [a_i, b_i] per component, an envelope specification
for each kernel, optional declared constants, and declared analytic bounds
keyed by radius.  The config document is a single JSON file; every
expression is a DSL string, and every numeric bound may be either a JSON
number or a constant DSL string (so values like ``1/(1+e)`` are exact as
written).  The parameter point (lambda_i, eta_ij) is read into one
``Params``, ``ProblemSpec.params``; the components hold no copy of it.

Validation is front-loaded: every failure names the offending key path and,
where applicable, the violated model condition (C1..C8, see README).  An
unknown key at any level of the document is rejected, not ignored.
"""

from __future__ import annotations

import json
import math
import numbers
from contextlib import contextmanager
from dataclasses import dataclass, fields
from pathlib import Path
from typing import get_type_hints

from .bounds import ComponentBounds, DeclaredBounds, HBounds
from .constants import Opt1DConfig, Window
from .errors import (ConfigError, DslSyntaxError, EvalDomainError, ModelViolationError,
                     _finite_real, _integer)
from .expr import (BOUNDARY_CONTEXT, ENVELOPE_CONTEXT, KERNEL_CONTEXT,
                   FunctionalExpr, ScalarExpr, _fields_only, nonlinearity_context,
                   parse_constant, parse_expr, parse_functional)
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
    h: FunctionalExpr


@dataclass(frozen=True)
class Component:
    kernel: KernelDef
    window: Window
    f: ScalarExpr
    w: FunctionalExpr
    envelope: EnvelopeSpec
    gammas: tuple[GammaTerm, ...]
    declared_items: tuple = ()

    @property
    def declared(self) -> dict:
        """The declared constants, keyed by the record that reads each."""
        return dict(self.declared_items)


@dataclass(frozen=True)
class Params:
    """The parameter point (lambda_i, eta_ij) a certificate is evaluated at;
    every parameter must be a finite real number >= 0 (C6): a Python or
    numpy int or float, not a bool.  The config's point is
    ``ProblemSpec.params``, the default of every entry point that takes
    ``params``."""
    lambdas: tuple[float, ...]
    etas: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        values = [*self.lambdas, *(v for row in self.etas for v in row)]
        for v in values:  # a bool is an int to Python, but no parameter value
            if isinstance(v, bool) or not isinstance(v, numbers.Real):
                raise ConfigError("params", f"parameters must be real numbers, got {v!r}")
        if not all(_finite_real(v) for v in values):
            raise ConfigError("params", "parameters must be finite numbers")
        if any(v < 0 for v in values):
            raise ConfigError("params", "parameters must be nonnegative (C6)")

    def with_overrides(self, overrides: dict) -> "Params":
        lambdas = list(self.lambdas)
        etas = [list(row) for row in self.etas]
        for name, value in overrides.items():
            kind, i, j = parse_param_name(name)
            if not _finite_real(value):
                raise ConfigError(name, f"expected a finite number, got {value!r}")
            value = float(value)  # an int override reports as 31.0, as loaded
            self._check_index(name, kind, i, j)
            if kind == "lambda":
                lambdas[i] = value
            else:
                etas[i][j] = value
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
    """A loaded problem: its components, parameter point, declared-bounds
    blocks and settings.  ``n``, the number of components, is read from
    ``components``; a spec pickles its fields only."""
    components: tuple[Component, ...]
    params: Params
    bounds: tuple[DeclaredBounds, ...]
    quad: QuadConfig
    opt: Opt1DConfig
    solver: SolverConfig
    seed: int = 0

    def __post_init__(self):  # a point set by replace(spec, params=...) must fit
        gammas = [len(c.gammas) for c in self.components]
        if len(self.params.lambdas) != len(gammas) or list(map(len, self.params.etas)) != gammas:
            raise ConfigError("params", f"{self.params} does not fit {len(gammas)} components "
                                        f"with {gammas} gamma terms")

    @property
    def n(self) -> int:
        return len(self.components)

    def __hash__(self):
        # the dataclass hash, kept in the instance __dict__ (outside the
        # fields, so equality ignores it): the spec keys the operator and
        # constants caches, and hashing it walks every AST node
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash(tuple(_fields_only(self).values()))
            object.__setattr__(self, "_hash", h)
        return h

    # string hashes differ between processes, so the memo is not pickled
    __getstate__ = _fields_only

    def bounds_at(self, rho: float) -> DeclaredBounds:
        for db in self.bounds:
            if _same_radius(db.rho, rho):
                return db
        raise ConfigError("bounds", f"no declared-bounds block at rho = {rho}; "
                                    f"available: {[db.rho for db in self.bounds]}")


def _same_radius(a: float, b: float) -> bool:
    """Whether two radii name the same declared-bounds block: equal to a
    relative and an absolute 1e-12.  Blocks have finite radii, so an
    infinite or NaN radius matches none."""
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


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
    # OSError: a directory, or a file that cannot be read; ValueError: not
    # JSON, or an integer literal too long to read
    with _at(str(path), ValueError, text="not valid JSON: {}"), \
            _at(str(path), OSError, text="cannot read the config file: {}"):
        doc = json.loads(p.read_text())
    return spec_from_dict(doc)


@contextmanager
def _at(key_path: str, *errors, text: str = "{}"):
    """Re-raise the listed errors of the block (ValueError if none are
    listed) as ConfigError(key_path, text.format(error)); any other error,
    a nested ConfigError included, passes through."""
    try:
        yield
    except errors or ValueError as e:
        raise ConfigError(key_path, text.format(e)) from None


def _object(doc, key_path: str, keys, what: str) -> dict:
    """doc, checked to be a JSON object (else ConfigError(key_path, what))
    with no key outside ``keys``."""
    if not isinstance(doc, dict):
        raise ConfigError(key_path, what)
    for key in doc:
        if key not in keys:
            raise ConfigError(key if key_path == "<root>" else f"{key_path}.{key}",
                              f"unknown key; expected one of {sorted(keys)}")
    return doc


def _const(doc, key_path, default=None, required=False):
    value = doc
    if value is None:
        if required:
            raise ConfigError(key_path, "missing required value")
        return default
    with _at(key_path, DslSyntaxError, EvalDomainError, text="bad constant expression: {}"):
        value = parse_constant(value, key_path)
    if not math.isfinite(value):
        raise ConfigError(key_path, f"expected a finite number, got {value}")
    return value


def _list(doc, key: str, key_path: str) -> list:
    value = doc.get(key, [])
    if not isinstance(value, list):
        raise ConfigError(key_path, "expected a JSON list")
    return value


_ROOT_KEYS = ("n", "components", "bounds", "quad", "opt", "solver", "seed")
_COMPONENT_KEYS = ("kernel", "window", "lambda", "f", "w", "envelope", "gammas",
                   "declared")
_KERNEL_KEYS = ("k", "dk_dt", "breakpoints", "moving_breakpoint")
_GAMMA_KEYS = ("gamma", "dgamma", "eta", "h")
_DECLARED_SCALARS = ("c_tilde", "recip_m0", "recip_m1", "recip_M")
_DECLARED_LISTS = ("c_gamma", "gamma_sup", "dgamma_sup")
_COMPONENT_BOUNDS_KEYS = tuple(f.name for f in fields(ComponentBounds))
_H_BOUNDS_KEYS = tuple(f.name for f in fields(HBounds))


def spec_from_dict(doc: dict) -> ProblemSpec:
    _object(doc, "<root>", _ROOT_KEYS, "config must be a JSON object")
    n = doc.get("n")
    if not _integer(n):
        raise ConfigError("n", "missing or non-integer component count")
    if n < 1:
        raise ConfigError("n", "need at least one component")

    comps = doc.get("components")
    if not isinstance(comps, list) or len(comps) != n:
        raise ConfigError("components", f"expected a list of exactly n={n} components")

    components, lambdas, etas = zip(*(_parse_component(cdoc, i, n)
                                      for i, cdoc in enumerate(comps)))

    bounds = []
    seen_rho = []
    for bi, bdoc in enumerate(_list(doc, "bounds", "bounds")):
        db = _parse_bounds_block(bdoc, bi, components)
        if any(_same_radius(db.rho, r) for r in seen_rho):
            raise ConfigError(f"bounds[{bi}].rho", f"duplicate radius {db.rho}")
        seen_rho.append(db.rho)
        bounds.append(db)

    quad = _parse_section(doc.get("quad", {}), "quad", QuadConfig)
    opt = _parse_section(doc.get("opt", {}), "opt", Opt1DConfig)
    solver = _parse_section(doc.get("solver", {}), "solver", SolverConfig)

    seed = doc.get("seed", 0)
    if not _integer(seed):
        raise ConfigError("seed", "expected a JSON integer")
    if seed < 0:
        raise ConfigError("seed", f"expected an integer >= 0, got {seed}")
    return ProblemSpec(components=components, params=Params(lambdas, etas),
                       bounds=tuple(bounds), quad=quad, opt=opt, solver=solver, seed=seed)


def _parse_section(doc, key_path, cls):
    """A settings dataclass from its section: each field typed float takes a
    number or a constant expression, every other field a JSON integer."""
    hints = get_type_hints(cls)  # the field types, not their postponed strings
    kinds = {f.name: hints[f.name] for f in fields(cls)}
    kwargs = {}
    for key, value in _object(doc, key_path, kinds, "expected a JSON object").items():
        kp = f"{key_path}.{key}"
        if kinds[key] is float:
            kwargs[key] = _const(value, kp, required=True)
        elif _integer(value):
            kwargs[key] = value
        else:
            raise ConfigError(kp, f"expected a JSON integer, got {value!r}")
    with _at(key_path):
        return cls(**kwargs)


def _parse_component(cdoc: dict, i: int, n: int) -> tuple[Component, float, tuple]:
    """The component at components[i], with its lambda and its gamma terms'
    etas, which the spec keeps in its Params."""
    kp = f"components[{i}]"
    _object(cdoc, kp, _COMPONENT_KEYS, "expected a JSON object")

    kernel = _parse_kernel(cdoc.get("kernel"), f"{kp}.kernel")

    win = cdoc.get("window")
    if not (isinstance(win, list) and len(win) == 2):
        raise ConfigError(f"{kp}.window", "expected [a, b]")
    with _at(f"{kp}.window", text="{} (C2 requires a window [a,b] inside [0,1])"):
        window = Window(_const(win[0], f"{kp}.window[0]", required=True),
                        _const(win[1], f"{kp}.window[1]", required=True))

    lam = _const(cdoc.get("lambda"), f"{kp}.lambda", required=True)
    if lam < 0:
        raise ConfigError(f"{kp}.lambda", "negative parameter violates (C6)")

    f_text = cdoc.get("f")
    if not isinstance(f_text, str):
        raise ConfigError(f"{kp}.f", "missing nonlinearity expression (C4)")
    with _at(f"{kp}.f", DslSyntaxError):
        f = parse_expr(f_text, nonlinearity_context(n))

    w_text = cdoc.get("w", "1")
    with _at(f"{kp}.w", DslSyntaxError, text="{} (C8 functional)"):
        w = parse_functional(w_text, n)

    envelope = _parse_envelope(cdoc.get("envelope", "tight"), f"{kp}.envelope")

    terms = [_parse_gamma_term(gdoc, f"{kp}.gammas[{j}]", n)
             for j, gdoc in enumerate(_list(cdoc, "gammas", f"{kp}.gammas"))]
    gammas = tuple(term for term, _ in terms)

    declared = _parse_declared(cdoc.get("declared", {}), f"{kp}.declared", len(gammas))

    with _at(f"{kp}.kernel", ModelViolationError, EvalDomainError):
        validate_kernel_derivative(kernel)
    for phi_key, phi in (("phi0", envelope.declared_phi0),
                         ("phi1", envelope.declared_phi1)):
        if phi is None:
            continue
        with _at(f"{kp}.envelope.{phi_key}", ModelViolationError, EvalDomainError):
            validate_envelope_nonnegative(phi)

    component = Component(kernel=kernel, window=window, f=f, w=w, envelope=envelope,
                          gammas=gammas, declared_items=declared)
    return component, lam, tuple(eta for _, eta in terms)


def _parse_kernel(kdoc, key_path) -> KernelDef:
    if isinstance(kdoc, str):
        with _at(key_path, KeyError):
            return kernel_from_catalog(kdoc)
    _object(kdoc, key_path, _KERNEL_KEYS,
            "expected a catalog name or an inline kernel object")
    with _at(key_path, DslSyntaxError), \
            _at(key_path, KeyError, text="missing key {} (C1/C3 require k and dk_dt)"):
        k = parse_expr(kdoc["k"], KERNEL_CONTEXT)
        dk = parse_expr(kdoc["dk_dt"], KERNEL_CONTEXT)
    bps = tuple(sorted(_const(b, f"{key_path}.breakpoints[{j}]", required=True)
                       for j, b in enumerate(_list(kdoc, "breakpoints",
                                                   f"{key_path}.breakpoints"))))
    moving = kdoc.get("moving_breakpoint", True)
    if not isinstance(moving, bool):
        raise ConfigError(f"{key_path}.moving_breakpoint", "expected true or false")
    with _at(f"{key_path}.breakpoints"):
        return KernelDef(k, dk, bps, moving)


def _parse_envelope(edoc, key_path) -> EnvelopeSpec:
    if edoc == "tight":
        return EnvelopeSpec(mode="tight")
    _object(edoc, key_path, ("phi0", "phi1"), "expected \"tight\" or {\"phi0\": expr}")
    phi0, phi1 = (_parse_envelope_phi(edoc, key, key_path) for key in ("phi0", "phi1"))
    if phi0 is None:
        raise ConfigError(f"{key_path}.phi0", "declared envelope requires phi0 (C2)")
    return EnvelopeSpec(mode="declared", declared_phi0=phi0, declared_phi1=phi1)


def _parse_envelope_phi(edoc: dict, key: str, key_path: str):
    if key not in edoc:
        return None
    with _at(f"{key_path}.{key}", DslSyntaxError, text="{} (C2/C3 envelopes)"):
        return parse_expr(edoc[key], ENVELOPE_CONTEXT)


def _parse_gamma_term(gdoc, key_path, n) -> tuple[GammaTerm, float]:
    _object(gdoc, key_path, _GAMMA_KEYS, "expected a gamma-term object")
    gname = gdoc.get("gamma")
    if isinstance(gname, str) and gname.startswith("example-"):
        with _at(f"{key_path}.gamma", KeyError):
            gd = gamma_from_catalog(gname)
    else:
        with _at(key_path, DslSyntaxError), \
                _at(key_path, KeyError, text="missing key {} (C5 requires gamma and dgamma)"):
            gamma = parse_expr(gdoc["gamma"], BOUNDARY_CONTEXT)
            dgamma = parse_expr(gdoc["dgamma"], BOUNDARY_CONTEXT)
        gd = GammaDef(gamma, dgamma)
        with _at(f"{key_path}.dgamma", ModelViolationError, EvalDomainError):
            validate_gamma_derivative(gd)
    eta = _const(gdoc.get("eta"), f"{key_path}.eta", required=True)
    if eta < 0:
        raise ConfigError(f"{key_path}.eta", "negative parameter violates (C6)")
    h_text = gdoc.get("h")
    if not isinstance(h_text, str):
        raise ConfigError(f"{key_path}.h", "missing functional expression (C7)")
    with _at(f"{key_path}.h", DslSyntaxError, text="{} (C7 functional)"):
        h = parse_functional(h_text, n)
    return GammaTerm(gamma=gd, h=h), eta


def _parse_declared(ddoc, key_path, n_gammas: int) -> tuple:
    """(record key, value) of each declared constant, sorted: a scalar keyed
    by its name, entry j of a list by ``name[j]`` (``c_gamma[0]``)."""
    items = []
    for key, value in _object(ddoc, key_path, _DECLARED_SCALARS + _DECLARED_LISTS,
                              "expected an object of declared constants").items():
        if key in _DECLARED_SCALARS:
            items.append((key, _const(value, f"{key_path}.{key}", required=True)))
            continue
        if not (isinstance(value, list) and len(value) == n_gammas):
            raise ConfigError(f"{key_path}.{key}", f"expected a list of one entry per "
                                                   f"gamma term ({n_gammas})")
        items += ((f"{key}[{j}]", _const(v, f"{key_path}.{key}[{j}]", required=True))
                  for j, v in enumerate(value))
    return tuple(sorted(items))


def _bounds_entry(cls, doc: dict, key_path: str, **given):
    """cls(**given), each other field read from doc as an optional constant
    (the field's default where doc omits it or gives null)."""
    values = {f.name: _const(doc.get(f.name), f"{key_path}.{f.name}", f.default)
              for f in fields(cls) if f.name not in given}
    with _at(key_path):
        return cls(**values, **given)


def _parse_bounds_block(bdoc, bi, components) -> DeclaredBounds:
    kp = f"bounds[{bi}]"
    _object(bdoc, kp, ("rho", "components"), "expected a bounds object")
    rho = _const(bdoc.get("rho"), f"{kp}.rho", required=True)
    if rho <= 0:
        raise ConfigError(f"{kp}.rho", "radius must be positive")
    cdocs = bdoc.get("components")
    if not isinstance(cdocs, list) or len(cdocs) != len(components):
        raise ConfigError(f"{kp}.components", "expected one bounds entry per component")
    comp_bounds = []
    for i, (cb, comp) in enumerate(zip(cdocs, components)):
        ckp = f"{kp}.components[{i}]"
        _object(cb, ckp, _COMPONENT_BOUNDS_KEYS, "expected an object")
        hdocs = cb.get("h", [{}] * len(comp.gammas))
        if not isinstance(hdocs, list) or len(hdocs) != len(comp.gammas):
            raise ConfigError(f"{ckp}.h", "expected a list of one h-bounds entry per "
                                          "gamma term")
        hb = []
        for j, hdoc in enumerate(hdocs):
            hkp = f"{ckp}.h[{j}]"
            _object(hdoc, hkp, _H_BOUNDS_KEYS, "expected an object")
            hb.append(_bounds_entry(HBounds, hdoc, hkp))
        comp_bounds.append(_bounds_entry(ComponentBounds, cb, ckp, h=tuple(hb)))
    with _at(kp):
        return DeclaredBounds(rho=rho, components=tuple(comp_bounds))
