"""Inequality certificates for existence and nonexistence of nontrivial solutions.

Every certificate is a set of concrete inequalities over computed cone
constants, declared bounds and the parameter point (lambda_i, eta_ij):

* I1 (index-1 growth cap at radius rho): for every component i and
  derivative order l in {0,1},
      lambda_i * f_hi * (1/m_{i,l}) + sum_j eta_ij ||gamma_ij^(l)|| * h_hi_ij <= rho.
* I0 (index-0 lower push at radius rho): for every component i,
      lambda_i * delta~_i * c~_i * (1/M_i)
      + sum_j eta_ij c_ij delta_ij ||gamma_ij|| >= 1.
* I0* (single-component variant): for one chosen i0,
      lambda_i0 * f_lo * (1/M_i0) + sum_j eta_i0j c_i0j ||gamma_i0j|| h_lo >= rho.
* Existence, mode S: I0 at rho1 and I1 at rho2 (rho1 < rho2); mode S*: I0*
  at rho1 and I1 at rho2.  A certified pair localizes a nontrivial solution
  with rho1 <= ||u|| <= rho2.
* Nonexistence at radius rho, for a partition {I, J} of the components:
  max over I of [lambda_i xi~_i (1/m_{i,0}) + sum eta_ij xi_ij ||gamma_ij||] < 1
  (strict) and min over J of the I0 row > 1 (strict).  A certified pair
  leaves at most the zero solution in the closed ball; the zero state's
  residual is evaluated separately to decide whether even that survives.

Each family's lhs is computed by one private row builder, left to right in
the order shown, which returns its rows and the constants it read in reading
order.  A builder takes the parameter point either as floats (a certificate,
which derives its provenance and notes from those keys) or as float64
columns of a whole grid (``sweep``, which reads the rows alone).  Elementwise
numpy rounds each product and sum as Python floats do, so a grid point's lhs,
margin and binding row are the doubles its certificate would hold.

Comparisons are exact on the computed doubles -- no epsilon fudging -- and
every row reports its margin so grid-resolution risk can be judged
explicitly.  Bounds with zero coefficient are not required; a missing bound
with positive coefficient raises MissingBoundError.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import asdict, dataclass, replace
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .bounds import DeclaredBounds
from .cone import zero_state
from .constants import ConeConstants
from .errors import ConfigError, ContradictionError, HammcertError, MissingBoundError
from .problem import parse_param_name
from .quad import QuadConfig
from .solver import _effective_params, residual

if TYPE_CHECKING:
    from .problem import Params, ProblemSpec

__all__ = ["Certificate", "Row", "SignBox", "check_I1", "check_I0",
           "check_I0_star", "existence_certificate", "nonexistence_certificate",
           "SweepAxis", "SweepResult", "sweep"]

ZERO_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class SignBox:
    """Coordinate box prod_j [theta_j rho, rho] used by the index-0
    conditions: theta_j = 0 for the value coordinate of the distinguished
    component and -1 for every other coordinate."""
    component: int  # 1-based
    n: int
    rho: float

    def lower(self) -> tuple[float, ...]:
        return tuple(0.0 if j == self.component - 1 else -self.rho
                     for j in range(2 * self.n))

    def upper(self) -> tuple[float, ...]:
        return tuple(self.rho for _ in range(2 * self.n))


@dataclass(frozen=True)
class Row:
    label: str
    lhs: float
    threshold: float
    comparison: str  # "<=", ">=", "<", ">"
    holds: bool
    margin: float    # positive = satisfied with room

    def as_dict(self) -> dict:
        return asdict(self)


_HOLDS = {"<=": operator.le, ">=": operator.ge, "<": operator.lt, ">": operator.gt}


def _row(label: str, lhs: float, threshold: float, comparison: str) -> Row:
    margin = threshold - lhs if comparison in ("<=", "<") else lhs - threshold
    return Row(label, lhs, threshold, comparison,
               _HOLDS[comparison](lhs, threshold), margin)


@dataclass(frozen=True)
class Certificate:
    kind: str                      # I1 | I0 | I0star | S | Sstar | NIJ
    radii: tuple[float, ...]
    rows: tuple[Row, ...]
    certified: bool
    binding: str                   # label of the binding row
    params: dict
    provenance: dict
    notes: tuple[str, ...] = ()
    children: tuple["Certificate", ...] = ()

    def as_dict(self) -> dict:
        d = {"kind": self.kind, "radii": list(self.radii),
             "certified": self.certified, "binding": self.binding,
             "rows": [r.as_dict() for r in self.rows],
             "params": self.params, "provenance": self.provenance,
             "notes": list(self.notes)}
        if self.children:
            d["children"] = [c.as_dict() for c in self.children]
        return d


def _params_dict(params: "Params") -> dict:
    return {"lambda": list(params.lambdas),
            "eta": [list(row) for row in params.etas]}


Keys = list[tuple[int, str]]  # (component, record key) of each constant read


def _constant_provenance(cc: Sequence[ConeConstants], keys: Keys) -> tuple[dict, list[str]]:
    """The records of the constants read, and a note for each flagged one."""
    prov, notes = {}, []
    for i, key in keys:
        rec = cc[i - 1].records[key]
        prov[rec.symbol] = rec.as_dict()
        if rec.flags:
            notes.append(
                f"constant {rec.symbol}: declared {rec.declared!r} differs from "
                f"computed {rec.computed!r}; the computed value was used")
    return prov, notes


@dataclass
class _Grid:
    """The P points of a sweep grid as the row builders read them: each
    lambda_i and eta_ij a float64 column of P values, or the base point's
    float where no axis sets it.  Where a builder meets a missing bound with
    a positive coefficient, which on floats raises, it marks the points in
    ``missing``."""
    lambdas: tuple
    etas: tuple
    missing: np.ndarray


def _need(params: "Params | _Grid", value, what: str, coefficient):
    """The declared bound, or 0.0 for a missing one whose coefficient is not
    positive; a missing one with a positive coefficient raises
    MissingBoundError, or on a grid marks the points where it is."""
    if value is None:
        if isinstance(coefficient, np.ndarray):
            params.missing |= coefficient > 0.0
        elif coefficient > 0.0:
            raise MissingBoundError(f"{what} is required (its coefficient "
                                    f"{coefficient} is positive) but not declared")
        return 0.0
    return value


def _read(cc: Sequence[ConeConstants], keys: Keys, i: int, key: str) -> float:
    """The used value of component i's constant record ``key``, noted in keys."""
    keys.append((i, key))
    return cc[i - 1].records[key].used


def _check_shape(spec: "ProblemSpec", db: DeclaredBounds) -> None:
    if len(db.components) != spec.n:
        raise ConfigError("bounds", f"declared bounds carry {len(db.components)} "
                                    f"component entries for an n={spec.n} problem")


def _i1_rows(spec: "ProblemSpec", cc: Sequence[ConeConstants], db: DeclaredBounds,
             params: "Params | _Grid") -> tuple[list[Row], Keys]:
    _check_shape(spec, db)
    rho, rows, keys = db.rho, [], []
    for i, (comp, cb) in enumerate(zip(spec.components, db.components), start=1):
        lam = params.lambdas[i - 1]
        f_hi = _need(params, cb.f_hi, f"f_hi[{i}] at rho={rho}", lam)
        for l, sup in ((0, "gamma_sup"), (1, "dgamma_sup")):
            lhs = lam * f_hi * _read(cc, keys, i, f"recip_m{l}")
            for j in range(len(comp.gammas)):
                eta = params.etas[i - 1][j]
                h_hi = _need(params, cb.h[j].hi, f"h_hi[{i},{j + 1}] at rho={rho}", eta)
                lhs = lhs + eta * _read(cc, keys, i, f"{sup}[{j}]") * h_hi
            rows.append(_row(f"i={i},l={l}", lhs, rho, "<="))
    return rows, keys


def _i0_rows(spec: "ProblemSpec", cc: Sequence[ConeConstants], db: DeclaredBounds,
             params: "Params | _Grid", components: Sequence[int] | None = None,
             prefix: str = "", comparison: str = ">=") -> tuple[list[Row], Keys]:
    """I0 rows of the given components (all by default); with prefix "J:"
    and comparison ">" they are the nonexistence J rows."""
    _check_shape(spec, db)
    rho, rows, keys = db.rho, [], []
    for i in range(1, spec.n + 1) if components is None else components:
        comp, cb = spec.components[i - 1], db.components[i - 1]
        lam = params.lambdas[i - 1]
        delta_tilde = _need(params, cb.delta_tilde, f"delta_tilde[{i}] at rho={rho}",
                            lam)
        lhs = (lam * delta_tilde * _read(cc, keys, i, "c_tilde")
               * _read(cc, keys, i, "recip_M"))
        for j in range(len(comp.gammas)):
            eta = params.etas[i - 1][j]
            delta = _need(params, cb.h[j].delta, f"h delta[{i},{j + 1}] at rho={rho}",
                          eta)
            lhs = lhs + (eta * _read(cc, keys, i, f"c_gamma[{j}]") * delta
                         * _read(cc, keys, i, f"gamma_sup[{j}]"))
        rows.append(_row(f"{prefix}i={i}", lhs, 1.0, comparison))
    return rows, keys


def _i0_star_rows(spec: "ProblemSpec", cc: Sequence[ConeConstants], db: DeclaredBounds,
                  i0: int, params: "Params | _Grid") -> tuple[list[Row], Keys]:
    _check_shape(spec, db)
    if not (1 <= i0 <= spec.n):
        raise ConfigError("i0", f"component index out of range 1..{spec.n}")
    comp, cb = spec.components[i0 - 1], db.components[i0 - 1]
    lam, keys = params.lambdas[i0 - 1], []
    f_lo = _need(params, cb.f_lo, f"f_lo[{i0}] at rho={db.rho}", lam)
    lhs = lam * f_lo * _read(cc, keys, i0, "recip_M")
    for j in range(len(comp.gammas)):
        eta = params.etas[i0 - 1][j]
        lhs = lhs + (eta * _read(cc, keys, i0, f"c_gamma[{j}]")
                     * _read(cc, keys, i0, f"gamma_sup[{j}]") * cb.h[j].lo)
    return [_row(f"i0={i0}", lhs, db.rho, ">=")], keys


def _nonexistence_rows(spec: "ProblemSpec", cc: Sequence[ConeConstants],
                       db: DeclaredBounds, setI: Sequence[int], setJ: Sequence[int],
                       params: "Params | _Grid"
                       ) -> tuple[list[int], list[int], list[Row], Keys]:
    """The validated partition {I, J} (sorted), the I rows then the J rows at
    radius db.rho, and the constants they read."""
    _check_shape(spec, db)
    setI, setJ = sorted(set(setI)), sorted(set(setJ))
    if set(setI) & set(setJ) or set(setI) | set(setJ) != set(range(1, spec.n + 1)):
        raise ConfigError("setI/setJ",
                          f"I={setI} and J={setJ} must partition 1..{spec.n}")
    rho, rows, keys = db.rho, [], []
    for i in setI:
        comp, cb = spec.components[i - 1], db.components[i - 1]
        lam = params.lambdas[i - 1]
        xi_tilde = _need(params, cb.xi_tilde, f"xi_tilde[{i}] at rho={rho}", lam)
        lhs = lam * xi_tilde * _read(cc, keys, i, "recip_m0")
        for j in range(len(comp.gammas)):
            eta = params.etas[i - 1][j]
            xi = _need(params, cb.h[j].xi, f"h xi[{i},{j + 1}] at rho={rho}", eta)
            lhs = lhs + eta * xi * _read(cc, keys, i, f"gamma_sup[{j}]")
        rows.append(_row(f"I:i={i}", lhs, 1.0, "<"))
    j_rows, j_keys = _i0_rows(spec, cc, db, params, setJ, "J:", ">")
    return setI, setJ, rows + j_rows, keys + j_keys


def _check_existence(db1: DeclaredBounds, db2: DeclaredBounds, mode: str) -> None:
    if db1.rho >= db2.rho:
        raise ConfigError("rho1/rho2", f"need rho1 < rho2, got {db1.rho} >= {db2.rho}")
    if mode not in ("S", "Sstar"):
        raise ConfigError("mode", "mode must be 'S' or 'Sstar'")


def _existence_rows(spec: "ProblemSpec", cc: Sequence[ConeConstants], db1: DeclaredBounds,
                    db2: DeclaredBounds, mode: str, i0: int | None, params: "Params"):
    """((rows, keys) at rho1, (rows, keys) at rho2, i0): the I0 rows (mode S,
    i0 None) or the I0* row of component i0 (mode Sstar), and the I1 rows."""
    _check_existence(db1, db2, mode)
    outer = _i1_rows(spec, cc, db2, params)
    if mode == "S":
        return _i0_rows(spec, cc, db1, params), outer, None
    if i0 is not None:
        return _i0_star_rows(spec, cc, db1, i0, params), outer, i0
    first = None
    for cand in range(1, spec.n + 1):
        try:
            inner = _i0_star_rows(spec, cc, db1, cand, params)
        except MissingBoundError:
            continue
        if inner[0][0].holds:
            return inner, outer, cand
        first = first or (inner, outer, cand)
    if first is None:
        raise MissingBoundError(
            f"no component declares f_lo at rho={db1.rho}; cannot evaluate the "
            "single-component inner condition")
    return first


def _certificate(kind: str, spec: "ProblemSpec", cc: Sequence[ConeConstants],
                 db: DeclaredBounds, params: "Params", rows: list[Row], keys: Keys,
                 i0: int | None = None) -> Certificate:
    """The I1, I0 or I0star certificate of a builder's rows and keys."""
    cbs = db.components
    if kind == "I1":
        binding = max(rows, key=lambda r: r.lhs)
        bounds = {"f_hi": [cb.f_hi for cb in cbs],
                  "h_hi": [[hb.hi for hb in cb.h] for cb in cbs]}
    elif kind == "I0":
        binding = min(rows, key=lambda r: r.lhs)
        bounds = {"delta_tilde": [cb.delta_tilde for cb in cbs],
                  "delta": [[hb.delta for hb in cb.h] for cb in cbs],
                  "sign_box": [SignBox(i, spec.n, db.rho).lower()
                               for i in range(1, spec.n + 1)]}
    else:
        binding = rows[0]
        bounds = {"f_lo": cbs[i0 - 1].f_lo, "h_lo": [hb.lo for hb in cbs[i0 - 1].h],
                  "sign_box": SignBox(i0, spec.n, db.rho).lower()}
    prov, notes = _constant_provenance(cc, keys)
    prov["bounds"] = {"rho": db.rho, **bounds}
    return Certificate(kind, (db.rho,), tuple(rows), all(r.holds for r in rows),
                       binding.label, _params_dict(params), prov, tuple(notes))


def check_I1(spec: "ProblemSpec", cc: Sequence[ConeConstants], db: DeclaredBounds,
             params: "Params | None" = None) -> Certificate:
    """Index-1 growth condition at radius db.rho; certified iff the max over
    components and derivative orders of the lhs stays <= rho."""
    params = _effective_params(spec, params)
    return _certificate("I1", spec, cc, db, params, *_i1_rows(spec, cc, db, params))


def check_I0(spec: "ProblemSpec", cc: Sequence[ConeConstants], db: DeclaredBounds,
             params: "Params | None" = None) -> Certificate:
    """Index-0 condition at radius db.rho; certified iff the min over
    components of the lhs is >= 1 (non-strict, as displayed)."""
    params = _effective_params(spec, params)
    return _certificate("I0", spec, cc, db, params, *_i0_rows(spec, cc, db, params))


def check_I0_star(spec: "ProblemSpec", cc: Sequence[ConeConstants], db: DeclaredBounds,
                  i0: int, params: "Params | None" = None) -> Certificate:
    """Single-component index-0 condition: only component i0's growth is
    restricted, via the declared f_lo on the sign-restricted box."""
    params = _effective_params(spec, params)
    return _certificate("I0star", spec, cc, db, params,
                        *_i0_star_rows(spec, cc, db, i0, params), i0)


def existence_certificate(spec: "ProblemSpec", cc: Sequence[ConeConstants],
                          db1: DeclaredBounds, db2: DeclaredBounds,
                          mode: str, i0: int | None = None,
                          params: "Params | None" = None) -> Certificate:
    """Existence with localization rho1 <= ||u|| <= rho2.

    Mode "S" pairs I0 at rho1 with I1 at rho2; mode "Sstar" pairs I0* at
    rho1 with I1 at rho2.  In mode Sstar with i0 unspecified, the first
    component that certifies is used, skipping those that lack a needed
    bound; if none certifies, the first one that could be evaluated.
    """
    params = _effective_params(spec, params)
    inner, outer, chosen = _existence_rows(spec, cc, db1, db2, mode, i0, params)
    inner = _certificate("I0" if mode == "S" else "I0star", spec, cc, db1, params,
                         *inner, chosen)
    outer = _certificate("I1", spec, cc, db2, params, *outer)
    certified = inner.certified and outer.certified
    notes = [*inner.notes, *outer.notes]
    if mode == "Sstar" and i0 is None and inner.certified:
        notes.insert(0, f"i0 not specified; component {chosen} certifies the "
                        "inner condition")
    if certified:
        notes.append(f"a nontrivial solution exists in the cone with "
                     f"{db1.rho} <= ||u|| <= {db2.rho}")
    return Certificate(mode, (db1.rho, db2.rho), inner.rows + outer.rows,
                       certified, outer.binding if inner.certified else inner.binding,
                       _params_dict(params),
                       {"inner": inner.provenance, "outer": outer.provenance},
                       tuple(dict.fromkeys(notes)), children=(inner, outer))


def nonexistence_certificate(spec: "ProblemSpec", cc: Sequence[ConeConstants],
                             db: DeclaredBounds, setI: Sequence[int], setJ: Sequence[int],
                             params: "Params | None" = None,
                             quad: QuadConfig | None = None) -> Certificate:
    """At-most-zero-solutions certificate on the closed ball of radius db.rho.

    Bounds here are declared over the closed ball (not just the boundary).
    Both displayed comparisons are strict.  The zero state's residual is
    evaluated as well: only when the zero state fails to satisfy the system
    does a certified verdict mean "no solutions at all" in the ball.
    """
    params = _effective_params(spec, params)
    setI, setJ, rows, keys = _nonexistence_rows(spec, cc, db, setI, setJ, params)
    binding = min(rows, key=lambda r: r.margin)
    prov, notes = _constant_provenance(cc, keys)
    prov["bounds"] = {"rho": db.rho, "setI": setI, "setJ": setJ,
                      "xi_tilde": [db.components[i - 1].xi_tilde for i in setI],
                      "delta_tilde": [db.components[i - 1].delta_tilde for i in setJ]}
    r0 = residual(spec, zero_state(spec.n, spec.solver.nodes), quad or spec.quad,
                  params)
    prov["zero_state_residual"] = r0
    if r0 <= ZERO_RESIDUAL_TOL:
        notes.append(f"the zero state satisfies the system (residual {r0:.3e}); "
                     "a certified verdict means the zero solution is the only one "
                     "in the closed ball")
    else:
        notes.append(f"the zero state does not satisfy the system (residual "
                     f"{r0:.3e}); a certified verdict means no solutions at all "
                     f"with norm <= {db.rho}")
    return Certificate("NIJ", (db.rho,), tuple(rows), all(r.holds for r in rows),
                       binding.label, _params_dict(params), prov, tuple(notes))


# ---------------------------------------------------------------------------
# Parameter sweeps

@dataclass(frozen=True)
class SweepAxis:
    name: str     # lambda<i> or eta<i><j>
    lo: float
    hi: float
    steps: int    # number of grid points

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError(f"axis {self.name}: need at least 1 step")
        if self.hi < self.lo:
            raise ValueError(f"axis {self.name}: hi < lo")

    def grid(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.steps)


@dataclass
class SweepResult:
    axes: tuple[SweepAxis, ...]
    rows: list[dict]  # one per grid point

    def to_csv(self, path) -> None:
        import csv
        with open(path, "w", newline="") as fh:
            names = [ax.name for ax in self.axes]
            writer = csv.DictWriter(fh, fieldnames=names + ["verdict", "binding", "margin"])
            writer.writeheader()
            for row in self.rows:
                writer.writerow({**row, **{k: repr(row[k]) for k in names},
                                 "margin": repr(row["margin"])})

    def counts(self) -> dict:
        return dict(Counter(row["verdict"] for row in self.rows))


def sweep(spec: "ProblemSpec", cc: Sequence[ConeConstants],
          axes: Sequence[SweepAxis], *, mode: str, db1: DeclaredBounds,
          db2: DeclaredBounds, i0: int | None = None,
          nonexistence: dict | None = None) -> SweepResult:
    """Classify every grid point as existence-certified, nonexistence-
    certified or undetermined.

    ``nonexistence``, when given, is {"db": DeclaredBounds, "setI": [...],
    "setJ": [...]}; without it only existence is evaluated.  A point's
    verdict, binding row and margin come from its inequality rows alone.

    The grid is evaluated column-wise: each row builder runs once, on
    float64 columns of all grid points (the last axis varying fastest), and
    the mode-Sstar candidate rule, the verdicts and the binding rows are
    applied per point with masks.  An axis out of range, or two axes that
    set the same parameter, raise ConfigError before anything is evaluated.
    A point that would raise -- a negative or non-finite parameter, a
    missing bound with positive coefficient, no evaluable Sstar candidate --
    or that is certified both ways under the same declared bounds stops the
    sweep at the first such point in grid order:
    that point is evaluated alone on floats, which raises its error, or a
    ContradictionError with a dump of both full certificates.
    """
    base = _effective_params(spec, None)
    axes = tuple(axes)
    slots = _axis_slots(base, axes)
    grids = [ax.grid() for ax in axes]
    nonex = None if nonexistence is None else (
        nonexistence["db"], nonexistence["setI"], nonexistence["setJ"])
    columns = [c.ravel() for c in np.meshgrid(*grids, indexing="ij")]

    def point(k: int) -> dict:
        return {ax.name: float(col[k]) for ax, col in zip(axes, columns)}

    try:
        with np.errstate(all="ignore"):
            failing, verdict, binding, margin, labels = _classify(
                spec, cc, base, slots, columns, math.prod(g.size for g in grids),
                mode, db1, db2, i0, nonex)
    except HammcertError:
        # an error of the whole grid: the first point, evaluated alone, raises
        # it as a point-by-point sweep would
        _raise_at(spec, cc, base, point(0), mode, db1, db2, i0, nonex)
        raise
    if failing.any():
        k = int(failing.argmax())
        _raise_at(spec, cc, base, point(k), mode, db1, db2, i0, nonex)
        raise AssertionError(f"grid point {point(k)} evaluates cleanly alone")
    keys = (*(ax.name for ax in axes), "verdict", "binding", "margin")
    rows = [dict(zip(keys, values)) for values in zip(
        *(col.tolist() for col in columns),
        np.array(_VERDICTS, dtype=object)[verdict].tolist(),
        np.array(labels, dtype=object)[binding].tolist(), margin.tolist())]
    return SweepResult(axes, rows)


_VERDICTS = ("undetermined", "existence-certified", "nonexistence-certified")


def _axis_slots(base: "Params", axes: Sequence[SweepAxis]) -> list[tuple[str, int, int]]:
    """``parse_param_name`` of each axis.  An axis that names no parameter of
    ``base``, or two axes that set the same parameter, raise ConfigError."""
    slots = {}
    for ax in axes:
        slot = parse_param_name(ax.name)
        base._check_index(ax.name, *slot)
        if slot in slots:
            raise ConfigError(ax.name, f"sets the same parameter as axis {slots[slot]!r}")
        slots[slot] = ax.name
    return list(slots)


def _classify(spec: "ProblemSpec", cc: Sequence[ConeConstants], base: "Params",
              slots: list[tuple[str, int, int]], columns: list[np.ndarray], size: int,
              mode: str, db1: DeclaredBounds, db2: DeclaredBounds, i0: int | None,
              nonex: tuple | None):
    """Per grid point: whether it would raise or is certified both ways, its
    verdict (an index into _VERDICTS), its binding row (an index into the
    returned labels) and that row's margin."""
    lambdas, etas = list(base.lambdas), [list(row) for row in base.etas]
    failing = np.zeros(size, bool)
    for (kind, i, j), col in zip(slots, columns):
        if kind == "lambda":
            lambdas[i] = col
        else:
            etas[i][j] = col
        failing |= ~np.isfinite(col)
    for value in (*lambdas, *(v for row in etas for v in row)):
        failing |= np.less(value, 0.0)  # C6
    grid = _Grid(tuple(lambdas), tuple(tuple(row) for row in etas),
                 np.zeros(size, bool))

    _check_existence(db1, db2, mode)
    outer = _i1_rows(spec, cc, db2, grid)[0]
    if mode == "S" or i0 is not None:
        inner = (_i0_rows(spec, cc, db1, grid) if mode == "S"
                 else _i0_star_rows(spec, cc, db1, i0, grid))[0]
        inner_holds = _all_hold(inner, size)
        inner_binding = _first_best([r.lhs for r in inner], operator.lt)
    else:
        inner, inner_holds, inner_binding = _first_candidate(spec, cc, db1, grid,
                                                             failing)
    exist = inner_holds & _all_hold(outer, size)
    verdict = exist.astype(np.intp)
    binding = np.where(inner_holds, _first_best([r.lhs for r in outer], operator.gt),
                       len(outer) + inner_binding)
    rows = outer + inner
    if nonex is not None:
        nonex_rows = _nonexistence_rows(spec, cc, *nonex, grid)[2]
        nonex_holds = _all_hold(nonex_rows, size)
        failing |= exist & nonex_holds
        verdict[nonex_holds] = 2
        binding = np.where(nonex_holds,
                           len(rows) + _first_best([r.margin for r in nonex_rows],
                                                   operator.lt), binding)
        rows += nonex_rows
    failing |= grid.missing
    margin = np.empty(size)
    for k, row in enumerate(rows):
        np.copyto(margin, row.margin, where=binding == k)
    return failing, verdict, binding, margin, [r.label for r in rows]


def _first_best(values: Sequence, better) -> np.ndarray:
    """Per grid point, the index of the row that ``max`` (better=operator.gt)
    or ``min`` (operator.lt) picks from ``values``, as a certificate does: a
    left-to-right scan that moves on only to a strictly better value, so
    ties and NaNs keep the earlier row (np.argmax would take a NaN)."""
    best, index = values[0], 0
    for k, value in enumerate(values[1:], start=1):
        moves = better(value, best)
        best, index = np.where(moves, value, best), np.where(moves, k, index)
    return index


def _all_hold(rows: list[Row], size: int) -> np.ndarray:
    holds = np.ones(size, bool)
    for row in rows:
        holds &= row.holds
    return holds


def _first_candidate(spec: "ProblemSpec", cc: Sequence[ConeConstants],
                     db1: DeclaredBounds, grid: _Grid, failing: np.ndarray):
    """Mode Sstar with i0 unset, per grid point: the I0* row of the first
    candidate component that holds, else of the first that can be evaluated.
    A candidate cannot be evaluated where it lacks f_lo and its lambda is
    positive.  Returns the candidates' rows, whether the chosen one holds and
    its index, and marks in ``failing`` the points with no evaluable
    candidate."""
    size = failing.size
    rows, chosen, first = [], np.full(size, -1), np.full(size, -1)
    for cand in range(1, spec.n + 1):
        own = replace(grid, missing=np.zeros(size, bool))
        try:
            (row,), _ = _i0_star_rows(spec, cc, db1, cand, own)
        except MissingBoundError:
            continue
        np.copyto(chosen, len(rows), where=(chosen < 0) & ~own.missing & row.holds)
        np.copyto(first, len(rows), where=(first < 0) & ~own.missing)
        rows.append(row)
    holds = chosen >= 0
    chosen = np.where(holds, chosen, first)
    failing |= chosen < 0
    return rows, holds, chosen


def _raise_at(spec: "ProblemSpec", cc: Sequence[ConeConstants], base: "Params",
              overrides: dict, mode: str, db1: DeclaredBounds, db2: DeclaredBounds,
              i0: int | None, nonex: tuple | None) -> None:
    """Evaluate one grid point alone, on floats: raise its error, or the
    ContradictionError if it is certified both ways."""
    params = base.with_overrides(overrides)
    (inner, _), (outer, _), _ = _existence_rows(spec, cc, db1, db2, mode, i0, params)
    nonex_rows = _nonexistence_rows(spec, cc, *nonex, params)[2] if nonex else []
    if nonex and all(r.holds for r in inner + outer + nonex_rows):
        raise ContradictionError(
            f"grid point {overrides} certified both for existence and "
            "nonexistence under the same declared bounds",
            {"point": overrides,
             "existence": existence_certificate(spec, cc, db1, db2, mode, i0,
                                                params).as_dict(),
             "nonexistence": nonexistence_certificate(spec, cc, *nonex,
                                                      params).as_dict()})
