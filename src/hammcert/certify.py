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

Each family's rows are built by one private row builder as data: per row
its label, threshold, comparison and monomials, each monomial one parameter
followed by its factors (constant record keys and declared bounds) in the
order shown.  One evaluator folds them left to right, at one point on floats
(a certificate, which also reads its provenance and notes off the record
keys) or on float64 columns of a whole grid (``sweep``, which reads the rows
alone).  Elementwise numpy rounds each product and sum as Python floats do,
so a grid point's lhs, margin and binding row are the doubles its
certificate would hold; one rule (``_verdict``) gives the verdict and the
binding row of both.

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
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from .bounds import DeclaredBounds, _check_shape, _sign_box
from .cone import _write_csv, zero_state
from .constants import ConeConstants
from .errors import (ConfigError, ContradictionError, HammcertError, MissingBoundError,
                     _finite_real, _integer)
from .problem import parse_param_name
from .solver import _check_radii, residual

if TYPE_CHECKING:
    from .problem import Params, ProblemSpec

__all__ = ["Certificate", "Row", "check_I1", "check_I0",
           "check_I0_star", "existence_certificate", "nonexistence_certificate",
           "SweepAxis", "SweepResult", "sweep"]

ZERO_RESIDUAL_TOL = 1e-10


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


class _Bound(NamedTuple):
    """A declared bound as a factor of a row: the name its missing-bound
    error prints, and its value (None where it is not declared)."""
    name: str
    value: float | None


class _Inequality(NamedTuple):
    """A row as data: lhs = sum of its monomials, compared with threshold.
    A monomial is its parameter, (i, None) for lambda_i or (i, j) for the
    eta_ij at params.etas[i - 1][j], followed by its factors in
    multiplication order: a record key of component i's constants (a str)
    or a _Bound."""
    label: str
    threshold: float
    comparison: str
    monomials: tuple[tuple, ...]


def _evaluate(rows: Sequence[_Inequality], cc: Sequence[ConeConstants], lambdas,
              etas) -> tuple[list[Row], list[tuple[str, object]]]:
    """The rows at the parameters, floats or float64 columns alike: each
    monomial is folded left to right, then the monomials are summed left to
    right.  Elementwise numpy rounds as Python floats do, so a column holds
    at each point the double a certificate there holds.  A missing bound
    counts as 0.0; each one read is returned with its coefficient (the
    monomial's parameter), in reading order."""
    evaluated, missing = [], []
    for row in rows:
        lhs = None
        for (i, j), *factors in row.monomials:
            coefficient = term = lambdas[i - 1] if j is None else etas[i - 1][j]
            for factor in factors:
                if isinstance(factor, str):
                    factor = cc[i - 1].records[factor].used
                elif factor.value is None:
                    missing.append((factor.name, coefficient))
                    factor = 0.0
                else:
                    factor = factor.value
                term = term * factor
            lhs = term if lhs is None else lhs + term
        evaluated.append(_row(row.label, lhs, row.threshold, row.comparison))
    return evaluated, missing


def _rows_at(rows: Sequence[_Inequality], cc: Sequence[ConeConstants],
             params: "Params") -> list[Row]:
    """The rows at one parameter point; the first missing bound read with a
    positive coefficient raises MissingBoundError."""
    evaluated, missing = _evaluate(rows, cc, params.lambdas, params.etas)
    for name, coefficient in missing:
        if coefficient > 0.0:
            raise MissingBoundError(f"{name} is required (its coefficient "
                                    f"{coefficient} is positive) but not declared")
    return evaluated


def _constant_provenance(cc: Sequence[ConeConstants],
                         rows: Sequence[_Inequality]) -> tuple[dict, list[str]]:
    """The records of the constants the rows read, and a note for each
    flagged one, in reading order."""
    prov, notes = {}, []
    for row in rows:
        for (i, _), *factors in row.monomials:
            for rec in (cc[i - 1].records[k] for k in factors if isinstance(k, str)):
                prov[rec.symbol] = rec.as_dict()
                if rec.flags:
                    notes.append(
                        f"constant {rec.symbol}: declared {rec.declared!r} differs "
                        f"from computed {rec.computed!r}; the computed value was used")
    return prov, notes


def _i1_rows(spec: "ProblemSpec", db: DeclaredBounds) -> list[_Inequality]:
    _check_shape(spec, db)
    rho, rows = db.rho, []
    for i, cb in enumerate(db.components, start=1):
        for l, sup in ((0, "gamma_sup"), (1, "dgamma_sup")):
            rows.append(_Inequality(f"i={i},l={l}", rho, "<=", (
                ((i, None), _Bound(f"f_hi[{i}] at rho={rho}", cb.f_hi), f"recip_m{l}"),
                *(((i, j), f"{sup}[{j}]", _Bound(f"h_hi[{i},{j + 1}] at rho={rho}", hb.hi))
                  for j, hb in enumerate(cb.h)))))
    return rows


def _i0_rows(spec: "ProblemSpec", db: DeclaredBounds,
             components: Sequence[int] | None = None, prefix: str = "",
             comparison: str = ">=") -> list[_Inequality]:
    """I0 rows of the given components (all by default); with prefix "J:"
    and comparison ">" they are the nonexistence J rows."""
    _check_shape(spec, db)
    rho, rows = db.rho, []
    for i in range(1, spec.n + 1) if components is None else components:
        cb = db.components[i - 1]
        rows.append(_Inequality(f"{prefix}i={i}", 1.0, comparison, (
            ((i, None), _Bound(f"delta_tilde[{i}] at rho={rho}", cb.delta_tilde),
             "c_tilde", "recip_M"),
            *(((i, j), f"c_gamma[{j}]",
               _Bound(f"h delta[{i},{j + 1}] at rho={rho}", hb.delta), f"gamma_sup[{j}]")
              for j, hb in enumerate(cb.h)))))
    return rows


def _i0_star_rows(spec: "ProblemSpec", db: DeclaredBounds,
                  i0: int) -> list[_Inequality]:
    _check_shape(spec, db)
    _check_i0(spec, i0)
    rho, cb = db.rho, db.components[i0 - 1]
    return [_Inequality(f"i0={i0}", rho, ">=", (
        ((i0, None), _Bound(f"f_lo[{i0}] at rho={rho}", cb.f_lo), "recip_M"),
        *(((i0, j), f"c_gamma[{j}]", f"gamma_sup[{j}]",
           _Bound(f"h_lo[{i0},{j + 1}] at rho={rho}", hb.lo))
          for j, hb in enumerate(cb.h))))]


def _nonexistence_rows(spec: "ProblemSpec", db: DeclaredBounds, setI: Sequence[int],
                       setJ: Sequence[int]
                       ) -> tuple[list[int], list[int], list[_Inequality]]:
    """The validated partition {I, J} (sorted), and the I rows then the J
    rows at radius db.rho."""
    _check_shape(spec, db)
    setI, setJ = _partition(spec, setI, setJ)
    rho, rows = db.rho, []
    for i in setI:
        cb = db.components[i - 1]
        rows.append(_Inequality(f"I:i={i}", 1.0, "<", (
            ((i, None), _Bound(f"xi_tilde[{i}] at rho={rho}", cb.xi_tilde), "recip_m0"),
            *(((i, j), _Bound(f"h xi[{i},{j + 1}] at rho={rho}", hb.xi), f"gamma_sup[{j}]")
              for j, hb in enumerate(cb.h)))))
    return setI, setJ, rows + _i0_rows(spec, db, setJ, "J:", ">")


def _check_index(key: str, value) -> None:
    """ConfigError naming key unless value is an integer."""
    if not _integer(value):
        raise ConfigError(key, f"a component index must be an integer, got {value!r}")


def _check_i0(spec: "ProblemSpec", i0: int) -> None:
    _check_index("i0", i0)
    if not (1 <= i0 <= spec.n):
        raise ConfigError("i0", f"component index out of range 1..{spec.n}")


def _partition(spec: "ProblemSpec", setI: Sequence[int],
               setJ: Sequence[int]) -> tuple[list[int], list[int]]:
    """I and J sorted, once they are checked to partition 1..n."""
    for i in (*setI, *setJ):
        _check_index("setI/setJ", i)
    setI, setJ = sorted({int(i) for i in setI}), sorted({int(j) for j in setJ})
    if set(setI) & set(setJ) or set(setI) | set(setJ) != set(range(1, spec.n + 1)):
        raise ConfigError("setI/setJ",
                          f"I={setI} and J={setJ} must partition 1..{spec.n}")
    return setI, setJ


def _check_existence(spec: "ProblemSpec", db1: DeclaredBounds, db2: DeclaredBounds,
                     mode: str, i0: int | None) -> None:
    """rho1 < rho2, the mode, and i0 in mode Sstar (mode S ignores it)."""
    _check_radii(db1.rho, db2.rho)
    if mode not in ("S", "Sstar"):
        raise ConfigError("mode", "mode must be 'S' or 'Sstar'")
    if mode == "Sstar" and i0 is not None:
        _check_i0(spec, i0)


# per row family, the row that binds its verdict: the one of largest
# (operator.gt) or least (operator.lt) lhs or margin
_BINDING = {"I1": ("lhs", operator.gt), "I0": ("lhs", operator.lt),
            "I0star": ("lhs", operator.lt), "NIJ": ("margin", operator.lt)}


def _verdict(kind: str, rows: Sequence[Row],
             size: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Whether every row holds, as a bool array of ``size`` points, and the
    index of the binding row (``_BINDING``), at one point on floats or at
    every grid point on float64 columns."""
    field, better = _BINDING[kind]
    holds = np.ones(size, bool)
    for row in rows:
        holds &= row.holds
    return holds, _first_best([getattr(row, field) for row in rows], better)


def _first_best(values: Sequence, better) -> np.ndarray:
    """The index of the value that ``better`` (operator.gt for the largest,
    operator.lt for the least) picks, per grid point: a left-to-right scan
    that moves on only to a strictly better value, so ties and NaNs keep
    the earlier row, as ``max`` and ``min`` do (np.argmax would take a
    NaN)."""
    best, index = values[0], 0
    for k, value in enumerate(values[1:], start=1):
        moves = better(value, best)
        best, index = np.where(moves, value, best), np.where(moves, k, index)
    return index


def _certificate(kind: str, cc: Sequence[ConeConstants], db: DeclaredBounds,
                 params: "Params", rows: list[_Inequality], bounds: dict) -> Certificate:
    """The certificate of a row family's rows at radius db.rho: their values,
    the verdict and binding row of ``_verdict``, and as provenance the
    records of the constants they read and the declared ``bounds`` given."""
    evaluated = _rows_at(rows, cc, params)
    holds, binding = _verdict(kind, evaluated)
    prov, notes = _constant_provenance(cc, rows)
    prov["bounds"] = {"rho": db.rho, **bounds}
    return Certificate(kind, (db.rho,), tuple(evaluated), bool(holds[0]),
                       evaluated[binding].label, _params_dict(params), prov, tuple(notes))


def check_I1(spec: "ProblemSpec", cc: Sequence[ConeConstants], db: DeclaredBounds,
             params: "Params | None" = None) -> Certificate:
    """Index-1 growth condition at radius db.rho; certified iff the max over
    components and derivative orders of the lhs stays <= rho."""
    params = spec.params if params is None else params
    rows, cbs = _i1_rows(spec, db), db.components
    return _certificate("I1", cc, db, params, rows, {
        "f_hi": [cb.f_hi for cb in cbs], "h_hi": [[hb.hi for hb in cb.h] for cb in cbs]})


def check_I0(spec: "ProblemSpec", cc: Sequence[ConeConstants], db: DeclaredBounds,
             params: "Params | None" = None) -> Certificate:
    """Index-0 condition at radius db.rho; certified iff the min over
    components of the lhs is >= 1 (non-strict, as displayed)."""
    params = spec.params if params is None else params
    rows, cbs = _i0_rows(spec, db), db.components
    return _certificate("I0", cc, db, params, rows, {
        "delta_tilde": [cb.delta_tilde for cb in cbs],
        "delta": [[hb.delta for hb in cb.h] for cb in cbs],
        "sign_box": [_sign_box(i, spec.n, db.rho) for i in range(1, spec.n + 1)]})


def check_I0_star(spec: "ProblemSpec", cc: Sequence[ConeConstants], db: DeclaredBounds,
                  i0: int, params: "Params | None" = None) -> Certificate:
    """Single-component index-0 condition: only component i0's growth is
    restricted, via the declared f_lo on the sign-restricted box."""
    params = spec.params if params is None else params
    rows, cb = _i0_star_rows(spec, db, i0), db.components[i0 - 1]
    return _certificate("I0star", cc, db, params, rows, {
        "f_lo": cb.f_lo, "h_lo": [hb.lo for hb in cb.h],
        "sign_box": _sign_box(i0, spec.n, db.rho)})


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
    params = spec.params if params is None else params
    _check_existence(spec, db1, db2, mode, i0)
    outer = check_I1(spec, cc, db2, params)
    chosen = i0
    if mode == "S":
        inner = check_I0(spec, cc, db1, params)
    else:
        if i0 is None:
            index = int(_first_candidate(spec, cc, db1, params.lambdas, params.etas)[2])
            if index < 0:
                raise MissingBoundError(
                    f"no component declares f_lo at rho={db1.rho}; cannot evaluate "
                    "the single-component inner condition")
            chosen = index + 1
        inner = check_I0_star(spec, cc, db1, chosen, params)
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
                             params: "Params | None" = None) -> Certificate:
    """At-most-zero-solutions certificate on the closed ball of radius db.rho.

    Bounds here are declared over the closed ball (not just the boundary).
    Both displayed comparisons are strict.  The zero state's residual is
    evaluated as well: only when the zero state fails to satisfy the system
    does a certified verdict mean "no solutions at all" in the ball; it is
    taken on ``spec.solver.nodes`` panels under ``spec.quad``.
    """
    params = spec.params if params is None else params
    setI, setJ, rows = _nonexistence_rows(spec, db, setI, setJ)
    cert = _certificate("NIJ", cc, db, params, rows, {
        "setI": setI, "setJ": setJ,
        "xi_tilde": [db.components[i - 1].xi_tilde for i in setI],
        "xi": [[hb.xi for hb in db.components[i - 1].h] for i in setI],
        "delta_tilde": [db.components[i - 1].delta_tilde for i in setJ],
        "delta": [[hb.delta for hb in db.components[j - 1].h] for j in setJ]})
    r0 = residual(spec, zero_state(spec.n, spec.solver.nodes), params=params)
    if r0 <= ZERO_RESIDUAL_TOL:
        note = (f"the zero state satisfies the system (residual {r0:.3e}); a "
                "certified verdict means the zero solution is the only one in the "
                "closed ball")
    else:
        note = (f"the zero state does not satisfy the system (residual {r0:.3e}); "
                f"a certified verdict means no solutions at all with norm <= {db.rho}")
    return replace(cert, provenance={**cert.provenance, "zero_state_residual": r0},
                   notes=(*cert.notes, note))


# ---------------------------------------------------------------------------
# Parameter sweeps

@dataclass(frozen=True)
class SweepAxis:
    name: str     # lambda<i> or eta<i><j>
    lo: float
    hi: float
    steps: int    # number of grid points

    def __post_init__(self):
        """The one axis check: finite real ends a finite distance apart,
        lo <= hi, and an integer number of steps >= 1."""
        if not (_finite_real(self.lo) and _finite_real(self.hi)):
            raise ValueError(f"axis {self.name}: lo and hi must be finite real numbers")
        if self.hi < self.lo:
            raise ValueError(f"axis {self.name}: hi < lo")
        if not math.isfinite(float(self.hi) - float(self.lo)):
            raise ValueError(f"axis {self.name}: hi - lo overflows")
        if not _integer(self.steps):
            raise ValueError(f"axis {self.name}: steps must be an integer")
        if self.steps < 1:
            raise ValueError(f"axis {self.name}: need at least 1 step")

    def grid(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.steps)


@dataclass(eq=False)
class SweepResult:
    """The sweep's columns in grid order: each axis's parameters, "verdict",
    "binding" and "margin".  ``==`` is identity: compare ``rows`` instead."""
    axes: tuple[SweepAxis, ...]
    columns: dict[str, np.ndarray]

    @property
    def rows(self) -> list[dict]:  # one dict per grid point, built on each read
        return [dict(zip(self.columns, values))
                for values in zip(*(col.tolist() for col in self.columns.values()))]

    def to_csv(self, path) -> None:
        _write_csv(path, self.columns)

    def counts(self) -> dict:
        return dict(Counter(self.columns["verdict"].tolist()))


def sweep(spec: "ProblemSpec", cc: Sequence[ConeConstants],
          axes: Sequence[SweepAxis], *, mode: str, db1: DeclaredBounds,
          db2: DeclaredBounds, i0: int | None = None,
          nonexistence: dict | None = None,
          params: "Params | None" = None) -> SweepResult:
    """Classify every grid point as existence-certified, nonexistence-
    certified or undetermined.

    ``nonexistence``, when given, is {"db": DeclaredBounds, "setI": [...],
    "setJ": [...]}; without it only existence is evaluated.  The axes vary
    ``params`` (``spec.params`` by default).  A point's
    verdict, binding row and margin come from its inequality rows alone.

    The grid is evaluated column-wise: each row builder runs once and its
    rows are evaluated on float64 columns of all grid points (the last axis
    varying fastest); the mode-Sstar candidate rule, the verdicts and the
    binding rows are applied per point with masks.  An axis out of range, or
    two axes that set the same parameter, raise ConfigError before anything
    is evaluated.
    A point that would raise -- a negative or non-finite parameter, a
    missing bound with positive coefficient, no evaluable Sstar candidate --
    or that is certified both ways under the same declared bounds stops the
    sweep at the first such point in grid order: that point's certificates
    are built, which raise its error, or a ContradictionError with a dump of
    both.
    """
    base = spec.params if params is None else params
    axes = tuple(axes)
    slots = _axis_slots(base, axes)
    grids = [ax.grid() for ax in axes]
    nonex = None if nonexistence is None else (
        nonexistence["db"], nonexistence["setI"], nonexistence["setJ"])
    columns = [c.ravel() for c in np.meshgrid(*grids, indexing="ij")]

    def raise_at(k: int) -> None:
        """Build grid point k's certificates, which raise its error, or raise
        the ContradictionError if they certify both ways."""
        point = {ax.name: float(col[k]) for ax, col in zip(axes, columns)}
        params = base.with_overrides(point)
        existence = existence_certificate(spec, cc, db1, db2, mode, i0, params)
        if nonex:
            nonexistence = nonexistence_certificate(spec, cc, *nonex, params)
            if existence.certified and nonexistence.certified:
                raise ContradictionError(
                    f"grid point {point} certified both for existence and "
                    "nonexistence under the same declared bounds",
                    {"point": point, "existence": existence.as_dict(),
                     "nonexistence": nonexistence.as_dict()})
        raise AssertionError(f"grid point {point} evaluates cleanly alone")

    try:
        with np.errstate(all="ignore"):
            failing, verdict, binding, margin, labels = _classify(
                spec, cc, base, slots, columns, math.prod(g.size for g in grids),
                mode, db1, db2, i0, nonex)
    except HammcertError:
        # an error of the whole grid: the first point raises it as a
        # point-by-point sweep would
        raise_at(0)
    if failing.any():
        raise_at(int(failing.argmax()))
    return SweepResult(axes, {**{ax.name: col for ax, col in zip(axes, columns)},
                              "verdict": np.array(_VERDICTS, dtype=object)[verdict],
                              "binding": np.array(labels, dtype=object)[binding],
                              "margin": margin})


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

    _check_existence(spec, db1, db2, mode, i0)
    outer, missing = _evaluate(_i1_rows(spec, db2), cc, lambdas, etas)
    if mode == "S" or i0 is not None:
        inner, inner_missing = _evaluate(
            _i0_rows(spec, db1) if mode == "S" else _i0_star_rows(spec, db1, i0),
            cc, lambdas, etas)
        missing += inner_missing
        inner_holds, inner_binding = _verdict("I0" if mode == "S" else "I0star",
                                              inner, size)
    else:
        inner, inner_holds, inner_binding = _first_candidate(spec, cc, db1, lambdas,
                                                             etas)
        failing |= inner_binding < 0
    outer_holds, outer_binding = _verdict("I1", outer, size)
    exist = inner_holds & outer_holds
    verdict = exist.astype(np.intp)
    binding = np.where(inner_holds, outer_binding, len(outer) + inner_binding)
    rows = outer + inner
    if nonex is not None:
        nonex_rows, nonex_missing = _evaluate(_nonexistence_rows(spec, *nonex)[2], cc,
                                              lambdas, etas)
        missing += nonex_missing
        nonex_holds, nonex_binding = _verdict("NIJ", nonex_rows, size)
        failing |= exist & nonex_holds
        verdict[nonex_holds] = 2
        binding = np.where(nonex_holds, len(rows) + nonex_binding, binding)
        rows += nonex_rows
    for _, coefficient in missing:
        failing |= coefficient > 0.0
    margin = np.empty(size)
    for k, row in enumerate(rows):
        np.copyto(margin, row.margin, where=binding == k)
    return failing, verdict, binding, margin, [r.label for r in rows]


def _first_candidate(spec: "ProblemSpec", cc: Sequence[ConeConstants],
                     db1: DeclaredBounds, lambdas, etas):
    """The mode-Sstar rule for an unset i0, at one point on floats or at
    every grid point on float64 columns: the I0* row of the first candidate
    component that holds, else of the first that can be evaluated.  A
    candidate cannot be evaluated where it lacks a bound whose coefficient
    is positive.  Returns every candidate's row, whether the chosen one
    holds, and its index (i0 - 1), which is -1 where no candidate can be
    evaluated."""
    rows, chosen, first = [], -1, -1
    for index in range(spec.n):
        (row,), missing = _evaluate(_i0_star_rows(spec, db1, index + 1), cc,
                                    lambdas, etas)
        evaluable = True
        for _, coefficient in missing:
            evaluable = evaluable & np.logical_not(coefficient > 0.0)
        chosen = np.where((chosen < 0) & evaluable & row.holds, index, chosen)
        first = np.where((first < 0) & evaluable, index, first)
        rows.append(row)
    holds = chosen >= 0
    return rows, holds, np.where(holds, chosen, first)

