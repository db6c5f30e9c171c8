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

Comparisons are exact on the computed doubles -- no epsilon fudging -- and
every row reports its margin so grid-resolution risk can be judged
explicitly.  Bounds with zero coefficient are not required; a missing bound
with positive coefficient raises MissingBoundError.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .bounds import DeclaredBounds
from .cone import zero_state
from .constants import ConeConstants
from .errors import ConfigError, ContradictionError, MissingBoundError
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
        return {"label": self.label, "lhs": self.lhs, "threshold": self.threshold,
                "comparison": self.comparison, "holds": self.holds,
                "margin": self.margin}


def _row(label: str, lhs: float, threshold: float, comparison: str) -> Row:
    if comparison == "<=":
        holds, margin = lhs <= threshold, threshold - lhs
    elif comparison == ">=":
        holds, margin = lhs >= threshold, lhs - threshold
    elif comparison == "<":
        holds, margin = lhs < threshold, threshold - lhs
    elif comparison == ">":
        holds, margin = lhs > threshold, lhs - threshold
    else:
        raise ValueError(comparison)
    return Row(label, lhs, threshold, comparison, holds, margin)


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


def _constant_provenance(cc: Sequence[ConeConstants], keys_per_comp) -> tuple[dict, list[str]]:
    prov = {}
    notes = []
    for i, keys in keys_per_comp.items():
        for key in keys:
            rec = cc[i - 1].records.get(key)
            if rec is None:
                continue
            prov[rec.symbol] = rec.as_dict()
            if rec.flags:
                notes.append(
                    f"constant {rec.symbol}: declared {rec.declared!r} differs from "
                    f"computed {rec.computed!r}; the computed value was used")
    return prov, notes


def _need(value, what: str, coefficient: float):
    if value is None:
        if coefficient > 0.0:
            raise MissingBoundError(f"{what} is required (its coefficient "
                                    f"{coefficient} is positive) but not declared")
        return 0.0
    return value


def _check_shape(spec: "ProblemSpec", db: DeclaredBounds) -> None:
    if len(db.components) != spec.n:
        raise ConfigError("bounds", f"declared bounds carry {len(db.components)} "
                                    f"component entries for an n={spec.n} problem")


def check_I1(spec: "ProblemSpec", cc: Sequence[ConeConstants], db: DeclaredBounds,
             params: "Params | None" = None) -> Certificate:
    """Index-1 growth condition at radius db.rho; certified iff the max over
    components and derivative orders of the lhs stays <= rho."""
    params = _effective_params(spec, params)
    _check_shape(spec, db)
    rho = db.rho
    rows = []
    used: dict[int, set] = {}
    for i, (comp, cb) in enumerate(zip(spec.components, db.components), start=1):
        lam = params.lambdas[i - 1]
        f_hi = _need(cb.f_hi, f"f_hi[{i}] at rho={rho}", lam)
        for l in (0, 1):
            recip = cc[i - 1].recip_m0 if l == 0 else cc[i - 1].recip_m1
            gsup = cc[i - 1].gamma_sup if l == 0 else cc[i - 1].dgamma_sup
            lhs = lam * f_hi * recip
            for j in range(len(comp.gammas)):
                eta = params.etas[i - 1][j]
                h_hi = _need(cb.h[j].hi, f"h_hi[{i},{j + 1}] at rho={rho}", eta)
                lhs += eta * gsup[j] * h_hi
            rows.append(_row(f"i={i},l={l}", lhs, rho, "<="))
            used.setdefault(i, set()).update(
                {f"recip_m{l}"} | {f"{'gamma_sup' if l == 0 else 'dgamma_sup'}[{j}]"
                                   for j in range(len(comp.gammas))})
    binding = max(rows, key=lambda r: r.lhs)
    prov, notes = _constant_provenance(cc, used)
    prov["bounds"] = {"rho": rho, "f_hi": [cb.f_hi for cb in db.components],
                      "h_hi": [[hb.hi for hb in cb.h] for cb in db.components]}
    return Certificate("I1", (rho,), tuple(rows), all(r.holds for r in rows),
                       binding.label, _params_dict(params), prov, tuple(notes))


def _i0_row(i: int, comp, cb, cci: ConeConstants, params: "Params",
            rho: float) -> Row:
    lam = params.lambdas[i - 1]
    delta_tilde = _need(cb.delta_tilde, f"delta_tilde[{i}] at rho={rho}", lam)
    lhs = lam * delta_tilde * cci.c_tilde * cci.recip_M
    for j in range(len(comp.gammas)):
        eta = params.etas[i - 1][j]
        delta = _need(cb.h[j].delta, f"h delta[{i},{j + 1}] at rho={rho}", eta)
        lhs += eta * cci.c_gamma[j] * delta * cci.gamma_sup[j]
    return Row(f"i={i}", lhs, 1.0, ">=", lhs >= 1.0, lhs - 1.0)


def check_I0(spec: "ProblemSpec", cc: Sequence[ConeConstants], db: DeclaredBounds,
             params: "Params | None" = None) -> Certificate:
    """Index-0 condition at radius db.rho; certified iff the min over
    components of the lhs is >= 1 (non-strict, as displayed)."""
    params = _effective_params(spec, params)
    _check_shape(spec, db)
    rows = []
    used = {}
    for i, (comp, cb) in enumerate(zip(spec.components, db.components), start=1):
        rows.append(_i0_row(i, comp, cb, cc[i - 1], params, db.rho))
        used[i] = {"c_tilde", "recip_M"} | \
            {f"c_gamma[{j}]" for j in range(len(comp.gammas))} | \
            {f"gamma_sup[{j}]" for j in range(len(comp.gammas))}
    binding = min(rows, key=lambda r: r.lhs)
    prov, notes = _constant_provenance(cc, used)
    prov["bounds"] = {"rho": db.rho,
                      "delta_tilde": [cb.delta_tilde for cb in db.components],
                      "delta": [[hb.delta for hb in cb.h] for cb in db.components],
                      "sign_box": [SignBox(i, spec.n, db.rho).lower()
                                   for i in range(1, spec.n + 1)]}
    return Certificate("I0", (db.rho,), tuple(rows), all(r.holds for r in rows),
                       binding.label, _params_dict(params), prov, tuple(notes))


def check_I0_star(spec: "ProblemSpec", cc: Sequence[ConeConstants],
                  db: DeclaredBounds, i0: int,
                  params: "Params | None" = None) -> Certificate:
    """Single-component index-0 condition: only component i0's growth is
    restricted, via the declared f_lo on the sign-restricted box."""
    params = _effective_params(spec, params)
    _check_shape(spec, db)
    if not (1 <= i0 <= spec.n):
        raise ConfigError("i0", f"component index out of range 1..{spec.n}")
    rho = db.rho
    comp = spec.components[i0 - 1]
    cb = db.components[i0 - 1]
    cci = cc[i0 - 1]
    lam = params.lambdas[i0 - 1]
    f_lo = _need(cb.f_lo, f"f_lo[{i0}] at rho={rho}", lam)
    lhs = lam * f_lo * cci.recip_M
    for j in range(len(comp.gammas)):
        eta = params.etas[i0 - 1][j]
        lhs += eta * cci.c_gamma[j] * cci.gamma_sup[j] * cb.h[j].lo
    row = _row(f"i0={i0}", lhs, rho, ">=")
    used = {i0: {"c_tilde", "recip_M"} |
            {f"c_gamma[{j}]" for j in range(len(comp.gammas))} |
            {f"gamma_sup[{j}]" for j in range(len(comp.gammas))}}
    prov, notes = _constant_provenance(cc, used)
    prov["bounds"] = {"rho": rho, "f_lo": cb.f_lo,
                      "h_lo": [hb.lo for hb in cb.h],
                      "sign_box": SignBox(i0, spec.n, rho).lower()}
    return Certificate("I0star", (rho,), (row,), row.holds, row.label,
                       _params_dict(params), prov, tuple(notes))


def existence_certificate(spec: "ProblemSpec", cc: Sequence[ConeConstants],
                          db1: DeclaredBounds, db2: DeclaredBounds,
                          mode: str, i0: int | None = None,
                          params: "Params | None" = None) -> Certificate:
    """Existence with localization rho1 <= ||u|| <= rho2.

    Mode "S" pairs I0 at rho1 with I1 at rho2; mode "Sstar" pairs I0* at
    rho1 with I1 at rho2.  In mode Sstar with i0 unspecified, each component
    is tried in turn and the first certified one is used.
    """
    params = _effective_params(spec, params)
    if db1.rho >= db2.rho:
        raise ConfigError("rho1/rho2", f"need rho1 < rho2, got {db1.rho} >= {db2.rho}")
    if mode not in ("S", "Sstar"):
        raise ConfigError("mode", "mode must be 'S' or 'Sstar'")
    outer = check_I1(spec, cc, db2, params)
    notes: list[str] = []
    if mode == "S":
        inner = check_I0(spec, cc, db1, params)
    elif i0 is not None:
        inner = check_I0_star(spec, cc, db1, i0, params)
    else:
        inner = None
        for cand in range(1, spec.n + 1):
            try:
                attempt = check_I0_star(spec, cc, db1, cand, params)
            except MissingBoundError:
                continue
            if inner is None or (attempt.certified and not inner.certified):
                inner = attempt
            if attempt.certified:
                notes.append(f"i0 not specified; component {cand} certifies the "
                             "inner condition")
                break
        if inner is None:
            raise MissingBoundError(
                f"no component declares f_lo at rho={db1.rho}; cannot evaluate the "
                "single-component inner condition")
    certified = inner.certified and outer.certified
    kind = "S" if mode == "S" else "Sstar"
    notes.extend(inner.notes + outer.notes)
    if certified:
        notes.append(f"a nontrivial solution exists in the cone with "
                     f"{db1.rho} <= ||u|| <= {db2.rho}")
    binding = inner.binding if not inner.certified else outer.binding
    return Certificate(kind, (db1.rho, db2.rho), inner.rows + outer.rows,
                       certified, binding, _params_dict(params),
                       {"inner": inner.provenance, "outer": outer.provenance},
                       tuple(dict.fromkeys(notes)), children=(inner, outer))


def _nonexistence_rows(spec: "ProblemSpec", cc: Sequence[ConeConstants],
                       db: DeclaredBounds, setI: Sequence[int], setJ: Sequence[int],
                       params: "Params") -> tuple[list[int], list[int], list[Row], dict]:
    """The validated partition {I, J} (sorted), the nonexistence rows at
    radius db.rho (I rows, then J rows) and the constants each row uses."""
    _check_shape(spec, db)
    setI, setJ = sorted(set(setI)), sorted(set(setJ))
    if set(setI) & set(setJ) or set(setI) | set(setJ) != set(range(1, spec.n + 1)):
        raise ConfigError("setI/setJ",
                          f"I={setI} and J={setJ} must partition 1..{spec.n}")
    rho = db.rho
    rows = []
    used = {}
    for i in setI:
        comp, cb, cci = spec.components[i - 1], db.components[i - 1], cc[i - 1]
        lam = params.lambdas[i - 1]
        xi_tilde = _need(cb.xi_tilde, f"xi_tilde[{i}] at rho={rho}", lam)
        lhs = lam * xi_tilde * cci.recip_m0
        for j in range(len(comp.gammas)):
            eta = params.etas[i - 1][j]
            xi = _need(cb.h[j].xi, f"h xi[{i},{j + 1}] at rho={rho}", eta)
            lhs += eta * xi * cci.gamma_sup[j]
        rows.append(_row(f"I:i={i}", lhs, 1.0, "<"))
        used[i] = {"recip_m0"} | {f"gamma_sup[{j}]" for j in range(len(comp.gammas))}
    for i in setJ:
        comp, cb, cci = spec.components[i - 1], db.components[i - 1], cc[i - 1]
        base = _i0_row(i, comp, cb, cci, params, rho)
        rows.append(_row(f"J:i={i}", base.lhs, 1.0, ">"))
        used[i] = {"c_tilde", "recip_M"} | \
            {f"c_gamma[{j}]" for j in range(len(comp.gammas))} | \
            {f"gamma_sup[{j}]" for j in range(len(comp.gammas))}
    return setI, setJ, rows, used


def nonexistence_certificate(spec: "ProblemSpec", cc: Sequence[ConeConstants],
                             db: DeclaredBounds, setI: Sequence[int],
                             setJ: Sequence[int],
                             params: "Params | None" = None,
                             quad: QuadConfig | None = None) -> Certificate:
    """At-most-zero-solutions certificate on the closed ball of radius db.rho.

    Bounds here are declared over the closed ball (not just the boundary).
    Both displayed comparisons are strict.  The zero state's residual is
    evaluated as well: only when the zero state fails to satisfy the system
    does a certified verdict mean "no solutions at all" in the ball.
    """
    params = _effective_params(spec, params)
    setI, setJ, rows, used = _nonexistence_rows(spec, cc, db, setI, setJ, params)
    rho = db.rho
    certified = all(r.holds for r in rows)
    binding = min(rows, key=lambda r: r.margin) if rows else None
    prov, notes = _constant_provenance(cc, used)
    prov["bounds"] = {"rho": rho, "setI": setI, "setJ": setJ,
                      "xi_tilde": [db.components[i - 1].xi_tilde for i in setI],
                      "delta_tilde": [db.components[i - 1].delta_tilde for i in setJ]}

    z = zero_state(spec.n, spec.solver.nodes)
    r0 = residual(spec, z, quad or spec.quad, params)
    zero_solves = r0 <= ZERO_RESIDUAL_TOL
    prov["zero_state_residual"] = r0
    if zero_solves:
        notes.append(f"the zero state satisfies the system (residual {r0:.3e}); "
                     "a certified verdict means the zero solution is the only one "
                     "in the closed ball")
    else:
        notes.append(f"the zero state does not satisfy the system (residual "
                     f"{r0:.3e}); a certified verdict means no solutions at all "
                     f"with norm <= {rho}")
    return Certificate("NIJ", (rho,), tuple(rows), certified,
                       binding.label if binding else "", _params_dict(params),
                       prov, tuple(notes))


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
                writer.writerow({**{k: repr(row[k]) for k in names},
                                 "verdict": row["verdict"],
                                 "binding": row["binding"],
                                 "margin": repr(row["margin"])})

    def counts(self) -> dict:
        out: dict[str, int] = {}
        for row in self.rows:
            out[row["verdict"]] = out.get(row["verdict"], 0) + 1
        return out


def sweep(spec: "ProblemSpec", cc: Sequence[ConeConstants],
          axes: Sequence[SweepAxis], *, mode: str, db1: DeclaredBounds,
          db2: DeclaredBounds, i0: int | None = None,
          nonexistence: dict | None = None) -> SweepResult:
    """Classify every grid point as existence-certified, nonexistence-
    certified or undetermined.

    ``nonexistence``, when given, is {"db": DeclaredBounds, "setI": [...],
    "setJ": [...]}; without it only existence is evaluated.  A point's
    nonexistence verdict, binding row and margin come from the inequality
    rows alone, so T(0) is never evaluated here; ``nonexistence_certificate``
    reports the zero-state residual.  A point certified both ways under the
    same declared bounds is a contradiction and aborts the sweep with a full
    dump of both certificates.
    """
    from .problem import Params

    base = Params.from_spec(spec)
    axes = tuple(axes)
    grids = [ax.grid() for ax in axes]
    rows = []
    for combo in np.ndindex(*[g.size for g in grids]):
        overrides = {ax.name: float(grids[k][combo[k]]) for k, ax in enumerate(axes)}
        params = base.with_overrides(overrides)
        exist = existence_certificate(spec, cc, db1, db2, mode, i0, params)
        nonex_rows = None
        if nonexistence is not None:
            nonex_rows = _nonexistence_rows(
                spec, cc, nonexistence["db"], nonexistence["setI"],
                nonexistence["setJ"], params)[2]
        nonex_certified = nonex_rows is not None and all(r.holds for r in nonex_rows)
        if exist.certified and nonex_certified:
            nonex = nonexistence_certificate(
                spec, cc, nonexistence["db"], nonexistence["setI"],
                nonexistence["setJ"], params)
            raise ContradictionError(
                f"grid point {overrides} certified both for existence and "
                "nonexistence under the same declared bounds",
                {"point": overrides, "existence": exist.as_dict(),
                 "nonexistence": nonex.as_dict()})
        if nonex_certified:
            verdict = "nonexistence-certified"
            binding_row = min(nonex_rows, key=lambda r: r.margin)
        else:
            verdict = "existence-certified" if exist.certified else "undetermined"
            binding_row = next(r for r in exist.rows if r.label == exist.binding)
        rows.append({**overrides, "verdict": verdict, "binding": binding_row.label,
                     "margin": binding_row.margin})
    return SweepResult(axes, rows)
