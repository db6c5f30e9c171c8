"""Declared analytic bounds and their sampled falsification.

Certificates consume only bounds the user declares (sup/inf of functionals
over the cone boundary, max/min of nonlinearities over boxes): these are
derived by hand, since no constructive procedure for the exact extrema over
the boundary exists.  The falsifier attacks the declarations by sampling:
it can disprove a declaration (with a concrete witness state) but can never
upgrade one to "verified".  Monte-Carlo extrema are biased inward, which is
the unsafe direction for the certificate inequalities, so estimated ranges
are labeled non-rigorous and are never substituted for declarations.

Checked relations, per declaration present:

* w_lo <= w_i[u] <= w_hi and h_lo <= h_ij[u] <= h_hi on boundary samples;
* h_ij[u] >= delta_ij * ||u_i||_inf and h_ij[u] <= xi_ij * ||u_i||_inf;
* f_i <= f_hi and f_i <= xi_tilde_i * |x_i| on the full box
  [0,1] x [-rho, rho]^{2n} x [w_lo, w_hi];
* f_i >= f_lo and f_i >= delta_tilde_i * x_i on the sign-restricted box
  [a_i, b_i] x prod_j [theta_j rho, rho] x [w_lo, w_hi], where theta_j = 0
  for the i-th value coordinate and -1 otherwise.

Box sampling is a full factorial 5-point grid per dimension when the box has
at most 8 dimensions, and a seeded Latin hypercube with 10^4 points beyond
that.  Comparisons carry a relative slack of 1e-9 so that grid roundoff at
an exactly-attained bound does not count as a refutation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .cone import DiscreteState, c1_norm, sample_cone_boundary_rng
from .constants import ConeConstants
from .errors import ConfigError
from .expr import _SharedPass, eval_functional, eval_scalar
from .quad import QuadConfig

if TYPE_CHECKING:
    from .problem import ProblemSpec

__all__ = ["HBounds", "ComponentBounds", "DeclaredBounds", "Violation",
           "FalsificationReport", "falsify_bounds", "estimate_ranges"]

SLACK = 1e-9
FACTORIAL_POINTS = 5
FACTORIAL_MAX_DIMS = 8
LHS_POINTS = 10_000


@dataclass(frozen=True)
class HBounds:
    lo: float = 0.0           # lower bound for h on the boundary; 0 is always sound
    hi: float | None = None
    delta: float | None = None  # h >= delta * ||u_i||_inf
    xi: float | None = None     # h <= xi * ||u_i||_inf

    def __post_init__(self):
        if self.lo < 0 or (self.hi is not None and self.hi < 0):
            raise ValueError("h bounds must be nonnegative (C7)")
        if self.hi is not None and self.lo > self.hi:
            raise ValueError(f"h_lo={self.lo} > h_hi={self.hi}")


@dataclass(frozen=True)
class ComponentBounds:
    w_lo: float | None = None
    w_hi: float | None = None
    f_hi: float | None = None
    f_lo: float | None = None
    delta_tilde: float | None = None
    xi_tilde: float | None = None
    h: tuple[HBounds, ...] = ()

    def __post_init__(self):
        for name in ("w_lo", "w_hi"):
            v = getattr(self, name)
            if v is not None and v < 0:
                raise ValueError(f"{name} must be nonnegative (C8)")
        if self.w_lo is not None and self.w_hi is not None and self.w_lo > self.w_hi:
            raise ValueError(f"w_lo={self.w_lo} > w_hi={self.w_hi}")

    def w_range(self) -> tuple[float, float]:
        if self.w_lo is None or self.w_hi is None:
            raise ConfigError("w_lo/w_hi", "an f-box check needs the declared w-range")
        return self.w_lo, self.w_hi


@dataclass(frozen=True)
class DeclaredBounds:
    rho: float
    components: tuple[ComponentBounds, ...]

    def __post_init__(self):
        if self.rho <= 0:
            raise ValueError("rho must be positive")


@dataclass
class Violation:
    kind: str                 # e.g. "w_hi", "h_delta", "f_hi", ...
    component: int            # 1-based
    term: int | None          # 1-based gamma-term index, if h-related
    declared: float
    observed: float           # the worst value seen
    witness: DiscreteState | None   # state attaining it, when state-based
    point: dict | None        # box coordinates, when f-based
    detail: str
    count: int = 1            # how many samples violated this bound

    def as_dict(self) -> dict:
        return {"kind": self.kind, "component": self.component, "term": self.term,
                "declared": self.declared, "observed": self.observed,
                "point": self.point, "detail": self.detail, "count": self.count}


@dataclass
class FalsificationReport:
    rho: float
    samples: int
    seed: int
    violations: list[Violation]
    checked: list[str]
    skipped: list[str]

    @property
    def falsified(self) -> bool:
        return bool(self.violations)

    def as_dict(self) -> dict:
        return {"rho": self.rho, "samples": self.samples, "seed": self.seed,
                "falsified": self.falsified,
                "violations": [v.as_dict() for v in self.violations],
                "checked": self.checked, "skipped": self.skipped}


def _slack(bound: float) -> float:
    return SLACK * max(1.0, abs(bound))


def falsify_bounds(spec: "ProblemSpec", cc: Sequence[ConeConstants],
                   db: DeclaredBounds, samples: int, seed: int,
                   quad: QuadConfig | None = None,
                   include_interior: bool = False) -> FalsificationReport:
    """Attack every declared bound in ``db`` by sampling.

    Boundary states are drawn on ||u|| = rho; with ``include_interior`` each
    sample is additionally scaled into the ball (for bounds declared over
    the closed ball rather than the boundary).  Every violation carries a
    concrete witness whose re-evaluation reproduces it.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if len(db.components) != spec.n:
        raise ConfigError("bounds", f"declared bounds carry {len(db.components)} "
                                    f"component entries for an n={spec.n} problem")
    quad = quad or spec.quad
    rng = np.random.default_rng(seed)
    found: dict[tuple, Violation] = {}
    checked: list[str] = []
    skipped: list[str] = []

    def record(v: Violation, worse_if: str = "gt") -> None:
        # one entry per violated bound; keep the worst witness and a count
        key = (v.kind, v.component, v.term)
        old = found.get(key)
        if old is None:
            found[key] = v
        else:
            old.count += 1
            worse = v.observed > old.observed if worse_if == "gt" \
                else v.observed < old.observed
            if worse:
                v.count = old.count
                found[key] = v

    for i, cb in enumerate(db.components, start=1):
        for name in ("w_lo", "w_hi"):
            (checked if getattr(cb, name) is not None else skipped).append(f"{name}[{i}]")
        for j, hb in enumerate(cb.h, start=1):
            checked.append(f"h_lo[{i},{j}]")
            for name in ("hi", "delta", "xi"):
                (checked if getattr(hb, name) is not None else skipped).append(
                    f"h_{name}[{i},{j}]")

    for _ in range(samples):
        u = sample_cone_boundary_rng(spec, cc, db.rho, rng)
        if include_interior and rng.uniform() < 0.5:
            mu = rng.uniform(0.05, 1.0)
            u = DiscreteState(u.nodes, u.values * mu, u.derivatives * mu)
        norms = c1_norm(u)
        shared = _SharedPass(u, quad)
        for i, (comp, cb) in enumerate(zip(spec.components, db.components), start=1):
            wv = eval_functional(comp.w, u, quad, nonneg_condition="C8",
                                 shared_pass=shared)
            if cb.w_lo is not None and wv < cb.w_lo - _slack(cb.w_lo):
                record(Violation(
                    "w_lo", i, None, cb.w_lo, wv, u, None,
                    f"w_{i}[u] = {wv!r} < declared lower bound {cb.w_lo!r}"), "lt")
            if cb.w_hi is not None and wv > cb.w_hi + _slack(cb.w_hi):
                record(Violation(
                    "w_hi", i, None, cb.w_hi, wv, u, None,
                    f"w_{i}[u] = {wv!r} > declared upper bound {cb.w_hi!r}"))
            sup_i = norms.sup[i - 1]
            for j, (term, hb) in enumerate(zip(comp.gammas, cb.h), start=1):
                hv = eval_functional(term.h, u, quad, nonneg_condition="C7",
                                     shared_pass=shared)
                if hv < hb.lo - _slack(hb.lo):
                    record(Violation(
                        "h_lo", i, j, hb.lo, hv, u, None,
                        f"h_{i}{j}[u] = {hv!r} < declared lower bound {hb.lo!r}"), "lt")
                if hb.hi is not None and hv > hb.hi + _slack(hb.hi):
                    record(Violation(
                        "h_hi", i, j, hb.hi, hv, u, None,
                        f"h_{i}{j}[u] = {hv!r} > declared upper bound {hb.hi!r}"))
                if hb.delta is not None and hv < hb.delta * sup_i - _slack(hb.delta * sup_i):
                    record(Violation(
                        "h_delta", i, j, hb.delta, hv, u, None,
                        f"h_{i}{j}[u] = {hv!r} < delta * ||u_{i}||_inf = "
                        f"{hb.delta * sup_i!r}"), "lt")
                if hb.xi is not None and hv > hb.xi * sup_i + _slack(hb.xi * sup_i):
                    record(Violation(
                        "h_xi", i, j, hb.xi, hv, u, None,
                        f"h_{i}{j}[u] = {hv!r} > xi * ||u_{i}||_inf = {hb.xi * sup_i!r}"))

    violations = list(found.values())
    violations.extend(_falsify_f_boxes(spec, db, rng, checked, skipped))
    return FalsificationReport(db.rho, samples, seed, violations, checked, skipped)


# ---------------------------------------------------------------------------
# f-box sampling

def _box_points(lows: np.ndarray, highs: np.ndarray, rng: np.random.Generator):
    dims = lows.size
    if dims <= FACTORIAL_MAX_DIMS:
        axes = [np.linspace(lo, hi, FACTORIAL_POINTS) for lo, hi in zip(lows, highs)]
        pts = np.array(list(product(*axes)))
    else:
        strata = (np.arange(LHS_POINTS)[:, None]
                  + rng.uniform(size=(LHS_POINTS, dims))) / LHS_POINTS
        for d in range(dims):
            rng.shuffle(strata[:, d])
        pts = lows + strata * (highs - lows)
    return pts


def _f_env(spec: "ProblemSpec", i: int, pts: np.ndarray) -> dict:
    n = spec.n
    env = {"t": pts[:, 0], "w": pts[:, -1]}
    for k in range(n):
        env[f"u{k + 1}"] = pts[:, 1 + k]
        env[f"du{k + 1}"] = pts[:, 1 + n + k]
    return env


def _falsify_f_boxes(spec, db, rng, checked, skipped) -> list[Violation]:
    out: list[Violation] = []
    n = spec.n
    rho = db.rho
    for i, (comp, cb) in enumerate(zip(spec.components, db.components), start=1):
        want_upper = cb.f_hi is not None or cb.xi_tilde is not None
        want_lower = cb.f_lo is not None or cb.delta_tilde is not None
        if not (want_upper or want_lower):
            skipped.append(f"f-box[{i}]")
            continue
        try:
            w_lo, w_hi = cb.w_range()
        except ConfigError:
            skipped.append(f"f-box[{i}] (no declared w-range)")
            continue

        if want_upper:
            lows = np.array([0.0] + [-rho] * (2 * n) + [w_lo])
            highs = np.array([1.0] + [rho] * (2 * n) + [w_hi])
            pts = _box_points(lows, highs, rng)
            vals = np.broadcast_to(
                np.asarray(eval_scalar(comp.f, _f_env(spec, i, pts)), dtype=float),
                (pts.shape[0],))
            if cb.f_hi is not None:
                checked.append(f"f_hi[{i}]")
                out.extend(_box_violation("f_hi", i, cb.f_hi, vals,
                                          vals - cb.f_hi, pts, spec))
            if cb.xi_tilde is not None:
                checked.append(f"xi_tilde[{i}]")
                cap = cb.xi_tilde * np.abs(pts[:, i])
                out.extend(_box_violation("f_xi_tilde", i, cb.xi_tilde, vals,
                                          vals - cap, pts, spec))

        if want_lower:
            a, b = comp.window.a, comp.window.b
            lows = np.array([a] + [0.0 if k == i - 1 else -rho for k in range(n)]
                            + [-rho] * n + [w_lo])
            highs = np.array([b] + [rho] * (2 * n) + [w_hi])
            pts = _box_points(lows, highs, rng)
            vals = np.broadcast_to(
                np.asarray(eval_scalar(comp.f, _f_env(spec, i, pts)), dtype=float),
                (pts.shape[0],))
            if cb.f_lo is not None:
                checked.append(f"f_lo[{i}]")
                out.extend(_box_violation("f_lo", i, cb.f_lo, vals,
                                          cb.f_lo - vals, pts, spec))
            if cb.delta_tilde is not None:
                checked.append(f"delta_tilde[{i}]")
                floor = cb.delta_tilde * pts[:, i]
                out.extend(_box_violation("f_delta_tilde", i, cb.delta_tilde, vals,
                                          floor - vals, pts, spec))
    return out


def _box_violation(kind, i, declared, vals, excess, pts, spec) -> list[Violation]:
    j = int(np.argmax(excess))
    if excess[j] <= _slack(declared):
        return []
    point = {"t": float(pts[j, 0]), "w": float(pts[j, -1])}
    for k in range(spec.n):
        point[f"u{k + 1}"] = float(pts[j, 1 + k])
        point[f"du{k + 1}"] = float(pts[j, 1 + spec.n + k])
    return [Violation(kind, i, None, declared, float(vals[j]), None, point,
                      f"{kind} violated by {float(excess[j])!r} at {point}")]


# ---------------------------------------------------------------------------
# Monte-Carlo ranges (non-rigorous)

def estimate_ranges(spec: "ProblemSpec", cc: Sequence[ConeConstants], rho: float,
                    samples: int, seed: int,
                    quad: QuadConfig | None = None) -> dict:
    """Empirical [min, max] per functional over boundary samples.

    NON-RIGOROUS: sampled extrema are biased inward and must not be used as
    declarations in the safe direction.  Useful to propose declarations.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if rho <= 0:
        raise ValueError("rho must be positive")
    quad = quad or spec.quad
    rng = np.random.default_rng(seed)
    w_ranges = [[np.inf, -np.inf] for _ in range(spec.n)]
    h_ranges = [[[np.inf, -np.inf] for _ in comp.gammas] for comp in spec.components]
    for _ in range(samples):
        u = sample_cone_boundary_rng(spec, cc, rho, rng)
        shared = _SharedPass(u, quad)
        for i, comp in enumerate(spec.components):
            wv = eval_functional(comp.w, u, quad, shared_pass=shared)
            w_ranges[i][0] = min(w_ranges[i][0], wv)
            w_ranges[i][1] = max(w_ranges[i][1], wv)
            for j, term in enumerate(comp.gammas):
                hv = eval_functional(term.h, u, quad, shared_pass=shared)
                h_ranges[i][j][0] = min(h_ranges[i][j][0], hv)
                h_ranges[i][j][1] = max(h_ranges[i][j][1], hv)
    return {
        "rho": rho, "samples": samples, "seed": seed,
        "rigorous": False,
        "note": "NON-RIGOROUS sampled ranges; sampled extrema are biased inward",
        "w": [{"min": lo, "max": hi} for lo, hi in w_ranges],
        "h": [[{"min": lo, "max": hi} for lo, hi in comp] for comp in h_ranges],
    }
