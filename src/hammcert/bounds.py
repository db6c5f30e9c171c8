"""Declared analytic bounds, attacked and estimated by one sampling pass.

Certificates consume only bounds the user declares (sup/inf of functionals
over the cone boundary, max/min of nonlinearities over boxes), derived by
hand, since no constructive procedure for the exact extrema exists.  One
pass draws boundary states on ||u|| = rho (for bounds over the closed ball,
half of them scaled into it) and evaluates every w_i and h_ij once on each,
with the C7/C8 sign check.  ``falsify_bounds`` tests every declared w/h
bound on these values through one comparison: it can disprove a declaration
(with a concrete witness state), never verify one.  ``estimate_ranges``
keeps the sampled extrema, which are biased inward (the unsafe direction for
the certificate inequalities), so they are labeled non-rigorous and are
never substituted for declarations.

The pass works on stacks of at most STACK states.  A stack is drawn in the
generator order of one state at a time (per state, each component's trig
coefficients, then the ball coin and factor), sampled, normed and
interpolated as arrays, and its int atoms are integrated once for the whole
stack; then each state's functionals are evaluated on the ``math`` table in
the one-state order, so every value, and the sample at which a C7/C8 check
fires, is that of a pass over one state at a time, bit for bit.  A stack
that raises a HammcertError is redone one state at a time from the
generator state of its start, so the first failing sample's error is the
one raised.  STACK is chosen by timing: beyond it the stack's interpolation
temporaries outgrow the cache, and a stack of 32 raises a benchmark
session's peak RSS.

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
that.  Every comparison carries a slack of 1e-9 * max(1, |bound|), relative
to the bound compared (declared * |x_i| or declared * ||u_i||_inf for a
ratio bound), so that roundoff at an exactly-attained bound does not count
as a refutation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from .cone import DiscreteState, c1_norm, sample_cone_boundary_rng
from .constants import ConeConstants
from .errors import ConfigError, HammcertError, _finite_real, _integer
from .expr import _SharedPass, _state_env, eval_functional, eval_scalar
from .quad import _shaped

if TYPE_CHECKING:
    from .problem import ProblemSpec

__all__ = ["HBounds", "ComponentBounds", "DeclaredBounds", "Violation",
           "FalsificationReport", "falsify_bounds", "estimate_ranges"]

SLACK = 1e-9
FACTORIAL_POINTS = 5
FACTORIAL_MAX_DIMS = 8
LHS_POINTS = 10_000
# states per stack of the boundary pass; 8 was fastest of 1 to 32 on
# example-rho1e-4.cfg, and up to 16 raises no benchmark session's peak RSS
STACK = 8


def _nonnegative(bounds, condition: str, *names: str) -> None:
    """The check of each declared value given: a finite real number >= 0.
    w, f and h are nonnegative (C8, C4, C7), so a negative upper bound is
    false and a negative lower bound says nothing; an infinite upper bound
    would make every row it enters hold."""
    for name in names:
        v = getattr(bounds, name)
        if v is None:
            continue
        if not _finite_real(v):
            raise ValueError(f"{name} must be a finite real number")
        if v < 0:
            raise ValueError(f"{name} must be nonnegative ({condition})")


@dataclass(frozen=True)
class HBounds:
    lo: float = 0.0           # lower bound for h on the boundary; 0 is always sound
    hi: float | None = None
    delta: float | None = None  # h >= delta * ||u_i||_inf
    xi: float | None = None     # h <= xi * ||u_i||_inf

    def __post_init__(self):
        _nonnegative(self, "C7", "lo", "hi", "delta", "xi")
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
        _nonnegative(self, "C8", "w_lo", "w_hi")
        _nonnegative(self, "C4", "f_hi", "f_lo", "delta_tilde", "xi_tilde")
        if self.w_lo is not None and self.w_hi is not None and self.w_lo > self.w_hi:
            raise ValueError(f"w_lo={self.w_lo} > w_hi={self.w_hi}")


@dataclass(frozen=True)
class DeclaredBounds:
    rho: float
    components: tuple[ComponentBounds, ...]

    def __post_init__(self):
        if not (_finite_real(self.rho) and self.rho > 0.0):
            raise ValueError("rho must be a finite number > 0")


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


def _slack(bound):
    """SLACK * max(1, |bound|), elementwise for an array bound; a float
    bound, one per sample and check, skips numpy's per-call cost."""
    if isinstance(bound, np.ndarray):
        return SLACK * np.maximum(1.0, np.abs(bound))
    return SLACK * max(1.0, abs(bound))


def _check_shape(spec: "ProblemSpec", db: DeclaredBounds) -> None:
    """ConfigError unless db has one entry per component, one h per gamma term."""
    if len(db.components) != spec.n:
        raise ConfigError("bounds", f"declared bounds carry {len(db.components)} "
                                    f"component entries for an n={spec.n} problem")
    for i, (comp, cb) in enumerate(zip(spec.components, db.components), start=1):
        if len(cb.h) != len(comp.gammas):
            raise ConfigError("bounds", f"declared bounds carry {len(cb.h)} h entries for "
                                        f"the {len(comp.gammas)} gamma terms of component {i}")


def _boundary_pass(spec: "ProblemSpec", cc: Sequence[ConeConstants], rho: float,
                   samples: int, rng: np.random.Generator, ball: bool = False,
                   norms: bool = False):
    """Per sample: a state u on ||u|| = rho (with ``ball``, a fair coin scales
    it into the ball by a uniform factor in [0.05, 1]), its ||u_i||_inf (only
    with ``norms``) and, per component, [w_i[u], h_i1[u], h_i2[u], ...], the
    functionals integrated under ``spec.quad``.

    Samples are drawn and evaluated in stacks of at most STACK states, with
    one _SharedPass per stack; each state's functionals are evaluated once,
    in that order, and a negative value raises the C7/C8
    ModelViolationError.  A stack is computed whole before any of its
    samples is yielded.  When it raises a HammcertError, the generator is
    reset to the stack's start and the stack is redone one state at a time,
    so that the error of the first failing sample surfaces."""
    layout = [[(comp.w, "C8"), *((term.h, "C7") for term in comp.gammas)]
              for comp in spec.components]
    args = (spec, cc, rho, rng, ball, norms, layout)
    for start in range(0, samples, STACK):
        size = min(STACK, samples - start)
        saved = rng.bit_generator.state
        try:
            found = _stack_pass(size, *args)
        except HammcertError:
            if size == 1:
                raise
            rng.bit_generator.state = saved
            found = [row for _ in range(size) for row in _stack_pass(1, *args)]
        yield from found


def _stack_pass(size, spec, cc, rho, rng, ball, norms, layout) -> list:
    """``_boundary_pass``'s samples of one stack of ``size`` states."""
    u = sample_cone_boundary_rng(spec, cc, rho, rng, size=size, ball=ball)
    sups = c1_norm(u).sup.tolist() if norms else [None] * size
    shared = _SharedPass(u, spec.quad, [fx for comp in layout for fx, _ in comp])
    out = []
    for r in range(size):
        row = shared.row(r)
        out.append((row.u, sups[r],
                    [[eval_functional(fx, row.u, nonneg_condition=condition,
                                      shared_pass=row) for fx, condition in comp]
                     for comp in layout]))
    return out


class _Check(NamedTuple):
    """One w/h bound: value >= bound (lower) or value <= bound, where bound is
    declared, or declared * ||u_i||_inf (ratio)."""
    kind: str               # "w_lo", "w_hi", "h_lo", "h_hi", "h_delta" or "h_xi"
    component: int          # 1-based
    term: int | None        # 1-based gamma-term index of an h bound
    declared: float | None  # None: not declared, so skipped
    lower: bool
    ratio: bool

    @property
    def name(self) -> str:
        i, j = self.component, self.term
        return f"{self.kind}[{i}]" if j is None else f"{self.kind}[{i},{j}]"

    def detail(self, value: float, bound: float) -> str:
        i, j = self.component, self.term
        functional = f"w_{i}" if j is None else f"h_{i}{j}"
        ref = (f"{'delta' if self.lower else 'xi'} * ||u_{i}||_inf =" if self.ratio
               else f"declared {'lower' if self.lower else 'upper'} bound")
        return f"{functional}[u] = {value!r} {'<' if self.lower else '>'} {ref} {bound!r}"


def _checks(db: DeclaredBounds) -> list[_Check]:
    """Every w/h bound of ``db``, declared or not, in report order."""
    out = []
    for i, cb in enumerate(db.components, start=1):
        out += [_Check("w_lo", i, None, cb.w_lo, True, False),
                _Check("w_hi", i, None, cb.w_hi, False, False)]
        for j, hb in enumerate(cb.h, start=1):
            out += [_Check(f"h_{f}", i, j, getattr(hb, f), f in ("lo", "delta"),
                           f in ("delta", "xi")) for f in ("lo", "hi", "delta", "xi")]
    return out


def _sampling_rng(samples, seed) -> np.random.Generator:
    """The generator from ``seed`` of ``samples`` states; integers, seed >= 0."""
    if not _integer(samples):
        raise ValueError(f"samples must be an integer, got {samples!r}")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if not (_integer(seed) and seed >= 0):
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    return np.random.default_rng(seed)


def falsify_bounds(spec: "ProblemSpec", cc: Sequence[ConeConstants],
                   db: DeclaredBounds, samples: int, seed: int, *,
                   include_interior: bool = False) -> FalsificationReport:
    """Attack every declared bound in ``db`` by sampling.

    Boundary states are drawn on ||u|| = rho; with ``include_interior`` each
    sample is additionally scaled into the ball (for bounds declared over
    the closed ball rather than the boundary).  Functionals are integrated
    under ``spec.quad``.  Every violation carries a concrete witness whose
    re-evaluation reproduces it.
    """
    rng = _sampling_rng(samples, seed)
    _check_shape(spec, db)
    checks = _checks(db)
    checked = [c.name for c in checks if c.declared is not None]
    skipped = [c.name for c in checks if c.declared is None]
    checks = [c for c in checks if c.declared is not None]
    # per violated bound, in order of first violation: worst witness and count
    found: dict[_Check, Violation] = {}
    for u, sups, values in _boundary_pass(spec, cc, db.rho, samples, rng,
                                          include_interior,
                                          any(c.ratio for c in checks)):
        for c in checks:
            value = values[c.component - 1][c.term or 0]
            bound = c.declared * sups[c.component - 1] if c.ratio else c.declared
            slack = _slack(bound)
            if not (value < bound - slack if c.lower else value > bound + slack):
                continue
            old = found.get(c)
            if old is not None:
                old.count += 1
                if not (value < old.observed if c.lower else value > old.observed):
                    continue
            found[c] = Violation(c.kind, c.component, c.term, c.declared, value, u,
                                 None, c.detail(value, bound),
                                 1 if old is None else old.count)
    violations = list(found.values())
    violations.extend(_falsify_f_boxes(spec, db, rng, checked, skipped))
    return FalsificationReport(db.rho, samples, seed, violations, checked, skipped)


# ---------------------------------------------------------------------------
# f-box sampling

def _box_points(lows: np.ndarray, highs: np.ndarray, rng: np.random.Generator):
    dims = lows.size
    if dims <= FACTORIAL_MAX_DIMS:
        axes = [np.linspace(lo, hi, FACTORIAL_POINTS) for lo, hi in zip(lows, highs)]
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, dims)
    else:
        strata = (np.arange(LHS_POINTS)[:, None]
                  + rng.uniform(size=(LHS_POINTS, dims))) / LHS_POINTS
        for d in range(dims):
            rng.shuffle(strata[:, d])
        pts = lows + strata * (highs - lows)
    return pts


def _f_env(spec: "ProblemSpec", pts: np.ndarray) -> dict:
    """The f environment of box points (rows, or one point)."""
    n = spec.n
    return _state_env(pts.T[1:1 + n], pts.T[1 + n:-1], t=pts[..., 0], w=pts[..., -1])


# per box: whether it is the sign-restricted (lower) box, and its checks as
# (violation kind, ComponentBounds field, whether the bound is declared * |x_i|)
_F_BOXES = ((False, (("f_hi", "f_hi", False), ("f_xi_tilde", "xi_tilde", True))),
            (True, (("f_lo", "f_lo", False), ("f_delta_tilde", "delta_tilde", True))))


def _sign_box(i: int, n: int, rho: float) -> tuple[float, ...]:
    """The lower corner of the sign-restricted box prod_j [theta_j rho, rho]
    of the index-0 bounds of component i (1-based) over (u, u'): theta_j = 0
    for u_i and -1 for every other coordinate."""
    return tuple(0.0 if j == i - 1 else -rho for j in range(2 * n))


def _falsify_f_boxes(spec, db, rng, checked, skipped) -> list[Violation]:
    out: list[Violation] = []
    n, rho = spec.n, db.rho
    for i, (comp, cb) in enumerate(zip(spec.components, db.components), start=1):
        boxes = [(lower, active) for lower, box in _F_BOXES
                 if (active := [c for c in box if getattr(cb, c[1]) is not None])]
        if not boxes:
            skipped.append(f"f-box[{i}]")
            continue
        w_lo, w_hi = cb.w_lo, cb.w_hi
        if w_lo is None or w_hi is None:
            skipped.append(f"f-box[{i}] (no declared w-range)")
            continue

        for lower, box in boxes:
            t_lo, t_hi = (comp.window.a, comp.window.b) if lower else (0.0, 1.0)
            x_lo = _sign_box(i, n, rho) if lower else (-rho,) * (2 * n)
            lows = np.array([t_lo, *x_lo, w_lo])
            highs = np.array([t_hi] + [rho] * (2 * n) + [w_hi])
            pts = _box_points(lows, highs, rng)
            vals = _shaped(eval_scalar(comp.f, _f_env(spec, pts)), (pts.shape[0],))
            for kind, field, ratio in box:
                checked.append(f"{field}[{i}]")
                declared = getattr(cb, field)
                # x_i >= 0 on the lower box, so |x_i| = x_i there
                bound = declared * np.abs(pts[:, i]) if ratio else declared
                excess = bound - vals if lower else vals - bound
                over = excess > _slack(bound)
                if over.any():
                    j = int(np.argmax(np.where(over, excess, -np.inf)))
                    point = {name: float(x) for name, x in _f_env(spec, pts[j]).items()}
                    out.append(Violation(kind, i, None, declared, float(vals[j]), None,
                                         point, f"{kind} violated by "
                                                f"{float(excess[j])!r} at {point}"))
    return out


# ---------------------------------------------------------------------------
# Monte-Carlo ranges (non-rigorous)

def estimate_ranges(spec: "ProblemSpec", cc: Sequence[ConeConstants], rho: float,
                    samples: int, seed: int) -> dict:
    """Empirical [min, max] per functional over boundary samples, integrated
    under ``spec.quad``.

    NON-RIGOROUS: sampled extrema are biased inward and must not be used as
    declarations in the safe direction.  Useful to propose declarations.
    """
    rng = _sampling_rng(samples, seed)
    ranges = [[[np.inf, -np.inf] for _ in range(1 + len(comp.gammas))]
              for comp in spec.components]
    for _, _, values in _boundary_pass(spec, cc, rho, samples, rng):
        for comp_ranges, comp_values in zip(ranges, values):
            for r, v in zip(comp_ranges, comp_values):
                r[0], r[1] = min(r[0], v), max(r[1], v)
    ranges = [[{"min": lo, "max": hi} for lo, hi in comp] for comp in ranges]
    return {
        "rho": rho, "samples": samples, "seed": seed,
        "rigorous": False,
        "note": "NON-RIGOROUS sampled ranges; sampled extrema are biased inward",
        "w": [comp[0] for comp in ranges], "h": [comp[1:] for comp in ranges],
    }
