"""Breakpoint-aware adaptive quadrature over [0,1] and subintervals.

The single integration engine used by every other module.  Panels are always
split at the supplied breakpoints before any adaptivity begins; after that,
each panel is bisected until two successive composite Gauss-Legendre
estimates agree to max(rel_tol * |I|, abs_tol).  Splitting at known kinks
restores spectral accuracy for piecewise-smooth integrands, which is the
only class this engine supports (weakly singular or improper integrals are
rejected by non-convergence).

Integrands are called with numpy arrays of evaluation points and must act
elementwise and broadcast; scalar-returning constants are handled.  A NaN
or infinite integrand value raises QuadratureError.
``integrate_panels`` runs the same rules on many integrands at once, each
over its own panels, and ``integrate_rows`` on many integrands over the
same panels, from one function that gives every integrand at once; every
row's result is bit-identical to ``integrate``, which is ``integrate_rows``
of one integrand.

The first pass of ``integrate`` (every panel's Gauss points, then those of
its two halves) depends only on [a, b], the breakpoints and the Gauss order.
``first_pass_layout`` keeps it per (bytes of those, order), so ``integrate``
hands every integrand over the same panels the same point arrays.  Its
whole-panel part is also the Nystrom operator's product rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import QuadratureError, _check_integers, _finite_real

__all__ = ["QuadConfig", "integrate", "integrate_rows", "integrate_panels",
           "gauss_rule", "first_pass_layout"]

@dataclass(frozen=True)
class QuadConfig:
    gauss_order: int = 8
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_subdivisions: int = 20

    def __post_init__(self):
        _check_integers(self, "gauss_order", "max_subdivisions")
        if self.gauss_order < 2:
            raise ValueError("gauss_order must be >= 2")
        if not all(_finite_real(v) and v > 0 for v in (self.rel_tol, self.abs_tol)):
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


@lru_cache(maxsize=16)
def gauss_rule(order: int):
    """Gauss-Legendre nodes and weights on [-1, 1].

    The weights are nudged (within a few ulp) so that they sum to exactly
    2.0 in double precision; constant integrands then integrate exactly,
    which certificate comparisons at equality boundaries rely on.
    """
    nodes, weights = np.polynomial.legendre.leggauss(order)
    for _ in range(4):
        defect = 2.0 - weights.sum()
        if defect == 0.0:
            break
        weights[order // 2] += defect
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _panel_points(lo: np.ndarray, hi: np.ndarray, order: int):
    """Quadrature points/weights for a batch of panels; shape (npanels, order)."""
    x, w = gauss_rule(order)
    half = (hi - lo)[:, None] / 2.0
    mid = (hi + lo)[:, None] / 2.0
    return mid + half * x[None, :], half * w[None, :]


def _panels(a: float, b: float, points) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(row, lo, hi) of every panel of ``integrate``'s edge rule, applied to
    each row of the 2-D ``points``: a, the row's points strictly inside
    (a, b) in order, and b, with any edge within 1e-15 of its predecessor
    dropped.  Rows come in order, each row's panels left to right.  This is
    the one edge rule: ``constants``' sign scan scans these panels too."""
    inner = np.where((a < points) & (points < b), points, b)
    n = inner.shape[0]
    edges = np.column_stack((np.full(n, a), np.sort(inner, axis=1), np.full(n, b)))
    keep = edges[:, 1:] - edges[:, :-1] > 1e-15
    edges[:, 1:] = np.where(keep, edges[:, 1:], -np.inf)
    edges = np.maximum.accumulate(edges, axis=1)  # dropped edges repeat their predecessor
    r, c = np.nonzero(edges[:, 1:] > edges[:, :-1])
    return r, edges[r, c], edges[r, c + 1]


def _shaped(v, shape: tuple) -> np.ndarray:
    """The one shaping rule of a grid evaluation: v as floats of the grid's
    shape, itself if it has it, else broadcast to it (an expression constant
    in a variable gives fewer values)."""
    v = np.asarray(v, dtype=float)
    return v if v.shape == shape else np.broadcast_to(v, shape)


def _estimates(vals, pts: np.ndarray, wts: np.ndarray, lead: tuple = ()) -> np.ndarray:
    """Gauss estimate of every panel (row of pts) from the integrand's values
    there, broadcast to ``lead + pts.shape`` (one leading row per integrand).
    NaN raises, and so does ±inf, which no panel could ever converge on."""
    shape = lead + pts.shape
    vals = _shaped(vals, shape)
    if not np.all(np.isfinite(vals)):
        nan = np.isnan(vals)
        kind = "NaN" if np.any(nan) else "an infinite value"
        bad = np.broadcast_to(pts, shape)[nan if np.any(nan) else np.isinf(vals)][:1]
        raise QuadratureError(f"integrand returned {kind} near x={bad!r}")
    return np.sum(vals * wts, axis=-1)


def _panel_estimates(f, rows, lo, hi, order):
    pts, wts = _panel_points(lo, hi, order)
    return _estimates(f(rows[:, None], pts), pts, wts)


def _halves(f, rows, lo, hi, order):
    """Gauss estimates of both halves of every panel, in one evaluation."""
    mid = (lo + hi) / 2.0
    est = _panel_estimates(f, np.concatenate((rows, rows)),
                           np.concatenate((lo, mid)), np.concatenate((mid, hi)), order)
    return mid, est[:lo.size], est[lo.size:]


def _converged(fine, whole, cfg: QuadConfig):
    return np.abs(fine - whole) <= np.maximum(cfg.rel_tol * np.abs(fine), cfg.abs_tol)


def integrate(f, a: float, b: float, breakpoints=(), cfg: QuadConfig | None = None) -> float:
    """Integrate f over [a, b] with panels split at the given breakpoints.

    f is called with numpy arrays of points.  Raises QuadratureError on a
    NaN or infinite value, or when a panel fails to converge within
    cfg.max_subdivisions bisections.
    """
    return float(integrate_rows(f, 1, a, b, breakpoints, cfg)[0])


def integrate_rows(f, nrows: int, a: float, b: float, breakpoints=(),
                   cfg: QuadConfig | None = None) -> np.ndarray:
    """``integrate`` of ``nrows`` integrands over the same panels at once.

    f(x) evaluates every integrand at the points x, shaped (nrows,) + x.shape
    or broadcasting to it.  The first pass runs once over the kept layout
    for all rows; a panel of row r that needs refining reads row r of f at
    its refined points.  Each row's result is bit-identical to
    ``integrate`` of its integrand.
    """
    if a > b:
        raise ValueError(f"integrate: a={a} > b={b}")
    if a == b:
        return np.zeros(nrows)
    cfg = cfg or QuadConfig()
    fp = first_pass_layout(a, b, breakpoints, cfg.gauss_order)
    coarse = _estimates(f(fp.whole_points), fp.whole_points, fp.whole_weights,
                        (nrows,))
    halves = _estimates(f(fp.half_points), fp.half_points, fp.half_weights,
                        (nrows,))
    n = fp.lo.size
    tile = lambda x: np.tile(x, nrows)

    def row_f(r, x):  # row r[j] of f at the points x[j] of panel j
        return _shaped(f(x), (nrows,) + x.shape)[r[:, 0], np.arange(x.shape[0])]

    return _settle(row_f, np.repeat(np.arange(nrows), n), tile(fp.lo), tile(fp.mid),
                   tile(fp.hi), coarse.ravel(), halves[:, :n].ravel(),
                   halves[:, n:].ravel(), nrows, cfg)


def integrate_panels(f, rows, lo, hi, nrows: int,
                     cfg: QuadConfig | None = None) -> np.ndarray:
    """Integrals of ``nrows`` integrands at once, each over its own panels.

    Panel j = [lo[j], hi[j]] belongs to row ``rows[j]``; rows must be
    nondecreasing and each row's panels given left to right.  f(r, x)
    evaluates row r's integrand at points x (r broadcasts against x).  Every
    panel runs the two-rule test of ``integrate``: a panel whose whole-panel
    and two-half estimates disagree is bisected, level by level across all
    rows, up to cfg.max_subdivisions times.  Partial sums are added in the
    order ``integrate`` adds them, so each row's result is bit-identical to
    ``integrate`` of that integrand over the same panel edges.
    """
    cfg = cfg or QuadConfig()
    order = cfg.gauss_order
    rows = np.asarray(rows, dtype=np.intp)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)

    # first pass: whole-panel estimate against the sum of the two halves
    coarse = _panel_estimates(f, rows, lo, hi, order)
    mid, left, right = _halves(f, rows, lo, hi, order)
    return _settle(f, rows, lo, mid, hi, coarse, left, right, nrows, cfg)


def _settle(f, rows, lo, mid, hi, coarse, left, right, nrows: int,
            cfg: QuadConfig) -> np.ndarray:
    """Row sums from the first pass's estimates: converged panels summed,
    failing ones refined by ``_adapt`` and added half by half."""
    fine = left + right
    ok = _converged(fine, coarse, cfg)
    total = _row_sums(fine[ok], rows[ok], nrows)

    # failing panels: both halves refined, results added half by half
    bad = np.nonzero(~ok)[0]
    if bad.size:
        node_rows = np.repeat(rows[bad], 2)
        values = _adapt(f, node_rows, *_halves_of(bad, lo, mid, hi, left, right), cfg)
        first = np.searchsorted(node_rows, node_rows, side="left")
        rank = np.arange(node_rows.size) - first
        for k in range(int(rank.max()) + 1):
            sel = rank == k
            total[node_rows[sel]] += values[sel]
    return total


class FirstPassLayout(NamedTuple):
    """The first pass of ``integrate`` over [a, b]: panels [lo, hi] split at
    ``mid``, the Gauss points and weights of the whole panels, (panels, order),
    and of their left, then right, halves, (2 * panels, order); read-only."""
    lo: np.ndarray
    mid: np.ndarray
    hi: np.ndarray
    whole_points: np.ndarray
    whole_weights: np.ndarray
    half_points: np.ndarray
    half_weights: np.ndarray


def first_pass_layout(a: float, b: float, breakpoints, order: int) -> FirstPassLayout:
    """First-pass layout of ``integrate(f, a, b, breakpoints, cfg)`` for a
    Gauss order, kept per (bytes of a, b and the breakpoints, order)."""
    bps = np.asarray(() if breakpoints is None else breakpoints, dtype=float)
    return _first_pass_layout(np.concatenate(([a, b], bps.ravel())).tobytes(), order)


# a session uses one or two node vectors
@lru_cache(maxsize=8)
def _first_pass_layout(key: bytes, order: int) -> FirstPassLayout:
    bounds = np.frombuffer(key)
    _, lo, hi = _panels(bounds[0], bounds[1], bounds[None, 2:])
    mid = (lo + hi) / 2.0
    whole = _panel_points(lo, hi, order)
    halves = _panel_points(np.concatenate((lo, mid)), np.concatenate((mid, hi)), order)
    fp = FirstPassLayout(lo, mid, hi, *whole, *halves)
    for array in fp:
        array.setflags(write=False)
    return fp


def _row_sums(vals: np.ndarray, rows: np.ndarray, nrows: int) -> np.ndarray:
    """np.sum of each row's values, grouped by row length so numpy's
    pairwise summation sees exactly the values a one-row sum would."""
    if nrows == 1:
        return np.array([np.sum(vals)])
    counts = np.bincount(rows, minlength=nrows)
    starts = np.cumsum(counts) - counts
    total = np.zeros(nrows)
    for c in _distinct(counts[counts > 0]):
        sel = np.nonzero(counts == c)[0]
        total[sel] = np.sum(vals[starts[sel][:, None] + np.arange(c)], axis=1)
    return total


def _distinct(x: np.ndarray) -> np.ndarray:
    """The distinct values of the 1-D x, ascending: np.unique's own path for
    floats (sort, then keep the first of each run of equal values), so the
    same bytes, -0.0 or 0.0 included, without its masked-array check, which
    imports numpy.ma.  NaNs are not merged."""
    x = np.sort(x)
    keep = np.empty(x.shape, dtype=bool)
    keep[:1] = True
    keep[1:] = x[1:] != x[:-1]
    return x[keep]


def _halves_of(bad, lo, mid, hi, left, right):
    """(lo, hi, estimate) of both halves of the panels in bad, interleaved."""
    pair = lambda x, y: np.stack((x[bad], y[bad]), axis=1).ravel()
    return pair(lo, mid), pair(mid, hi), pair(left, right)


def _adapt(f, rows, lo, hi, whole, cfg: QuadConfig) -> np.ndarray:
    """Adaptive value of every node [lo, hi] with prior estimate ``whole``.

    Nodes are bisected level by level; a node's value is the sum of its
    halves' estimates when they match ``whole``, else the sum of its two
    children's values, exactly the recursion of a depth-first bisection.
    """
    levels = []
    depth = 1
    while lo.size:
        mid, left, right = _halves(f, rows, lo, hi, cfg.gauss_order)
        fine = left + right
        ok = _converged(fine, whole, cfg)
        bad = np.nonzero(~ok)[0]
        if bad.size and depth >= cfg.max_subdivisions:
            j = bad[0]
            raise QuadratureError(
                f"no convergence on [{lo[j]}, {hi[j]}] after {cfg.max_subdivisions} "
                f"subdivisions (estimate gap {abs(fine[j] - whole[j]):.3e}); the "
                "integrand is rougher than this engine supports")
        levels.append((fine, bad))
        rows = np.repeat(rows[bad], 2)
        lo, hi, whole = _halves_of(bad, lo, mid, hi, left, right)
        depth += 1
    value = None
    for fine, bad in reversed(levels):
        if value is not None:
            fine[bad] = value[0::2] + value[1::2]
        value = fine
    return value
