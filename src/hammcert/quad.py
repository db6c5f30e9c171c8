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
over its own panels, with every row's result bit-identical to ``integrate``.

The first pass of ``integrate`` over [0, 1] (every panel's Gauss points,
then those of its two halves) depends only on the breakpoints and the Gauss
order.  ``_first_pass`` builds that layout once per (breakpoints, order) and
keeps it in a small table; ``_integrate_first_pass`` takes an integrand's
values at those points, evaluated by the caller (the functional evaluator
samples a state there once for all of its ``int`` atoms), and finishes the
integral by the rules of ``integrate``, bit for bit.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import QuadratureError

__all__ = ["QuadConfig", "integrate", "integrate_panels", "gauss_rule",
           "composite_rule"]

# first-pass layouts kept at most; a session uses one or two node vectors
_FIRST_PASS_TABLE_SIZE = 8


@dataclass(frozen=True)
class QuadConfig:
    gauss_order: int = 8
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_subdivisions: int = 20

    def __post_init__(self):
        if self.gauss_order < 2:
            raise ValueError("gauss_order must be >= 2")
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")


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


def composite_rule(a: float, b: float, breakpoints, order: int):
    """Flattened points and weights of the composite Gauss rule with panels
    delimited by the given breakpoints.  No adaptivity; meant for integrands
    known to be smooth on every panel (e.g. Nystrom product quadrature)."""
    edges = _edges(a, b, breakpoints)
    pts, wts = _panel_points(edges[:-1], edges[1:], order)
    return pts.ravel(), wts.ravel()


def _edges(a: float, b: float, breakpoints) -> np.ndarray:
    bps = np.asarray(() if breakpoints is None else breakpoints, dtype=float)
    inner = bps[(a < bps) & (bps < b)]
    edges = np.concatenate(([a], np.sort(inner), [b]))
    keep = np.concatenate(([True], np.diff(edges) > 1e-15))
    return edges[keep]


def _evaluate(f, rows: np.ndarray, pts: np.ndarray) -> np.ndarray:
    return _checked(f(rows[:, None], pts), pts)


def _checked(vals, pts: np.ndarray) -> np.ndarray:
    """Integrand values at pts as a float array of pts' shape.  NaN raises,
    and so does ±inf, which no panel could ever converge on."""
    vals = np.asarray(vals, dtype=float)
    if vals.shape != pts.shape:
        vals = np.broadcast_to(vals, pts.shape)
    if not np.all(np.isfinite(vals)):
        nan = np.isnan(vals)
        kind = "NaN" if np.any(nan) else "an infinite value"
        bad = pts[nan if np.any(nan) else np.isinf(vals)][:1]
        raise QuadratureError(f"integrand returned {kind} near x={bad!r}")
    return vals


def _panel_estimates(f, rows, lo, hi, order):
    pts, wts = _panel_points(lo, hi, order)
    return np.sum(_evaluate(f, rows, pts) * wts, axis=1)


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
    if a > b:
        raise ValueError(f"integrate: a={a} > b={b}")
    if a == b:
        return 0.0
    edges = _edges(a, b, breakpoints)
    rows = np.zeros(edges.size - 1, dtype=np.intp)
    return float(integrate_panels(lambda _, x: f(x), rows, edges[:-1], edges[1:],
                                  1, cfg)[0])


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


class _FirstPass(NamedTuple):
    """The first pass of ``integrate`` over [0, 1]: panels [lo, hi] split
    at ``mid``, and the Gauss points and weights of the whole panels
    (rows ``whole``) stacked over those of their left, then right, halves
    (rows ``halves``)."""
    lo: np.ndarray
    mid: np.ndarray
    hi: np.ndarray
    points: np.ndarray     # shape (3 * panels, order)
    weights: np.ndarray
    whole: slice
    halves: slice


_FIRST_PASSES: dict = {}
_FIRST_PASS_LOCK = threading.Lock()


def _first_pass(breakpoints, order: int) -> _FirstPass:
    """First-pass layout of ``integrate(f, 0, 1, breakpoints, cfg)`` for a
    Gauss order, kept per (breakpoint bytes, order); the table is emptied
    when it holds _FIRST_PASS_TABLE_SIZE layouts."""
    bps = np.asarray(breakpoints, dtype=float)
    key = (bps.tobytes(), order)
    found = _FIRST_PASSES.get(key)
    if found is not None:
        return found
    edges = _edges(0.0, 1.0, bps)
    lo, hi = edges[:-1], edges[1:]
    mid = (lo + hi) / 2.0
    pw, ww = _panel_points(lo, hi, order)
    ph, wh = _panel_points(np.concatenate((lo, mid)), np.concatenate((mid, hi)), order)
    points, weights = np.concatenate((pw, ph)), np.concatenate((ww, wh))
    for a in (lo, mid, hi, points, weights):
        a.setflags(write=False)
    built = _FirstPass(lo, mid, hi, points, weights, slice(0, lo.size),
                       slice(lo.size, 3 * lo.size))
    with _FIRST_PASS_LOCK:
        if len(_FIRST_PASSES) >= _FIRST_PASS_TABLE_SIZE:
            _FIRST_PASSES.clear()
        _FIRST_PASSES[key] = built
    return built


def _integrate_first_pass(at, f, fp: _FirstPass, cfg: QuadConfig) -> float:
    """``integrate(f, 0, 1, breakpoints, cfg)``, bit for bit, for the
    breakpoints of ``fp``.  ``at(rows)`` gives f at ``fp.points[rows]``; it
    is called for the whole panels, then for the halves, as ``integrate``
    evaluates f.  f itself is called only on the panels that fail the
    two-rule test."""
    coarse = _first_estimates(at, fp, fp.whole)
    halves = _first_estimates(at, fp, fp.halves)
    n = fp.lo.size
    rows = np.zeros(n, dtype=np.intp)
    return float(_settle(lambda _, x: f(x), rows, fp.lo, fp.mid, fp.hi, coarse,
                         halves[:n], halves[n:], 1, cfg)[0])


def _first_estimates(at, fp: _FirstPass, rows: slice) -> np.ndarray:
    return np.sum(_checked(at(rows), fp.points[rows]) * fp.weights[rows], axis=1)


def _row_sums(vals: np.ndarray, rows: np.ndarray, nrows: int) -> np.ndarray:
    """np.sum of each row's values, grouped by row length so numpy's
    pairwise summation sees exactly the values a one-row sum would."""
    if nrows == 1:
        return np.array([np.sum(vals)])
    counts = np.bincount(rows, minlength=nrows)
    starts = np.cumsum(counts) - counts
    total = np.zeros(nrows)
    for c in np.unique(counts[counts > 0]):
        sel = np.nonzero(counts == c)[0]
        total[sel] = np.sum(vals[starts[sel][:, None] + np.arange(c)], axis=1)
    return total


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
