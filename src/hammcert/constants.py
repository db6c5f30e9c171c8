"""Cone and kernel constants: envelopes, window constants, integral norms.

Everything here realizes a sup/inf over t or s of kernel data:

* ``recip_m(kd, l)``   -- sup over t in [0,1] of the integral over s of
  |k(t,s)| (l = 0) or |dk/dt(t,s)| (l = 1); returned as the reciprocal
  quantity 1/m_l directly, nothing ever divides by an m.
* ``recip_M(kd, w)``   -- inf over t in the window [a,b] of the *signed*
  integral of k(t,s) over s in [a,b].
* ``c_tilde(kd, w, env)`` -- largest constant with k(t,s) >= c * Phi0(s)
  on the window, i.e. inf over s of (min over window t of k) / Phi0.
* ``gamma_c(gamma, w)`` -- (min over window of gamma) / sup|gamma|.

Sups and infs are grid scans refined by golden-section search on the
bracketing triple; results carry the grid resolution and are approximations
at that resolution, not rigorous enclosures.  The refinement evaluates probe
trees: one call of the searched function holds the probes of the next
``_GOLDEN_DEPTH`` steps for every outcome of their comparisons, and the
search walks the comparisons through them, so it probes the points, and
returns the values, of one probe per call in fewer, larger calls; searched
functions must therefore be elementwise on arrays.  Declared constants from
the configuration take precedence when consistent with the computed tight
value (c-type constants must not exceed it); integral norms are always
computed, and a declared value that disagrees is flagged, never substituted.

The t-scans of the integral norms are batched: ``integrate_over_s``
integrates over s for a whole chunk of t at once, with the grid, panel
breakpoints (fixed, and the moving s = t), sign-root rule and golden-section
refinement of a one-t-at-a-time scan, so the values are the same bit for bit.
Inner integrals of |k| split panels additionally at sign changes of k,
because the absolute value introduces kinks at unknown points.

Two kinds of array work run at two sizes.  Elementwise scans -- the coarse
sign pattern of every s-panel, the c~ grids, the Phi1 check -- run in tiles
of ``_TILE`` points, so their temporaries stay in cache and are reused from
the heap; tiles follow row-major order and partial column extrema combine
exactly, so no value depends on the tile.  Bisection of the sign changes and
the adaptive quadrature run in batches: every bracket of a t-chunk bisected
together, every panel of a t-chunk integrated together, with t-chunks sized
by ``_POINT_BUDGET``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

import numpy as np

from .errors import ConfigError, HammcertError, ModelViolationError
from .expr import eval_scalar
from .kernels import EnvelopeSpec, KernelDef, eval_dk, eval_k
from .quad import QuadConfig, _panels, integrate_panels

if TYPE_CHECKING:
    from .problem import ProblemSpec

__all__ = ["Window", "Opt1DConfig", "ConeConstants", "ConstantRecord",
           "sup_abs_1d", "extremum_1d", "integrate_over_s", "recip_m",
           "recip_M", "c_tilde", "gamma_c", "assemble_cone_constants",
           "constants_report", "RECIP_M_READING_NOTE"]

RECIP_M_READING_NOTE = (
    "1/M_i is computed as the infimum over t in [a_i,b_i] of the integral of "
    "k_i(t,s) over s in [a_i,b_i]; all sup/inf values are grid scans refined "
    "by golden-section search and are reported together with the grid "
    "resolution, not as rigorous enclosures.")

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# Golden-section steps whose probes one call of f evaluates, a tree of
# 2**depth - 1 points.  Chosen by timing fresh-process assemblies (medians of
# 10, example.cfg / tight.cfg): one probe per call 0.396 / 0.623 s; depth 3
# 0.368 / 0.466 s, 4 0.361 / 0.463 s, 5 0.383 / 0.443 s, 6 0.406 / 0.472 s.
# A call's cost is nearly flat in its points, a tree's Python cost is not.
_GOLDEN_DEPTH = 4

# Points one batched step may evaluate at once (a chunk of t whose sign
# changes are bisected, and whose panels are integrated, together): bounds
# the memory of the (t x panel x node) tensors whatever the grid size.
_POINT_BUDGET = 1 << 18
# Points one elementwise scan holds at once (a tile of the sign scan, of the
# c~ grids, of the Phi1 check).  Chosen by timing fresh-process assemblies:
# at 2^14 (128 KiB per float64 temporary) the temporaries are reused from the
# heap; at 2^15 the allocator's page faults return on smooth kernels, and at
# 2^13 the per-tile overhead shows.
_TILE = 1 << 14
_SIGN_SCAN = 256  # coarse cells per panel of the sign-change scan


@dataclass(frozen=True)
class Window:
    a: float
    b: float

    def __post_init__(self):
        if not (0.0 <= self.a < self.b <= 1.0):
            raise ValueError(f"window must satisfy 0 <= a < b <= 1: [{self.a}, {self.b}]")


@dataclass(frozen=True)
class Opt1DConfig:
    coarse_grid: int = 2048
    refine_tol: float = 1e-12

    def __post_init__(self):
        # an empty grid divides by zero; a tolerance <= 0 asks for a bracket
        # narrower than float spacing
        if self.coarse_grid < 1:
            raise ValueError("coarse_grid must be >= 1")
        if not self.refine_tol > 0:
            raise ValueError("refine_tol must be positive")


# ---------------------------------------------------------------------------
# 1-D extrema: coarse grid scan + golden-section refinement

def _golden_min(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                tol: float, depth: int | None = None):
    """Golden-section minimization on [a, b]; returns the best probed point.

    f maps an array of points to their values, elementwise.  Each call
    evaluates the probes of the next ``depth`` steps (``_GOLDEN_DEPTH`` by
    default), see ``_golden_walk``; the result is that of one probe per call.
    """
    walk = _golden_walk(f, a, b, tol, _GOLDEN_DEPTH if depth is None else depth)
    (c, fc), (d, fd) = next(walk), next(walk)
    best_x, best_f = (c, fc) if fc <= fd else (d, fd)
    for x, fx in walk:
        # the point a step keeps was compared when it was probed
        if fx < best_f:
            best_x, best_f = x, fx
    return best_x, best_f


def _golden_walk(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                 tol: float, depth: int):
    """The points a golden-section search for the minimum of f on [a, b]
    probes, with their values, in the order of the one-probe loop.

    The two inner points of [a, b] are evaluated in one call.  Then, while
    the bracket is wider than tol and narrower than before the last step
    (below float spacing a step can leave it as it was), each call of f
    evaluates the probes of the next ``depth`` steps for every outcome of
    their comparisons, a tree of 2**depth - 1 points (``_probe_tree``), and
    the walk follows the comparisons through it.  If that call raises a
    ``HammcertError``, the same steps are redone one probe per call, so an
    error surfaces only at a probe the one-probe loop makes.
    """
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    try:
        fc, fd = f(np.array([c, d])).tolist()
    except HammcertError:
        (fc,), (fd,) = f(np.array([c])).tolist(), f(np.array([d])).tolist()
    yield c, fc
    yield d, fd
    width, solo = math.inf, 0
    while tol < b - a < width:
        tree = _probe_tree(a, b, c, d, fc <= fd, tol, 1 if solo else depth)
        try:
            values = f(np.array([node[4] for node in tree])).tolist()
        except HammcertError:
            if len(tree) == 1:
                raise
            solo = depth
            continue
        solo = max(solo - 1, 0)
        node = 0
        while node < len(tree):
            width = b - a
            a, b, c, d, x, go = tree[node]
            if fc <= fd:
                fc, fd = values[node], fc
            else:
                fc, fd = fd, values[node]
            yield x, values[node]
            if not go:
                break
            node = 2 * node + (1 if fc <= fd else 2)


def _probe_tree(a: float, b: float, c: float, d: float, left: bool, tol: float,
                depth: int) -> list:
    """The next ``depth`` golden steps from the bracket a < c < d < b, for
    every outcome of the comparisons, in heap order: node n is followed by
    2n + 1 when its fc <= fd and by 2n + 2 otherwise.

    The first step keeps [a, d] if ``left``, else [c, b].  A node is the
    bracket (a, b, c, d) after its step, the point the step probes, and
    whether the loop steps on from it: it does while its bracket is wider
    than tol and narrower than the one before, so nodes past a stop are
    probed but never walked.  Positions use the loop's float64 operations,
    so they are its doubles; Python floats build a depth-4 tree in a few
    microseconds, numpy arrays level by level in over a hundred.
    """
    width = b - a
    if left:
        x = d - _GOLDEN * (d - a)
        tree = [(a, d, x, c, x, tol < d - a < width)]
    else:
        x = c + _GOLDEN * (b - c)
        tree = [(c, b, d, x, x, tol < b - c < width)]
    for level in range(1, depth):
        for a, b, c, d, _, go in tree[2 ** (level - 1) - 1:]:
            width = b - a
            lc = d - _GOLDEN * (d - a)  # the step that keeps [a, d] probes a new c
            rd = c + _GOLDEN * (b - c)  # the one that keeps [c, b] probes a new d
            tree += [(a, d, lc, c, lc, go and tol < d - a < width),
                     (c, b, d, rd, rd, go and tol < b - c < width)]
    return tree


def extremum_1d(f: Callable, a: float, b: float,
                cfg: Opt1DConfig | None = None, *, mode: str = "max",
                breakpoints: Sequence[float] = ()):
    """Grid-certified extremum of f over [a, b].

    f must be elementwise on arrays: it is called once with the whole grid
    and then by the refinement with arrays of probe points, each holding the
    probes of several golden-section steps (see ``_golden_walk``), at the
    same points and with the same result as one probe per call.  Returns
    (value, argpoint, grid_resolution).
    The coarse grid includes the supplied breakpoints as nodes; the
    bracketing triple around the grid optimum is refined by golden-section
    search and the better of the two results is reported.  For mode "max"
    the value is a lower bound of the true sup at grid resolution (and
    symmetrically for "min").
    """
    cfg = cfg or Opt1DConfig()
    if mode not in ("min", "max"):
        raise ValueError(mode)
    grid = _grid_with(breakpoints, a, b, cfg.coarse_grid)
    vals = _values_at(f, grid)
    if np.any(np.isnan(vals)):
        raise ModelViolationError("C1", f"NaN while scanning [{a}, {b}]")
    sign = 1.0 if mode == "min" else -1.0
    j = int(np.argmin(sign * vals))
    best_x, best_v = float(grid[j]), float(vals[j])
    lo = float(grid[max(j - 1, 0)])
    hi = float(grid[min(j + 1, grid.size - 1)])
    if hi > lo:
        gx, gv = _golden_min(lambda x: sign * _values_at(f, x), lo, hi, cfg.refine_tol)
        if gv < sign * best_v:
            best_x, best_v = gx, sign * gv
    resolution = (b - a) / cfg.coarse_grid if b > a else 0.0
    return best_v, best_x, resolution


def _values_at(f: Callable, x: np.ndarray) -> np.ndarray:
    """f at the points x as floats of x's shape (f of a constant may give
    one value)."""
    v = np.asarray(f(x), dtype=float)
    return v if v.shape == x.shape else np.broadcast_to(v, x.shape)


def sup_abs_1d(f: Callable, w: Window, cfg: Opt1DConfig | None = None, *,
               breakpoints: Sequence[float] = ()):
    """Grid-certified sup of |f| over the window; returns (value, argmax)."""
    value, arg, _ = extremum_1d(lambda x: np.abs(f(x)), w.a, w.b, cfg, mode="max",
                                breakpoints=breakpoints)
    return value, arg


def _grid_with(points: Sequence[float], a: float, b: float, n: int) -> np.ndarray:
    grid = np.linspace(a, b, n + 1)
    inner = [p for p in points if a < p < b]
    if inner:
        grid = np.unique(np.concatenate((grid, inner)))
    return grid


# ---------------------------------------------------------------------------
# Sign-change location (for integrating |k| accurately)

def _panel_sign_roots(fn: Callable, rows: np.ndarray, lo: np.ndarray,
                      hi: np.ndarray):
    """Roots of fn(r, .) inside each panel (lo[j], hi[j]) of row r = rows[j].

    Each panel is scanned on a coarse grid, whole panels at a time in tiles
    of about ``_TILE`` points, and every strict sign change is then bisected,
    all panels at once; a grid point where fn vanishes exactly counts only
    when its neighbors straddle zero (a function that is zero on a whole
    stretch has no kink in |fn| there).  Returns (rows, roots): the node
    roots, then the bisected ones, each in panel-major order.
    """
    step = max(1, _TILE // (_SIGN_SCAN + 1))
    found = []
    # one (empty) tile even without panels, so the concatenations below work
    for p in range(0, max(rows.size, 1), step):
        r = rows[p:p + step]
        xs = np.linspace(lo[p:p + step], hi[p:p + step], _SIGN_SCAN + 1, axis=-1)
        v = np.broadcast_to(np.asarray(fn(r[:, None], xs), dtype=float), xs.shape)
        zi, zj = np.nonzero((v[:, 1:-1] == 0.0) & (v[:, :-2] * v[:, 2:] < 0.0))
        bi, bj = np.nonzero(v[:, :-1] * v[:, 1:] < 0.0)
        found.append((r[zi], xs[zi, zj + 1], r[bi], xs[bi, bj], xs[bi, bj + 1],
                      v[bi, bj]))
    z_rows, z_roots, b_rows, b_lo, b_hi, f_lo = map(np.concatenate, zip(*found))
    for _ in range(48 if b_rows.size else 0):
        mid = 0.5 * (b_lo + b_hi)
        fm = np.broadcast_to(np.asarray(fn(b_rows, mid), dtype=float), mid.shape)
        left = f_lo * fm <= 0.0
        b_hi = np.where(left, mid, b_hi)
        b_lo = np.where(left, b_lo, mid)
        f_lo = np.where(left, f_lo, fm)
    return (np.concatenate((z_rows, b_rows)),
            np.concatenate((z_roots, 0.5 * (b_lo + b_hi))))


# ---------------------------------------------------------------------------
# Integrals over s for many t at once

def integrate_over_s(kd: KernelDef, ts, a: float, b: float, *, order: int = 0,
                     absolute: bool = False,
                     quad_cfg: QuadConfig | None = None) -> np.ndarray:
    """For every t in ts, the integral over s in [a, b] of k(t,s) (order 0)
    or dk/dt(t,s) (order 1), or of its absolute value.

    Panels split at the fixed breakpoints, at the moving breakpoint s = t
    (the rule of ``s_breakpoints``) and, for absolute values, at the sign
    roots of the integrand in each of those panels.  All t then run the
    adaptive rule of ``integrate`` together (``integrate_panels``), so each
    value equals, bit for bit, a per-t ``integrate`` with those splits.  t
    is processed in chunks under a fixed point budget.  Returns an array of
    the shape of ts.
    """
    quad_cfg = quad_cfg or QuadConfig()
    ts = np.asarray(ts, dtype=float)
    flat = ts.ravel()
    per_t = (len(kd.fixed_breakpoints) + 2) * (
        _SIGN_SCAN + 1 if absolute else 3 * quad_cfg.gauss_order)
    chunk = max(1, _POINT_BUDGET // per_t)
    parts = [_s_integrals(kd, flat[i:i + chunk], a, b, order, absolute, quad_cfg)
             for i in range(0, flat.size, chunk)]
    return np.concatenate(parts or [flat]).reshape(ts.shape)


def _s_integrals(kd: KernelDef, ts: np.ndarray, a: float, b: float, order: int,
                 absolute: bool, quad_cfg: QuadConfig) -> np.ndarray:
    evalf = eval_k if order == 0 else eval_dk
    fn = lambda r, s: evalf(kd, ts[r], s)
    n = ts.size
    fixed = np.asarray(kd.fixed_breakpoints, dtype=float)
    moving = np.full(n, a)
    if kd.moving_breakpoint:
        clear = np.all(np.abs(ts[:, None] - fixed) > 1e-14, axis=1)
        moving = np.where(clear, ts, a)
    # breakpoints of every t, one row each; entries outside (a, b) become a
    splits = np.column_stack((np.broadcast_to(fixed, (n, fixed.size)), moving))
    splits = np.where((a < splits) & (splits < b), splits, a)
    if absolute:
        edges = np.column_stack((np.full(n, a), np.sort(splits, axis=1), np.full(n, b)))
        r, c = np.nonzero(edges[:, 1:] - edges[:, :-1] > 1e-12)
        roots = _panel_sign_roots(fn, r, edges[r, c], edges[r, c + 1])
        splits = np.column_stack((splits, _pad_rows(*roots, n, a)))
        integrand = lambda r, s: np.abs(np.asarray(fn(r, s), dtype=float))
    else:
        integrand = fn
    return integrate_panels(integrand, *_panels(a, b, splits), n, quad_cfg)


def _pad_rows(rows: np.ndarray, values: np.ndarray, n: int, fill: float) -> np.ndarray:
    """values grouped into an (n, max count) array by row, padded with fill."""
    counts = np.bincount(rows, minlength=n)
    out = np.full((n, int(counts.max(initial=0))), fill)
    order = np.argsort(rows, kind="stable")
    rows = rows[order]
    out[rows, np.arange(rows.size) - (np.cumsum(counts) - counts)[rows]] = values[order]
    return out


# ---------------------------------------------------------------------------
# Integral norms of kernels

def recip_m(kd: KernelDef, order: int, quad_cfg: QuadConfig | None = None,
            opt_cfg: Opt1DConfig | None = None) -> float:
    """sup over t in [0,1] of the integral over s of |k| (order 0) or
    |dk/dt| (order 1); this is the quantity 1/m_l, returned directly."""
    if order not in (0, 1):
        raise ValueError("order must be 0 or 1")
    g = lambda t: integrate_over_s(kd, t, 0.0, 1.0, order=order, absolute=True,
                                   quad_cfg=quad_cfg)
    value, _ = sup_abs_1d(g, Window(0.0, 1.0), opt_cfg,
                          breakpoints=kd.fixed_breakpoints)
    return value


def recip_M(kd: KernelDef, w: Window, quad_cfg: QuadConfig | None = None,
            opt_cfg: Opt1DConfig | None = None) -> float:
    """inf over t in [a,b] of the signed integral of k(t,s) over s in [a,b];
    this is the quantity 1/M, returned directly."""
    g = lambda t: integrate_over_s(kd, t, w.a, w.b, quad_cfg=quad_cfg)
    value, _, _ = extremum_1d(g, w.a, w.b, opt_cfg, mode="min",
                              breakpoints=kd.fixed_breakpoints)
    return value


# ---------------------------------------------------------------------------
# Window constants

def _kernel_columns(evalf: Callable, kd: KernelDef, ts: np.ndarray,
                    ss: np.ndarray, combine: np.ufunc, *,
                    absolute: bool = False) -> np.ndarray:
    """combine.reduce over t in ts of evalf(kd, t, s), or of its absolute
    value, for every s in ss.

    The ts x ss grid is evaluated in tiles of at most ``_TILE`` points, a few
    t-rows by many s-columns so that each reduction runs along long rows.
    Each tile is reduced over its t-rows and folded into the running column
    values with ``combine``; for np.minimum and np.maximum that is exact, so
    the tiling leaves every value as a whole-grid reduction would.
    """
    # 64 t-rows by 256 s-columns at 2^14: a tile of all 2049 t-rows would be
    # 8 columns wide, and such short rows reduce slowly
    rows = max(1, min(ts.size, math.isqrt(_TILE) // 2))
    cols = max(1, _TILE // rows)
    out = np.empty(ss.size)
    for j0 in range(0, ss.size, cols):
        sj = ss[j0:j0 + cols]
        block = out[j0:j0 + sj.size]
        for i0 in range(0, ts.size, rows):
            tr = ts[i0:i0 + rows]
            k = np.broadcast_to(np.asarray(evalf(kd, tr[:, None], sj), dtype=float),
                                (tr.size, sj.size))
            part = combine.reduce(np.abs(k) if absolute else k, axis=0)
            if i0:
                combine(block, part, out=block)
            else:
                block[:] = part
    return out


def c_tilde(kd: KernelDef, w: Window, env: EnvelopeSpec,
            quad_cfg: QuadConfig | None = None,
            opt_cfg: Opt1DConfig | None = None) -> float:
    """Largest c with k(t,s) >= c * Phi0(s) for t in the window.

    Computed as inf over s of (min over window t of k(t,s)) / Phi0(s);
    s-points where Phi0 vanishes are skipped (the inequality is vacuous
    there).  In tight mode Phi0(s) = max over t in [0,1] of |k(t,s)|.  A
    declared envelope is verified to majorize |k| on a dense grid first.
    A nonpositive result means the window positivity condition (C2) fails.
    """
    opt_cfg = opt_cfg or Opt1DConfig()
    ng = min(opt_cfg.coarse_grid, 2048)
    ss = _grid_with(kd.fixed_breakpoints, 0.0, 1.0, ng)
    tw = _grid_with(kd.fixed_breakpoints, w.a, w.b, ng)
    m_win = _kernel_columns(eval_k, kd, tw, ss, np.minimum)
    # the full t grid [0, 1] is the s grid
    k_max = _kernel_columns(eval_k, kd, ss, ss, np.maximum, absolute=True)

    if env.mode == "declared":
        phi = np.broadcast_to(
            np.asarray(eval_scalar(env.declared_phi0, {"s": ss}), dtype=float),
            ss.shape).copy()
        worst = np.argmax(k_max - phi)
        gap = k_max[worst] - phi[worst]
        if gap > 1e-9 * max(1.0, abs(phi[worst])):
            raise ModelViolationError(
                "C2", f"declared envelope violated: |k| exceeds Phi0 by "
                      f"{gap:.3e} at s={ss[worst]:.6f}")
    else:
        phi = k_max

    mask = phi > 1e-14 * max(1.0, float(phi.max(initial=0.0)))
    if not np.any(mask):
        raise ModelViolationError("C2", "envelope vanishes identically")
    ratios = m_win[mask] / phi[mask]
    j = int(np.argmin(ratios))
    value = float(ratios[j])
    s_best = float(ss[mask][j])

    # refine around the grid infimum with accurate inner extrema
    inner_cfg = Opt1DConfig(coarse_grid=256, refine_tol=opt_cfg.refine_tol)

    def ratio_at(s: float) -> float:
        s = min(max(s, 0.0), 1.0)
        k_at_s = lambda t: eval_k(kd, t, s)
        num, _, _ = extremum_1d(k_at_s, w.a, w.b, inner_cfg, mode="min",
                                breakpoints=[s])
        if env.mode == "declared":
            den = float(eval_scalar(env.declared_phi0, {"s": s}))
        else:
            den, _ = sup_abs_1d(k_at_s, Window(0.0, 1.0), inner_cfg, breakpoints=[s])
        if den <= 1e-14:
            return np.inf
        return num / den

    # each probe is two nested searches, so probe trees would not pay here
    h = 1.0 / ng
    gx, gv = _golden_min(lambda xs: np.array([ratio_at(s) for s in xs]),
                         max(0.0, s_best - h), min(1.0, s_best + h),
                         opt_cfg.refine_tol, depth=1)
    if gv < value:
        value = float(gv)

    if value <= 0.0:
        raise ModelViolationError(
            "C2", f"window [{w.a}, {w.b}] gives c~ = {value:.6g} <= 0; the "
            "kernel is not bounded below by a positive multiple of its envelope there")
    if value > 1.0 + 1e-9:
        raise ModelViolationError(
            "C2", f"computed c~ = {value:.6g} > 1; the declared envelope does "
            "not majorize |k| (c~ must lie in (0, 1])")
    return min(value, 1.0)


def gamma_c(gamma, w: Window, opt_cfg: Opt1DConfig | None = None) -> float:
    """(min over the window of gamma) / sup over [0,1] of |gamma|."""
    g = lambda t: eval_scalar(gamma, {"t": t})
    sup, _ = sup_abs_1d(g, Window(0.0, 1.0), opt_cfg)
    if sup <= 0.0:
        raise ModelViolationError("C5", "gamma vanishes identically; its window "
                                         "constant is undefined")
    wmin, _, _ = extremum_1d(g, w.a, w.b, opt_cfg, mode="min")
    value = wmin / sup
    if value <= 0.0:
        raise ModelViolationError(
            "C5", f"gamma is not positive on the window [{w.a}, {w.b}] "
            f"(min/sup = {value:.6g} <= 0)")
    return min(value, 1.0)


# ---------------------------------------------------------------------------
# Assembly

@dataclass(frozen=True)
class ConstantRecord:
    symbol: str
    computed: float
    declared: float | None
    used: float
    flags: tuple[str, ...] = ()

    def as_dict(self) -> dict:
        return {"symbol": self.symbol, "computed": self.computed,
                "declared": self.declared, "used": self.used,
                "flags": list(self.flags)}


@dataclass(frozen=True, eq=False)
class ConeConstants:
    """Per-component constants: the window and one record per constant, keyed
    as in the constants report; the ``used`` values feed certificates.  The
    records are a read-only view of a copy of the mapping given, since every
    caller of ``assemble_cone_constants`` shares them."""
    window: Window
    records: Mapping[str, ConstantRecord]

    def __post_init__(self):
        object.__setattr__(self, "records", MappingProxyType(dict(self.records)))

    @property
    def c(self) -> float:
        return self.records["c"].used

    def record(self, key: str) -> ConstantRecord:
        return self.records[key]


_FLAG = "declared-differs-from-computed"


def _informational(symbol: str, computed: float, declared) -> ConstantRecord:
    """Computed value always wins; a differing declaration is flagged."""
    flags = ()
    if declared is not None and \
            abs(declared - computed) > max(1e-6, 1e-6 * abs(computed)):
        flags = (_FLAG,)
    return ConstantRecord(symbol, computed, declared, computed, flags)


def _overridable(symbol: str, computed: float, declared, *, condition: str) -> ConstantRecord:
    """c-type constant: a declared value at most the computed tight value is
    used in place of it (declaring slack is always sound); anything larger
    is inconsistent and rejected."""
    if declared is None:
        return ConstantRecord(symbol, computed, None, computed)
    if declared <= 0.0:
        raise ModelViolationError(condition, f"declared {symbol} = {declared} must be positive")
    if declared > computed + 1e-9:
        raise ConfigError(symbol, f"declared value {declared} exceeds the computed "
                                  f"tight value {computed:.12g}; overrides may only add slack")
    return ConstantRecord(symbol, computed, declared, declared)


def assemble_cone_constants(spec: "ProblemSpec",
                            quad_cfg: QuadConfig | None = None,
                            opt_cfg: Opt1DConfig | None = None) -> tuple[ConeConstants, ...]:
    """Compute every constant for every component of the problem.

    Declared overrides from the configuration are honored for c-type
    constants when consistent; integral norms and gamma sups are always the
    computed values, with discrepancy flags when a declaration disagrees.
    Results are cached per (spec, configs); the computation is pure.
    """
    return _assemble_cached(spec, quad_cfg or spec.quad, opt_cfg or spec.opt)


@lru_cache(maxsize=8)
def _assemble_cached(spec: "ProblemSpec", quad_cfg: QuadConfig,
                     opt_cfg: Opt1DConfig) -> tuple[ConeConstants, ...]:
    out = []
    for i, comp in enumerate(spec.components, start=1):
        kd = comp.kernel
        w = comp.window
        decl = comp.declared
        # a declared list holds one entry per gamma term (checked at load)
        unset = (None,) * len(comp.gammas)

        records: dict[str, ConstantRecord] = {}
        ct = c_tilde(kd, w, comp.envelope, quad_cfg, opt_cfg)
        records["c_tilde"] = _overridable(f"c~_{i}", ct, decl.get("c_tilde"),
                                          condition="C2")
        for j, (term, d_cg, d_gs, d_dgs) in enumerate(zip(
                comp.gammas, decl.get("c_gamma", unset), decl.get("gamma_sup", unset),
                decl.get("dgamma_sup", unset))):
            ij = f"{i},{j + 1}"
            cg = gamma_c(term.gamma.gamma, w, opt_cfg)
            records[f"c_gamma[{j}]"] = _overridable(f"c_{{{ij}}}", cg, d_cg,
                                                    condition="C5")
            gsup, _ = sup_abs_1d(lambda t: eval_scalar(term.gamma.gamma, {"t": t}),
                                 Window(0.0, 1.0), opt_cfg)
            records[f"gamma_sup[{j}]"] = _informational(
                f"||gamma_{{{ij}}}||_inf", gsup, d_gs)
            dsup, _ = sup_abs_1d(lambda t: eval_scalar(term.gamma.dgamma, {"t": t}),
                                 Window(0.0, 1.0), opt_cfg)
            records[f"dgamma_sup[{j}]"] = _informational(
                f"||gamma_{{{ij}}}'||_inf", dsup, d_dgs)

        if comp.envelope.declared_phi1 is not None:
            _validate_phi1(kd, comp.envelope.declared_phi1, i)

        m0 = recip_m(kd, 0, quad_cfg, opt_cfg)
        m1 = recip_m(kd, 1, quad_cfg, opt_cfg)
        mm = recip_M(kd, w, quad_cfg, opt_cfg)
        records["recip_m0"] = _informational(f"1/m_{{{i},0}}", m0, decl.get("recip_m0"))
        records["recip_m1"] = _informational(f"1/m_{{{i},1}}", m1, decl.get("recip_m1"))
        records["recip_M"] = _informational(f"1/M_{i}", mm, decl.get("recip_M"))

        # c_i is the least of c~_i and the c_{i,j}, the records keyed c_*
        c_used = min(rec.used for key, rec in records.items() if key.startswith("c_"))
        records["c"] = ConstantRecord(f"c_{i}", c_used, None, c_used)

        if _kernel_nonneg_on_window(kd, w) and m0 < mm - 1e-9:
            raise ModelViolationError(
                "C2", f"component {i}: 1/m_0 = {m0:.12g} < 1/M = {mm:.12g} with a "
                "nonnegative kernel on the window; the computed constants are inconsistent")

        out.append(ConeConstants(window=w, records=records))
    return tuple(out)


def _validate_phi1(kd: KernelDef, phi1, comp_index: int, grid: int = 401) -> None:
    """A declared dk-majorant must dominate |dk/dt| on a dense grid (C3);
    the band around the moving jump s = t is not excluded because both
    one-sided values stay below any valid majorant."""
    ss = _grid_with(kd.fixed_breakpoints, 0.0, 1.0, grid)
    ts = np.linspace(0.0, 1.0, grid + 1)
    dk_max = _kernel_columns(eval_dk, kd, ts, ss, np.maximum, absolute=True)
    phi = np.broadcast_to(np.asarray(eval_scalar(phi1, {"s": ss}), dtype=float),
                          ss.shape)
    # x -> fl(x - phi) is nondecreasing: the largest gap sits at the column max
    gap = (dk_max - phi).max()
    if gap > 1e-9:
        raise ModelViolationError(
            "C3", f"component {comp_index}: declared Phi1 is exceeded by "
                  f"|dk/dt| by {gap:.3e}")


def _kernel_nonneg_on_window(kd: KernelDef, w: Window, grid: int = 201) -> bool:
    ts = _grid_with(kd.fixed_breakpoints, w.a, w.b, grid)
    ss = _grid_with(kd.fixed_breakpoints, 0.0, 1.0, grid)
    return bool(_kernel_columns(eval_k, kd, ts, ss, np.minimum).min() >= -1e-12)


def constants_report(spec: "ProblemSpec", cc: Sequence[ConeConstants],
                     opt_cfg: Opt1DConfig | None = None) -> dict:
    """JSON-ready report listing every constant with computed value, declared
    value, the value certificates will use, and discrepancy flags."""
    opt_cfg = opt_cfg or spec.opt
    components = []
    for i, (comp, cci) in enumerate(zip(spec.components, cc), start=1):
        entry = {
            "component": i,
            "window": [cci.window.a, cci.window.b],
            "envelope_mode": comp.envelope.mode,
            "constants": {key: rec.as_dict() for key, rec in sorted(cci.records.items())},
        }
        components.append(entry)
    flags = [
        {"component": i, "constant": key, **rec.as_dict()}
        for i, cci in enumerate(cc, start=1)
        for key, rec in sorted(cci.records.items()) if rec.flags
    ]
    return {
        "grid_resolution": 1.0 / opt_cfg.coarse_grid,
        "notes": [RECIP_M_READING_NOTE],
        "components": components,
        "discrepancies": flags,
    }
