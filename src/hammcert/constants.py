"""Cone and kernel constants: envelopes, window constants, integral norms.

Everything here realizes a sup/inf over t or s of kernel data:

* ``recip_m(kd, l)``   -- sup over t in [0,1] of the integral over s of
  |k(t,s)| (l = 0) or |dk/dt(t,s)| (l = 1); returned as the reciprocal
  quantity 1/m_l directly, nothing ever divides by an m.
* ``recip_M(kd, w)``   -- inf over t in the window [a,b] of the *signed*
  integral of k(t,s) over s in [a,b].
* ``c_tilde(kd, w, env)`` -- largest constant with k(t,s) >= c * Phi0(s)
  on the window, i.e. inf over s of (min over window t of k) / Phi0.
* ``gamma_c(gamma, w)`` -- (min over window of gamma) / sup|gamma|, with
  that sup.

Sups and infs are grid scans refined by golden-section search on the
bracketing triple; results are approximations at the grid resolution of
``Opt1DConfig``, not rigorous enclosures.  The refinement evaluates probe
trees: one call of the searched function holds the probes of the next
``_GOLDEN_DEPTH`` steps for every outcome of their comparisons, and the
search walks the comparisons through them, so it probes the points, and
returns the values, of one probe per call in fewer, larger calls; searched
functions must therefore be elementwise on arrays.  For an expression
monotone in t by its form (``expr._monotone_in``), the extrema over t are
read at the two ends, with the same doubles (``_t_ends``): ``_kernel_columns``
decides this for c~'s t-grids and the Phi1 check, and c~'s inner searches
read the ends too.  Other grid scans, and the integral norms' first pass,
skip the blocks the interval table bounds strictly worse than a few probe
rows (``_kept_blocks``).  Declared
constants from the configuration take precedence when consistent with the
computed tight value (c-type constants must not exceed it); integral norms
are always computed, and a declared value that disagrees is flagged, never
substituted.

The t-scans of the integral norms are batched: ``integrate_over_s``
integrates over s for many t at once, with the grid, panel breakpoints
(fixed, and the moving s = t), sign-root rule and golden-section refinement
of a one-t-at-a-time scan, so the values are the same bit for bit.  Inner
integrals of |k| split panels additionally at sign changes of k, because
the absolute value introduces kinks at unknown points.  Only the panels
where k may change sign are scanned for them: the interval table encloses k
over the call's whole (t, s) box and then over each panel, and a panel
whose enclosure is one-signed holds no sign change the scan could find, so
dropping it changes no double.

Two kinds of array work run at two sizes.  Elementwise scans -- the coarse
sign pattern of every s-panel, the c~ grids and the Phi1 check of
expressions not monotone in t -- run in chunks of whole rows of at most
``_TILE`` points, so their temporaries stay in cache and are reused from the
heap; partial column extrema combine exactly, so no value depends on the
chunk.  A chunk of the sign scan holds one panel per row, its
nodes built in that order by linspace's own float64 operations, and only
its rows holding both a value < 0 and a value > 0 go on to the node tests
(a strict change or a straddled zero needs both signs); of those it looks
for exact zeros that straddle a sign change only when they hold an exact
zero.
Scan grids take their extra nodes (breakpoints, the moving s of c~'s inner
searches) as the sorted distinct values of those nodes and the uniform
grid.  Bisection of the sign changes and the adaptive quadrature run in
batches: every bracket of a call bisected together, every panel of a
t-chunk integrated together, with t-chunks sized by ``_POINT_BUDGET``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from types import MappingProxyType
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

import numpy as np

from .errors import (ConfigError, EvalDomainError, HammcertError, ModelViolationError,
                     _check_integers, _finite_real)
from .expr import _enclose, _monotone_in, eval_scalar
from .kernels import EnvelopeSpec, KernelDef, eval_dk, eval_k, s_breakpoints
from .quad import QuadConfig, _distinct, _panels, _shaped, integrate_panels

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

# Points one batched step may evaluate at once (a chunk of t whose panels
# are integrated together): bounds the memory of the (t x panel x node)
# tensors whatever the grid size.
_POINT_BUDGET = 1 << 18
# Points one elementwise scan holds at once (a chunk of the sign scan, of the
# c~ grids, of the Phi1 check).  Chosen by timing fresh-process assemblies:
# at 2^14 (128 KiB per float64 temporary) the temporaries are reused from the
# heap; at 2^15 the allocator's page faults return on smooth kernels, and at
# 2^13 the per-chunk overhead shows.
_TILE = 1 << 14
_SIGN_SCAN = 256  # coarse cells per panel of the sign-change scan
# _kept_blocks: rows (= s-columns) of a block, and rows probed before skipping
_BLOCK, _PROBE_ROWS = 32, 17


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
        _check_integers(self, "coarse_grid")
        # an empty grid divides by zero; a tolerance <= 0 asks for a bracket
        # narrower than float spacing
        if self.coarse_grid < 1:
            raise ValueError("coarse_grid must be >= 1")
        if not (_finite_real(self.refine_tol) and self.refine_tol > 0):
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
    ``HammcertError``, the walk goes through the same tree one probe per
    call, so an error surfaces only at a probe the one-probe loop makes.
    """
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    try:
        fc, fd = f(np.array([c, d])).tolist()
    except HammcertError:
        (fc,), (fd,) = f(np.array([c])).tolist(), f(np.array([d])).tolist()
    yield c, fc
    yield d, fd
    width = math.inf
    while tol < b - a < width:
        tree = _probe_tree(a, b, c, d, fc <= fd, tol, depth)
        try:
            values = f(np.array([node[4] for node in tree])).tolist()
        except HammcertError:
            values = None
        node = 0
        while node < len(tree):
            width = b - a
            a, b, c, d, x, go = tree[node]
            fx = f(np.array([x])).tolist()[0] if values is None else values[node]
            if fc <= fd:
                fc, fd = fx, fc
            else:
                fc, fd = fd, fx
            yield x, fx
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
    (value, argpoint).
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
    vals = _shaped(f(grid), grid.shape)
    if np.isnan(vals).any():
        raise ModelViolationError("C1", f"NaN while scanning [{a}, {b}]")
    sign = 1.0 if mode == "min" else -1.0
    j = int(np.argmin(sign * vals))
    best_x, best_v = float(grid[j]), float(vals[j])
    lo = float(grid[max(j - 1, 0)])
    hi = float(grid[min(j + 1, grid.size - 1)])
    if hi > lo:
        gx, gv = _golden_min(lambda x: sign * _shaped(f(x), x.shape), lo, hi,
                             cfg.refine_tol)
        if gv < sign * best_v:
            best_x, best_v = gx, sign * gv
    return best_v, best_x


def sup_abs_1d(f: Callable, w: Window, cfg: Opt1DConfig | None = None, *,
               breakpoints: Sequence[float] = ()):
    """Grid-certified sup of |f| over the window; returns (value, argmax)."""
    return extremum_1d(lambda x: np.abs(f(x)), w.a, w.b, cfg, mode="max",
                       breakpoints=breakpoints)


def _grid_with(points: Sequence[float], a: float, b: float, n: int) -> np.ndarray:
    """The n + 1 points of linspace(a, b) and the points inside (a, b),
    sorted and distinct (n >= 1): ``quad._distinct`` of the two."""
    grid = np.linspace(a, b, n + 1)
    inner = [p for p in points if a < p < b]
    return _distinct(np.concatenate((grid, inner))) if inner else grid


# ---------------------------------------------------------------------------
# Sign-change location (for integrating |k| accurately)

def _scan_grid(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """np.linspace(lo, hi, _SIGN_SCAN + 1, axis=-1), bit for bit, but built
    C-contiguous (one panel per row) by linspace's own float64 operations.
    The panels are quad._panels', each wider than 1e-15, so no step is 0
    (linspace's other formula)."""
    step = (hi - lo) / _SIGN_SCAN
    xs = step[:, None] * np.arange(_SIGN_SCAN + 1.0)
    xs += lo[:, None]
    xs[:, -1] = hi
    return xs


def _rows_with_both_signs(v: np.ndarray) -> np.ndarray:
    """Indices of the rows of v holding a value < 0 and a value > 0; fmin and
    fmax skip NaN, so a NaN hides no sign elsewhere in its row."""
    return np.flatnonzero((np.fmin.reduce(v, axis=1) < 0.0)
                          & (np.fmax.reduce(v, axis=1) > 0.0))


def _panel_sign_roots(fn: Callable, rows: np.ndarray, lo: np.ndarray,
                      hi: np.ndarray):
    """Roots of fn(r, .) inside each panel (lo[j], hi[j]) of row r = rows[j].

    Each panel is scanned on a coarse grid, whole panels at a time in chunks
    of about ``_TILE`` points, and every strict sign change is then bisected,
    all panels at once; a grid point where fn vanishes exactly counts only
    when its neighbors straddle zero (a function that is zero on a whole
    stretch has no kink in |fn| there).  Returns (rows, roots): the node
    roots, then the bisected ones, each in panel-major order.
    """
    step = max(1, _TILE // (_SIGN_SCAN + 1))
    found = []
    # one (empty) chunk even without panels, so the concatenations below work
    for p in range(0, max(rows.size, 1), step):
        r = rows[p:p + step]
        xs = _scan_grid(lo[p:p + step], hi[p:p + step])
        v = _shaped(fn(r[:, None], xs), xs.shape)
        # a strict change or a straddled zero needs both signs in its row
        both = _rows_with_both_signs(v)
        r, xs, v = r[both], xs[both], v[both]
        zero = v[:, 1:-1] == 0.0
        if zero.any():  # most chunks hold no exact zero, and then none straddled
            zero &= v[:, :-2] * v[:, 2:] < 0.0
        zi, zj = np.nonzero(zero)
        bi, bj = np.nonzero(v[:, :-1] * v[:, 1:] < 0.0)
        found.append((r[zi], xs[zi, zj + 1], r[bi], xs[bi, bj], xs[bi, bj + 1],
                      v[bi, bj]))
    z_rows, z_roots, b_rows, b_lo, b_hi, f_lo = map(np.concatenate, zip(*found))
    for _ in range(48 if b_rows.size else 0):
        mid = 0.5 * (b_lo + b_hi)
        fm = _shaped(fn(b_rows, mid), mid.shape)
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

    Panels split at the fixed breakpoints and the moving one, s = t, by
    their one rule, ``kernels.s_breakpoints``, and, for absolute values, at
    the sign roots of the integrand in each of those panels, found for all
    t in one pass (``_with_sign_roots``); ``quad._panels``, the one edge
    rule, makes the panels scanned and integrated.  All t then run the
    adaptive rule of ``integrate`` (``integrate_panels``), in chunks under a
    point budget, so each value equals, bit for bit, a per-t ``integrate``
    with those splits.  Returns an array of the shape of ts.
    """
    quad_cfg = quad_cfg or QuadConfig()
    ts = np.asarray(ts, dtype=float)
    flat = ts.ravel()
    evalf = eval_k if order == 0 else eval_dk
    fn = lambda t, r, s: evalf(kd, t[r], s)  # t: the ts the rows r index
    splits = s_breakpoints(kd, flat)
    if absolute:
        expr = kd.k if order == 0 else kd.dk_dt
        splits = _with_sign_roots(partial(fn, flat), expr, flat, a, b, splits)
        fn = lambda t, r, s, f=fn: np.abs(np.asarray(f(t, r, s), dtype=float))
    # |k| chunks by scan points per t; by quadrature points, 1/m_0 of example-k1
    # would allocate 4.8 MiB at its peak, not 1.1
    per_t = (len(kd.fixed_breakpoints) + 2) * (
        _SIGN_SCAN + 1 if absolute else 3 * quad_cfg.gauss_order)
    chunk = max(1, _POINT_BUDGET // per_t)
    parts = [integrate_panels(partial(fn, flat[i:i + chunk]), *_panels(a, b, splits[i:i + chunk]),
                              min(chunk, flat.size - i), quad_cfg)
             for i in range(0, flat.size, chunk)]
    return np.concatenate(parts or [flat]).reshape(ts.shape)


def _with_sign_roots(fn: Callable, expr, ts: np.ndarray, a: float, b: float,
                     splits: np.ndarray) -> np.ndarray:
    """The breakpoint rows ``splits`` of ts, with the sign roots in [a, b] of
    fn(r, .), the values of expr at t = ts[r], appended to row r, padded
    with a.

    Only the panels where the integrand may change sign are scanned for
    roots.  The interval table (``expr._enclose``) encloses it over the
    whole box, t in [min ts, max ts] and s in [a, b]; if that is
    one-signed, nothing is scanned.  Else it encloses it on each panel, t
    the row's point and s in the panel, and drops the rows whose enclosure
    has lo >= 0 or hi <= 0.  That changes no double: such a row holds no
    value < 0 (or none > 0), so its scan would find no strict sign change
    and no straddled zero (``_rows_with_both_signs``), since the scan nodes
    lie in the panel (lo + i * step with step = (hi - lo) / 256, the last
    node hi, and rounding is monotone).  The other rows' roots are
    elementwise, whichever rows share a tile of the scan or the bisection,
    and ``_panels`` sorts each row.  Where the table cannot enclose the
    integrand, no panel is dropped; where it does, numpy's evaluation raises
    nowhere in the box, so no error of the scan is skipped.
    """
    if ts.size == 0 or _one_signed(expr, (ts.min(), ts.max()), (a, b)):
        return splits
    r, lo, hi = _panels(a, b, splits)
    scan = ~np.broadcast_to(_one_signed(expr, (ts[r], ts[r]), (lo, hi)), r.shape)
    roots = _panel_sign_roots(fn, r[scan], lo[scan], hi[scan])
    return np.column_stack((splits, _pad_rows(*roots, ts.size, a)))


def _enclosure(expr, t, s):
    """(lo, hi) of expr over the boxes t x s by the interval table, each box
    a (lo, hi) pair of float64 scalars or arrays; None if a box is not
    finite or the table cannot enclose expr there."""
    if not all(np.isfinite(end).all() for end in (*t, *s)):
        return None
    try:
        return _enclose(expr, {"t": t, "s": s})
    except EvalDomainError:
        return None


def _one_signed(expr, t, s):
    """Where the interval table proves expr >= 0 or <= 0 on the box t x s
    (see ``_enclosure``): a bool, or one per box."""
    box = _enclosure(expr, t, s)
    return box is not None and (box[0] >= 0.0) | (box[1] <= 0.0)


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
    return _norm_extremum(kd, 0.0, 1.0, order, True, quad_cfg, opt_cfg)


def recip_M(kd: KernelDef, w: Window, quad_cfg: QuadConfig | None = None,
            opt_cfg: Opt1DConfig | None = None) -> float:
    """inf over t in [a,b] of the signed integral of k(t,s) over s in [a,b];
    this is the quantity 1/M, returned directly."""
    return _norm_extremum(kd, w.a, w.b, 0, False, quad_cfg, opt_cfg)


def _norm_extremum(kd: KernelDef, a: float, b: float, order: int, absolute: bool,
                   quad_cfg: QuadConfig | None, opt_cfg: Opt1DConfig | None) -> float:
    """``extremum_1d`` over t in [a, b] of ``integrate_over_s`` over [a, b],
    the sup if ``absolute``, else the inf.  Its grid scan skips the t-blocks
    ``_kept_blocks`` rules out (s-boxes between every ``_BLOCK``-th point);
    skipped rows read -inf (a sup) or +inf (an inf), so the argmax, its
    neighbours, the refinement and the value are the whole grid's.  If the
    scan raises, the whole grid raises its own error; one it would raise
    only at skipped rows (``QuadratureError``) is not raised."""
    quad_cfg = quad_cfg or QuadConfig()
    g = lambda t: integrate_over_s(kd, t, a, b, order=order, absolute=absolute,
                                   quad_cfg=quad_cfg)

    def scan(ts):
        vals, todo = np.full(ts.size, -np.inf if absolute else np.inf), np.ones(ts.size, bool)

        def probe(rows):
            vals[rows], todo[rows] = g(ts[rows]), False
            return np.min(-vals[rows] if absolute else vals[rows])
        ends = ts[np.append(np.arange(0, ts.size - 1, _BLOCK), ts.size - 1)]
        try:
            row0, keep = _kept_blocks(kd.dk_dt if order else kd.k, ts, (ends[:-1], ends[1:]),
                                      absolute, probe, (np.diff(ends), quad_cfg))
            todo &= np.repeat(np.broadcast_to(keep, row0.shape), np.diff(row0, append=ts.size))
            vals[todo] = g(ts[todo])
        except HammcertError:  # a row may fail first among those not evaluated
            return g(ts)
        return vals

    first = iter([scan])  # extremum_1d calls f with its grid first
    return extremum_1d(lambda t: next(first, g)(t), a, b, opt_cfg,
                       mode="max" if absolute else "min",
                       breakpoints=kd.fixed_breakpoints)[0]


def _kept_blocks(expr, ts: np.ndarray, s: tuple, maximize: bool, probe: Callable,
                 quad: tuple | None = None):
    """The one pruning rule of the grid scans: (row0, keep), the first row
    of each block of ``_BLOCK`` rows of ts, and whether to evaluate it, per
    s-box of s (a (lo, hi) pair of arrays), or per block with ``quad``.

    A scan minimizes its values, or minus them (``maximize``); lo, or
    min(lo, -hi), of the table's enclosure of expr on a block x s-box bounds
    that score below.  probe(rows) evaluates ``_PROBE_ROWS`` rows, both ends
    among them, and returns per s-box the score to beat or tie; only blocks
    bounded strictly above it are skipped.  With quad = (s-box widths,
    QuadConfig), the score is an integral over s, bounded by the sum of width
    times the box's bound, and the probe's is raised by 10^4 max(rel_tol R,
    abs_tol), R the largest sum of width max(-lo, hi) (>= each row's integral
    of |expr|): far above the quadrature's error, near max(rel_tol |I|,
    abs_tol) per panel, and the sum's, < 10^2 ulps.  Where the table cannot
    enclose expr, nothing is probed or skipped, so the scan raises as the
    whole grid would; where it can, numpy raises nowhere in the boxes."""
    row0 = np.arange(0, ts.size, _BLOCK)
    box = _enclosure(expr, (np.minimum.reduceat(ts, row0)[:, None],
                            np.maximum.reduceat(ts, row0)[:, None]), s)
    if box is None:
        return row0, True
    lo, hi = (np.broadcast_to(x, (row0.size, s[0].size)) for x in box)
    bound, allow = np.minimum(lo, -hi) if maximize else lo, 0.0
    if quad is not None:
        widths, cfg = quad
        reach = np.sum(np.maximum(-lo, hi) * widths, axis=1).max()
        bound, allow = np.sum(bound * widths, axis=1), 1e4 * max(cfg.rel_tol * reach, cfg.abs_tol)
    rows = _distinct(np.linspace(0, ts.size - 1, _PROBE_ROWS).astype(np.intp))
    return row0, ~(bound > probe(rows) + allow)


# ---------------------------------------------------------------------------
# Window constants

def _kernel_columns(evalf: Callable, expr, kd: KernelDef, factors: tuple | None,
                    ts: np.ndarray, ss: np.ndarray, combine: np.ufunc, *,
                    absolute: bool = False) -> np.ndarray:
    """combine (np.minimum or np.maximum).reduce over t in ts of evalf(kd,
    t, s), the value of expr, or of its absolute value, for every s in ss.

    The rows at the two ends of ts are reduced alone if they decide the
    extrema (``_t_ends``, with ``factors`` from ``expr._monotone_in``).
    Else the blocks of ``_BLOCK`` x ``_BLOCK`` points strictly worse than
    the weakest of their columns after the probe rows are skipped
    (``_kept_blocks``): no skipped value can win or tie, so no column moves
    but for the sign of a zero minimum, as with ``_t_ends``.  Each band of
    blocks runs on its kept columns in ascending chunks of whole rows of at
    most ``_TILE`` points (or one longer row), folded in exactly.
    """
    ends = _t_ends(evalf, kd, factors, ts[[0, -1]], ss)
    if ends is not None:
        return combine.reduce(np.abs(ends) if absolute else ends, axis=0)

    def reduced(tr, s):
        k = _shaped(evalf(kd, tr[:, None], s), (tr.size, s.size))
        return combine.reduce(np.abs(k) if absolute else k, axis=0)

    col0, maximize = np.arange(0, ss.size, _BLOCK), combine is np.maximum
    out = np.full(ss.size, -np.inf if maximize else np.inf)

    def probe(rows):  # the weakest column of each s-box
        out[:] = reduced(ts[rows], ss)
        return np.maximum.reduceat(-out if maximize else out, col0)

    s = np.minimum.reduceat(ss, col0), np.maximum.reduceat(ss, col0)
    row0, keep = _kept_blocks(expr, ts, s, maximize, probe)
    widths = np.diff(col0, append=ss.size)
    for i0, kept in zip(row0, np.broadcast_to(keep, (row0.size, col0.size))):
        cols = np.flatnonzero(np.repeat(kept, widths))
        if cols.size == 0:
            continue
        rows, band = max(1, _TILE // cols.size), ts[i0:i0 + _BLOCK]
        for j in range(0, band.size, rows):
            out[cols] = combine(out[cols], reduced(band[j:j + rows], ss[cols]))
    return out


def _t_ends(evalf: Callable, kd: KernelDef, factors: tuple | None,
            ts: np.ndarray, s) -> np.ndarray | None:
    """evalf(kd, t, s) at each t of ts, one row each, if these rows decide
    the extrema over every t between them; else None.

    They do when the expression is monotone in t (``factors`` is what
    ``expr._monotone_in`` gives for it, not None), its product factors are
    finite at s, and every value in the rows is finite: then t -> k(t, s) is
    monotone over all doubles, so the min of k and the max of |k| over any
    grid or search between the ends are those of the end values.  The rows
    differ from a grid's reduction at most in the sign of a zero minimum.
    An evaluation error gives None, so the grid raises it where it would.
    """
    if factors is None:
        return None
    try:
        if not all(np.isfinite(eval_scalar(f, {"s": s})).all() for f in factors):
            return None
        rows = np.reshape(ts, (-1,) + (1,) * np.ndim(s))
        v = _shaped(evalf(kd, rows, s), (ts.size,) + np.shape(s))
    except EvalDomainError:
        return None
    return v if np.isfinite(v).all() else None


def c_tilde(kd: KernelDef, w: Window, env: EnvelopeSpec, *,
            opt_cfg: Opt1DConfig | None = None) -> float:
    """Largest c with k(t,s) >= c * Phi0(s) for t in the window.

    Computed as inf over s of (min over window t of k(t,s)) / Phi0(s);
    s-points where Phi0 vanishes are skipped (the inequality is vacuous
    there).  In tight mode Phi0(s) = max over t in [0,1] of |k(t,s)|.  A
    declared envelope is verified to majorize |k| on a dense grid first.
    A nonpositive result means the window positivity condition (C2) fails.

    For a kernel monotone in t (``expr._monotone_in``), the window min and
    the envelope are read at the ends of [a, b] and of [0, 1] for every s,
    on the grid and in the refinement's inner searches (``_t_ends``): those
    are the values the t-grids and searches find, bit for bit, save the
    sign of a zero minimum.  That sign reaches only a result <= 0, whose
    error text prints the zero unsigned.
    """
    opt_cfg = opt_cfg or Opt1DConfig()
    factors = _monotone_in(kd.k, "t")
    ng = min(opt_cfg.coarse_grid, 2048)
    ss = _grid_with(kd.fixed_breakpoints, 0.0, 1.0, ng)
    tw = _grid_with(kd.fixed_breakpoints, w.a, w.b, ng)
    m_win = _kernel_columns(eval_k, kd.k, kd, factors, tw, ss, np.minimum)
    k_max = _kernel_columns(eval_k, kd.k, kd, factors, ss, ss, np.maximum,
                            absolute=True)

    if env.mode == "declared":
        phi = _shaped(eval_scalar(env.declared_phi0, {"s": ss}), ss.shape)
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
    ends = np.array([w.a, w.b, 0.0, 1.0])

    def ratio_at(s: float) -> float:
        s = min(max(s, 0.0), 1.0)
        at_s = _t_ends(eval_k, kd, factors, ends, s)
        k_at_s = lambda t: eval_k(kd, t, s)
        if at_s is None:
            num, _ = extremum_1d(k_at_s, w.a, w.b, inner_cfg, mode="min",
                                 breakpoints=[s])
        else:
            at_s = at_s.tolist()
            num = min(at_s[:2])
        if env.mode == "declared":
            den = float(eval_scalar(env.declared_phi0, {"s": s}))
        elif at_s is None:
            den, _ = sup_abs_1d(k_at_s, Window(0.0, 1.0), inner_cfg, breakpoints=[s])
        else:
            den = max(map(abs, at_s[2:]))
        if den <= 1e-14:
            return np.inf
        return num / den

    # a probe off the end values is two nested searches, so probe trees
    # would not pay here
    h = 1.0 / ng
    _, gv = _golden_min(lambda xs: np.array([ratio_at(s) for s in xs]),
                        max(0.0, s_best - h), min(1.0, s_best + h),
                        opt_cfg.refine_tol, depth=1)
    value = min(value, float(gv))
    if value <= 0.0:
        raise ModelViolationError(
            "C2", f"window [{w.a}, {w.b}] gives c~ = {value + 0.0:.6g} <= 0; the "
            "kernel is not bounded below by a positive multiple of its envelope there")
    if value > 1.0 + 1e-9:
        raise ModelViolationError(
            "C2", f"computed c~ = {value:.6g} > 1; the declared envelope does "
            "not majorize |k| (c~ must lie in (0, 1])")
    return min(value, 1.0)


def gamma_c(gamma, w: Window,
            opt_cfg: Opt1DConfig | None = None) -> tuple[float, float]:
    """(min over the window of gamma) / sup over [0,1] of |gamma|, and that
    sup."""
    g = lambda t: eval_scalar(gamma, {"t": t})
    sup, _ = sup_abs_1d(g, Window(0.0, 1.0), opt_cfg)
    if sup <= 0.0:
        raise ModelViolationError("C5", "gamma vanishes identically; its window "
                                         "constant is undefined")
    wmin, _ = extremum_1d(g, w.a, w.b, opt_cfg, mode="min")
    value = wmin / sup
    if value <= 0.0:
        raise ModelViolationError(
            "C5", f"gamma is not positive on the window [{w.a}, {w.b}] "
            f"(min/sup = {value:.6g} <= 0)")
    return min(value, 1.0), sup


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
    used in place of it (declaring slack is always sound); one above it by
    at most 1e-9 is read as the computed value, so ``used`` never exceeds
    ``computed``; anything larger is inconsistent and rejected."""
    if declared is None:
        return ConstantRecord(symbol, computed, None, computed)
    if declared <= 0.0:
        raise ModelViolationError(condition, f"declared {symbol} = {declared} must be positive")
    if declared > computed + 1e-9:
        raise ConfigError(symbol, f"declared value {declared} exceeds the computed "
                                  f"tight value {computed:.12g}; overrides may only add slack")
    return ConstantRecord(symbol, computed, declared, min(declared, computed))


def assemble_cone_constants(spec: "ProblemSpec") -> tuple[ConeConstants, ...]:
    """Compute every constant for every component of the problem, under
    the spec's quadrature (``spec.quad``) and search (``spec.opt``) settings.

    Declared overrides from the configuration are honored for c-type
    constants when consistent; integral norms and gamma sups are always the
    computed values, with discrepancy flags when a declaration disagrees.
    Results are cached per spec; the computation is pure.
    """
    return _assemble_cached(spec)


@lru_cache(maxsize=8)
def _assemble_cached(spec: "ProblemSpec") -> tuple[ConeConstants, ...]:
    quad_cfg, opt_cfg = spec.quad, spec.opt
    out = []
    for i, comp in enumerate(spec.components, start=1):
        kd = comp.kernel
        w = comp.window
        records: dict[str, ConstantRecord] = {}
        declared = comp.declared

        def put(key, rule, symbol, computed, **condition):
            # each record reads the constant declared under its own key
            records[key] = rule(symbol, computed, declared.get(key), **condition)

        put("c_tilde", _overridable, f"c~_{i}",
            c_tilde(kd, w, comp.envelope, opt_cfg=opt_cfg), condition="C2")
        for j, term in enumerate(comp.gammas):
            ij = f"{i},{j + 1}"
            cg, gsup = gamma_c(term.gamma.gamma, w, opt_cfg)
            put(f"c_gamma[{j}]", _overridable, f"c_{{{ij}}}", cg, condition="C5")
            put(f"gamma_sup[{j}]", _informational, f"||gamma_{{{ij}}}||_inf", gsup)
            dsup, _ = sup_abs_1d(lambda t: eval_scalar(term.gamma.dgamma, {"t": t}),
                                 Window(0.0, 1.0), opt_cfg)
            put(f"dgamma_sup[{j}]", _informational, f"||gamma_{{{ij}}}'||_inf", dsup)

        if comp.envelope.declared_phi1 is not None:
            _validate_phi1(kd, comp.envelope.declared_phi1, i)

        m0 = recip_m(kd, 0, quad_cfg, opt_cfg)
        m1 = recip_m(kd, 1, quad_cfg, opt_cfg)
        mm = recip_M(kd, w, quad_cfg, opt_cfg)
        put("recip_m0", _informational, f"1/m_{{{i},0}}", m0)
        put("recip_m1", _informational, f"1/m_{{{i},1}}", m1)
        put("recip_M", _informational, f"1/M_{i}", mm)

        # c_i is the least of c~_i and the c_{i,j}, the records keyed c_*
        c_used = min(rec.used for key, rec in records.items() if key.startswith("c_"))
        records["c"] = ConstantRecord(f"c_{i}", c_used, None, c_used)

        # for t in [a, b], int_0^1 |k| ds >= int_a^b |k| ds >= int_a^b k ds,
        # so 1/m_0 >= 1/M holds whatever the kernel's sign
        if m0 < mm - 1e-9:
            raise ModelViolationError(
                "C2", f"component {i}: 1/m_0 = {m0:.12g} < 1/M = {mm:.12g}; "
                "the computed constants are inconsistent")

        out.append(ConeConstants(window=w, records=records))
    return tuple(out)


def _validate_phi1(kd: KernelDef, phi1, comp_index: int) -> None:
    """A declared dk-majorant must dominate |dk/dt| on a dense grid (C3);
    the band around the moving jump s = t is not excluded because both
    one-sided values stay below any valid majorant."""
    ss = _grid_with(kd.fixed_breakpoints, 0.0, 1.0, 401)
    dk_max = _kernel_columns(eval_dk, kd.dk_dt, kd, _monotone_in(kd.dk_dt, "t"),
                             np.linspace(0.0, 1.0, 402), ss, np.maximum, absolute=True)
    phi = _shaped(eval_scalar(phi1, {"s": ss}), ss.shape)
    # x -> fl(x - phi) is nondecreasing: the largest gap sits at the column max
    gap = (dk_max - phi).max()
    if gap > 1e-9:
        raise ModelViolationError(
            "C3", f"component {comp_index}: declared Phi1 is exceeded by "
                  f"|dk/dt| by {gap:.3e}")


def constants_report(spec: "ProblemSpec", cc: Sequence[ConeConstants]) -> dict:
    """JSON-ready report listing every constant with computed value, declared
    value, the value certificates will use, and discrepancy flags; the grid
    resolution is that of ``spec.opt``."""
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
        "grid_resolution": 1.0 / spec.opt.coarse_grid,
        "notes": [RECIP_M_READING_NOTE],
        "components": components,
        "discrepancies": flags,
    }
