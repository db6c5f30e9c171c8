import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hammcert import QuadConfig, QuadratureError, integrate
from hammcert.kernels import eval_k, kernel_from_catalog
from hammcert import quad
from hammcert.quad import _panels, first_pass_layout, gauss_rule, integrate_panels


def _row_edges(rows, lo, hi, r, a):
    """Panel edges of row r of ``_panels``' result ([a] for no panels)."""
    sel = rows == r
    return np.append(lo[sel], hi[sel][-1:]) if sel.any() else np.array([a], dtype=float)


def _edges(a, b, breakpoints):
    """Panel edges of one integrand over [a, b] by integrate's edge rule."""
    panels = _panels(a, b, np.asarray(breakpoints, dtype=float).reshape(1, -1))
    return _row_edges(*panels, 0, a)


def test_defaults():
    cfg = QuadConfig()
    assert cfg.gauss_order == 8
    assert cfg.rel_tol == 1e-10
    assert cfg.abs_tol == 1e-12
    assert cfg.max_subdivisions == 20


def test_weights_sum_exactly():
    for order in (2, 4, 8, 12, 16):
        _, w = gauss_rule(order)
        assert w.sum() == 2.0


def test_linear_monomial():
    assert integrate(lambda s: s, 0.0, 1.0) == pytest.approx(0.5, abs=1e-15)


def test_kink_split_exact():
    val = integrate(lambda s: np.maximum(0.5 - s, 0.0), 0.0, 1.0, [0.5])
    assert val == pytest.approx(0.125, abs=1e-14)


def test_k1_row_integral():
    # integral over s of k1(0, s) = 1/4 + 1/8
    k1 = kernel_from_catalog("example-k1")
    val = integrate(lambda s: eval_k(k1, 0.0, s), 0.0, 1.0, [0.5])
    assert val == pytest.approx(0.375, abs=1e-13)


def test_polynomial_exactness_single_panel():
    # exact for degree <= 2*order - 1 on one panel
    rng = np.random.default_rng(11)
    cfg = QuadConfig()
    for _ in range(20):
        coeffs = rng.uniform(-1, 1, 2 * cfg.gauss_order)  # degree 15
        exact = sum(c / (k + 1) for k, c in enumerate(coeffs))
        got = integrate(lambda s: np.polyval(coeffs[::-1], s), 0.0, 1.0, cfg=cfg)
        assert got == pytest.approx(exact, abs=1e-13)


def test_additivity():
    # integrate(f, 0, 1) == integrate(f, 0, c) + integrate(f, c, 1)
    rng = np.random.default_rng(3)
    for _ in range(100):
        a, b, k = rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(1, 9)
        f = lambda s: a * np.sin(k * s) + b * np.exp(-s) + s * s
        c = rng.uniform(0.05, 0.95)
        whole = integrate(f, 0.0, 1.0)
        parts = integrate(f, 0.0, c) + integrate(f, c, 1.0)
        assert whole == pytest.approx(parts, abs=1e-12)


def test_empty_and_invalid_interval():
    assert integrate(lambda s: s, 0.3, 0.3) == 0.0
    with pytest.raises(ValueError):
        integrate(lambda s: s, 1.0, 0.0)


def test_nan_rejected():
    with pytest.raises(QuadratureError, match="NaN"):
        integrate(lambda s: np.where(s > 0.5, np.nan, 1.0), 0.0, 1.0)


def test_infinite_value_rejected():
    # NaN is named first where both occur
    with pytest.raises(QuadratureError, match="infinite value near x=array"):
        integrate(lambda s: np.where(s > 0.5, np.inf, 1.0), 0.0, 1.0)
    with pytest.raises(QuadratureError, match="NaN"):
        integrate(lambda s: np.where(s > 0.5, np.inf, np.nan), 0.0, 1.0)


def test_nonconvergence_reported():
    # |s - pi/6| ^ 0.01 has an unsplittable kink; force a hopeless tolerance
    cfg = QuadConfig(rel_tol=1e-15, abs_tol=1e-300, max_subdivisions=6)
    with pytest.raises(QuadratureError, match="no convergence"):
        integrate(lambda s: np.abs(s - np.pi / 6) ** 0.01, 0.0, 1.0, cfg=cfg)


def test_composite_rule_matches_integrate():
    # the whole-panel part of the layout is the composite Gauss rule; panels
    # refine every kink of k1(0.25, .), so the fixed rule is exact
    k1 = kernel_from_catalog("example-k1")
    fp = first_pass_layout(0.0, 1.0, [0.25, 0.5, 0.75], 8)
    pts, wts = fp.whole_points.ravel(), fp.whole_weights.ravel()
    assert pts.size == 4 * 8
    val = float(np.dot(wts, eval_k(k1, 0.25, pts)))
    ref = integrate(lambda s: eval_k(k1, 0.25, s), 0.0, 1.0, [0.25, 0.5])
    assert val == pytest.approx(ref, abs=1e-14)


def test_config_validation():
    with pytest.raises(ValueError):
        QuadConfig(gauss_order=1)
    with pytest.raises(ValueError):
        QuadConfig(rel_tol=0.0)
    # nan <= 0 is false; the parent accepted it, and integrate then reported
    # no convergence with an estimate gap of 0
    with pytest.raises(ValueError, match="^tolerances must be positive$"):
        QuadConfig(rel_tol=math.nan)
    # the parent accepted 0 and -1, and integrated as with 1
    for bad in (0, -1):
        with pytest.raises(ValueError, match="^max_subdivisions must be >= 1$"):
            QuadConfig(max_subdivisions=bad)


def test_breakpoints_outside_interval_ignored():
    got = integrate(lambda s: s, 0.2, 0.8, [0.0, 0.1, 0.9, 1.0])
    assert got == pytest.approx((0.8 ** 2 - 0.2 ** 2) / 2, abs=1e-14)


# --------------------------------------------------------------------------
# level-by-level adaptivity against a depth-first recursive reference

def _ref_estimates(f, lo, hi, order):
    x, w = gauss_rule(order)
    half = (hi - lo)[:, None] / 2.0
    mid = (hi + lo)[:, None] / 2.0
    return np.sum(np.broadcast_to(f(mid + half * x), half.shape[:1] + x.shape)
                  * (half * w), axis=1)


def _ref_adapt(f, lo, hi, whole, cfg, depth):
    mid = (lo + hi) / 2.0
    halves = _ref_estimates(f, np.array([lo, mid]), np.array([mid, hi]), cfg.gauss_order)
    fine = float(halves[0] + halves[1])
    if abs(fine - whole) <= max(cfg.rel_tol * abs(fine), cfg.abs_tol):
        return fine
    if depth >= cfg.max_subdivisions:
        raise QuadratureError("no convergence")
    return (_ref_adapt(f, lo, mid, float(halves[0]), cfg, depth + 1)
            + _ref_adapt(f, mid, hi, float(halves[1]), cfg, depth + 1))


def ref_integrate(f, a, b, breakpoints, cfg):
    """Depth-first recursive bisection with the same two-rule test."""
    edges = _edges(a, b, breakpoints)
    lo, hi = edges[:-1], edges[1:]
    mid = (lo + hi) / 2.0
    coarse = _ref_estimates(f, lo, hi, cfg.gauss_order)
    left = _ref_estimates(f, lo, mid, cfg.gauss_order)
    right = _ref_estimates(f, mid, hi, cfg.gauss_order)
    fine = left + right
    ok = np.abs(fine - coarse) <= np.maximum(cfg.rel_tol * np.abs(fine), cfg.abs_tol)
    total = float(np.sum(fine[ok]))
    for j in np.nonzero(~ok)[0]:
        total += _ref_adapt(f, lo[j], mid[j], float(left[j]), cfg, 1)
        total += _ref_adapt(f, mid[j], hi[j], float(right[j]), cfg, 1)
    return total


ROUGH = [
    lambda s: np.abs(s - 1 / 3) ** 0.5,
    lambda s: np.sin(40 * s) * np.exp(s),
    lambda s: 1 / (1e-3 + (s - 0.4) ** 2),
    lambda s: np.abs(np.sin(7 * s)),
]


@pytest.mark.parametrize("f", ROUGH)
def test_adaptivity_matches_recursive_reference(f):
    rng = np.random.default_rng(5)
    cfg = QuadConfig(rel_tol=1e-12, abs_tol=1e-14, max_subdivisions=40)
    for _ in range(10):
        a, b = sorted(rng.uniform(0, 1, 2))
        bps = list(rng.uniform(0, 1, rng.integers(0, 12)))
        assert integrate(f, a, b, bps, cfg) == ref_integrate(f, a, b, bps, cfg)


def test_panels_rows_match_one_row_integrals():
    # rows of different panel counts, some adaptive: every row's result is
    # bit-identical to integrating it alone
    rng = np.random.default_rng(9)
    shifts = rng.uniform(0.1, 0.9, 12)
    edges = [_edges(0.0, 1.0, rng.uniform(0, 1, rng.integers(0, 14))) for _ in shifts]
    rows = np.concatenate([np.full(e.size - 1, r) for r, e in enumerate(edges)])
    lo = np.concatenate([e[:-1] for e in edges])
    hi = np.concatenate([e[1:] for e in edges])
    f = lambda r, s: np.abs(s - shifts[r]) ** 1.5
    got = integrate_panels(f, rows, lo, hi, shifts.size)
    for r, e in enumerate(edges):
        assert got[r] == integrate(lambda s: f(r, s), 0.0, 1.0, e[1:-1])


def _outcome(fn, *args):
    try:
        return "value", fn(*args).hex()
    except QuadratureError as err:
        return "error", str(err)


def _one_row(f, a, b, breakpoints, cfg):
    """integrate_panels of f alone, over integrate's panels of [a, b]."""
    rows, lo, hi = _panels(a, b, np.asarray(breakpoints, dtype=float).reshape(1, -1))
    return integrate_panels(lambda _, x: f(x), rows, lo, hi, 1, cfg)[0]


@pytest.mark.parametrize("f", ROUGH + [lambda s: np.abs(s - 1 / 3), lambda s: 2.0])
def test_first_pass_matches_integrate(f):
    # integrate evaluates f on the layout's own arrays, the whole panels and
    # then the halves; only failing panels bisect, on fresh points
    cfg = QuadConfig()
    for bps in (np.linspace(0.0, 1.0, 129)[1:-1], np.arange(1, 17) / 17, ()):
        fp = first_pass_layout(0.0, 1.0, bps, cfg.gauss_order)
        seen = []
        got = _outcome(integrate, lambda s: seen.append(s) or f(s), 0.0, 1.0, bps, cfg)
        assert seen[0] is fp.whole_points and seen[1] is fp.half_points
        assert not any(s is fp.whole_points or s is fp.half_points for s in seen[2:])
        assert got == _outcome(_one_row, f, 0.0, 1.0, bps, cfg)


def test_first_pass_layout_is_kept_and_bounded():
    layouts = quad._first_pass_layout
    layouts.cache_clear()
    nodes = np.linspace(0.0, 1.0, 129)[1:-1]
    fp = first_pass_layout(0.0, 1.0, nodes, 8)
    assert first_pass_layout(0, 1, list(nodes), 8) is fp
    assert first_pass_layout(0.0, 1.0, nodes, 4) is not fp
    assert first_pass_layout(0.0, 0.5, nodes, 8) is not fp
    # kept by bytes: -0.0 == 0.0, but a layout from -0.0 starts at -0.0
    assert first_pass_layout(-0.0, 1.0, nodes, 8).lo[0].hex() == "-0x0.0p+0"
    assert not any(array.flags.writeable for array in fp)
    assert fp.whole_points.shape == fp.whole_weights.shape == (128, 8)
    assert fp.half_points.shape == fp.half_weights.shape == (256, 8)
    # left halves first, then right halves
    assert np.all(fp.half_points[:128] < fp.mid[:, None])
    assert np.all(fp.half_points[128:] > fp.mid[:, None])
    assert layouts.cache_info().maxsize == 8
    for k in range(3, 3 + 8):
        first_pass_layout(0.0, 1.0, np.linspace(0.0, 1.0, k)[1:-1], 8)
    assert layouts.cache_info().currsize == 8


def _ref_edges(a, b, breakpoints):
    """integrate's edge rule for one row, written out: the reference for
    the row-wise ``_panels``."""
    bps = np.asarray(breakpoints, dtype=float)
    inner = bps[(a < bps) & (bps < b)]
    edges = np.concatenate(([a], np.sort(inner), [b]))
    return edges[np.concatenate(([True], np.diff(edges) > 1e-15))]


def _breakpoints(a, b):
    """Breakpoint lists with points outside [a, b], a and b themselves, and
    near-duplicates within a few 1e-16 of each other."""
    base = st.floats(-0.5, 1.5) | st.sampled_from([a, b, (a + b) / 2])
    near = st.tuples(base, st.floats(-4e-15, 4e-15)).map(lambda p: [p[0], p[0] + p[1]])
    return st.lists(base.map(lambda x: [x]) | near, max_size=8).map(
        lambda parts: [x for part in parts for x in part])


@st.composite
def _interval_and_breakpoints(draw):
    a, b = sorted(draw(st.tuples(st.floats(0, 1), st.floats(0, 1))))
    if draw(st.booleans()):
        b = min(1.0, a + draw(st.sampled_from([1e-16, 1e-15, 2e-15, 1e-12])))
    rows = draw(st.lists(_breakpoints(a, b), min_size=1, max_size=4))
    width = max(map(len, rows))
    # one row per list, padded with points outside [a, b]
    return a, b, np.array([r + [2.0] * (width - len(r)) for r in rows])


@settings(max_examples=300, deadline=None, database=None)
@given(_interval_and_breakpoints())
def test_row_edge_rule_matches_the_one_row_rule(case):
    a, b, points = case
    panels = _panels(a, b, points)
    for r, row in enumerate(points):
        got = _row_edges(*panels, r, a)
        assert got.tobytes() == _ref_edges(a, b, row).astype(float).tobytes()


INTEGRANDS = [
    lambda s: np.exp(-3 * s) * np.cos(5 * s),
    lambda s: s ** 7 - 2 * s,
    lambda s: np.abs(s - 0.3),
    lambda s: np.abs(s - 1 / 3) ** 0.5,
    lambda s: np.sin(40 * s) * np.exp(s),
    lambda s: 1 / (1e-4 + (s - 0.4) ** 2),
    lambda s: np.where(s > 0.7, np.nan, s),
    lambda s: 1.5,
]


@settings(max_examples=300, deadline=None, database=None)
@given(_interval_and_breakpoints(), st.sampled_from(range(len(INTEGRANDS))),
       st.sampled_from([QuadConfig(), QuadConfig(gauss_order=3, max_subdivisions=5),
                        QuadConfig(rel_tol=1e-14, abs_tol=1e-16, max_subdivisions=8)]))
def test_integrate_matches_one_row_of_integrate_panels(case, k, cfg):
    # integrate's first pass runs on the cached layout, integrate_panels'
    # on points it builds per call: the two must give the same double or
    # raise the same QuadratureError
    a, b, points = case
    f = INTEGRANDS[k]
    with np.errstate(all="ignore"):
        assert _outcome(integrate, f, a, b, points[0], cfg) == \
            _outcome(_one_row, f, a, b, points[0], cfg)
