import dataclasses
import functools
import itertools
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import hammcert as hc
import hammcert.constants as constants_mod
from hammcert import (ConfigError, ModelViolationError, QuadConfig,
                      QuadratureError, Window, c_tilde, gamma_c, recip_M,
                      recip_m, sup_abs_1d)
from hammcert.constants import Opt1DConfig, extremum_1d, integrate_over_s
from hammcert.expr import (BOUNDARY_CONTEXT, ENVELOPE_CONTEXT, KERNEL_CONTEXT,
                           Bin, Num, Var, parse_expr)
from hammcert.kernels import (EnvelopeSpec, KernelDef, eval_dk, eval_k,
                              kernel_from_catalog, s_breakpoints)
from conftest import FAST_OPT, single_component_spec

K1 = kernel_from_catalog("example-k1")
K2 = kernel_from_catalog("example-k2")
G11 = parse_expr("3/4 - t", BOUNDARY_CONTEXT)
G21 = parse_expr("9/10 - t", BOUNDARY_CONTEXT)
PHI1 = EnvelopeSpec("declared", parse_expr("3/4", ENVELOPE_CONTEXT))
PHI2 = EnvelopeSpec("declared", parse_expr("1 - s", ENVELOPE_CONTEXT))


def _sign_roots(fn, a: float, b: float) -> list[float]:
    """Sorted roots of fn in (a, b), by the rule of ``_panel_sign_roots``."""
    _, roots = constants_mod._panel_sign_roots(
        lambda _, x: fn(x), np.zeros(1, dtype=np.intp), np.array([a], dtype=float),
        np.array([b], dtype=float))
    return sorted(float(x) for x in roots)


# --------------------------------------------------------------------------
# independent brute-force oracles (dense grid + trapezoid), hand-coded k2

def k2_formula(t, s):
    return 0.8 * (1 - s) + 0.2 * np.maximum(0.5 - s, 0) - np.maximum(t - s, 0)


# each oracle is computed once per session and shared with criterion 2
@functools.cache
def brute_recip_m20(nt=10_000, ns=10_000):
    ts = np.linspace(0, 1, nt)
    ss = np.linspace(0, 1, ns + 1)
    best = -np.inf
    for lo in range(0, nt, 250):
        T, S = np.meshgrid(ts[lo:lo + 250], ss, indexing="ij")
        vals = np.trapezoid(np.abs(k2_formula(T, S)), ss, axis=1)
        best = max(best, float(vals.max()))
    return best


@functools.cache
def brute_recip_M2(nt=10_000, ns=10_000):
    ts = np.linspace(0, 0.5, nt)
    ss = np.linspace(0, 0.5, ns + 1)
    worst = np.inf
    for lo in range(0, nt, 250):
        T, S = np.meshgrid(ts[lo:lo + 250], ss, indexing="ij")
        vals = np.trapezoid(k2_formula(T, S), ss, axis=1)
        worst = min(worst, float(vals.min()))
    return worst


class TestSupAbs:
    def test_gamma11_sup(self):
        val, arg = sup_abs_1d(lambda t: hc.eval_scalar(G11, {"t": t}),
                              Window(0, 1))
        assert val == pytest.approx(0.75, abs=1e-12)
        assert arg == pytest.approx(0.0, abs=1e-9)

    def test_gamma21_sup(self):
        val, arg = sup_abs_1d(lambda t: hc.eval_scalar(G21, {"t": t}),
                              Window(0, 1))
        assert val == pytest.approx(0.9, abs=1e-12)
        assert arg == pytest.approx(0.0, abs=1e-9)

    def test_constant_function(self):
        val, _ = sup_abs_1d(lambda t: 1.0, Window(0, 1), FAST_OPT)
        assert val == 1.0

    def test_interior_maximum_refined(self):
        # grid alone cannot hit the argmax of t(1-t); golden refinement must
        val, arg, _ = extremum_1d(lambda t: t * (1 - t), 0.0, 1.0,
                                  Opt1DConfig(coarse_grid=100), mode="max")
        assert val == pytest.approx(0.25, abs=1e-12)
        assert arg == pytest.approx(0.5, abs=1e-6)


class TestRecipM:
    def test_k1_order0(self):
        assert recip_m(K1, 0) == pytest.approx(0.375, abs=1e-6)

    def test_k1_order1(self):
        assert recip_m(K1, 1) == pytest.approx(1.0, abs=1e-9)

    def test_k2_order1(self):
        assert recip_m(K2, 1) == pytest.approx(1.0, abs=1e-9)

    def test_k2_order0_matches_brute_force(self):
        # the tool must agree with an independent oracle regardless of any
        # declared value; hand derivation gives 17/40 (max of 17/40 - t^2/2)
        got = recip_m(K2, 0)
        oracle = brute_recip_m20()
        assert got == pytest.approx(oracle, abs=1e-4)
        assert got == pytest.approx(17 / 40, abs=1e-6)

    def test_recip_M_k1(self):
        assert recip_M(K1, Window(0, 0.375)) == pytest.approx(9 / 64, abs=1e-6)

    def test_recip_M_k2_matches_brute_force(self):
        got = recip_M(K2, Window(0, 0.5))
        oracle = brute_recip_M2()
        assert got == pytest.approx(oracle, abs=1e-4)
        assert got == pytest.approx(0.2, abs=1e-6)

    def test_recip_M_constant_kernel(self):
        one = parse_expr("1", KERNEL_CONTEXT)
        kd = KernelDef(one, parse_expr("0*t", KERNEL_CONTEXT), (), False)
        assert recip_M(kd, Window(0, 1), opt_cfg=FAST_OPT) == pytest.approx(1.0, abs=1e-12)

    def test_order_validated(self):
        with pytest.raises(ValueError):
            recip_m(K1, 2)

    def test_interior_supremum_refined(self):
        # sup of the s-integral sits at t = 1/pi, off every grid point, so
        # only the golden-section refinement reaches the exact value 1
        k = parse_expr(f"1 - (t - {1/np.pi})^2", KERNEL_CONTEXT)
        dk = parse_expr(f"-2*(t - {1/np.pi})", KERNEL_CONTEXT)
        kd = KernelDef(k, dk, (), False)
        assert recip_m(kd, 0) == pytest.approx(1.0, abs=1e-10)

    def test_interior_infimum_refined(self):
        k = parse_expr(f"1/2 + (t - {1/np.pi})^2", KERNEL_CONTEXT)
        dk = parse_expr(f"2*(t - {1/np.pi})", KERNEL_CONTEXT)
        kd = KernelDef(k, dk, (), False)
        # integral over the window [1/4, 3/4] is (1/2 + (t-1/pi)^2)/2,
        # minimal at the interior point t = 1/pi with value 1/4
        assert recip_M(kd, Window(0.25, 0.75)) == pytest.approx(0.25, abs=1e-10)

    def test_sign_roots_ignore_flat_stretches(self):
        # dk = -step(t-s) vanishes identically for s > t; no spurious splits
        from hammcert.kernels import eval_dk
        fn = lambda s: np.asarray(eval_dk(K1, 0.3, s), dtype=float)
        assert _sign_roots(fn, 0.0, 1.0) == []


class TestCTilde:
    def test_k1_declared(self):
        assert c_tilde(K1, Window(0, 0.375), PHI1) == pytest.approx(1 / 3, abs=1e-6)

    def test_k2_declared(self):
        assert c_tilde(K2, Window(0, 0.5), PHI2) == pytest.approx(0.4, abs=1e-3)

    def test_k1_tight(self):
        assert c_tilde(K1, Window(0, 0.375), EnvelopeSpec("tight")) == \
            pytest.approx(0.5, abs=1e-6)

    def test_constant_kernel_tight(self):
        one = parse_expr("1", KERNEL_CONTEXT)
        kd = KernelDef(one, parse_expr("0*t", KERNEL_CONTEXT), (), False)
        assert c_tilde(kd, Window(0.2, 0.7), EnvelopeSpec("tight"),
                       opt_cfg=FAST_OPT) == pytest.approx(1.0, abs=1e-12)

    def test_window_positivity_failure(self):
        # k1 goes negative for t beyond 3/4, so a window reaching 1 fails C2
        with pytest.raises(ModelViolationError, match="C2"):
            c_tilde(K1, Window(0, 1.0), PHI1, opt_cfg=FAST_OPT)

    def test_declared_envelope_must_majorize(self):
        small = EnvelopeSpec("declared", parse_expr("1/10", ENVELOPE_CONTEXT))
        with pytest.raises(ModelViolationError, match="envelope violated"):
            c_tilde(K1, Window(0, 0.375), small, opt_cfg=FAST_OPT)


class TestGammaC:
    def test_gamma21(self):
        assert gamma_c(G21, Window(0, 0.5)) == pytest.approx(4 / 9, abs=1e-9)

    def test_gamma11_tight_exceeds_declared(self):
        # tight value is 1/2; the bundled config conservatively declares 1/3
        assert gamma_c(G11, Window(0, 0.375)) == pytest.approx(0.5, abs=1e-9)

    def test_constant_gamma(self):
        one = parse_expr("1", BOUNDARY_CONTEXT)
        assert gamma_c(one, Window(0.1, 0.9), FAST_OPT) == 1.0

    def test_sign_failure(self):
        neg = parse_expr("t - 1/2", BOUNDARY_CONTEXT)
        with pytest.raises(ModelViolationError, match="C5"):
            gamma_c(neg, Window(0, 0.375), FAST_OPT)


class TestAssembly:
    def test_example_constants(self, example_spec, example_cc):
        c1, c2 = example_cc
        assert c1.c == pytest.approx(1 / 3, abs=1e-9)
        assert c1.record("c_tilde").used == pytest.approx(1 / 3, abs=1e-6)
        # declared override
        assert c1.record("c_gamma[0]").used == pytest.approx(1 / 3, abs=1e-12)
        assert c2.c == pytest.approx(0.4, abs=1e-9)
        assert c2.record("c_gamma[0]").used == pytest.approx(4 / 9, abs=1e-9)
        assert c1.record("recip_m0").used == pytest.approx(0.375, abs=1e-6)
        assert c1.record("recip_M").used == pytest.approx(9 / 64, abs=1e-6)
        assert c2.record("recip_m0").used == pytest.approx(17 / 40, abs=1e-6)
        assert c2.record("recip_M").used == pytest.approx(0.2, abs=1e-6)

    def test_each_constant_is_kept_once_as_its_record(self, example_cc):
        assert [f.name for f in dataclasses.fields(hc.ConeConstants)] == \
            ["window", "records"]
        for cci in example_cc:
            assert cci.c == cci.record("c").used
            assert cci.c == min(rec.used for key, rec in cci.records.items()
                                if key == "c_tilde" or key.startswith("c_gamma["))

    def test_discrepancy_flags_for_printed_values(self, example_cc):
        # the bundled config declares 21/40 and 2/5; both must be flagged and
        # never substituted
        rec_m = example_cc[1].record("recip_m0")
        assert rec_m.declared == pytest.approx(21 / 40)
        assert rec_m.used == rec_m.computed
        assert "declared-differs-from-computed" in rec_m.flags
        rec_M = example_cc[1].record("recip_M")
        assert rec_M.declared == pytest.approx(0.4)
        assert "declared-differs-from-computed" in rec_M.flags
        assert rec_M.used == rec_M.computed

    def test_consistent_declarations_not_flagged(self, example_cc):
        assert example_cc[0].record("recip_m0").flags == ()
        assert example_cc[0].record("recip_M").flags == ()
        assert example_cc[0].record("gamma_sup[0]").flags == ()

    def test_tight_mode_component1(self):
        spec = single_component_spec(
            "example-k1", window=(0, 0.375), envelope="tight",
            gammas=[{"gamma": "example-gamma11", "eta": 0.1,
                     "h": "der(1,0.5)^2"}])
        cc = hc.assemble_cone_constants(spec)
        assert cc[0].record("c_tilde").used == pytest.approx(0.5, abs=1e-6)
        assert cc[0].record("c_gamma[0]").used == pytest.approx(0.5, abs=1e-9)
        assert cc[0].c == pytest.approx(0.5, abs=1e-6)

    def test_all_ones_problem(self):
        spec = single_component_spec(
            kernel={"k": "1", "dk_dt": "0*t", "breakpoints": [],
                    "moving_breakpoint": False},
            window=(0, 1),
            gammas=[{"gamma": "1", "dgamma": "0*t", "eta": 1.0, "h": "val(1,0)"}])
        cc = hc.assemble_cone_constants(spec, opt_cfg=FAST_OPT)
        assert cc[0].record("c_tilde").used == pytest.approx(1.0, abs=1e-12)
        assert cc[0].record("c_gamma[0]").used == pytest.approx(1.0, abs=1e-12)
        assert cc[0].c == pytest.approx(1.0, abs=1e-12)

    def test_override_must_add_slack(self):
        spec = single_component_spec(
            "example-k1", window=(0, 0.375), envelope={"phi0": "3/4"},
            gammas=[{"gamma": "example-gamma11", "eta": 0.1,
                     "h": "der(1,0.5)^2"}])
        doc_comp = {
            "kernel": "example-k1", "window": [0, 0.375], "lambda": 1.0,
            "f": "1", "w": "1", "envelope": {"phi0": "3/4"},
            "gammas": [{"gamma": "example-gamma11", "eta": 0.1, "h": "der(1,0.5)^2"}],
            "declared": {"c_tilde": 0.9},
        }
        bad = hc.spec_from_dict({"n": 1, "components": [doc_comp]})
        with pytest.raises(ConfigError, match="exceeds the computed"):
            hc.assemble_cone_constants(bad, opt_cfg=FAST_OPT)

    def test_declared_phi1_validated(self):
        doc_comp = {
            "kernel": "example-k1", "window": [0, 0.375], "lambda": 1.0,
            "f": "1", "w": "1",
            "envelope": {"phi0": "3/4", "phi1": "1/2"},  # |dk| reaches 1
            "gammas": [],
        }
        bad = hc.spec_from_dict({"n": 1, "components": [doc_comp]})
        with pytest.raises(ModelViolationError, match="Phi1"):
            hc.assemble_cone_constants(bad, opt_cfg=FAST_OPT)
        doc_comp["envelope"]["phi1"] = "1"
        good = hc.spec_from_dict({"n": 1, "components": [doc_comp]})
        hc.assemble_cone_constants(good, opt_cfg=FAST_OPT)

    def test_report_shape(self, example_spec, example_cc):
        rep = hc.constants_report(example_spec, example_cc)
        assert len(rep["components"]) == 2
        flagged = {(f["component"], f["constant"]) for f in rep["discrepancies"]}
        assert (2, "recip_m0") in flagged and (2, "recip_M") in flagged
        assert rep["notes"]

    def test_records_are_read_only(self, example_cc):
        # every caller of assemble_cone_constants shares the cached records
        c = example_cc[0].c
        with pytest.raises(TypeError):
            example_cc[0].records["c"] = constants_mod.ConstantRecord("c_1", 5.0, None, 5.0)
        with pytest.raises(TypeError):
            del example_cc[0].records["c"]
        again = hc.assemble_cone_constants(hc.load_config(hc.example_config_path()))
        assert again[0].c == c == pytest.approx(1 / 3, abs=1e-9)


class TestProperties:
    def scaled(self, kd, lam):
        k = hc.expr.Bin("*", hc.expr.Num(lam), kd.k)
        dk = hc.expr.Bin("*", hc.expr.Num(lam), kd.dk_dt)
        return KernelDef(k, dk, kd.fixed_breakpoints, kd.moving_breakpoint)

    def test_scaling(self):
        lam = 2.5
        k1s = self.scaled(K1, lam)
        assert recip_m(k1s, 0, opt_cfg=FAST_OPT) == pytest.approx(
            lam * recip_m(K1, 0, opt_cfg=FAST_OPT), abs=1e-9)
        assert recip_M(k1s, Window(0, 0.375), opt_cfg=FAST_OPT) == pytest.approx(
            lam * recip_M(K1, Window(0, 0.375), opt_cfg=FAST_OPT), abs=1e-9)
        a = c_tilde(k1s, Window(0, 0.375), EnvelopeSpec("tight"), opt_cfg=FAST_OPT)
        b = c_tilde(K1, Window(0, 0.375), EnvelopeSpec("tight"), opt_cfg=FAST_OPT)
        assert a == pytest.approx(b, abs=1e-9)

    @pytest.mark.parametrize("kd,windows", [
        (K1, [(0, 0.25), (0, 0.375), (0, 0.5)]),
        (K2, [(0, 0.25), (0, 0.4), (0, 0.5)]),
    ])
    def test_window_monotonicity(self, kd, windows):
        vals = [c_tilde(kd, Window(*w), EnvelopeSpec("tight"), opt_cfg=FAST_OPT)
                for w in windows]
        for small, large in zip(vals[:-1], vals[1:]):
            assert large <= small + 1e-9

    def test_recip_m_dominates_signed_integral(self):
        # triangle inequality on 50 random piecewise-linear kernels
        rng = np.random.default_rng(17)
        opt = Opt1DConfig(coarse_grid=128)
        for trial in range(50):
            a, b, c, d, e = rng.uniform(-1, 1, 5)
            alpha = rng.uniform(0.1, 0.9)
            k = parse_expr(
                f"{a} + {b}*s + {c}*t + {d}*pos({alpha} - s) + {e}*pos(t - s)",
                KERNEL_CONTEXT)
            dk = parse_expr(f"{c} + {e}*step(t - s)", KERNEL_CONTEXT)
            kd = KernelDef(k, dk, (alpha,), True)
            val = recip_m(kd, 0, opt_cfg=opt)
            signed = max(
                abs(hc.integrate(lambda s, t=t: hc.eval_k(kd, t, s), 0.0, 1.0,
                                 [alpha, t]))
                for t in np.linspace(0, 1, 41))
            assert val >= signed - 1e-9, (trial, val, signed)


# --------------------------------------------------------------------------
# the batched s-integrals against the per-t scan they replaced

def ref_sign_roots(fn, a, b, coarse=256):
    """Per-interval sign-root scan: coarse grid, exact zeros that straddle,
    48 bisections of every strict sign change."""
    xs = np.linspace(a, b, coarse + 1)
    v = np.broadcast_to(np.asarray(fn(xs), dtype=float), xs.shape)
    roots = [float(x) for x, val, left, right
             in zip(xs[1:-1], v[1:-1], v[:-2], v[2:])
             if val == 0.0 and left * right < 0.0]
    idx = np.nonzero(v[:-1] * v[1:] < 0.0)[0]
    if idx.size:
        lo, hi = xs[idx].copy(), xs[idx + 1].copy()
        flo = v[idx].copy()
        for _ in range(48):
            mid = 0.5 * (lo + hi)
            fm = np.broadcast_to(np.asarray(fn(mid), dtype=float), mid.shape)
            left = flo * fm <= 0.0
            hi = np.where(left, mid, hi)
            lo = np.where(left, lo, mid)
            flo = np.where(left, flo, fm)
        roots.extend(float(x) for x in 0.5 * (lo + hi))
    return sorted(roots)


def ref_abs_integral_over_s(kd, t, order, quad_cfg):
    """Integral over s in [0,1] of |k| (order 0) or |dk/dt| (order 1) at
    one t, split at the breakpoints and at the sign roots of each panel."""
    evalf = eval_k if order == 0 else eval_dk
    fn = lambda s: evalf(kd, t, s)
    bps = s_breakpoints(kd, t)
    splits = list(bps)
    edges = [0.0] + bps + [1.0]
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi - lo > 1e-12:
            splits.extend(ref_sign_roots(fn, lo, hi))
    return hc.integrate(lambda s: np.abs(np.asarray(fn(s), dtype=float)),
                        0.0, 1.0, sorted(splits), quad_cfg)


def ref_signed_integral(kd, t, w, quad_cfg):
    """Integral over s in the window of k(t, s) at one t (the 1/M integrand)."""
    bps = [p for p in s_breakpoints(kd, t) if w.a < p < w.b]
    return hc.integrate(lambda s: eval_k(kd, t, s), w.a, w.b, bps, quad_cfg)


def _kernel(k, dk, bps=(), moving=False):
    return KernelDef(parse_expr(k, KERNEL_CONTEXT), parse_expr(dk, KERNEL_CONTEXT),
                     tuple(bps), moving)


# the two smooth kernels of the benchmark's tight configuration
TIGHT_K1 = _kernel("exp(-s)*(1/2 - t*s)", "-s*exp(-s)")
TIGHT_K2 = _kernel("exp(t - s)/4 - pos(t - s)", "exp(t - s)/4 - step(t - s)",
                   moving=True)


def random_pl_kernels(count, seed=23):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        a, b, c, d, e = rng.uniform(-1, 1, 5)
        alpha = rng.uniform(0.1, 0.9)
        out.append(_kernel(
            f"{a} + {b}*s + {c}*t + {d}*pos({alpha} - s) + {e}*pos(t - s)",
            f"{c} + {e}*step(t - s)", (alpha,), True))
    return out


ORACLE_KERNELS = [K1, K2, TIGHT_K1, TIGHT_K2] + random_pl_kernels(20)
ORACLE_IDS = ["example-k1", "example-k2", "tight-k1", "tight-k2"] + \
    [f"pl{j}" for j in range(20)]


class TestBatchedIntegrals:
    @pytest.mark.parametrize("kd", ORACLE_KERNELS, ids=ORACLE_IDS)
    def test_matches_per_t_reference(self, kd):
        cfg = QuadConfig()
        ts = np.linspace(0.0, 1.0, 33)
        for order in (0, 1):
            got = integrate_over_s(kd, ts, 0.0, 1.0, order=order, absolute=True)
            ref = [ref_abs_integral_over_s(kd, float(t), order, cfg) for t in ts]
            np.testing.assert_allclose(got, ref, rtol=1e-14, atol=0)
        for w in (Window(0.0, 0.375), Window(0.2, 0.9)):
            ts = np.linspace(w.a, w.b, 33)
            got = integrate_over_s(kd, ts, w.a, w.b)
            ref = [ref_signed_integral(kd, float(t), w, cfg) for t in ts]
            np.testing.assert_allclose(got, ref, rtol=1e-14, atol=0)

    def test_chunking_does_not_change_values(self, monkeypatch):
        ts = np.linspace(0.0, 1.0, 65)
        whole = integrate_over_s(TIGHT_K2, ts, 0.0, 1.0, absolute=True)
        monkeypatch.setattr(constants_mod, "_POINT_BUDGET", 1)  # one t per chunk
        assert np.array_equal(
            integrate_over_s(TIGHT_K2, ts, 0.0, 1.0, absolute=True), whole)

    def test_sign_root_on_a_scan_node(self):
        # an exact zero on a node counts when its neighbours straddle zero,
        # and a root found by bisection is as good as the scalar scan's
        assert _sign_roots(lambda s: s - 0.5, 0.0, 1.0) == [0.5]
        fn = lambda s: s - 1 / 3
        assert _sign_roots(fn, 0.0, 1.0) == ref_sign_roots(fn, 0.0, 1.0)

    def test_scalar_t_gives_scalar(self):
        val = integrate_over_s(K1, 0.25, 0.0, 1.0, absolute=True)
        assert np.shape(val) == ()
        assert float(val) == ref_abs_integral_over_s(K1, 0.25, 0, QuadConfig())


# --------------------------------------------------------------------------
# the tiled grid scans against the untiled scans they replaced

def ref_panel_sign_roots(fn, rows, lo, hi):
    """The untiled sign scan: every panel's grid at once, exact zeros that
    straddle, then 48 bisections of every strict sign change."""
    xs = np.linspace(lo, hi, 257, axis=-1)
    v = np.broadcast_to(np.asarray(fn(rows[:, None], xs), dtype=float), xs.shape)
    zi, zj = np.nonzero((v[:, 1:-1] == 0.0) & (v[:, :-2] * v[:, 2:] < 0.0))
    bi, bj = np.nonzero(v[:, :-1] * v[:, 1:] < 0.0)
    b_rows, b_lo, b_hi, f_lo = rows[bi], xs[bi, bj], xs[bi, bj + 1], v[bi, bj]
    for _ in range(48 if bi.size else 0):
        mid = 0.5 * (b_lo + b_hi)
        fm = np.broadcast_to(np.asarray(fn(b_rows, mid), dtype=float), mid.shape)
        left = f_lo * fm <= 0.0
        b_hi = np.where(left, mid, b_hi)
        b_lo = np.where(left, b_lo, mid)
        f_lo = np.where(left, f_lo, fm)
    return (np.concatenate((rows[zi], b_rows)),
            np.concatenate((xs[zi, zj + 1], 0.5 * (b_lo + b_hi))))


def ref_kernel_columns(evalf, kd, ts, ss, combine, absolute):
    """The whole ts x ss grid evaluated at once and reduced over t."""
    k = np.broadcast_to(np.asarray(evalf(kd, ts[:, None], ss), dtype=float),
                        (ts.size, ss.size))
    return combine.reduce(np.abs(k) if absolute else k, axis=0)


def sign_scan_panels(kd, ts):
    """(rows, lo, hi) of the panels between the s-breakpoints of each t."""
    panels = [(r, lo, hi) for r, t in enumerate(ts)
              for lo, hi in itertools.pairwise([0.0, *s_breakpoints(kd, t), 1.0])
              if hi - lo > 1e-12]
    rows, lo, hi = zip(*panels)
    return np.array(rows, dtype=np.intp), np.array(lo), np.array(hi)


# one point; exactly one sign-scan panel; one panel and a point; a prime
# (two panels); the tile in use.  A tile of n points spans isqrt(n) // 2
# t-rows (at least one) of the c~ grids, so all but the last split the
# 13-point window grid
TILES = [1, 257, 258, 521, constants_mod._TILE]


# roots on the scan nodes s = 1/4 and s = 1/2 of every row, for k and dk
NODE_ROOTS = _kernel("(s - 1/4)*(s - 1/2)*(1 + t)", "(s - 1/4)*(s - 1/2)")


class TestTiledScans:
    @pytest.mark.parametrize("kd", ORACLE_KERNELS + [NODE_ROOTS],
                             ids=ORACLE_IDS + ["node-roots"])
    def test_sign_roots_match_untiled_scan(self, kd, monkeypatch):
        ts = np.linspace(0.0, 1.0, 17)
        rows, lo, hi = sign_scan_panels(kd, ts)
        for evalf in (eval_k, eval_dk):
            fn = lambda r, s: evalf(kd, ts[r], s)
            want = ref_panel_sign_roots(fn, rows, lo, hi)
            for tile in TILES:
                monkeypatch.setattr(constants_mod, "_TILE", tile)
                got = constants_mod._panel_sign_roots(fn, rows, lo, hi)
                # the same roots of the same rows, in the same order
                assert all(np.array_equal(g, w) for g, w in zip(got, want)), tile

    def test_sign_roots_without_panels(self):
        none = np.empty(0)
        rows, roots = constants_mod._panel_sign_roots(
            lambda r, s: eval_k(K1, none[r], s), none.astype(np.intp), none, none)
        assert rows.size == roots.size == 0

    @pytest.mark.parametrize("kd", ORACLE_KERNELS, ids=ORACLE_IDS)
    def test_columns_match_untiled_grid(self, kd, monkeypatch):
        ss = constants_mod._grid_with(kd.fixed_breakpoints, 0.0, 1.0, 12)
        tw = np.linspace(0.2, 0.9, 13)
        for evalf in (eval_k, eval_dk):
            for ts, combine, absolute in ((tw, np.minimum, False),
                                          (ss, np.maximum, True)):
                want = ref_kernel_columns(evalf, kd, ts, ss, combine, absolute)
                for tile in TILES:
                    monkeypatch.setattr(constants_mod, "_TILE", tile)
                    got = constants_mod._kernel_columns(evalf, kd, ts, ss, combine,
                                                        absolute=absolute)
                    assert np.array_equal(got, want), tile

    def test_scans_hold_no_multi_mib_temporaries(self):
        # The traced allocation peak of c~_1 and 1/m_{1,0} at the default
        # resolution is 1.1 MiB with tiled scans and 8.1 MiB with the whole
        # 2^18-point scans of the t-chunks (2 MiB per float64 temporary).
        w = Window(0, 0.375)
        c_tilde(K1, w, PHI1, opt_cfg=FAST_OPT)  # compile and import untraced
        recip_m(K1, 0, opt_cfg=FAST_OPT)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            c_tilde(K1, w, PHI1)
            recip_m(K1, 0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20


# --------------------------------------------------------------------------
# golden-section probe trees against the one-probe search they replaced

def ref_golden_min(f, a, b, tol):
    """Golden-section minimization, one probe per call of f; it stops when
    the bracket is within tol or a step leaves it no narrower."""
    golden = constants_mod._GOLDEN
    c = b - golden * (b - a)
    d = a + golden * (b - a)
    fc, fd = f(c), f(d)
    best_x, best_f = (c, fc) if fc <= fd else (d, fd)
    width = np.inf
    while tol < b - a < width:
        width = b - a
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - golden * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + golden * (b - a)
            fd = f(d)
        if fc < best_f:
            best_x, best_f = c, fc
        if fd < best_f:
            best_x, best_f = d, fd
    return best_x, best_f


def one_point(f, log):
    """f at one scalar point, for ref_golden_min; logs the points probed."""
    def g(x):
        log.append(x)
        return f(np.array([x]))[0]
    return g


def budgeted(f, calls=10_000):
    """f, raising once called more than ``calls`` times, so that a search
    that does not end fails instead of hanging."""
    count = itertools.count(1)

    def g(x):
        if next(count) > calls:
            raise RuntimeError("the golden-section search does not end")
        return f(x)
    return g


def hexes(*values):
    return [float(v).hex() for v in values]


# elementwise test functions of exact arithmetic, so a value does not depend
# on the array it is evaluated in
def bowl(x0, scale):
    return lambda x: scale * (x - x0) * (x - x0)


def kinks(x0, x1, slope):
    return lambda x: np.abs(x - x0) - slope * np.abs(x - x1)


def flat(value):
    return lambda x: np.full(np.shape(x), value)  # every fc <= fd is a tie


SEARCHED = st.one_of(
    st.builds(bowl, st.floats(-3, 3), st.floats(0.1, 10)),
    st.builds(kinks, st.floats(-3, 3), st.floats(-3, 3), st.floats(-2, 2)),
    st.builds(flat, st.floats(-1, 1)))


class TestProbeTrees:
    @settings(max_examples=300, deadline=None)
    @given(a=st.floats(-2, 2), width=st.floats(1e-9, 4), steps=st.integers(0, 90),
           depth=st.integers(1, 6), f=SEARCHED)
    @example(a=0.0, width=1.0, steps=10, depth=4, f=bowl(0.3, 1.0))  # stops mid-tree
    @example(a=0.0, width=1.0, steps=90, depth=4, f=bowl(1 / 3, 1.0))  # at float spacing
    def test_walks_the_one_probe_search(self, a, width, steps, depth, f):
        # tol = width * golden**steps ends the search after about `steps`
        # steps, mid-tree or not; past about 50 the bracket reaches float
        # spacing first and stops narrowing
        b = a + width
        assume(b > a)
        tol = width * constants_mod._GOLDEN ** steps
        log = []
        want = ref_golden_min(one_point(f, log), a, b, tol)
        f = budgeted(f)
        walk = list(constants_mod._golden_walk(f, a, b, tol, depth))
        assert [hexes(x) for x, _ in walk] == [hexes(x) for x in log]
        assert [hexes(fx) for _, fx in walk] == [hexes(f(np.array([x]))[0]) for x in log]
        assert hexes(*constants_mod._golden_min(f, a, b, tol, depth)) == hexes(*want)

    def test_errors_off_the_path_are_not_raised(self):
        f, log = kinks(0.61, 0.2, 0.5), []
        want = ref_golden_min(one_point(f, log), 0.0, 1.0, 1e-12)
        path = set(log)

        def on_path_only(xs):
            if any(x not in path for x in xs):
                raise QuadratureError("a probe off the one-probe path")
            return f(xs)

        for depth in range(1, 7):
            got = constants_mod._golden_min(on_path_only, 0.0, 1.0, 1e-12, depth)
            assert hexes(*got) == hexes(*want)

    @pytest.mark.parametrize("k", [0, 1, 2, 7, 30])
    def test_an_error_on_the_path_is_raised(self, k):
        f, log = bowl(0.27, 2.0), []
        ref_golden_min(one_point(f, log), 0.0, 1.0, 1e-12)
        bad = log[k:]  # from the k-th probe on, each raises its own error

        def failing(xs):
            for x in xs:
                if x in bad:
                    raise QuadratureError(f"probe {bad.index(x)}")
            return f(xs)

        with pytest.raises(QuadratureError) as want:
            ref_golden_min(lambda x: failing(np.array([x]))[0], 0.0, 1.0, 1e-12)
        assert str(want.value) == "probe 0"
        for depth in range(1, 7):
            with pytest.raises(QuadratureError) as got:
                constants_mod._golden_min(failing, 0.0, 1.0, 1e-12, depth)
            assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("kd", ORACLE_KERNELS, ids=ORACLE_IDS)
    def test_constants_match_one_probe_per_call(self, kd, monkeypatch):
        # a coarse grid and a loose tolerance keep c~ (searches in a search) short
        w, opt = Window(0.0, 0.375), Opt1DConfig(coarse_grid=32, refine_tol=1e-8)

        def constants():
            out = [recip_m(kd, 0, opt_cfg=opt), recip_m(kd, 1, opt_cfg=opt),
                   recip_M(kd, w, opt_cfg=opt)]
            try:
                out.append(c_tilde(kd, w, EnvelopeSpec("tight"), opt_cfg=opt))
            except ModelViolationError as err:  # C2 on some random kernels
                return hexes(*out) + [str(err)]
            return hexes(*out)

        want = constants()
        monkeypatch.setattr(constants_mod, "_GOLDEN_DEPTH", 1)
        assert constants() == want

    @pytest.mark.parametrize("kd,order", [(TIGHT_K2, 1), (K1, 0)],
                             ids=["tight-k2-order1", "example-k1-order0"])
    def test_refinement_batches_its_probes(self, kd, order, monkeypatch):
        # calls, never times: one call scans the grid; the refinement then
        # made 43 calls at one probe each, and makes 12 with probe trees
        calls = []
        batched = constants_mod.integrate_over_s

        def counted(*args, **kwargs):
            calls.append(np.size(args[1]))
            return batched(*args, **kwargs)

        monkeypatch.setattr(constants_mod, "integrate_over_s", counted)
        recip_m(kd, order)
        assert calls[0] > 2048 and len(calls) - 1 <= 12


# float.hex of the computed constants, recorded from the per-t scan; the
# batched engine must reproduce them bit for bit
EXAMPLE_PINS = {
    1: {"c_tilde": "0x1.5555555555555p-2", "recip_m0": "0x1.8000000000000p-2",
        "recip_m1": "0x1.0000000000000p+0", "recip_M": "0x1.2000000000000p-3"},
    2: {"c_tilde": "0x1.999999999999ap-2", "recip_m0": "0x1.b333333333335p-2",
        "recip_m1": "0x1.0000000000000p+0", "recip_M": "0x1.999999999999ap-3"},
}
TIGHT_PINS = {
    1: {"c_tilde": "0x1.0000000000000p-1", "recip_m0": "0x1.43a54e4e98864p-2",
        "recip_m1": "0x1.0e95393a62190p-2", "recip_M": "0x1.a9e1891fd3cf0p-4"},
    2: {"c_tilde": "0x1.c5d4dbcdcc9c9p-3", "recip_m0": "0x1.626751aea78c0p-3",
        "recip_m1": "0x1.240f574eba896p-1", "recip_M": "0x1.45af1e1f40c34p-5"},
}


class TestPinnedConstants:
    def test_example(self, example_cc):
        got = {i: {key: example_cc[i - 1].record(key).computed.hex()
                   for key in EXAMPLE_PINS[i]} for i in EXAMPLE_PINS}
        assert got == EXAMPLE_PINS

    def test_tight(self):
        w = Window(0.0, 0.25)
        got = {i: {"c_tilde": c_tilde(kd, w, EnvelopeSpec("tight")).hex(),
                   "recip_m0": recip_m(kd, 0).hex(),
                   "recip_m1": recip_m(kd, 1).hex(),
                   "recip_M": recip_M(kd, w).hex()}
               for i, kd in ((1, TIGHT_K1), (2, TIGHT_K2))}
        assert got == TIGHT_PINS


class TestErrorPaths:
    # sqrt(|s - 1/3|) has an infinite slope at 1/3 that no breakpoint splits
    ROUGH = _kernel("sqrt(abs(s - 1/3))", "0*t")

    @pytest.mark.parametrize("compute", [
        lambda kd: recip_m(kd, 0),
        lambda kd: recip_M(kd, Window(0.0, 1.0)),
    ], ids=["recip_m0", "recip_M"])
    def test_rough_kernel_names_its_panel(self, compute):
        with pytest.raises(QuadratureError, match="no convergence") as err:
            compute(self.ROUGH)
        lo, hi = map(float, re.search(r"on \[([^,]+), ([^\]]+)\]",
                                      str(err.value)).groups())
        assert lo <= 1 / 3 <= hi

    @pytest.mark.parametrize("compute", [
        lambda kd: recip_m(kd, 0),
        lambda kd: recip_M(kd, Window(0.0, 1.0)),
    ], ids=["recip_m0", "recip_M"])
    def test_nan_kernel_raises(self, compute):
        nan_kernel = KernelDef(Bin("*", Num(float("nan")), Var("s")),
                               parse_expr("0*t", KERNEL_CONTEXT), (), False)
        with pytest.raises(QuadratureError, match="NaN"):
            compute(nan_kernel)
