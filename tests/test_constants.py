import dataclasses
import functools
import itertools
import math
import re
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import hammcert as hc
import hammcert.cone as cone_mod
import hammcert.constants as constants_mod
import hammcert.quad as quad_mod
from hammcert import (ConfigError, ModelViolationError, QuadConfig,
                      QuadratureError, Window, c_tilde, gamma_c, recip_M,
                      recip_m, sup_abs_1d)
from hammcert.constants import Opt1DConfig, extremum_1d, integrate_over_s
from hammcert.expr import (BOUNDARY_CONTEXT, ENVELOPE_CONTEXT, KERNEL_CONTEXT,
                           Bin, Num, Var, _monotone_in, parse_expr)
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
        val, arg = extremum_1d(lambda t: t * (1 - t), 0.0, 1.0,
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
        assert gamma_c(G21, Window(0, 0.5))[0] == pytest.approx(4 / 9, abs=1e-9)

    def test_gamma11_tight_exceeds_declared(self):
        # tight value is 1/2; the bundled config conservatively declares 1/3
        assert gamma_c(G11, Window(0, 0.375))[0] == pytest.approx(0.5, abs=1e-9)

    def test_constant_gamma(self):
        one = parse_expr("1", BOUNDARY_CONTEXT)
        assert gamma_c(one, Window(0.1, 0.9), FAST_OPT)[0] == 1.0

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
        cc = hc.assemble_cone_constants(dataclasses.replace(spec, opt=FAST_OPT))
        assert cc[0].record("c_tilde").used == pytest.approx(1.0, abs=1e-12)
        assert cc[0].record("c_gamma[0]").used == pytest.approx(1.0, abs=1e-12)
        assert cc[0].c == pytest.approx(1.0, abs=1e-12)

    def test_recip_m0_below_recip_M_is_a_model_violation(self, monkeypatch):
        # 1/m_0 >= 1/M for every kernel, so computed constants that break it
        # are rejected, whatever the kernel's sign
        spec = single_component_spec(
            kernel={"k": "1", "dk_dt": "0*t", "breakpoints": [],
                    "moving_breakpoint": False}, window=(0, 1))
        recip = constants_mod.recip_m
        monkeypatch.setattr(constants_mod, "recip_m",
                            lambda kd, order, *args: 0.0 if order == 0
                            else recip(kd, order, *args))
        with pytest.raises(ModelViolationError,
                           match=r"\(C2\).*1/m_0 = 0 < 1/M = 1; the computed"):
            constants_mod._assemble_cached.__wrapped__(
                dataclasses.replace(spec, opt=FAST_OPT))

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
            hc.assemble_cone_constants(dataclasses.replace(bad, opt=FAST_OPT))

    def test_declaration_within_the_allowance_reads_as_computed(self):
        doc_comp = {
            "kernel": "example-k1", "window": [0, 0.375], "lambda": 1.0,
            "f": "1", "w": "1", "envelope": {"phi0": "3/4"}, "gammas": [],
        }
        plain = hc.spec_from_dict({"n": 1, "components": [doc_comp]})
        computed = hc.assemble_cone_constants(
            dataclasses.replace(plain, opt=FAST_OPT))[0].record("c_tilde").computed
        doc_comp["declared"] = {"c_tilde": computed + 5e-10}
        spec = hc.spec_from_dict({"n": 1, "components": [doc_comp]})
        record = hc.assemble_cone_constants(
            dataclasses.replace(spec, opt=FAST_OPT))[0].record("c_tilde")
        assert record.declared == computed + 5e-10 > computed
        assert record.used == record.computed == computed

    def test_declared_phi1_validated(self):
        doc_comp = {
            "kernel": "example-k1", "window": [0, 0.375], "lambda": 1.0,
            "f": "1", "w": "1",
            "envelope": {"phi0": "3/4", "phi1": "1/2"},  # |dk| reaches 1
            "gammas": [],
        }
        bad = hc.spec_from_dict({"n": 1, "components": [doc_comp]})
        with pytest.raises(ModelViolationError, match="Phi1"):
            hc.assemble_cone_constants(dataclasses.replace(bad, opt=FAST_OPT))
        doc_comp["envelope"]["phi1"] = "1"
        good = hc.spec_from_dict({"n": 1, "components": [doc_comp]})
        hc.assemble_cone_constants(dataclasses.replace(good, opt=FAST_OPT))

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


def panel_edges(a, points, b):
    """The panel edges of quad's rule: a, the points inside (a, b) in order,
    and b, each edge within 1e-15 of its predecessor in that list dropped."""
    edges = [a, *sorted(p for p in points if a < p < b), b]
    return [a] + [e for p, e in itertools.pairwise(edges) if e - p > 1e-15]


def ref_abs_integral_over_s(kd, t, order, quad_cfg):
    """Integral over s in [0,1] of |k| (order 0) or |dk/dt| (order 1) at
    one t, split at the breakpoints and at the sign roots of each panel."""
    evalf = eval_k if order == 0 else eval_dk
    fn = lambda s: evalf(kd, t, s)
    splits = s_breakpoints(kd, t)
    for lo, hi in itertools.pairwise(panel_edges(0.0, splits, 1.0)):
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


def ref_grid_with(points, a, b, n):
    """The scan grid as np.unique of the linspace nodes and the inner points."""
    grid = np.linspace(a, b, n + 1)
    inner = [p for p in points if a < p < b]
    if inner:
        grid = np.unique(np.concatenate((grid, inner)))
    return grid


@st.composite
def grid_and_points(draw):
    a = draw(st.one_of(st.sampled_from([0.0, 0.25, 0.5, -1.0]), st.floats(-2.0, 2.0)))
    if draw(st.booleans()):
        b = draw(st.floats(a, 3.0, exclude_min=True))
    else:  # a span of a few ulps, where linspace repeats nodes
        b = a + draw(st.integers(1, 3000)) * math.ulp(a)
    n = draw(st.integers(1, 600))
    nodes = np.linspace(a, b, n + 1).tolist()
    point = st.one_of(st.sampled_from(nodes), st.sampled_from([a, b, 0.0, -0.0]),
                      st.floats(a, b), st.floats(a - 1.0, b + 1.0))
    points = draw(st.lists(point, max_size=6))
    points += draw(st.lists(st.sampled_from(points), max_size=3)) if points else []
    if draw(st.booleans()):
        points = [np.float64(p) for p in points]
    return points, a, b, n


@settings(max_examples=400, deadline=None, database=None)
@given(grid_and_points())
@example(([0.3, 0.1, 0.3, 0.25, 1.5], 0.0, 1.0, 8))
@example(([-0.0], -1.0, 1.0, 14))  # np.unique keeps the point -0.0 here
def test_grid_with_matches_unique(case):
    # points on nodes, repeated or outside (a, b); spans where nodes coincide
    want = ref_grid_with(*case)
    got = constants_mod._grid_with(*case)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


# float pools with repeats and both zeros, where np.unique's sort decides
# which of -0.0 and 0.0 it keeps
SIGNED_ZEROS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, math.ulp(0.0)])


@settings(max_examples=200, deadline=None, database=None)
@given(st.one_of(st.lists(st.one_of(SIGNED_ZEROS, st.floats(-2.0, 2.0)), max_size=40),
                 st.lists(SIGNED_ZEROS, max_size=40),
                 st.lists(st.integers(0, 20), max_size=40)))
@example([0.0, -0.0, 0.0])
@example([-0.0, 0.0, 1.0, -0.0])
@example([])
def test_distinct_matches_unique(values):
    x = np.array(values, dtype=None if values else float)
    want, got = np.unique(x), quad_mod._distinct(x)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@settings(max_examples=100, deadline=None, database=None)
@given(st.integers(8, 256), st.lists(st.one_of(SIGNED_ZEROS, st.floats(0.0, 1.0)),
                                     min_size=2, max_size=2))
def test_window_grid_matches_unique(panels, ends):
    # a window's ends on monitoring nodes, between them, or at -0.0
    grid = np.linspace(0.0, 1.0, 4 * panels + 1)
    a, b = sorted(ends)
    want = np.unique(np.concatenate((grid[(grid >= a) & (grid <= b)], [a, b])))
    got = cone_mod._window_grid(grid, SimpleNamespace(window=SimpleNamespace(a=a, b=b)))
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def ref_kernel_columns(evalf, kd, ts, ss, combine, absolute):
    """The whole ts x ss grid evaluated at once and reduced over t."""
    k = np.broadcast_to(np.asarray(evalf(kd, ts[:, None], ss), dtype=float),
                        (ts.size, ss.size))
    return combine.reduce(np.abs(k) if absolute else k, axis=0)


def sign_scan_panels(kd, ts, a=0.0, b=1.0):
    """(rows, lo, hi) of the panels between the s-breakpoints of each t."""
    panels = [(r, lo, hi) for r, t in enumerate(ts)
              for lo, hi in itertools.pairwise(panel_edges(a, s_breakpoints(kd, t), b))]
    rows, lo, hi = zip(*panels)
    return np.array(rows, dtype=np.intp), np.array(lo), np.array(hi)


# one point; exactly one sign-scan panel; one panel and a point; a prime
# (two panels); the tile in use.  A tile of n points spans n // len(ss)
# whole t-rows (at least one) of the c~ grids: 1 point is less than one row,
# and 60 points are 4 rows of the 13- and 14-point s-grids, which divide
# neither 13 nor 14 t-rows, so the last chunk is partial
TILES = [1, 60, 257, 258, 521, constants_mod._TILE]


# roots on the scan nodes s = 1/4 and s = 1/2 of every row, for k and dk
NODE_ROOTS = _kernel("(s - 1/4)*(s - 1/2)*(1 + t)", "(s - 1/4)*(s - 1/2)")
# exact zeros in only some of the 32 panels of 17 rows: for k, s = 1/4 is a
# scan node in 3 panels and the row t = 1/2 vanishes (zeros that straddle
# nothing); for dk, s = 1/4 is a node in 3 panels
SOME_NODE_ROOTS = _kernel("(s - 1/4)*(t - 1/2)", "s - 1/4", moving=True)


class TestTiledScans:
    @pytest.mark.parametrize("kd", ORACLE_KERNELS + [NODE_ROOTS, SOME_NODE_ROOTS],
                             ids=ORACLE_IDS + ["node-roots", "some-node-roots"])
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
                    got = constants_mod._kernel_columns(evalf, kd, None, ts, ss,
                                                        combine, absolute=absolute)
                    assert np.array_equal(got, want), tile

    def test_scans_hold_no_multi_mib_temporaries(self):
        # The traced allocation peak of c~_1 and 1/m_{1,0} at the default
        # resolution is 1.1 MiB with tiled scans and 8.1 MiB with the whole
        # 2^18-point scans of the t-chunks (2 MiB per float64 temporary).
        # tight-k2 is not monotone in t, so its c~ scans the tiled grids.
        assert _monotone_in(TIGHT_K2.k, "t") is None
        for kd, w, env in ((K1, Window(0, 0.375), PHI1),
                           (TIGHT_K2, Window(0, 0.25), EnvelopeSpec("tight"))):
            c_tilde(kd, w, env, opt_cfg=FAST_OPT)  # compile and import untraced
            recip_m(kd, 0, opt_cfg=FAST_OPT)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                c_tilde(kd, w, env)
                recip_m(kd, 0)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert peak < 3 * 2**20, kd


# --------------------------------------------------------------------------
# the sign scan of the panels the interval table leaves against the scan of
# every panel it replaced

def ref_s_integrals(kd, ts, a, b, order, absolute, quad_cfg):
    """The unfiltered ``constants._s_integrals``: every panel's sign scanned."""
    evalf = eval_k if order == 0 else eval_dk
    fn = lambda r, s: evalf(kd, ts[r], s)
    n = ts.size
    fixed = np.asarray(kd.fixed_breakpoints, dtype=float)
    moving = np.full(n, a)
    if kd.moving_breakpoint:
        clear = np.all(np.abs(ts[:, None] - fixed) > 1e-14, axis=1)
        moving = np.where(clear, ts, a)
    splits = np.column_stack((np.broadcast_to(fixed, (n, fixed.size)), moving))
    if absolute:
        roots = constants_mod._panel_sign_roots(fn, *quad_mod._panels(a, b, splits))
        splits = np.column_stack((splits, constants_mod._pad_rows(*roots, n, a)))
        integrand = lambda r, s: np.abs(np.asarray(fn(r, s), dtype=float))
    else:
        integrand = fn
    return quad_mod.integrate_panels(integrand, *quad_mod._panels(a, b, splits), n,
                                     quad_cfg)


# kernels the interval table cannot enclose on some or all of their boxes:
# log; a divisor s^2 - s + 1/2 >= 1/4 whose enclosure reaches 0 on wide
# panels; sqrt of a value below 0, where numpy raises too
UNENCLOSED = {
    "log": _kernel("log(1/2 + t + s) - 1/2", "1/(1/2 + t + s)"),
    "divisor": _kernel("1/(s*s - s + 1/2) - 2 - t", "0*s - 1", (0.5,), True),
    "sqrt": _kernel("sqrt(t - s) - 1/4", "1/(2*sqrt(t - s))", moving=True),
}
FILTER_KERNELS = {"example-k1": K1, "example-k2": K2, "tight-k1": TIGHT_K1,
                  "tight-k2": TIGHT_K2, "node-roots": NODE_ROOTS,
                  "some-node-roots": SOME_NODE_ROOTS, **UNENCLOSED,
                  # roots that enclosures within 1e-12 of 0 straddle
                  "small": _kernel("(s - 1/3)*(t + 1)*1e-12", "(s - 1/3)*1e-12")}


def _integral_outcome(compute):
    try:
        return "value", compute().tobytes()
    except hc.HammcertError as err:
        return type(err).__name__, str(err)


@pytest.mark.parametrize("name", sorted(FILTER_KERNELS))
def test_filtered_sign_scan_matches_every_panel_scanned(name):
    kd, cfg = FILTER_KERNELS[name], QuadConfig()
    # the ends, the fixed breakpoint, the windows' ends and random points
    ts = np.concatenate(([0.0, 1.0, 0.5, 0.375, 0.25, 0.75],
                         np.random.default_rng(31).uniform(0.0, 1.0, 10)))
    for (a, b), order, absolute in itertools.product(
            [(0.0, 1.0), (0.0, 0.375), (0.2, 0.9)], (0, 1), (True, False)):
        got = _integral_outcome(lambda: integrate_over_s(
            kd, ts, a, b, order=order, absolute=absolute, quad_cfg=cfg))
        want = _integral_outcome(lambda: ref_s_integrals(
            kd, ts, a, b, order, absolute, cfg))
        assert got == want, (a, b, order, absolute)


# --------------------------------------------------------------------------
# one panel list: the sign scan scans the panels the quadrature integrates

def test_panel_narrower_than_1e12_is_scanned():
    # tight.cfg's component 2: |dk/dt| over [0.25, 0.75] at t 5e-13 right of
    # 0.25, where the panel [0.25, t] is narrower than 1e-12 but wider than
    # quad's 1e-15 rule, so it is integrated and must be scanned
    t = 0.25 + 5e-13
    got = float(integrate_over_s(TIGHT_K2, t, 0.25, 0.75, order=1, absolute=True))
    assert got.hex() == "0x1.92e9a07212820p-4"
    with mp.workdps(50):
        # 1 - exp(t - s)/4 on (0.25, t), exp(t - s)/4 on (t, 0.75)
        tm, a, b = mp.mpf(t), mp.mpf(0.25), mp.mpf(0.75)
        want = (tm - a) - (mp.exp(tm - a) - 1) / 4 + (1 - mp.exp(tm - b)) / 4
        assert abs(mp.mpf(got) - want) <= 2 * math.ulp(got)


EDGE_CASES = {
    # a panel 5e-13 wide at a window's end, t within 1e-15 of an end, and a
    # moving breakpoint 3e-13 left of a fixed one (no closer than 1e-14)
    "tight-k2": (TIGHT_K2, 0.25, 0.75, [0.25 + 5e-13, 0.25 + 5e-16, 0.75 - 5e-16]),
    "example-k1": (K1, 0.0, 1.0, [0.5 - 3e-13, 5e-13, 1.0 - 5e-16]),
    "pl0": (ORACLE_KERNELS[4], 0.2, 0.9,
            [0.2 + 5e-13, ORACLE_KERNELS[4].fixed_breakpoints[0] - 3e-13]),
}


@pytest.mark.parametrize("filtered", [True, False], ids=["filtered", "every-panel"])
@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_sign_scan_scans_the_quadrature_panels(name, filtered, monkeypatch):
    kd, a, b, near = EDGE_CASES[name]
    ts = np.concatenate((np.linspace(a, b, 17), near))
    bps = [s_breakpoints(kd, t) for t in ts]
    width = max(map(len, bps))
    splits = np.array([row + [a] * (width - len(row)) for row in bps])
    want = quad_mod._panels(a, b, splits)
    # the model of the rule the tests' references use
    assert all(np.array_equal(m, w) for m, w in zip(sign_scan_panels(kd, ts, a, b), want))
    scanned = []
    real = constants_mod._panel_sign_roots

    def record(fn, rows, lo, hi):
        scanned.extend(zip(rows.tolist(), lo.tolist(), hi.tolist()))
        return real(fn, rows, lo, hi)

    monkeypatch.setattr(constants_mod, "_panel_sign_roots", record)
    if not filtered:  # the interval table drops no panel
        monkeypatch.setattr(constants_mod, "_one_signed", lambda *_: False)
    panels = list(zip(*(x.tolist() for x in want)))
    for order in (0, 1):
        scanned.clear()
        integrate_over_s(kd, ts, a, b, order=order, absolute=True)
        assert set(scanned) <= set(panels)
        if not filtered:
            assert scanned == panels


# --------------------------------------------------------------------------
# c~ of a kernel monotone in t, from the ends of its t intervals

# t-free operands: sign-changing, zero and exp factors among them
T_FREE = ["s", "(1/2)", "exp(-s)", "(s - 1/2)", "0", "(1/4 - s)", "(-3)", "(2*s)"]
DIVISORS = ["3", "(s - 2)", "exp(-s)", "(-1/7)"]
# operands and wrappers that make a kernel fail the monotone form
T_BOUND = ["t", "pos(t - 1/2)", "(t*s)"]


@st.composite
def single_t_kernels(draw, monotone=True):
    """A kernel holding t once, under a random chain of neg, pos, step, and
    + - * / with t-free operands; unless ``monotone``, one link of the
    chain may take a t-bound operand or be abs, so the form may fail."""
    x = "t"
    for _ in range(draw(st.integers(0, 6))):
        op = draw(st.sampled_from(["-", "pos", "step", "+x", "x+", "-x", "x-",
                                   "*x", "x*", "/"]))
        c = draw(st.sampled_from(DIVISORS if op == "/" else T_FREE))
        if not monotone and draw(st.integers(0, 3)) == 0:
            if op in ("-", "pos", "step", "/"):
                op = "abs"
            else:
                c = draw(st.sampled_from(T_BOUND))
        x = {"-": f"-({x})", "pos": f"pos({x})", "step": f"step({x})",
             "abs": f"abs({x})", "+x": f"{c} + ({x})", "x+": f"({x}) + {c}",
             "-x": f"{c} - ({x})", "x-": f"({x}) - {c}", "*x": f"{c}*({x})",
             "x*": f"({x})*{c}", "/": f"({x})/{c}"}[op]
    return _kernel(x, "0*t")


@st.composite
def windows(draw):
    ends = st.one_of(st.sampled_from([0.0, 0.25, 0.375, 0.5, 1.0]), st.floats(0.0, 1.0))
    a, b = sorted((draw(ends), draw(ends)))
    assume(a < b)
    return Window(a, b)


def same_bits_but_zero_sign(got, want):
    # -0.0 + 0.0 is +0.0, and every other double is left as it is
    return (got + 0.0).tobytes() == (want + 0.0).tobytes()


@settings(max_examples=150, deadline=None, database=None)
@given(single_t_kernels(), windows(), st.sampled_from([1, 7, 64, 300]))
def test_end_values_are_the_grid_extrema(kd, w, n):
    factors = _monotone_in(kd.k, "t")
    assert factors is not None
    ss = constants_mod._grid_with(kd.fixed_breakpoints, 0.0, 1.0, n)
    tw = constants_mod._grid_with(kd.fixed_breakpoints, w.a, w.b, n)
    m_win = constants_mod._kernel_columns(eval_k, kd, factors, tw, ss, np.minimum)
    k_max = constants_mod._kernel_columns(eval_k, kd, factors, ss, ss, np.maximum,
                                          absolute=True)
    # the end-value path, not the scan: these operands keep every row finite
    assert constants_mod._t_ends(eval_k, kd, factors, np.array([w.a, w.b]), ss) \
        is not None
    assert same_bits_but_zero_sign(
        m_win, ref_kernel_columns(eval_k, kd, tw, ss, np.minimum, False))
    assert k_max.tobytes() == \
        ref_kernel_columns(eval_k, kd, ss, ss, np.maximum, True).tobytes()


MONOTONE_FORMS = {
    "t": (), "s*exp(-s)": (), "-step(t - s)": (),
    "exp(-s)*(1/2 - t*s)": ("exp(-s)", "s"),
    "1/4 + pos(1/2 - s) - pos(t - s)": (),
    "(s - 1/2)*-(t/3)/exp(-s)": ("s - 1/2",),
}


@pytest.mark.parametrize("text", MONOTONE_FORMS)
def test_monotone_form_gives_its_product_factors(text):
    factors = _monotone_in(parse_expr(text, KERNEL_CONTEXT), "t")
    assert factors == tuple(parse_expr(f, KERNEL_CONTEXT) for f in MONOTONE_FORMS[text])


@pytest.mark.parametrize("text", [
    "abs(t - s)", "exp(t - s)", "t^2", "t*t", "pos(t - s) - pos(t - 1/2)",
    "pos(t - s) + pos(1/2 - t)", "s/(t + 1)", "sqrt(t)", "log(1 + t)",
    "exp(t - s)/4 - pos(t - s)"])
def test_monotone_form_rejects(text):
    assert _monotone_in(parse_expr(text, KERNEL_CONTEXT), "t") is None


def c_tilde_outcomes(kd, w, env, opt):
    """c~ (float.hex) or its error text, with the end-value path and with
    the grids throughout."""
    def outcome():
        try:
            with np.errstate(all="ignore"):
                return c_tilde(kd, w, env, opt_cfg=opt).hex()
        except hc.HammcertError as err:
            return str(err)

    fast = outcome()
    with mock.patch.object(constants_mod, "_monotone_in", lambda expr, var: None):
        return fast, outcome()


ONE = EnvelopeSpec("declared", parse_expr("1", ENVELOPE_CONTEXT))
END_OPT = Opt1DConfig(coarse_grid=32, refine_tol=1e-8)


@pytest.mark.parametrize("kd", ORACLE_KERNELS, ids=ORACLE_IDS)
@pytest.mark.parametrize("w", [Window(0.0, 0.375), Window(0.2, 0.9), Window(0.0, 1.0)],
                         ids=["w0", "w1", "w2"])
@pytest.mark.parametrize("env", [EnvelopeSpec("tight"), ONE], ids=["tight", "one"])
def test_c_tilde_matches_the_grids(kd, w, env):
    fast, grid = c_tilde_outcomes(kd, w, env, END_OPT)
    assert fast == grid


@pytest.mark.parametrize("text,env,want", [
    # a zero column whose zeros have both signs: c~ is a signed zero, whose
    # error text prints it unsigned
    ("(t - 1/2)*0", ONE, "c~ = 0 <= 0"),
    ("(1/2 - t)*0", ONE, "c~ = 0 <= 0"),
    # NaN end rows: the grid raises at the scan of the inner search
    ("t + (1e308*10 - 1e308*10)", ONE, "NaN while scanning"),
    # an infinite factor: 0 * inf is NaN inside [0, 1], not at its ends
    ("pos(-pos((t - 1/2)*(1e308*10))) + 1", EnvelopeSpec("tight"),
     "envelope vanishes identically"),
    ("pos(-pos((t - 1/2)*(1e308*10))) + 1", ONE, "NaN while scanning"),
], ids=["zero", "negative-zero", "nan-rows", "inf-factor-tight", "inf-factor"])
def test_c_tilde_corner_cases_match_the_grids(text, env, want):
    kd = _kernel(text, "0*t")
    assert _monotone_in(kd.k, "t") is not None
    fast, grid = c_tilde_outcomes(kd, Window(0.0, 1.0), env, END_OPT)
    assert fast == grid and want in fast


def test_c_tilde_factor_outside_its_domain_raises_as_the_grids():
    # sqrt(s - 1/2) is a product factor of the monotone form: _t_ends gives
    # up at its EvalDomainError, and the grids raise the same error
    kd = _kernel("sqrt(s - 1/2) * t", "0*t")
    assert _monotone_in(kd.k, "t") is not None
    fast, grid = c_tilde_outcomes(kd, Window(0.0, 0.5), EnvelopeSpec("tight"), END_OPT)
    assert fast == grid == "sqrt of a negative value in subexpression 'sqrt(s - 1 / 2)'"


def test_c2_failure_of_a_monotone_kernel_evaluates_no_grid(monkeypatch):
    # example-k1, 1/4 + pos(1/2 - s) - pos(t - s), is monotone in t: over the
    # window [0, 1] its min is read at the end rows, and c~ <= 0 is not
    # computed again on the t-grids (1,248 eval_k calls, 8,424,534 points)
    seen = [0, 0]

    def counted(kd, t, s):
        seen[0] += 1
        seen[1] += np.broadcast(t, s).size
        return eval_k(kd, t, s)

    monkeypatch.setattr(constants_mod, "eval_k", counted)
    env = EnvelopeSpec("declared", parse_expr("3/4", ENVELOPE_CONTEXT))
    with pytest.raises(ModelViolationError, match=r"c~ = -0\.333333 <= 0"):
        c_tilde(K1, Window(0.0, 1.0), env, opt_cfg=Opt1DConfig())
    assert seen == [46, 8_372]


@pytest.mark.parametrize("text", ["1 + abs(t - 1/2)", "2 + pos(t - 1/2) + pos(1/4 - t)",
                                  "2 - pos(t - 1/2)*pos(1/4 - s)/(t - 2)"])
def test_c_tilde_outside_the_form_matches_the_grids(text):
    # a positive c~ whose window min lies inside the window, not at its ends
    kd = _kernel(text, "0*t")
    assert _monotone_in(kd.k, "t") is None
    fast, grid = c_tilde_outcomes(kd, Window(0.0, 1.0), EnvelopeSpec("tight"), END_OPT)
    assert fast == grid and not fast.startswith("condition")


@settings(max_examples=40, deadline=None, database=None)
@given(single_t_kernels(monotone=False), windows(),
       st.sampled_from([EnvelopeSpec("tight"), ONE]))
def test_c_tilde_of_random_kernels_matches_the_grids(kd, w, env):
    fast, grid = c_tilde_outcomes(kd, w, env, END_OPT)
    assert fast == grid


# --------------------------------------------------------------------------
# the sign scan's C-order grid and its per-row sign test

@st.composite
def scan_panels(draw):
    """(lo, hi) of panels with random, negative, few-ulp and zero spans."""
    lo, hi = [], []
    for _ in range(draw(st.integers(1, 8))):
        a = draw(st.floats(-1e3, 1e3))
        span = draw(st.sampled_from(["random", "negative", "ulps", "zero"]))
        if span == "random":
            b = draw(st.floats(-1e3, 1e3))
        elif span == "negative":
            b = a - draw(st.floats(0.0, 10.0, exclude_min=True))
        elif span == "ulps":
            b = a + draw(st.integers(1, 600)) * math.ulp(a)
        else:
            b = a
        lo.append(a)
        hi.append(b)
    return np.array(lo), np.array(hi)


@settings(max_examples=150, deadline=None, database=None)
@given(scan_panels())
@example((np.array([0.0, 0.25]), np.array([0.125, 0.25])))  # a zero step
@example((np.array([0.0]), np.array([5e-324])))  # a step that underflows to 0
@example((np.array([-1.0, 0.5]), np.array([-3.0, 0.5 + 7 * 2.0**-53])))
def test_scan_grid_is_linspace(panels):
    lo, hi = panels
    want = np.linspace(lo, hi, 257, axis=-1)
    got = constants_mod._scan_grid(lo, hi)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    # one panel per row, in memory order, unless linspace built it
    assert got.flags.c_contiguous or not np.all((hi - lo) / 256)


# values of synthetic sign-scan rows: one sign with exact zeros, zeros only,
# -0.0 between the signs, NaN in a row that also changes sign, infinities,
# and opposite signs near 1e-170, whose products underflow to -0.0
SIGN_PALETTES = [[1.0, 0.5, 3.0, 0.0, -0.0], [-1.0, -0.5, 0.0, -0.0], [0.0, -0.0],
                 [1.0, -0.0, -2.0], [math.nan, 1.0, -1.0, 0.0],
                 [math.inf, -math.inf, 1.0, -1.0, 0.0],
                 [1e-170, -1e-170, 3e-171, -2e-170, 0.0]]
SIGN_ROWS = np.array([  # each case at least once, whatever is drawn
    [3.0] * 100 + [0.0] * 57 + [-0.0] * 100,
    [0.0] * 257,
    [1.0] * 128 + [-0.0] + [-1.0] * 128,
    [1.0] * 100 + [math.nan] + [1.0] * 100 + [-1.0] * 56,
    [-math.inf] * 10 + [2.0] * 247,
    [1e-170, -1e-170] * 128 + [0.0]])


@st.composite
def sign_rows(draw):
    """Rows of 257 values, each a few runs of one palette's values."""
    rows = list(SIGN_ROWS)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    for _ in range(draw(st.integers(0, 64))):
        runs = rng.choice(SIGN_PALETTES[rng.integers(len(SIGN_PALETTES))],
                          size=rng.integers(1, 7))
        ends = np.sort(rng.integers(0, 258, size=runs.size - 1))
        rows.append(np.repeat(runs, np.diff(np.concatenate(([0], ends, [257])))))
    return np.array(rows)[rng.permutation(len(rows))]


@settings(max_examples=100, deadline=None, database=None)
@given(sign_rows())
def test_row_test_keeps_the_rows_holding_both_signs(v):
    want = [i for i, row in enumerate(v.tolist())
            if any(x < 0 for x in row) and any(x > 0 for x in row)]
    assert constants_mod._rows_with_both_signs(v).tolist() == want


@settings(max_examples=20, deadline=None, database=None)
@given(sign_rows(), st.integers(0, 2**32 - 1))
def test_sign_roots_of_synthetic_rows_match_untiled_scan(values, seed):
    # panel p lies inside (p - n/2, p - n/2 + 1), so one sorted array holds
    # the scan nodes of every panel, and fn(r, s) reads the value of node s,
    # or of the cell holding s, scaled by 1 or 2 (exactly) by the row r
    rng = np.random.default_rng(seed)
    n = values.shape[0]
    lo = np.arange(n) - n // 2 + rng.uniform(0.0, 0.5, n)
    hi = lo + rng.uniform(1e-3, 0.5, n)
    rows = rng.integers(0, 4, n)
    nodes = np.linspace(lo, hi, 257, axis=-1).ravel()
    node_values = values.ravel()
    cell_values = rng.choice([1.0, -1.0, 0.0, math.nan, 1e-170], nodes.size)

    def fn(r, s):
        i = np.searchsorted(nodes, s)
        on = nodes[np.minimum(i, nodes.size - 1)] == s
        v = np.where(on, node_values[np.minimum(i, nodes.size - 1)], cell_values[i - 1])
        return v * (1.0 + (r & 1))

    with np.errstate(invalid="ignore"):  # inf * 0 in the products
        want = ref_panel_sign_roots(fn, rows, lo, hi)
        default = constants_mod._TILE
        try:
            for tile in TILES:
                constants_mod._TILE = tile
                got = constants_mod._panel_sign_roots(fn, rows, lo, hi)
                assert all(np.array_equal(g, w) for g, w in zip(got, want)), tile
        finally:
            constants_mod._TILE = default


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
