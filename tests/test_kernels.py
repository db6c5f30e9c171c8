import numpy as np
import pytest

from hammcert import ModelViolationError, eval_dk, eval_k, s_breakpoints
from hammcert.expr import KERNEL_CONTEXT, parse_expr
from hammcert.kernels import (GammaDef, KernelDef, gamma_from_catalog,
                              kernel_from_catalog, validate_gamma_derivative,
                              validate_kernel_derivative)


@pytest.fixture(scope="module")
def k1():
    return kernel_from_catalog("example-k1")


@pytest.fixture(scope="module")
def k2():
    return kernel_from_catalog("example-k2")


class TestPointValues:
    def test_k1(self, k1):
        assert eval_k(k1, 0.5, 0.75) == pytest.approx(0.25)
        assert eval_k(k1, 0.0, 0.0) == pytest.approx(0.75)
        assert eval_k(k1, 1.0, 0.0) == pytest.approx(-0.25)

    def test_k2(self, k2):
        assert eval_k(k2, 0.0, 0.0) == pytest.approx(0.9)
        # sign change for t in [1/2, 1]
        assert eval_k(k2, 1.0, 0.5) == pytest.approx(-0.1)

    def test_dk1(self, k1):
        assert eval_dk(k1, 0.5, 0.25) == -1.0
        assert eval_dk(k1, 0.5, 0.75) == 0.0

    def test_dk2(self, k2):
        assert eval_dk(k2, 0.9, 0.1) == -1.0


def moving_splits(kd, ts):
    """The moving column of s_breakpoints' rows at ts, after a check that
    every row starts with the fixed breakpoints."""
    rows = s_breakpoints(kd, ts)
    assert rows.shape == (len(ts), len(kd.fixed_breakpoints) + 1)
    assert (rows[:, :-1] == kd.fixed_breakpoints).all()
    return rows[:, -1].tolist()


class TestBreakpoints:
    def test_moving_plus_fixed(self, k1):
        assert s_breakpoints(k1, [0.7]).tolist() == [[0.5, 0.7]]

    def test_endpoint_excluded(self, k1):
        assert np.isnan(moving_splits(k1, [0.0, 1.0])).all()

    def test_coincident_deduplicated(self, k1):
        assert np.isnan(moving_splits(k1, [0.5])).all()

    def test_clearance_of_a_fixed_breakpoint(self, k1):
        # s = t within 1e-14 of a fixed breakpoint is no split; 2e-14 off it is
        near = [0.5 - 5e-15, 0.5 + 5e-15]
        assert np.isnan(moving_splits(k1, near)).all()
        assert moving_splits(k1, [0.5 + 2e-14]) == [0.5 + 2e-14]

    def test_rows_per_t(self, k1):
        ts = np.array([[0.25, 0.5], [0.7, 1.0]])
        got = moving_splits(k1, ts.ravel())
        assert s_breakpoints(k1, ts).shape == (4, 2)
        assert got[0::2] == [0.25, 0.7] and np.isnan(got[1::2]).all()

    def test_fixed_only(self):
        e = parse_expr("1", KERNEL_CONTEXT)
        assert s_breakpoints(KernelDef(e, e, (0.25, 0.5)), [0.3, 0.7]).tolist() == \
            [[0.25, 0.5], [0.25, 0.5]]
        assert s_breakpoints(KernelDef(e, e), [0.3]).shape == (1, 0)

    def test_invalid_fixed_breakpoints(self):
        e = parse_expr("1", KERNEL_CONTEXT)
        with pytest.raises(ValueError):
            KernelDef(e, e, (0.0,), False)
        with pytest.raises(ValueError):
            KernelDef(e, e, (0.6, 0.4), False)


class TestContinuityAndPositivity:
    @pytest.mark.parametrize("name", ["example-k1", "example-k2"])
    def test_continuous_in_t(self, name):
        kd = kernel_from_catalog(name)
        ts = np.linspace(1e-9, 1 - 1e-9, 100)
        ss = np.linspace(0, 1, 100)
        T, S = np.meshgrid(ts, ss, indexing="ij")
        for eps in (1e-9, -1e-9):
            gap = np.abs(eval_k(kd, T + eps, S) - eval_k(kd, T, S))
            assert float(np.max(gap)) <= 1e-6

    def test_k1_nonnegative_on_window(self, k1):
        T, S = np.meshgrid(np.linspace(0, 0.375, 200), np.linspace(0, 1, 200),
                           indexing="ij")
        assert float(np.min(eval_k(k1, T, S))) >= 0.0

    def test_k2_nonnegative_on_window(self, k2):
        T, S = np.meshgrid(np.linspace(0, 0.5, 200), np.linspace(0, 1, 200),
                           indexing="ij")
        assert float(np.min(eval_k(k2, T, S))) >= 0.0


class TestDerivativeValidation:
    @pytest.mark.parametrize("name", ["example-k1", "example-k2"])
    def test_catalog_kernels_pass(self, name):
        validate_kernel_derivative(kernel_from_catalog(name))

    @pytest.mark.parametrize("name", ["example-gamma11", "example-gamma21"])
    def test_catalog_gammas_pass(self, name):
        validate_gamma_derivative(gamma_from_catalog(name))

    def test_corrupted_dk_rejected(self, k1):
        bad = KernelDef(k1.k, parse_expr("-0.9*step(t-s)", KERNEL_CONTEXT),
                        k1.fixed_breakpoints, k1.moving_breakpoint)
        with pytest.raises(ModelViolationError, match="C3"):
            validate_kernel_derivative(bad)

    def test_corrupted_dgamma_rejected(self):
        g = gamma_from_catalog("example-gamma11")
        bad = GammaDef(g.gamma, parse_expr("-1.001", frozenset({"t"})))
        with pytest.raises(ModelViolationError, match="C5"):
            validate_gamma_derivative(bad)

    def test_jump_band_is_excluded(self):
        # a kernel whose only roughness is the jump at s = t must pass
        kd = KernelDef(parse_expr("pos(t-s)", KERNEL_CONTEXT),
                       parse_expr("step(t-s)", KERNEL_CONTEXT), (), True)
        validate_kernel_derivative(kd)


def test_unknown_catalog_names():
    with pytest.raises(KeyError, match="unknown catalog kernel"):
        kernel_from_catalog("nope")
    with pytest.raises(KeyError, match="unknown catalog boundary function"):
        gamma_from_catalog("nope")
