import math
import pickle
from contextlib import nullcontext
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy._core._multiarray_umath import __cpu_features__ as _CPU_FEATURES

import hammcert as hc
from hammcert import (DiscreteState, EvalDomainError, ModelViolationError, Params,
                      SolverConfig, apply_T, cone_membership, residual,
                      solve_fixed_point, zero_state)
from hammcert import constants, solver
from hammcert.certify import SweepAxis, sweep
from hammcert.cone import _unchecked, c1_norm, sample_cone_boundary_rng
from hammcert.expr import _enclose, eval_functional, eval_scalar
from conftest import digest, single_component_spec, state_digest, trig_state


def parabola(nodes, peak):
    return peak - nodes ** 2 / 2


class TestApplyT:
    def test_linear_k1_oracle(self, linear_k1_spec):
        # closed form: (Tu)(t) = 3/8 - t^2/2, (Tu)'(t) = -t, any u
        for u in (zero_state(1, 128), trig_state(2)):
            Tu = apply_T(linear_k1_spec, u)
            assert np.max(np.abs(Tu.values[0] - parabola(Tu.nodes, 3 / 8))) <= 1e-12
            assert np.max(np.abs(Tu.derivatives[0] + Tu.nodes)) <= 1e-12

    def test_linear_k1_satisfies_bvp_side_conditions(self, linear_k1_spec):
        # the image satisfies (1/4) u'(1) + u(1/2) = 0 identically
        Tu = apply_T(linear_k1_spec, zero_state(1, 128))
        lhs = 0.25 * Tu.derivative(0, 1.0) + Tu.value(0, 0.5)
        assert abs(lhs) <= 1e-12

    def test_linear_k2_oracle(self, linear_k2_spec):
        # doubles as the independent oracle for 1/m_{2,0} = 17/40
        Tu = apply_T(linear_k2_spec, zero_state(1, 128))
        assert np.max(np.abs(Tu.values[0] - parabola(Tu.nodes, 17 / 40))) <= 1e-12
        assert np.max(np.abs(Tu.derivatives[0] + Tu.nodes)) <= 1e-12

    def test_zero_parameters_give_zero(self, example_spec):
        p = example_spec.params.with_overrides(
            {"lambda1": 0, "lambda2": 0, "eta11": 0, "eta21": 0})
        Tu = apply_T(example_spec, trig_state(1, n=2), params=p)
        assert np.all(Tu.values == 0.0) and np.all(Tu.derivatives == 0.0)

    def test_negative_f_rejected(self):
        spec = single_component_spec("example-k1", f="u1", w="1",
                                     envelope={"phi0": "3/4"})
        u = trig_state(3)  # sign-changing, so f = u1 goes negative
        with pytest.raises(ModelViolationError, match="C4"):
            apply_T(spec, u)

    def test_breakpoint_must_sit_on_node(self, linear_k1_spec):
        # 99 panels put no node at s = 0.5
        from hammcert import ConfigError
        with pytest.raises(ConfigError, match="breakpoint"):
            apply_T(linear_k1_spec, zero_state(1, 99))


class TestResidual:
    def test_exact_fixed_point(self, linear_k1_spec):
        nodes = np.linspace(0, 1, 129)
        u = DiscreteState(nodes, parabola(nodes, 3 / 8)[None, :], (-nodes)[None, :])
        assert residual(linear_k1_spec, u) <= 1e-10

    def test_zero_state_residual_is_norm_of_image(self, linear_k1_spec):
        # T(0) = 3/8 - t^2/2 whose C1 norm is 1 (sup of |derivative|)
        assert residual(linear_k1_spec, zero_state(1, 128)) == \
            pytest.approx(1.0, abs=1e-12)

    def test_zero_problem(self, example_spec):
        p = example_spec.params.with_overrides(
            {"lambda1": 0, "lambda2": 0, "eta11": 0, "eta21": 0})
        assert residual(example_spec, zero_state(2, 128), params=p) == 0.0


def gamma_term_spec(f="1"):
    """k = k1, f, and one term eta * 1 * (1 - 2t), so max |gamma'| = 2."""
    return single_component_spec(
        "example-k1", f=f, envelope={"phi0": "3/4"},
        gammas=[{"gamma": "1 - 2*t", "dgamma": "-2", "eta": 1.0, "h": "1"}])


# parameters near the double maximum, under the suite's warnings-as-errors
# filter: each ends in a typed error from residual and a diverged solve
# (f, lambda, eta, the error)
OVERFLOW_CASES = {
    # eta * max |gamma'| = 2e308
    "term": ("1", 1.0, 1e308,
             "non-finite result in subexpression 'eta11 * h_11 * gamma_11'"),
    # lambda * max |int dk/dt f| = 1e308 * 2
    "lambda-term": ("2", 1e308, 1e-300,
                    "non-finite result in subexpression 'lambda1 * int(k_1 * f_1)'"),
    # each term is finite; their derivatives at t = 1 sum to -1.9e308
    "sum": ("1", 1e308, 0.45e308,
            "non-finite sum in subexpression 'eta11 * h_11 * gamma_11'"),
    # T(0) is finite, but its derivative interpolant overflows in the norm
    "norm": ("1", 0.5e308, 0.2e308,
             "non-finite C1 norm in subexpression 'T(u) - u'"),
}


@pytest.mark.parametrize("number", [float, np.float64])
@pytest.mark.parametrize("case", sorted(OVERFLOW_CASES))
def test_overflow_is_a_typed_error(case, number):
    f, lam, eta, message = OVERFLOW_CASES[case]
    spec = gamma_term_spec(f)
    p = Params((number(lam),), ((number(eta),),))
    with pytest.raises(EvalDomainError) as err:
        residual(spec, zero_state(1, 128), params=p)
    assert str(err.value) == message
    rep = solve_fixed_point(spec, params=p)
    assert not rep.converged and rep.residual == math.inf
    assert rep.notes[0] == f"iteration diverged at step 1: {message}"


def test_large_finite_lambda_term_is_exact():
    # the largest entry of lambda times k1's term, 1.2e308, is finite: T is
    # lambda times the term, bit for bit
    spec = gamma_term_spec("2")
    big, one = (apply_T(spec, zero_state(1, 128), params=Params((lam,), ((0.0,),)))
                for lam in (0.6e308, 1.0))
    assert np.isfinite(big.derivatives).all()
    assert np.array_equal(big.values, 0.6e308 * one.values)
    assert np.array_equal(big.derivatives, 0.6e308 * one.derivatives)


def test_large_finite_residual_is_returned():
    # past the bound that lets the norm run with warnings on, but no sum
    # overflows: the value is max |T(0)'|, 2 * 4e305 up to rounding
    p = Params((1.0,), ((4e305,),))
    r = residual(gamma_term_spec(), zero_state(1, 128), params=p)
    assert r == pytest.approx(8e305, rel=1e-12)


# the overflow guard of the parent, which proved from a-priori bounds that
# a term's arithmetic and the residual norm could not overflow and ran them
# with numpy's warnings on where the proof held: the oracle of the checks
# that read what was computed
def ref_add_term(value, deriv, bound, term, a, v, d, top):
    product = abs(a * top)
    if not math.isfinite(product):
        raise EvalDomainError("non-finite result", solver._term_text(*term))
    bound += product
    safe = math.isfinite(bound)
    with nullcontext() if safe else np.errstate(over="ignore", invalid="ignore"):
        value += a * v
        deriv += a * d
    if not (safe or np.isfinite(value).all() and np.isfinite(deriv).all()):
        raise EvalDomainError("non-finite sum", solver._term_text(*term))
    return bound


def ref_residual_norm(Tu, u):
    m = float(np.abs(np.concatenate((Tu.values, u.values, Tu.derivatives,
                                     u.derivatives), axis=None)).max())
    safe = math.isfinite(16.0 * m / float(u.nodes[1] - u.nodes[0]))
    with nullcontext() if safe else np.errstate(over="ignore", invalid="ignore"):
        norm = c1_norm(_unchecked(u.nodes, Tu.values - u.values,
                                  Tu.derivatives - u.derivatives)).overall
    if not math.isfinite(norm):
        raise EvalDomainError("non-finite C1 norm", "T(u) - u")
    return norm


def outcome(compute):
    """The bytes compute returns, or the text of its EvalDomainError."""
    try:
        return b"".join(x.tobytes() for x in compute())
    except EvalDomainError as e:
        return str(e)


def fold_terms(terms, reference):
    """One component's value and derivative rows after its (a, v, d) terms,
    the first its lambda term, added as apply adds them: through the bound
    guard, threading the bound and taking the largest |entry| of v and d as
    each term's top, or through solver._add_term."""
    value, deriv = np.zeros(terms[0][1].size), np.zeros(terms[0][1].size)
    bound = 0.0
    for k, (a, v, d) in enumerate(terms):
        term = (0, None if k == 0 else k - 1)
        if reference:
            top = float(np.abs(np.concatenate((v, d))).max())
            bound = ref_add_term(value, deriv, bound, term, a, v, d, top)
        else:
            solver._add_term(value, deriv, term, a, v, d)
    return value, deriv


# Python floats, as apply passes them: an np.float64 coefficient would make
# the parent's scalar a * top warn
COEFFICIENTS = [0.0, 1e-300, 1.0, 1e154, 1e308, 1.7e308, math.inf]
FINITE_ENTRIES = [0.0, -0.0, 1.0, 1e308, -1e308]
ENTRIES = FINITE_ENTRIES + [math.inf, -math.inf, math.nan]


@st.composite
def term_rows(draw, size=3):
    # two terms in three have finite rows, one of them of one sign, and
    # about one coefficient in two is 1, so that sums overflow too
    pool = draw(st.sampled_from([FINITE_ENTRIES, [1.0, 1e308], ENTRIES]))
    entries = draw(st.lists(st.sampled_from(pool), min_size=2 * size,
                            max_size=2 * size))
    a = draw(st.one_of(st.just(1.0), st.sampled_from(COEFFICIENTS)))
    return a, *np.array(entries).reshape(2, size)


@settings(max_examples=100, deadline=None, database=None)
@given(st.lists(term_rows(), min_size=1, max_size=4))
@example([(1e154, np.array([1e308, 0.0, 1.0]), np.zeros(3))])  # a product overflows
@example([(0.0, np.zeros(3), np.array([0.0, math.inf, 1.0]))])  # 0 * inf
@example([(math.inf, np.zeros(3), np.zeros(3))])  # inf * 0
@example([(1.0, np.array([1e308, 0.0, 1.0]), np.zeros(3))] * 2)  # a sum overflows
@example([(1.7e308, np.array([1.0, -1.0, 0.0]), np.zeros(3)),  # sums near the top
          (1.0, np.array([-1e308, 1e308, 0.0]), np.array([1e308, 0.0, -1e308]))])
def test_add_term_matches_the_bound_guard(terms):
    # under the suite's warnings-as-errors filter: a warning that escapes
    # either guard fails the test
    assert outcome(lambda: fold_terms(terms, reference=False)) == \
        outcome(lambda: fold_terms(terms, reference=True))


@pytest.mark.parametrize("value_scale", [1.0, 1e306, 1e308])
@pytest.mark.parametrize("deriv_scale", [1.0, 1e306, 0.5e308, 1.7e308])
@settings(max_examples=6, deadline=None, database=None)
@given(st.lists(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]), min_size=36,
                max_size=36))
def test_residual_norm_matches_the_bound_guard(value_scale, deriv_scale, fractions):
    # two one-component states on 8 panels, the widest the solver allows;
    # the bound guard ran the norm with numpy's warnings on for entries up
    # to about 1e306
    nodes = np.linspace(0.0, 1.0, 9)
    rows = np.array(fractions).reshape(2, 2, 9) * [[[value_scale], [deriv_scale]]]
    Tu, u = (_unchecked(nodes, v[None, :], d[None, :]) for v, d in rows)
    assert outcome(lambda: [np.float64(solver._residual_norm(Tu, u))]) == \
        outcome(lambda: [np.float64(ref_residual_norm(Tu, u))])


class TestSolve:
    def test_linear_k1_converges_to_oracle(self, linear_k1_spec):
        rep = solve_fixed_point(linear_k1_spec)
        assert rep.converged and rep.iterations <= 100
        err = np.max(np.abs(rep.state.values[0] - parabola(rep.state.nodes, 3 / 8)))
        assert err <= 1e-10

    def test_linear_k2_converges_to_oracle(self, linear_k2_spec):
        rep = solve_fixed_point(linear_k2_spec)
        assert rep.converged and rep.iterations <= 100
        err = np.max(np.abs(rep.state.values[0] - parabola(rep.state.nodes, 17 / 40)))
        assert err <= 1e-10

    def test_zero_problem_one_iteration(self, example_spec):
        p = example_spec.params.with_overrides(
            {"lambda1": 0, "lambda2": 0, "eta11": 0, "eta21": 0})
        rep = solve_fixed_point(example_spec, params=p)
        assert rep.converged and rep.iterations == 1
        assert rep.norms.overall == 0.0

    def test_example_solve(self, example_solution):
        rep = example_solution
        assert rep.converged
        assert rep.residual <= 1e-8
        assert rep.membership.member
        assert rep.norms.overall <= 1.0
        assert rep.norms.overall >= 1e-3  # nonzero, inside the certified annulus
        assert rep.localization

    def test_residual_recheck_matches(self, example_spec, example_solution):
        # the loop's last residual is residual() of the state it stopped at
        again = residual(example_spec, example_solution.state)
        assert again == example_solution.residual

    @pytest.mark.parametrize("config,iterations", [("example", 31), ("tight", 29)])
    def test_one_application_per_iteration(self, config, iterations, request,
                                           monkeypatch):
        spec = request.getfixturevalue(f"{config}_spec")
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return apply_T(*args, **kwargs)

        monkeypatch.setattr(solver, "apply_T", counted)
        rep = solve_fixed_point(spec)
        assert rep.converged and rep.iterations == iterations
        assert len(calls) == iterations

    def test_nystrom_consistency(self, example_spec, example_cc, example_solution):
        rep2 = solve_fixed_point(replace(example_spec, solver=SolverConfig(nodes=256)),
                                 cc=example_cc)
        assert rep2.converged
        diff = np.max(np.abs(rep2.state.values[:, ::2] - example_solution.state.values))
        assert diff <= 1e-8

    def test_derivative_consistency(self, example_solution):
        # stored u' matches finite differences of u to O(h^2)
        u = example_solution.state
        h = u.nodes[1] - u.nodes[0]
        fd = (u.values[:, 2:] - u.values[:, :-2]) / (2 * h)
        assert np.max(np.abs(fd - u.derivatives[:, 1:-1])) <= 1e-3

    def test_supplied_initial_state(self, linear_k1_spec):
        start = trig_state(8)
        rep = solve_fixed_point(linear_k1_spec, initial_state=start)
        assert rep.converged

    def test_non_convergence_reported(self):
        # an expansive problem: lambda large makes damped Picard diverge
        spec = single_component_spec(
            "example-k1", lam=200.0, f="exp(u1)*w", w="1",
            envelope={"phi0": "3/4"})
        cfg = SolverConfig(max_iterations=120)
        rep = solve_fixed_point(replace(spec, solver=cfg))
        assert not rep.converged
        assert any("not converged" in n for n in rep.notes)
        assert np.isfinite(rep.residual) or rep.residual == np.inf

    def test_stagnation_halves_damping_once(self):
        # bounded growth keeps the divergence finite long enough for the
        # stagnation detector to halve the damping before giving up
        spec = single_component_spec(
            "example-k1", lam=200.0, f="1 + pos(u1)", w="1",
            envelope={"phi0": "3/4"})
        rep = solve_fixed_point(replace(spec, solver=SolverConfig(max_iterations=115)))
        assert not rep.converged
        assert any("damping halved" in n for n in rep.notes)
        assert rep.damping_final == pytest.approx(0.25)


def stack_of_two(u):
    return DiscreteState(u.nodes, np.stack([u.values, 2 * u.values]),
                         np.stack([u.derivatives, 2 * u.derivatives]))


class TestStackRejected:
    """The one-state entry points reject a stack of states by name."""

    @pytest.mark.parametrize("zero", [False, True], ids=["params", "zero-params"])
    def test_apply_T(self, example_spec, zero):
        # with every lambda and eta at 0 the operator reads no state, so only
        # the entry check can see the stack
        p = example_spec.params
        if zero:
            p = p.with_overrides({"lambda1": 0, "lambda2": 0, "eta11": 0, "eta21": 0})
        with pytest.raises(ValueError, match=r"^apply_T takes one state, not a "
                                             r"stack of 2$"):
            apply_T(example_spec, stack_of_two(trig_state(1, n=2)), params=p)

    def test_residual(self, example_spec):
        with pytest.raises(ValueError, match=r"^residual takes one state"):
            residual(example_spec, stack_of_two(trig_state(1, n=2)))

    def test_solve_fixed_point(self, example_spec):
        with pytest.raises(ValueError, match=r"^solve_fixed_point takes one state"):
            solve_fixed_point(example_spec, initial_state=stack_of_two(zero_state(2)))


class TestConfig:
    def test_damping_range(self):
        with pytest.raises(ValueError):
            SolverConfig(damping=0.0)
        with pytest.raises(ValueError):
            SolverConfig(damping=1.5)

    @pytest.mark.parametrize("kwargs,message", [
        ({"tol": math.nan}, "tol must be a finite number > 0"),
        ({"tol": 0.0}, "tol must be a finite number > 0"),
        ({"max_iterations": 0}, "max_iterations must be >= 1"),
    ], ids=["nan-tol", "zero-tol", "no-iterations"])
    def test_settings_a_solve_never_meets(self, kwargs, message):
        # a residual is >= 0, so no iteration meets tol <= 0 or NaN
        with pytest.raises(ValueError, match=f"^{message}$"):
            SolverConfig(**kwargs)


class TestLocalization:
    def test_inside(self, example_solution):
        assert example_solution.rho_interval == (1e-3, 1.0)
        assert example_solution.localization is True

    def test_zero_outside(self, example_spec, example_cc):
        p = example_spec.params.with_overrides(
            {"lambda1": 0, "lambda2": 0, "eta11": 0, "eta21": 0})
        rep = solve_fixed_point(example_spec, params=p, rho_interval=(1e-3, 1.0))
        assert rep.norms.overall == 0.0 and rep.localization is False

    @pytest.mark.parametrize("interval,got", [
        ((1.0, 1e-3), "1.0 >= 0.001"), ((1.0, 1.0), "1.0 >= 1.0"),
        ((math.nan, 1.0), "nan and 1.0, which NaN leaves unordered"),
        ((1e-3, math.nan), "0.001 and nan, which NaN leaves unordered")],
        ids=[f"interval{i}" for i in range(4)])  # the ids of the intervals alone
    def test_radii_out_of_order_raise(self, example_spec, interval, got):
        # (1, 1e-3) and (nan, 1) solved and reported localization False; the
        # order rule is the certificates' and the CLI's, and a NaN fails it
        # without an order to print
        with pytest.raises(hc.ConfigError) as err:
            solve_fixed_point(example_spec, rho_interval=interval)
        assert str(err.value) == f"rho1/rho2: need rho1 < rho2, got {got}"

    def test_sentinel_interval(self, example_spec, example_solution):
        # started at the solution, the solve stops there at once
        rep = solve_fixed_point(example_spec, rho_interval=(0.0, np.inf),
                                initial_state=example_solution.state)
        assert rep.iterations == 1 and rep.state is example_solution.state
        assert rep.localization is True


class TestConeInvariance:
    def test_apply_T_maps_cone_to_cone(self, example_spec, example_cc):
        rng = np.random.default_rng(example_spec.seed)
        for _ in range(50):
            u = sample_cone_boundary_rng(example_spec, example_cc, 1.0, rng)
            Tu = apply_T(example_spec, u)
            assert cone_membership(Tu, example_cc).member


def session_pins(spec, cc):
    rep = solve_fixed_point(spec, cc=cc, rho_interval=(1e-3, 1.0))
    # criterion 9's lambda1 x eta11 grid, with nonexistence at every point
    axes = [SweepAxis("lambda1", 0.0, 0.1, 11), SweepAxis("eta11", 0.0, 0.5, 11)]
    swept = sweep(spec, cc, axes, mode="Sstar", db1=spec.bounds_at(1e-3),
                  db2=spec.bounds_at(1.0), i0=1,
                  nonexistence={"db": spec.bounds_at(1.0), "setI": [2], "setJ": [1]})
    return {"state": state_digest(rep.state), "iterations": rep.iterations,
            "residual": rep.residual.hex(),
            "margins": [m.hex() for m in rep.membership.margins],
            "sweep": digest(swept.rows),
            "zero_residual": residual(spec, zero_state(spec.n, spec.solver.nodes)).hex()}


# numpy's AVX-512 exp and power differ from its AVX2 ones in the last bit for
# a few percent of arguments, and f is evaluated with them: so the solved
# state has one digest per SIMD dispatch level, the AVX-512 one (X86_V4) and
# the one of a CPU without AVX-512 (X86_V3, recorded in an interpreter run
# under NPY_ENABLE_CPU_FEATURES="X86_V2 X86_V3"), 11 of example's 516 doubles
# and 10 of tight's apart by at most 2 ulps.  Every other pin holds at both.
AVX512 = bool(_CPU_FEATURES.get("AVX512_SKX"))

# recorded before Hermite bases were tabulated and the DSL compiled; the
# solved state, the sweep rows and the zero-state residual must not move
# (recorded with numpy 2.4.6 on x86-64, as REPORT_PINS in test_bounds.py)
SESSION_PINS = {
    "example": {
        "state": "acd8faf823813dd4b45e7964e82eba6c300c6749e131b59c6fa4b0fd53c22690"
        if AVX512 else "a277e9b0aefbb415b0e1bf47048f661c298e9e2749dd3010ad3f34d4e6a223b9",
        "iterations": 31, "residual": "0x1.216ed80000000p-34",
        "margins": ["0x1.29a4203aed788p-7", "0x0.0p+0"],
        "sweep": "d20dbf9451b64878575eafcc2dd9035ebfbc14cf109d56002de0a7ac1a905701",
        "zero_residual": "0x1.999999999999ap-5",
    },
    "tight": {
        "state": "e2069b5fd2ee4aeab3a0bc464abdd37e4f3285aa08802c694815930ec748409a"
        if AVX512 else "6870dab862ab02c162c5fba3756fe93d6ea9c20293cdcf27cae015185587c188",
        "iterations": 29, "residual": "0x1.66d1ed0000000p-34",
        "margins": ["0x1.312a6e1de08e8p-8", "0x0.0p+0"],
        "sweep": "093282cda723053b0031ffa4ce83c84148f19208a3bf4384cdfdb4a36063eee5",
        "zero_residual": "0x1.02eaa50bad385p-6",
    },
}


@pytest.mark.parametrize("config", ["example", "tight"])
def test_session_outputs_pinned(config, request):
    spec = request.getfixturevalue(f"{config}_spec")
    cc = request.getfixturevalue(f"{config}_cc")
    assert session_pins(spec, cc) == SESSION_PINS[config]


def ref_apply(op, u, params, quad):
    """The operator application as one loop over components, evaluating
    every functional and nonlinearity on u at each call."""
    spec = op.spec
    n = spec.n
    uq = u.value(slice(None), op.pts)
    duq = u.derivative(slice(None), op.pts)
    values = np.zeros((n, op.nodes.size))
    derivs = np.zeros_like(values)
    for i, comp in enumerate(spec.components):
        lam = params.lambdas[i]
        if lam > 0.0:
            w_i = eval_functional(comp.w, u, quad, nonneg_condition="C8")
            env = {"t": op.pts, "w": w_i}
            for k in range(n):
                env[f"u{k + 1}"] = uq[k]
                env[f"du{k + 1}"] = duq[k]
            F = np.broadcast_to(np.asarray(eval_scalar(comp.f, env), dtype=float),
                                op.pts.shape)
            fmin = float(F.min())
            if fmin < -1e-12:
                j = int(np.argmin(F))
                raise ModelViolationError(
                    "C4", f"nonlinearity of component {i + 1} is negative "
                          f"({fmin:.3e}) at s={op.pts[j]:.6f}")
            wf = op.wts * F
            values[i] += lam * (op.k_val[i] @ wf)
            derivs[i] += lam * (op.k_der[i] @ wf)
        for j, term in enumerate(comp.gammas):
            eta = params.etas[i][j]
            if eta > 0.0:
                h_ij = eval_functional(term.h, u, quad, nonneg_condition="C7")
                values[i] += eta * h_ij * op.gamma_val[i][j]
                derivs[i] += eta * h_ij * op.gamma_der[i][j]
    return DiscreteState(op.nodes, values, derivs)


def assert_same_image(spec, u, params, quad=None):
    spec = replace(spec, quad=quad or spec.quad)
    op = solver._operator(spec, u.num_panels)
    got = apply_T(spec, u, params=params)
    ref = ref_apply(op, u, params, spec.quad)
    assert got.nodes.tobytes() == ref.nodes.tobytes()
    assert state_digest(got) == state_digest(ref)
    return state_digest(got)


class TestSplitOperatorOracle:
    @pytest.mark.parametrize("config", ["example", "tight"])
    def test_matches_reference(self, config, request):
        spec = request.getfixturevalue(f"{config}_spec")
        cc = request.getfixturevalue(f"{config}_cc")
        base = spec.params
        param_sets = [base,
                      base.with_overrides({"lambda1": 0, "eta21": 0}),
                      base.with_overrides({"lambda2": 0, "eta11": 0}),
                      base.with_overrides({"lambda1": 0, "lambda2": 0}),
                      base.with_overrides({"eta11": 0, "eta21": 0})]
        nodes = np.linspace(0.0, 1.0, 129)
        neg_zero = np.full((2, nodes.size), -0.0)
        states = [sample_cone_boundary_rng(spec, cc, rho, np.random.default_rng(seed))
                  for seed, rho in ((1, 1.0), (2, 1e-3), (3, 0.5))]
        states += [DiscreteState(nodes, neg_zero, np.zeros_like(neg_zero)),
                   DiscreteState(nodes, np.zeros_like(neg_zero), neg_zero),
                   # zero values on nodes whose bytes differ from linspace's
                   DiscreteState(np.arange(101) / 100, np.zeros((2, 101)),
                                 np.zeros((2, 101)))]
        for u in states:
            for params in param_sets:
                assert_same_image(spec, u, params)
        for params in param_sets:
            for _ in range(2):
                assert_same_image(spec, zero_state(2, 128), params)

    def test_zero_state_contributions_kept_per_quad(self):
        # a kink at s = 1/3, off the nodes, makes h depend on the tolerances
        spec = single_component_spec(
            "example-k1", envelope={"phi0": "3/4"},
            gammas=[{"gamma": "example-gamma11", "eta": 0.5,
                     "h": "int(sqrt(abs(s - 1/3)))"}])
        coarse = hc.QuadConfig(rel_tol=1e-4, abs_tol=1e-6)
        params = spec.params
        images = [assert_same_image(spec, zero_state(1, 128), params, quad)
                  for quad in (spec.quad, coarse, spec.quad, coarse)]
        assert images[0] != images[1]

    def test_sweep_with_nonexistence_evaluates_no_functional(
            self, example_spec, example_cc, monkeypatch):
        spec = example_spec
        solver._operator.cache_clear()
        seen = []

        def counting(fx, *args, **kwargs):
            seen.append(fx)
            return eval_functional(fx, *args, **kwargs)

        monkeypatch.setattr(solver, "eval_functional", counting)
        axes = [SweepAxis("lambda1", 0.0, 0.1, 11), SweepAxis("eta11", 0.0, 0.5, 11)]
        swept = sweep(spec, example_cc, axes, mode="Sstar",
                      db1=spec.bounds_at(1e-3), db2=spec.bounds_at(1.0), i0=1,
                      nonexistence={"db": spec.bounds_at(1.0), "setI": [2],
                                    "setJ": [1]})
        assert len(swept.rows) == 121
        assert seen == []

    def test_failing_contribution_raises_at_every_point(self):
        spec = single_component_spec(
            "example-k1", f="w", w="1/int(u1^2)", envelope={"phi0": "3/4"},
            gammas=[{"gamma": "example-gamma11", "eta": 0.5,
                     "h": "val(1, 1/2)^2 + 1"}])
        op = solver._operator(spec, 128)
        z = zero_state(1, 128)
        base = spec.params
        lambdas = SweepAxis("lambda1", 0.0, 0.1, 5).grid().tolist()
        for lam in lambdas + lambdas[::-1]:
            params = base.with_overrides({"lambda1": lam})
            if lam == 0.0:
                assert_same_image(spec, z, params)
                assert np.any(apply_T(spec, z, params=params).values != 0.0)
                continue
            with pytest.raises(EvalDomainError) as ref_err:
                ref_apply(op, z, params, spec.quad)
            for _ in range(2):
                with pytest.raises(EvalDomainError) as err:
                    apply_T(spec, z, params=params)
                assert str(err.value) == str(ref_err.value)


def count_hermite_calls(monkeypatch):
    """Record (method, point-set shape) of every Hermite interpolation."""
    calls = []
    for name in ("value", "derivative"):
        method = getattr(DiscreteState, name)

        def counting(self, comp, x, _method=method, _name=name):
            calls.append((_name, np.shape(x)))
            return _method(self, comp, x)

        monkeypatch.setattr(DiscreteState, name, counting)
    return calls


def test_int_atoms_share_two_hermite_calls_per_state(example_spec, example_cc,
                                                     monkeypatch):
    spec = example_spec
    u = sample_cone_boundary_rng(spec, example_cc, 1.0, np.random.default_rng(5))
    apply_T(spec, u)  # the operator is built once per spec
    fresh = DiscreteState(u.nodes, u.values.copy(), u.derivatives.copy())
    calls = count_hermite_calls(monkeypatch)
    apply_T(spec, fresh)
    fp = hc.quad.first_pass_layout(0.0, 1.0, fresh.interior_nodes(),
                                   spec.quad.gauss_order)
    # the Nystrom points are the whole-panel points of the int atoms' layout:
    # the operator and the int atoms (w_1 and h_21 share int(du1^2), w_2 has
    # its own) share one value and one derivative call there, and the atoms
    # one more of each at the half-panel points
    for points in (fp.whole_points, fp.half_points):
        assert [c for c in calls if c[1] == points.shape] == [
            ("value", points.shape), ("derivative", points.shape)]
    # plus one of each at the val/der atoms' one point, t0 = 1/2
    assert [c for c in calls if c[1] == (1,)] == [("value", (1,)),
                                                  ("derivative", (1,))]
    assert len(calls) == 6
    assert sum(math.prod(shape) for _, shape in calls) == 6146


def extra_attributes(obj) -> set:
    """The names in the __dict__ of every dataclass within obj, at any depth
    of its fields and tuples, that are not fields of that dataclass."""
    if isinstance(obj, tuple):
        return set().union(*map(extra_attributes, obj))
    if not is_dataclass(obj):
        return set()
    names = {f.name for f in fields(obj)}
    return (set(vars(obj)) - names).union(
        *(extra_attributes(getattr(obj, name)) for name in names))


class TestSpecHash:
    def test_equal_specs_hash_equal_and_stable(self, example_spec):
        again = hc.load_config(hc.example_config_path())
        assert again == example_spec and again is not example_spec
        field_hash = hash(tuple(getattr(again, f.name) for f in fields(again)))
        assert hash(again) == field_hash
        assert hash(again) == hash(again) == hash(example_spec)

    def test_pickle_leaves_the_memo_out(self, example_spec):
        hash(example_spec)
        assert "_hash" in example_spec.__dict__
        copy = pickle.loads(pickle.dumps(example_spec))
        assert copy == example_spec
        assert "_hash" not in copy.__dict__
        assert hash(copy) == hash(example_spec)

    def test_pickle_keeps_the_fields_only(self):
        # after the numpy, math and interval tables have all run on its
        # nodes and the spec has been hashed, a copy carries none of their
        # closures and no memo, and evaluates and hashes as the original
        spec = hc.load_config(hc.example_config_path())
        comp = spec.components[0]
        k, w, u = comp.kernel.k, comp.w, trig_state(3, n=2)
        at = {"t": 0.25, "s": 0.75}
        values = (eval_scalar(k, at), eval_functional(w, u),
                  _enclose(k, {v: (np.float64(x),) * 2 for v, x in at.items()}))
        hash(spec)
        assert {"_compiled", "_functional", "_interval", "_hash"} <= extra_attributes(spec)
        copy = pickle.loads(pickle.dumps(spec))
        assert extra_attributes(copy) == set()
        assert copy == spec and hash(copy) == hash(spec)
        comp = copy.components[0]
        assert (eval_scalar(comp.kernel.k, at), eval_functional(comp.w, u),
                _enclose(comp.kernel.k, {v: (np.float64(x),) * 2 for v, x in at.items()})
                ) == values
        kernel = pickle.loads(pickle.dumps(k))
        assert extra_attributes(kernel) == set() and kernel == k
        assert hash(kernel) == hash(k) and eval_scalar(kernel, at) == values[0]

    def test_equal_specs_share_cache_entries(self, example_cc):
        a = hc.load_config(hc.example_config_path())
        b = hc.load_config(hc.example_config_path())
        assert solver._operator(a, 128) is solver._operator(b, 128)
        assert constants._assemble_cached(a) is constants._assemble_cached(b)
