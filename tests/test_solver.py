import math
import pickle
from dataclasses import fields

import numpy as np
import pytest

import hammcert as hc
from hammcert import (DiscreteState, EvalDomainError, ModelViolationError, Params,
                      SolverConfig, apply_T, cone_membership, localization_check,
                      residual, solve_fixed_point, zero_state)
from hammcert import constants, solver
from hammcert.certify import SweepAxis, sweep
from hammcert.cone import sample_cone_boundary_rng
from hammcert.expr import eval_functional, eval_scalar
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
        p = Params.from_spec(example_spec).with_overrides(
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
        p = Params.from_spec(example_spec).with_overrides(
            {"lambda1": 0, "lambda2": 0, "eta11": 0, "eta21": 0})
        assert residual(example_spec, zero_state(2, 128), params=p) == 0.0


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
        p = Params.from_spec(example_spec).with_overrides(
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
        again = residual(example_spec, example_solution.state)
        assert again == pytest.approx(example_solution.residual, abs=1e-12)

    def test_nystrom_consistency(self, example_spec, example_cc, example_solution):
        rep2 = solve_fixed_point(example_spec, cfg=SolverConfig(nodes=256),
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
        rep = solve_fixed_point(spec, cfg=cfg)
        assert not rep.converged
        assert any("not converged" in n for n in rep.notes)
        assert np.isfinite(rep.residual) or rep.residual == np.inf

    def test_stagnation_halves_damping_once(self):
        # bounded growth keeps the divergence finite long enough for the
        # stagnation detector to halve the damping before giving up
        spec = single_component_spec(
            "example-k1", lam=200.0, f="1 + pos(u1)", w="1",
            envelope={"phi0": "3/4"})
        rep = solve_fixed_point(spec, cfg=SolverConfig(max_iterations=115))
        assert not rep.converged
        assert any("damping halved" in n for n in rep.notes)
        assert rep.damping_final == pytest.approx(0.25)


class TestConfig:
    def test_damping_range(self):
        with pytest.raises(ValueError):
            SolverConfig(damping=0.0)
        with pytest.raises(ValueError):
            SolverConfig(damping=1.5)

    def test_initial_mode(self):
        with pytest.raises(ValueError):
            SolverConfig(initial="random")


class TestLocalization:
    def test_inside(self, example_solution):
        assert localization_check(example_solution, 1e-3, 1.0)

    def test_zero_outside(self, example_spec, example_cc):
        p = Params.from_spec(example_spec).with_overrides(
            {"lambda1": 0, "lambda2": 0, "eta11": 0, "eta21": 0})
        rep = solve_fixed_point(example_spec, params=p)
        assert not localization_check(rep, 1e-3, 1.0)

    def test_sentinel_interval(self, example_solution):
        assert localization_check(example_solution, 0.0, np.inf)


class TestConeInvariance:
    def test_apply_T_maps_cone_to_cone(self, example_spec, example_cc):
        rng = np.random.default_rng(example_spec.seed)
        for _ in range(50):
            u = sample_cone_boundary_rng(example_spec, example_cc, 1.0, rng)
            Tu = apply_T(example_spec, u)
            assert cone_membership(Tu, example_cc, slack=1e-9).member


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


# recorded before Hermite bases were tabulated and the DSL compiled; the
# solved state, the sweep rows and the zero-state residual must not move
# (recorded with numpy 2.4.6 on x86-64, as REPORT_PINS in test_bounds.py)
SESSION_PINS = {
    "example": {
        "state": "acd8faf823813dd4b45e7964e82eba6c300c6749e131b59c6fa4b0fd53c22690",
        "iterations": 31, "residual": "0x1.216ed80000000p-34",
        "margins": ["0x1.29a4203aed788p-7", "0x0.0p+0"],
        "sweep": "d20dbf9451b64878575eafcc2dd9035ebfbc14cf109d56002de0a7ac1a905701",
        "zero_residual": "0x1.999999999999ap-5",
    },
    "tight": {
        "state": "e2069b5fd2ee4aeab3a0bc464abdd37e4f3285aa08802c694815930ec748409a",
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
    quad = quad or spec.quad
    op = solver._operator(spec, u.num_panels, quad.gauss_order)
    got = apply_T(spec, u, quad, params)
    ref = ref_apply(op, u, params, quad)
    assert got.nodes.tobytes() == ref.nodes.tobytes()
    assert state_digest(got) == state_digest(ref)
    return state_digest(got)


class TestSplitOperatorOracle:
    @pytest.mark.parametrize("config", ["example", "tight"])
    def test_matches_reference(self, config, request):
        spec = request.getfixturevalue(f"{config}_spec")
        cc = request.getfixturevalue(f"{config}_cc")
        base = Params.from_spec(spec)
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
        params = Params.from_spec(spec)
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
        op = solver._operator(spec, 128, spec.quad.gauss_order)
        z = zero_state(1, 128)
        base = Params.from_spec(spec)
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

    def test_equal_specs_share_cache_entries(self, example_cc):
        a = hc.load_config(hc.example_config_path())
        b = hc.load_config(hc.example_config_path())
        assert solver._operator(a, 128, a.quad.gauss_order) is \
            solver._operator(b, 128, b.quad.gauss_order)
        assert constants._assemble_cached(a, a.quad, a.opt) is \
            constants._assemble_cached(b, b.quad, b.opt)
