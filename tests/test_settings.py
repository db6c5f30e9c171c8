"""Numerical settings come from the spec's quad, opt and solver sections."""

import math
from dataclasses import replace

import numpy as np
import pytest

import hammcert as hc
import hammcert.constants as constants_mod
from hammcert import ComponentBounds, DeclaredBounds, HBounds
from hammcert.cone import sample_cone_boundary_rng
from conftest import FAST_OPT, single_component_spec

COARSE = hc.QuadConfig(rel_tol=1e-4, abs_tol=1e-6)


@pytest.fixture(scope="module")
def kinked_spec():
    # h = int(sqrt(|s - 1/3|)) has its kink off the nodes, so its value
    # depends on the quadrature tolerances (and on nothing else)
    return single_component_spec(
        "example-k1", envelope={"phi0": "3/4"},
        gammas=[{"gamma": "example-gamma11", "eta": 0.5,
                 "h": "int(sqrt(abs(s - 1/3)))"}])


@pytest.fixture(scope="module")
def kinked_cc(kinked_spec):
    return hc.assemble_cone_constants(replace(kinked_spec, opt=FAST_OPT))


def per_quad(run, spec):
    """run under the spec's own quad and under COARSE."""
    return run(spec), run(replace(spec, quad=COARSE))


class TestQuadReachesEveryEntryPoint:
    def test_estimate_ranges(self, kinked_spec, kinked_cc):
        default, coarse = per_quad(
            lambda spec: hc.estimate_ranges(spec, kinked_cc, 1.0, samples=4,
                                            seed=1)["h"][0][0]["max"], kinked_spec)
        assert default != coarse

    def test_falsify_observed_value(self, kinked_spec, kinked_cc):
        db = DeclaredBounds(1.0, (ComponentBounds(h=(HBounds(hi=1e-6),)),))

        def observed(spec):
            rep = hc.falsify_bounds(spec, kinked_cc, db, samples=4, seed=1)
            (violation,) = [v for v in rep.violations if v.kind == "h_hi"]
            return violation.observed

        default, coarse = per_quad(observed, kinked_spec)
        assert default != coarse

    def test_zero_state_residual(self, kinked_spec, kinked_cc):
        db = DeclaredBounds(1.0, (ComponentBounds(xi_tilde=1.0,
                                                  h=(HBounds(xi=1.0),)),))

        def zero_residual(spec):
            cert = hc.nonexistence_certificate(spec, kinked_cc, db, [1], [])
            return cert.provenance["zero_state_residual"]

        default, coarse = per_quad(zero_residual, kinked_spec)
        assert default != coarse


def test_solver_section_sets_the_nodes(linear_k1_spec):
    rep = hc.solve_fixed_point(replace(linear_k1_spec,
                                       solver=hc.SolverConfig(nodes=256)))
    assert rep.converged and rep.state.nodes.size == 257


def test_opt_section_sets_the_grid_resolution(example_spec):
    spec = replace(example_spec, opt=FAST_OPT)
    report = hc.constants_report(spec, hc.assemble_cone_constants(spec))
    assert report["grid_resolution"] == 1 / 256


# the ids leave out the counts, so that a change of count keeps the test's name
@pytest.mark.parametrize("config,calls", [("example", 12), ("tight", 100)],
                         ids=["example", "tight"])
def test_one_sup_search_per_gamma_term(config, calls, request, monkeypatch):
    # gamma_c's sup-|gamma| search also gives the gamma_sup record; c~ of a
    # kernel monotone in t reads its inner extrema at the window's ends
    spec = request.getfixturevalue(f"{config}_spec")
    count = []
    search = constants_mod.extremum_1d

    def counted(*args, **kwargs):
        count.append(1)
        return search(*args, **kwargs)

    monkeypatch.setattr(constants_mod, "extremum_1d", counted)
    cold = constants_mod._assemble_cached.__wrapped__(spec)
    assert len(count) == calls
    cached = hc.assemble_cone_constants(spec)
    assert [dict(cci.records) for cci in cold] == [dict(cci.records) for cci in cached]


# (calls, points) of eval_k and eval_dk over one cold assembly.  c~ reads the
# window's and [0, 1]'s end rows of a kernel monotone in t in one call each;
# both kernels of the example and k_1 of tight.cfg are.  The sign scan of
# |k| and |dk/dt| skips the s-panels the interval table proves one-signed
@pytest.mark.parametrize("config,work", [
    ("example", {"eval_k": (534, 1_496_066), "eval_dk": (76, 318_960)}),
    ("tight", {"eval_k": (2_332, 9_588_100), "eval_dk": (933, 835_079)}),
], ids=["example", "tight"])
def test_kernel_work_of_one_assembly(config, work, request, monkeypatch):
    spec = request.getfixturevalue(f"{config}_spec")
    seen = {name: [0, 0] for name in work}
    for name in work:
        def counted(kd, t, s, name=name, evalf=getattr(constants_mod, name)):
            seen[name][0] += 1
            seen[name][1] += np.broadcast(t, s).size
            return evalf(kd, t, s)
        monkeypatch.setattr(constants_mod, name, counted)
    constants_mod._assemble_cached.__wrapped__(spec)
    assert {name: tuple(v) for name, v in seen.items()} == work


@pytest.mark.parametrize("old_call", [
    lambda spec, cc, u: hc.assemble_cone_constants(spec, spec.quad),
    lambda spec, cc, u: hc.constants_report(spec, cc, spec.opt),
    lambda spec, cc, u: hc.apply_T(spec, u, spec.quad),
    lambda spec, cc, u: hc.residual(spec, u, spec.quad),
    lambda spec, cc, u: hc.solve_fixed_point(spec, spec.solver),
    lambda spec, cc, u: hc.falsify_bounds(spec, cc, spec.bounds_at(1.0), 1, 1,
                                          spec.quad),
    lambda spec, cc, u: hc.estimate_ranges(spec, cc, 1.0, 1, 1, spec.quad),
    lambda spec, cc, u: hc.nonexistence_certificate(spec, cc, spec.bounds_at(1.0),
                                                    [2], [1], None, spec.quad),
    lambda spec, cc, u: hc.c_tilde(spec.components[0].kernel, cc[0].window,
                                   spec.components[0].envelope, spec.quad, spec.opt),
    lambda spec, cc, u: sample_cone_boundary_rng(spec, cc, 1.0,
                                                 np.random.default_rng(1), 128),
])
def test_old_positional_settings_raise(old_call, example_spec, example_cc):
    u = hc.zero_state(2, 128)
    with pytest.raises(TypeError):
        old_call(example_spec, example_cc, u)


@pytest.mark.parametrize("make,field", [
    (lambda: hc.QuadConfig(gauss_order=8.0), "gauss_order"),
    (lambda: hc.QuadConfig(max_subdivisions=True), "max_subdivisions"),
    (lambda: hc.Opt1DConfig(coarse_grid=256.5), "coarse_grid"),
    (lambda: hc.SolverConfig(nodes=128.0), "nodes"),
    (lambda: hc.SolverConfig(max_iterations="100"), "max_iterations"),
], ids=["gauss-order", "subdivisions", "coarse-grid", "nodes", "iterations"])
def test_hand_made_settings_check_their_integer_fields(make, field):
    # these failed later: gauss_order=8.0 at assembly ("deg must be an
    # integer"), nodes=128.0 and coarse_grid=256.5 in range or linspace
    with pytest.raises(ValueError, match=f"^{field} must be an integer$"):
        make()


@pytest.mark.parametrize("make,message", [
    (lambda: hc.SolverConfig(tol=True), "tol must be a finite number > 0"),
    (lambda: hc.SolverConfig(tol="x"), "tol must be a finite number > 0"),
    (lambda: hc.SolverConfig(damping=True), r"damping must lie in \(0, 1\]"),
    (lambda: hc.QuadConfig(rel_tol=True), "tolerances must be positive"),
    (lambda: hc.QuadConfig(rel_tol="x"), "tolerances must be positive"),
    (lambda: hc.QuadConfig(rel_tol=math.inf), "tolerances must be positive"),
    (lambda: hc.QuadConfig(rel_tol=10**400), "tolerances must be positive"),
    (lambda: hc.QuadConfig(abs_tol=math.inf), "tolerances must be positive"),
    (lambda: hc.Opt1DConfig(refine_tol=True), "refine_tol must be positive"),
    (lambda: hc.Opt1DConfig(refine_tol=math.inf), "refine_tol must be positive"),
], ids=["tol-bool", "tol-text", "damping-bool", "rel-tol-bool", "rel-tol-text",
        "rel-tol-inf", "rel-tol-huge", "abs-tol-inf", "refine-tol-bool", "refine-tol-inf"])
def test_hand_made_settings_check_their_float_fields(make, message):
    # each field is a finite number in its range: True was taken as 1.0, a
    # text raised a bare TypeError, and inf or 10**400 was accepted
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


def test_hand_made_settings_take_numpy_floats():
    assert hc.QuadConfig(rel_tol=np.float64(1e-8), abs_tol=np.float32(1e-9)).rel_tol == 1e-8
    assert hc.Opt1DConfig(refine_tol=np.float64(1e-10)).refine_tol == 1e-10
    assert hc.SolverConfig(tol=np.float64(1e-9), damping=np.float32(0.5)).damping == 0.5


def test_hand_made_settings_take_numpy_integers():
    assert hc.QuadConfig(gauss_order=np.int64(8)).gauss_order == 8
    assert hc.Opt1DConfig(coarse_grid=np.int32(256)).coarse_grid == 256
    assert hc.SolverConfig(nodes=np.int64(64), max_iterations=np.uint16(9)).nodes == 64
