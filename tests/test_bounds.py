import json
import math

import pytest

import hammcert as hc
from hammcert import (ComponentBounds, DeclaredBounds, HBounds,
                      estimate_ranges, falsify_bounds)
from conftest import digest, state_digest


def with_bounds(db, comp_index, **changes):
    comps = list(db.components)
    base = comps[comp_index]
    fields = {k: getattr(base, k) for k in
              ("w_lo", "w_hi", "f_hi", "f_lo", "delta_tilde", "xi_tilde", "h")}
    fields.update(changes)
    comps[comp_index] = ComponentBounds(**fields)
    return DeclaredBounds(db.rho, tuple(comps))


class TestFalsifier:
    def test_example_declarations_survive(self, example_spec, example_cc):
        rep = falsify_bounds(example_spec, example_cc, example_spec.bounds_at(1.0),
                             samples=300, seed=10)
        assert not rep.falsified, [v.detail for v in rep.violations]
        assert "w_hi[1]" in rep.checked and "f_hi[1]" in rep.checked

    def test_wrong_w_bound_found_with_witness(self, example_spec, example_cc):
        # sampled w1 values reach ~0.9, so an upper bound of 0.5 is wrong
        db = with_bounds(example_spec.bounds_at(1.0), 0, w_hi=0.5)
        rep = falsify_bounds(example_spec, example_cc, db, samples=300, seed=10)
        hits = [v for v in rep.violations if v.kind == "w_hi" and v.component == 1]
        assert hits and hits[0].witness is not None
        # soundness: re-evaluating the witness reproduces the violation
        v = hits[0]
        again = hc.eval_functional(example_spec.components[0].w, v.witness,
                                   example_spec.quad)
        assert again == pytest.approx(v.observed, abs=1e-12)
        assert again > 0.5

    def test_wrong_h_bound_found(self, example_spec, example_cc):
        db = with_bounds(example_spec.bounds_at(1.0), 0,
                         h=(HBounds(lo=0.0, hi=0.05, delta=0.0),))
        rep = falsify_bounds(example_spec, example_cc, db, samples=300, seed=11)
        hits = [v for v in rep.violations if v.kind == "h_hi"]
        assert hits and hits[0].count >= 1
        v = hits[0]
        again = hc.eval_functional(example_spec.components[0].gammas[0].h,
                                   v.witness, example_spec.quad)
        assert again == pytest.approx(v.observed, abs=1e-12)

    def test_wrong_f_bound_found(self, example_spec, example_cc):
        # f1 reaches 2e^2 at the box corner, so 1.0 is falsified by the grid
        db = with_bounds(example_spec.bounds_at(1.0), 0, f_hi=1.0)
        rep = falsify_bounds(example_spec, example_cc, db, samples=1, seed=1)
        hits = [v for v in rep.violations if v.kind == "f_hi"]
        assert hits and hits[0].point is not None
        # witness point evaluates above the bound
        p = hits[0].point
        env = {k: p[k] for k in ("t", "w", "u1", "u2", "du1", "du2")}
        val = hc.eval_scalar(example_spec.components[0].f, env)
        assert val == pytest.approx(hits[0].observed, abs=1e-12)
        assert val > 1.0

    def test_wrong_delta_tilde_found(self, example_spec, example_cc):
        # f1 >= 2 x1 fails near x1 = 1 (e * w_lo < 2)
        db = with_bounds(example_spec.bounds_at(1.0), 0, delta_tilde=2.0)
        rep = falsify_bounds(example_spec, example_cc, db, samples=1, seed=1)
        assert any(v.kind == "f_delta_tilde" for v in rep.violations)

    def test_xi_tilde_example_survives(self, example_spec, example_cc):
        # f2 <= |x2| holds on the box; the bundled declaration must survive
        rep = falsify_bounds(example_spec, example_cc, example_spec.bounds_at(1.0),
                             samples=1, seed=3)
        assert not any(v.kind == "f_xi_tilde" for v in rep.violations)

    def test_skips_without_w_range(self, example_spec, example_cc):
        db = with_bounds(example_spec.bounds_at(1.0), 0, w_lo=None, w_hi=None)
        rep = falsify_bounds(example_spec, example_cc, db, samples=1, seed=1)
        assert any(s.startswith("f-box[1]") for s in rep.skipped)

    def test_samples_validated(self, example_spec, example_cc):
        with pytest.raises(ValueError):
            falsify_bounds(example_spec, example_cc, example_spec.bounds_at(1.0),
                           samples=0, seed=1)


class TestEstimate:
    def test_ranges_inside_declared(self, example_spec, example_cc):
        est = estimate_ranges(example_spec, example_cc, 1.0, samples=200, seed=6)
        assert est["rigorous"] is False
        w2 = est["w"][1]
        assert math.exp(-4) <= w2["min"] <= w2["max"] <= 1.0
        w1 = est["w"][0]
        assert 1 / (1 + math.e) <= w1["min"] <= w1["max"] <= math.e

    def test_prefix_monotonicity(self, example_spec, example_cc):
        # same seed: the 100-sample range is contained in the 1000-sample one
        small = estimate_ranges(example_spec, example_cc, 1.0, samples=100, seed=8)
        large = estimate_ranges(example_spec, example_cc, 1.0, samples=1000, seed=8)
        for ws, wl in zip(small["w"], large["w"]):
            assert wl["min"] <= ws["min"] and ws["max"] <= wl["max"]
        for hs_comp, hl_comp in zip(small["h"], large["h"]):
            for hs, hl in zip(hs_comp, hl_comp):
                assert hl["min"] <= hs["min"] and hs["max"] <= hl["max"]

    def test_constant_functional_zero_variance(self):
        from conftest import single_component_spec
        spec = single_component_spec(
            "example-k1", w="2", envelope={"phi0": "3/4"},
            gammas=[{"gamma": "example-gamma11", "eta": 0.0, "h": "1"}])
        cc = hc.assemble_cone_constants(spec, opt_cfg=hc.Opt1DConfig(coarse_grid=256))
        est = estimate_ranges(spec, cc, 1.0, samples=50, seed=2)
        assert est["w"][0]["min"] == est["w"][0]["max"] == 2.0
        assert est["h"][0][0]["min"] == est["h"][0][0]["max"] == 1.0

    @pytest.mark.parametrize("key,condition", [("w", "C8"), ("h", "C7")])
    def test_negative_functional_cites_its_condition(self, example_cc, key,
                                                     condition):
        # estimate evaluates on the falsifier's samples, with its sign checks
        doc = json.loads(hc.example_config_path().read_text())
        comp = doc["components"][1]
        (comp["gammas"][0] if key == "h" else comp)[key] = "0 - 1"
        spec = hc.spec_from_dict(doc)
        with pytest.raises(hc.ModelViolationError, match=rf"\({condition}\)"):
            estimate_ranges(spec, example_cc, 1.0, samples=1, seed=1)
        with pytest.raises(hc.ModelViolationError, match=rf"\({condition}\)"):
            falsify_bounds(spec, example_cc, spec.bounds_at(1.0), samples=1, seed=1)

    def test_rho_validated(self, example_spec, example_cc):
        with pytest.raises(ValueError):
            estimate_ranges(example_spec, example_cc, 0.0, samples=10, seed=1)


def test_latin_hypercube_box_points():
    # beyond 8 dimensions the factorial grid gives way to a seeded LHS
    import numpy as np
    from hammcert.bounds import _box_points, LHS_POINTS
    lows = np.array([-1.0] * 9)
    highs = np.array([2.0] * 9)
    rng = np.random.default_rng(4)
    pts = _box_points(lows, highs, rng)
    assert pts.shape == (LHS_POINTS, 9)
    assert np.all(pts >= lows) and np.all(pts <= highs)
    # stratification: every 1/LHS_POINTS stratum of each dim holds one point
    strata = np.floor((pts - lows) / (highs - lows) * LHS_POINTS).astype(int)
    for d in range(9):
        assert len(set(strata[:, d].tolist())) == LHS_POINTS


def test_ball_sampling_includes_interior(example_spec, example_cc):
    rep = falsify_bounds(example_spec, example_cc, example_spec.bounds_at(1.0),
                         samples=100, seed=12, include_interior=True)
    assert not rep.falsified


def test_declared_bounds_invariants():
    with pytest.raises(ValueError, match="w_lo"):
        ComponentBounds(w_lo=2.0, w_hi=1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        ComponentBounds(w_lo=-1.0)
    with pytest.raises(ValueError, match="h_lo"):
        HBounds(lo=3.0, hi=1.0)
    with pytest.raises(ValueError, match="rho"):
        DeclaredBounds(0.0, ())


def planted_bounds(spec, x):
    """Declared bounds all equal to x.  At x = 0 every upper bound fails and
    at x = 100 every lower bound does, so the report records the extreme
    sampled value of every functional and f-box, with its witness."""
    return DeclaredBounds(1.0, tuple(ComponentBounds(
        w_lo=x, w_hi=x, f_hi=x, f_lo=x, delta_tilde=x, xi_tilde=x,
        h=tuple(HBounds(lo=x, hi=x, delta=x, xi=x) for _ in comp.gammas))
        for comp in spec.components))


def report_pins(spec, cc):
    out = {}
    for key, db, ball in (("upper", planted_bounds(spec, 0.0), False),
                          ("lower", planted_bounds(spec, 100.0), True)):
        rep = falsify_bounds(spec, cc, db, samples=100, seed=7, include_interior=ball)
        out[key] = [digest(rep.as_dict()),
                    digest([state_digest(v.witness) for v in rep.violations
                            if v.witness is not None])]
    out["estimate"] = digest(estimate_ranges(spec, cc, 1.0, samples=100, seed=7))
    return out


# recorded before Hermite bases were tabulated and the DSL compiled; every
# falsify and estimate report must stay bit-identical (recorded with numpy
# 2.4.6 on x86-64, whose exp/sin/cos may differ in the last bit elsewhere)
REPORT_PINS = {
    "example": {
        "upper": ["09710013f3c49fdd43876dd516fb9c27dcd23e0cc17bc87d328b667676b6c291",
                  "c1fdb419241598a0357a0a3beb6f190d8399ccdc4ede84a6c5c4ed8dbeadc81f"],
        "lower": ["11a3c5e72caae40d1be1a481ae4ef2a1616215bf9eb241f479705da5b70dca1f",
                  "d468bfa6fe8444601224a2124baf143aaebcda1f22bb8db7f31ad3637e943ee8"],
        "estimate": "d86cfdbe6a45e3ba712dedc2bf9b6898581f1c971730502ff7fc19361ce1ded1",
    },
    "tight": {
        "upper": ["5f53ba5d30b1a7c113b34ca6d993263df6013c417b614c7125365c4819211924",
                  "953a6e13e168053e6b36761d29123fa7e7ce2926242d70f977c366cb95f5d362"],
        "lower": ["4e12cdad8eba393c0d38ee5c14892460c973e10e0b97f3dda4a48adf655f2a9e",
                  "7729c4fe4003c9fea5351bb6c9cb5677e651880920ec2b400909ba4b21a0268a"],
        "estimate": "96b81ae56d1a7f1444a3d60310dd848d44b5ea1ac332abdb11686dd61e4c3c76",
    },
}


@pytest.mark.parametrize("config", ["example", "tight"])
def test_reports_pinned(config, request):
    spec = request.getfixturevalue(f"{config}_spec")
    cc = request.getfixturevalue(f"{config}_cc")
    assert report_pins(spec, cc) == REPORT_PINS[config]


def test_factorial_box_points_in_product_order():
    # the full-factorial grid lists its points as itertools.product does
    from itertools import product

    import numpy as np
    from hammcert.bounds import _box_points, FACTORIAL_POINTS
    lows = np.array([0.0, -1.0, -1.0, -1.0, -1.0, 1 / (1 + math.e)])
    highs = np.array([1.0, 1.0, 1.0, 1.0, 1.0, math.e])
    pts = _box_points(lows, highs, np.random.default_rng(1))
    axes = [np.linspace(lo, hi, FACTORIAL_POINTS) for lo, hi in zip(lows, highs)]
    want = np.array(list(product(*axes)))
    assert pts.shape == want.shape and pts.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# Stacked boundary pass

@pytest.fixture(scope="module")
def mixed_degenerate():
    """The example with component 2 replaced by a c = 1 component (constant
    kernel on the window [0, 1], no gamma terms), so that its samples are
    positive constants while component 1's are trig polynomials."""
    doc = json.loads(hc.example_config_path().read_text())
    comp = doc["components"][1]
    comp.update(kernel={"k": "1", "dk_dt": "0*t", "breakpoints": [],
                        "moving_breakpoint": False},
                window=[0, 1], envelope="tight", gammas=[])
    comp.pop("declared")
    doc.pop("bounds")
    spec = hc.spec_from_dict(doc)
    cc = hc.assemble_cone_constants(spec, opt_cfg=hc.Opt1DConfig(coarse_grid=256))
    assert cc[0].c < 1.0 and cc[1].c == 1.0
    return spec, cc


def pass_digest(spec, cc, samples, seed, ball):
    """Every sample of the boundary pass, bit for bit: the state, its sups
    and its functional values, and the generator's next draw."""
    import numpy as np
    from hammcert.bounds import _boundary_pass
    rng = np.random.default_rng(seed)
    rows = [(state_digest(u), sups, values) for u, sups, values in
            _boundary_pass(spec, cc, 1.0, samples, rng, spec.quad, ball, True)]
    return digest([rows, rng.uniform()])


@pytest.mark.parametrize("config", ["example", "tight", "mixed_degenerate"])
def test_stacks_match_one_state_at_a_time(config, request):
    from unittest import mock

    from hypothesis import given, settings
    from hypothesis import strategies as st

    from hammcert import bounds
    if config == "mixed_degenerate":
        spec, cc = request.getfixturevalue(config)
    else:
        spec = request.getfixturevalue(f"{config}_spec")
        cc = request.getfixturevalue(f"{config}_cc")
    size = bounds.STACK
    assert size > 1

    @settings(max_examples=15, deadline=None, database=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           samples=st.sampled_from([1, size - 1, size, size + 1]),
           ball=st.booleans())
    def check(seed, samples, ball):
        stacked = pass_digest(spec, cc, samples, seed, ball)
        with mock.patch.object(bounds, "STACK", 1):
            assert pass_digest(spec, cc, samples, seed, ball) == stacked

    check()


def test_stack_error_is_the_first_samples_error():
    # sample 2 (of seed 4) gives w < 0; sample 5 of the same stack makes the
    # int body take sqrt of a negative value.  The stack meets the domain
    # error first, when sample 0 asks for the integral, so it is redone one
    # state at a time and sample 2's C8 error is raised, as one state at a
    # time always raised it
    import numpy as np
    from conftest import FAST_OPT, single_component_spec
    from hammcert import bounds
    spec = single_component_spec(
        "example-k1", envelope={"phi0": "3/4"},
        w="val(1, 3/5) - 1/100 + 0*int(sqrt(u1 + 1/250))")
    cc = hc.assemble_cone_constants(spec, opt_cfg=FAST_OPT)
    assert bounds.STACK >= 6
    layout = [[(spec.components[0].w, "C8")]]
    with pytest.raises(hc.EvalDomainError, match="sqrt of a negative value"):
        bounds._stack_pass(6, spec, cc, 1.0, np.random.default_rng(4), spec.quad,
                           False, False, layout)
    message = ("condition (C8) violated: functional 'val(1, 0.6) - 1 / 100 + 0 * "
               "int(sqrt(u1 + 1 / 250))' evaluated to -0.005467668553410375 < 0 "
               "on the cone")
    db = DeclaredBounds(1.0, (ComponentBounds(),))
    for run in (lambda: estimate_ranges(spec, cc, 1.0, samples=8, seed=4),
                lambda: falsify_bounds(spec, cc, db, samples=8, seed=4)):
        with pytest.raises(hc.ModelViolationError) as err:
            run()
        assert str(err.value) == message
