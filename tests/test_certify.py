import csv
import dataclasses
import json
import math
import tracemalloc
import types
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hammcert as hc
from hammcert import (ComponentBounds, ConfigError, ContradictionError, DeclaredBounds,
                      EvalDomainError, HBounds, MissingBoundError, Params, SweepAxis,
                      SweepResult, check_I0,
                      check_I0_star, check_I1, existence_certificate,
                      nonexistence_certificate, sweep)
from conftest import FAST_OPT, digest, single_component_spec

E2 = math.e ** 2


def empty_bounds(rho, spec):
    return DeclaredBounds(rho, tuple(
        ComponentBounds(h=tuple(HBounds() for _ in comp.gammas))
        for comp in spec.components))


def example_doc():
    return json.loads(Path(hc.example_config_path()).read_text())


def sweep_without_zero_state(spec, cc):
    """Sweep a grid of the example with and without nonexistence; every point
    is classified, and each point not certified for nonexistence gets the
    row of the existence-only sweep."""
    axes = [SweepAxis("lambda1", 0.05, 40.05, 5), SweepAxis("eta21", 0.0, 1.0, 3)]
    kwargs = dict(mode="Sstar", db1=spec.bounds_at(1e-3), db2=spec.bounds_at(1.0),
                  i0=1)
    swept = sweep(spec, cc, axes, **kwargs, nonexistence={
        "db": spec.bounds_at(1.0), "setI": [2], "setJ": [1]})
    existence_only = sweep(spec, cc, axes, **kwargs)
    assert len(swept.rows) == 15
    assert set(swept.counts()) == {"existence-certified", "nonexistence-certified",
                                   "undetermined"}
    for row, ref in zip(swept.rows, existence_only.rows):
        if row["verdict"] != "nonexistence-certified":
            assert row == ref
    return swept


@pytest.fixture(scope="module")
def comp1_spec():
    """Component 1 of the example as a standalone one-component system."""
    return single_component_spec(
        "example-k1", lam=31.0, f="exp(u1)*(1+du1^2)*w", w="1",
        window=(0, 0.375), envelope={"phi0": "3/4"},
        gammas=[{"gamma": "example-gamma11", "eta": 0.0, "h": "der(1,0.5)^2"}])


@pytest.fixture(scope="module")
def comp1_cc(comp1_spec):
    return hc.assemble_cone_constants(comp1_spec)


def comp1_delta_bounds(rho=1.0, delta_tilde=0.7):
    return DeclaredBounds(rho, (ComponentBounds(
        delta_tilde=delta_tilde, h=(HBounds(lo=0.0, delta=0.0),)),))


class TestI1:
    def test_example_rows(self, example_spec, example_cc):
        cert = check_I1(example_spec, example_cc, example_spec.bounds_at(1.0))
        assert cert.certified
        rows = {r.label: r for r in cert.rows}
        # binding row: lambda2 + eta21 = 1 exactly
        assert rows["i=2,l=1"].lhs == 1.0
        assert abs(1.0 - rows["i=2,l=1"].lhs) <= 1e-12
        assert cert.binding == "i=2,l=1"
        # the other derivative row is e^2/10 + 1/5
        assert rows["i=1,l=1"].lhs == pytest.approx(E2 / 10 + 0.2, abs=1e-9)

    def test_boundary_perturbation_flips(self, example_spec, example_cc):
        p = example_spec.params.with_overrides({"eta21": 0.5 + 1e-6})
        cert = check_I1(example_spec, example_cc, example_spec.bounds_at(1.0), p)
        assert not cert.certified
        rows = {r.label: r for r in cert.rows}
        assert rows["i=2,l=1"].lhs > 1.0

    def test_zero_parameters_certify_anything(self, example_spec, example_cc):
        p = example_spec.params.with_overrides(
            {"lambda1": 0, "lambda2": 0, "eta11": 0, "eta21": 0})
        cert = check_I1(example_spec, example_cc,
                        empty_bounds(0.123, example_spec), p)
        assert cert.certified
        assert all(r.lhs == 0.0 for r in cert.rows)

    @pytest.mark.parametrize("lambdas,etas,message", [
        ((-1.0, -1.0), ((0.0,), (0.0,)), r"nonnegative \(C6\)"),
        ((1.0, 1.0), ((0.0,), (-0.5,)), r"nonnegative \(C6\)"),
        ((math.nan, 1.0), ((0.0,), (0.0,)), "finite"),
        ((1.0, 1.0), ((math.inf,), (0.0,)), "finite"),
        ((True, 0.1), ((0.1,), (0.1,)), "real numbers, got True"),
        (("1", 0.1), ((0.1,), (0.1,)), "real numbers, got '1'"),
        ((None, 0.1), ((0.1,), (0.1,)), "real numbers, got None"),
        # an int beyond the double range is not finite, not an OverflowError
        ((10**400, 0.1), ((0.1,), (0.1,)), "parameters must be finite numbers$"),
    ])
    def test_params_check_themselves(self, lambdas, etas, message):
        # a point made by hand meets the loader's C6 check
        with pytest.raises(ConfigError, match=message) as err:
            Params(lambdas, etas)
        assert err.value.key == "params"

    def test_params_take_python_and_numpy_numbers(self):
        p = Params((1, np.float32(0.5)), ((np.int64(2),), (0.25,)))
        assert p.lambdas[0] == 1 and p.etas[0][0] == 2

    @pytest.mark.parametrize("value,shown", [
        (True, "True"), ("0.5", "'0.5'"), ("x", "'x'"), (None, "None"),
        (10**400, "1" + "0" * 400), (math.nan, "nan")],
        ids=["true", "number-text", "text", "none", "huge", "nan"])
    def test_overrides_take_finite_numbers_only(self, example_spec, value, shown):
        # the rule of Params itself: True read as 1.0 and "0.5" as 0.5, and
        # "x", None and 10**400 raised a bare ValueError, TypeError, OverflowError
        with pytest.raises(ConfigError) as err:
            example_spec.params.with_overrides({"lambda1": value})
        assert str(err.value) == f"lambda1: expected a finite number, got {shown}"

    def test_overrides_take_python_and_numpy_numbers(self, example_spec):
        p = example_spec.params.with_overrides(
            {"lambda1": 31, "eta11": np.int64(1), "lambda2": np.float32(0.5),
             "eta21": np.float64(0.1)})
        assert p.lambdas == (31.0, 0.5) and p.etas == ((1.0,), (0.1,))
        # an int override reports as the float the loader would have made
        assert {type(v) for v in (*p.lambdas, *p.etas[0], *p.etas[1])} == {float}

    def test_negative_parameters_certify_nothing(self, example_spec, example_cc):
        # all rows' lhs would be negative, so I1 would hold
        with pytest.raises(ConfigError, match="C6"):
            check_I1(example_spec, example_cc, example_spec.bounds_at(1.0),
                     Params((-1.0, -1.0), ((0.0,), (0.0,))))

    def test_missing_bound_with_positive_coefficient(self, example_spec, example_cc):
        with pytest.raises(MissingBoundError, match="f_hi"):
            check_I1(example_spec, example_cc, empty_bounds(1.0, example_spec))

    def test_monotone_in_parameters(self, example_spec, example_cc):
        # componentwise-smaller nonnegative parameters keep the certificate
        db = example_spec.bounds_at(1.0)
        base = example_spec.params
        assert check_I1(example_spec, example_cc, db, base).certified
        rng = np.random.default_rng(21)
        for _ in range(20):
            shrink = rng.uniform(0, 1, 4)
            p = base.with_overrides({
                "lambda1": base.lambdas[0] * shrink[0],
                "eta11": base.etas[0][0] * shrink[1],
                "lambda2": base.lambdas[1] * shrink[2],
                "eta21": base.etas[1][0] * shrink[3]})
            assert check_I1(example_spec, example_cc, db, p).certified

    def test_scale_coherence(self, example_spec, example_cc):
        # scaling rho, f_hi and h_hi together leaves the verdict unchanged
        db = example_spec.bounds_at(1.0)
        for alpha in (0.25, 4.0):
            scaled = DeclaredBounds(alpha * db.rho, tuple(
                ComponentBounds(
                    w_lo=cb.w_lo, w_hi=cb.w_hi,
                    f_hi=alpha * cb.f_hi,
                    h=tuple(HBounds(lo=hb.lo, hi=alpha * hb.hi) for hb in cb.h))
                for cb in db.components))
            cert = check_I1(example_spec, example_cc, scaled)
            assert cert.certified


class TestI0:
    def test_component1_at_31(self, comp1_spec, comp1_cc):
        cert = check_I0(comp1_spec, comp1_cc, comp1_delta_bounds())
        assert cert.certified
        assert cert.rows[0].lhs == pytest.approx(651 / 640, abs=1e-9)

    def test_equality_case_non_strict(self, comp1_spec, comp1_cc):
        p = Params(lambdas=(640 / 21,), etas=((0.0,),))
        cert = check_I0(comp1_spec, comp1_cc, comp1_delta_bounds(), p)
        assert cert.rows[0].lhs == pytest.approx(1.0, abs=1e-12)
        # the displayed comparison is >=, so equality certifies
        assert cert.certified == (cert.rows[0].lhs >= 1.0)

    def test_exact_equality_with_dyadic_constants(self):
        # lambda * delta~ * c~ * (1/M) lands exactly on 1.0; >= must accept it
        spec = single_component_spec(
            kernel={"k": "1", "dk_dt": "0*t", "breakpoints": [],
                    "moving_breakpoint": False},
            window=(0, 1), lam=4.0,
            gammas=[])
        cc = hc.assemble_cone_constants(dataclasses.replace(spec, opt=FAST_OPT))
        assert cc[0].record("c_tilde").used == 1.0
        assert cc[0].record("recip_M").used == 1.0
        db = DeclaredBounds(1.0, (ComponentBounds(delta_tilde=0.25, h=()),))
        cert = check_I0(spec, cc, db)
        assert cert.rows[0].lhs == 1.0
        assert cert.certified

    def test_all_zero_not_certified(self, example_spec, example_cc):
        db = DeclaredBounds(1.0, tuple(
            ComponentBounds(delta_tilde=0.0,
                            h=tuple(HBounds(delta=0.0) for _ in comp.gammas))
            for comp in example_spec.components))
        p = example_spec.params.with_overrides({"eta11": 0, "eta21": 0})
        cert = check_I0(example_spec, example_cc, db, p)
        assert not cert.certified
        assert all(r.lhs == 0.0 for r in cert.rows)

    def test_missing_delta(self, comp1_spec, comp1_cc):
        db = DeclaredBounds(1.0, (ComponentBounds(h=(HBounds(),)),))
        with pytest.raises(MissingBoundError, match="delta_tilde"):
            check_I0(comp1_spec, comp1_cc, db)


class TestI0Star:
    def rho_bounds(self, spec, rho):
        f_lo = math.exp(-rho) / (1 + math.e)
        comps = [ComponentBounds(f_lo=f_lo, h=(HBounds(lo=0.0),)),
                 ComponentBounds(h=(HBounds(lo=0.0),))]
        return DeclaredBounds(rho, tuple(comps))

    def test_small_rho_certifies(self, example_spec, example_cc):
        db = self.rho_bounds(example_spec, 1e-3)
        cert = check_I0_star(example_spec, example_cc, db, 1)
        assert cert.certified
        # lhs = 0.05 * e^-0.001 (1+e)^-1 * 9/64 ~ 1.889e-3
        assert cert.rows[0].lhs == pytest.approx(
            0.05 * math.exp(-1e-3) / (1 + math.e) * 9 / 64, abs=1e-12)
        assert cert.rows[0].lhs >= 1e-3

    def test_larger_rho_fails(self, example_spec, example_cc):
        db = self.rho_bounds(example_spec, 1e-2)
        cert = check_I0_star(example_spec, example_cc, db, 1)
        assert not cert.certified
        assert cert.rows[0].lhs == pytest.approx(1.87e-3, abs=1e-5)

    def test_zero_lambda_never_certifies(self, example_spec, example_cc):
        p = example_spec.params.with_overrides({"lambda1": 0})
        db = self.rho_bounds(example_spec, 1e-3)
        cert = check_I0_star(example_spec, example_cc, db, 1, p)
        assert not cert.certified and cert.rows[0].lhs == 0.0

    def test_provenance_lists_what_the_row_reads(self, example_spec, example_cc):
        # lambda f_lo (1/M) + sum eta c_ij ||gamma_ij|| h_lo reads no c~
        cert = check_I0_star(example_spec, example_cc,
                             self.rho_bounds(example_spec, 1e-3), 1)
        assert list(cert.provenance) == ["1/M_1", "c_{1,1}", "||gamma_{1,1}||_inf",
                                         "bounds"]

    def test_bad_component_index(self, example_spec, example_cc):
        with pytest.raises(ConfigError):
            check_I0_star(example_spec, example_cc,
                          self.rho_bounds(example_spec, 1e-3), 5)


class TestExistence:
    def test_example_certifies(self, example_spec, example_cc):
        cert = existence_certificate(
            example_spec, example_cc, example_spec.bounds_at(0.001),
            example_spec.bounds_at(1.0), "Sstar", 1)
        assert cert.certified
        assert cert.radii == (0.001, 1.0)
        assert len(cert.children) == 2

    def test_i0_autoselect(self, example_spec, example_cc):
        cert = existence_certificate(
            example_spec, example_cc, example_spec.bounds_at(0.001),
            example_spec.bounds_at(1.0), "Sstar")
        assert cert.certified
        assert any("component 1 certifies" in n for n in cert.notes)

    def test_radii_order_enforced(self, example_spec, example_cc):
        with pytest.raises(ConfigError, match="rho1 < rho2"):
            existence_certificate(example_spec, example_cc,
                                  example_spec.bounds_at(1.0),
                                  example_spec.bounds_at(0.001), "Sstar", 1)

    def test_zero_lambda1_fails(self, example_spec, example_cc):
        p = example_spec.params.with_overrides({"lambda1": 0})
        cert = existence_certificate(
            example_spec, example_cc, example_spec.bounds_at(0.001),
            example_spec.bounds_at(1.0), "Sstar", 1, p)
        assert not cert.certified

    def test_mode_s(self, comp1_spec, comp1_cc):
        db1 = comp1_delta_bounds(rho=0.5)
        db2 = DeclaredBounds(1.0, (ComponentBounds(
            f_hi=0.001, h=(HBounds(lo=0, hi=0.0),)),))
        cert = existence_certificate(comp1_spec, comp1_cc, db1, db2, "S")
        assert cert.certified  # 31*0.7*(1/3)*(9/64) >= 1 and 31*0.001*1 <= 1


class TestNonexistence:
    def test_point_31_1_1_1_fails_with_flag(self, example_spec, example_cc):
        p = example_spec.params.with_overrides(
            {"lambda1": 31, "eta11": 1, "lambda2": 1, "eta21": 1})
        cert = nonexistence_certificate(example_spec, example_cc,
                                        example_spec.bounds_at(1.0), [2], [1], p)
        assert not cert.certified
        rows = {r.label: r for r in cert.rows}
        assert rows["J:i=1"].lhs == pytest.approx(651 / 640, abs=1e-9)
        assert rows["J:i=1"].holds
        # the I-side uses the tool's own 1/m_{2,0} = 0.425: 0.425 + 0.9 >= 1
        assert rows["I:i=2"].lhs == pytest.approx(1.325, abs=1e-6)
        assert not rows["I:i=2"].holds
        assert any("1/m_{2,0}" in n and "differs" in n for n in cert.notes)

    def test_smaller_I_parameters_certify(self, example_spec, example_cc):
        p = example_spec.params.with_overrides(
            {"lambda1": 31, "eta11": 1, "lambda2": 0.1, "eta21": 0.1})
        cert = nonexistence_certificate(example_spec, example_cc,
                                        example_spec.bounds_at(1.0), [2], [1], p)
        assert cert.certified
        rows = {r.label: r for r in cert.rows}
        assert rows["I:i=2"].lhs == pytest.approx(0.1 * 0.425 + 0.09, abs=1e-6)
        # lambda1 > 0 makes T(0) nonzero, so nothing in the ball solves
        assert any("no solutions at all" in n for n in cert.notes)

    def test_vacuous_J_with_zero_parameters(self, example_spec, example_cc):
        p = example_spec.params.with_overrides(
            {"lambda1": 0, "eta11": 0, "lambda2": 0, "eta21": 0})
        db = DeclaredBounds(1.0, tuple(
            ComponentBounds(xi_tilde=0.0,
                            h=tuple(HBounds(xi=0.0) for _ in comp.gammas))
            for comp in example_spec.components))
        cert = nonexistence_certificate(example_spec, example_cc, db, [1, 2], [], p)
        assert cert.certified
        # T == 0, so the zero state does solve the system
        assert any("zero state satisfies" in n for n in cert.notes)

    def test_partition_validated(self, example_spec, example_cc):
        with pytest.raises(ConfigError, match="partition"):
            nonexistence_certificate(example_spec, example_cc,
                                     example_spec.bounds_at(1.0), [1, 2], [2])


class TestSweep:
    def test_single_point_matches_certify(self, example_spec, example_cc):
        db1, db2 = example_spec.bounds_at(0.001), example_spec.bounds_at(1.0)
        axes = [SweepAxis("lambda1", 0.05, 0.05, 1), SweepAxis("eta11", 0.1, 0.1, 1)]
        result = sweep(example_spec, example_cc, axes, mode="Sstar",
                       db1=db1, db2=db2, i0=1)
        assert len(result.rows) == 1
        direct = existence_certificate(example_spec, example_cc, db1, db2,
                                       "Sstar", 1)
        assert (result.rows[0]["verdict"] == "existence-certified") == direct.certified

    def test_zero_steps_rejected(self):
        with pytest.raises(ValueError, match="at least 1 step"):
            SweepAxis("lambda1", 0, 1, 0)

    def test_never_double_classified(self, example_spec, example_cc):
        axes = [SweepAxis("lambda2", 0.0, 2.0, 5), SweepAxis("eta21", 0.0, 2.0, 5)]
        result = sweep(example_spec, example_cc, axes, mode="Sstar",
                       db1=example_spec.bounds_at(0.001),
                       db2=example_spec.bounds_at(1.0), i0=1,
                       nonexistence={"db": example_spec.bounds_at(1.0),
                                     "setI": [2], "setJ": [1]})
        # verdicts are single-valued by construction; make sure both kinds
        # can appear on this grid without tripping the contradiction check
        counts = result.counts()
        assert sum(counts.values()) == 25

    def test_contradictory_declarations_detected(self):
        # f_lo = 1 and xi_tilde = 0.05 cannot both hold; the runtime check
        # must refuse to classify rather than emit both verdicts
        spec = single_component_spec(
            kernel={"k": "1", "dk_dt": "0*t", "breakpoints": [],
                    "moving_breakpoint": False},
            window=(0, 1), lam=1.0, gammas=[])
        cc = hc.assemble_cone_constants(dataclasses.replace(spec, opt=FAST_OPT))
        db1 = DeclaredBounds(0.5, (ComponentBounds(f_lo=1.0, h=()),))
        db2 = DeclaredBounds(1.0, (ComponentBounds(
            f_hi=0.1, f_lo=1.0, xi_tilde=0.05, h=()),))
        from hammcert import ContradictionError
        with pytest.raises(ContradictionError) as err:
            sweep(spec, cc, [SweepAxis("lambda1", 1.0, 1.0, 1)], mode="Sstar",
                  db1=db1, db2=db2, i0=1,
                  nonexistence={"db": db2, "setI": [1], "setJ": []})
        dump = err.value.dump
        assert dump["point"] == {"lambda1": 1.0}
        # the dump holds both full certificates, zero-state residual included
        params = spec.params.with_overrides({"lambda1": 1.0})
        nonex = nonexistence_certificate(spec, cc, db2, [1], [], params)
        assert dump["nonexistence"] == nonex.as_dict()
        assert dump["nonexistence"]["provenance"]["zero_state_residual"] > 0.0
        assert dump["existence"] == existence_certificate(
            spec, cc, db1, db2, "Sstar", 1, params).as_dict()

    def test_off_node_breakpoint_does_not_stop_the_sweep(self):
        # T(0) cannot be evaluated when a kernel breakpoint is not a node of
        # the solver grid; the sweep's verdicts never need it
        doc = example_doc()
        doc["components"][0]["kernel"] = {
            "k": "1/4 + pos(1/2 - s) - pos(t - s)", "dk_dt": "-step(t - s)",
            "breakpoints": ["1/3", "1/2"], "moving_breakpoint": True}
        spec = hc.spec_from_dict(doc)
        cc = hc.assemble_cone_constants(dataclasses.replace(spec, opt=FAST_OPT))
        sweep_without_zero_state(spec, cc)
        with pytest.raises(ConfigError, match="does not coincide with a node of "
                                              "the uniform 128-panel grid"):
            nonexistence_certificate(spec, cc, spec.bounds_at(1.0), [2], [1])

    def test_functional_undefined_at_zero_does_not_stop_the_sweep(
            self, example_spec, example_cc):
        # w2 divides by int(du1^2), which vanishes at the zero state; no
        # inequality row depends on w, so the rows are the example's
        doc = example_doc()
        doc["components"][1]["w"] = "1/int(du1^2)"
        spec = hc.spec_from_dict(doc)
        swept = sweep_without_zero_state(spec, example_cc)
        assert swept.rows == sweep_without_zero_state(example_spec, example_cc).rows
        with pytest.raises(EvalDomainError, match="division by zero") as err:
            nonexistence_certificate(spec, example_cc, spec.bounds_at(1.0), [2], [1])
        assert err.value.subexpr == "1 / int(du1 ^ 2)"

    def test_autoselect_without_any_f_lo(self, example_spec, example_cc):
        db1 = empty_bounds(0.001, example_spec)
        with pytest.raises(MissingBoundError, match="f_lo"):
            existence_certificate(example_spec, example_cc, db1,
                                  example_spec.bounds_at(1.0), "Sstar")

    def test_bounds_component_count_guard(self, example_spec, example_cc):
        lopsided = DeclaredBounds(1.0, (ComponentBounds(h=()),))
        with pytest.raises(ConfigError, match="component entries"):
            check_I1(example_spec, example_cc, lopsided)

    @pytest.mark.parametrize("copies", [0, 2])
    def test_bounds_h_count_guard(self, example_spec, example_cc, copies):
        # one h entry per gamma term, or a ConfigError rather than an IndexError
        db = example_spec.bounds_at(1.0)
        first = dataclasses.replace(db.components[0], h=db.components[0].h * copies)
        lopsided = DeclaredBounds(1.0, (first, db.components[1]))
        with pytest.raises(ConfigError, match="h entries for the 1 gamma terms"):
            check_I1(example_spec, example_cc, lopsided)
        with pytest.raises(ConfigError, match="h entries for the 1 gamma terms"):
            hc.falsify_bounds(example_spec, example_cc, lopsided, samples=1, seed=1)

    def test_csv_output(self, tmp_path, example_spec, example_cc):
        axes = [SweepAxis("lambda1", 0.0, 0.05, 2)]
        result = sweep(example_spec, example_cc, axes, mode="Sstar",
                       db1=example_spec.bounds_at(0.001),
                       db2=example_spec.bounds_at(1.0), i0=1)
        path = tmp_path / "sweep.csv"
        result.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "lambda1,verdict,binding,margin"
        assert len(lines) == 3

    @pytest.mark.parametrize("lo,hi,steps,message", [
        (math.nan, 1.0, 2, "lo and hi must be finite real numbers"),
        (0.0, math.inf, 2, "lo and hi must be finite real numbers"),
        (True, 1.0, 2, "lo and hi must be finite real numbers"),
        ("0", 1.0, 2, "lo and hi must be finite real numbers"),
        (0, 10 ** 400, 2, "lo and hi must be finite real numbers"),
        (1.0, 0.0, 2, "hi < lo"),
        (-1e308, 1e308, 3, "hi - lo overflows"),
        (-10 ** 308, 10 ** 308, 3, "hi - lo overflows"),
        (0.0, 1.0, True, "steps must be an integer"),
        (0.0, 1.0, 2.5, "steps must be an integer"),
        (0.0, 1.0, "3", "steps must be an integer"),
        (0.0, 1.0, np.int64(0), "need at least 1 step"),
    ], ids=["nan", "inf", "bool", "str", "huge-int", "order", "wide", "wide-int",
            "bool-steps", "float-steps", "str-steps", "zero-steps"])
    def test_axis_rejected(self, lo, hi, steps, message):
        with pytest.raises(ValueError, match=f"^axis lambda1: {message}$"):
            SweepAxis("lambda1", lo, hi, steps)

    def test_axis_accepted(self):
        assert SweepAxis("lambda1", 0, np.float64(1.0), np.int64(3)).grid().tolist() == \
            [0.0, 0.5, 1.0]
        # the widest axes of the sweep oracle's strategy, and the widest grid
        # that stays finite
        for lo, hi in ((1e300, 1e300 + 5e299), (-0.5, 39.5), (-1e308, 7e307)):
            assert np.isfinite(SweepAxis("eta11", lo, hi, 4).grid()).all()

    def test_columns_rows_and_counts(self, example_spec, example_cc):
        axes = [SweepAxis("lambda1", 0.05, 40.05, 5), SweepAxis("eta21", 0.0, 1.0, 3)]
        kwargs = dict(mode="Sstar", db1=example_spec.bounds_at(1e-3),
                      db2=example_spec.bounds_at(1.0), i0=1, nonexistence={
                          "db": example_spec.bounds_at(1.0), "setI": [2], "setJ": [1]})
        result = sweep(example_spec, example_cc, axes, **kwargs)
        ref = ref_sweep(example_spec, example_cc, axes, **kwargs)
        assert {k: c.dtype for k, c in result.columns.items()} == {
            "lambda1": np.float64, "eta21": np.float64, "verdict": object,
            "binding": object, "margin": np.float64}
        assert [list(row.items()) for row in result.rows] == \
            [list(row.items()) for row in ref.rows]
        assert list(result.counts().items()) == \
            list(Counter(row["verdict"] for row in ref.rows).items())
        assert result.rows is not result.rows  # built on each read

    def test_equality_is_identity(self, example_spec, example_cc):
        def run(*axes):
            return sweep(example_spec, example_cc, axes, mode="Sstar",
                         db1=example_spec.bounds_at(1e-3),
                         db2=example_spec.bounds_at(1.0), i0=1)
        result, again = run(SweepAxis("lambda1", 0.0, 0.1, 3)), \
            run(SweepAxis("lambda1", 0.0, 0.1, 3))
        # == never asks an array for its truth value
        assert result == result and result != again
        assert result.axes == again.axes and result.rows == again.rows
        assert result.rows != run(SweepAxis("lambda1", 0.0, 0.2, 3)).rows

    def test_csv_bytes_match_the_dict_writer(self, tmp_path, example_spec, example_cc):
        def reference(result, path):
            # the DictWriter to_csv ran over the rows before the shared writer
            with open(path, "w", newline="") as fh:
                names = [ax.name for ax in result.axes]
                writer = csv.DictWriter(fh, fieldnames=names + ["verdict", "binding",
                                                                "margin"])
                writer.writeheader()
                for row in result.rows:
                    writer.writerow({**row, **{k: repr(row[k]) for k in names},
                                     "margin": repr(row["margin"])})
        swept = sweep_without_zero_state(example_spec, example_cc)
        assert "i=1,l=1" in swept.columns["binding"].tolist()  # a label CSV quotes
        special = np.array([-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e300, 0.1])
        made = SweepResult((SweepAxis("eta2_1", 0.0, 1.0, 7),), {
            "eta2_1": special, "verdict": np.array(["undetermined"] * 7, dtype=object),
            "binding": np.array(["i=1,l=0", 'J:"i=1"', "I:i=2", "", "a\nb", "x", "y"],
                                dtype=object),
            "margin": special[::-1].copy()})
        for k, result in enumerate((swept, made)):
            result.to_csv(tmp_path / f"{k}.csv")
            reference(result, tmp_path / f"{k}-reference.csv")
            assert (tmp_path / f"{k}.csv").read_bytes() == \
                (tmp_path / f"{k}-reference.csv").read_bytes()

    def test_result_holds_columns(self):
        # a 316 x 316 grid held 26 MB (34 MB at its peak) as one dict per
        # point; its columns are 4 MB
        spec = hc.load_config(Path(__file__).resolve().parents[1] / "perfbench" /
                              "configs" / "example-rho1e-4.cfg")
        cc = hc.assemble_cone_constants(spec)
        axes = [SweepAxis("lambda1", 0.0, 0.1, 316), SweepAxis("eta11", 0.0, 0.5, 316)]
        kwargs = dict(mode="Sstar", db1=spec.bounds_at(1e-4), db2=spec.bounds_at(1.0),
                      i0=1)
        sweep(spec, cc, axes, **kwargs)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = sweep(spec, cc, axes, **kwargs)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held - before < 8e6
        assert peak - before < 16e6
        assert sum(result.counts().values()) == 316 ** 2


# sha256 of json.dumps(..., sort_keys=True) of each certificate's as_dict()
# (of the rows, for sweeps), recorded before the row builders were shared;
# numpy 2.4.6 on x86-64
CERTIFICATE_PINS = {
    "I1": "925902159c59ad60e750fd05aa273abdb1eb4a82e2793dd614c2f7b91f5a18f8",
    "I0": "81e5d9ac8362732a525e3ec2231cf02025f4e0152be08e7415dc61d9bffe86ec",
    "I0star": "9c4097b6af21865b0d00db382f4f6940dec0e2054b4e496dcb3455c6d1148092",
    "S": "a568d16f940f0854bc034899508607e25cca9869cdc54f126bb7e4ae15dc1a3c",
    "Sstar-i0": "10d435fd321013628552bcec7f8cbcd45c1548af20d8b54061f3f17dd4b43e48",
    "Sstar-auto": "0174cba7fd069fbb69303212e4da5f518225188a69784e05cb9d3ef7d580511b",
    "NIJ-example-default": "e9a2356b84aac3b237ceb16a62f9b3b9d63ee5b04881515bde3be2963d29cbe6",
    "NIJ-example-31-1-1-1": "02427830fb3bec3e6686899aedbcf1b6a154008f9aa4eac86c804d2646dd4995",
    "NIJ-example-31-1-0.1-0.1": "b79e6b532c7daa7ca010f5c1ab8831861893f0f9ec26e79b6922ef2af1c34b5f",
    "NIJ-tight-default": "807fd18c6a16012f921e05c585a30717bf668b8eb240e1d8269d594e8a3bd8f2",
    "NIJ-tight-31-1-1-1": "a615b603e84717fac14ee8b1323c9347b76a71696f83f4512f0b6267aabea811",
    "NIJ-tight-31-1-0.1-0.1": "fa90bc5d2f074d6444bb3146ac593ff6a54359f6463bf2d414365db1befc86ba",
    "sweep-S": "4274669b0711002f14fe9fa9a19f50aa39d8c5d6cc99d3d83c8bc051c3e88c81",
    "sweep-Sstar-skip": "7f174ede3bad3958fb9eb883cf8daf5c356390da1e54e15ef688849ac0a24d34",
}

# the NIJ digests before the certificate's provenance listed the h terms'
# declared xi (I rows) and delta (J rows): the certificate without those two
# bounds keys
NIJ_PINS_WITHOUT_H_BOUNDS = {
    "NIJ-example-default": "5e9a65c0517e466cec22622b38b802c1448be35764cf93bbb3190a210b8a8ad3",
    "NIJ-example-31-1-1-1": "b691346d666a45936856c6d6ab6153c643aff6d44cb86b7cf774ddd226ff0fc8",
    "NIJ-example-31-1-0.1-0.1": "7f6a935d81a0ae17cf47d8353323a8d88ca298a2d4f7773929a7715ed30ed7b2",
    "NIJ-tight-default": "d67a6e6d0b6c489e7e29e58df232e15601566987c25bdca7875291fc8fe721a9",
    "NIJ-tight-31-1-1-1": "ce4b33a95f0eaa2e1361b5b0f912a3a6a1e70ff7205984de084f51e4f0862cc4",
    "NIJ-tight-31-1-0.1-0.1": "6b87f4b1940967b9de3c8ab0dfe87b00b67d21f7fc4793cac9d2283b72a52a73",
}

NIJ_POINTS = {
    "default": {},
    "31-1-1-1": {"lambda1": 31, "eta11": 1, "lambda2": 1, "eta21": 1},
    "31-1-0.1-0.1": {"lambda1": 31, "eta11": 1, "lambda2": 0.1, "eta21": 0.1},
}


def i0_star_bounds(rho=1e-3):
    """TestI0Star's bounds: f_lo for component 1 only."""
    return DeclaredBounds(rho, (
        ComponentBounds(f_lo=math.exp(-rho) / (1 + math.e), h=(HBounds(lo=0.0),)),
        ComponentBounds(h=(HBounds(lo=0.0),))))


def mode_s_bounds():
    return comp1_delta_bounds(rho=0.5), DeclaredBounds(1.0, (ComponentBounds(
        f_hi=0.001, h=(HBounds(lo=0, hi=0.0),)),))


def with_c_tilde(d, cc, *provenances):
    """The report with component 1's c~ record put back where the I0* row's
    provenance listed it before it was derived from the constants the row
    reads."""
    for prov in provenances:
        prov["c~_1"] = cc[0].records["c_tilde"].as_dict()
    return d


class TestPins:
    def test_check_rows(self, example_spec, example_cc, comp1_spec, comp1_cc):
        assert digest(check_I1(example_spec, example_cc,
                               example_spec.bounds_at(1.0)).as_dict()) == \
            CERTIFICATE_PINS["I1"]
        assert digest(check_I0(comp1_spec, comp1_cc,
                               comp1_delta_bounds()).as_dict()) == \
            CERTIFICATE_PINS["I0"]
        d = check_I0_star(example_spec, example_cc, i0_star_bounds(), 1).as_dict()
        assert digest(with_c_tilde(d, example_cc, d["provenance"])) == \
            CERTIFICATE_PINS["I0star"]

    def test_existence(self, example_spec, example_cc, comp1_spec, comp1_cc):
        assert digest(existence_certificate(comp1_spec, comp1_cc, *mode_s_bounds(),
                                            "S").as_dict()) == CERTIFICATE_PINS["S"]
        db1, db2 = example_spec.bounds_at(1e-3), example_spec.bounds_at(1.0)
        for name, i0 in (("Sstar-i0", 1), ("Sstar-auto", None)):
            d = existence_certificate(example_spec, example_cc, db1, db2, "Sstar",
                                      i0).as_dict()
            with_c_tilde(d, example_cc, d["provenance"]["inner"],
                         d["children"][0]["provenance"])
            assert digest(d) == CERTIFICATE_PINS[name]

    @pytest.mark.parametrize("config", ["example", "tight"])
    def test_nonexistence(self, request, config):
        spec = request.getfixturevalue(f"{config}_spec")
        cc = request.getfixturevalue(f"{config}_cc")
        for point, overrides in NIJ_POINTS.items():
            p = spec.params.with_overrides(overrides)
            d = nonexistence_certificate(spec, cc, spec.bounds_at(1.0), [2], [1],
                                         p).as_dict()
            assert digest(d) == CERTIFICATE_PINS[f"NIJ-{config}-{point}"]
            bounds = d["provenance"]["bounds"]
            # I = {2} reads h_21's xi, J = {1} reads h_11's delta
            assert (bounds["xi"], bounds["delta"]) == ([[1.0]], [[0.0]])
            del bounds["xi"], bounds["delta"]
            assert digest(d) == NIJ_PINS_WITHOUT_H_BOUNDS[f"NIJ-{config}-{point}"]

    def test_sweep_mode_s(self, comp1_spec, comp1_cc):
        db1, db2 = mode_s_bounds()
        result = sweep(comp1_spec, comp1_cc, [SweepAxis("lambda1", 0.0, 40.0, 9),
                                              SweepAxis("eta11", 0.0, 1.0, 3)],
                       mode="S", db1=db1, db2=db2)
        assert digest(result.rows) == CERTIFICATE_PINS["sweep-S"]

    def test_sweep_skips_candidates_without_f_lo(self, example_spec, example_cc):
        # candidate 1 declares no f_lo: it raises MissingBoundError wherever
        # lambda1 > 0 and is skipped, and at lambda1 = 0 it is the fallback
        # when candidate 2 does not certify
        db1 = DeclaredBounds(1e-3, (ComponentBounds(h=(HBounds(lo=0.0),)),
                                    ComponentBounds(f_lo=0.01, h=(HBounds(lo=0.0),))))
        result = sweep(example_spec, example_cc,
                       [SweepAxis("lambda1", 0.0, 40.0, 3),
                        SweepAxis("lambda2", 0.0, 1.0, 5)],
                       mode="Sstar", db1=db1, db2=example_spec.bounds_at(1.0),
                       nonexistence={"db": example_spec.bounds_at(1.0),
                                     "setI": [2], "setJ": [1]})
        assert {r["binding"] for r in result.rows} >= {"i0=1", "i0=2"}
        assert digest(result.rows) == CERTIFICATE_PINS["sweep-Sstar-skip"]

    def test_sweep_builds_no_provenance(self, monkeypatch, example_spec, example_cc):
        from hammcert import certify as certify_mod
        calls = []
        original = certify_mod._constant_provenance
        monkeypatch.setattr(certify_mod, "_constant_provenance",
                            lambda *a: calls.append(a) or original(*a))
        axes = [SweepAxis("lambda1", 0.0, 0.1, 11), SweepAxis("eta11", 0.0, 0.5, 11)]
        result = sweep(example_spec, example_cc, axes, mode="Sstar",
                       db1=example_spec.bounds_at(1e-3),
                       db2=example_spec.bounds_at(1.0),
                       nonexistence={"db": example_spec.bounds_at(1.0),
                                     "setI": [2], "setJ": [1]})
        assert len(result.rows) == 121
        assert calls == []


# the binding row as Python's max and min pick it from a certificate's own
# rows, kept apart from the rule the certificates share with sweep
REF_BINDING = {"I1": (max, "lhs"), "I0": (min, "lhs"), "I0star": (min, "lhs"),
               "NIJ": (min, "margin")}


def assert_binding_by_max_min(cert):
    if cert.children:  # mode S or Sstar: the inner child binds unless it holds
        inner, outer = cert.children
        assert cert.binding == (outer if inner.certified else inner).binding
        for child in cert.children:
            assert_binding_by_max_min(child)
        return
    pick, field = REF_BINDING[cert.kind]
    assert cert.binding == pick(cert.rows, key=lambda r: getattr(r, field)).label


class TestBindingRow:
    def test_at_the_pinned_points(self, request, example_spec, example_cc, comp1_spec,
                                  comp1_cc):
        db1, db2 = example_spec.bounds_at(1e-3), example_spec.bounds_at(1.0)
        certs = [check_I1(example_spec, example_cc, db2),
                 check_I0(comp1_spec, comp1_cc, comp1_delta_bounds()),
                 check_I0_star(example_spec, example_cc, i0_star_bounds(), 1),
                 existence_certificate(comp1_spec, comp1_cc, *mode_s_bounds(), "S"),
                 existence_certificate(example_spec, example_cc, db1, db2, "Sstar", 1),
                 existence_certificate(example_spec, example_cc, db1, db2, "Sstar")]
        for config in ("example", "tight"):
            spec = request.getfixturevalue(f"{config}_spec")
            cc = request.getfixturevalue(f"{config}_cc")
            certs += [nonexistence_certificate(
                spec, cc, spec.bounds_at(1.0), [2], [1],
                spec.params.with_overrides(overrides))
                for overrides in NIJ_POINTS.values()]
        for cert in certs:
            assert_binding_by_max_min(cert)

    def test_with_a_nan_lhs(self):
        # declared bounds are finite, but eta11 * dgamma_sup[1] = 1e308 * 2
        # overflows to inf, and inf * h_hi = 0 makes the i=1,l=1 lhs NaN,
        # which max does not take over the i=1,l=0 row (np.argmax would)
        spec = single_component_spec(
            "example-k1", envelope={"phi0": "3/4"},
            gammas=[{"gamma": "1 - 2*t", "dgamma": "-2", "eta": 1.0, "h": "1"}])
        cc = hc.assemble_cone_constants(spec)
        db1 = DeclaredBounds(1e-3, (ComponentBounds(f_lo=1.0, h=(HBounds(),)),))
        db2 = DeclaredBounds(1.0, (ComponentBounds(f_hi=1.0, h=(HBounds(hi=0.0),)),))
        p = Params((1.0,), ((1e308,),))
        cert = existence_certificate(spec, cc, db1, db2, "Sstar", 1, p)
        assert [math.isnan(r.lhs) for r in cert.children[1].rows] == [False, True]
        assert_binding_by_max_min(cert)
        # the sweep's columns pick the same rows
        assert_matches_oracle(spec, cc, [SweepAxis("eta11", 0.0, 1e308, 2)],
                              dict(mode="Sstar", db1=db1, db2=db2, i0=1))


def monomial_names(rows):
    """{label: monomials} of row data, each factor by name: the parameter as
    lambda<i> or eta<i><j>, then record keys and declared-bound names."""
    def parameter(i, j):
        return f"lambda{i}" if j is None else f"eta{i}{j + 1}"
    return {row.label: [(parameter(*m[0]), *(f if isinstance(f, str) else f.name
                                             for f in m[1:])) for m in row.monomials]
            for row in rows}


class TestRowData:
    def test_example_monomials_in_multiplication_order(self, example_spec):
        from hammcert.certify import (_i0_rows, _i0_star_rows, _i1_rows,
                                      _nonexistence_rows)
        db1, db2 = example_spec.bounds_at(1e-3), example_spec.bounds_at(1.0)
        rows = [*_i1_rows(example_spec, db2), *_i0_rows(example_spec, db1),
                *_i0_star_rows(example_spec, db1, 1), *_i0_star_rows(example_spec, db1, 2),
                *_nonexistence_rows(example_spec, db2, [2], [1])[2]]
        assert monomial_names(rows) == {
            "i=1,l=0": [("lambda1", "f_hi[1] at rho=1.0", "recip_m0"),
                        ("eta11", "gamma_sup[0]", "h_hi[1,1] at rho=1.0")],
            "i=1,l=1": [("lambda1", "f_hi[1] at rho=1.0", "recip_m1"),
                        ("eta11", "dgamma_sup[0]", "h_hi[1,1] at rho=1.0")],
            "i=2,l=0": [("lambda2", "f_hi[2] at rho=1.0", "recip_m0"),
                        ("eta21", "gamma_sup[0]", "h_hi[2,1] at rho=1.0")],
            "i=2,l=1": [("lambda2", "f_hi[2] at rho=1.0", "recip_m1"),
                        ("eta21", "dgamma_sup[0]", "h_hi[2,1] at rho=1.0")],
            "i=1": [("lambda1", "delta_tilde[1] at rho=0.001", "c_tilde", "recip_M"),
                    ("eta11", "c_gamma[0]", "h delta[1,1] at rho=0.001", "gamma_sup[0]")],
            "i=2": [("lambda2", "delta_tilde[2] at rho=0.001", "c_tilde", "recip_M"),
                    ("eta21", "c_gamma[0]", "h delta[2,1] at rho=0.001", "gamma_sup[0]")],
            "i0=1": [("lambda1", "f_lo[1] at rho=0.001", "recip_M"),
                     ("eta11", "c_gamma[0]", "gamma_sup[0]", "h_lo[1,1] at rho=0.001")],
            "i0=2": [("lambda2", "f_lo[2] at rho=0.001", "recip_M"),
                     ("eta21", "c_gamma[0]", "gamma_sup[0]", "h_lo[2,1] at rho=0.001")],
            "I:i=2": [("lambda2", "xi_tilde[2] at rho=1.0", "recip_m0"),
                      ("eta21", "h xi[2,1] at rho=1.0", "gamma_sup[0]")],
            "J:i=1": [("lambda1", "delta_tilde[1] at rho=1.0", "c_tilde", "recip_M"),
                      ("eta11", "c_gamma[0]", "h delta[1,1] at rho=1.0", "gamma_sup[0]")],
        }


class TestComponentIndices:
    def test_certificates_take_integers_only(self, example_spec, example_cc):
        db1, db2 = example_spec.bounds_at(1e-3), example_spec.bounds_at(1.0)
        for i0 in (1.0, True, np.bool_(True), "1"):
            with pytest.raises(ConfigError, match=r"^i0: a component index must be "
                                                  r"an integer, got "):
                existence_certificate(example_spec, example_cc, db1, db2, "Sstar", i0)
        for setI, setJ in (([2.0], [1]), ([True], [2]), ([2], [np.float64(1)])):
            with pytest.raises(ConfigError, match=r"^setI/setJ: a component index "
                                                  r"must be an integer, got "):
                nonexistence_certificate(example_spec, example_cc, db2, setI, setJ)
        # numpy integers are component indices, and print as ints
        assert existence_certificate(example_spec, example_cc, db1, db2, "Sstar",
                                     np.int64(1)).as_dict() == \
            existence_certificate(example_spec, example_cc, db1, db2, "Sstar",
                                  1).as_dict()
        cert = nonexistence_certificate(example_spec, example_cc, db2,
                                        [np.int32(2)], np.array([1]))
        assert cert.as_dict() == nonexistence_certificate(example_spec, example_cc,
                                                          db2, [2], [1]).as_dict()
        json.dumps(cert.as_dict())

    def test_sweep_takes_integers_only(self, example_spec, example_cc):
        kwargs = dict(mode="Sstar", db1=example_spec.bounds_at(1e-3),
                      db2=example_spec.bounds_at(1.0))
        axes = [SweepAxis("lambda1", 0.0, 0.1, 3)]
        with pytest.raises(ConfigError, match=r"^i0: a component index must be an "
                                              r"integer, got 1\.0$"):
            sweep(example_spec, example_cc, axes, **kwargs, i0=1.0)
        with pytest.raises(ConfigError, match=r"^setI/setJ: a component index must "
                                              r"be an integer, got True$"):
            sweep(example_spec, example_cc, axes, **kwargs, nonexistence={
                "db": example_spec.bounds_at(1.0), "setI": [True], "setJ": [2]})
        assert sweep(example_spec, example_cc, axes, **kwargs, i0=np.int64(1)).rows \
            == sweep(example_spec, example_cc, axes, **kwargs, i0=1).rows


class TestSweepWork:
    def test_duplicate_axes_rejected(self, example_spec, example_cc):
        kwargs = dict(mode="Sstar", db1=example_spec.bounds_at(1e-3),
                      db2=example_spec.bounds_at(1.0), i0=1)
        for first, second in (("lambda1", "lambda1"), ("eta21", "eta2_1")):
            axes = [SweepAxis(first, 0.0, 0.1, 2), SweepAxis(second, 5.0, 6.0, 2)]
            with pytest.raises(ConfigError, match=rf"^{second}: sets the same "
                                                  rf"parameter as axis '{first}'"):
                sweep(example_spec, example_cc, axes, **kwargs)

    def test_work_does_not_grow_with_the_grid(self, monkeypatch, example_spec,
                                              example_cc):
        from hammcert import certify as certify_mod
        calls = {}

        def count(name, original):
            def counted(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return original(*args, **kwargs)
            return counted

        monkeypatch.setattr(Params, "with_overrides",
                            count("with_overrides", Params.with_overrides))
        for name in ("_i1_rows", "_i0_rows", "_i0_star_rows", "_nonexistence_rows"):
            monkeypatch.setattr(certify_mod, name,
                                count(name, getattr(certify_mod, name)))
        per_grid = []
        for steps in (11, 101):
            calls.clear()
            axes = [SweepAxis("lambda1", 0.0, 0.1, steps),
                    SweepAxis("eta11", 0.0, 0.5, steps)]
            result = sweep(example_spec, example_cc, axes, mode="Sstar",
                           db1=example_spec.bounds_at(1e-3),
                           db2=example_spec.bounds_at(1.0),
                           nonexistence={"db": example_spec.bounds_at(1.0),
                                         "setI": [2], "setJ": [1]})
            assert len(result.rows) == steps ** 2
            per_grid.append(dict(calls))
        assert "with_overrides" not in per_grid[1]
        assert per_grid[1] == per_grid[0]
        assert per_grid[1] == {"_i1_rows": 1, "_i0_star_rows": 2, "_i0_rows": 1,
                               "_nonexistence_rows": 1}


def ref_existence_rows(spec, cc, db1, db2, mode, i0, params):
    """The inner and the outer existence rows at one point, on floats, with
    the mode-Sstar rule for an unset i0 as its own loop over the candidates."""
    from hammcert.certify import (_check_existence, _i0_rows, _i0_star_rows,
                                  _i1_rows, _rows_at)
    _check_existence(spec, db1, db2, mode, i0)
    outer = _rows_at(_i1_rows(spec, db2), cc, params)
    if mode == "S":
        return _rows_at(_i0_rows(spec, db1), cc, params), outer
    if i0 is not None:
        return _rows_at(_i0_star_rows(spec, db1, i0), cc, params), outer
    first = None
    for cand in range(1, spec.n + 1):
        try:
            inner = _rows_at(_i0_star_rows(spec, db1, cand), cc, params)
        except MissingBoundError:
            continue
        if inner[0].holds:
            return inner, outer
        first = first or inner
    if first is None:
        raise MissingBoundError(
            f"no component declares f_lo at rho={db1.rho}; cannot evaluate the "
            "single-component inner condition")
    return first, outer


def ref_sweep(spec, cc, axes, *, mode, db1, db2, i0=None, nonexistence=None):
    """The sweep as one loop over the grid points, each evaluated on floats
    with its own Params and row builders."""
    from hammcert.certify import _nonexistence_rows, _rows_at
    base = spec.params
    axes = tuple(axes)
    grids = [ax.grid() for ax in axes]
    nonex = None if nonexistence is None else (
        nonexistence["db"], nonexistence["setI"], nonexistence["setJ"])
    rows = []
    for combo in np.ndindex(*[g.size for g in grids]):
        overrides = {ax.name: float(grids[k][combo[k]]) for k, ax in enumerate(axes)}
        params = base.with_overrides(overrides)
        inner, outer = ref_existence_rows(spec, cc, db1, db2, mode, i0, params)
        inner_holds = all(r.holds for r in inner)
        exist_certified = inner_holds and all(r.holds for r in outer)
        nonex_rows = (_rows_at(_nonexistence_rows(spec, *nonex)[2], cc, params)
                      if nonex else None)
        nonex_certified = nonex_rows is not None and all(r.holds for r in nonex_rows)
        if exist_certified and nonex_certified:
            raise ContradictionError(
                f"grid point {overrides} certified both for existence and "
                "nonexistence under the same declared bounds",
                {"point": overrides,
                 "existence": existence_certificate(spec, cc, db1, db2, mode, i0,
                                                    params).as_dict(),
                 "nonexistence": nonexistence_certificate(spec, cc, *nonex,
                                                          params).as_dict()})
        if nonex_certified:
            verdict = "nonexistence-certified"
            binding_row = min(nonex_rows, key=lambda r: r.margin)
        else:
            verdict = "existence-certified" if exist_certified else "undetermined"
            binding_row = (max(outer, key=lambda r: r.lhs) if inner_holds
                           else min(inner, key=lambda r: r.lhs))
        rows.append({**overrides, "verdict": verdict, "binding": binding_row.label,
                     "margin": binding_row.margin})
    return types.SimpleNamespace(axes=axes, rows=rows)


def sweep_outcome(fn, *args, **kwargs):
    """The digest of a sweep's rows, or what it raised: the exception type
    and message, and for a contradiction the digest of its dump; and the
    warnings it printed."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            outcome = "rows", digest(fn(*args, **kwargs).rows)
        except ContradictionError as e:
            outcome = ContradictionError, str(e), digest(e.dump)
        except Exception as e:  # noqa: BLE001 - the oracle compares any failure
            outcome = type(e), str(e)
    return outcome, [(w.category, str(w.message)) for w in caught]


# a bound is mostly declared: zero, small, moderate, or large enough to
# overflow to inf (declared bounds are finite)
BOUND = st.one_of(st.sampled_from([None, 0.0, 1e-3, 0.05, 0.5, 1.0, 3.0, 100.0, 1e300]),
                  st.floats(0.0, 10.0))
# axes mostly start at 0 or above; some start below 0 (C6) or near 1e300
LOWS = st.one_of(st.sampled_from([0.0, 0.0, 0.0, 0.05, 1.0, 1e300, 1e300, -0.5, -1e-9]),
                 st.floats(0.0, 40.0))
SPANS = st.one_of(st.sampled_from([0.0, 0.1, 1.0, 5e299]), st.floats(0.0, 40.0))


@st.composite
def component_bounds(draw):
    def h():
        lo = draw(st.sampled_from([0.0, 0.01, 0.5]))
        hi = draw(st.sampled_from([None, lo, lo + 0.5, lo + 0.5, lo + 0.5, 1e300]))
        return HBounds(lo=lo, hi=hi, delta=draw(BOUND), xi=draw(BOUND))
    # f_lo is often missing, so that mode Sstar skips candidates
    return ComponentBounds(f_hi=draw(BOUND), f_lo=draw(st.one_of(st.none(), BOUND)),
                           delta_tilde=draw(BOUND), xi_tilde=draw(BOUND), h=(h(),))


@st.composite
def sweep_cases(draw):
    """Sweeps of the example: mode S or Sstar with i0 None, 1 or 2, with and
    without nonexistence, random declared bounds and 1-3 axes."""
    def bounds(rho):
        return DeclaredBounds(rho, (draw(component_bounds()), draw(component_bounds())))
    rho1, rho2 = draw(st.sampled_from([1e-3, 0.5])), draw(st.sampled_from([1.0, 2.0]))
    if draw(st.integers(0, 19)) == 0:
        rho1, rho2 = rho2, rho1  # rho1 >= rho2 is refused
    kwargs = dict(mode=draw(st.sampled_from(["S", "Sstar"])), db1=bounds(rho1),
                  db2=bounds(rho2), i0=draw(st.sampled_from([None, 1, 2])))
    if draw(st.booleans()):
        setI, setJ = draw(st.sampled_from([([2], [1]), ([1], [2]), ([1, 2], []),
                                           ([], [1, 2]), ([1], [1])]))
        db = kwargs["db2"] if draw(st.booleans()) else bounds(1.0)
        kwargs["nonexistence"] = {"db": db, "setI": setI, "setJ": setJ}
    names = draw(st.lists(st.sampled_from(["lambda1", "lambda2", "eta11", "eta21"]),
                          min_size=1, max_size=3, unique=True))
    axes = []
    for name in names:
        if name == "eta21" and draw(st.booleans()):
            name = "eta2_1"
        lo = draw(LOWS)
        axes.append(SweepAxis(name, lo, lo + draw(SPANS), draw(st.integers(1, 4))))
    return axes, kwargs


def _with_bounds(db, component, **fields):
    """db with the given fields of one component's bounds replaced."""
    comps = list(db.components)
    comps[component - 1] = dataclasses.replace(comps[component - 1], **fields)
    return dataclasses.replace(db, components=tuple(comps))


def oracle_examples(spec):
    """Cases the random draw reaches rarely, on the example's bounds."""
    db1, db2 = spec.bounds_at(1e-3), spec.bounds_at(1.0)
    nonex = {"db": db2, "setI": [2], "setJ": [1]}
    lam1 = SweepAxis("lambda1", 0.0, 1.0, 3)
    # inconsistent declarations certify (lambda1, eta21) = (0.5, 0) both ways
    inconsistent = dict(f_hi=0.01, xi_tilde=0.01, delta_tilde=100.0,
                        h=(HBounds(hi=0.0, xi=0.01, delta=100.0),))
    db_both = DeclaredBounds(1.0, (ComponentBounds(**inconsistent),) * 2)
    db_lo = DeclaredBounds(1e-3, (ComponentBounds(f_lo=1.0, h=(HBounds(),)),) * 2)
    return [
        ([lam1, SweepAxis("eta21", 0.0, 1.0, 2)],
         dict(mode="Sstar", db1=db_lo, db2=db_both, i0=1,
              nonexistence={"db": db_both, "setI": [2], "setJ": [1]})),
        # component 1 lacks f_lo: skipped where lambda1 > 0, the fallback at 0
        ([SweepAxis("lambda1", 0.0, 40.0, 3), SweepAxis("lambda2", 0.0, 1.0, 5)],
         dict(mode="Sstar", db1=_with_bounds(_with_bounds(db1, 1, f_lo=None), 2,
                                             f_lo=0.01),
              db2=db2, nonexistence=nonex)),
        # f_hi[1] is needed from the second point on
        ([lam1], dict(mode="Sstar", db1=db1, db2=_with_bounds(db2, 1, f_hi=None))),
        # an I1 lhs overflows to inf at lambda1 = 1e300 (a NaN lhs needs a
        # constant > 1 or a zero factor after the overflow, which the
        # example's constants lack; TestBindingRow.test_with_a_nan_lhs has one)
        ([SweepAxis("lambda1", 0.05, 1e300, 2), SweepAxis("eta21", 0.0, 1.0, 2)],
         dict(mode="Sstar", db1=db1, i0=1,
              db2=_with_bounds(db2, 2, h=(HBounds(hi=1e300, delta=0.0, xi=1.0),)),
              nonexistence=nonex)),
        # the widest axis whose grid is finite: its first point is negative
        ([SweepAxis("lambda1", 0.0, 0.1, 2), SweepAxis("eta11", -1e308, 7e307, 3)],
         dict(mode="Sstar", db1=db1, db2=db2, i0=1)),
        # no axis: the base point alone
        ([], dict(mode="Sstar", db1=db1, db2=db2, nonexistence=nonex)),
        # the first axis's index error comes before the second's name error
        ([SweepAxis("eta12", 0.0, 1.0, 2), SweepAxis("mu1", 0.0, 1.0, 2)],
         dict(mode="Sstar", db1=db1, db2=db2, i0=1)),
    ]


def assert_matches_oracle(spec, cc, axes, kwargs):
    # overflow in the columns prints no RuntimeWarning of its own
    assert sweep_outcome(sweep, spec, cc, axes, **kwargs) == \
        sweep_outcome(ref_sweep, spec, cc, axes, **kwargs)


@settings(max_examples=200, deadline=None, database=None)
@given(sweep_cases())
def test_sweep_matches_per_point_oracle(example_spec, example_cc, case):
    assert_matches_oracle(example_spec, example_cc, *case)


@pytest.mark.parametrize("index", range(7))
def test_sweep_matches_per_point_oracle_on_rare_cases(example_spec, example_cc, index):
    assert_matches_oracle(example_spec, example_cc, *oracle_examples(example_spec)[index])
