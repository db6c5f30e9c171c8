"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every expected value is either a hand-derived closed form or checked
against an independent brute-force oracle computed in-test.
"""

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import conftest
import hammcert as hc
from hammcert import (ComponentBounds, DeclaredBounds, HBounds, Params,
                      SweepAxis, Window, apply_T, cone_membership,
                      falsify_bounds, nonexistence_certificate,
                      solve_fixed_point, sweep)
from hammcert.cli import main
from hammcert.cone import sample_cone_boundary_rng
from hammcert.constants import c_tilde, gamma_c, recip_M, recip_m, sup_abs_1d
from hammcert.expr import (BOUNDARY_CONTEXT, ENVELOPE_CONTEXT, KERNEL_CONTEXT,
                           parse_expr)
from hammcert.kernels import (EnvelopeSpec, KernelDef, kernel_from_catalog,
                              validate_kernel_derivative)

from test_constants import brute_recip_M2, brute_recip_m20
from test_expr import FUNCTIONAL_GOLDENS, GOLDENS

CFG = str(hc.example_config_path())
E = math.e


def report(n, text):
    # recorded for the one-line-per-criterion terminal summary (conftest)
    conftest.ACCEPTANCE_DETAILS[n] = text
    print(f"[acceptance] criterion {n}: PASS - {text}")


def test_criterion_1_constants_reproduction():
    k1 = kernel_from_catalog("example-k1")
    k2 = kernel_from_catalog("example-k2")
    assert recip_m(k1, 0) == pytest.approx(0.375, abs=1e-6)
    assert recip_m(k1, 1) == pytest.approx(1.0, abs=1e-9)
    assert recip_M(k1, Window(0, 0.375)) == pytest.approx(9 / 64, abs=1e-6)
    phi1 = EnvelopeSpec("declared", parse_expr("3/4", ENVELOPE_CONTEXT))
    assert c_tilde(k1, Window(0, 0.375), phi1) == pytest.approx(1 / 3, abs=1e-6)
    g11 = parse_expr("3/4 - t", BOUNDARY_CONTEXT)
    g21 = parse_expr("9/10 - t", BOUNDARY_CONTEXT)
    assert sup_abs_1d(lambda t: hc.eval_scalar(g11, {"t": t}),
                      Window(0, 1))[0] == pytest.approx(0.75, abs=1e-12)
    assert sup_abs_1d(lambda t: hc.eval_scalar(g21, {"t": t}),
                      Window(0, 1))[0] == pytest.approx(0.9, abs=1e-12)
    assert gamma_c(g21, Window(0, 0.5))[0] == pytest.approx(4 / 9, abs=1e-9)
    phi2 = EnvelopeSpec("declared", parse_expr("1 - s", ENVELOPE_CONTEXT))
    assert c_tilde(k2, Window(0, 0.5), phi2) == pytest.approx(0.4, abs=1e-3)
    assert recip_m(k2, 1) == pytest.approx(1.0, abs=1e-9)
    report(1, "all example constants reproduced at their stated tolerances")


def test_criterion_2_constants_audit(example_spec, example_cc):
    got_m = recip_m(kernel_from_catalog("example-k2"), 0)
    oracle_m = brute_recip_m20()
    assert got_m == pytest.approx(oracle_m, abs=1e-4)
    got_M = recip_M(kernel_from_catalog("example-k2"), Window(0, 0.5))
    oracle_M = brute_recip_M2()
    assert got_M == pytest.approx(oracle_M, abs=1e-4)
    # hand derivation: 17/40 and 1/5 (the config declares the printed 21/40
    # and 2/5, which must be flagged, not adopted)
    assert oracle_m == pytest.approx(17 / 40, abs=1e-4)
    assert oracle_M == pytest.approx(0.2, abs=1e-4)
    rep = hc.constants_report(example_spec, example_cc)
    flagged = {(f["component"], f["constant"]) for f in rep["discrepancies"]}
    assert (2, "recip_m0") in flagged
    assert (2, "recip_M") in flagged
    used = example_cc[1].record("recip_m0").used
    assert used == pytest.approx(oracle_m, abs=1e-4)
    report(2, f"1/m_20 = {got_m:.6f} and 1/M_2 = {got_M:.6f} agree with the "
              "brute-force oracle; declared printed values flagged")


def test_criterion_3_existence_certificate(tmp_path, example_spec, example_cc):
    out = tmp_path / "cert.json"
    code = main(["certify", CFG, "--mode", "Sstar", "--rho1", "1e-3",
                 "--rho2", "1", "--out", str(out)])
    assert code == 0
    cert = json.loads(out.read_text())
    assert cert["certified"] is True
    rows = {r["label"]: r for r in cert["rows"] if "l=" in r["label"]}
    binding = rows["i=2,l=1"]
    assert abs(1.0 - binding["lhs"]) <= 1e-12
    assert rows["i=1,l=1"]["lhs"] == pytest.approx(E ** 2 / 10 + 0.2, abs=1e-9)
    # +1e-6 on eta21 must flip the verdict
    code2 = main(["certify", CFG, "--mode", "Sstar", "--rho1", "1e-3",
                  "--rho2", "1", "--set", "eta21=0.500001",
                  "--out", str(tmp_path / "c2.json")])
    assert code2 == 10
    report(3, "S* certificate certified with binding row lambda2+eta21 = 1 "
              "(margin 0) and e^2/10 + 1/5 on the other row; +1e-6 flips it")


def test_criterion_4_nonexistence_evaluation(example_spec, example_cc):
    db = example_spec.bounds_at(1.0)
    p = example_spec.params.with_overrides(
        {"lambda1": 31, "eta11": 1, "lambda2": 1, "eta21": 1})
    cert = nonexistence_certificate(example_spec, example_cc, db, [2], [1], p)
    rows = {r.label: r for r in cert.rows}
    assert rows["J:i=1"].lhs == pytest.approx(651 / 640, abs=1e-9)
    assert rows["J:i=1"].holds
    assert rows["I:i=2"].lhs > 1.0  # with the tool's own 1/m_20
    assert not cert.certified
    assert any("differs" in n for n in cert.notes)
    p2 = example_spec.params.with_overrides(
        {"lambda1": 31, "eta11": 1, "lambda2": 0.1, "eta21": 0.1})
    cert2 = nonexistence_certificate(example_spec, example_cc, db, [2], [1], p2)
    assert cert2.certified
    report(4, f"(31,1,1,1): J-side 651/640, I-side {rows['I:i=2'].lhs:.4f} > 1, "
              "not certified + discrepancy note; (31,1,0.1,0.1) certifies")


def test_criterion_5_solver_oracles(linear_k1_spec, linear_k2_spec):
    for spec, peak in ((linear_k1_spec, 3 / 8), (linear_k2_spec, 17 / 40)):
        rep = solve_fixed_point(spec)
        assert rep.converged and rep.iterations <= 100
        nodes = rep.state.nodes
        assert nodes.size == 129
        err = np.max(np.abs(rep.state.values[0] - (peak - nodes ** 2 / 2)))
        assert err <= 1e-10, err
    report(5, "linear problems converge to 3/8 - t^2/2 and 17/40 - t^2/2 "
              "with node error <= 1e-10 at N = 128")


def test_criterion_6_full_example_solve(example_spec, example_cc):
    rep = solve_fixed_point(example_spec, cc=example_cc, rho_interval=(1e-3, 1.0))
    assert rep.converged and rep.iterations <= 5000
    assert rep.residual <= 1e-8
    assert cone_membership(rep.state, example_cc).member
    assert rep.norms.overall <= 1.0
    assert rep.norms.overall > 0.0
    rep2 = solve_fixed_point(replace(example_spec, solver=hc.SolverConfig(nodes=256)),
                             cc=example_cc)
    assert rep2.converged
    diff = float(np.max(np.abs(rep2.state.values[:, ::2] - rep.state.values)))
    assert diff <= 1e-8
    report(6, f"Picard from 0 converges in {rep.iterations} iterations "
              f"(residual {rep.residual:.2e}), cone member, ||u|| = "
              f"{rep.norms.overall:.4f} <= 1, N-doubling drift {diff:.2e}")


def test_criterion_7_cone_invariance_and_falsification(example_spec, example_cc):
    # 200 seeded boundary samples stay in the cone after applying T
    rng = np.random.default_rng(example_spec.seed)
    for _ in range(200):
        u = sample_cone_boundary_rng(example_spec, example_cc, 1.0, rng)
        assert cone_membership(apply_T(example_spec, u), example_cc).member
    # 1000 samples respect every declared range (0 violations)
    db = example_spec.bounds_at(1.0)
    rep = falsify_bounds(example_spec, example_cc, db, samples=1000,
                         seed=example_spec.seed)
    assert not rep.falsified, [v.detail for v in rep.violations]
    # a deliberately wrong bound is refuted with a reproducible witness
    wrong = DeclaredBounds(1.0, (
        ComponentBounds(w_lo=db.components[0].w_lo, w_hi=0.5,
                        h=(HBounds(lo=0.0, hi=0.05),)),
        db.components[1]))
    rep2 = falsify_bounds(example_spec, example_cc, wrong, samples=1000,
                          seed=example_spec.seed)
    kinds = {v.kind for v in rep2.violations}
    assert "w_hi" in kinds and "h_hi" in kinds
    witness = next(v for v in rep2.violations if v.kind == "w_hi")
    again = hc.eval_functional(example_spec.components[0].w, witness.witness,
                               example_spec.quad)
    assert again == pytest.approx(witness.observed, abs=1e-12)
    report(7, "200/200 boundary samples stay in the cone under T; 0/1000 "
              "range violations; wrong bounds refuted with reproducible witnesses")


def test_criterion_8_quadrature_and_parse_micro_suite():
    # breakpoint kink integral exact to 1e-14
    val = hc.integrate(lambda s: np.maximum(0.5 - s, 0.0), 0.0, 1.0, [0.5])
    assert val == pytest.approx(0.125, abs=1e-14)
    # polynomial exactness to 1e-13 (degree 2*order - 1)
    rng = np.random.default_rng(2)
    for _ in range(10):
        coeffs = rng.uniform(-1, 1, 16)
        exact = sum(c / (k + 1) for k, c in enumerate(coeffs))
        got = hc.integrate(lambda s: np.polyval(coeffs[::-1], s), 0.0, 1.0)
        assert got == pytest.approx(exact, abs=1e-13)
    # DSL round trip on 50 goldens
    goldens = 0
    for text in GOLDENS:
        ast = parse_expr(text, frozenset({"t", "s"}))
        assert parse_expr(hc.render(ast), frozenset({"t", "s"})) == ast
        goldens += 1
    for text in FUNCTIONAL_GOLDENS:
        ast = hc.parse_functional(text, 2)
        assert hc.parse_functional(hc.render(ast), 2) == ast
        goldens += 1
    assert goldens >= 50
    # dk-vs-finite-difference validation: catalog kernels pass, corruption fails
    k1 = kernel_from_catalog("example-k1")
    validate_kernel_derivative(k1)
    validate_kernel_derivative(kernel_from_catalog("example-k2"))
    bad = KernelDef(k1.k, parse_expr("-0.9*step(t-s)", KERNEL_CONTEXT),
                    k1.fixed_breakpoints, k1.moving_breakpoint)
    with pytest.raises(hc.ModelViolationError):
        validate_kernel_derivative(bad)
    report(8, f"kink integral exact, polynomial exactness, {goldens} round-trip "
              "goldens, derivative validation accepts k1/k2 and rejects corruption")


def test_criterion_9_sweep_reproduction(example_cc):
    # rho1 = 1e-4 keeps the inner condition satisfiable for every grid
    # lambda1 > 0, so the certified region boundary is the I1 line
    doc = json.loads(Path(CFG).read_text())
    doc["bounds"].append({
        "rho": 1e-4,
        "components": [
            {"w_lo": "1/(1+e)", "w_hi": "e", "f_lo": "exp(-0.0001)/(1+e)",
             "h": [{"lo": 0}]},
            {"w_lo": "e^-4", "w_hi": 1, "h": [{"lo": 0}]},
        ]})
    spec = hc.spec_from_dict(doc)
    cc = hc.assemble_cone_constants(spec)  # same kernels; cached values differ only by spec identity
    axes = [SweepAxis("lambda1", 0.0, 0.1, 11), SweepAxis("eta11", 0.0, 0.5, 11)]
    result = sweep(spec, cc, axes, mode="Sstar", db1=spec.bounds_at(1e-4),
                   db2=spec.bounds_at(1.0), i0=1,
                   nonexistence={"db": spec.bounds_at(1.0),
                                 "setI": [2], "setJ": [1]})
    assert sum(result.counts().values()) == 121  # no point doubly classified
    rows = {(round(r["lambda1"], 10), round(r["eta11"], 10)): r["verdict"]
            for r in result.rows}
    lam_grid = np.linspace(0, 0.1, 11)
    eta_grid = np.linspace(0, 0.5, 11)
    d_eta = eta_grid[1] - eta_grid[0]
    for lam in lam_grid:
        certified_etas = [eta for eta in eta_grid
                          if rows[(round(lam, 10), round(eta, 10))] ==
                          "existence-certified"]
        if lam == 0.0:
            assert not certified_etas  # lambda1 > 0 is required
            continue
        analytic = (1.0 - 2 * E ** 2 * lam) / 2.0  # boundary 2(e^2 lam + eta) = 1
        if analytic < 0:
            assert not certified_etas
            continue
        frontier = max(certified_etas)
        assert abs(frontier - min(analytic, eta_grid[-1])) <= d_eta + 1e-12
        # the region below the frontier is solid
        for eta in eta_grid:
            if eta <= frontier:
                assert rows[(round(lam, 10), round(eta, 10))] == "existence-certified"
    report(9, "certified region matches 2(e^2 lambda1 + eta11) <= 1 within one "
              "grid cell; 121/121 points single-classified")
