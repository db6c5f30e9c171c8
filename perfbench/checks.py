"""Output checks of the benchmark, with references that never come from
hammcert itself: closed forms, and mpmath quadrature for the tight config's
second kernel.

Each ``check_*`` function returns a list of error strings; an empty list
means the output is correct.  ``perturb`` scales every reference so that the
self-check can show that the checks fail when the reference is wrong.
"""

from __future__ import annotations

import math

import mpmath as mp

E = math.e

# Declared bound expressions of the workload configs, evaluated here with
# math instead of the program's DSL.  A config using any other expression
# fails the check, so a changed config cannot silently pass.
BOUND_VALUES = {
    "2*e^2": 2.0 * E ** 2,
    "exp(-0.001)/(1+e)": math.exp(-0.001) / (1.0 + E),
    "exp(-0.0001)/(1+e)": math.exp(-0.0001) / (1.0 + E),
}

# Parameter point of every workload config: lambda_i and eta_i1.
LAMBDAS = (0.05, 0.5)
ETAS = (0.1, 0.5)


def _tight_component2() -> dict:
    """Constants of k(t,s) = exp(t-s)/4 - pos(t-s) on the window [0, 1/4].

    Each integral is evaluated by mpmath.quad on panels split where its
    integrand changes sign or kinks: at s = t, and for |k| also at
    s = t - x*, where phi(x) = exp(x)/4 - x has its root x*.  The extremum
    over t is taken over the interval ends and the stationary points of the
    integral, found from its derivative in t (written out below) by
    bracketing on a grid and bisection.
    """
    mp.mp.dps = 20
    phi = lambda x: mp.e ** x / 4 - x
    xstar = mp.findroot(phi, (0.2, 0.5), solver="bisect")

    def k(t, s):
        return mp.e ** (t - s) / 4 - max(t - s, 0)

    def dk(t, s):
        return mp.e ** (t - s) / 4 - (1 if t > s else 0)

    def abs_k_integral(t):
        pts = sorted({mp.mpf(0), mp.mpf(1), mp.mpf(t)}
                     | ({t - xstar} if t > xstar else set()))
        return mp.quad(lambda s: abs(k(t, s)), pts)

    def abs_dk_integral(t):
        pts = sorted({mp.mpf(0), mp.mpf(1), mp.mpf(t)})
        return mp.quad(lambda s: abs(dk(t, s)), pts)

    def window_integral(t):
        pts = sorted({mp.mpf(0), mp.mpf(0.25), mp.mpf(t)})
        return mp.quad(lambda s: k(t, s), pts)

    # d/dt of the three integrals: the part over s > t contributes
    # -exp(t-1)/4 (or its window analogue), the part over s < t the
    # integrand's value at s = 0
    d_abs_k = lambda t: abs(phi(t)) - mp.e ** (t - 1) / 4
    d_abs_dk = lambda t: abs(mp.e ** t / 4 - 1) - mp.e ** (t - 1) / 4
    d_window = lambda t: mp.e ** t * (1 - mp.e ** mp.mpf(-0.25)) / 4 - t

    def extremum(g, dg, a, b, pick):
        grid = [a + (b - a) * j / 2000 for j in range(2001)]
        vals = [dg(x) for x in grid]
        cands = [mp.mpf(a), mp.mpf(b)]
        for x0, x1, v0, v1 in zip(grid, grid[1:], vals, vals[1:]):
            if v0 == 0:
                cands.append(mp.mpf(x0))
            elif v0 * v1 < 0:
                cands.append(mp.findroot(dg, (x0, x1), solver="bisect"))
        return float(pick(g(x) for x in cands))

    # c~ with the tight envelope: min over window t of k over max over all t
    # of |k|; both are monotone in t - s on each side of s = t
    def ratio(s):
        s = mp.mpf(s)
        num = mp.e ** (-s) / 4
        if s < 0.25:
            num = min(num, phi(0.25 - s))
        den = max(mp.mpf(0.25), -phi(1 - s))
        return num / den

    grid = [j / 4000 for j in range(4001)]
    j = min(range(len(grid)), key=lambda i: ratio(grid[i]))
    lo, hi = grid[max(j - 1, 0)], grid[min(j + 1, len(grid) - 1)]
    c_tilde = min(ratio(grid[j]), ratio(lo), ratio(hi))
    for _ in range(80):
        m1, m2 = lo + (hi - lo) / 3, hi - (hi - lo) / 3
        if ratio(m1) <= ratio(m2):
            hi = m2
        else:
            lo = m1
        c_tilde = min(c_tilde, ratio(m1), ratio(m2))

    return {
        "recip_m0": extremum(abs_k_integral, d_abs_k, 0.0, 1.0, max),
        "recip_m1": extremum(abs_dk_integral, d_abs_dk, 0.0, 1.0, max),
        "recip_M": extremum(window_integral, d_window, 0.0, 0.25, min),
        "c_tilde": float(c_tilde),
        "c_gamma[0]": 13 / 18, "gamma_sup[0]": 0.9, "dgamma_sup[0]": 1.0,
    }


def references(family: str) -> dict:
    """Reference constants {component: {key: (value, tolerance)}}."""
    if family == "example":
        # criteria 1 and 2: hand-derived values at the criteria's tolerances
        return {
            1: {"recip_m0": (3 / 8, 1e-6), "recip_m1": (1.0, 1e-9),
                "recip_M": (9 / 64, 1e-6), "c_tilde": (1 / 3, 1e-6),
                "gamma_sup[0]": (0.75, 1e-12), "dgamma_sup[0]": (1.0, 1e-12)},
            2: {"recip_m0": (17 / 40, 1e-4), "recip_m1": (1.0, 1e-9),
                "recip_M": (0.2, 1e-4), "c_tilde": (0.4, 1e-3),
                "c_gamma[0]": (4 / 9, 1e-9), "gamma_sup[0]": (0.9, 1e-12),
                "dgamma_sup[0]": (1.0, 1e-12)},
        }
    if family == "tight":
        e14 = math.exp(-0.25)
        comp1 = {
            "recip_m0": (1 - 1 / E) / 2, "recip_m1": 1 - 2 / E, "c_tilde": 0.5,
            # t = 1/4 minimizes the window integral of exp(-s)(1/2 - t s)
            "recip_M": (1 - e14) / 2 - (1 - 1.25 * e14) / 4,
            "c_gamma[0]": 2 / 3, "gamma_sup[0]": 0.75, "dgamma_sup[0]": 1.0,
        }
        return {1: {k: (v, 1e-9) for k, v in comp1.items()},
                2: {k: (v, 1e-9) for k, v in _tight_component2().items()}}
    raise ValueError(f"unknown reference family {family!r}")


def perturb(refs: dict, factor: float = 1.001) -> dict:
    return {i: {k: (v * factor, tol) for k, (v, tol) in comp.items()}
            for i, comp in refs.items()}


def _bound(value) -> float:
    if isinstance(value, (int, float)):
        return float(value)
    if value not in BOUND_VALUES:
        raise ValueError(f"no reference value for the bound expression {value!r}")
    return BOUND_VALUES[value]


def declared(config: dict, rho: float) -> list:
    """The per-component declared bounds of a config at radius rho."""
    for block in config["bounds"]:
        if abs(float(block["rho"]) - rho) <= 1e-12:
            return block["components"]
    raise ValueError(f"config has no bounds block at rho = {rho}")


def reference_rows(refs: dict, config: dict, lam1: float, eta11: float,
                   rho1: float) -> dict:
    """lhs of every row of the S* existence certificate with i0 = 1 between
    rho1 and rho2 = 1, evaluated from the reference constants."""
    lambdas = (lam1, LAMBDAS[1])
    etas = (eta11, ETAS[1])
    outer = declared(config, 1.0)
    inner = declared(config, rho1)[0]
    c = {i: {k: v for k, (v, _) in comp.items()} for i, comp in refs.items()}
    rows = {}
    for i in (1, 2):
        cb, ci = outer[i - 1], c[i]
        for l in (0, 1):
            recip = ci[f"recip_m{l}"]
            gsup = ci["gamma_sup[0]"] if l == 0 else ci["dgamma_sup[0]"]
            rows[f"i={i},l={l}"] = (lambdas[i - 1] * _bound(cb["f_hi"]) * recip
                                    + etas[i - 1] * gsup * _bound(cb["h"][0]["hi"]))
    # h_lo = 0 in every config, so the gamma term of I0* vanishes
    rows["i0=1"] = lambdas[0] * _bound(inner["f_lo"]) * c[1]["recip_M"]
    return rows


def check_constants(report: dict, refs: dict, family: str) -> list:
    errors = []
    comps = {c["component"]: c["constants"] for c in report["components"]}
    for i, ref in refs.items():
        for key, (value, tol) in ref.items():
            got = comps[i][key]["computed"]
            if not abs(got - value) <= tol:
                errors.append(f"component {i} {key}: computed {got!r}, "
                              f"reference {value!r} (tolerance {tol})")
    if family == "example":
        # criterion 2: the printed 21/40 and 2/5 must be flagged, not adopted
        flagged = {(f["component"], f["constant"]) for f in report["discrepancies"]}
        for item in ((2, "recip_m0"), (2, "recip_M")):
            if item not in flagged:
                errors.append(f"declared {item} not flagged as a discrepancy")
    return errors


def check_certify(report: dict, exit_code: int, refs: dict, config: dict,
                  family: str, flip_exit: int | None = None) -> list:
    errors = []
    if exit_code != 0 or report.get("certified") is not True:
        errors.append(f"certify: exit {exit_code}, certified "
                      f"{report.get('certified')!r}; expected a certified verdict")
    rows = {r["label"]: r["lhs"] for r in report.get("rows", [])}
    expected = reference_rows(refs, config, LAMBDAS[0], ETAS[0], 1e-3)
    for label, lhs in expected.items():
        if label not in rows or not abs(rows[label] - lhs) <= 1e-6:
            errors.append(f"certify row {label}: lhs {rows.get(label)!r}, "
                          f"reference {lhs!r}")
    if family == "example":
        # criterion 3: binding row lambda2 + eta21 = 1 at margin 0
        if report.get("binding") != "i=2,l=1":
            errors.append(f"certify binding {report.get('binding')!r}, expected i=2,l=1")
        if not abs(1.0 - rows.get("i=2,l=1", math.inf)) <= 1e-12:
            errors.append(f"binding lhs {rows.get('i=2,l=1')!r} not 1 within 1e-12")
        if not abs(rows.get("i=1,l=1", math.inf) - (E ** 2 / 10 + 0.2)) <= 1e-9:
            errors.append(f"row i=1,l=1 lhs {rows.get('i=1,l=1')!r} != e^2/10 + 1/5")
        if flip_exit is not None and flip_exit != 10:
            errors.append(f"eta21 + 1e-6 gave exit {flip_exit}; expected 10")
    return errors


def check_falsify(rec: dict) -> list:
    if rec["violations"]:
        return [f"falsify seed {rec['seed']}: violations {rec['violations']}"]
    return []


def check_solve(rec: dict) -> list:
    s = rec["solve"]
    ok = (s["converged"] and s["residual"] <= 1e-8 and s["member"]
          and 1e-3 <= s["norm"] <= 1.0)
    return [] if ok else [f"solve: {s}"]


def check_sweep(rec: dict, refs: dict, config: dict, rho1: float) -> list:
    """121 points, each classified once; the certified frontier of every
    lambda1 column within one eta11 grid cell of the reference frontier."""
    rows = rec["sweep"]
    errors = []
    verdicts = {}
    for lam, eta, verdict in rows:
        key = (round(lam, 10), round(eta, 10))
        if key in verdicts:
            errors.append(f"sweep point {key} classified twice")
        verdicts[key] = verdict
        if verdict not in ("existence-certified", "nonexistence-certified",
                           "undetermined"):
            errors.append(f"sweep point {key}: unknown verdict {verdict!r}")
    if len(rows) != 121 or len(verdicts) != 121:
        return errors + [f"sweep has {len(rows)} rows, {len(verdicts)} points; expected 121"]
    lams = [j * 0.01 for j in range(11)]
    etas = [j * 0.05 for j in range(11)]
    for lam in lams:
        got = [eta for eta in etas
               if verdicts[(round(lam, 10), round(eta, 10))] == "existence-certified"]
        want = []
        for eta in etas:
            r = reference_rows(refs, config, lam, eta, rho1)
            if r["i0=1"] >= rho1 and all(v <= 1.0 for k, v in r.items() if k != "i0=1"):
                want.append(eta)
        if not got or not want:
            if got or want:
                errors.append(f"lambda1={lam}: certified {got}, reference {want}")
            continue
        if abs(max(got) - max(want)) > 0.05 + 1e-12:
            errors.append(f"lambda1={lam}: frontier {max(got)}, reference {max(want)}")
        if got != [eta for eta in etas if eta <= max(got)]:
            errors.append(f"lambda1={lam}: certified region below the frontier has holes")
    return errors
