import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

import hammcert as hc

# reduced-resolution search config for property tests where 1e-3 accuracy
# suffices; acceptance-grade values use the defaults
FAST_OPT = hc.Opt1DConfig(coarse_grid=256)

# one PASS/FAIL line per acceptance criterion, printed after the run
ACCEPTANCE_OUTCOMES = {}
ACCEPTANCE_DETAILS = {}


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance.py::test_criterion" in report.nodeid:
        ACCEPTANCE_OUTCOMES[report.nodeid] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_OUTCOMES:
        return
    terminalreporter.section("acceptance criteria")
    for nodeid in sorted(ACCEPTANCE_OUTCOMES):
        name = nodeid.split("::")[-1]
        number = int(name.split("_")[2])
        outcome = ACCEPTANCE_OUTCOMES[nodeid]
        line = f"criterion {number}: {'PASS' if outcome == 'passed' else outcome.upper()}"
        detail = ACCEPTANCE_DETAILS.get(number)
        if detail and outcome == "passed":
            line += f" - {detail}"
        terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def example_spec():
    return hc.load_config(hc.example_config_path())


@pytest.fixture(scope="session")
def example_cc(example_spec):
    return hc.assemble_cone_constants(example_spec)


@pytest.fixture(scope="session")
def example_solution(example_spec, example_cc):
    rep = hc.solve_fixed_point(example_spec, cc=example_cc,
                               rho_interval=(1e-3, 1.0))
    assert rep.converged
    return rep


# the benchmark's smooth-kernel configuration, read but never written here
TIGHT_CONFIG = Path(__file__).resolve().parents[1] / "perfbench" / "configs" / "tight.cfg"


@pytest.fixture(scope="session")
def tight_spec():
    return hc.load_config(TIGHT_CONFIG)


@pytest.fixture(scope="session")
def tight_cc(tight_spec):
    return hc.assemble_cone_constants(tight_spec)


def digest(obj) -> str:
    """sha256 of an object's sorted-key JSON; floats are written by repr,
    so the digest changes when any float changes by one bit."""
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def state_digest(u) -> str:
    return hashlib.sha256(u.values.tobytes() + u.derivatives.tobytes()).hexdigest()


def single_component_spec(kernel, *, lam=1.0, f="1", w="1", window=(0.0, 0.375),
                          envelope="tight", gammas=(), **extra):
    """Spec for a one-component problem; gammas entries are dicts."""
    doc = {
        "n": 1,
        "components": [{
            "kernel": kernel,
            "window": list(window),
            "lambda": lam,
            "f": f,
            "w": w,
            "envelope": envelope,
            "gammas": list(gammas),
        }],
        **extra,
    }
    return hc.spec_from_dict(doc)


@pytest.fixture(scope="session")
def linear_k1_spec():
    """k = k1, f == 1, lambda = 1: T(u)(t) = 3/8 - t^2/2 for every u."""
    return single_component_spec("example-k1", envelope={"phi0": "3/4"})


@pytest.fixture(scope="session")
def linear_k2_spec():
    """k = k2, f == 1, lambda = 1: T(u)(t) = 17/40 - t^2/2 for every u."""
    return single_component_spec("example-k2", window=(0.0, 0.5),
                                 envelope={"phi0": "1 - s"})


def trig_state(seed: int, n: int = 1, num_panels: int = 128, degree: int = 5):
    """Deterministic random trig-polynomial state (not cone-constrained)."""
    rng = np.random.default_rng(seed)
    nodes = np.linspace(0.0, 1.0, num_panels + 1)
    values = np.zeros((n, nodes.size))
    derivs = np.zeros((n, nodes.size))
    for i in range(n):
        a = rng.uniform(-1, 1, degree + 1)
        b = rng.uniform(-1, 1, degree)
        values[i] += a[0]
        for d in range(1, degree + 1):
            wfreq = 2 * np.pi * d
            values[i] += a[d] * np.cos(wfreq * nodes) + b[d - 1] * np.sin(wfreq * nodes)
            derivs[i] += wfreq * (-a[d] * np.sin(wfreq * nodes) + b[d - 1] * np.cos(wfreq * nodes))
    return hc.DiscreteState(nodes, values, derivs)
