"""Metamorphic relations of the whole pipeline: a change of the problem that
must move every constant, certificate row and solution in a known way, bit
for bit.

Scaling both kernel expressions (k and dk_dt) and a declared envelope by
2^p scales the computed 1/m_0, 1/m_1 and 1/M by exactly 2^p and leaves c~,
c_ij, ||gamma_ij||, ||gamma_ij'|| and c unchanged.  With every lambda_i
also scaled by 2^-p, through ``spec.params``, every S* certificate row and
the solved state are unchanged.
"""

import copy
import json
from dataclasses import replace

import pytest

import hammcert as hc
from hammcert.kernels import KERNEL_CATALOG
from conftest import TIGHT_CONFIG, state_digest

# example.cfg's catalog kernels, written out so that they can be scaled
INLINE_KERNELS = {
    "example-k1": {"k": "1/4 + pos(1/2 - s) - pos(t - s)", "dk_dt": "-step(t - s)",
                   "breakpoints": ["1/2"]},
    "example-k2": {"k": "4/5*(1 - s) + 1/5*pos(1/2 - s) - pos(t - s)",
                   "dk_dt": "-step(t - s)", "breakpoints": ["1/2"]},
}
CONFIGS = {"example": hc.example_config_path(), "tight": TIGHT_CONFIG}
SCALED = ("recip_m0", "recip_m1", "recip_M")


def _unscaled_doc(path) -> dict:
    """The config with inline kernels and no declared constants, so that
    every constant a row uses is computed."""
    doc = json.loads(path.read_text())
    for comp in doc["components"]:
        comp.pop("declared", None)
        if isinstance(comp["kernel"], str):
            comp["kernel"] = dict(INLINE_KERNELS[comp["kernel"]])
    return doc


def _scaled_doc(doc: dict, p: int) -> dict:
    """doc with k, dk_dt and any declared envelope scaled by 2^p; the factor
    is a decimal literal, since the interval table declines ^."""
    doc = copy.deepcopy(doc)
    for comp in doc["components"]:
        texts = [comp["kernel"]]
        if isinstance(comp["envelope"], dict):
            texts.append(comp["envelope"])
        for d in texts:
            for key in d.keys() & {"k", "dk_dt", "phi0", "phi1"}:
                d[key] = f"{2.0 ** p!r}*({d[key]})"
    return doc


def _rows(spec, cc) -> list[dict]:
    cert = hc.existence_certificate(spec, cc, spec.bounds_at(1e-3), spec.bounds_at(1.0),
                                    "Sstar", 1)
    return [row.as_dict() for row in cert.rows]


def _solution(spec) -> tuple[str, int]:
    rep = hc.solve_fixed_point(spec)
    return state_digest(rep.state), rep.iterations


@pytest.fixture(scope="module", params=sorted(CONFIGS))
def unscaled(request):
    doc = _unscaled_doc(CONFIGS[request.param])
    spec = hc.spec_from_dict(doc)
    raw = json.loads(CONFIGS[request.param].read_text())
    for cdoc, comp in zip(raw["components"], spec.components):
        if isinstance(cdoc["kernel"], str):  # the inline text is still the catalog's
            assert comp.kernel == KERNEL_CATALOG[cdoc["kernel"]]
    cc = hc.assemble_cone_constants(spec)
    return doc, cc, _rows(spec, cc), _solution(spec)


@pytest.mark.parametrize("p", [3, -2])
def test_scaling_the_kernels_by_a_power_of_two(unscaled, p):
    doc, cc, rows, solution = unscaled
    spec = hc.spec_from_dict(_scaled_doc(doc, p))
    scaled_cc = hc.assemble_cone_constants(spec)
    for before, after in zip(cc, scaled_cc):
        assert before.records.keys() == after.records.keys()
        for key, record in before.records.items():
            factor = 2.0 ** p if key in SCALED else 1.0
            assert after.record(key).computed == factor * record.computed, key

    params = spec.params
    spec = replace(spec, params=hc.Params(tuple(lam * 2.0 ** -p for lam in params.lambdas),
                                          params.etas))
    assert _rows(spec, scaled_cc) == rows
    assert _solution(spec) == solution
