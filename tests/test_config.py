"""The config loader against malformed documents: every failure is a
ConfigError that names the key path of the offending value."""

import copy
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hammcert as hc
from conftest import TIGHT_CONFIG

EXAMPLE = json.loads(hc.example_config_path().read_text())
TIGHT = json.loads(TIGHT_CONFIG.read_text())


def load_text(text: str):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutated.cfg"
        path.write_text(text)
        return hc.load_config(path)


def load(doc):
    # json writes nan and inf as NaN and Infinity, which json.loads accepts
    return load_text(json.dumps(doc))


def example():
    return json.loads(json.dumps(EXAMPLE))


class TestRejectedAtTheirSource:
    def test_h_bounds_given_as_an_object(self):
        doc = example()
        doc["bounds"][0]["components"][0]["h"] = {"lo": 0}
        with pytest.raises(hc.ConfigError) as err:
            load(doc)
        assert err.value.key == "bounds[0].components[0].h"

    def test_h_bounds_entry_that_is_not_an_object(self):
        doc = example()
        doc["bounds"][0]["components"][0]["h"] = [0]
        with pytest.raises(hc.ConfigError) as err:
            load(doc)
        assert err.value.key == "bounds[0].components[0].h[0]"

    def test_invalid_h_bounds_name_their_entry(self):
        doc = example()
        doc["bounds"][0]["components"][0]["h"] = [{"lo": 3, "hi": 1}]
        with pytest.raises(hc.ConfigError, match="h_lo=3.0 > h_hi=1.0") as err:
            load(doc)
        assert err.value.key == "bounds[0].components[0].h[0]"

    def test_envelope_expression_that_is_not_a_string(self):
        doc = example()
        doc["components"][0]["envelope"] = {"phi0": 3}
        with pytest.raises(hc.ConfigError, match="expected an expression string") as err:
            load(doc)
        assert err.value.key == "components[0].envelope.phi0"

    def test_seed_must_be_an_integer(self):
        doc = example()
        doc["seed"] = "x"
        with pytest.raises(hc.ConfigError) as err:
            load(doc)
        assert err.value.key == "seed"

    @pytest.mark.parametrize("n", [2.5, 2.0, "2", True])
    def test_n_must_be_an_integer(self, n):
        doc = example()
        doc["n"] = n
        with pytest.raises(hc.ConfigError) as err:
            load(doc)
        assert err.value.key == "n"

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("path,key", [
        (("components", 0, "lambda"), "components[0].lambda"),
        (("components", 1, "gammas", 0, "eta"), "components[1].gammas[0].eta"),
        (("bounds", 0, "rho"), "bounds[0].rho"),
        (("bounds", 1, "components", 0, "w_lo"), "bounds[1].components[0].w_lo"),
    ])
    def test_non_finite_numbers_are_rejected(self, path, key, value):
        doc = example()
        parent = doc
        for step in path[:-1]:
            parent = parent[step]
        parent[path[-1]] = value
        with pytest.raises(hc.ConfigError, match="finite") as err:
            load(doc)
        assert err.value.key == key

    def test_integer_beyond_the_double_range(self):
        doc = example()
        doc["components"][0]["lambda"] = 10 ** 400
        with pytest.raises(hc.ConfigError, match="out of range") as err:
            load(doc)
        assert err.value.key == "components[0].lambda"

    def test_integer_literal_too_long_to_read(self):
        text = hc.example_config_path().read_text().replace('"seed": 20240801',
                                                            '"seed": ' + "1" * 5000)
        with pytest.raises(hc.ConfigError, match="not valid JSON"):
            load_text(text)

    def test_expression_nested_too_deeply(self):
        # a left-associative chain of 501 terms, an AST 500 nodes deep: too
        # deep to hash, render or pickle on the default Python stack
        doc = example()
        doc["components"][0]["f"] += "+0" * 500
        with pytest.raises(hc.ConfigError, match="nested more than 100 levels") as err:
            load(doc)
        assert err.value.key == "components[0].f"

    def test_nan_lambda_in_the_json_text(self):
        text = hc.example_config_path().read_text().replace('"lambda": "1/20"',
                                                            '"lambda": NaN')
        with pytest.raises(hc.ConfigError, match="finite") as err:
            load_text(text)
        assert err.value.key == "components[0].lambda"

    @pytest.mark.parametrize("value", ["exp(1000)", "log(0)", "1e999"])
    def test_constant_expression_that_fails_to_evaluate(self, value):
        doc = example()
        doc["components"][0]["lambda"] = value
        with pytest.raises(hc.ConfigError) as err:
            load(doc)
        assert err.value.key == "components[0].lambda"

    def test_evaluation_point_that_fails_to_evaluate(self):
        doc = example()
        doc["components"][0]["w"] = "val(1, log(0))"
        with pytest.raises(hc.ConfigError, match="evaluation point") as err:
            load(doc)
        assert err.value.key == "components[0].w"

    @pytest.mark.parametrize("section,key,value", [
        ("quad", "gauss_order", 8.5), ("quad", "rel_tol", math.nan),
        ("quad", "abs_tol", 10 ** 400), ("solver", "max_iterations", math.inf),
        ("solver", "nodes", "128"), ("solver", "initial", 0),
        ("opt", "coarse_grid", True),
    ])
    def test_section_values_must_have_their_json_type(self, section, key, value):
        doc = example()
        doc[section] = {key: value}
        with pytest.raises(hc.ConfigError) as err:
            load(doc)
        assert err.value.key == f"{section}.{key}"

    @pytest.mark.parametrize("opt", [{"coarse_grid": 0}, {"coarse_grid": -5},
                                     {"refine_tol": 0}])
    def test_search_settings_out_of_range(self, opt):
        # at the parent these loaded; assembly then raised ZeroDivisionError
        # or ValueError, or, at refine_tol = 0, ran for over 30 s, not 0.5 s
        doc = example()
        doc["opt"] = opt
        with pytest.raises(hc.ConfigError) as err:
            load(doc)
        assert err.value.key == "opt"

    @pytest.mark.parametrize("path,value,key", [
        (("components", 0, "gammas"), 3, "components[0].gammas"),
        (("bounds",), {"rho": 1}, "bounds"),
        (("components", 0, "kernel"), {"k": "s", "dk_dt": "0", "breakpoints": 0.5},
         "components[0].kernel.breakpoints"),
        (("components", 0, "kernel"), {"k": "s", "dk_dt": "0",
                                       "moving_breakpoint": "no"},
         "components[0].kernel.moving_breakpoint"),
        (("components", 0, "kernel"), {"k": "log(t - s)", "dk_dt": "1/(t - s)"},
         "components[0].kernel"),
    ])
    def test_wrong_json_types_name_their_key(self, path, value, key):
        doc = example()
        parent = doc
        for step in path[:-1]:
            parent = parent[step]
        parent[path[-1]] = value
        with pytest.raises(hc.ConfigError) as err:
            load(doc)
        assert err.value.key == key


# ---------------------------------------------------------------------------
# Mutated copies of the bundled configurations

def _paths(node, prefix=()):
    """Every (path, value) below node; a path is a tuple of keys and indices."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield prefix + (key,), value
        yield from _paths(value, prefix + (key,))


BAD_DSL = ["1 +", "u9", "log(", "val(3, 0.5)", "int(int(u1))", "exp(1000)",
           "log(0)", "1e999", "val(1, log(0))", "val(1, 2)", "t +* s", "", "  ",
           "foo(1)", "der(1.5, 0)", "1/0", "sqrt(0 - 1)"]
VALUES = st.one_of(
    st.sampled_from([None, True, False, "", "x", [], {}, [1, 2], {"lo": 0},
                     0, -1, 1, 2.5, -0.5, 10 ** 30, 10 ** 400, 1e300, math.nan, math.inf,
                     -math.inf, "tight", "example-k1", "example-gamma11"]),
    st.sampled_from(BAD_DSL),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-5, 300))


@st.composite
def mutated(draw):
    doc = json.loads(json.dumps(draw(st.sampled_from([EXAMPLE, TIGHT]))))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        path, _ = draw(st.sampled_from(paths))
        parent = doc
        for step in path[:-1]:
            parent = parent[step]
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[path[-1]]
        else:
            # a copy, so that no sampled list or object is shared or nested
            parent[path[-1]] = copy.deepcopy(draw(VALUES))
    return doc


@settings(max_examples=300, deadline=None, database=None)
@given(mutated())
def test_mutated_configs_fail_only_with_a_key_path(doc):
    try:
        spec = load(doc)
    except hc.ConfigError as err:
        assert isinstance(err.key, str) and err.key
    else:
        assert isinstance(spec, hc.ProblemSpec)
