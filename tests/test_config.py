"""The config loader against malformed documents: every failure is a
ConfigError that names the key path of the offending value."""

import copy
import json
import math
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hammcert as hc
from hammcert.constants import extremum_1d
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

    def test_seed_must_not_be_negative(self):
        # otherwise numpy's default_rng rejects it only after the whole assembly
        doc = example()
        doc["seed"] = -1
        with pytest.raises(hc.ConfigError, match="expected an integer >= 0") as err:
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

    def test_radii_one_lookup_cannot_tell_apart_are_duplicates(self):
        # the loader and bounds_at match radii by the same rule, so a block
        # that loads can always be looked up
        doc = example()
        doc["bounds"][0]["rho"] = 1000.0
        doc["bounds"][1]["rho"] = 1000.0 + 1e-10
        with pytest.raises(hc.ConfigError, match="duplicate radius") as err:
            load(doc)
        assert err.value.key == "bounds[1].rho"

    def test_bounds_lookup_matches_finite_radii_only(self):
        spec = hc.spec_from_dict(example())
        assert spec.bounds_at(1.0 + 1e-13) is spec.bounds[0]
        assert spec.bounds_at(0.001) is spec.bounds[1]
        for rho in (math.inf, math.nan, 1.0 + 1e-9):
            with pytest.raises(hc.ConfigError, match="no declared-bounds block"):
                spec.bounds_at(rho)

    @pytest.mark.parametrize("params", [
        hc.Params((0.05,), ((0.1,),)), hc.Params((0.05, 0.5, 1.0), ((0.1,), (0.5,), ())),
        hc.Params((0.05, 0.5), ((0.1,), ())), hc.Params((0.05, 0.5), ((0.1, 0.2), (0.5,))),
        hc.Params((0.05, 0.5), ((0.1,), (0.5,), ())),
    ])
    def test_a_replaced_point_must_fit_the_components(self, params):
        spec = hc.spec_from_dict(example())
        with pytest.raises(hc.ConfigError) as err:
            replace(spec, params=params)
        assert err.value.key == "params"
        assert str(err.value) == (f"params: {params} does not fit 2 components "
                                  f"with [1, 1] gamma terms")
        assert replace(spec, params=spec.params.with_overrides({"eta21": 1.0})) != spec

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

    @pytest.mark.parametrize("solver", [{"tol": 0}, {"tol": -1}, {"max_iterations": 0}])
    def test_solver_settings_out_of_range(self, solver):
        # at the parent these loaded, and solve ran 155 iterations (tol <= 0)
        # or none (max_iterations = 0) before it reported no convergence
        doc = example()
        doc["solver"] = solver
        with pytest.raises(hc.ConfigError) as err:
            load(doc)
        assert err.value.key == "solver"

    @pytest.mark.parametrize("quad", [{"max_subdivisions": 0}, {"max_subdivisions": -1}])
    def test_quad_settings_out_of_range(self, quad):
        # at the parent these loaded and integrated as max_subdivisions = 1
        doc = example()
        doc["quad"] = quad
        with pytest.raises(hc.ConfigError, match="max_subdivisions must be >= 1") as err:
            load(doc)
        assert err.value.key == "quad"

    def test_refine_tol_below_float_spacing_ends(self):
        # once the bracket is two adjacent doubles it no longer narrows, and a
        # search that waits for it to reach 1e-20 never ends; f raises rather
        # than let a regression hang
        doc = example()
        doc["opt"] = {"coarse_grid": 8, "refine_tol": 1e-20}
        opt = load(doc).opt
        calls = []

        def f(t):
            calls.append(t)
            if len(calls) > 10_000:
                raise RuntimeError("the golden-section search does not end")
            return t * (1 - t)

        assert extremum_1d(f, 0.0, 1.0, opt) == (0.25, 0.5)

    @pytest.mark.parametrize("key,value", [("c_gamma", ["1/3", "1/100"]),
                                           ("gamma_sup", [])])
    def test_declared_lists_hold_one_entry_per_gamma_term(self, key, value):
        # component 1 has one gamma term, so each list must hold one entry
        doc = example()
        doc["components"][0]["declared"][key] = value
        with pytest.raises(hc.ConfigError, match=r"one entry per gamma term \(1\)") \
                as err:
            load(doc)
        assert err.value.key == f"components[0].declared.{key}"

    def test_declared_constants_are_keyed_by_record(self, example_spec, example_cc):
        # each declared constant is kept under the key of the record that
        # reads it, a list's entry j as name[j]
        assert [comp.declared for comp in example_spec.components] == [
            {"recip_m0": 3 / 8, "recip_m1": 1.0, "recip_M": 9 / 64, "c_gamma[0]": 1 / 3,
             "gamma_sup[0]": 3 / 4, "dgamma_sup[0]": 1.0},
            {"recip_m0": 21 / 40, "recip_m1": 1.0, "recip_M": 2 / 5, "c_tilde": 2 / 5,
             "c_gamma[0]": 4 / 9, "gamma_sup[0]": 9 / 10, "dgamma_sup[0]": 1.0}]
        for comp, cci in zip(example_spec.components, example_cc):
            assert all(cci.record(key).declared == value
                       for key, value in comp.declared.items())
            assert all(rec.declared is None for key, rec in cci.records.items()
                       if key not in comp.declared)

    def test_n_is_the_number_of_components(self, example_spec):
        assert example_spec.n == len(example_spec.components) == EXAMPLE["n"] == 2
        p = example_spec.params
        one = replace(example_spec, components=example_spec.components[:1],
                      params=hc.Params(p.lambdas[:1], p.etas[:1]))
        assert one.n == 1
        doc = example()
        doc["n"] = 3
        with pytest.raises(hc.ConfigError, match=r"^components: expected a list of "
                                                 r"exactly n=3 components$"):
            load(doc)

    @pytest.mark.parametrize("path,value,assemble,text", [
        (("components", 0, "envelope", "phi0"), "3/4 - s", False,
         "components[0].envelope.phi0: condition (C2) violated: declared envelope "
         "is negative at s=1.000000: -2.500e-01"),
        (("components", 0, "declared", "c_gamma"), [0], True,
         "condition (C5) violated: declared c_{1,1} = 0.0 must be positive"),
        (("components", 0, "gammas", 0),
         {**EXAMPLE["components"][0]["gammas"][0], "gamma": "0*t", "dgamma": "0"}, True,
         "condition (C5) violated: gamma vanishes identically; its window constant "
         "is undefined"),
        (("components", 0, "gammas", 0, "eta"), -1, False,
         "components[0].gammas[0].eta: negative parameter violates (C6)"),
        (("n",), 0, False, "n: need at least one component"),
        (("components", 0, "f"), "exp(u1) $ 2", False,
         "components[0].f: unexpected character '$' at position 7: 'exp(u1) $ 2'"),
        (("components", 0, "gammas", 0, "h"), "val(1, 2)", False,
         "components[0].gammas[0].h: val: evaluation point 2.0 outside [0,1] at "
         "position 0: 'val(1, 2)' (C7 functional)"),
    ], ids=["negative-envelope", "zero-c-gamma", "zero-gamma", "negative-eta",
            "no-components", "bad-character", "point-outside"])
    def test_error_texts(self, path, value, assemble, text):
        doc = example()
        parent = doc
        for step in path[:-1]:
            parent = parent[step]
        parent[path[-1]] = value
        with pytest.raises(hc.HammcertError) as err:
            spec = hc.spec_from_dict(doc)
            if assemble:
                hc.assemble_cone_constants(spec)
        assert str(err.value) == text

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


@pytest.mark.parametrize("source,path,old,new,key", [
    (EXAMPLE, (), "seed", "sede", "sede"),
    (EXAMPLE, ("components", 0), "envelope", "envelop", "components[0].envelop"),
    (EXAMPLE, ("components", 1), "w", "W", "components[1].W"),
    (TIGHT, ("components", 0, "kernel"), "moving_breakpoint", "breakpoint",
     "components[0].kernel.breakpoint"),
    (EXAMPLE, ("components", 0, "envelope"), "phi0", "phi_0",
     "components[0].envelope.phi_0"),
    (EXAMPLE, ("components", 1, "gammas", 0), "eta", "etaa",
     "components[1].gammas[0].etaa"),
    (EXAMPLE, ("bounds", 1), "rho", "rhoo", "bounds[1].rhoo"),
    (EXAMPLE, ("bounds", 0, "components", 1), "f_hi", "f_hii",
     "bounds[0].components[1].f_hii"),
    (EXAMPLE, ("bounds", 0, "components", 0, "h", 0), "delta", "delt",
     "bounds[0].components[0].h[0].delt"),
], ids=["root", "component", "component-w", "inline-kernel", "envelope", "gamma-term",
        "bounds", "bounds-component", "h-bounds"])
def test_unknown_keys_are_rejected(source, path, old, new, key):
    # a misspelled key fails at its own path; ignored, it would leave the
    # key's default in force or report a required key as missing
    doc = json.loads(json.dumps(source))
    parent = doc
    for step in path:
        parent = parent[step]
    parent[new] = parent.pop(old)
    with pytest.raises(hc.ConfigError, match=r"unknown key; expected one of \[") as err:
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
        action = draw(st.sampled_from(["delete", "rename", "replace"])) \
            if isinstance(parent, dict) else "replace"
        if action == "delete":
            del parent[path[-1]]
        elif action == "rename":  # a misspelled key
            parent[draw(st.sampled_from([path[-1] + "s", "_" + path[-1],
                                         path[-1].upper()]))] = parent.pop(path[-1])
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
