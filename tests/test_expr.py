import inspect
import json
import math
import os
import pickle
import subprocess
import sys
import warnings
from contextlib import contextmanager

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy._core._multiarray_umath import __cpu_features__ as _CPU_FEATURES

from hammcert import (DiscreteState, DslSyntaxError, EvalDomainError, HammcertError,
                      ModelViolationError, QuadConfig, QuadratureError, constant_state,
                      eval_functional, eval_scalar, integrate, parse_expr,
                      parse_functional, render)
from hammcert.expr import (_MAX_DEPTH, _NUMPY, ENVELOPE_CONTEXT, KERNEL_CONTEXT,
                           Bin, Const, Der, Integral, Num, Unary, Val, Var,
                           _compile, _enclose, int_body_context,
                           nonlinearity_context, parse_constant)
from hammcert.quad import _shaped
from conftest import trig_state


class TestParse:
    def test_example_k1_expression(self):
        ast = parse_expr("0.25 + pos(0.5-s) - pos(t-s)", KERNEL_CONTEXT)
        # ((0.25 + pos(0.5-s)) - pos(t-s)) with the 0.5-s subtraction nested
        assert isinstance(ast, Bin) and ast.op == "-"
        assert isinstance(ast.left, Bin) and ast.left.op == "+"
        assert isinstance(ast.right, Unary) and ast.right.op == "pos"
        assert eval_scalar(ast, {"t": 0.0, "s": 0.0}) == pytest.approx(0.75)

    def test_variable_outside_context(self):
        with pytest.raises(DslSyntaxError, match="not allowed in this context"):
            parse_expr("u1", KERNEL_CONTEXT)

    def test_unknown_identifier(self):
        with pytest.raises(DslSyntaxError, match="unknown identifier"):
            parse_expr("foo + 1", KERNEL_CONTEXT)

    def test_syntax_error_carries_position(self):
        with pytest.raises(DslSyntaxError) as err:
            parse_expr("1 + * 2", KERNEL_CONTEXT)
        assert err.value.pos == 4

    def test_empty(self):
        with pytest.raises(DslSyntaxError):
            parse_expr("   ", KERNEL_CONTEXT)

    def test_nonlinearity_context(self):
        ast = parse_expr("exp(u1)*(1+du2^2)*w", nonlinearity_context(2))
        env = {"t": 0.0, "u1": 0.0, "u2": 0.0, "du1": 0.0, "du2": 1.0, "w": 2.0}
        assert eval_scalar(ast, env) == pytest.approx(4.0)

    def test_power_is_right_associative(self):
        assert eval_scalar(parse_expr("2^3^2", frozenset()), {}) == 512.0

    def test_unary_minus_binds_below_power(self):
        assert eval_scalar(parse_expr("-2^2", frozenset()), {}) == -4.0
        assert eval_scalar(parse_expr("2^-2", frozenset()), {}) == 0.25

    def test_precedence(self):
        assert eval_scalar(parse_expr("2+3*4^2", frozenset()), {}) == 50.0
        assert eval_scalar(parse_expr("10-4-3", frozenset()), {}) == 3.0
        assert eval_scalar(parse_expr("16/4/2", frozenset()), {}) == 2.0


class TestEval:
    K1 = parse_expr("0.25 + pos(0.5-s) - pos(t-s)", KERNEL_CONTEXT)

    def test_k1_corner_values(self):
        assert eval_scalar(self.K1, {"t": 0.0, "s": 0.0}) == pytest.approx(0.75)
        # sign-changing kernel
        assert eval_scalar(self.K1, {"t": 1.0, "s": 0.0}) == pytest.approx(-0.25)

    def test_step_convention_at_zero(self):
        step = parse_expr("step(t-s)", KERNEL_CONTEXT)
        assert eval_scalar(step, {"t": 0.3, "s": 0.3}) == 0.0
        assert eval_scalar(step, {"t": 0.3001, "s": 0.3}) == 1.0

    def test_array_broadcast(self):
        s = np.linspace(0, 1, 11)
        vals = eval_scalar(self.K1, {"t": 0.0, "s": s})
        assert vals.shape == s.shape
        assert vals[0] == pytest.approx(0.75)

    def test_named_constants(self):
        assert eval_scalar(parse_expr("e", frozenset()), {}) == math.e
        assert eval_scalar(parse_expr("pi", frozenset()), {}) == math.pi
        assert eval_scalar(parse_expr("e^-4", frozenset()), {}) == pytest.approx(math.exp(-4))

    @pytest.mark.parametrize("text,msg", [
        ("log(0-1)", "log of a nonpositive"),
        ("sqrt(0-2)", "sqrt of a negative"),
        ("1/(1-1)", "division by zero"),
    ])
    def test_domain_errors_name_subexpression(self, text, msg):
        with pytest.raises(EvalDomainError, match=msg):
            eval_scalar(parse_expr(text, frozenset()), {})

    def test_pos_matches_max_with_zero(self):
        # property: pos(x) == max(x, 0) on 1000 random points
        rng = np.random.default_rng(5)
        xs = rng.uniform(-10, 10, 1000)
        expr = parse_expr("pos(t)", frozenset({"t"}))
        got = eval_scalar(expr, {"t": xs})
        assert np.array_equal(got, np.maximum(xs, 0.0))


class TestFunctional:
    def test_h11_shape(self):
        fx = parse_functional("der(1,0.5)^2 + der(2,0.5)^2", 2)
        u = trig_state(0, n=2)
        want = u.derivative(0, 0.5) ** 2 + u.derivative(1, 0.5) ** 2
        assert eval_functional(fx, u) == pytest.approx(want, abs=1e-14)

    def test_w1_shape_parses(self):
        fx = parse_functional("1/(exp(val(2,0.5)) + int(du1^2))", 2)
        z = __import__("hammcert").zero_state(2)
        assert eval_functional(fx, z) == pytest.approx(1.0, abs=1e-14)

    def test_constant_expression_evaluation_points(self):
        fx = parse_functional("val(1, 1/2)", 1)
        assert fx.t0 == 0.5

    def test_nested_int_rejected(self):
        with pytest.raises(DslSyntaxError, match="nested int"):
            parse_functional("int(int(u1))", 1)

    def test_index_out_of_range(self):
        with pytest.raises(DslSyntaxError, match="out of range"):
            parse_functional("val(3, 0.5)", 2)

    def test_state_with_fewer_components_rejected(self):
        fx = parse_functional("val(2, 0.5)", 2)
        with pytest.raises(EvalDomainError, match="component 2"):
            eval_functional(fx, trig_state(0, n=1))

    def test_h21_on_constant_state(self):
        # derivative of a constant is 0, so the integral factor vanishes
        import hammcert as hc
        fx = parse_functional("val(2,0.5)^2 * int(du1^2)", 2)
        u = hc.constant_state([1.0, 1.0])
        assert eval_functional(fx, u) == pytest.approx(0.0, abs=1e-14)

    def test_h11_on_linear_state(self):
        import hammcert as hc
        fx = parse_functional("der(1,0.5)^2 + der(2,0.5)^2", 2)
        nodes = np.linspace(0, 1, 129)
        u = hc.DiscreteState(nodes, np.vstack([nodes, nodes]),
                             np.ones((2, 129)))
        assert eval_functional(fx, u) == pytest.approx(2.0, abs=1e-13)

    @pytest.mark.parametrize("text,subexpr", [
        ("exp(1000)", "exp(1000)"),                          # OverflowError
        ("10^400 + val(1,0)", "10 ^ 400"),                   # OverflowError
        ("int(u1^2)^(-1)", "int(u1 ^ 2) ^ (-1)"),            # 0^-1: ValueError
    ])
    def test_overflow_and_domain_errors_name_subexpression(self, text, subexpr):
        import hammcert as hc
        with pytest.raises(EvalDomainError, match="non-finite result") as err:
            eval_functional(parse_functional(text, 1), hc.zero_state(1))
        assert err.value.subexpr == subexpr

    def test_nonnegativity_flag(self):
        from hammcert import ModelViolationError
        fx = parse_functional("val(1, 0.5) - 10", 1)
        u = trig_state(1)
        with pytest.raises(ModelViolationError, match="C7"):
            eval_functional(fx, u, nonneg_condition="C7")

    def test_int_agrees_with_direct_quadrature(self):
        # property: int(u1) equals direct quadrature of the interpolant
        import hammcert as hc
        fx = parse_functional("int(u1)", 1)
        for seed in range(10):
            u = trig_state(seed)
            direct = hc.integrate(lambda s: u.value(0, s), 0.0, 1.0,
                                  u.interior_nodes(), hc.QuadConfig())
            assert eval_functional(fx, u) == pytest.approx(direct, abs=1e-10)


GOLDENS = [
    "1", "2.5", "1e-3", "t", "s", "t + s", "t - s", "t*s", "t/(1+s)",
    "t^2", "t^s", "-t", "-(t + s)", "t - -s", "pos(t - s)", "step(t - s)",
    "abs(t - 0.5)", "sqrt(t + 1)", "exp(-t)", "log(1 + t)",
    "0.25 + pos(0.5 - s) - pos(t - s)",
    "4/5*(1 - s) + 1/5*pos(0.5 - s) - pos(t - s)",
    "1 - 2 - 3", "1 - (2 - 3)", "2^3^2", "(2^3)^2", "1/2/4", "1/(2/4)",
    "e", "pi", "e^-4", "1/(1+e)", "t*(1 - t)*(2 - t)",
    "pos(0.5 - s)^2", "-step(t - s)", "exp(t)*exp(s)",
    "t + s*t - s/2 + s^2*t^3",
]

FUNCTIONAL_GOLDENS = [
    "val(1, 0.5)", "der(1, 0.25)", "int(u1)", "int(du1^2)",
    "der(1,0.5)^2 + der(2,0.5)^2",
    "1/(exp(val(2,0.5)) + int(du1^2))",
    "exp(-int((du1 + du2)^2))",
    "val(2,0.5)^2 * int(du1^2)",
    "int(u1*du2 + s)", "2*int(abs(du1)) - val(1, 1)",
    "int(pos(u2 - du1))", "e*val(1, 0)", "int(s^2*u1)",
    "val(1, 0.125) + val(2, 0.875)", "der(2, 1)^2",
]


class TestRoundTrip:
    @pytest.mark.parametrize("text", GOLDENS)
    def test_scalar_round_trip(self, text):
        ctx = frozenset({"t", "s"})
        ast = parse_expr(text, ctx)
        assert parse_expr(render(ast), ctx) == ast

    @pytest.mark.parametrize("text", FUNCTIONAL_GOLDENS)
    def test_functional_round_trip(self, text):
        ast = parse_functional(text, 2)
        assert parse_functional(render(ast), 2) == ast


def test_parse_constant_accepts_numbers_and_strings():
    assert parse_constant(0.5) == 0.5
    assert parse_constant("21/30") == pytest.approx(0.7)
    assert parse_constant("1/(1+e)") == pytest.approx(1 / (1 + math.e))
    with pytest.raises(DslSyntaxError):
        parse_constant(True)


# ---------------------------------------------------------------------------
# DSL text of any shape is parsed or rejected with a syntax error

TEXT_TOKENS = st.sampled_from([
    "0", "1", "2.5", ".5", "1e308", "7e-320", "t", "s", "w", "u1", "du2", "u3", "x",
    "e", "pi", "+", "-", "*", "/", "^", "(", ")", ",", "exp(", "log(", "abs(",
    "sqrt(", "pos(", "step(", "val(", "der(", "int(", "val(1, 0.5)", "der(2, 1/3)",
    "int(du1^2)", "int(u1 - s)"])
# operands joined by operators, some after a sign or an opening parenthesis
# that is closed at the end, so that a good share of the texts parse
OPERAND_TEXT = st.lists(st.tuples(
    st.sampled_from(["", "-", "(", "exp(", "log(", "sqrt(", "pos(", "int("]),
    st.sampled_from(["0", "2.5", "1e308", "t", "w", "u1", "du2", "e", "val(1, 0.5)",
                     "der(2, 1/3)", "int(du1^2)"]),
    st.sampled_from(list("+-*/^"))), min_size=1, max_size=8).map(
    lambda parts: "".join(p + x + op for p, x, op in parts)[:-1]
    + ")" * sum(p.endswith("(") for p, _, _ in parts))
TEXTS = st.one_of(OPERAND_TEXT, st.builds(lambda tokens, sep: sep.join(tokens),
                                          st.lists(TEXT_TOKENS, max_size=30),
                                          st.sampled_from(["", " "])))


@settings(max_examples=400, deadline=None, database=None)
@given(TEXTS, st.integers(0, 2 ** 16))
@example("-" * 1000 + "1", 0)
@example("(" * 200 + "1" + ")" * 200, 0)
@example("+".join(["1"] * 400), 0)
@example("u1^" * 300 + "1", 0)
@example("int(" + "+".join(["u1"] * 400) + ")", 0)
def test_dsl_text_parses_or_raises_a_syntax_error(text, seed):
    context = nonlinearity_context(2)
    env = {name: np.linspace(-1.0, 2.0, 4) if "u" in name else 0.5 for name in context}
    u, quad = trig_state(seed, n=2), QuadConfig(max_subdivisions=8)
    for parse, evaluate in (
            (lambda t: parse_expr(t, context), lambda x: eval_scalar(x, env)),
            (lambda t: parse_functional(t, 2), lambda x: eval_functional(x, u, quad))):
        try:
            ast = parse(text)
        except DslSyntaxError:
            continue
        assert parse(render(ast)) == ast
        assert pickle.loads(pickle.dumps(ast)) == ast
        try:
            with np.errstate(all="ignore"):
                evaluate(ast)
        except HammcertError:
            pass


NESTED = {
    "signs": lambda k: "-" * k + "u1",
    "parentheses": lambda k: "(" * k + "u1" + ")" * k,
    "calls": lambda k: "abs(" * k + "u1" + ")" * k,
    "powers": lambda k: "u1^" * k + "1",
    "chain": lambda k: "u1" + "*u1" * k,
}


def _under_frames(k, fn):
    return _under_frames(k - 1, fn) if k else fn()


@pytest.mark.parametrize("shape", sorted(NESTED))
def test_nesting_limit(shape):
    context = nonlinearity_context(1)
    with pytest.raises(DslSyntaxError, match=f"nested more than {_MAX_DEPTH} levels"):
        parse_expr(NESTED[shape](_MAX_DEPTH + 1), context)

    def everything():
        expr = parse_expr(NESTED[shape](_MAX_DEPTH), context)
        eval_scalar(expr, {"u1": np.array([0.5, 1.0])})
        assert parse_expr(render(expr), context) == expr
        assert hash(expr) == hash(pickle.loads(pickle.dumps(expr)))
    # at the limit, with 200 frames already on the stack
    _under_frames(200, everything)


# ---------------------------------------------------------------------------
# Compiled evaluator against the tree-walking interpreter it replaced

def _ref_check_finite(value, node):
    if not np.all(np.isfinite(np.asarray(value))):
        raise EvalDomainError("non-finite result", render(node))
    return value


# the checked numpy ops as they were before their fast paths, the oracles of
# expr's op table
def ref_exp(node, x):
    with np.errstate(over="ignore"):
        return _ref_check_finite(np.exp(x), node)


def ref_log(node, x):
    if np.any(np.asarray(x) <= 0.0):
        raise EvalDomainError("log of a nonpositive value", render(node))
    return np.log(x)


def ref_sqrt(node, x):
    if np.any(np.asarray(x) < 0.0):
        raise EvalDomainError("sqrt of a negative value", render(node))
    return np.sqrt(x)


def ref_div(node, a, b):
    if np.any(np.asarray(b) == 0.0):
        raise EvalDomainError("division by zero", render(node))
    return a / b


def ref_pow(node, a, b):
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        r = np.power(a, b)
    return _ref_check_finite(r, node)


def ref_eval_scalar(expr, env):
    """The recursive interpreter, kept as the oracle of eval_scalar."""
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Const):
        return {"e": math.e, "pi": math.pi}[expr.name]
    if isinstance(expr, Var):
        try:
            return env[expr.name]
        except KeyError:
            raise EvalDomainError(f"unbound variable {expr.name!r}", expr.name) from None
    if isinstance(expr, Unary):
        x = ref_eval_scalar(expr.arg, env)
        op = expr.op
        if op == "neg":
            return -x if not isinstance(x, np.ndarray) else np.negative(x)
        if op == "exp":
            return ref_exp(expr, x)
        if op == "log":
            return ref_log(expr, x)
        if op == "abs":
            return np.abs(x)
        if op == "sqrt":
            return ref_sqrt(expr, x)
        if op == "pos":
            return np.maximum(x, 0.0)
        if op == "step":
            return np.where(np.asarray(x) > 0.0, 1.0, 0.0) if isinstance(x, np.ndarray) \
                else (1.0 if x > 0.0 else 0.0)
        raise AssertionError(op)
    a = ref_eval_scalar(expr.left, env)
    b = ref_eval_scalar(expr.right, env)
    op = expr.op
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        return ref_div(expr, a, b)
    return ref_pow(expr, a, b)


CONTEXTS = {"kernel": KERNEL_CONTEXT, "nonlinearity": nonlinearity_context(2)}
NUMBERS = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 1e-3, 1e300]),
                    st.floats(0.0, 50.0, allow_subnormal=False))
SCALARS = st.one_of(st.floats(-5.0, 5.0, allow_subnormal=False),
                    st.sampled_from([0.0, -0.0, 1.0, -1.0]))
ARRAYS = st.lists(st.one_of(st.floats(0.05, 5.0), SCALARS),
                  min_size=4, max_size=4).map(np.array)
ENV_VALUES = {"scalar": SCALARS, "array": ARRAYS, "mixed": st.one_of(SCALARS, ARRAYS)}


# constant subtrees that always fail, so that both operands of a node can
# fail and the order in which they are evaluated shows
FAILING = st.sampled_from(["log(0)", "sqrt(0 - 1)", "1/0", "exp(1000)"]).map(
    lambda text: parse_expr(text, frozenset()))


def ast_strategy(names):
    leaves = st.one_of(NUMBERS.map(Num), st.sampled_from(["e", "pi"]).map(Const),
                       st.sampled_from(sorted(names)).map(Var), FAILING)
    return st.recursive(leaves, lambda sub: st.one_of(
        st.builds(Unary, st.sampled_from(["neg", "exp", "log", "abs", "sqrt",
                                          "pos", "step"]), sub),
        st.builds(Bin, st.sampled_from(list("+-*/^")), sub, sub)), max_leaves=12)


@st.composite
def expr_and_env(draw):
    context = CONTEXTS[draw(st.sampled_from(sorted(CONTEXTS)))]
    # render and parse, so the tree is one the grammar produces
    expr = parse_expr(render(draw(ast_strategy(context))), context)
    # a variable may be left unbound, which must fail at the same node
    names = draw(st.lists(st.sampled_from(sorted(context)), unique=True,
                          min_size=len(context) - 1, max_size=len(context)))
    values = ENV_VALUES[draw(st.sampled_from(sorted(ENV_VALUES)))]
    return expr, {name: draw(values) for name in names}


def _outcome(fn, expr, env):
    try:
        with np.errstate(all="ignore"):
            return "value", fn(expr, env)
    except EvalDomainError as err:
        return "error", (str(err), err.subexpr)


@settings(max_examples=250, deadline=None, database=None)
@given(expr_and_env())
def test_compiled_matches_interpreter(case):
    expr, env = case
    kind, want = _outcome(ref_eval_scalar, expr, env)
    for _ in range(2):  # first call compiles, second reuses the closures
        got_kind, got = _outcome(eval_scalar, expr, env)
        assert got_kind == kind
        if kind == "error":
            assert got == want
        else:
            assert type(got) is type(want)
            assert np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


# arguments at the edges of the guards: NaN, +-inf, signed zeros, around
# exp's fast-path bound 709 and ln(DBL_MAX) = 709.7827, around float32's
# overflow at 88.72; as Python floats, np.float64, 0-d, empty and longer
# float64 arrays, float32 and integer arrays
GUARD_EDGES = [math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, -1.0, 5e-324,
               708.9999999999999, 709.0, 709.78, 709.7827128933840, 709.79, 710.0,
               -745.2, 88.72, 89.0, 1e300]
GUARD_FLOATS = st.one_of(st.sampled_from(GUARD_EDGES), st.floats(700.0, 720.0),
                         st.floats())
GUARD_ARGS = st.one_of(
    GUARD_FLOATS, GUARD_FLOATS.map(np.float64), GUARD_FLOATS.map(np.array),
    st.lists(GUARD_FLOATS, max_size=5).map(np.array),
    st.lists(st.floats(width=32), max_size=3).map(
        lambda v: np.array(v, dtype=np.float32)),
    st.lists(st.integers(-800, 800), max_size=3).map(np.array))
GUARD_NODE = parse_expr("exp(u1)", nonlinearity_context(1))


def _guard_outcome(op, *args):
    """What the op gives: its result's type, dtype, shape and bytes, or its
    error, with the warnings it issued."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            r = op(GUARD_NODE, *args)
            got = ("value", type(r), np.asarray(r).dtype, np.shape(r),
                   np.asarray(r).tobytes())
        except EvalDomainError as err:
            got = ("error", str(err), err.subexpr)
        except (TypeError, ValueError) as err:
            got = (type(err), str(err))
    return got, [str(w.message) for w in caught]


@settings(max_examples=400, deadline=None, database=None)
@given(GUARD_ARGS, GUARD_ARGS)
@example(np.array([]), 0.0)
@example(709.0, np.array([709.78, np.nan]))
@example(np.array([708.9, 709.79], dtype=np.float32),
         np.array([88.0, 89.0], dtype=np.float32))
def test_guards_match_their_checked_forms(x, y):
    # the fast paths give the bytes, the error text and the warnings of the
    # fully checked ops, and let no overflow warning through
    table = _NUMPY.unary | _NUMPY.binary
    for op, ref, args in (("exp", ref_exp, (x,)), ("exp", ref_exp, (y,)),
                          ("log", ref_log, (x,)), ("sqrt", ref_sqrt, (x,)),
                          ("/", ref_div, (x, y)), ("^", ref_pow, (x, y))):
        assert _guard_outcome(table[op], *args) == _guard_outcome(ref, *args), op


@pytest.mark.parametrize("op", list("+-*/^"))
def test_left_operand_fails_first(op):
    expr = parse_expr(f"log(0) {op} sqrt(0 - 1)", frozenset())
    assert _outcome(eval_scalar, expr, {}) == _outcome(ref_eval_scalar, expr, {})


def test_compiled_tree_keeps_eq_hash_and_pickles():
    text = "exp(-s)*(1/2 - t*s)"
    expr = parse_expr(text, KERNEL_CONTEXT)
    fresh = parse_expr(text, KERNEL_CONTEXT)
    eval_scalar(expr, {"t": 0.5, "s": 0.25})
    _enclose(expr, {"t": (np.float64(0.5),) * 2, "s": (np.float64(0.25),) * 2})
    assert expr == fresh and hash(expr) == hash(fresh)
    again = pickle.loads(pickle.dumps(expr))
    assert again == expr
    assert eval_scalar(again, {"t": 0.5, "s": 0.25}) == eval_scalar(expr, {"t": 0.5, "s": 0.25})


def test_a_closure_of_a_further_table_is_not_pickled():
    # a table beside the numpy, math and interval ones keeps its closure
    # under its own name; no list of names has to learn it for pickle to
    # leave it out
    fourth = _NUMPY._replace(attr="_fourth")
    expr = parse_expr("exp(-s)*(1/2 - t*s)", KERNEL_CONTEXT)
    value = _compile(expr, fourth)[0]({"t": 0.5, "s": 0.25})
    assert "_fourth" in expr.__dict__ and "_fourth" in expr.left.__dict__
    again = pickle.loads(pickle.dumps(expr))
    assert again == expr and hash(again) == hash(expr)
    assert "_fourth" not in again.__dict__ and "_fourth" not in again.left.__dict__
    assert _compile(again, fourth)[0]({"t": 0.5, "s": 0.25}) == value


def test_failing_constant_subtree_raises_at_evaluation():
    # log(0 - 1) cannot be folded; t is unbound and is evaluated first
    expr = parse_expr("t + log(0 - 1)", frozenset({"t"}))
    with pytest.raises(EvalDomainError, match="unbound variable 't'"):
        eval_scalar(expr, {})
    with pytest.raises(EvalDomainError, match="log of a nonpositive"):
        eval_scalar(expr, {"t": 1.0})


# ---------------------------------------------------------------------------
# Compiled functionals against the tree-walking interpreter they replaced

def ref_eval_fn(fx, u, quad):
    """The functional interpreter, kept as the oracle of eval_functional:
    each int atom integrates with ``integrate`` on its own interpolation."""
    if isinstance(fx, (Val, Der)):
        if fx.index > u.n:
            raise EvalDomainError(
                f"functional references component {fx.index} but the state "
                f"has {u.n}", render(fx))
        if isinstance(fx, Val):
            return u.value(fx.index - 1, fx.t0)
        return u.derivative(fx.index - 1, fx.t0)
    if isinstance(fx, Integral):
        body = fx.body

        def integrand(s):
            vals = u.value(slice(None), s)
            ders = u.derivative(slice(None), s)
            env = {"s": s}
            for k in range(u.n):
                env[f"u{k + 1}"] = vals[k]
                env[f"du{k + 1}"] = ders[k]
            return eval_scalar(body, env)

        return integrate(integrand, 0.0, 1.0, u.interior_nodes(), quad)
    if isinstance(fx, Num):
        return fx.value
    if isinstance(fx, Const):
        return {"e": math.e, "pi": math.pi}[fx.name]
    if isinstance(fx, Unary):
        x = ref_eval_fn(fx.arg, u, quad)
        if fx.op == "neg":
            return -x
        if fx.op == "log" and x <= 0.0:
            raise EvalDomainError("log of a nonpositive value", render(fx))
        if fx.op == "sqrt" and x < 0.0:
            raise EvalDomainError("sqrt of a negative value", render(fx))
        fn = {"exp": math.exp, "log": math.log, "abs": abs, "sqrt": math.sqrt,
              "pos": lambda v: max(v, 0.0),
              "step": lambda v: 1.0 if v > 0.0 else 0.0}[fx.op]
        try:
            return fn(x)
        except OverflowError:
            raise EvalDomainError("non-finite result", render(fx)) from None
    if isinstance(fx, Bin):
        a = ref_eval_fn(fx.left, u, quad)
        b = ref_eval_fn(fx.right, u, quad)
        if fx.op == "+":
            return a + b
        if fx.op == "-":
            return a - b
        if fx.op == "*":
            return a * b
        if fx.op == "/":
            if b == 0.0:
                raise EvalDomainError("division by zero", render(fx))
            return a / b
        try:
            r = math.pow(a, b) if (a >= 0 or float(b).is_integer()) else math.nan
        except (OverflowError, ValueError):  # e.g. 10^400, or 0^-1
            r = math.nan
        if not math.isfinite(r):
            raise EvalDomainError("non-finite result", render(fx))
        return r
    raise TypeError(f"not a functional expression: {fx!r}")


@contextmanager
def finite_at_every_node():
    """ref_eval_fn, with every node's value checked as eval_functional
    checks it: its recursion goes through the module global, rebound here."""
    module = sys.modules[__name__]
    plain = module.ref_eval_fn

    def checked(fx, u, quad):
        value = plain(fx, u, quad)
        if not math.isfinite(value):
            raise EvalDomainError("non-finite result", render(fx))
        return value

    module.ref_eval_fn = checked
    try:
        yield checked
    finally:
        module.ref_eval_fn = plain


def _functional_outcome(fn, fx, u, quad):
    try:
        with np.errstate(all="ignore"):
            return "value", float(fn(fx, u, quad)).hex()
    except (EvalDomainError, QuadratureError) as err:
        return "error", (type(err), str(err))


def body_strategy(n):
    return ast_strategy(int_body_context(n)).map(
        lambda body: parse_expr(render(body), int_body_context(n)))


POINTS = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 1 / 3]), st.floats(0.0, 1.0))


def functional_strategy(n):
    leaves = st.one_of(
        NUMBERS.map(Num), st.sampled_from(["e", "pi"]).map(Const),
        st.builds(Val, st.integers(1, n), POINTS),
        st.builds(Der, st.integers(1, n), POINTS),
        body_strategy(n).map(Integral), FAILING)
    return st.recursive(leaves, lambda sub: st.one_of(
        st.builds(Unary, st.sampled_from(["neg", "exp", "log", "abs", "sqrt",
                                          "pos", "step"]), sub),
        st.builds(Bin, st.sampled_from(list("+-*/^")), sub, sub)), max_leaves=8)


@st.composite
def functional_and_state(draw):
    n = 2
    # render and parse, so the tree is one the grammar produces
    fx = parse_functional(render(draw(functional_strategy(n))), n)
    return fx, trig_state(draw(st.integers(0, 2 ** 16)), n=n)


@settings(max_examples=150, deadline=None, database=None)
@given(functional_and_state())
def test_compiled_functional_matches_interpreter(case):
    fx, u = case
    # a body with rounding noise, such as (u1 + 10^12) - 10^12, bisects
    # some 10^5 panels before it converges; a smaller depth keeps each
    # example fast, and the two paths must agree at any depth
    quad = QuadConfig(max_subdivisions=8)
    plain = _functional_outcome(ref_eval_fn, fx, u, quad)
    with finite_at_every_node() as checked:
        want = _functional_outcome(checked, fx, u, quad)
    if want != plain:
        # the reference met a non-finite value at some node, and raises there
        kind, (err_type, text) = want
        assert kind == "error" and err_type is EvalDomainError
        assert text.startswith("non-finite result")
    for _ in range(2):  # first call compiles, second reuses the closures
        assert _functional_outcome(eval_functional, fx, u, quad) == want


class TestNonFiniteFunctionals:
    @pytest.mark.parametrize("text,subexpr", [
        ("val(1,0)*10^300*10^300", "val(1, 0.0) * 10 ^ 300 * 10 ^ 300"),
        ("10^300*10^300 - 10^300*10^300", "10 ^ 300 * 10 ^ 300"),
    ])
    def test_overflow_raises_naming_the_subexpression(self, text, subexpr):
        fx = parse_functional(text, 1)
        u = constant_state([1.0])
        with np.errstate(all="ignore"):
            assert not math.isfinite(ref_eval_fn(fx, u, QuadConfig()))
        for condition in (None, "C7"):
            with pytest.raises(EvalDomainError, match="non-finite result") as err:
                eval_functional(fx, u, nonneg_condition=condition)
            assert err.value.subexpr == subexpr

    @pytest.mark.parametrize("text", [
        "val(1, 0)*1e308 + 1e308", "val(1, 0)*1e308 - -1e308",
        "val(1, 0)*1e200*1e200", "val(1, 0)*1e200/1e-200",
    ])
    def test_every_operator_checks_its_result(self, text):
        fx = parse_functional(text, 1)
        with pytest.raises(EvalDomainError, match="non-finite result") as err:
            eval_functional(fx, constant_state([1.0]))
        assert err.value.subexpr == render(fx)

    def test_infinite_integrand_raises_at_once(self):
        # at the parent every panel failed the two-rule test at every level,
        # so the bisection grew to 128 * 2^20 panels before it could fail
        fx = parse_functional("1 + int(u1*10^300*10^300)", 1)
        with np.errstate(over="ignore"), \
                pytest.raises(QuadratureError, match="infinite value near x="):
            eval_functional(fx, constant_state([1.0]))

    def test_overflowing_derivative_spares_value_atoms(self):
        # values alternating +-1e307 with zero slopes: the Hermite u between
        # nodes is finite, its u' overflows; a val atom reads u without a
        # RuntimeWarning, and the atoms that read u' report the overflow
        nodes = np.linspace(0.0, 1.0, 17)
        u = DiscreteState(nodes, [1e307 * (-1.0) ** np.arange(17)], np.zeros((1, 17)))
        got = eval_functional(parse_functional("val(1, 0.53)", 1), u)
        assert got == u.value(0, 0.53) and math.isfinite(got)
        with pytest.raises(EvalDomainError, match="non-finite result"):
            eval_functional(parse_functional("der(1, 0.53)", 1), u)
        with pytest.raises(QuadratureError, match="infinite value"):
            eval_functional(parse_functional("int(du1)", 1), u)

    def test_overflowing_literal_is_a_syntax_error(self):
        with pytest.raises(DslSyntaxError, match="out of range"):
            parse_functional("1e999 + val(1, 0)", 1)


class TestSharedPass:
    """int atoms integrate on one interpolation of the state; each value
    must be what ``integrate`` gives on the atom's own interpolation."""

    KINK = "int(abs(s - 1/3))"

    def test_kink_inside_a_panel_takes_the_fallback(self, monkeypatch):
        from hammcert import quad as quad_mod
        adapted = []
        adapt = quad_mod._adapt

        def counting(f, rows, lo, hi, whole, cfg):
            adapted.append(lo.size)
            return adapt(f, rows, lo, hi, whole, cfg)

        monkeypatch.setattr(quad_mod, "_adapt", counting)
        fx = parse_functional(self.KINK, 2)
        for u in (constant_state([1.0, 2.0]), trig_state(4, n=2)):
            adapted.clear()
            got = eval_functional(fx, u)
            assert adapted[0] == 2  # the two halves of the one failing panel
            want = ref_eval_fn(fx, u, QuadConfig())
            assert float(got).hex() == float(want).hex()
        assert got == pytest.approx(5 / 18, abs=1e-12)

    def test_stack_refines_as_each_state_alone(self, example_spec, example_cc,
                                                monkeypatch):
        # a refined panel of one state evaluates the whole stack at its points;
        # each state's value is still that of the state alone
        from hammcert import quad as quad_mod
        from hammcert.cone import sample_cone_boundary_rng
        from hammcert.expr import _SharedPass
        adapted = []
        adapt = quad_mod._adapt

        def counting(f, rows, lo, hi, whole, cfg):
            adapted.append(lo.size)
            return adapt(f, rows, lo, hi, whole, cfg)

        fx = parse_functional("int(abs(s - 0.3)*u1 + pos(du2 - s/10))", 2)
        quad = example_spec.quad
        stack = sample_cone_boundary_rng(example_spec, example_cc, 1.0,
                                         np.random.default_rng(5), size=8)
        monkeypatch.setattr(quad_mod, "_adapt", counting)
        shared = _SharedPass(stack, quad, (fx,))
        rows = [shared.row(r) for r in range(8)]
        got = [eval_functional(fx, row.u, quad, shared_pass=row) for row in rows]
        assert adapted
        for r in range(8):
            alone = eval_functional(fx, stack.row(r), quad)
            assert got[r].hex() == alone.hex()
            assert got[r].hex() == float(ref_eval_fn(fx, stack.row(r), quad)).hex()

    @pytest.mark.parametrize("body", [
        # NaN at every point, so already at the first pass
        "u1*(10^300*10^300 - 10^300*10^300)",
        # NaN only within 1e-6 of the kink, which only the fallback samples
        "abs(s - 1/3) + (pos(s - 1/3 + 1e-6)*step(1/3 + 1e-6 - s)*10^300*10^300"
        " - pos(s - 1/3 + 1e-6)*step(1/3 + 1e-6 - s)*10^300*10^300)",
    ])
    def test_nan_body_keeps_the_quadrature_error(self, body):
        fx = parse_functional(f"int({body})", 1)
        u = trig_state(2)
        with np.errstate(all="ignore"):
            with pytest.raises(QuadratureError) as want:
                ref_eval_fn(fx, u, QuadConfig())
            with pytest.raises(QuadratureError) as got:
                eval_functional(fx, u)
        assert str(got.value) == str(want.value)

    def test_one_pass_serves_several_functionals(self):
        from hammcert.expr import _SharedPass
        u = trig_state(9, n=2)
        quad = QuadConfig()
        fxs = [parse_functional(text, 2) for text in (
            "int(du1^2)", "exp(-int((du1 + du2)^2))", "val(2, 1/2)",
            "val(2, 0.5)^2 * int(du1^2)")]
        row = _SharedPass(u, quad, fxs).row(0)
        for fx in fxs:
            got = eval_functional(fx, u, quad, shared_pass=row)
            assert got.hex() == float(ref_eval_fn(fx, u, quad)).hex()
        with pytest.raises(ValueError, match="another state"):
            eval_functional(fx, trig_state(9, n=2), quad, shared_pass=row)

    @pytest.mark.parametrize("text", ["val(1, 1/4)", "der(2, 1/2) + val(1, 1/4)",
                                      "der(1, -0)"])
    def test_atom_the_pass_was_not_built_for_raises(self, text):
        # the pass holds the atom points of its functionals only, 1/2 and 0
        # (-0 is a point of its own)
        from hammcert.expr import _SharedPass
        u = trig_state(9, n=2)
        quad = QuadConfig()
        row = _SharedPass(u, quad, [parse_functional("val(1, 1/2) + der(2, 0)", 2)]).row(0)
        with pytest.raises(ValueError, match="not built for an atom at"):
            eval_functional(parse_functional(text, 2), u, quad, shared_pass=row)


@pytest.mark.parametrize("op", list("+-*/^"))
def test_functional_left_operand_fails_first(op):
    fx = parse_functional(f"log(val(1, 0) - 2) {op} sqrt(val(1, 0) - 3)", 1)
    u = constant_state([2.0])
    assert _functional_outcome(eval_functional, fx, u, QuadConfig()) == \
        _functional_outcome(ref_eval_fn, fx, u, QuadConfig())
    assert "log of a nonpositive value" in _functional_outcome(
        eval_functional, fx, u, QuadConfig())[1][1]


@pytest.mark.parametrize("text", [
    "pos(-0)", "pos(-0) + -0", "abs(-0) * -1", "-0 * val(1, 0)", "step(-0)",
    "-0 / 5", "(-0)^3", "0^0", "pos(-0*int(u1))",
])
def test_signed_zeros_follow_the_interpreter(text):
    fx = parse_functional(text, 1)
    u = constant_state([2.0])
    assert eval_functional(fx, u).hex() == float(ref_eval_fn(fx, u, QuadConfig())).hex()


def test_compiled_functional_keeps_eq_hash_and_pickles():
    text = "1/(exp(val(2, 1/2)) + int(du1^2))"
    fx = parse_functional(text, 2)
    fresh = parse_functional(text, 2)
    u = trig_state(3, n=2)
    value = eval_functional(fx, u)
    assert "_functional" in fx.__dict__
    assert fx == fresh and hash(fx) == hash(fresh)
    again = pickle.loads(pickle.dumps(fx))
    assert "_functional" not in again.__dict__
    assert eval_functional(again, u) == value


def test_nan_never_reaches_the_sign_check():
    fx = parse_functional("10^300*10^300*val(1, 0) - 10^300*10^300*val(1, 0)", 1)
    with pytest.raises(EvalDomainError):
        eval_functional(fx, constant_state([1.0]), nonneg_condition="C8")
    with pytest.raises(ModelViolationError, match="C8"):
        eval_functional(parse_functional("val(1, 0) - 2", 1), constant_state([1.0]),
                        nonneg_condition="C8")


# ---------------------------------------------------------------------------
# The interval table: enclosures of the numpy table's doubles and of the
# real values, at the corners and at random points of random boxes

def ref_real_value(node, env):
    """The real value of a kernel-grammar AST at a point, in 50-digit mpmath
    (the Num leaves taken as the doubles they hold)."""
    if isinstance(node, Num):
        return mp.mpf(node.value)
    if isinstance(node, Const):
        return +(mp.e if node.name == "e" else mp.pi)
    if isinstance(node, Var):
        return mp.mpf(env[node.name])
    if isinstance(node, Unary):
        x = ref_real_value(node.arg, env)
        return {"neg": lambda: -x, "exp": lambda: mp.exp(x), "abs": lambda: abs(x),
                "sqrt": lambda: mp.sqrt(x), "pos": lambda: max(x, mp.mpf(0)),
                "step": lambda: mp.mpf(1 if x > 0 else 0)}[node.op]()
    a, b = ref_real_value(node.left, env), ref_real_value(node.right, env)
    return {"+": lambda: a + b, "-": lambda: a - b, "*": lambda: a * b,
            "/": lambda: a / b}[node.op]()


KERNEL_NUMBERS = st.one_of(st.sampled_from([0.0, 1.0, 2.0, 0.5, 0.1, 1 / 3, 2.5, 1e-3]),
                           st.floats(0.0, 4.0, allow_subnormal=False))
KERNEL_ASTS = st.recursive(
    st.one_of(st.sampled_from([Var("t"), Var("s"), Const("e"), Const("pi")]),
              KERNEL_NUMBERS.map(Num)),
    lambda sub: st.one_of(
        st.builds(Unary, st.sampled_from(["neg", "exp", "pos", "step", "abs", "sqrt"]), sub),
        st.builds(Bin, st.sampled_from(list("+-*/")), sub, sub)), max_leaves=10)
BOX_END = st.one_of(st.sampled_from([0.0, 0.5, 1.0, -1.0]), st.floats(-3.0, 3.0))


@st.composite
def boxes_and_points(draw):
    """(boxes, points): K boxes of (t, s), each side a (lo, hi) pair of
    float64 arrays of K ends, and P points of each box, its four corners
    first, as (K, P) arrays of t and of s."""
    k = draw(st.integers(1, 3))
    sides = []
    for _ in "ts":
        ends = np.sort(np.array(draw(st.lists(st.tuples(BOX_END, BOX_END),
                                              min_size=k, max_size=k))), axis=1)
        sides.append((ends[:, 0], ends[:, 1]))
    frac = np.array(draw(st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)),
                                  min_size=4, max_size=4)))
    corners = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
    frac = np.concatenate((corners, frac))
    points = [np.clip(lo[:, None] + f * (hi - lo)[:, None], lo[:, None], hi[:, None])
              for (lo, hi), f in zip(sides, frac.T)]
    return dict(zip("ts", sides)), points


# t - s is exactly 0 at a corner, where numpy's step is 0
STEP_AT_ZERO = ({"t": (np.array([0.5]), np.array([1.0])),
                 "s": (np.array([0.0]), np.array([0.5]))},
                (np.array([[0.5, 0.5, 1.0, 1.0]]), np.array([[0.0, 0.5, 0.0, 0.5]])))


@settings(max_examples=200, deadline=None, database=None)
@given(KERNEL_ASTS, boxes_and_points())
@example(Unary("step", Bin("-", Var("t"), Var("s"))), STEP_AT_ZERO)
def test_interval_table_encloses_numpy_and_real_values(tree, case):
    # render and parse, so the tree is one the grammar produces
    expr = parse_expr(render(tree), KERNEL_CONTEXT)
    env, (ts, ss) = case
    try:
        lo, hi = _enclose(expr, env)
    except EvalDomainError:
        return  # the table may decline a box; the sign scan then scans it
    lo, hi = (np.broadcast_to(v, ts.shape[:1])[:, None] for v in (lo, hi))
    assert np.isfinite(lo).all() and np.isfinite(hi).all()
    # where the table encloses, the numpy table raises at no point of the box
    values = _shaped(eval_scalar(expr, {"t": ts, "s": ss}), ts.shape)
    assert ((lo <= values) & (values <= hi)).all()
    with mp.workdps(50):
        for k, p in np.ndindex(*ts.shape):
            point = {"t": float(ts[k, p]), "s": float(ss[k, p])}
            one = eval_scalar(expr, point)  # the numpy table on Python floats
            real = ref_real_value(expr, point)
            assert lo[k, 0] <= one <= hi[k, 0]
            assert mp.mpf(lo[k, 0]) <= real <= mp.mpf(hi[k, 0])


def max_exp_ulps() -> float:
    """The largest distance of numpy's exp from 50-digit mpmath, in ulps of
    its result, for exp's array and float paths, over the normal range and
    near powers of 2 and 0.  Its source also runs in a child interpreter."""
    rng = np.random.default_rng(29)
    x = np.concatenate((rng.uniform(-708.0, 709.7, 6000), rng.uniform(-1.0, 1.0, 2000),
                        rng.uniform(-1e-6, 1e-6, 1000),
                        np.arange(-1020, 1020) * math.log(2.0)))
    x = x[(x > -708.0) & (x < 709.7)]
    assert x.size >= 10_000
    floats = [float(np.exp(v)) for v in x[::5].tolist()]
    with mp.workdps(50):
        return float(max(abs(mp.mpf(y) - mp.exp(mp.mpf(v))) / np.spacing(y)
                         for args, got in ((x, np.exp(x)), (x[::5], np.array(floats)))
                         for v, y in zip(args.tolist(), got.tolist())))


def test_numpy_exp_is_within_one_ulp():
    # the allowance the interval table's exp rests on
    assert max_exp_ulps() <= 1


@pytest.mark.skipif(not _CPU_FEATURES.get("X86_V3"),
                    reason="the capped dispatch level is x86-64's X86_V3")
def test_numpy_exp_is_within_one_ulp_at_the_avx2_dispatch_level():
    # numpy picks its SIMD kernels when it is imported, so the level a CPU
    # without AVX-512 runs is checked in a child capped at X86_V3 (AVX2)
    code = "\n".join(("import json, math", "import mpmath as mp", "import numpy as np",
                      "from numpy._core._multiarray_umath import __cpu_features__",
                      inspect.getsource(max_exp_ulps),
                      "print(json.dumps([max_exp_ulps(), __cpu_features__['X86_V4']]))"))
    env = dict(os.environ, NPY_ENABLE_CPU_FEATURES="X86_V2 X86_V3")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    ulps, avx512 = json.loads(out)
    assert not avx512  # the cap took effect
    assert ulps <= 1


@pytest.mark.parametrize("text,box", [
    ("log(s)", (1.0, 2.0)),       # log and ^ are not enclosed
    ("s^2", (1.0, 2.0)),
    ("1/(s - 1)", (0.0, 2.0)),    # a divisor that reaches 0
    ("1/s", (-0.0, 1.0)),
    ("sqrt(s - 1)", (0.0, 2.0)),  # sqrt below 0
    ("exp(1000*s)", (0.0, 1.0)),  # overflow
    ("s*1e-300*1e-300", (1.0, 2.0)),  # underflow
])
def test_interval_table_declines(text, box):
    expr = parse_expr(text, ENVELOPE_CONTEXT)
    with pytest.raises(EvalDomainError):
        _enclose(expr, {"s": tuple(map(np.float64, box))})


def test_interval_table_keeps_exact_zeros():
    # ends that round to 0 are exact and stay, as do integers, pos and step,
    # so a kernel that reaches 0 at a panel's end can still be one-signed
    s = (np.float64(0.5), np.float64(1.0))
    lo, hi = _enclose(parse_expr("(1 - s)*exp(s) + pos(1 - 2*s)", ENVELOPE_CONTEXT),
                      {"s": s})
    assert lo == 0.0 and 0.5 * math.e < hi < 0.5 * math.e * (1 + 2 ** -48)
    lo, hi = _enclose(parse_expr("-step(s - 1/2)", ENVELOPE_CONTEXT), {"s": s})
    assert (lo, hi) == (-1.0, 0.0)
    lo, hi = _enclose(parse_expr("step(s - 1)", ENVELOPE_CONTEXT), {"s": s})
    assert (lo, hi) == (0.0, 0.0)
