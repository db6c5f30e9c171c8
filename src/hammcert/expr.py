"""Expression DSL for kernels, boundary functions, nonlinearities and functionals.

Two grammars share one tokenizer and one recursive-descent core:

* scalar expressions -- arithmetic over named variables, used for kernels
  k(t,s), kernel t-derivatives, boundary functions gamma(t) and
  nonlinearities f(t, u1..un, du1..dun, w);
* functional expressions -- scalar grammar without free variables, extended
  with the atoms ``val(i, t0)`` (component value u_i(t0)), ``der(i, t0)``
  (derivative u_i'(t0)) and ``int(body)`` (integral of ``body`` over [0,1],
  body being a scalar expression over {s, u1..un, du1..dun}).

Precedence is conventional: ``^`` over ``*``/``/`` over ``+``/``-``, all
left-associative except ``^`` which is right-associative; unary minus binds
between ``^`` and ``*``.  ``pos(x)`` is max(x, 0) and ``step(x)`` is 1 for
x > 0, otherwise 0 (the value at 0 is 0; integrable jumps are handled by
quadrature panel splitting, never by the point value).

ASTs are immutable after parse and evaluation is pure, so expressions are
safe to evaluate concurrently.  Evaluation accepts numpy arrays in the
environment and broadcasts.  ``eval_scalar`` compiles an AST once into
numpy closures held by its nodes; they make the tree walk's numpy calls and
domain checks in its left-to-right order, so values and errors are
unchanged.  ``eval_functional`` compiles a functional's outer level once
into closures over Python floats with the ``math`` functions; a node whose
value is not finite raises.  Its int atoms integrate their bodies, compiled
by ``eval_scalar``, on one interpolation of the state per evaluation pass
(``_SharedPass``), shared by all atoms of the functionals of that state.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Union

import numpy as np

from .errors import DslSyntaxError, EvalDomainError, ModelViolationError
from .quad import QuadConfig, _first_pass, _integrate_first_pass

if TYPE_CHECKING:
    from .cone import DiscreteState

__all__ = [
    "Num", "Const", "Var", "Unary", "Bin", "Val", "Der", "Integral",
    "ScalarExpr", "FunctionalExpr",
    "KERNEL_CONTEXT", "BOUNDARY_CONTEXT", "ENVELOPE_CONTEXT",
    "nonlinearity_context", "int_body_context",
    "parse_expr", "parse_functional", "parse_constant",
    "eval_scalar", "eval_functional", "render", "variables_of",
]


# ---------------------------------------------------------------------------
# AST nodes


class _Node:
    """Base of the AST nodes.  ``eval_scalar`` and ``eval_functional`` store
    a node's compiled closure (``_compiled``, ``_functional``) in its
    ``__dict__``, outside the dataclass fields, so equality and hashing
    ignore it; pickling leaves it out too."""

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_compiled", None)
        state.pop("_functional", None)
        return state


@dataclass(frozen=True)
class Num(_Node):
    value: float


@dataclass(frozen=True)
class Const(_Node):
    name: str  # 'e' or 'pi'


@dataclass(frozen=True)
class Var(_Node):
    name: str


@dataclass(frozen=True)
class Unary(_Node):
    op: str  # neg | exp | log | abs | sqrt | pos | step
    arg: "ScalarExpr"


@dataclass(frozen=True)
class Bin(_Node):
    op: str  # + - * / ^
    left: "ScalarExpr"
    right: "ScalarExpr"


@dataclass(frozen=True)
class Val(_Node):
    """Point evaluation u_i(t0); component index is 1-based."""
    index: int
    t0: float


@dataclass(frozen=True)
class Der(_Node):
    """Point evaluation of the derivative u_i'(t0); 1-based index."""
    index: int
    t0: float


@dataclass(frozen=True)
class Integral(_Node):
    """Integral over [0,1] of a scalar body in the {s, u*, du*} context."""
    body: "ScalarExpr"


ScalarExpr = Union[Num, Const, Var, Unary, Bin]
FunctionalExpr = Union[Num, Const, Unary, Bin, Val, Der, Integral]

_CONSTANTS = {"e": math.e, "pi": math.pi}
_FUNCTIONS = ("exp", "log", "abs", "sqrt", "pos", "step")

KERNEL_CONTEXT = frozenset({"t", "s"})
BOUNDARY_CONTEXT = frozenset({"t"})
ENVELOPE_CONTEXT = frozenset({"s"})


def nonlinearity_context(n: int) -> frozenset:
    """Variables available to a nonlinearity f: the point variable t, the
    component values u1..un, derivatives du1..dun, and the functional value w."""
    names = {"t", "w"}
    for i in range(1, n + 1):
        names.add(f"u{i}")
        names.add(f"du{i}")
    return frozenset(names)


def int_body_context(n: int) -> frozenset:
    """Variables available inside an int(...) body: s, u1..un, du1..dun."""
    names = {"s"}
    for i in range(1, n + 1):
        names.add(f"u{i}")
        names.add(f"du{i}")
    return frozenset(names)


# ---------------------------------------------------------------------------
# Tokenizer

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.lastgroup is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise DslSyntaxError(f"unexpected character {stripped[0]!r}", text, pos)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


# ---------------------------------------------------------------------------
# Parser

class _Parser:
    def __init__(self, text: str, context: frozenset, *, n: int | None = None,
                 mode: str = "scalar"):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.context = context
        self.n = n
        self.mode = mode  # scalar | functional | intbody

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, op: str):
        kind, textv, pos = self.peek()
        if kind != "op" or textv != op:
            raise DslSyntaxError(f"expected {op!r}", self.text, pos)
        return self.take()

    def fail(self, message: str):
        raise DslSyntaxError(message, self.text, self.peek()[2])

    # expr := term (('+'|'-') term)*
    def expr(self):
        node = self.term()
        while True:
            kind, textv, _ = self.peek()
            if kind == "op" and textv in "+-":
                self.take()
                node = Bin(textv, node, self.term())
            else:
                return node

    # term := unary (('*'|'/') unary)*
    def term(self):
        node = self.unary()
        while True:
            kind, textv, _ = self.peek()
            if kind == "op" and textv in "*/":
                self.take()
                node = Bin(textv, node, self.unary())
            else:
                return node

    # unary := '-' unary | '+' unary | power
    def unary(self):
        kind, textv, _ = self.peek()
        if kind == "op" and textv == "-":
            self.take()
            return Unary("neg", self.unary())
        if kind == "op" and textv == "+":
            self.take()
            return self.unary()
        return self.power()

    # power := atom ('^' unary)?      (right-associative)
    def power(self):
        node = self.atom()
        kind, textv, _ = self.peek()
        if kind == "op" and textv == "^":
            self.take()
            return Bin("^", node, self.unary())
        return node

    def atom(self):
        kind, textv, pos = self.take()
        if kind == "num":
            value = float(textv)
            if not math.isfinite(value):
                raise DslSyntaxError(f"number {textv} is out of range", self.text, pos)
            return Num(value)
        if kind == "op" and textv == "(":
            node = self.expr()
            self.expect(")")
            return node
        if kind == "name":
            nxt_kind, nxt_text, _ = self.peek()
            is_call = nxt_kind == "op" and nxt_text == "("
            if is_call:
                if textv in _FUNCTIONS:
                    self.take()
                    arg = self.expr()
                    self.expect(")")
                    return Unary(textv, arg)
                if textv in ("val", "der", "int"):
                    if self.mode == "intbody":
                        raise DslSyntaxError(
                            "nested int(...) is not allowed" if textv == "int"
                            else f"{textv}(...) is not allowed inside an int body "
                                 "(use the u/du variables instead)",
                            self.text, pos)
                    if self.mode != "functional":
                        raise DslSyntaxError(
                            f"{textv}(...) is only valid in functional expressions",
                            self.text, pos)
                    return self._functional_atom(textv, pos)
                raise DslSyntaxError(f"unknown function {textv!r}", self.text, pos)
            if textv in _CONSTANTS:
                return Const(textv)
            if textv in self.context:
                return Var(textv)
            if self._looks_like_variable(textv):
                raise DslSyntaxError(
                    f"variable {textv!r} not allowed in this context "
                    f"(allowed: {sorted(self.context)})", self.text, pos)
            raise DslSyntaxError(f"unknown identifier {textv!r}", self.text, pos)
        raise DslSyntaxError("expected a value", self.text, pos)

    @staticmethod
    def _looks_like_variable(name: str) -> bool:
        return name in ("t", "s", "w") or re.fullmatch(r"d?u\d+", name) is not None

    def _functional_atom(self, head: str, pos: int):
        self.take()  # '('
        if head == "int":
            body_parser = _Parser(self.text, int_body_context(self.n), n=self.n,
                                  mode="intbody")
            body_parser.tokens = self.tokens
            body_parser.i = self.i
            body = body_parser.expr()
            self.i = body_parser.i
            self.expect(")")
            return Integral(body)
        # val(i, t0) / der(i, t0): i an integer literal, t0 a constant expression
        kind, textv, ipos = self.take()
        if kind != "num" or not float(textv).is_integer():
            raise DslSyntaxError(f"{head}: component index must be an integer",
                                 self.text, ipos)
        index = int(float(textv))
        if not (1 <= index <= self.n):
            raise DslSyntaxError(
                f"{head}: component index {index} out of range 1..{self.n}",
                self.text, ipos)
        self.expect(",")
        t0_parser = _Parser(self.text, frozenset(), n=self.n)
        t0_parser.tokens = self.tokens
        t0_parser.i = self.i
        t0_expr = t0_parser.expr()
        self.i = t0_parser.i
        self.expect(")")
        try:
            t0 = float(eval_scalar(t0_expr, {}))
        except EvalDomainError as e:
            raise DslSyntaxError(f"{head}: evaluation point: {e}", self.text, pos) from None
        if not (0.0 <= t0 <= 1.0):
            raise DslSyntaxError(f"{head}: evaluation point {t0} outside [0,1]",
                                 self.text, pos)
        return (Val if head == "val" else Der)(index, t0)


def _check_text(text) -> None:
    if not isinstance(text, str):
        raise DslSyntaxError(f"expected an expression string, got {type(text).__name__}",
                             repr(text), 0)
    if not text.strip():
        raise DslSyntaxError("empty expression", text, 0)


def parse_expr(text: str, context: frozenset) -> ScalarExpr:
    """Parse a scalar expression whose variables must lie in ``context``."""
    _check_text(text)
    p = _Parser(text, frozenset(context))
    node = p.expr()
    kind, _, pos = p.peek()
    if kind != "end":
        raise DslSyntaxError("trailing input", text, pos)
    return node


def parse_functional(text: str, n: int) -> FunctionalExpr:
    """Parse a functional expression for an n-component system.

    The outer level has no free variables; state enters only through the
    val/der/int atoms.  int(...) may not be nested inside another int.
    """
    _check_text(text)
    p = _Parser(text, frozenset(), n=n, mode="functional")
    node = p.expr()
    kind, _, pos = p.peek()
    if kind != "end":
        raise DslSyntaxError("trailing input", text, pos)
    return node


def parse_constant(value, key: str = "<constant>") -> float:
    """Accept a JSON number or a constant DSL string such as ``"1/(1+e)"``."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:  # an integer beyond the double range
            raise DslSyntaxError(f"{key}: number out of range", str(value), 0) from None
    if isinstance(value, str):
        return float(eval_scalar(parse_expr(value, frozenset()), {}))
    raise DslSyntaxError(f"{key}: expected a number or constant expression", str(value), 0)


# ---------------------------------------------------------------------------
# Evaluation

def _check_finite(value, node):
    arr = np.asarray(value)
    if not np.all(np.isfinite(arr)):
        raise EvalDomainError("non-finite result", render(node))
    return value


def eval_scalar(expr: ScalarExpr, env: Mapping[str, object]):
    """Evaluate in double precision; env values may be floats or numpy arrays.

    Raises EvalDomainError naming the offending subexpression for log of a
    nonpositive value, sqrt of a negative value, or division by zero.  The
    AST is compiled on first use into closures that the node keeps.
    """
    try:
        fn = expr._compiled
    except AttributeError:
        fn = _compile(expr)[0]
    return fn(env)


def _compile(expr):
    """(closure, is_constant) of a scalar AST node.

    Each closure applies the node's operation to its children's results,
    left operand first, with the interpreter's exact numpy calls and domain
    checks.  A subtree without variables is evaluated once here and its
    closure returns the stored result; a subtree whose evaluation raises
    keeps its closure, so the error still surfaces at evaluation time.
    """
    if isinstance(expr, Num):
        value = expr.value
        fn, const = (lambda env: value), True
    elif isinstance(expr, Const):
        value = _CONSTANTS[expr.name]
        fn, const = (lambda env: value), True
    elif isinstance(expr, Var):
        fn, const = _compile_var(expr.name), False
    elif isinstance(expr, Unary):
        arg, const = _compile(expr.arg)
        fn = _compile_unary(expr, arg)
    elif isinstance(expr, Bin):
        left, lconst = _compile(expr.left)
        right, rconst = _compile(expr.right)
        fn, const = _compile_bin(expr, left, right), lconst and rconst
    else:
        def fn(env):
            raise TypeError(f"not a scalar expression: {expr!r}")
        return fn, False
    if const and not isinstance(expr, (Num, Const)):
        try:
            value = fn({})
        except Exception:  # fn raises it again when evaluated
            pass
        else:
            fn = lambda env: value
    object.__setattr__(expr, "_compiled", fn)
    return fn, const


def _compile_var(name):
    def fn(env):
        try:
            return env[name]
        except KeyError:
            raise EvalDomainError(f"unbound variable {name!r}", name) from None
    return fn


def _compile_unary(expr, arg):
    op = expr.op
    if op == "neg":
        def fn(env):
            x = arg(env)
            return -x if not isinstance(x, np.ndarray) else np.negative(x)
        return fn
    if op == "exp":
        def fn(env):
            x = arg(env)
            with np.errstate(over="ignore"):
                return _check_finite(np.exp(x), expr)
        return fn
    if op == "log":
        def fn(env):
            x = arg(env)
            if np.any(np.asarray(x) <= 0.0):
                raise EvalDomainError("log of a nonpositive value", render(expr))
            return np.log(x)
        return fn
    if op == "abs":
        return lambda env: np.abs(arg(env))
    if op == "sqrt":
        def fn(env):
            x = arg(env)
            if np.any(np.asarray(x) < 0.0):
                raise EvalDomainError("sqrt of a negative value", render(expr))
            return np.sqrt(x)
        return fn
    if op == "pos":
        return lambda env: np.maximum(arg(env), 0.0)
    if op == "step":
        def fn(env):
            x = arg(env)
            return np.where(np.asarray(x) > 0.0, 1.0, 0.0) if isinstance(x, np.ndarray) \
                else (1.0 if x > 0.0 else 0.0)
        return fn
    raise AssertionError(op)


def _compile_bin(expr, left, right):
    op = expr.op
    if op == "+":
        return lambda env: left(env) + right(env)
    if op == "-":
        return lambda env: left(env) - right(env)
    if op == "*":
        return lambda env: left(env) * right(env)
    if op == "/":
        def fn(env):
            a = left(env)
            b = right(env)
            if np.any(np.asarray(b) == 0.0):
                raise EvalDomainError("division by zero", render(expr))
            return a / b
        return fn
    if op == "^":
        def fn(env):
            a = left(env)
            b = right(env)
            with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
                r = np.power(a, b)
            return _check_finite(r, expr)
        return fn
    raise AssertionError(op)


def eval_functional(fx: FunctionalExpr, u: "DiscreteState",
                    quad: QuadConfig | None = None, *,
                    nonneg_condition: str | None = None,
                    shared_pass: "_SharedPass | None" = None) -> float:
    """Evaluate a functional on a discrete state.

    val/der atoms use the state's C1 interpolant; int atoms integrate over
    [0,1] with the state's interior nodes as quadrature panel breakpoints.
    A node whose value is not finite raises EvalDomainError, so a NaN never
    reaches the sign check.  When ``nonneg_condition`` is given (``"C7"``
    for h-typed, ``"C8"`` for w-typed functionals) a negative result raises
    ModelViolationError.  A caller evaluating several functionals of one
    state passes the same ``shared_pass`` to each, so that their int atoms
    share one interpolation of the state.
    """
    if shared_pass is None:
        shared_pass = _SharedPass(u, quad or QuadConfig())
    elif shared_pass.u is not u:
        raise ValueError("shared_pass was made for another state")
    try:
        fn = fx._functional
    except AttributeError:
        fn = _compile_functional(fx)
    value = fn(shared_pass)
    if nonneg_condition is not None and value < 0.0:
        raise ModelViolationError(
            nonneg_condition,
            f"functional {render(fx)!r} evaluated to {value} < 0 on the cone")
    return value


class _SharedPass:
    """u and u' of every component of one state at the first-pass points of
    its int atoms (see ``quad._first_pass``), taken on first use and shared
    by every int atom evaluated with this object.  Short-lived: callers make
    one per state and drop it with the state."""

    def __init__(self, u: "DiscreteState", quad: QuadConfig):
        self.u = u
        self.quad = quad
        self._first = None

    def _env(self, s, vals, ders) -> dict:
        env = {"s": s}
        for k in range(self.u.n):
            env[f"u{k + 1}"] = vals[k]
            env[f"du{k + 1}"] = ders[k]
        return env

    def integral(self, body: ScalarExpr) -> float:
        """``integrate`` of body over [0, 1], bit for bit, with the state's
        interior nodes as breakpoints."""
        u = self.u
        if self._first is None:
            fp = _first_pass(u.interior_nodes(), self.quad.gauss_order)
            self._first = (fp, u.value(slice(None), fp.points),
                           u.derivative(slice(None), fp.points))
        fp, vals, ders = self._first
        return _integrate_first_pass(
            lambda rows: eval_scalar(body, self._env(fp.points[rows], vals[:, rows],
                                                     ders[:, rows])),
            lambda s: eval_scalar(body, self._env(s, u.value(slice(None), s),
                                                  u.derivative(slice(None), s))),
            fp, self.quad)


def _finite(value: float, node) -> float:
    if not math.isfinite(value):
        raise EvalDomainError("non-finite result", render(node))
    return value


def _compile_functional(fx):
    """Closure of a functional AST node: fn(shared_pass) -> float.

    The outer level runs on Python floats with the ``math`` functions, left
    operand first.  Every node's value is finite or raises: the operations
    that can leave the finite range (+, -, *, /, ^, exp, and the atoms) check
    their result, and the others keep a finite argument finite.  The
    closure is kept on the node, apart from the scalar ``_compiled``.
    """
    if isinstance(fx, (Num, Const)):
        value = float(fx.value) if isinstance(fx, Num) else _CONSTANTS[fx.name]
        fn = lambda ctx: _finite(value, fx)
    elif isinstance(fx, (Val, Der)):
        fn = _compile_point(fx)
    elif isinstance(fx, Integral):
        body = fx.body
        fn = lambda ctx: _finite(ctx.integral(body), fx)
    elif isinstance(fx, Unary):
        fn = _functional_unary(fx, _compile_functional(fx.arg))
    elif isinstance(fx, Bin):
        fn = _functional_bin(fx, _compile_functional(fx.left),
                             _compile_functional(fx.right))
    else:
        raise TypeError(f"not a functional expression: {fx!r}")
    object.__setattr__(fx, "_functional", fn)
    return fn


def _compile_point(fx):
    index, t0 = fx.index, fx.t0
    derivative = isinstance(fx, Der)

    def fn(ctx):
        u = ctx.u
        if index > u.n:
            raise EvalDomainError(
                f"functional references component {index} but the state "
                f"has {u.n}", render(fx))
        point = u.derivative if derivative else u.value
        return _finite(float(point(index - 1, t0)), fx)
    return fn


def _functional_unary(fx, arg):
    op = fx.op
    if op == "neg":
        return lambda ctx: -arg(ctx)
    if op == "exp":
        def fn(ctx):
            x = arg(ctx)
            try:
                return math.exp(x)
            except OverflowError:
                raise EvalDomainError("non-finite result", render(fx)) from None
        return fn
    if op == "log":
        def fn(ctx):
            x = arg(ctx)
            if x <= 0.0:
                raise EvalDomainError("log of a nonpositive value", render(fx))
            return math.log(x)
        return fn
    if op == "abs":
        return lambda ctx: abs(arg(ctx))
    if op == "sqrt":
        def fn(ctx):
            x = arg(ctx)
            if x < 0.0:
                raise EvalDomainError("sqrt of a negative value", render(fx))
            return math.sqrt(x)
        return fn
    if op == "pos":
        return lambda ctx: max(arg(ctx), 0.0)
    if op == "step":
        return lambda ctx: 1.0 if arg(ctx) > 0.0 else 0.0
    raise AssertionError(op)


def _functional_bin(fx, left, right):
    op = fx.op
    if op == "+":
        return lambda ctx: _finite(left(ctx) + right(ctx), fx)
    if op == "-":
        return lambda ctx: _finite(left(ctx) - right(ctx), fx)
    if op == "*":
        return lambda ctx: _finite(left(ctx) * right(ctx), fx)
    if op == "/":
        def fn(ctx):
            a = left(ctx)
            b = right(ctx)
            if b == 0.0:
                raise EvalDomainError("division by zero", render(fx))
            return _finite(a / b, fx)
        return fn
    if op == "^":
        def fn(ctx):
            a = left(ctx)
            b = right(ctx)
            try:
                r = math.pow(a, b) if (a >= 0 or float(b).is_integer()) else math.nan
            except (OverflowError, ValueError):  # e.g. 10^400, or 0^-1
                r = math.nan
            return _finite(r, fx)
        return fn
    raise AssertionError(op)


# ---------------------------------------------------------------------------
# Rendering and inspection

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def render(expr) -> str:
    """Render an AST back to DSL text; ``parse(render(x))`` is structurally
    identical to ``x`` for every grammar-valid input."""
    return _render(expr, 0)


def _render(expr, parent_prec: int) -> str:
    if isinstance(expr, Num):
        v = expr.value
        return repr(int(v)) if v.is_integer() and abs(v) < 1e15 else repr(v)
    if isinstance(expr, (Const, Var)):
        return expr.name
    if isinstance(expr, Unary):
        if expr.op == "neg":
            inner = _render(expr.arg, _PREC["neg"])
            text = f"-{inner}"
            return f"({text})" if parent_prec > _PREC["neg"] else text
        return f"{expr.op}({_render(expr.arg, 0)})"
    if isinstance(expr, Bin):
        prec = _PREC[expr.op]
        # left-assoc ops need parens on an equal-precedence right child;
        # '^' is right-assoc so the asymmetry flips
        if expr.op == "^":
            left = _render(expr.left, prec + 1)
            right = _render(expr.right, prec)
        else:
            left = _render(expr.left, prec)
            right = _render(expr.right, prec + 1)
        text = f"{left} {expr.op} {right}"
        return f"({text})" if parent_prec > prec else text
    if isinstance(expr, Val):
        return f"val({expr.index}, {repr(expr.t0)})"
    if isinstance(expr, Der):
        return f"der({expr.index}, {repr(expr.t0)})"
    if isinstance(expr, Integral):
        return f"int({_render(expr.body, 0)})"
    raise TypeError(f"not an expression: {expr!r}")


def variables_of(expr) -> frozenset:
    """Free variables of a scalar expression (int bodies are not descended)."""
    out = set()

    def walk(node):
        if isinstance(node, Var):
            out.add(node.name)
        elif isinstance(node, Unary):
            walk(node.arg)
        elif isinstance(node, Bin):
            walk(node.left)
            walk(node.right)

    walk(expr)
    return frozenset(out)
