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

Nesting is limited to _MAX_DEPTH levels; deeper text raises DslSyntaxError.

ASTs are immutable after parse and evaluation is pure, so expressions are
safe to evaluate concurrently.  One compiler, ``_compile``, reached through
``_closure``, turns an AST into closures kept on its nodes, with the
operations of an op table: ``eval_scalar`` uses the numpy table (floats
and arrays, the tree walk's numpy calls and domain checks),
``eval_functional`` the ``math`` table for a functional's outer level
(Python floats; a node whose value is not finite raises), and ``_enclose``
the interval table, whose (lo, hi) values enclose a scalar expression's
real value and the numpy table's double over boxes of its variables.
Functionals stay on ``math``: numpy's exp and power differ from it in the
last bit for some float arguments.  The int atoms integrate their bodies,
compiled by ``eval_scalar``, with ``quad.integrate_rows``; one evaluation
pass (``_SharedPass``) over a state, or a stack of states, interpolates it
once per point array, integrates each distinct int body once and reads
every val/der atom from one interpolation at the atom points.

``_state_env`` is the one naming rule of a state's variables (t, s, w,
then u1, du1, u2, du2, ...), contexts included.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Callable, Mapping, NamedTuple, Union

import numpy as np

from .errors import DslSyntaxError, EvalDomainError, ModelViolationError
from .quad import QuadConfig, integrate_rows

if TYPE_CHECKING:
    from .cone import DiscreteState

__all__ = [
    "Num", "Const", "Var", "Unary", "Bin", "Val", "Der", "Integral",
    "ScalarExpr", "FunctionalExpr",
    "KERNEL_CONTEXT", "BOUNDARY_CONTEXT", "ENVELOPE_CONTEXT",
    "nonlinearity_context", "int_body_context",
    "parse_expr", "parse_functional", "parse_constant",
    "eval_scalar", "eval_functional", "render",
]


# ---------------------------------------------------------------------------
# AST nodes


def _fields_only(self) -> dict:
    """The pickled state of a frozen dataclass: its fields, so nothing else
    kept in its ``__dict__`` (a compiled closure, a memo) is pickled."""
    return {f.name: getattr(self, f.name) for f in fields(self)}


class _Node:
    """Base of the AST nodes.  ``eval_scalar``, ``eval_functional`` and
    ``_enclose`` keep a node's compiled closure, one per op table, in its
    ``__dict__``, outside the dataclass fields, so equality and hashing
    ignore it; a node pickles its fields only."""

    __getstate__ = _fields_only


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


def _state_env(values, derivatives, **others) -> dict:
    """``others`` (t, s, w), then u<k> and du<k> for the k-th entries of
    values and derivatives."""
    env = dict(others)
    for k, (u, du) in enumerate(zip(values, derivatives), start=1):
        env[f"u{k}"] = u
        env[f"du{k}"] = du
    return env


def nonlinearity_context(n: int) -> frozenset:
    """Variables available to a nonlinearity f: the point variable t, the
    component values u1..un, derivatives du1..dun, and the functional value w."""
    return frozenset(_state_env(range(n), range(n), t=None, w=None))


def int_body_context(n: int) -> frozenset:
    """Variables available inside an int(...) body: s, u1..un, du1..dun."""
    return frozenset(_state_env(range(n), range(n), s=None))


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

# Deepest nesting the parser accepts, both of parentheses (function calls
# included) and of the AST, in which each sign, '^' and link of a
# left-associative chain is a level: a sum of k terms is k - 1 levels deep.
# Deeper input would exhaust the Python stack in the parser, the compiler,
# render, hash or pickle.  ``render`` adds parentheses only around nodes, so
# it never renders an accepted AST beyond either limit.
_MAX_DEPTH = 100


class _Parser:
    """Recursive descent through parentheses only; signs, '^' and the
    left-associative chains are parsed in loops.  The methods return
    (node, height), height being the AST depth below the node."""

    def __init__(self, text: str, context: frozenset, *, n: int | None = None,
                 mode: str = "scalar"):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.context = context
        self.n = n
        self.mode = mode  # scalar | functional | intbody
        self.depth = 0  # parentheses open at the current token

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

    def fits(self, depth: int, pos: int) -> int:
        if depth > _MAX_DEPTH:
            raise DslSyntaxError(f"expression nested more than {_MAX_DEPTH} levels "
                                 "deep", self.text, pos)
        return depth

    def node(self, cls, pos: int, *args):
        """(cls(*args), its height), each child in args given as a (node,
        height) pair."""
        height = 1 + max(a[1] for a in args if isinstance(a, tuple))
        return (cls(*(a[0] if isinstance(a, tuple) else a for a in args)),
                self.fits(height, pos))

    def inner(self, pos: int, context: frozenset, mode: str):
        """The expr after an opening parenthesis, in ``context`` and ``mode``."""
        outer = self.context, self.mode
        self.context, self.mode = context, mode
        self.depth = self.fits(self.depth + 1, pos)
        found = self.expr()
        self.depth -= 1
        self.context, self.mode = outer
        return found

    # expr := term (('+'|'-') term)*;  term := unary (('*'|'/') unary)*
    def expr(self, ops: str = "+-"):
        node = self.expr("*/") if ops == "+-" else self.unary()
        while True:
            kind, textv, pos = self.peek()
            if not (kind == "op" and textv in ops):
                return node
            self.take()
            right = self.expr("*/") if ops == "+-" else self.unary()
            node = self.node(Bin, pos, textv, node, right)

    # unary := ('-'|'+')* atom ('^' unary)?      ('^' right-associative)
    def unary(self):
        links = []  # (sign positions, atom, '^' position) left of each '^'
        while True:
            signs = []
            kind, textv, pos = self.peek()
            while kind == "op" and textv in "+-":
                self.take()
                if textv == "-":
                    signs.append(pos)
                kind, textv, pos = self.peek()
            node = self.atom()
            kind, textv, pos = self.peek()
            if not (kind == "op" and textv == "^"):
                break
            self.take()
            links.append((signs, node, pos))
        while True:
            for sign in reversed(signs):
                node = self.node(Unary, sign, "neg", node)
            if not links:
                return node
            signs, left, pos = links.pop()
            node = self.node(Bin, pos, "^", left, node)

    def atom(self):
        kind, textv, pos = self.take()
        if kind == "num":
            value = float(textv)
            if not math.isfinite(value):
                raise DslSyntaxError(f"number {textv} is out of range", self.text, pos)
            return Num(value), 0
        if kind == "op" and textv == "(":
            found = self.inner(pos, self.context, self.mode)
            self.expect(")")
            return found
        if kind == "name":
            nxt_kind, nxt_text, _ = self.peek()
            is_call = nxt_kind == "op" and nxt_text == "("
            if is_call:
                if textv in _FUNCTIONS:
                    self.take()
                    arg = self.inner(pos, self.context, self.mode)
                    self.expect(")")
                    return self.node(Unary, pos, textv, arg)
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
                return Const(textv), 0
            if textv in self.context:
                return Var(textv), 0
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
            body = self.inner(pos, int_body_context(self.n), "intbody")
            self.expect(")")
            return self.node(Integral, pos, body)
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
        t0_expr = self.inner(pos, frozenset(), "scalar")[0]
        self.expect(")")
        try:
            t0 = float(eval_scalar(t0_expr, {}))
        except EvalDomainError as e:
            raise DslSyntaxError(f"{head}: evaluation point: {e}", self.text, pos) from None
        if not (0.0 <= t0 <= 1.0):
            raise DslSyntaxError(f"{head}: evaluation point {t0} outside [0,1]",
                                 self.text, pos)
        return (Val if head == "val" else Der)(index, t0), 0


def _check_text(text) -> None:
    if not isinstance(text, str):
        raise DslSyntaxError(f"expected an expression string, got {type(text).__name__}",
                             repr(text), 0)
    if not text.strip():
        raise DslSyntaxError("empty expression", text, 0)


def _parse(text: str, context: frozenset, n: int | None = None, mode: str = "scalar"):
    """The expression that spans all of text; text is checked first, since
    ``_Parser`` tokenizes it when it is made."""
    _check_text(text)
    p = _Parser(text, frozenset(context), n=n, mode=mode)
    node = p.expr()[0]
    kind, _, pos = p.peek()
    if kind != "end":
        raise DslSyntaxError("trailing input", text, pos)
    return node


def parse_expr(text: str, context: frozenset) -> ScalarExpr:
    """Parse a scalar expression whose variables must lie in ``context``."""
    return _parse(text, context)


def parse_functional(text: str, n: int) -> FunctionalExpr:
    """Parse a functional expression for an n-component system.

    The outer level has no free variables; state enters only through the
    val/der/int atoms.  int(...) may not be nested inside another int.
    """
    return _parse(text, frozenset(), n, "functional")


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

def eval_scalar(expr: ScalarExpr, env: Mapping[str, object]):
    """Evaluate in double precision; env values may be floats or numpy arrays.

    Raises EvalDomainError naming the offending subexpression for log of a
    nonpositive value, sqrt of a negative value, or division by zero.  The
    AST is compiled on first use into closures that the node keeps.
    """
    return _closure(expr, _NUMPY)(env)


def eval_functional(fx: FunctionalExpr, u: "DiscreteState",
                    quad: QuadConfig | None = None, *,
                    nonneg_condition: str | None = None,
                    shared_pass: "_PassRow | None" = None) -> float:
    """Evaluate a functional on a discrete state.

    val/der atoms use the state's C1 interpolant; int atoms integrate over
    [0,1] with the state's interior nodes as quadrature panel breakpoints.
    A node whose value is not finite raises EvalDomainError, so a NaN never
    reaches the sign check.  When ``nonneg_condition`` is given (``"C7"``
    for h-typed, ``"C8"`` for w-typed functionals) a negative result raises
    ModelViolationError.  A caller evaluating several functionals of one
    state, or of a stack of states, builds one ``_SharedPass`` for all of
    them and passes each state's ``row`` as ``shared_pass``, so that their
    atoms are evaluated once; without it, a pass is built for ``fx`` alone.
    """
    ctx = shared_pass or _SharedPass(u, quad or QuadConfig(), (fx,)).row(0)
    if ctx.u is not u:
        raise ValueError("shared_pass was made for another state")
    value = _closure(fx, _MATH)(ctx)
    if nonneg_condition is not None and value < 0.0:
        raise ModelViolationError(
            nonneg_condition,
            f"functional {render(fx)!r} evaluated to {value} < 0 on the cone")
    return value


class _SharedPass:
    """The atoms of a state, or of a stack of K states (a state is a stack
    of one), each evaluated once for the whole stack: u and u' at a point
    array, one record per array (kept by the array's identity; the pass
    holds the array, so the id is not reused while it lives), and the K
    integrals of an int body (kept per body, so equal bodies of several
    functionals integrate once).  The val/der points of ``functionals`` form
    one such point array, built with the pass; an atom at any other point
    raises ValueError.  ``row(r)`` is the context in which state r's
    functionals read the atoms.  Short-lived: callers make one per stack and
    drop it with it.
    """

    def __init__(self, u: "DiscreteState", quad: QuadConfig, functionals):
        self.u = u
        self.quad = quad
        self.size = u.values.shape[0] if u.stacked else 1
        self._kept: dict = {}
        self._integrals: dict = {}
        points = {node.t0.hex(): node.t0 for fx in functionals for node in _walk(fx)
                  if isinstance(node, (Val, Der))}
        # t0.hex() -> column, so -0.0 is its own point
        self._columns = {key: j for j, key in enumerate(points)}
        self._x = np.array(list(points.values()), dtype=float)

    def row(self, r: int) -> "_PassRow":
        return _PassRow(self, r, self.u.row(r) if self.u.stacked else self.u)

    def _stacked(self, a: np.ndarray) -> np.ndarray:
        return a if self.u.stacked else a[None]

    def at(self, x: np.ndarray):
        """(u, u') of every state and component at x, each shaped
        (K, n) + x.shape.  Both are interpolated with numpy's overflow and
        invalid-value warnings off: an atom that reads a non-finite value
        reports it, and one that reads only the other is unaffected."""
        if id(x) not in self._kept:
            with np.errstate(over="ignore", invalid="ignore"):
                self._kept[id(x)] = (x, self._stacked(self.u.value(slice(None), x)),
                                     self._stacked(self.u.derivative(slice(None), x)))
        return self._kept[id(x)][1:]

    def point(self, derivative: bool, key: str) -> np.ndarray:
        """u (or u') of every state and component at the atom point whose
        float.hex is key, shaped (K, n)."""
        if key not in self._columns:
            raise ValueError(f"shared_pass was not built for an atom at "
                             f"{float.fromhex(key)!r}")
        return self.at(self._x)[derivative][..., self._columns[key]]

    def integrals(self, body: ScalarExpr) -> np.ndarray:
        """The K integrals of body over [0, 1], with the states' interior
        nodes as breakpoints; each equals ``integrate`` of that state's
        integrand.  A panel that needs refining evaluates every state at its
        refined points, so a state's domain error there raises for the
        stack."""
        found = self._integrals.get(body)
        if found is None:
            found = self._integrals[body] = integrate_rows(
                lambda s: _eval_body(body, *self.at(s), s), self.size, 0.0, 1.0,
                self.u.interior_nodes(), self.quad)
        return found


def _eval_body(body: ScalarExpr, vals: np.ndarray, ders: np.ndarray, s: np.ndarray):
    """An int body at s, from u and u' there shaped (K, n) + s.shape."""
    return eval_scalar(body, _state_env(vals.swapaxes(0, 1), ders.swapaxes(0, 1), s=s))


class _PassRow(NamedTuple):
    """State k of a ``_SharedPass``: the context in which the math table's
    leaves read that state's atoms."""
    shared: _SharedPass
    k: int
    u: "DiscreteState"

    def integral(self, body: ScalarExpr) -> float:
        return float(self.shared.integrals(body)[self.k])

    def point(self, derivative: bool, comp: int, key: str) -> float:
        return float(self.shared.point(derivative, key)[self.k, comp])


def _walk(expr):
    """Every node of expr in pre-order: a node, then the nodes of its
    operands, left one first.  An int atom's body is not entered."""
    todo = [expr]
    while todo:
        node = todo.pop()
        yield node
        if isinstance(node, Unary):
            todo.append(node.arg)
        elif isinstance(node, Bin):
            todo += (node.right, node.left)


class _Backend(NamedTuple):
    """What ``_compile`` needs to know of one evaluation domain: the node
    attribute that keeps a closure, ``number(node, value)`` for a Num or
    Const leaf, ``leaf(node)``, the closure of any other leaf, and the
    ``op(node, x)`` or ``op(node, a, b)`` of each operator."""
    attr: str
    number: Callable
    leaf: Callable
    unary: dict
    binary: dict


def _compile(expr, backend: _Backend):
    """(closure, is_constant) of an AST node, kept on the node.

    The closure applies the node's op to its children's values, left
    operand first.  A subtree without variables or atoms is evaluated once
    here and its closure returns the stored result; a subtree whose
    evaluation raises keeps its closure, so the error still surfaces at
    evaluation time, in order.
    """
    if isinstance(expr, (Num, Const)):
        raw = expr.value if isinstance(expr, Num) else _CONSTANTS[expr.name]
        fn, const = (lambda env: backend.number(expr, raw)), True
    elif isinstance(expr, Unary):
        arg, const = _compile(expr.arg, backend)
        unary = backend.unary[expr.op]
        fn = lambda env: unary(expr, arg(env))
    elif isinstance(expr, Bin):
        left, lconst = _compile(expr.left, backend)
        right, rconst = _compile(expr.right, backend)
        binary = backend.binary[expr.op]
        fn, const = (lambda env: binary(expr, left(env), right(env))), lconst and rconst
    else:
        fn, const = backend.leaf(expr), False
    if const:
        try:
            value = fn(None)
        except Exception:  # fn raises it again when evaluated
            pass
        else:
            fn = lambda env: value
    object.__setattr__(expr, backend.attr, fn)
    return fn, const


def _closure(expr, backend: _Backend):
    """expr's closure in backend's table: the one kept on it, else compiled
    now."""
    fn = getattr(expr, backend.attr, None)
    return _compile(expr, backend)[0] if fn is None else fn


# Scalar expressions: numpy on floats and arrays, broadcasting.  Only exp
# and ^ check that their result is finite; exp skips the check, and its
# errstate block, for a double argument below 709, whose exp cannot
# overflow.  The checks call the ndarray methods .any() and .all(), which
# give what np.any and np.all give without their Python-level wrappers.

def _check_finite(value, node):
    if not np.isfinite(value).all():
        raise EvalDomainError("non-finite result", render(node))
    return value


def _numpy_leaf(node):
    if not isinstance(node, Var):
        raise TypeError(f"not a scalar expression: {node!r}")
    name = node.name

    def fn(env):
        try:
            return env[name]
        except KeyError:
            raise EvalDomainError(f"unbound variable {name!r}", name) from None
    return fn


# exp of a double below this is finite: ln(DBL_MAX) = 709.78...
_EXP_FINITE_BELOW = 709.0


def _numpy_exp(node, x):
    # a NaN or +inf fails the comparison; every other argument (float32
    # among them, whose exp overflows from 88.73) takes the checked path
    if isinstance(x, float):  # Python floats and np.float64
        if x < _EXP_FINITE_BELOW:
            return np.exp(x)
    elif type(x) is np.ndarray and x.dtype.char == "d" and \
            x.max(initial=-np.inf) < _EXP_FINITE_BELOW:
        return np.exp(x)
    with np.errstate(over="ignore"):
        return _check_finite(np.exp(x), node)


def _numpy_log(node, x):
    if (np.asarray(x) <= 0.0).any():
        raise EvalDomainError("log of a nonpositive value", render(node))
    return np.log(x)


def _numpy_sqrt(node, x):
    if (np.asarray(x) < 0.0).any():
        raise EvalDomainError("sqrt of a negative value", render(node))
    return np.sqrt(x)


def _numpy_step(node, x):
    return np.where(np.asarray(x) > 0.0, 1.0, 0.0) if isinstance(x, np.ndarray) \
        else (1.0 if x > 0.0 else 0.0)


def _numpy_div(node, a, b):
    # a float divisor, such as the constant of exp(t - s)/4, needs no array
    if b == 0.0 if isinstance(b, float) else (np.asarray(b) == 0.0).any():
        raise EvalDomainError("division by zero", render(node))
    return a / b


def _numpy_pow(node, a, b):
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        r = np.power(a, b)
    return _check_finite(r, node)


_NUMPY = _Backend(
    "_compiled", lambda node, value: value, _numpy_leaf,
    {"neg": lambda node, x: -x if not isinstance(x, np.ndarray) else np.negative(x),
     "exp": _numpy_exp, "log": _numpy_log, "abs": lambda node, x: np.abs(x),
     "sqrt": _numpy_sqrt, "pos": lambda node, x: np.maximum(x, 0.0),
     "step": _numpy_step},
    {"+": lambda node, a, b: a + b, "-": lambda node, a, b: a - b,
     "*": lambda node, a, b: a * b, "/": _numpy_div, "^": _numpy_pow})


# Functionals: the ``math`` functions on Python floats, whose results differ
# from numpy's in the last bit for some exp and ^ arguments.  Every node's
# value is finite or raises: the ops that can leave the finite range (+, -,
# *, /, ^, exp, the leaves) check their result, and the others keep a
# finite argument finite.  A leaf's ``env`` is a ``_PassRow``.

def _finite(value: float, node) -> float:
    if not math.isfinite(value):
        raise EvalDomainError("non-finite result", render(node))
    return value


def _math_leaf(node):
    if isinstance(node, Integral):
        body = node.body
        return lambda ctx: _finite(ctx.integral(body), node)
    if not isinstance(node, (Val, Der)):
        raise TypeError(f"not a functional expression: {node!r}")
    index, key, derivative = node.index, node.t0.hex(), isinstance(node, Der)

    def fn(ctx):
        n = ctx.u.n
        if index > n:
            raise EvalDomainError(
                f"functional references component {index} but the state "
                f"has {n}", render(node))
        return _finite(ctx.point(derivative, index - 1, key), node)
    return fn


def _math_exp(node, x):
    try:
        return math.exp(x)
    except OverflowError:
        raise EvalDomainError("non-finite result", render(node)) from None


def _math_log(node, x):
    if x <= 0.0:
        raise EvalDomainError("log of a nonpositive value", render(node))
    return math.log(x)


def _math_sqrt(node, x):
    if x < 0.0:
        raise EvalDomainError("sqrt of a negative value", render(node))
    return math.sqrt(x)


def _math_div(node, a, b):
    if b == 0.0:
        raise EvalDomainError("division by zero", render(node))
    return _finite(a / b, node)


def _math_pow(node, a, b):
    try:
        r = math.pow(a, b) if (a >= 0 or float(b).is_integer()) else math.nan
    except (OverflowError, ValueError):  # e.g. 10^400, or 0^-1
        r = math.nan
    return _finite(r, node)


_MATH = _Backend(
    "_functional", lambda node, value: _finite(float(value), node), _math_leaf,
    {"neg": lambda node, x: -x, "exp": _math_exp, "log": _math_log,
     "abs": lambda node, x: abs(x), "sqrt": _math_sqrt,
     "pos": lambda node, x: max(x, 0.0),
     "step": lambda node, x: 1.0 if x > 0.0 else 0.0},
    {"+": lambda node, a, b: _finite(a + b, node),
     "-": lambda node, a, b: _finite(a - b, node),
     "*": lambda node, a, b: _finite(a * b, node), "/": _math_div, "^": _math_pow})


# Enclosures: each value is a (lo, hi) pair of float64 scalars or arrays,
# the variables' boxes in the env, which must be finite.  At every point of
# the boxes, the real value of a node and the numpy table's double for it
# lie in [lo, hi] (Moore, Kearfott & Cloud, Introduction to Interval
# Analysis, 2009).  ``_enclose`` runs the table with every numpy
# floating-point error raised, so no op overflows, underflows or is
# invalid: every enclosure is finite, and a result that is 0 or subnormal
# is exact.  + - * / and sqrt are correctly rounded, hence monotone: the
# table applies them to the ends (the four corners for * and /) and moves
# each end x out by |x| 2^-52, at least to the next double, as an ulp of x
# is at most that; an end at 0 stays.  neg, abs, pos and step are exact and
# monotone on each side of 0.  An integer Num leaf of magnitude <= 2^53 is
# exact; other Num leaves, e and pi widen like a result.  So at the boxes'
# points no numpy value is inf or NaN, and the numpy table raises nowhere.
# An op the table cannot enclose raises too: a divisor reaching 0, sqrt
# reaching below 0, and log and ^, whose numpy results are not correctly
# rounded and whose error is not measured.

# numpy's exp is within one ulp (np.spacing of its result) of exp: at most
# 0.70 ulp on 50,000 arguments against 50-digit mpmath, on arrays and on
# floats alike (numpy 2.4.6, AVX-512).  Its AVX2 kernels, which a CPU
# without AVX-512 runs, gave at most 0.50 ulp on a test's 11,040 arguments;
# the test checks the one ulp at both dispatch levels.  So on
# [lo, hi] the real exp lies within one ulp of np.exp at the ends, and
# np.exp at any point within one ulp of the real exp: the ends need two
# ulps down and three up (above an end, np.exp may cross a power of 2,
# where ulps double).  An ulp of a normal y is at most y 2^-52, so
# y (1 -+ 2^-50) covers both after its own rounding.
_EXP_SLACK = 2.0 ** -50


def _outward(lo, hi):
    return lo - abs(lo) * 2.0 ** -52, hi + abs(hi) * 2.0 ** -52


def _interval_number(node, value):
    if not math.isfinite(value):
        raise EvalDomainError("non-finite constant", render(node))
    value = np.float64(value)
    if isinstance(node, Num) and value.is_integer() and abs(value) <= 2.0 ** 53:
        return value, value
    return _outward(value, value)


def _corners(op, a, b):
    p, q, r, s = op(a[0], b[0]), op(a[0], b[1]), op(a[1], b[0]), op(a[1], b[1])
    return _outward(np.minimum(np.minimum(p, q), np.minimum(r, s)),
                    np.maximum(np.maximum(p, q), np.maximum(r, s)))


def _interval_div(node, a, b):
    if ((b[0] <= 0.0) & (b[1] >= 0.0)).any():
        raise EvalDomainError("divisor enclosure reaches 0", render(node))
    return _corners(np.divide, a, b)


def _interval_exp(node, x):
    return np.exp(x[0]) * (1.0 - _EXP_SLACK), np.exp(x[1]) * (1.0 + _EXP_SLACK)


def _interval_sqrt(node, x):
    if (x[0] < 0.0).any():
        raise EvalDomainError("sqrt of an enclosure reaching below 0", render(node))
    return _outward(np.sqrt(x[0]), np.sqrt(x[1]))


def _not_enclosed(node, *args):
    raise EvalDomainError("no enclosure of this operation", render(node))


_INTERVAL = _Backend(
    "_interval", _interval_number, _numpy_leaf,
    {"neg": lambda node, x: (-x[1], -x[0]), "exp": _interval_exp,
     "log": _not_enclosed,
     "abs": lambda node, x: (np.maximum(np.maximum(x[0], -x[1]), 0.0),
                             np.maximum(-x[0], x[1])),
     "sqrt": _interval_sqrt,
     "pos": lambda node, x: (np.maximum(x[0], 0.0), np.maximum(x[1], 0.0)),
     "step": lambda node, x: (np.where(x[0] > 0.0, 1.0, 0.0),
                              np.where(x[1] > 0.0, 1.0, 0.0))},
    {"+": lambda node, a, b: _outward(a[0] + b[0], a[1] + b[1]),
     "-": lambda node, a, b: _outward(a[0] - b[1], a[1] - b[0]),
     "*": lambda node, a, b: _corners(np.multiply, a, b),
     "/": _interval_div, "^": _not_enclosed})


def _enclose(expr: ScalarExpr, env: Mapping[str, tuple]) -> tuple:
    """(lo, hi) enclosing expr over the boxes of env, each variable's box a
    (lo, hi) pair of finite float64 scalars or arrays, by the interval
    table; raises EvalDomainError where the table cannot enclose it."""
    with np.errstate(all="raise"):
        try:
            return _closure(expr, _INTERVAL)(env)
        except FloatingPointError as err:
            raise EvalDomainError(f"no enclosure: {err}", render(expr)) from None


# ---------------------------------------------------------------------------
# Rendering and inspection

def _monotone_in(expr, var: str) -> tuple | None:
    """The var-free factors of the products on the path from ``var`` to the
    root if expr is monotone in var by its form, else None.

    The form is: var occurs at most once, and every node from it up to the
    root is neg, pos or step, or +, - or * with a var-free sibling, or /
    with a var-free divisor; exp, log, sqrt, abs and ^ lie in var-free
    subtrees only.  neg, pos and step are exact and monotone; + - * / are
    correctly rounded, so with one operand fixed each is monotone in the
    other (the direction of * and / set by the fixed operand's sign).  So
    for fixed values of the other variables, expr is monotone in var over
    all doubles, as long as no product is 0 * inf: an infinite factor breaks
    the order at a zero of the other one, so callers check the factors.
    numpy's exp and power are not correctly rounded, and abs is not
    monotone, so neither carries the claim.
    """
    mentions = lambda e: Var(var) in _walk(e)  # nodes compare by their fields
    factors, node = [], expr
    while mentions(node) and not isinstance(node, Var):
        if isinstance(node, Unary) and node.op in ("neg", "pos", "step"):
            node = node.arg
        elif isinstance(node, Bin) and node.op in ("+", "-", "*", "/"):
            left = mentions(node.left)
            if left == mentions(node.right) or (node.op == "/" and not left):
                return None  # var on both sides, or in a divisor
            if node.op == "*":
                factors.append(node.right if left else node.left)
            node = node.left if left else node.right
        else:
            return None
    return tuple(factors)


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

