"""Discrete C1 states, the product-space norm, and cone machinery.

A candidate solution of an n-component system is stored as values and
derivative values on a shared uniform node vector over [0,1]; between nodes
the function is the piecewise cubic Hermite interpolant of the (value,
derivative) pairs, which is C1 by construction.  Sup norms are taken over an
8x oversampled monitoring grid (exact at nodes, a lower bound of the true
sup with O(h^4) defect).

Interpolation at a point set goes through a Hermite basis: the panel index
and the cubic basis polynomials of every point, built once per (node
vector, point set) and kept in an ``lru_cache`` keyed by their exact bytes.
The cache keeps the BASIS_SETS most recently used point sets of at most
BASIS_SET_POINTS points each, so at most 2^16 points (about 6 MB); a larger
point set is built on every call and not kept.  A session only ever
interpolates at a handful of point sets (the monitoring grid, the
whole-panel quadrature points that are also the Nystrom points, the
half-panel points, the window grids, val/der points; six sets of at most
2,048 points at N = 128), so evaluating a state is a gather plus the same
arithmetic, in the same order, as building the basis inline would do.

A ``DiscreteState`` may also hold a stack of K states on the same nodes,
with a leading stack axis on its values and derivatives; interpolation and
``c1_norm`` then work on all K at once, elementwise, so each state of a
stack gets the doubles it gets alone.

The cone of interest consists of vectors whose i-th component satisfies
min over the window [a_i, b_i] of u_i >= c_i * sup|u_i|; components may
change sign outside their window.  The boundary sampler draws random trig
polynomials, shifts them into the cone and rescales onto ||u|| = rho; it is
meant for falsification and property tests, not for exhausting the boundary.
It draws a stack of states as one round of Python draws, in the order of one
state at a time (each state's trig coefficients, then its ball coin), and
then shifts and rescales the whole stack with one array pass.  The shift
is read off the cone rule's margin, min over the window minus c sup, which
``cone_membership`` reports too.  A state of C1 norm at most
1e-12 cannot be rescaled onto the sphere.  The shift leaves u' alone, and
the mean of u'^2 over the nodes is sum_d w_d^2 (a_d^2 + b_d^2) / 2 with
w_d >= 2 pi, so every non-constant trig coefficient would have to lie below
2.3e-13 (a c >= 1 component's constant is at least 0.1): such a draw
raises RuntimeError instead of being drawn again.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from .constants import ConeConstants
from .errors import _finite_real, _integer
from .quad import _distinct

if TYPE_CHECKING:
    from .problem import ProblemSpec

__all__ = ["DiscreteState", "StateNorms", "c1_norm", "cone_membership",
           "MembershipVerdict", "state_to_csv", "state_from_csv", "zero_state",
           "constant_state"]

MONITOR_FACTOR = 8  # monitoring grid has MONITOR_FACTOR*N + 1 points
# the Hermite basis cache: point sets kept, and the points of the largest kept
BASIS_SETS = 8
BASIS_SET_POINTS = 2 ** 13


class _HermiteBasis(NamedTuple):
    """Panel indices and cubic Hermite basis polynomials at a point set."""
    left: np.ndarray    # panel index, clipped to [0, N-1]
    right: np.ndarray   # left + 1
    h: float
    v00: np.ndarray     # value basis, in the order u0, h*d0, u1, h*d1
    v10: np.ndarray
    v01: np.ndarray
    v11: np.ndarray
    p00: np.ndarray     # derivative basis, in the order u0/h, d0, u1/h, d1
    p10: np.ndarray
    p01: np.ndarray
    p11: np.ndarray


def _build_basis(nodes: np.ndarray, x: np.ndarray) -> _HermiteBasis:
    left = np.clip(np.searchsorted(nodes, x, side="right") - 1, 0, nodes.size - 2)
    h = nodes[1] - nodes[0]
    tau = (x - nodes[left]) / h
    t2 = tau * tau
    t3 = t2 * tau
    return _HermiteBasis(left, left + 1, h,
                         2 * t3 - 3 * t2 + 1, t3 - 2 * t2 + tau, -2 * t3 + 3 * t2,
                         t3 - t2,
                         6 * t2 - 6 * tau, 3 * t2 - 4 * tau + 1, -6 * t2 + 6 * tau,
                         3 * t2 - 2 * tau)


def _basis(nodes: np.ndarray, x) -> _HermiteBasis:
    """The basis at x, from the cache unless x has more points than it keeps."""
    x = np.asarray(x, dtype=float)
    if x.size > BASIS_SET_POINTS:
        return _build_basis(nodes, x)
    return _kept_basis(nodes.tobytes(), x.tobytes(), x.shape)


@lru_cache(maxsize=BASIS_SETS)
def _kept_basis(nodes: bytes, x: bytes, shape: tuple) -> _HermiteBasis:
    return _build_basis(np.frombuffer(nodes), np.frombuffer(x).reshape(shape))


@dataclass(eq=False)
class DiscreteState:
    """One state, or a stack of K states on the same nodes: values and
    derivatives then carry a leading stack axis, shaped (K, n, N+1)."""
    nodes: np.ndarray          # shape (N+1,), uniform, includes 0 and 1
    values: np.ndarray         # shape (n, N+1), or (K, n, N+1) for a stack
    derivatives: np.ndarray    # shaped like values

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=float)
        self.values = np.atleast_2d(np.asarray(self.values, dtype=float))
        self.derivatives = np.atleast_2d(np.asarray(self.derivatives, dtype=float))
        if self.nodes.size < 9:
            raise ValueError("need at least 9 nodes")
        if self.nodes[0] != 0.0 or self.nodes[-1] != 1.0:
            raise ValueError("nodes must span [0, 1]")
        h = np.diff(self.nodes)
        if not np.all(np.abs(h - h[0]) <= 1e-12):
            raise ValueError("nodes must be uniform")
        if self.values.ndim > 3 or self.values.shape[-1] != self.nodes.size or \
                self.derivatives.shape != self.values.shape:
            raise ValueError("values/derivatives must have shape (n, N+1) or (K, n, N+1)")

    @property
    def n(self) -> int:
        return self.values.shape[-2]

    @property
    def stacked(self) -> bool:
        return self.values.ndim == 3

    def row(self, k: int) -> "DiscreteState":
        """State k of a stack: views of its arrays, which need no checks."""
        return _unchecked(self.nodes, self.values[k], self.derivatives[k])

    @property
    def num_panels(self) -> int:
        return self.nodes.size - 1

    def interior_nodes(self) -> np.ndarray:
        return self.nodes[1:-1]

    def value(self, comp, x):
        """Hermite interpolant of component ``comp`` (0-based) at x.

        ``comp`` indexes the component axis: an int gives an array shaped
        like x, ``slice(None)`` every component at once, shaped (n,) + x.shape.
        A stack puts its axis first: (K,) + x.shape or (K, n) + x.shape.
        The sum u0 v00 + (h d0) v10 + u1 v01 + (h d1) v11 is formed in place,
        in that order.
        """
        b = _basis(self.nodes, x)
        u, d = self.values[..., comp, :], self.derivatives[..., comp, :]
        out = u.take(b.left, axis=-1)
        out *= b.v00
        term = d.take(b.left, axis=-1)
        term *= b.h
        term *= b.v10
        out += term
        term = u.take(b.right, axis=-1)
        term *= b.v01
        out += term
        term = d.take(b.right, axis=-1)
        term *= b.h
        term *= b.v11
        out += term
        return out

    def derivative(self, comp, x):
        """Derivative of the Hermite interpolant, indexed like ``value``;
        matches the stored derivative values exactly at nodes.  The sum
        u0 p00 / h + d0 p10 + u1 p01 / h + d1 p11 is formed in place."""
        b = _basis(self.nodes, x)
        u, d = self.values[..., comp, :], self.derivatives[..., comp, :]
        out = u.take(b.left, axis=-1)
        out *= b.p00
        out /= b.h
        term = d.take(b.left, axis=-1)
        term *= b.p10
        out += term
        term = u.take(b.right, axis=-1)
        term *= b.p01
        term /= b.h
        out += term
        term = d.take(b.right, axis=-1)
        term *= b.p11
        out += term
        return out

    def monitor_grid(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, MONITOR_FACTOR * self.num_panels + 1)


def _unchecked(nodes: np.ndarray, values: np.ndarray,
               derivatives: np.ndarray) -> DiscreteState:
    """A state built without the checks of ``DiscreteState``, for arrays that
    pass them: float arrays of matching shapes on the nodes of a checked
    state."""
    u = object.__new__(DiscreteState)
    u.__dict__.update(nodes=nodes, values=values, derivatives=derivatives)
    return u


def _one_state(u: DiscreteState, where: str) -> None:
    """Reject a stack where one state is expected, naming the function."""
    if u.stacked:
        raise ValueError(f"{where} takes one state, not a stack of "
                         f"{u.values.shape[0]}")


def zero_state(n: int, num_panels: int = 128) -> DiscreteState:
    nodes = np.linspace(0.0, 1.0, num_panels + 1)
    z = np.zeros((n, num_panels + 1))
    return DiscreteState(nodes, z, z.copy())


def constant_state(consts: Sequence[float], num_panels: int = 128) -> DiscreteState:
    nodes = np.linspace(0.0, 1.0, num_panels + 1)
    vals = np.repeat(np.asarray(consts, dtype=float)[:, None], num_panels + 1, axis=1)
    return DiscreteState(nodes, vals, np.zeros_like(vals))


# ---------------------------------------------------------------------------
# Norms

@dataclass(frozen=True)
class StateNorms:
    sup: tuple[float, ...]       # ||u_i||_inf per component
    sup_deriv: tuple[float, ...]  # ||u_i'||_inf per component
    c1: tuple[float, ...]         # max of the two per component
    overall: float                # max over components


def c1_norm(u: DiscreteState) -> StateNorms:
    """Norms on the monitoring grid.  For a stack the fields are arrays with
    a leading stack axis: (K, n) per component, (K,) for ``overall``."""
    grid = u.monitor_grid()
    sup = np.max(np.abs(u.value(slice(None), grid)), axis=-1)
    supd = np.max(np.abs(u.derivative(slice(None), grid)), axis=-1)
    c1 = np.maximum(sup, supd)
    if u.stacked:
        return StateNorms(sup, supd, c1, np.max(c1, axis=-1))
    return StateNorms(tuple(sup.tolist()), tuple(supd.tolist()), tuple(c1.tolist()),
                      float(np.max(c1)))


# ---------------------------------------------------------------------------
# Cone membership

@dataclass(frozen=True)
class MembershipVerdict:
    member: bool
    margins: tuple[float, ...]   # min over window of u_i - c_i ||u_i||_inf


MEMBERSHIP_SLACK = 1e-9


def cone_membership(u: DiscreteState, cc: Sequence[ConeConstants]) -> MembershipVerdict:
    """Check min over [a_i,b_i] of u_i >= c_i * ||u_i||_inf per component,
    up to a slack of 1e-9 (MEMBERSHIP_SLACK); the margins are reported as
    computed.

    The states checked are solved states and images under the operator.
    Their margins are exact only up to the Nystrom discretization, the
    solver's residual tolerance (1e-10 by default) and the monitoring grid
    they are read on, so a state on the cone's boundary, where the rule
    holds with equality, may read a margin some 1e-10 below 0.
    """
    _one_state(u, "cone_membership")
    if len(cc) != u.n:
        raise ValueError("one ConeConstants record per component required")
    margins = _cone_margins(u, cc).tolist()
    return MembershipVerdict(all(m >= -MEMBERSHIP_SLACK for m in margins),
                             tuple(margins))


def _cone_margins(u: DiscreteState, cc: Sequence[ConeConstants]) -> np.ndarray:
    """The cone rule's margins on the monitoring grid: min over the window
    of u_i minus c_i sup|u_i| per component, shaped (n,), or (K, n) for a
    stack."""
    grid = u.monitor_grid()
    sups = np.max(np.abs(u.value(slice(None), grid)), axis=-1)
    return np.stack([np.min(u.value(i, _window_grid(grid, cci)), axis=-1)
                     - cci.c * sups[..., i] for i, cci in enumerate(cc)], axis=-1)


def _window_grid(grid: np.ndarray, cci: ConeConstants) -> np.ndarray:
    """Monitoring grid points in the component's window, plus its ends."""
    a, b = cci.window.a, cci.window.b
    return _distinct(np.concatenate((grid[(grid >= a) & (grid <= b)], [a, b])))


# ---------------------------------------------------------------------------
# Boundary sampling

TRIG_DEGREE = 6
SAMPLE_PANELS = 128  # sampled states live on this many uniform panels


def sample_cone_boundary_rng(spec: "ProblemSpec", cc: Sequence[ConeConstants],
                             rho: float, rng: np.random.Generator, *,
                             size: int | None = None,
                             ball: bool = False) -> DiscreteState:
    """Draw a state on the cone boundary with ||u|| = rho exactly, from the
    generator rng; with an integer ``size`` >= 1, a stack of that many states.

    Per component: draw a trig polynomial v, add the smallest constant shift
    that restores min over the window >= c * sup, then rescale the whole
    vector so the product norm equals rho (membership is invariant under
    positive scaling).  With ``ball``, each state's draws are followed by a
    fair coin, and on heads a uniform factor in [0.05, 1] scales the state
    into the ball.

    Draws come in the order of one state at a time: each component's 7 + 6
    trig coefficients (or the constant of a c >= 1 component), then the
    coin.  A stack is thus its states drawn one at a time, in order.
    """
    if not (_finite_real(rho) and rho > 0.0):
        raise ValueError("rho must be a finite number > 0")
    if size is not None and not (_integer(size) and size >= 1):
        raise ValueError(f"size must be an integer >= 1, got {size!r}")
    nodes = np.linspace(0.0, 1.0, SAMPLE_PANELS + 1)
    count, n = size or 1, len(cc)
    # the cone of a c >= 1 component degenerates to positive constants on the window
    const = [cci.c >= 1.0 - 1e-12 for cci in cc]
    a = np.zeros((count, n, TRIG_DEGREE + 1))
    b = np.zeros((count, n, TRIG_DEGREE))
    mu = np.ones(count)
    for k in range(count):
        for i in range(n):
            if const[i]:
                a[k, i, 0] = rng.uniform(0.1, 1.0)
            else:
                a[k, i] = rng.uniform(-1.0, 1.0, TRIG_DEGREE + 1)
                b[k, i] = rng.uniform(-1.0, 1.0, TRIG_DEGREE)
        if ball and rng.uniform() < 0.5:
            mu[k] = rng.uniform(0.05, 1.0)

    # trig polynomials in w_d = 2 pi d: the value is summed up degree by degree
    values = np.repeat(a[..., :1], nodes.size, axis=-1)
    derivs = np.zeros_like(values)
    for d in range(1, TRIG_DEGREE + 1):
        wd = 2.0 * np.pi * d
        cos, sin = np.cos(wd * nodes), np.sin(wd * nodes)
        ad, bd = a[..., d, None], b[..., d - 1, None]
        values += ad * cos + bd * sin
        derivs += wd * (-ad * sin + bd * cos)
    derivs[:, const] = 0.0

    # the least shift that restores min over the window >= c * sup
    u = DiscreteState(nodes, values, derivs)  # shares ``values``
    margins = _cone_margins(u, cc)
    for i, cci in enumerate(cc):
        if not const[i]:
            shift = -margins[:, i] / (1.0 - cci.c)
            values[:, i] += np.where(shift > 0.0, shift, 0.0)[:, None]
    norm = c1_norm(u).overall
    if np.any(norm <= 1e-12):
        raise RuntimeError("degenerate boundary draw")
    scale = (rho / norm)[:, None, None]
    mu = mu[:, None, None]
    stack = DiscreteState(nodes, values * scale * mu, derivs * scale * mu)
    return stack if size is not None else stack.row(0)


# ---------------------------------------------------------------------------
# CSV serialization: columns t, u1, du1, ..., un, dun

CSV_CHUNK_ROWS = 2 ** 16  # rows turned into Python objects at once


def _write_csv(path, columns: dict) -> None:
    """The one CSV rule of states and sweeps: a header of the column names,
    then one line per entry, a float column's entries as their repr.  The
    lines are written CSV_CHUNK_ROWS at a time, so the writer holds one
    chunk's Python objects, not every column's."""
    size = min(map(len, columns.values()), default=0)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for start in range(0, size, CSV_CHUNK_ROWS):
            chunk = (col[start:start + CSV_CHUNK_ROWS] for col in columns.values())
            writer.writerows(zip(*(map(repr, col.tolist()) if col.dtype.kind == "f"
                                   else col.tolist() for col in chunk)))


def _state_header(n: int) -> list[str]:
    return ["t", *(f"{d}u{i + 1}" for i in range(n) for d in ("", "d"))]


def state_to_csv(u: DiscreteState, path) -> None:
    _one_state(u, "state_to_csv")
    series = np.stack((u.values, u.derivatives), axis=1).reshape(-1, u.nodes.size)
    _write_csv(path, dict(zip(_state_header(u.n), [u.nodes, *series])))


def state_from_csv(path) -> DiscreteState:
    """The state of a file ``state_to_csv`` wrote.  A file without the header
    t, u1, du1, ..., un, dun, with a row of another length, a field that is
    not a number, or nodes that do not make a state (fewer than 9, not
    uniform, not spanning [0, 1]) raises a ValueError naming it."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path}: no header")
    header, data = rows[0], rows[1:]
    n = (len(header) - 1) // 2
    if header != _state_header(n):
        raise ValueError(f"{path}: the header must be t, u1, du1, ..., un, dun, "
                         f"not {', '.join(header)}")
    for k, row in enumerate(data, start=2):
        if len(row) != len(header):
            raise ValueError(f"{path}: line {k} has {len(row)} fields, the header "
                             f"{len(header)}")
    try:
        arr = np.asarray(data, dtype=float).reshape(len(data), len(header))
        return DiscreteState(arr[:, 0], arr[:, 1::2].T, arr[:, 2::2].T)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
