"""Discrete C1 states, the product-space norm, and cone machinery.

A candidate solution of an n-component system is stored as values and
derivative values on a shared uniform node vector over [0,1]; between nodes
the function is the piecewise cubic Hermite interpolant of the (value,
derivative) pairs, which is C1 by construction.  Sup norms are taken over an
8x oversampled monitoring grid (exact at nodes, a lower bound of the true
sup with O(h^4) defect).

Interpolation at a point set goes through a Hermite basis: the panel index
and the cubic basis polynomials of every point, built once per (node
vector, point set) and kept in a small table keyed by their exact bytes.
A session only ever interpolates at a handful of point sets (the monitoring
grid, the whole-panel quadrature points that are also the Nystrom points,
the half-panel points, the window grids, val/der points), so evaluating a
state is a gather plus the same arithmetic, in the same order, as building
the basis inline would do.

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
then shifts and rescales the whole stack with one array pass, reading the
cos/sin values from one table per node vector.  A stack with a degenerate
draw is drawn again state by state from the generator state of its start.
"""

from __future__ import annotations

import csv
import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from .constants import ConeConstants

if TYPE_CHECKING:
    from .problem import ProblemSpec

__all__ = ["DiscreteState", "StateNorms", "c1_norm", "cone_membership",
           "MembershipVerdict", "sample_cone_boundary", "state_to_csv",
           "state_from_csv", "zero_state", "constant_state"]

MONITOR_FACTOR = 8  # monitoring grid has MONITOR_FACTOR*N + 1 points
# Hermite bases are kept for at most this many points over all point sets
# (about 6 MB); the six point sets of a session at N = 128 hold 4,996
BASIS_TABLE_POINTS = 2 ** 16


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


class _BasisTable:
    """Hermite bases of recently used (node vector, point set) pairs, keyed
    by their exact bytes.  The least recently used go first once the table
    holds more than ``max_points`` points; a larger point set is built but
    not kept."""

    def __init__(self, max_points: int):
        self.max_points = max_points
        self.points = 0
        self.builds = 0
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def basis(self, nodes: np.ndarray, x) -> _HermiteBasis:
        x = np.asarray(x, dtype=float)
        key = (nodes.tobytes(), x.tobytes(), x.shape)
        with self._lock:
            found = self._entries.get(key)
            if found is not None:
                self._entries.move_to_end(key)
                return found
        built = _build_basis(nodes, x)
        with self._lock:
            self.builds += 1
            if x.size <= self.max_points and key not in self._entries:
                self._entries[key] = built
                self.points += x.size
                while self.points > self.max_points:
                    self.points -= self._entries.popitem(last=False)[1].left.size
        return built


_BASES = _BasisTable(BASIS_TABLE_POINTS)


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
        row = object.__new__(DiscreteState)
        row.__dict__.update(nodes=self.nodes, values=self.values[k],
                            derivatives=self.derivatives[k])
        return row

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
        b = _BASES.basis(self.nodes, x)
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
        b = _BASES.basis(self.nodes, x)
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


def cone_membership(u: DiscreteState, cc: Sequence[ConeConstants],
                    slack: float = 1e-12) -> MembershipVerdict:
    """Check min over [a_i,b_i] of u_i >= c_i * ||u_i||_inf per component.

    The default slack absorbs interpolation error on the monitoring grid.
    """
    if len(cc) != u.n:
        raise ValueError("one ConeConstants record per component required")
    grid = u.monitor_grid()
    sups = np.max(np.abs(u.value(slice(None), grid)), axis=1).tolist()
    margins = []
    for i, cci in enumerate(cc):
        window_min = float(np.min(u.value(i, _window_grid(grid, cci))))
        margins.append(window_min - cci.c * sups[i])
    member = all(m >= -slack for m in margins)
    return MembershipVerdict(member, tuple(margins))


def _window_grid(grid: np.ndarray, cci: ConeConstants) -> np.ndarray:
    """Monitoring grid points in the component's window, plus its ends."""
    a, b = cci.window.a, cci.window.b
    return np.unique(np.concatenate((grid[(grid >= a) & (grid <= b)], [a, b])))


# ---------------------------------------------------------------------------
# Boundary sampling

TRIG_DEGREE = 6


@lru_cache(maxsize=4)
def _trig_table(key: bytes):
    """(w_d, cos(w_d t), sin(w_d t)) at the nodes (given by their bytes) for
    d = 1..TRIG_DEGREE, w_d = 2 pi d; each table shaped (TRIG_DEGREE, N+1)."""
    nodes = np.frombuffer(key)
    w = [2.0 * np.pi * d for d in range(1, TRIG_DEGREE + 1)]
    cos = np.array([np.cos(wd * nodes) for wd in w])
    sin = np.array([np.sin(wd * nodes) for wd in w])
    cos.setflags(write=False)
    sin.setflags(write=False)
    return w, cos, sin


def _ball_factor(rng: np.random.Generator, ball: bool) -> float:
    """With ``ball``, a fair coin and on heads a uniform factor in [0.05, 1];
    otherwise 1 (which scales a state exactly)."""
    return rng.uniform(0.05, 1.0) if ball and rng.uniform() < 0.5 else 1.0


def _boundary_stack(cc: Sequence[ConeConstants], rho: float, rng: np.random.Generator,
                    nodes: np.ndarray, size: int, ball: bool) -> DiscreteState | None:
    """``size`` states on ||u|| = rho from one round of draws, as a stack;
    None when a draw is degenerate (its C1 norm at most 1e-12)."""
    n = len(cc)
    # the cone of a c >= 1 component degenerates to positive constants on the window
    const = [cci.c >= 1.0 - 1e-12 for cci in cc]
    a = np.zeros((size, n, TRIG_DEGREE + 1))
    b = np.zeros((size, n, TRIG_DEGREE))
    mu = np.empty(size)
    for k in range(size):
        for i in range(n):
            if const[i]:
                a[k, i, 0] = rng.uniform(0.1, 1.0)
            else:
                a[k, i] = rng.uniform(-1.0, 1.0, TRIG_DEGREE + 1)
                b[k, i] = rng.uniform(-1.0, 1.0, TRIG_DEGREE)
        mu[k] = _ball_factor(rng, ball)

    # trig polynomials: the value is summed up degree by degree
    w, cos, sin = _trig_table(nodes.tobytes())
    values = np.repeat(a[..., :1], nodes.size, axis=-1)
    derivs = np.zeros_like(values)
    for d in range(1, TRIG_DEGREE + 1):
        ad, bd = a[..., d, None], b[..., d - 1, None]
        values += ad * cos[d - 1] + bd * sin[d - 1]
        derivs += w[d - 1] * (-ad * sin[d - 1] + bd * cos[d - 1])
    derivs[:, const] = 0.0

    # the least shift that restores min over the window >= c * sup
    u = DiscreteState(nodes, values, derivs)  # shares ``values``
    grid = u.monitor_grid()
    sups = np.max(np.abs(u.value(slice(None), grid)), axis=-1)
    for i, cci in enumerate(cc):
        if not const[i]:
            wmin = np.min(u.value(i, _window_grid(grid, cci)), axis=-1)
            shift = (cci.c * sups[:, i] - wmin) / (1.0 - cci.c)
            values[:, i] += np.where(shift > 0.0, shift, 0.0)[:, None]
    norm = c1_norm(u).overall
    if np.any(norm <= 1e-12):
        return None
    scale = (rho / norm)[:, None, None]
    mu = mu[:, None, None]
    return DiscreteState(nodes, values * scale * mu, derivs * scale * mu)


def sample_cone_boundary(spec: "ProblemSpec", cc: Sequence[ConeConstants],
                         rho: float, seed: int, num_panels: int = 128) -> DiscreteState:
    """Draw a state on the cone boundary with ||u|| = rho exactly.

    Per component: draw a trig polynomial v, add the smallest constant shift
    that restores min over the window >= c * sup, then rescale the whole
    vector so the product norm equals rho (membership is invariant under
    positive scaling).
    """
    return sample_cone_boundary_rng(spec, cc, rho, np.random.default_rng(seed),
                                    num_panels)


def sample_cone_boundary_rng(spec: "ProblemSpec", cc: Sequence[ConeConstants],
                             rho: float, rng: np.random.Generator,
                             num_panels: int = 128, size: int | None = None,
                             ball: bool = False) -> DiscreteState:
    """``sample_cone_boundary`` from a generator; with ``size``, a stack of
    that many states.  With ``ball``, each state's draws are followed by a
    fair coin, and on heads a uniform factor in [0.05, 1] scales the state
    into the ball.

    Draws come in the order of one state at a time: each component's 7 + 6
    trig coefficients (or the constant of a c >= 1 component), then the
    coin.  A degenerate draw is drawn again before the coin; when a stack
    holds one, the generator is reset and the stack redrawn state by state,
    so that every redraw comes where it comes for a single state.
    """
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    nodes = np.linspace(0.0, 1.0, num_panels + 1)
    saved = rng.bit_generator.state
    stack = _boundary_stack(cc, rho, rng, nodes, size or 1, ball)
    if stack is None:
        rng.bit_generator.state = saved
        rows = [_redrawn(cc, rho, rng, nodes, ball) for _ in range(size or 1)]
        stack = DiscreteState(nodes, np.array([r.values[0] for r in rows]),
                              np.array([r.derivatives[0] for r in rows]))
    return stack if size is not None else stack.row(0)


def _redrawn(cc, rho, rng, nodes, ball) -> DiscreteState:
    """A stack of one, drawn until it is not degenerate, then scaled by its
    ball factor."""
    for _ in range(100):
        stack = _boundary_stack(cc, rho, rng, nodes, 1, False)
        if stack is not None:
            mu = _ball_factor(rng, ball)
            return DiscreteState(nodes, stack.values * mu, stack.derivatives * mu)
    raise RuntimeError("degenerate draws 100 times in a row")


# ---------------------------------------------------------------------------
# CSV serialization: columns t, u1, du1, ..., un, dun

def state_to_csv(u: DiscreteState, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["t"]
        for i in range(u.n):
            header += [f"u{i + 1}", f"du{i + 1}"]
        writer.writerow(header)
        for j, t in enumerate(u.nodes):
            row = [repr(float(t))]
            for i in range(u.n):
                row += [repr(float(u.values[i, j])), repr(float(u.derivatives[i, j]))]
            writer.writerow(row)


def state_from_csv(path) -> DiscreteState:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, data = rows[0], rows[1:]
    n = (len(header) - 1) // 2
    arr = np.asarray(data, dtype=float)
    nodes = arr[:, 0]
    values = arr[:, 1::2].T
    derivatives = arr[:, 2::2].T
    return DiscreteState(nodes, values[:n], derivatives[:n])
