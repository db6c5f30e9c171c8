"""Nystrom discretization of the integral operator and damped Picard iteration.

The operator

    T_i(u)(t) = lambda_i * integral k_i(t,s) f_i(s, u(s), u'(s), w_i[u]) ds
                + sum_j eta_ij gamma_ij(t) h_ij[u]

is discretized by a composite Gauss-Legendre product rule whose panels are
the state's node intervals: the whole-panel points and weights of
``quad.first_pass_layout`` over the nodes, so u and u' there are the
interpolation that the int atoms of the functionals read as well.  Node
intervals refine every kernel breakpoint (fixed breakpoints must coincide
with nodes, which is validated; the moving breakpoint s = t_j is itself a
node), so each panel integrand is smooth and the fixed rule is exact to
machine precision for the bundled kernels.  The kernel matrices
k_i(t_j, s_q) and dk_i/dt(t_j, s_q) do not change between iterations and
are precomputed once, making one application two matrix-vector products per
component.

The functional values w_i[u] and h_ij[u] are frozen per application, so the
iteration is Picard in the functional terms as well.  Damped iteration
u <- (1-alpha) u + alpha T(u) runs until the discrete C1 residual meets the
tolerance; on stagnation the damping is halved once before the run is
declared non-convergent.  Non-convergence is a reportable outcome, not a
crash: the certificates guarantee existence, not Picard-attractivity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .cone import DiscreteState, MembershipVerdict, StateNorms, _one_state, \
    _unchecked, c1_norm, cone_membership, zero_state
from .constants import ConeConstants
from .errors import (ConfigError, EvalDomainError, ModelViolationError,
                     QuadratureError, _check_integers, _finite_real)
from .expr import _SharedPass, _state_env, eval_functional, eval_scalar
from .kernels import eval_dk, eval_k
from .quad import _shaped, first_pass_layout

if TYPE_CHECKING:
    from .problem import Params, ProblemSpec

__all__ = ["SolverConfig", "SolveReport", "apply_T", "residual",
           "solve_fixed_point"]


@dataclass(frozen=True)
class SolverConfig:
    nodes: int = 128              # number of panels N; the state has N+1 nodes
    damping: float = 0.5          # alpha in (0, 1]
    tol: float = 1e-10            # residual tolerance in the discrete C1 norm
    max_iterations: int = 10000

    def __post_init__(self):
        _check_integers(self, "nodes", "max_iterations")
        if not (_finite_real(self.damping) and 0.0 < self.damping <= 1.0):
            raise ValueError("damping must lie in (0, 1]")
        if self.nodes < 8:
            raise ValueError("need at least 8 panels")
        # a residual is >= 0, so a tol <= 0 or NaN is never met
        if not (_finite_real(self.tol) and self.tol > 0.0):
            raise ValueError("tol must be a finite number > 0")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


class _NystromOperator:
    """Precomputed kernel matrices for a fixed node count, under the spec's
    quadrature settings."""

    def __init__(self, spec: "ProblemSpec", num_panels: int):
        self.spec = spec
        nodes = np.linspace(0.0, 1.0, num_panels + 1)
        for comp_idx, comp in enumerate(spec.components):
            for bp in comp.kernel.fixed_breakpoints:
                if np.min(np.abs(nodes - bp)) > 1e-12:
                    raise ConfigError(
                        f"components[{comp_idx}].kernel.breakpoints",
                        f"fixed breakpoint {bp} does not coincide with a node of the "
                        f"uniform {num_panels}-panel grid; choose a node count that "
                        "contains every kernel breakpoint")
        self.nodes = nodes
        self.functionals = tuple(fx for comp in spec.components
                                 for fx in (comp.w, *(term.h for term in comp.gammas)))
        # the int atoms of a state on these nodes integrate over the same arrays
        self.layout = first_pass_layout(0.0, 1.0, nodes[1:-1], spec.quad.gauss_order)
        self.pts = self.layout.whole_points.ravel()
        self.wts = self.layout.whole_weights.ravel()
        self.k_val = []
        self.k_der = []
        self.gamma_val = []
        self.gamma_der = []
        T, S = np.meshgrid(nodes, self.pts, indexing="ij")
        for comp in spec.components:
            self.k_val.append(_shaped(eval_k(comp.kernel, T, S), T.shape).copy())
            self.k_der.append(_shaped(eval_dk(comp.kernel, T, S), T.shape).copy())
            self.gamma_val.append([_shaped(eval_scalar(g.gamma.gamma, {"t": nodes}),
                                           nodes.shape) for g in comp.gammas])
            self.gamma_der.append([_shaped(eval_scalar(g.gamma.dgamma, {"t": nodes}),
                                           nodes.shape) for g in comp.gammas])

    def apply(self, u: DiscreteState, params: "Params") -> DiscreteState:
        spec = self.spec
        n = spec.n
        shared = _SharedPass(u, spec.quad, self.functionals)
        row = shared.row(0)
        uq, duq = (a[0].reshape(u.n, -1) for a in shared.at(self.layout.whole_points))
        values = np.zeros((n, self.nodes.size))
        derivs = np.zeros_like(values)
        for i, comp in enumerate(spec.components):
            lam = float(params.lambdas[i])
            if lam > 0.0:
                w_i = eval_functional(comp.w, u, nonneg_condition="C8", shared_pass=row)
                env = _state_env(uq, duq, t=self.pts, w=w_i)
                F = _shaped(eval_scalar(comp.f, env), self.pts.shape)
                fmin = float(F.min())
                if fmin < -1e-12:
                    j = int(np.argmin(F))
                    raise ModelViolationError(
                        "C4", f"nonlinearity of component {i + 1} is negative "
                              f"({fmin:.3e}) at s={self.pts[j]:.6f}")
                wf = self.wts * F
                kv, kd = self.k_val[i] @ wf, self.k_der[i] @ wf
                _add_term(values[i], derivs[i], (i, None), lam, kv, kd)
            for j, term in enumerate(comp.gammas):
                # a float product eta * h_ij overflows to inf without a warning
                eta = float(params.etas[i][j])
                if eta > 0.0:
                    h_ij = eval_functional(term.h, u, nonneg_condition="C7",
                                           shared_pass=row)
                    _add_term(values[i], derivs[i], (i, j), eta * h_ij,
                              self.gamma_val[i][j], self.gamma_der[i][j])
        return _unchecked(self.nodes, values, derivs)


def _add_term(value: np.ndarray, deriv: np.ndarray, term: tuple[int, int | None],
              a: float, v: np.ndarray, d: np.ndarray) -> None:
    """value += a * v and deriv += a * d, in place, or EvalDomainError naming
    the term (component i's lambda term, or its gamma term j) and so its
    parameter, when a product or a sum is not finite.  The arithmetic runs
    with numpy's overflow and invalid-value warnings off, and the checks
    read what it computed.  The rows were finite before the term, as the
    previous term was checked, so they are finite after it unless a product
    or a sum is not; only then are the products scanned."""
    with np.errstate(over="ignore", invalid="ignore"):
        av, ad = a * v, a * d
        value += av
        deriv += ad
        if np.isfinite(value).all() and np.isfinite(deriv).all():
            return
        products = np.isfinite(av).all() and np.isfinite(ad).all()
    raise EvalDomainError("non-finite sum" if products else "non-finite result",
                          _term_text(*term))


def _term_text(i: int, j: int | None) -> str:
    if j is None:
        return "lambda{0} * int(k_{0} * f_{0})".format(i + 1)
    ij = f"{i + 1}{j + 1}"
    return f"eta{ij} * h_{ij} * gamma_{ij}"


@lru_cache(maxsize=8)
def _operator(spec: "ProblemSpec", num_panels: int) -> _NystromOperator:
    return _NystromOperator(spec, num_panels)


def apply_T(spec: "ProblemSpec", u: DiscreteState, *,
            params: "Params | None" = None) -> DiscreteState:
    """One application of the integral operator to a discrete state, under
    the spec's quadrature settings."""
    _one_state(u, "apply_T")
    return _operator(spec, u.num_panels).apply(u, spec.params if params is None else params)


def residual(spec: "ProblemSpec", u: DiscreteState, *,
             params: "Params | None" = None) -> float:
    """Discrete C1 norm of T(u) - u; EvalDomainError when T(u) or the norm
    is not finite."""
    _one_state(u, "residual")
    return _residual_norm(apply_T(spec, u, params=params), u)


def _residual_norm(Tu: DiscreteState, u: DiscreteState) -> float:
    """C1 norm of T(u) - u, or EvalDomainError when it is not finite.  The
    difference and the norm run with numpy's overflow and invalid-value
    warnings off, and the check reads the norm."""
    with np.errstate(over="ignore", invalid="ignore"):
        norm = c1_norm(_unchecked(u.nodes, Tu.values - u.values,
                                  Tu.derivatives - u.derivatives)).overall
    if not math.isfinite(norm):
        raise EvalDomainError("non-finite C1 norm", "T(u) - u")
    return norm


@dataclass
class SolveReport:
    state: DiscreteState
    residual: float
    iterations: int
    converged: bool
    norms: StateNorms
    damping_final: float
    membership: MembershipVerdict | None = None
    localization: bool | None = None
    rho_interval: tuple[float, float] | None = None
    notes: tuple[str, ...] = ()

    constants_used: dict | None = None

    def as_dict(self) -> dict:
        d = {
            "converged": self.converged,
            "residual": self.residual,
            "iterations": self.iterations,
            "damping_final": self.damping_final,
            "norms": {
                "sup": list(self.norms.sup),
                "sup_deriv": list(self.norms.sup_deriv),
                "c1": list(self.norms.c1),
                "overall": self.norms.overall,
            },
            "notes": list(self.notes),
        }
        if self.membership is not None:
            d["cone_member"] = self.membership.member
            d["cone_margins"] = list(self.membership.margins)
            d["constants_used"] = self.constants_used
        if self.rho_interval is not None:
            d["rho_interval"] = list(self.rho_interval)
            d["localized"] = self.localization
        return d


def _check_radii(rho1: float, rho2: float) -> None:
    """The one order rule of a radius pair: rho1 < rho2, which a NaN fails."""
    if not rho1 < rho2:
        raise ConfigError("rho1/rho2", f"need rho1 < rho2, got {rho1} >= {rho2}")


STAGNATION_WINDOW = 50
STAGNATION_FACTOR = 0.99  # less than 1% reduction over the window


def solve_fixed_point(spec: "ProblemSpec", *,
                      params: "Params | None" = None,
                      cc: Sequence[ConeConstants] | None = None,
                      rho_interval: tuple[float, float] | None = None,
                      initial_state: DiscreteState | None = None) -> SolveReport:
    """Damped Picard iteration u <- (1-alpha) u + alpha T(u), under the
    spec's solver (``spec.solver``) and quadrature settings.

    Stops when the C1 residual meets the solver's tol; on stagnation the
    damping is halved once, after which a second stagnation ends the run
    unconverged.
    When cone constants are supplied the report carries the membership
    verdict of the final state, and with ``rho_interval`` the localization
    verdict rho1 <= ||u|| <= rho2, which needs rho1 < rho2.
    """
    if rho_interval is not None:
        _check_radii(*rho_interval)
    cfg = spec.solver
    params = spec.params if params is None else params
    if initial_state is None:
        u = zero_state(spec.n, cfg.nodes)
    else:
        _one_state(initial_state, "solve_fixed_point")
        u = initial_state

    alpha = cfg.damping
    halved = False
    notes: list[str] = []
    history: list[float] = []
    res = np.inf
    converged = False
    iterations = 0
    for iterations in range(1, cfg.max_iterations + 1):
        try:
            Tu = apply_T(spec, u, params=params)
            res = _residual_norm(Tu, u)
        except (EvalDomainError, QuadratureError) as e:
            # blow-up of a diverging iteration is a numerical outcome,
            # not a crash; model violations still propagate
            notes.append(f"iteration diverged at step {iterations}: {e}")
            break
        if res <= cfg.tol:
            converged = True
            break
        history.append(res)
        if len(history) > STAGNATION_WINDOW and \
                res > STAGNATION_FACTOR * history[-1 - STAGNATION_WINDOW]:
            if not halved:
                halved = True
                alpha = alpha / 2.0
                history.clear()
                notes.append(f"stagnation at iteration {iterations}; damping halved "
                             f"to {alpha}")
            else:
                notes.append(f"stagnation persisted at iteration {iterations} after "
                             "halving the damping; giving up")
                break
        u = _unchecked(u.nodes, (1 - alpha) * u.values + alpha * Tu.values,
                       (1 - alpha) * u.derivatives + alpha * Tu.derivatives)

    if not converged:
        notes.append(f"not converged: residual {res:.3e} > tol {cfg.tol:.1e}")

    norms = c1_norm(u)
    membership = None
    constants_used = None
    if cc is not None:
        membership = cone_membership(u, cc)
        constants_used = {cci.record("c").symbol: cci.c for cci in cc}
    localization = None
    if rho_interval is not None:
        localization = bool(rho_interval[0] <= norms.overall <= rho_interval[1])
    return SolveReport(state=u, residual=res, iterations=iterations,
                       converged=converged, norms=norms, damping_final=alpha,
                       membership=membership, localization=localization,
                       rho_interval=rho_interval, notes=tuple(notes),
                       constants_used=constants_used)
