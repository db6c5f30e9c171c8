"""Certificates and numerics for systems of perturbed Hammerstein integral
equations with functional terms.

The library certifies existence (with localization to an annulus of norms)
and nonexistence of nontrivial solutions by evaluating a small set of
inequalities over computed cone/kernel constants and user-declared analytic
bounds, falsifies those declarations by sampling the cone boundary, and
cross-validates certificates by solving the fixed-point problem numerically.
"""

from .bounds import (ComponentBounds, DeclaredBounds, FalsificationReport,
                     HBounds, Violation, estimate_ranges, falsify_bounds)
from .certify import (Certificate, SweepAxis, SweepResult, check_I0,
                      check_I0_star, check_I1, existence_certificate,
                      nonexistence_certificate, sweep)
from .cone import (DiscreteState, StateNorms, c1_norm, cone_membership,
                   constant_state, state_from_csv, state_to_csv, zero_state)
from .constants import (ConeConstants, Opt1DConfig, Window,
                        assemble_cone_constants, c_tilde, constants_report,
                        gamma_c, recip_M, recip_m, sup_abs_1d)
from .errors import (ConfigError, ContradictionError, DslSyntaxError,
                     EvalDomainError, HammcertError, MissingBoundError,
                     ModelViolationError, QuadratureError)
from .expr import (eval_functional, eval_scalar, parse_constant, parse_expr,
                   parse_functional, render)
from .kernels import (EnvelopeSpec, GammaDef, KernelDef, eval_dk, eval_k,
                      gamma_from_catalog, kernel_from_catalog, s_breakpoints)
from .problem import (Component, GammaTerm, Params, ProblemSpec,
                      example_config_path, load_config, spec_from_dict)
from .quad import QuadConfig, integrate
from .solver import (SolveReport, SolverConfig, apply_T, residual,
                     solve_fixed_point)

__version__ = "0.1.0"
