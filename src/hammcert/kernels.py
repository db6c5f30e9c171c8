"""Kernel definitions: pointwise evaluation, breakpoint structure, validation.

A kernel k(t,s) on the unit square is given by two DSL expressions (the
kernel and its t-derivative), a sorted list of fixed s-breakpoints in (0,1),
and a flag saying whether the s-integration must additionally split at the
moving point s = t.  The t-derivative may jump across s = t (condition C3);
its expression is taken one-sided everywhere and integration never evaluates
exactly at a jump.

Users supply dk/dt explicitly; there is no symbolic differentiation.  The
consistency validator compares the supplied derivative against central
finite differences away from breakpoints, so a mistyped derivative is
rejected at load time rather than corrupting constants downstream.

A small catalog ships two worked kernels ("example-k1", "example-k2") and
their companion boundary functions, so the bundled example configuration
runs with zero user math.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ModelViolationError
from .expr import BOUNDARY_CONTEXT, KERNEL_CONTEXT, ScalarExpr, eval_scalar, parse_expr
from .quad import _shaped

__all__ = [
    "KernelDef", "GammaDef", "EnvelopeSpec",
    "eval_k", "eval_dk", "s_breakpoints",
    "validate_kernel_derivative", "validate_gamma_derivative",
    "kernel_from_catalog", "gamma_from_catalog", "KERNEL_CATALOG", "GAMMA_CATALOG",
]


@dataclass(frozen=True)
class KernelDef:
    k: ScalarExpr
    dk_dt: ScalarExpr
    fixed_breakpoints: tuple[float, ...] = ()
    moving_breakpoint: bool = False

    def __post_init__(self):
        bps = self.fixed_breakpoints
        if any(not (0.0 < p < 1.0) for p in bps):
            raise ValueError(f"fixed breakpoints must lie strictly inside (0,1): {bps}")
        if any(bps[i] >= bps[i + 1] for i in range(len(bps) - 1)):
            raise ValueError(f"fixed breakpoints must be strictly increasing: {bps}")


@dataclass(frozen=True)
class GammaDef:
    """Boundary function gamma(t) with its explicit derivative expression."""
    gamma: ScalarExpr
    dgamma: ScalarExpr


@dataclass(frozen=True)
class EnvelopeSpec:
    """How the integrable majorant Phi0 of |k(t,.)| is obtained.

    mode "tight" computes Phi0(s) = max_t |k(t,s)| numerically; mode
    "declared" uses the supplied expression over {s}, validated against the
    kernel on a dense grid.  A declared Phi1 (majorant of |dk/dt|) is
    optional and only ever validated, never used in certificates.
    """
    mode: str = "tight"  # "tight" | "declared"
    declared_phi0: ScalarExpr | None = None
    declared_phi1: ScalarExpr | None = None

    def __post_init__(self):
        if self.mode not in ("tight", "declared"):
            raise ValueError(f"envelope mode must be 'tight' or 'declared': {self.mode}")
        if self.mode == "declared" and self.declared_phi0 is None:
            raise ValueError("declared envelope mode requires a phi0 expression")


def eval_k(kd: KernelDef, t, s):
    """Kernel value; t and s may be floats or broadcastable arrays."""
    return eval_scalar(kd.k, {"t": t, "s": s})


def eval_dk(kd: KernelDef, t, s):
    """t-derivative value.  Callers integrate panel-wise and never sample
    exactly at a jump; the value returned at s = t is the one-sided value of
    the supplied expression."""
    return eval_scalar(kd.dk_dt, {"t": t, "s": s})


def s_breakpoints(kd: KernelDef, ts) -> np.ndarray:
    """Split points of the s-integral at every t in ts, one row per t: the
    fixed breakpoints, then, for a moving breakpoint, s = t, or NaN where t
    is not inside (0, 1) or lies within 1e-14 of a fixed breakpoint.  NaN
    lies inside no interval, so ``quad._panels`` ignores it."""
    ts = np.asarray(ts, dtype=float).ravel()
    fixed = np.broadcast_to(np.asarray(kd.fixed_breakpoints, dtype=float),
                            (ts.size, len(kd.fixed_breakpoints)))
    if not kd.moving_breakpoint:
        return fixed
    near = (np.abs(ts[:, None] - fixed) <= 1e-14).any(axis=1)
    clear = (0.0 < ts) & (ts < 1.0) & ~near
    return np.column_stack((fixed, np.where(clear, ts, np.nan)))


# ---------------------------------------------------------------------------
# Validation

def validate_kernel_derivative(kd: KernelDef) -> None:
    """Check dk_dt against a central t-finite-difference of k.

    Sampled on a 48 x 49 grid that excludes a band of width 1e-4 around the
    moving breakpoint s = t and each fixed breakpoint (jumps are allowed
    there by condition C3).  Raises ModelViolationError on mismatch.
    """
    h = 1e-5  # central-difference step
    ts = np.linspace(2 * h, 1.0 - 2 * h, 48)
    ss = np.linspace(0.0, 1.0, 49)
    T, S = np.meshgrid(ts, ss, indexing="ij")
    mask = np.ones_like(T, dtype=bool)
    if kd.moving_breakpoint:
        mask &= np.abs(S - T) > 1e-4
        mask &= np.abs(S - T) > 2 * h  # central difference must not straddle the jump
    for b in kd.fixed_breakpoints:
        mask &= np.abs(S - b) > 1e-4
    T, S = T[mask], S[mask]
    fd = (eval_k(kd, T + h, S) - eval_k(kd, T - h, S)) / (2 * h)
    mismatch = _worst_mismatch(fd, _shaped(eval_dk(kd, T, S), T.shape))
    if mismatch:
        j, err = mismatch
        raise ModelViolationError(
            "C3",
            f"dk_dt disagrees with the finite difference of k by "
            f"{err:.3e} at (t,s)=({T[j]:.6f},{S[j]:.6f})")


def validate_gamma_derivative(gd: GammaDef) -> None:
    """Check dgamma against a central finite difference of gamma (C5), on
    101 points."""
    h = 1e-5  # central-difference step
    ts = np.linspace(2 * h, 1.0 - 2 * h, 101)
    fd = (eval_scalar(gd.gamma, {"t": ts + h}) - eval_scalar(gd.gamma, {"t": ts - h})) / (2 * h)
    mismatch = _worst_mismatch(fd, _shaped(eval_scalar(gd.dgamma, {"t": ts}), ts.shape))
    if mismatch:
        j, err = mismatch
        raise ModelViolationError(
            "C5",
            f"dgamma disagrees with the finite difference of gamma by "
            f"{err:.3e} at t={ts[j]:.6f}")


def _worst_mismatch(fd, d: np.ndarray) -> tuple[int, float] | None:
    """(index, |fd - d|) at the worst relative mismatch of a central
    difference fd against a declared derivative d, each entry's mismatch
    taken relative to max(1, |d|); None when every one is within 1e-6."""
    err = np.abs(np.asarray(fd) - d)
    scale = np.maximum(1.0, np.abs(d))
    j = np.argmax(err / scale)
    return (j, err[j]) if err[j] > 1e-6 * scale[j] else None


def validate_envelope_nonnegative(phi: ScalarExpr) -> None:
    ss = np.linspace(0.0, 1.0, 2001)
    vals = _shaped(eval_scalar(phi, {"s": ss}), ss.shape)
    j = int(np.argmin(vals))
    if vals[j] < 0.0:
        raise ModelViolationError(
            "C2", f"declared envelope is negative at s={ss[j]:.6f}: {vals[j]:.3e}")


# ---------------------------------------------------------------------------
# Catalog

def _kernel(k: str, dk: str, bps: tuple[float, ...], moving: bool) -> KernelDef:
    return KernelDef(parse_expr(k, KERNEL_CONTEXT), parse_expr(dk, KERNEL_CONTEXT),
                     bps, moving)


KERNEL_CATALOG: dict[str, KernelDef] = {
    # 1/4 + (1/2 - s)_+ - (t - s)_+ ; nonnegative for t in [0, 3/4]
    "example-k1": _kernel("1/4 + pos(1/2 - s) - pos(t - s)",
                          "-step(t - s)", (0.5,), True),
    # 4/5 (1-s) + 1/5 (1/2 - s)_+ - (t - s)_+ ; nonnegative for t in [0, 1/2]
    "example-k2": _kernel("4/5*(1 - s) + 1/5*pos(1/2 - s) - pos(t - s)",
                          "-step(t - s)", (0.5,), True),
}

GAMMA_CATALOG: dict[str, GammaDef] = {
    "example-gamma11": GammaDef(parse_expr("3/4 - t", BOUNDARY_CONTEXT),
                                parse_expr("-1", BOUNDARY_CONTEXT)),
    "example-gamma21": GammaDef(parse_expr("9/10 - t", BOUNDARY_CONTEXT),
                                parse_expr("-1", BOUNDARY_CONTEXT)),
}


def kernel_from_catalog(name: str) -> KernelDef:
    try:
        return KERNEL_CATALOG[name]
    except KeyError:
        raise KeyError(f"unknown catalog kernel {name!r}; "
                       f"available: {sorted(KERNEL_CATALOG)}") from None


def gamma_from_catalog(name: str) -> GammaDef:
    try:
        return GAMMA_CATALOG[name]
    except KeyError:
        raise KeyError(f"unknown catalog boundary function {name!r}; "
                       f"available: {sorted(GAMMA_CATALOG)}") from None
