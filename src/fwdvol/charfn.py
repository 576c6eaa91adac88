"""Characteristic function of the log forward via an affine ODE system.

For x(t) = ln(F(t, T) / F(0, T)) the conditional characteristic function
E[exp(i theta x(t_e)) | x(t) = x, v(t) = v] has the exponential-affine form
exp(i theta x + A(tau) + B(tau) v) with tau = t_e - t and A(0) = B(0) = 0.
The coefficients solve

    dA/dtau = beta B
    dB/dtau = -(theta^2 + i theta) sigma_F^2(t_e - tau, T) / 2 - beta B
              + alpha^2 B^2 / 2
              + i theta B alpha sigma (rho1 exp(-beta1 (T - t_e + tau))
                                       + R rho2 exp(-beta2 (T - t_e + tau)))

integrated here with a fixed-step classical Runge-Kutta scheme, vectorized
over theta so a whole quadrature grid is advanced in one pass.  The system
sees tau only through T - t_e + tau, so one pass per lag T - t_e, read off
after each expiry's step count, serves every expiry with that lag.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .errors import DomainError, NonConvergence, NumericalError
from .model import ModelParams, variance_rate

__all__ = [
    "ab_ode_rhs",
    "integrate_ab",
    "integrate_ab_snapshots",
    "charfn_value",
    "default_ab_steps",
]

# Diverging Riccati iterates trip this bound long before overflow.
_B_OVERFLOW = 1e12

_STEPS_PER_YEAR = 200
_MIN_STEPS = 50


def default_ab_steps(t_e: float) -> int:
    """Default Runge-Kutta step count for an expiry of t_e years."""
    return max(_MIN_STEPS, int(math.ceil(_STEPS_PER_YEAR * t_e)))


def ab_ode_rhs(tau, a_val, b_val, theta, t_e: float, T: float, p: ModelParams):
    """Right-hand side (dA/dtau, dB/dtau) of the affine ODE system.

    ``theta``, ``a_val`` and ``b_val`` may be arrays of matching shape;
    ``tau`` is a scalar in [0, t_e].
    """
    # Accumulated tau can land a few ulp past t_e at the final step.
    rate = variance_rate(min(max(t_e - tau, 0.0), T), T, p)
    cross = p.alpha * p.sigma * (
        p.rho1 * math.exp(-p.beta1 * (T - t_e + tau))
        + p.R * p.rho2 * math.exp(-p.beta2 * (T - t_e + tau))
    )
    db = (
        -0.5 * (theta**2 + 1j * theta) * rate
        - p.beta * b_val
        + 0.5 * p.alpha**2 * b_val * b_val
        + 1j * theta * b_val * cross
    )
    da = p.beta * b_val
    return da, db


def integrate_ab_snapshots(theta, lag: float, h: float, stops, p: ModelParams):
    """One RK4 pass of the (A, B) system, read off after several step counts.

    The right-hand side depends on tau only through the distance to
    settlement T - t_e + tau, so every slice (t_e, T) with
    T - t_e = ``lag`` whose step t_e / n equals ``h`` is the snapshot at
    step n of one pass.  sigma_F^2 and the cross term are evaluated once
    on the half-step stage grid; each stage is then
    rate_k q + B (alpha^2 B / 2 + (i theta cross_k - beta)) with
    q = -(theta^2 + i theta) / 2, and A accumulates the same RK4 update
    as dA = beta B.

    Parameters
    ----------
    theta : float or ndarray
        Transform variable(s); the integration is vectorized across them.
    lag : float
        T - t_e >= 0, shared by every snapshot of the pass.
    h : float
        Step size, > 0.
    stops : sequence of int
        Step counts after which (A, B) is wanted; the pass runs to the
        largest.

    Returns
    -------
    list aligned with ``stops``.  Each entry is (A, B), complex arrays
    shaped like ``theta``, or, for a stop at or past the step where |B|
    left the overflow guard, the `NonConvergence` that ended the pass.
    Snapshots taken before the divergence are kept, exactly as separate
    shorter passes succeed.
    """
    if lag < 0.0:
        raise DomainError("integrate_ab_snapshots requires lag >= 0")
    if not h > 0.0:
        raise DomainError("integrate_ab_snapshots requires h > 0")
    stops = [operator.index(n) for n in stops]
    if any(n < 0 for n in stops):
        raise DomainError("stops must be >= 0")
    theta = np.asarray(theta, dtype=float)
    n_steps = max(stops, default=0)
    wanted: dict[int, list[int]] = {}
    for index, n in enumerate(stops):
        wanted.setdefault(n, []).append(index)
    out: list = [None] * len(stops)

    # Distance to settlement at the stages tau = k h / 2, k = 0 .. 2 n_steps.
    dist = lag + 0.5 * h * np.arange(2 * n_steps + 1)
    rate = variance_rate(dist[-1] - dist, dist[-1], p)
    cross = p.alpha * p.sigma * (
        p.rho1 * np.exp(-p.beta1 * dist) + p.R * p.rho2 * np.exp(-p.beta2 * dist)
    )
    q = -0.5 * (theta**2 + 1j * theta)
    i_theta = 1j * theta
    half_alpha_sq = 0.5 * p.alpha**2
    a_scale = p.beta * h / 6.0

    b_val = np.zeros(theta.shape, dtype=complex)
    b_sum = b_val  # running sum of the stage values B1 + 2 B2 + 2 B3 + B4
    for index in wanted.get(0, ()):
        out[index] = (np.zeros_like(b_val), b_val)
    linear_end = i_theta * cross[0] - p.beta
    for step in range(n_steps):
        k = 2 * step
        linear_start, linear_mid = linear_end, i_theta * cross[k + 1] - p.beta
        linear_end = i_theta * cross[k + 2] - p.beta
        b1 = b_val
        d1 = rate[k] * q + b1 * (half_alpha_sq * b1 + linear_start)
        b2 = b_val + (0.5 * h) * d1
        d2 = rate[k + 1] * q + b2 * (half_alpha_sq * b2 + linear_mid)
        b3 = b_val + (0.5 * h) * d2
        d3 = rate[k + 1] * q + b3 * (half_alpha_sq * b3 + linear_mid)
        b4 = b_val + h * d3
        d4 = rate[k + 2] * q + b4 * (half_alpha_sq * b4 + linear_end)
        b_sum = b_sum + (b1 + 2.0 * (b2 + b3) + b4)
        b_val = b_val + (h / 6.0) * (d1 + 2.0 * (d2 + d3) + d4)
        # NaN fails the comparison too.
        if not np.abs(b_val).max(initial=0.0) <= _B_OVERFLOW:
            error = NonConvergence(
                f"B diverged at tau = {(step + 1) * h:.6g} "
                f"(theta up to {theta.max():.6g}, {n_steps} steps)"
            )
            for index, n in enumerate(stops):
                if n > step:
                    out[index] = error
            return out
        for index in wanted.get(step + 1, ()):
            out[index] = (a_scale * b_sum, b_val)
    return out


def integrate_ab(theta, t_e: float, T: float, p: ModelParams, n_steps: int | None = None):
    """Integrate the (A, B) system from tau = 0 to tau = t_e.

    The one-snapshot case of `integrate_ab_snapshots`.

    Parameters
    ----------
    theta : float or ndarray
        Transform variable(s); the integration is vectorized across them.
    t_e, T : float
        Option expiry and settlement of the forward, 0 <= t_e <= T.
    n_steps : int, optional
        Fixed Runge-Kutta step count; defaults to ``default_ab_steps(t_e)``.

    Returns
    -------
    (A, B) : complex scalars or ndarrays shaped like ``theta``.

    Raises
    ------
    NonConvergence
        If |B| exceeds an overflow guard during integration, which signals a
        divergent iteration rather than a meaningful value.
    """
    if not 0.0 <= t_e <= T:
        raise DomainError("integrate_ab requires 0 <= t_e <= T")
    theta_arr = np.asarray(theta, dtype=float)
    scalar = theta_arr.ndim == 0
    theta_arr = np.atleast_1d(theta_arr)
    if t_e == 0.0:
        a_val = b_val = np.zeros(theta_arr.shape, dtype=complex)
    else:
        if n_steps is None:
            n_steps = default_ab_steps(t_e)
        if n_steps < 1:
            raise DomainError("n_steps must be >= 1")
        (snapshot,) = integrate_ab_snapshots(theta_arr, T - t_e, t_e / n_steps, [n_steps], p)
        if isinstance(snapshot, NonConvergence):
            raise snapshot
        a_val, b_val = snapshot
    return (a_val[0], b_val[0]) if scalar else (a_val, b_val)


def charfn_value(theta, x, v, t_e: float, T: float, p: ModelParams, n_steps: int | None = None):
    """Conditional characteristic function exp(i theta x + A + B v).

    ``v`` must be >= 0.  For real ``theta`` this is the characteristic
    function of a genuine distribution, so its modulus cannot exceed 1;
    a material violation indicates a broken integration and raises.
    """
    if v < 0.0:
        raise DomainError("variance state v must be >= 0")
    a_val, b_val = integrate_ab(theta, t_e, T, p, n_steps=n_steps)
    exponent = 1j * np.multiply(theta, x) + a_val + b_val * v
    real_theta = np.all(np.isreal(theta))
    if real_theta and np.any(np.real(exponent) > 1e-8):
        raise NumericalError(
            "characteristic function modulus exceeded 1; integration is unreliable"
        )
    return np.exp(exponent)
