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

The step size comes from the inputs (`default_ab_steps`): an accuracy
term per year of expiry plus a stability term.  Near its equilibrium the
Jacobian of the B equation has modulus up to about
theta alpha sigma_F + beta, so the step that RK4 can take shrinks as the
largest node theta grows; a grid that stops at a lower theta needs fewer
steps.
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

# Steps a year for the time dependence of sigma_F^2 and the cross term.
# At alpha = 0 RK4 integrates A + B by Simpson's rule on the variance
# rate; 60 a year holds that exponent within 6e-9 at theta = 50 on fig1
# (acceptance criterion 2 asks 1e-8; 52 a year reads 1.4e-8).  With the
# stability term, both presets at alpha 0, 1 and 2 and expiries 0.1-10
# price within 2.6e-10 D F of the 1280-node, 200-steps-a-year grid
# (tests/test_fourier.py).
_ACCURACY_STEPS_PER_YEAR = 60
# Simpson's error there grows as (2 beta_i h)^4, so factors that revert
# faster than 5 a year take 12 steps a year per unit of the larger of
# beta1 and beta2: fig1 with beta2 = 10 then prices within 2.3e-10 D F
# of that grid, against 1.4e-9 at 60 a year.
_STEPS_PER_YEAR_PER_REVERSION = 12
# Steps a year per unit of the Jacobian bound: h |J| <= 2, inside RK4's
# stability interval [-2.785, 0] with room for the complex transient.
_STEPS_PER_JACOBIAN = 0.5
# Steps a year round up to a multiple of 4, so that quarterly expiries
# with one lag share a step size and hence one pass.
_STEPS_PER_YEAR_QUANTUM = 4
# Short expiries put weight on large theta, where the error per step is
# largest: with a floor of 20 steps the sweep above reads 4.9e-10 D F.
_MIN_STEPS = 30


def _vol_bound(lag: float, p: ModelParams) -> float:
    """Upper bound of sigma_F(t, T) over every t with T - t >= lag.

    Each term of `variance_rate` decays with the distance to settlement
    once a negative cross term is dropped, so the bound is their value
    at ``lag``.
    """
    e1 = math.exp(-p.beta1 * lag)
    e2 = abs(p.R) * math.exp(-p.beta2 * lag)
    cross = max(p.rho * math.copysign(1.0, p.R), 0.0)
    return p.sigma * math.sqrt(e1 * e1 + e2 * e2 + 2.0 * cross * e1 * e2)


def default_ab_steps(
    t_e: float, p: ModelParams | None = None, theta_top: float = 0.0, lag: float = 0.0
) -> int:
    """RK4 step count for an expiry of t_e years on nodes up to ``theta_top``.

    Steps a year are max(60, 12 max(beta1, beta2)) for accuracy plus
    (theta_top alpha max sigma_F + beta) / 2 for stability, with max sigma_F
    bounded over distances to settlement >= ``lag``; without ``p`` only
    the 60 a year apply.  Steps a year round up to a multiple of 4, and no
    expiry takes fewer than 30 steps.
    """
    rate = float(_ACCURACY_STEPS_PER_YEAR)
    if p is not None:
        rate = max(rate, _STEPS_PER_YEAR_PER_REVERSION * max(p.beta1, p.beta2))
        jacobian = theta_top * p.alpha * _vol_bound(lag, p) + p.beta
        rate += _STEPS_PER_JACOBIAN * jacobian
    rate = _STEPS_PER_YEAR_QUANTUM * math.ceil(rate / _STEPS_PER_YEAR_QUANTUM)
    # Rounding keeps t_e * rate = 40.000000000000004 at 40 steps.
    return max(_MIN_STEPS, math.ceil(round(t_e * rate, 9)))


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
    # A Python float times an array costs less than a numpy scalar does.
    rate, cross = rate.tolist(), cross.tolist()
    q = -0.5 * (theta**2 + 1j * theta)
    i_theta = 1j * theta
    half_alpha_sq = 0.5 * p.alpha**2
    half_h, sixth_h = 0.5 * h, h / 6.0

    b_val = np.zeros(theta.shape, dtype=complex)
    # B1 + 2 B2 + 2 B3 + B4 = 6 B + h (D1 + D2 + D3), so A after n steps is
    # beta h (sum of B) + beta h^2 / 6 (sum of D1 + D2 + D3).
    b_total = np.zeros_like(b_val)
    d_total = np.zeros_like(b_val)
    for index in wanted.get(0, ()):
        out[index] = (np.zeros_like(b_val), b_val)
    forcing_end, linear_end = rate[0] * q, i_theta * cross[0] - p.beta
    for step in range(n_steps):
        k = 2 * step
        forcing_start, linear_start = forcing_end, linear_end
        forcing_mid, linear_mid = rate[k + 1] * q, i_theta * cross[k + 1] - p.beta
        forcing_end, linear_end = rate[k + 2] * q, i_theta * cross[k + 2] - p.beta
        d1 = forcing_start + b_val * (half_alpha_sq * b_val + linear_start)
        b2 = b_val + half_h * d1
        d2 = forcing_mid + b2 * (half_alpha_sq * b2 + linear_mid)
        b3 = b_val + half_h * d2
        d3 = forcing_mid + b3 * (half_alpha_sq * b3 + linear_mid)
        b4 = b_val + h * d3
        d4 = forcing_end + b4 * (half_alpha_sq * b4 + linear_end)
        d_mid = d2 + d3
        d_head = d1 + d_mid
        b_total += b_val
        d_total += d_head
        b_val = b_val + sixth_h * (d_head + d_mid + d4)
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
            a_val = (p.beta * h) * b_total + (p.beta * h * sixth_h) * d_total
            out[index] = (a_val, b_val)
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
        Fixed Runge-Kutta step count; defaults to
        ``default_ab_steps(t_e, p, max |theta|, T - t_e)``.

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
            n_steps = default_ab_steps(t_e, p, float(np.abs(theta_arr).max()), T - t_e)
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
