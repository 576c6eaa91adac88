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

The forcing -(theta^2 + i theta) sigma_F^2 / 2 does not depend on B, so
its integral is known in closed form: with q = -(theta^2 + i theta) / 2
and V(tau) the variance accrued over the last tau years before expiry
(`model.variance_before_expiry`), c = B - q V solves

    dc/dtau = B (alpha^2 B / 2 + i theta alpha sigma (...) - beta),
    B = c + q V(tau),

and that system is integrated here with a fixed-step classical
Runge-Kutta scheme, vectorized over theta, in the manner of an
integrating-factor method (Hochbruck & Ostermann, Acta Numerica 2010).
A accumulates beta times the stages' B, so at alpha = 0, where
dc/dtau = -beta B, A + c stays 0 and A + B = q V(t_e) is exact at any
step count; the steps only have to follow the alpha terms.  The system
sees tau only through T - t_e + tau, so one row,
a parameter set at one lag T - t_e and step h read off after each
expiry's step count, serves every expiry of that set with that lag and
step.  `integrate_ab_rows` advances many rows, of any sets, lags and
steps, as one (rows, theta) state, so a pricing call takes one pass per
block of its quadrature grid.

The step size comes from the inputs (`default_ab_steps`): an accuracy
term per year of expiry that grows with alpha, plus a stability term.
Near its equilibrium the Jacobian of the B equation has modulus up to
about theta alpha sigma_F + beta, so the step that RK4 can take shrinks
as the largest node theta grows; a grid that stops at a lower theta
needs fewer steps.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .errors import DomainError, NonConvergence, NumericalError
from .model import ModelParams, variance_before_expiry, variance_rate

__all__ = [
    "ab_ode_rhs",
    "integrate_ab",
    "integrate_ab_rows",
    "integrate_ab_snapshots",
    "charfn_value",
    "default_ab_steps",
]

# Diverging Riccati iterates trip this bound long before overflow.
_B_OVERFLOW = 1e12

# Steps a year for accuracy: a base rate plus a rate per unit of alpha.
# The variance-rate forcing is integrated exactly (see the module
# docstring), so at alpha = 0 the exponent A + B is exact at any step
# count and the step only has to follow the alpha^2 B^2 / 2 and cross
# terms.  With the stability term, both presets at alpha 0 to 3 and fig1
# with beta2 = 10, expiries 0.1-10, price within 5.1e-10 D F of a
# 1600-steps-a-year pass (3.7e-10 at alpha <= 2); the worst slices are
# the 0.25y and 0.5y ones at alpha 2 and 3 (tests/test_fourier.py checks
# them against a fixed grid at 1e-9).  At 10 + 20 alpha the worst reads
# 1.4e-9.
_ACCURACY_STEPS_PER_YEAR = 10
_ACCURACY_STEPS_PER_YEAR_PER_ALPHA = 30
# Steps a year per unit of the Jacobian bound: h |J| <= 2, inside RK4's
# stability interval [-2.785, 0] with room for the complex transient.
_STEPS_PER_JACOBIAN = 0.5
# Steps a year round up to a multiple of 4, so that quarterly expiries
# with one lag share a step size and hence one row of a pass.
_STEPS_PER_YEAR_QUANTUM = 4
# Steps whose stage tables are built at once: the forcing and linear
# coefficients of (2 chunk + 1) stages x rows x nodes.  Building them
# once per chunk spares each step the broadcast of a row column across
# the nodes; 4 steps keep the tables small.
_STEPS_PER_CHUNK = 4
# Short expiries put weight on large theta, where the error per step is
# largest: at a floor of 16 steps the sweep above reads 9.5e-10 D F.  A
# floor of 30 would take the calibration quotes' 0.5y slice off the row
# that its 1y and 2y slices share.
_MIN_STEPS = 20


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

    Steps a year are 10 + 30 alpha for accuracy plus
    (theta_top alpha max sigma_F + beta) / 2 for stability, with max sigma_F
    bounded over distances to settlement >= ``lag``.  Without ``p`` only
    the 10 a year of alpha = 0 apply, so ``default_ab_steps(t_e)`` is
    max(20, ceil(12 t_e)).  Steps a year round up to a multiple of 4, and
    no expiry takes fewer than 20 steps.
    """
    rate = float(_ACCURACY_STEPS_PER_YEAR)
    if p is not None:
        rate += _ACCURACY_STEPS_PER_YEAR_PER_ALPHA * p.alpha
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


def _row_coefficients(rows, tables, shape):
    """Coefficients of the rows stepping together, for a state of ``shape``.

    beta as a (rows, 1, ...) column; alpha^2 / 2, h, h / 2 and h / 6 as
    complex arrays of ``shape``, each row's value in its row, which
    multiply the state as that row's Python float would, bit for bit,
    without broadcasting a column each time; and the V and cross
    tables as (stages, rows, 1, ...) arrays, zero past a row's end.
    """
    ones = (1,) * (len(shape) - 1)
    values = np.array([(p.beta, 0.5 * p.alpha**2, h, 0.5 * h, h / 6.0) for _, h, _, p in rows])
    beta, *factors = values.T.reshape((5, len(rows)) + ones)
    factors = [np.broadcast_to(f, shape).astype(complex) for f in factors]
    stages = np.zeros((2, max(len(rate) for rate, _ in tables), len(rows)) + ones)
    for j, row_tables in enumerate(tables):
        for table, column in zip(stages, row_tables):
            table[: len(column), j] = column.reshape((-1,) + ones)
    return (beta, *factors, *stages)


def _diverged(out: list, row, step: int, theta: np.ndarray) -> None:
    """Fail every snapshot of ``row`` at or past ``step``, where |B|
    left the overflow guard."""
    _, h, stops, _ = row
    error = NonConvergence(
        f"B diverged at tau = {step * h:.6g} "
        f"(theta up to {theta.max():.6g}, {max(stops)} steps)"
    )
    for index, n in enumerate(stops):
        if n >= step:
            out[index] = error


def integrate_ab_rows(theta, rows):
    """One RK4 pass of the (A, B) system for several rows on shared nodes.

    A row is (lag, h, stops, p): parameter set ``p`` at distance to
    settlement ``lag`` with step ``h``, read off after each step count in
    ``stops`` (see `integrate_ab_snapshots`).  The rows advance as one
    (rows, theta) state: each row brings its own V and cross tables, one
    `variance_before_expiry` call each, and its own beta, alpha^2 / 2
    and h (see `_row_coefficients`).  A row leaves the state after its
    last stop, or at the step where its |B| left the overflow guard,
    failing its later stops alone.  Every row's snapshots are those of its
    own `integrate_ab_snapshots` call, bit for bit.

    Returns a list aligned with ``rows``, each entry a list aligned with
    that row's ``stops`` as `integrate_ab_snapshots` returns it.
    """
    theta = np.asarray(theta, dtype=float)
    checked = []
    for lag, h, stops, p in rows:
        if lag < 0.0:
            raise DomainError("a Riccati pass requires lag >= 0")
        if not h > 0.0:
            raise DomainError("a Riccati pass requires h > 0")
        stops = [operator.index(n) for n in stops]
        if any(n < 0 for n in stops):
            raise DomainError("stops must be >= 0")
        checked.append((lag, h, stops, p))
    out = [[None] * len(stops) for _, _, stops, _ in checked]
    last = [max(stops, default=0) for _, _, stops, _ in checked]
    # The snapshots due after each step, as (row, index into its stops).
    wanted: dict[int, list[tuple[int, int]]] = {}
    for row, (_, _, stops, _) in enumerate(checked):
        for index, n in enumerate(stops):
            wanted.setdefault(n, []).append((row, index))
    for row, index in wanted.pop(0, ()):
        out[row][index] = tuple(np.zeros(theta.shape, dtype=complex) for _ in "AB")

    # V and the cross term of each row on the stage grid tau = k h / 2,
    # k = 0 .. 2 last, and S_n, the sum over steps m < n of
    # V_2m + 4 V_2m+1 + V_2m+2.
    tables, simpson = {}, {}
    for row, (lag, h, _, p) in enumerate(checked):
        if last[row]:
            tau = 0.5 * h * np.arange(2 * last[row] + 1)
            variance = variance_before_expiry(lag, tau, p)
            cross = p.alpha * p.sigma * (
                p.rho1 * np.exp(-p.beta1 * (lag + tau))
                + p.R * p.rho2 * np.exp(-p.beta2 * (lag + tau))
            )
            tables[row] = variance, cross
            sums = np.cumsum(variance[:-1:2] + 4.0 * variance[1::2] + variance[2::2])
            simpson[row] = np.concatenate(([0.0], sums))
    q = -0.5 * (theta**2 + 1j * theta)
    i_theta = 1j * theta
    # Longest pass first, so rows that finish leave from the end.
    active = sorted(tables, key=lambda row: -last[row])
    # B = c + V q at the start of each step, and c itself.
    b_val = np.zeros((len(active),) + theta.shape, dtype=complex)
    c_val = np.zeros_like(b_val)
    # The stages' B sum to 6 c + h (D1 + D2 + D3) + (V_0 + 4 V_1 + V_2) q,
    # so A after n steps is beta h (sum of c) + beta h^2 / 6 (sum of
    # D1 + D2 + D3) + beta h / 6 S_n q.
    c_total = np.zeros_like(b_val)
    d_total = np.zeros_like(b_val)
    step = 0
    while active:
        beta, half_alpha_sq, h, half_h, sixth_h, variance, cross = _row_coefficients(
            [checked[row] for row in active], [tables[row] for row in active], b_val.shape
        )
        d1, d2, d3, b_mid, scratch = (np.empty_like(b_val) for _ in range(5))

        def stage(b, linear, out):
            """b (alpha^2 / 2 b + linear) into ``out``."""
            np.add(np.multiply(half_alpha_sq, b, out=scratch), linear, out=scratch)
            return np.multiply(b, scratch, out=out)

        exit_step = last[active[-1]]
        leaving: set[int] = set()
        while not leaving:
            # Every stage's V_k q and linear coefficient i theta cross_k - beta
            # for the next steps at once.
            chunk = range(step, min(exit_step, step + _STEPS_PER_CHUNK))
            stages = slice(2 * chunk.start, 2 * chunk.stop + 1)
            forcing, linear = variance[stages] * q, i_theta * cross[stages]
            linear -= beta
            for k in range(0, 2 * len(chunk), 2):
                # Every update keeps the operand order of
                #   D = B (alpha^2 / 2 B + linear), B = c + forcing,
                #   c_next = c + h / 6 ((D1 + (D2 + D3)) + (D2 + D3) + D4),
                # written in place into the scratch arrays.
                stage(b_val, linear[k], out=d1)
                np.add(c_val, np.multiply(half_h, d1, out=b_mid), out=b_mid)
                stage(np.add(b_mid, forcing[k + 1], out=b_mid), linear[k + 1], out=d2)
                np.add(c_val, np.multiply(half_h, d2, out=b_mid), out=b_mid)
                stage(np.add(b_mid, forcing[k + 1], out=b_mid), linear[k + 1], out=d3)
                np.add(c_val, np.multiply(h, d3, out=b_mid), out=b_mid)
                stage(np.add(b_mid, forcing[k + 2], out=b_mid), linear[k + 2], out=b_mid)
                d_mid = np.add(d2, d3, out=d2)
                d_head = np.add(d1, d_mid, out=d1)
                c_total += c_val
                d_total += d_head
                d_sum = np.add(np.add(d_head, d_mid, out=d3), b_mid, out=d3)
                np.add(c_val, np.multiply(sixth_h, d_sum, out=d3), out=c_val)
                np.add(c_val, forcing[k + 2], out=b_val)
                step += 1
                # NaN fails the comparison too.
                if not np.abs(b_val).max(initial=0.0) <= _B_OVERFLOW:
                    peaks = np.abs(b_val).reshape(len(active), -1).max(axis=1)
                    for j, peak in enumerate(peaks.tolist()):
                        if not peak <= _B_OVERFLOW:
                            leaving.add(j)
                            _diverged(out[active[j]], checked[active[j]], step, theta)
                for row, index in wanted.get(step, ()):
                    if out[row][index] is None:
                        j = active.index(row)
                        _, h_row, _, p = checked[row]
                        a_val = (
                            (p.beta * h_row) * c_total[j]
                            + (p.beta * h_row * (h_row / 6.0)) * d_total[j]
                            + (p.beta * (h_row / 6.0) * simpson[row][step]) * q
                        )
                        out[row][index] = (a_val, b_val[j].copy())
                if leaving:
                    break
            if step == exit_step:
                leaving.update(j for j, row in enumerate(active) if last[row] == step)
        keep = [j for j in range(len(active)) if j not in leaving]
        active = [active[j] for j in keep]
        # Rows that finish leave from the end, so most exits are a slice.
        kept = slice(len(keep)) if keep == list(range(len(keep))) else keep
        b_val, c_val, c_total, d_total = b_val[kept], c_val[kept], c_total[kept], d_total[kept]
    return out


def integrate_ab_snapshots(theta, lag: float, h: float, stops, p: ModelParams):
    """One RK4 pass of the (A, B) system, read off after several step counts.

    The right-hand side depends on tau only through the distance to
    settlement T - t_e + tau, so every slice (t_e, T) with
    T - t_e = ``lag`` whose step t_e / n equals ``h`` is the snapshot at
    step n of one pass.  V and the cross term are evaluated once on the
    half-step stage grid; each stage reads B = c + V_k q and steps c by
    B (alpha^2 B / 2 + (i theta cross_k - beta)) with
    q = -(theta^2 + i theta) / 2, and A accumulates the same RK4 update
    as dA = beta B.  This is the one-row call of `integrate_ab_rows`.

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
    (snapshots,) = integrate_ab_rows(theta, [(lag, h, stops, p)])
    return snapshots


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


def charfn_value(theta, x, v, t_e: float, T: float, p: ModelParams):
    """Conditional characteristic function exp(i theta x + A + B v).

    ``v`` must be >= 0.  For real ``theta`` this is the characteristic
    function of a genuine distribution, so its modulus cannot exceed 1;
    a material violation indicates a broken integration and raises.
    """
    if v < 0.0:
        raise DomainError("variance state v must be >= 0")
    a_val, b_val = integrate_ab(theta, t_e, T, p)
    exponent = 1j * np.multiply(theta, x) + a_val + b_val * v
    real_theta = np.all(np.isreal(theta))
    if real_theta and np.any(np.real(exponent) > 1e-8):
        raise NumericalError(
            "characteristic function modulus exceeded 1; integration is unreliable"
        )
    return np.exp(exponent)
