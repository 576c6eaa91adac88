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
sees tau only through T - t_e + tau, so one row, a parameter set at one
lag T - t_e, serves every expiry of that set with that lag: its tau grid
is cut at each expiry, and each piece between two cuts takes its own
equal steps.  `integrate_ab_rows` advances many rows, of any sets, lags
and grids, as one (rows, theta) state, so a pricing call takes one pass
per block of its quadrature grid.

The step counts come from the inputs (`default_ab_steps`): for the first
piece, an accuracy term per year of expiry that grows with alpha, plus a
stability term.  Near its equilibrium the Jacobian of the B equation has
modulus up to about theta alpha sigma_F + beta, so the step that RK4 can
take shrinks as the largest node theta grows; a grid that stops at a
lower theta needs fewer steps.  A later piece weighs a narrower theta
range, so it takes a falling share of its expiry's accuracy steps, but
never fewer than stability allows.
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
# Steps a year of a pass to one expiry round up to a multiple of 4.
_STEPS_PER_YEAR_QUANTUM = 4
# Steps whose stage tables are built at once: the forcing and linear
# coefficients of (2 chunk + 1) stages x rows x nodes.  Building them
# once per chunk spares each step the broadcast of a row column across
# the nodes; 4 steps keep the tables small.
_STEPS_PER_CHUNK = 4
# Short expiries put weight on large theta, where the error per step is
# largest: at a floor of 16 steps the sweep above reads 9.5e-10 D F.
_MIN_STEPS = 20
# A later piece [a, b] of a row, read at b, takes this share of the steps
# a year that a pass to b alone would take: min(1, max(0.4,
# (0.25 / b)^0.42)), so 0.75 at b = 0.5, 0.56 at 1 and 0.42 at 2.  Its
# error at b is nearly all made on the piece itself (the pieces before it
# are finer), over the theta range that b still weighs, which narrows as
# b grows.  The share is the least step count that reads 4e-10 D F at b
# against a 3200-steps-a-year pass on pieces from [0.1, 0.25] to [5, 10],
# on five sets at alpha 0.5-3; sec5 at alpha = 3, whose sigma_F hardly
# decays with the distance to settlement, sets the floor.
_PIECE_SHARE_EXPIRY = 0.25
_PIECE_SHARE_POWER = 0.42
_PIECE_SHARE_FLOOR = 0.4


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


def _first_steps(t_e: float, p: ModelParams | None, theta_top: float, lag: float) -> int:
    """Steps of a pass from tau = 0 to one expiry t_e (see `default_ab_steps`)."""
    rate = float(_ACCURACY_STEPS_PER_YEAR)
    if p is not None:
        rate += _ACCURACY_STEPS_PER_YEAR_PER_ALPHA * p.alpha
        jacobian = theta_top * p.alpha * _vol_bound(lag, p) + p.beta
        rate += _STEPS_PER_JACOBIAN * jacobian
    rate = _STEPS_PER_YEAR_QUANTUM * math.ceil(rate / _STEPS_PER_YEAR_QUANTUM)
    # Rounding keeps t_e * rate = 40.000000000000004 at 40 steps.
    return max(_MIN_STEPS, math.ceil(round(t_e * rate, 9)))


def _later_steps(a: float, b: float, p: ModelParams | None, theta_top: float, lag: float) -> int:
    """Steps of a row's piece [a, b] past its first expiry (see `default_ab_steps`)."""
    share = min(1.0, max(_PIECE_SHARE_FLOOR, (_PIECE_SHARE_EXPIRY / b) ** _PIECE_SHARE_POWER))
    rate = share * _first_steps(b, p, theta_top, lag) / b
    if p is not None:
        jacobian = theta_top * p.alpha * _vol_bound(lag + a, p) + p.beta
        rate = max(rate, _STEPS_PER_JACOBIAN * jacobian)
    return max(1, math.ceil(round((b - a) * rate, 9)))


def default_ab_steps(t_e, p: ModelParams | None = None, theta_top: float = 0.0, lag: float = 0.0):
    """RK4 step count for an expiry of t_e years on nodes up to ``theta_top``.

    Steps a year are 10 + 30 alpha for accuracy plus
    (theta_top alpha max sigma_F + beta) / 2 for stability, with max sigma_F
    bounded over distances to settlement >= ``lag``.  Without ``p`` only
    the 10 a year of alpha = 0 apply, so ``default_ab_steps(t_e)`` is
    max(20, ceil(12 t_e)).  Steps a year round up to a multiple of 4, and
    no expiry takes fewer than 20 steps.

    ``t_e`` may also be a list of ascending expiries t_1 < t_2 < ...,
    read off one row whose tau grid is cut at each of them (see
    `integrate_ab_rows`); the result is then the list of step counts at
    which each is read.  The first piece, [0, t_1], takes the count of t_1
    alone, so a one-expiry row is the pass above.  Each later piece
    [t_k-1, t_k] takes the larger of two rates: a share of t_k's own steps
    a year, 1 up to t_k = 0.25 and falling to 0.4 from t_k = 2.2 on (see
    `_PIECE_SHARE_EXPIRY`), and the stability rate with max sigma_F
    bounded over distances >= lag + t_k-1.
    """
    if np.ndim(t_e) == 0:
        return _first_steps(t_e, p, theta_top, lag)
    counts = [_first_steps(t_e[0], p, theta_top, lag)]
    for a, b in zip(t_e, t_e[1:]):
        if not b > a:
            raise DomainError("expiries of a row must ascend")
        counts.append(counts[-1] + _later_steps(a, b, p, theta_top, lag))
    return counts


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


def _pieces(grid, last: int) -> list[tuple[float, float, int, int]]:
    """A row's tau grid up to step ``last``, as its uniform pieces
    (start tau, step h, first step, end step).

    ``grid`` is a step h, the grid k h, or knots (tau_k, n_k): tau_k
    reached after n_k steps, both ascending from (0, 0), with equal steps
    between one knot and the next.
    """
    if np.ndim(grid) == 0:
        if not grid > 0.0:
            raise DomainError("a Riccati pass requires h > 0")
        return [(0.0, float(grid), 0, last)]
    pieces, start, first = [], 0.0, 0
    for tau, n in grid:
        n = operator.index(n)
        if not (tau > start and n > first):
            raise DomainError("a Riccati grid's knots must ascend in tau and in steps")
        if first < last:
            pieces.append((start, (tau - start) / (n - first), first, min(n, last)))
        start, first = tau, n
    if last > first:
        raise DomainError("stops must not pass a Riccati grid's last knot")
    return pieces


def _row_coefficients(params, steps, tables, shape):
    """Coefficients of the rows stepping together, for a state of ``shape``.

    beta as a (rows, 1, ...) column; alpha^2 / 2 and each row's current
    step h, h / 2 and h / 6 as complex arrays of ``shape``, each row's
    value in its row, which multiply the state as that row's Python float
    would, bit for bit, without broadcasting a column each time; and the
    V and cross tables as (stages, rows, 1, ...) arrays, zero past a
    row's end.
    """
    ones = (1,) * (len(shape) - 1)
    values = np.array(
        [(p.beta, 0.5 * p.alpha**2, h, 0.5 * h, h / 6.0) for p, h in zip(params, steps)]
    )
    beta, *factors = values.T.reshape((5, len(params)) + ones)
    factors = [np.broadcast_to(f, shape).astype(complex) for f in factors]
    stages = np.zeros((2, max(len(rate) for rate, _ in tables), len(params)) + ones)
    for j, row_tables in enumerate(tables):
        for table, column in zip(stages, row_tables):
            table[: len(column), j] = column.reshape((-1,) + ones)
    return (beta, *factors, *stages)


def _diverged(out: list, stops, tau: float, step: int, theta: np.ndarray) -> None:
    """Fail every snapshot at or past ``step``, where |B| left the
    overflow guard."""
    error = NonConvergence(
        f"B diverged at tau = {tau:.6g} "
        f"(theta up to {theta.max():.6g}, {max(stops)} steps)"
    )
    for index, n in enumerate(stops):
        if n >= step:
            out[index] = error


def integrate_ab_rows(theta, rows):
    """One RK4 pass of the (A, B) system for several rows on shared nodes.

    A row is (lag, grid, stops, p): parameter set ``p`` at distance to
    settlement ``lag``, stepped along ``grid`` and read off after each
    step count in ``stops`` (see `integrate_ab_snapshots`).  ``grid`` is
    a step h, or knots (tau_k, n_k), which cut the row into pieces of
    equal steps: a row read at several expiries t_k takes each piece
    [t_k-1, t_k] in its own step count.  The rows advance as one
    (rows, theta) state: each row brings its own V and cross tables on
    its own stage points, one `variance_before_expiry` call each, and its
    own beta, alpha^2 / 2 and current step (see `_row_coefficients`).  A
    accumulates piece by piece, so a one-piece row takes the formula and
    the bits of a uniform step h.  A row leaves the state after its last
    stop, or at the step where its |B| left the overflow guard, failing
    its later stops alone.  Every row's snapshots are those of its own
    `integrate_ab_snapshots` call, bit for bit.

    Returns a list aligned with ``rows``, each entry a list aligned with
    that row's ``stops`` as `integrate_ab_snapshots` returns it.
    """
    theta = np.asarray(theta, dtype=float)
    checked = []
    for lag, grid, stops, p in rows:
        if lag < 0.0:
            raise DomainError("a Riccati pass requires lag >= 0")
        stops = [operator.index(n) for n in stops]
        if any(n < 0 for n in stops):
            raise DomainError("stops must be >= 0")
        checked.append((lag, _pieces(grid, max(stops, default=0)), stops, p))
    out = [[None] * len(stops) for _, _, stops, _ in checked]
    last = [max(stops, default=0) for _, _, stops, _ in checked]
    # The snapshots due after each step, as (row, index into its stops),
    # and the rows that pass a knot there.
    wanted: dict[int, list[tuple[int, int]]] = {}
    knots: dict[int, list[int]] = {}
    for row, (_, pieces, stops, _) in enumerate(checked):
        for index, n in enumerate(stops):
            wanted.setdefault(n, []).append((row, index))
        for *_, end in pieces[:-1]:
            knots.setdefault(end, []).append(row)
    for row, index in wanted.pop(0, ()):
        out[row][index] = tuple(np.zeros(theta.shape, dtype=complex) for _ in "AB")

    # V and the cross term of each row on its stage grid, each piece's
    # tau = start + k h / 2, k = 0 .. 2 (end - first), where a knot ends
    # one piece and starts the next; and S_n, the sum over the steps m < n
    # of n's piece of V_2m + 4 V_2m+1 + V_2m+2.
    tables, simpson = {}, {}
    for row, (lag, pieces, _, p) in enumerate(checked):
        if last[row]:
            tau = np.concatenate([
                start + 0.5 * h * np.arange(2 * (end - first) + (end == last[row]))
                for start, h, first, end in pieces
            ])
            variance = variance_before_expiry(lag, tau, p)
            cross = p.alpha * p.sigma * (
                p.rho1 * np.exp(-p.beta1 * (lag + tau))
                + p.R * p.rho2 * np.exp(-p.beta2 * (lag + tau))
            )
            tables[row] = variance, cross
            triples = variance[:-1:2] + 4.0 * variance[1::2] + variance[2::2]
            sums = np.zeros(last[row] + 1)
            for _, _, first, end in pieces:
                sums[first + 1 : end + 1] = np.cumsum(triples[first:end])
            simpson[row] = sums
    q = -0.5 * (theta**2 + 1j * theta)
    i_theta = 1j * theta
    # Each row's piece, and its step there.
    piece = [0] * len(checked)

    def step_of(row: int) -> float:
        return checked[row][1][piece[row]][1]

    # Longest pass first, so rows that finish leave from the end.
    active = sorted(tables, key=lambda row: -last[row])
    # B = c + V q at the start of each step, and c itself.
    b_val = np.zeros((len(active),) + theta.shape, dtype=complex)
    c_val = np.zeros_like(b_val)
    # The stages' B sum to 6 c + h (D1 + D2 + D3) + (V_0 + 4 V_1 + V_2) q,
    # so A over n steps of a piece is beta h (sum of c) + beta h^2 / 6
    # (sum of D1 + D2 + D3) + beta h / 6 S_n q, and A past a knot adds
    # that of the pieces before it, a_done.
    c_total = np.zeros_like(b_val)
    d_total = np.zeros_like(b_val)
    a_done = np.zeros_like(b_val)

    def a_value(row: int, j: int):
        """A of ``row``, at ``j`` in the state, after ``step`` steps."""
        beta_row, h_row = checked[row][3].beta, step_of(row)
        a_val = (
            (beta_row * h_row) * c_total[j]
            + (beta_row * h_row * (h_row / 6.0)) * d_total[j]
            + (beta_row * (h_row / 6.0) * simpson[row][step]) * q
        )
        return a_val + a_done[j] if piece[row] else a_val

    step = 0
    while active:
        beta, half_alpha_sq, h, half_h, sixth_h, variance, cross = _row_coefficients(
            [checked[row][3] for row in active],
            [step_of(row) for row in active],
            [tables[row] for row in active],
            b_val.shape,
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
                            row = active[j]
                            start, h_row, first, _ = checked[row][1][piece[row]]
                            tau = start + (step - first) * h_row
                            leaving.add(j)
                            _diverged(out[row], checked[row][2], tau, step, theta)
                for row, index in wanted.get(step, ()):
                    if out[row][index] is None:
                        j = active.index(row)
                        out[row][index] = (a_value(row, j), b_val[j].copy())
                # A row past a knot folds its piece's A into a_done and
                # takes the next piece's step.
                for row in knots.get(step, ()):
                    if row in active:
                        j = active.index(row)
                        a_done[j] = a_value(row, j)
                        c_total[j] = d_total[j] = 0.0
                        piece[row] += 1
                        h_row = step_of(row)
                        h[j], half_h[j], sixth_h[j] = h_row, 0.5 * h_row, h_row / 6.0
                if leaving:
                    break
            if step == exit_step:
                leaving.update(j for j, row in enumerate(active) if last[row] == step)
        keep = [j for j in range(len(active)) if j not in leaving]
        active = [active[j] for j in keep]
        # Rows that finish leave from the end, so most exits are a slice.
        kept = slice(len(keep)) if keep == list(range(len(keep))) else keep
        b_val, c_val = b_val[kept], c_val[kept]
        c_total, d_total, a_done = c_total[kept], d_total[kept], a_done[kept]
    return out


def integrate_ab_snapshots(theta, lag: float, grid, stops, p: ModelParams):
    """One RK4 pass of the (A, B) system, read off after several step counts.

    The right-hand side depends on tau only through the distance to
    settlement T - t_e + tau, so every slice (t_e, T) with
    T - t_e = ``lag`` whose expiry t_e is a node of ``grid`` is the
    snapshot at that node of one pass.  V and the cross term are
    evaluated once on the stage grid, each step's ends and midpoint; each
    stage reads B = c + V_k q and steps c by
    B (alpha^2 B / 2 + (i theta cross_k - beta)) with
    q = -(theta^2 + i theta) / 2, and A accumulates the same RK4 update
    as dA = beta B.  This is the one-row call of `integrate_ab_rows`.

    Parameters
    ----------
    theta : float or ndarray
        Transform variable(s); the integration is vectorized across them.
    lag : float
        T - t_e >= 0, shared by every snapshot of the pass.
    grid : float or sequence of (float, int)
        Step size h > 0, for the grid k h; or knots (tau_k, n_k), which
        reach tau_k after n_k steps, both ascending from (0, 0), with
        equal steps from one knot to the next.
    stops : sequence of int
        Step counts after which (A, B) is wanted; the pass runs to the
        largest, which must not pass the last knot.

    Returns
    -------
    list aligned with ``stops``.  Each entry is (A, B), complex arrays
    shaped like ``theta``, or, for a stop at or past the step where |B|
    left the overflow guard, the `NonConvergence` that ended the pass.
    Snapshots taken before the divergence are kept, exactly as separate
    shorter passes succeed.
    """
    (snapshots,) = integrate_ab_rows(theta, [(lag, grid, stops, p)])
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
