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

The step counts come from the inputs (`default_ab_steps`).  A pass to
one expiry, and the first piece of a row, takes the larger of an
accuracy count, which grows like alpha sqrt(t_e) because a longer expiry
weighs a narrower theta range, and a stability count.  Near its
equilibrium the Jacobian of the B equation has modulus up to about
theta alpha sigma_F + beta, so the step that RK4 can take shrinks as the
largest node theta grows; a grid that stops at a lower theta needs fewer
steps.  A later piece weighs a narrower theta range still, so it takes a
falling share of its expiry's accuracy steps, but never fewer than the
Jacobian at its start allows.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .errors import DomainError, NonConvergence, NumericalError
from .model import ModelParams, _channels, variance_before_expiry, variance_rate

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
# Largest real part of a characteristic function's exponent on real theta
# that counts as |f| <= 1.
_MODULUS_TOLERANCE = 1e-8
# 1 / 3 as a complex scalar: numpy multiplies a complex array by it without
# first converting a float.
_THIRD = complex(1.0 / 3.0)

# Accuracy steps of a pass to t_e: ACCURACY alpha^POWER sqrt(t_e sigma).
# The variance-rate forcing is integrated exactly (see the module
# docstring), so at alpha = 0 the exponent A + B is exact at any step
# count and the steps only have to follow the alpha^2 B^2 / 2 and cross
# terms.  With the terms below, this is the least count that keeps every
# single slice within 5e-10 D F of a 3200-steps-a-year pass on the first
# theta block (4e-10 on the second), for fig1, sec5, fig1 with beta2 = 10
# and two calibration starts (fig1 scaled by 0.8-1.2) at alpha 0.5 to 3,
# expiries 0.1-10 and lags 0 and 1; with the decay term weighed by the
# sigma_F left at the lag, one lag-1 slice reads 5.08e-10 (fig1 with
# beta2 = 10, alpha = 0.5, t_e = 2, one step fewer).
_ACCURACY = 41.22
_ACCURACY_ALPHA_POWER = 1.1
# Steps a year that follow the decay of sigma_F: a base rate plus a rate
# per unit of the decay rate of sigma_F^2 at the pass's distance to
# settlement (`_decay_rate`), weighed by the share of sigma_F left there.
# A pass takes equal steps, so one whose sigma_F changes fast near its
# expiry (fig1 with beta2 = 10 at lag 0 needs 18 more steps a year than
# fig1) pays for it over its whole length.
_DECAY_STEPS_PER_YEAR = 3.0
_DECAY_STEPS_PER_RATE = 4.5
# Steps a year per unit of the Jacobian bound: h |J| <= 1 for a pass from
# B = 0, whose transient the steps must follow, inside RK4's stability
# interval [-2.785, 0]; h |J| <= 1.28 for a later piece, which starts on
# the solution.  Looser bounds hold stability but not accuracy: sec5 at
# alpha 3, t_e = 10 needs 573 steps for 5e-10 D F where h |J| = 2 gives
# 527.
_STEPS_PER_JACOBIAN = 1.0
_PIECE_STEPS_PER_JACOBIAN = 0.78
# Steps whose stage tables are built at once: the forcing and linear
# coefficients of (2 chunk + 1) stages x rows x nodes.  Building them
# once per chunk spares each step the broadcast of a row column across
# the nodes.  A chunk also ends at every knot of the pass.  At 16 steps
# the tables of a ten-set pass on the first block's 120 nodes take 1.3 MB.
_STEPS_PER_CHUNK = 16
# No pass takes fewer than MIN steps up to FLOOR_EXPIRY, nor fewer than
# MIN sqrt(FLOOR_EXPIRY / t_e) past it: a short expiry weighs theta up to
# about 1 / (sigma_F sqrt(t_e)).
_MIN_STEPS = 20
_FLOOR_EXPIRY = 0.1
# A later piece [a, b] of a row, read at b, takes a share min(1, SHARE
# b^-POWER S(lag + a) / S(lag)) of b's accuracy steps a year, with S(d)
# the supremum of sigma_F past distance d (`_vol_bound`): its error at b
# is made over the theta range that b still weighs, which narrows as b
# grows, and over which the stiffness falls with sigma_F.
# The share keeps the rows of the calibration quotes (0.5, 1 and 2 years)
# and of expiries 0.1-10 within 5.1e-10 D F of 3200 steps a year on the
# sets above; sec5, whose sigma_F hardly decays, sets the share.
_PIECE_SHARE = 0.88
_PIECE_SHARE_POWER = 0.28


def _vol_bound(lag: float, p: ModelParams) -> float:
    """Supremum of sigma_F(t, T) over every t with T - t >= lag.

    sigma_F^2 / sigma^2 = x^2 + y^2 + 2 rho' x y with x = exp(-beta1 d),
    y = |R| exp(-beta2 d), rho' = rho sign(R), at distance d.  It falls
    with d except where b2 r^2 + rho' (b1 + b2) r + b1 < 0, r = y / x,
    so its supremum on [lag, inf) is its value at lag, its limit, or its
    value where r sits at a root, taken as logs so that subnormal rates
    neither overflow nor vanish.
    """
    rho, R, b1, b2 = p.rho * math.copysign(1.0, p.R), abs(p.R), p.beta1, p.beta2

    def rate(x: float, y: float) -> float:
        return x * x + y * y + 2.0 * rho * x * y

    best = max(rate(math.exp(-b1 * lag), R * math.exp(-b2 * lag)),
               rate(float(b1 == 0.0), R * (b2 == 0.0)))
    disc = rho * rho - 4.0 * (b2 / (b1 + b2)) * (b1 / (b1 + b2)) if b1 != b2 else -1.0
    if rho < 0.0 and R > 0.0 and disc >= 0.0:
        log_q, log_s = math.log(0.5 * (math.sqrt(disc) - rho)), math.log(b1 + b2)
        log_roots = [log_q - math.log(b2) + log_s] if b2 > 0.0 else []
        if b1 > 0.0:
            log_roots.append(math.log(b1) - log_s - log_q)
        gap = b2 - b1
        for log_r in log_roots:
            # (b2 - b1) d at the root; d >= lag.
            spread = math.log(R) - log_r
            if (spread >= lag * gap) if gap > 0.0 else (spread <= lag * gap):
                best = max(best, rate(math.exp(-spread * (b1 / gap)),
                                      R * math.exp(-spread * (b2 / gap))))
    return p.sigma * math.sqrt(best)


def _decay_rate(lag: float, p: ModelParams) -> float:
    """Decay rate of sigma_F^2 at distance ``lag``: its three channels'
    rates, weighted by the channels' sizes there."""
    channels = [(abs(w), c) for w, c in _channels(p) if w]
    slowest = min(c for _, c in channels)
    weights = [(w * math.exp(-(c - slowest) * lag), c) for w, c in channels]
    return sum(w * c for w, c in weights) / sum(w for w, _ in weights)


def _accuracy_count(t_e: float, p: ModelParams, left: float, decay: float) -> float:
    """Steps that a pass from tau = 0 to t_e needs for accuracy, before
    rounding up, with ``left`` the share of sigma_F left at the pass's
    lag and ``decay`` the decay rate of sigma_F^2 there (see
    `default_ab_steps`)."""
    count = _DECAY_STEPS_PER_YEAR * t_e
    count += _DECAY_STEPS_PER_RATE * left * decay * t_e
    alpha_power = p.alpha * abs(p.alpha) ** (_ACCURACY_ALPHA_POWER - 1.0)
    return _ACCURACY * alpha_power * math.sqrt(t_e * p.sigma) + count


def _steps(count: float) -> int:
    # Rounding keeps a count of 40.000000000000004 at 40 steps.
    return math.ceil(round(count, 9))


class _PerLag(dict):
    """``f(lag, p)`` of one set by lag, each computed once: a step rule
    reads the same sigma_F bounds and decay rates for several pieces."""

    def __init__(self, f, p: ModelParams):
        super().__init__()
        self.f, self.p = f, p

    def __missing__(self, lag: float) -> float:
        self[lag] = value = self.f(lag, self.p)
        return value


def default_ab_steps(t_e, p: ModelParams, theta_top: float = 0.0, lag: float = 0.0):
    """RK4 step count for an expiry of t_e years of set ``p`` on nodes up
    to ``theta_top``.

    The larger of an accuracy count, 41.22 alpha^1.1 sqrt(t_e sigma) +
    (3 + 4.5 s kappa) t_e, and a stability count, (theta_top alpha S(lag)
    + beta) t_e, rounded up: kappa is the decay rate of sigma_F^2 at
    distance ``lag`` (`_decay_rate`), S(d) the supremum of sigma_F over
    distances to settlement >= d (`_vol_bound`), and s = S(lag) / S(0),
    the share of sigma_F left at ``lag``.  No count falls below 20 up to
    t_e = 0.1, nor below 20 sqrt(0.1 / t_e) past it.

    ``t_e`` may also be a list of ascending expiries t_1 < t_2 < ...,
    read off one row whose tau grid is cut at each of them (see
    `integrate_ab_rows`); the result is then the list of step counts at
    which each is read.  The first piece, [0, t_1], takes the count of t_1
    alone, so a one-expiry row is the pass above.  Each later piece [a, b]
    takes the larger of two rates a year: a share min(1, 0.88 b^-0.28
    S(lag + a) / S(lag)), or min(1, 0.88 b^-0.28) where S(lag)
    underflows to 0, of the accuracy count of b alone at lag 0, per year
    of b, and 0.78 (theta_top alpha S(a) + beta).  Both are read as if
    the row were at lag 0: a row at a larger lag has a lower sigma_F, so
    its price weighs a wider theta range, and it needs no fewer steps.  On
    the calibration quotes' row (0.5, 1 and 2 years, theta <= 60) fig1
    takes 22 + 14 + 17 = 53 steps.
    """
    vol, decay = _PerLag(_vol_bound, p), _PerLag(_decay_rate, p)
    scalar = np.ndim(t_e) == 0
    expiries = [t_e] if scalar else t_e
    # Only the sigma_F left past the lag has a decay to follow: 1 at lag
    # 0, and the whole term where sigma_F vanishes at every distance.
    top, first = vol[0.0], expiries[0]
    left = vol[lag] / top if top > 0.0 else 1.0
    count = max(_accuracy_count(first, p, left, decay[lag]),
                _STEPS_PER_JACOBIAN * (theta_top * p.alpha * vol[lag] + p.beta) * first)
    floor = _MIN_STEPS * math.sqrt(_FLOOR_EXPIRY / max(first, _FLOOR_EXPIRY))
    counts = [max(_steps(floor), _steps(count))]
    for a, b in zip(expiries, expiries[1:]):
        if not b > a:
            raise DomainError("expiries of a row must ascend")
        share = _PIECE_SHARE * b**-_PIECE_SHARE_POWER
        # Far past fast reversion sigma_F^2 underflows to 0; the piece then
        # keeps the whole share, which never takes fewer steps.
        if vol[lag] > 0.0:
            share *= vol[lag + a] / vol[lag]
        rate = max(min(1.0, share) * _accuracy_count(b, p, 1.0, decay[0.0]) / b,
                   _PIECE_STEPS_PER_JACOBIAN * (theta_top * p.alpha * vol[a] + p.beta))
        counts.append(counts[-1] + max(1, _steps((b - a) * rate)))
    return counts[0] if scalar else counts


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

    ``grid`` is knots (tau_k, n_k): tau_k reached after n_k steps, both
    ascending from (0, 0), with equal steps between one knot and the next.
    """
    try:
        knots = [(tau, operator.index(n)) for tau, n in grid]
    except (TypeError, ValueError):
        raise DomainError("a Riccati grid is a sequence of knots (tau, steps)") from None
    pieces, start, first = [], 0.0, 0
    for tau, n in knots:
        if not (tau > start and n > first):
            raise DomainError("a Riccati grid's knots must ascend in tau and in steps")
        if first < last:
            pieces.append((start, (tau - start) / (n - first), first, min(n, last)))
        start, first = tau, n
    if last > first:
        raise DomainError("stops must not pass a Riccati grid's last knot")
    return pieces


class _Grid:
    """The rows of a pass that step on one tau grid: one set of pieces.

    They sit side by side in the state, at ``span``, and share the grid's
    tau nodes, their snapshots' steps and their knots, so each of those
    costs one vectorized update for all of them.  Holds, per row, beta,
    the V and cross tables on the stage points and S_n, the sum over the
    steps m < n of n's piece of V_2m + 4 V_2m+1 + V_2m+2; and the grid's
    current piece.
    """

    def __init__(self, rows, checked, at: int):
        self.rows = rows
        self.span = slice(at, at + len(rows))
        self.pieces = checked[rows[0]][1]
        self.last = self.pieces[-1][3]
        self.piece = 0
        # Each piece's tau = start + k h / 2, k = 0 .. 2 (end - first),
        # where a knot ends one piece and starts the next.
        tau = np.concatenate([
            start + 0.5 * h * np.arange(2 * (end - first) + (end == self.last))
            for start, h, first, end in self.pieces
        ])
        ps = [checked[row][3] for row in rows]
        lags = np.array([[checked[row][0]] for row in rows])
        self.variance = np.array([variance_before_expiry(checked[row][0], tau, checked[row][3])
                                  for row in rows])
        beta1, beta2, scale, rho1, rho2 = np.array(
            [(-p.beta1, -p.beta2, p.alpha * p.sigma, p.rho1, p.R * p.rho2) for p in ps]
        ).T[:, :, None]
        distance = lags + tau
        self.cross = scale * (rho1 * np.exp(beta1 * distance) + rho2 * np.exp(beta2 * distance))
        self.beta = np.array([p.beta for p in ps])
        v = self.variance
        triples = v[:, :-1:2] + 4.0 * v[:, 1::2] + v[:, 2::2]
        self.simpson = np.zeros((len(rows), self.last + 1))
        for _, _, first, end in self.pieces:
            self.simpson[:, first + 1 : end + 1] = np.cumsum(triples[:, first:end], axis=1)

    @property
    def h(self) -> float:
        return self.pieces[self.piece][1]


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
    knots (tau_k, n_k), which cut the row into pieces of equal steps: a
    row read at several expiries t_k takes each piece [t_k-1, t_k] in its
    own step count.  ``theta`` is real: a complex theta raises
    `DomainError`.  The rows advance as one
    (rows, theta) state, built once and stepped to the longest grid's
    end: each row brings its own V and cross tables on its own stage
    points, one `variance_before_expiry` call each, and its own beta,
    alpha^2 / 2 and current step.  Rows on one tau grid (`_Grid`) share
    its nodes and take their snapshots and knot updates together.  A
    accumulates piece by piece, so a one-piece row takes the formula and
    the bits of a uniform step h.  A row is parked once its grid has
    passed its last stop, or at the step where its |B| left the overflow
    guard, failing its later stops alone: its c, E and B are set to 0 and
    its V to 0 for the rest of the pass, so its B stays exactly 0 whatever
    step its grid takes.  The longest grids lead the state, so each chunk
    of steps runs on the leading rows whose grids have a stop ahead.
    Every row's snapshots are those of its own `integrate_ab_snapshots`
    call, bit for bit.

    Returns a list aligned with ``rows``, each entry a list aligned with
    that row's ``stops`` as `integrate_ab_snapshots` returns it.
    """
    theta = np.asarray(theta)
    if theta.dtype.kind == "c":
        raise DomainError("a Riccati pass takes real theta only")
    theta = theta.astype(float, copy=False)
    if not np.isfinite(theta).all():
        raise DomainError("a Riccati pass takes finite theta only")
    # The pass runs on the nodes as a vector; snapshots take their shape.
    node_shape, theta = theta.shape, theta.ravel()
    checked = []
    for lag, grid, stops, p in rows:
        if lag < 0.0:
            raise DomainError("a Riccati pass requires lag >= 0")
        stops = [operator.index(n) for n in stops]
        if any(n < 0 for n in stops):
            raise DomainError("stops must be >= 0")
        checked.append((lag, _pieces(grid, max(stops, default=0)), stops, p))
    out = [[None] * len(stops) for _, _, stops, _ in checked]
    by_pieces: dict[tuple, list[int]] = {}
    for row, (_, pieces, stops, _) in enumerate(checked):
        for index, n in enumerate(stops):
            if n == 0:
                out[row][index] = tuple(np.zeros(node_shape, dtype=complex) for _ in "AB")
        if max(stops, default=0):
            by_pieces.setdefault(tuple(pieces), []).append(row)
    # Longest grid first, so that the rows still to step lead the state.
    grids, at = [], 0
    for members in sorted(by_pieces.values(), key=lambda rows: -max(checked[rows[0]][2])):
        grids.append(_Grid(members, checked, at))
        at += len(members)
    if not grids:
        return out
    last = max(grid.last for grid in grids)
    # The grids with a snapshot or a knot after each step.
    events: dict[int, list[_Grid]] = {}
    for grid in grids:
        due = {n for row in grid.rows for n in checked[row][2]}
        due.update(end for *_, end in grid.pieces[:-1])
        for n in due - {0}:
            events.setdefault(n, []).append(grid)
    q = -0.5 * (theta**2 + 1j * theta)
    ps = [checked[row][3] for grid in grids for row in grid.rows]
    shape = (len(ps),) + theta.shape
    # B = c + V q at the start of each step; c and the stages' E1 + E2 +
    # E3, E = D h / 2, side by side, so that one addition adds both to
    # their sums.
    b_val = np.zeros(shape, dtype=complex)
    c_and_e = np.zeros((2,) + shape, dtype=complex)
    # The stages' B sum to 6 c + 2 (E1 + E2 + E3) + (V_0 + 4 V_1 + V_2) q,
    # so A over n steps of a piece is beta h (sum of c) + beta h / 3 (sum
    # of E1 + E2 + E3) + beta h / 6 S_n q, and A past a knot adds that of
    # the pieces before it, a_done.
    totals = np.zeros_like(c_and_e)
    a_done = np.zeros_like(b_val)
    # Steps where some grid passes a knot: no chunk of stage tables, which
    # carry each row's step, runs past one.
    knot_steps = sorted({end for grid in grids for *_, end in grid.pieces[:-1]})
    beta = np.concatenate([grid.beta for grid in grids])
    # Each row's h / 2, and its alpha^2 h / 4 as an array of the state's
    # shape, which multiplies it as that row's Python float would, bit for
    # bit, without broadcasting a column each time.
    half_alpha_sq = np.array([0.5 * p.alpha**2 for p in ps])
    half_h = np.empty(len(ps))
    scaled_alpha_sq = np.empty(shape, dtype=complex)

    def set_steps(grid):
        rows = grid.span
        half_h[rows] = 0.5 * grid.h
        scaled_alpha_sq[rows] = (half_alpha_sq[rows] * half_h[rows])[:, None]

    # The V and cross tables as (stages, rows) arrays, zero past each
    # grid's end.
    variance, cross = np.zeros((2, 2 * last + 1, len(ps)))
    for grid in grids:
        set_steps(grid)
        stages = slice(2 * grid.last + 1)
        variance[stages, grid.span] = grid.variance.T
        cross[stages, grid.span] = grid.cross.T
    # Scratch for E2, E3, a stage's B, c + forcing at the midpoint and the
    # factor of E.
    scratch = np.empty((5,) + shape, dtype=complex)
    # The forcing and linear tables of a chunk, written in place.
    tables = np.empty((2, 2 * _STEPS_PER_CHUNK + 1) + shape, dtype=complex)
    # sum |B|^2 <= guard^2 / 4 bounds every |B| by half the guard.
    quarter_guard_sq = 0.25 * _B_OVERFLOW**2
    add, multiply, vdot = np.add, np.multiply, np.vdot
    step = 0

    def a_value(grid):
        """A of ``grid``'s rows after ``step`` steps."""
        rows, beta, h = grid.span, grid.beta[:, None], grid.h
        a_val = (
            (beta * h) * totals[0, rows]
            + (beta * (h / 3.0)) * totals[1, rows]
            + (beta * (h / 6.0) * grid.simpson[:, step, None]) * q
        )
        return a_val + a_done[rows] if grid.piece else a_val

    def park(rows):
        """Hold ``rows`` at B = 0 for the rest of the pass: with c, E and
        V at 0 every stage reads B = 0.  A's sums go to 0 too, so that no
        overflowed value of a diverged row reaches its grid's later A."""
        for array in (b_val, a_done, c_and_e[0], c_and_e[1], totals[0], totals[1]):
            array[rows] = 0.0
        variance[2 * step :, rows] = 0.0
        tables[0, :, rows] = 0.0

    while step < last:
        # A chunk steps the rows of the grids with a stop ahead, which lead
        # the state; the parked rows of finished grids past them are left
        # as they are.
        live = slice(max(grid.span.stop for grid in grids if grid.last > step))
        b, c_e, sums = b_val[live], c_and_e[:, live], totals[:, live]
        (c, e1), (e2, e3, b_mid, c_mid, work) = c_e, scratch[:, live]
        scaled = scaled_alpha_sq[live]
        # Every stage's V_k q and linear coefficient (i theta cross_k -
        # beta) h / 2 for the next steps at once, up to the next knot,
        # written as real and imaginary parts: outer products of float
        # vectors cost a fraction of broadcasting a row column against
        # complex nodes, and form the same products.
        stop = min(last, step + _STEPS_PER_CHUNK, next((n for n in knot_steps if n > step), last))
        stages = slice(2 * step, 2 * stop + 1)
        count = stages.stop - stages.start
        forcing, linear = tables[0, :count, live], tables[1, :count, live]
        np.multiply.outer(variance[stages, live], q.view(float), out=forcing.view(float))
        parts_of = linear.view(float).reshape(linear.shape + (2,))
        parts_of[..., 0] = (-beta * half_h)[live, None]
        np.multiply.outer(cross[stages, live] * half_h[live], theta, out=parts_of[..., 1])
        # Each step reads the stages at its start, midpoint and end.
        for linear_start, linear_mid, linear_end, forcing_mid, forcing_end in zip(
            linear[:-1:2], linear[1::2], linear[2::2], forcing[1::2], forcing[2::2]
        ):
            # E = (h / 2) B (alpha^2 / 2 B + linear) = B (scaled B +
            # linear), into e1, e2, e3 and b_mid; stages 2, 3 and 4 read
            # B = c + forcing + E1, E2 and 2 E3 (stages 2 and 3 share c +
            # forcing at the midpoint), and
            #   c_next = c + ((E1 + (E2 + E3)) + (E2 + E3) + E4) / 3,
            # all written in place into the scratch arrays: each ufunc's
            # third argument is its output.
            add(multiply(scaled, b, work), linear_start, work)
            multiply(b, work, e1)
            add(c, forcing_mid, c_mid)
            add(c_mid, e1, b_mid)
            add(multiply(scaled, b_mid, work), linear_mid, work)
            multiply(b_mid, work, e2)
            add(c_mid, e2, b_mid)
            add(multiply(scaled, b_mid, work), linear_mid, work)
            multiply(b_mid, work, e3)
            add(add(c, forcing_end, b_mid), e3, b_mid)
            add(b_mid, e3, b_mid)
            add(multiply(scaled, b_mid, work), linear_end, work)
            multiply(b_mid, work, b_mid)
            e_mid = add(e2, e3, e2)
            add(e1, e_mid, e1)
            add(sums, c_e, sums)
            e_sum = add(add(e1, e_mid, e3), b_mid, e3)
            add(c, multiply(e_sum, _THIRD, e3), c)
            add(c, forcing_end, b)
            step += 1
            # Only a state past the bound needs each row's peak |B|; the
            # peaks decide which rows left the guard.  NaN and infinities
            # fail the comparison too.
            if not vdot(b, b).real <= quarter_guard_sq:
                peaks = np.abs(b_val).reshape(len(ps), -1).max(axis=1).tolist()
                for grid in grids:
                    start, h_row, first, _ = grid.pieces[grid.piece]
                    for j, row in enumerate(grid.rows, grid.span.start):
                        if not peaks[j] <= _B_OVERFLOW:
                            _diverged(out[row], checked[row][2],
                                      start + (step - first) * h_row, step, theta)
                            park(j)
            for grid in events.get(step, ()):
                rows = grid.span
                snapshot = None
                for j, row in enumerate(grid.rows):
                    for index, n in enumerate(checked[row][2]):
                        if n == step and out[row][index] is None:
                            if snapshot is None:
                                snapshot = a_value(grid), b_val[rows].copy()
                            out[row][index] = tuple(
                                part[j].reshape(node_shape) for part in snapshot)
                # Past a knot, the grid folds its piece's A into a_done
                # and takes the next piece's step; past its last stop,
                # its rows are parked.
                if grid.piece + 1 < len(grid.pieces) and grid.pieces[grid.piece][3] == step:
                    a_done[rows] = a_value(grid)
                    totals[:, rows] = 0.0
                    grid.piece += 1
                    set_steps(grid)
                elif step == grid.last < last:
                    park(rows)
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
    grid : sequence of (float, int)
        Knots (tau_k, n_k), which reach tau_k after n_k steps, both
        ascending from (0, 0), with equal steps from one knot to the
        next; [(t_e, n)] is the grid of n equal steps to t_e.
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
    (A, B) : complex arrays shaped like ``theta``, 0-d for a scalar.

    Raises
    ------
    NonConvergence
        If |B| exceeds an overflow guard during integration, which signals a
        divergent iteration rather than a meaningful value.
    """
    if not 0.0 <= t_e <= T:
        raise DomainError("integrate_ab requires 0 <= t_e <= T")
    # At t_e = 0 the one stop is step 0, on no grid.
    grid, stops = [], [0]
    if t_e > 0.0:
        if n_steps is None:
            theta_top = float(np.abs(theta).max())
            if not theta_top < math.inf:
                raise DomainError("a Riccati pass takes finite theta only")
            n_steps = default_ab_steps(t_e, p, theta_top, T - t_e)
        if n_steps < 1:
            raise DomainError("n_steps must be >= 1")
        grid, stops = [(t_e, n_steps)], [n_steps]
    (snapshot,) = integrate_ab_snapshots(theta, T - t_e, grid, stops, p)
    if isinstance(snapshot, NonConvergence):
        raise snapshot
    return snapshot


def charfn_value(theta, x, v, t_e: float, T: float, p: ModelParams):
    """Conditional characteristic function exp(i theta x + A + B v).

    ``x`` must be finite, ``v`` finite and >= 0, and ``theta`` real and
    finite.  This is then the characteristic function of a genuine
    distribution, so its modulus cannot exceed 1; a material violation
    indicates a broken integration and raises.
    """
    if not (0.0 <= v < math.inf and np.isfinite(x).all()):
        raise DomainError("charfn_value requires finite x and v >= 0")
    a_val, b_val = integrate_ab(theta, t_e, T, p)
    exponent = 1j * np.multiply(theta, x) + a_val + b_val * v
    if np.any(np.real(exponent) > _MODULUS_TOLERANCE):
        raise NumericalError(
            "characteristic function modulus exceeded 1; integration is unreliable"
        )
    return np.exp(exponent)
