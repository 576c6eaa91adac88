"""Monte Carlo engine for the factor state and path-dependent payoffs.

The simulation carries four path quantities: the forward factors u1, u2,
the variance factor v, and the running integral of w = v - 1.  Forwards at
any settlement date are reconstructed from those factors on demand, either
with the exact drift accumulators, one row per tracked settlement, or with
the k(t, T) approximation; carrying int_w alone is what keeps the state
dimension independent of how many settlement dates a payoff touches.

Normals are generated in fixed blocks of 8192 paths by a counter-based
generator keyed on (seed, block index), so path i's draws are a pure
function of (seed, i).  Estimates are therefore bit-identical across
worker counts, and growing the path count never reshuffles earlier paths.
A block draws each step's (3, 8192) normals as it takes the step, which
continues one stream, and evolves every parameter set on them as one
stacked state, (set, path) arrays that each array operation of the Euler
step updates for all sets at once.  The sets of one call share their
shock correlations, and so the block's one correlated draw per step; a
study over several parameter sets pays for the normals, and for the
per-step overhead, once.  The costly path-independent coefficients,
k(t, T) per observation and each step's exact variance-rate integrals,
are tabulated once per grid before the workers start.  Each block
reconstructs the forwards its caller observes as it passes their nodes
and writes them into one shared (parameter set, observation, path)
array; no path state outlives its block.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .driftfactor import drift_factor
from .errors import DomainError, MissingSettlement, NumericalError, _index
from .model import (
    MarketCurves,
    ModelParams,
    factorize_correlation,
    integrated_variance,
    validate_params,
)
from .pricing import _norm_cdf, black76_vega, implied_vol

__all__ = [
    "McConfig",
    "PathState",
    "PayoffSpec",
    "McEstimate",
    "DriftStudyRow",
    "initial_state",
    "evolve_step",
    "forward_reconstruct",
    "price_payoff",
    "drift_error_study",
]

# Paths per RNG block.  Fixed: changing it changes which normals path i
# receives and silently breaks cross-version reproducibility.
_BLOCK = 8192

_DRIFT_MODES = ("exact_per_T", "approximate")


def _dates(dates) -> tuple[float, ...]:
    """Settlement dates as the engine keeps them: ascending, each once."""
    return tuple(sorted({float(T) for T in dates}))


@dataclass(frozen=True)
class McConfig:
    """Simulation configuration.

    ``exact_settlements`` lists the settlement dates a run may read with
    the exact drift, kept sorted and without duplicates; it is required
    (nonempty) in ``exact_per_T`` mode and ignored in ``approximate``
    mode.  ``price_payoff`` checks that it covers the payoff's dates and
    the drift study reads its one date; the engine itself carries an
    accumulator row only for each date an exact observation reads.
    ``threads`` splits path blocks across a thread pool; results do not
    depend on it.
    """

    n_paths: int
    n_steps: int
    horizon: float
    seed: int = 0
    drift_mode: str = "exact_per_T"
    exact_settlements: tuple[float, ...] = ()
    antithetic: bool = False
    threads: int = 1

    def __post_init__(self) -> None:
        for name in ("n_paths", "n_steps", "seed", "threads"):
            object.__setattr__(self, name, _index(getattr(self, name), name))
        if self.n_paths < 1:
            raise DomainError("n_paths must be >= 1")
        if self.n_steps < 1:
            raise DomainError("n_steps must be >= 1")
        if not (math.isfinite(self.horizon) and self.horizon > 0.0):
            raise DomainError("horizon must be finite and > 0")
        if not 0 <= self.seed < 2**64:
            raise DomainError("seed must fit in 64 unsigned bits")
        if self.drift_mode not in _DRIFT_MODES:
            raise DomainError(f"drift_mode must be one of {_DRIFT_MODES}")
        settlements = _dates(self.exact_settlements)
        if self.drift_mode == "exact_per_T" and not settlements:
            raise DomainError("exact_per_T mode needs at least one settlement")
        if any(T <= 0.0 or not math.isfinite(T) for T in settlements):
            raise DomainError("exact settlements must be finite and > 0")
        object.__setattr__(self, "exact_settlements", settlements)
        if self.antithetic and self.n_paths % 2:
            raise DomainError("antithetic pairing needs an even n_paths")
        if self.threads < 1:
            raise DomainError("threads must be >= 1")


@dataclass(frozen=True)
class PathState:
    """Factor state at one time, one value per path.

    ``v_raw`` is the signed variance factor propagated by the truncation
    scheme; every coefficient evaluation uses the floored value exposed
    as ``v``.  u1, u2, v_raw and int_w have shape (n_paths,).
    ``exact_drift`` holds one row per date of the ascending
    ``settlements``: the accumulated integral of v times that date's
    forward variance rate, shape (n_settlements, n_paths).

    A stacked state carries several parameter sets on the same paths
    with the set axis first: u1, u2, v_raw and int_w have shape (sets,
    n_paths) and ``exact_drift`` (sets, n_settlements, n_paths).  The
    engine holds one stacked state per block, at the current step only,
    and keeps the forwards read off it.
    """

    t: float
    u1: np.ndarray
    u2: np.ndarray
    v_raw: np.ndarray
    int_w: np.ndarray
    exact_drift: np.ndarray | None = None
    settlements: tuple[float, ...] = ()

    @property
    def v(self) -> np.ndarray:
        return np.maximum(self.v_raw, 0.0)


def initial_state(n_paths: int, exact_settlements: tuple[float, ...] = ()) -> PathState:
    """State of ``n_paths`` paths at t = 0: factors at zero, v at its
    long-run level 1, one zero drift row per distinct settlement."""
    settlements = _dates(exact_settlements)
    if not all(map(math.isfinite, settlements)):
        raise DomainError("settlements must be finite")
    drift = np.zeros((len(settlements), n_paths)) if settlements else None
    return PathState(t=0.0, u1=np.zeros(n_paths), u2=np.zeros(n_paths),
                     v_raw=np.ones(n_paths), int_w=np.zeros(n_paths),
                     exact_drift=drift, settlements=settlements)


def evolve_step(
    state: PathState,
    dt: float,
    normals,
    p: ModelParams | Sequence[ModelParams],
    *,
    rates=None,
) -> PathState:
    """One full-truncation Euler step.

    ``p`` is one parameter set, or a sequence of them for a stacked state
    (see `PathState`), which then takes the step for every set at once,
    each with its own coefficients.  ``normals`` holds the three
    already-correlated standard normals for the step, shape
    (3, n_paths); the sets of a stacked step share their shock
    correlations, and so this one draw.  The variance factor keeps
    its signed value; the floored value enters every coefficient,
    including the drift accumulators.  The state's exact drift rows, if
    it carries any, each add the floored v times the step's exact
    variance-rate integral, so deterministic pieces carry no
    discretization error and the exactness limits of the drift
    approximation survive to floating-point precision.  A settlement's
    row stops moving once t reaches it.

    ``rates`` holds those integrals, ``integrated_variance(t, min(t + dt,
    T), T, p)`` for each settlement still accruing at t, shape (sets,
    pending) or (pending,).  A caller that takes the same grid block
    after block tabulates them once and passes each step's row; without
    them the step evaluates them itself.  A stacked step gives each set
    what a step of that set alone gives, bit for bit.

    The state's arrays are updated in place and handed on to the new
    state, which differs from the input only in ``t``; copy the arrays
    first to keep them.
    """
    if not 0.0 < dt < math.inf:
        raise DomainError("dt must be finite and > 0")
    z = np.asarray(normals, dtype=float)
    stacked = not isinstance(p, ModelParams)
    ps = tuple(p) if stacked else (p,)
    u1, u2, v_raw, int_w = state.u1, state.u2, state.v_raw, state.int_w
    drift = state.exact_drift
    if not stacked:
        # Views with a length-1 set axis: the updates below reach the
        # caller's arrays.
        u1, u2, v_raw, int_w = u1[None], u2[None], v_raw[None], int_w[None]
        drift = None if drift is None else drift[None]
    shape = v_raw.shape
    if shape[:1] != (len(ps),):
        raise DomainError("a stacked state needs one row per parameter set")
    if z.shape != (3, shape[-1]):
        raise DomainError("normals must have shape (3, n_paths), shared by every set")
    # One (3, 1, n_paths) view that every set's row reads.
    shocks = z[:, None]
    t = state.t
    # Settlements ascend, so the rows still accruing (T > t) are a suffix.
    first = bisect.bisect_right(state.settlements, t)
    pending = len(state.settlements) - first
    # beta, alpha, e^{beta1 t} and e^{beta2 t} as (sets, 1) columns, the
    # exponentials from math.exp as the forwards' decay factors are.
    beta, alpha, growth1, growth2 = np.array(
        [(q.beta, q.alpha, math.exp(q.beta1 * t), math.exp(q.beta2 * t)) for q in ps]
    ).T[:, :, None]
    root_dt = math.sqrt(dt)
    # Every update keeps the association order of
    #   u1 + root_v * e^{beta1 t} * root_dt * z0,
    #   v_raw + beta (1 - v) dt + alpha * root_v * root_dt * z2,
    # and writes through one scratch array: rows 0-2 become the three
    # diffusion increments, the last row holds the floored v until the
    # increments need it, and the pending dates' drift products borrow
    # the leading rows first.
    scratch = np.empty((max(3, pending + 1),) + shape)
    vp = np.maximum(v_raw, 0.0, out=scratch[-1])
    if pending:
        if rates is None:
            rates = _step_rates(t, dt, state.settlements[first:], ps)
        rates = np.reshape(rates, (len(ps), pending, 1))
        drift[:, first:] += np.multiply(rates, vp[:, None], out=scratch[:pending].swapaxes(0, 1))
    step = np.subtract(vp, 1.0, out=scratch[0])
    step *= dt
    int_w += step
    increments = scratch[:3]
    root_v = np.sqrt(vp, out=increments[0])
    np.subtract(1.0, vp, out=vp)
    vp *= beta
    vp *= dt
    v_raw += vp
    np.multiply(root_v, growth2, out=increments[1])
    np.multiply(root_v, alpha, out=increments[2])
    root_v *= growth1
    increments *= root_dt
    increments *= shocks
    u1 += increments[0]
    u2 += increments[1]
    v_raw += increments[2]
    return replace(state, t=t + dt)


def _step_rates(
    t: float, dt: float, pending: tuple[float, ...], ps: Sequence[ModelParams]
) -> np.ndarray:
    """Exact variance-rate integral over [t, min(t + dt, T)] of each
    pending settlement T, one row per parameter set."""
    return np.array([[integrated_variance(t, min(t + dt, T), T, p) for T in pending]
                     for p in ps])


def forward_reconstruct(
    state: PathState,
    T: float,
    curves: MarketCurves,
    p: ModelParams,
    mode: str = "exact_per_T",
    *,
    k: float | None = None,
) -> float | np.ndarray:
    """Forward F(t, T) implied by the factor state.

    Exact mode reads the settlement's row of the drift accumulator;
    approximate mode rebuilds the integrated drift from its deterministic
    part, ``integrated_variance(0, t, T, p)``, a closed form of a few
    microseconds, plus k(t, T) times the integral of w.  A caller that
    reconstructs the same (t, T) block by block passes ``k``, which can
    take a numeric integral, evaluated once instead of per block.
    """
    if T < state.t:
        raise DomainError("settlement must not precede the state time")
    if mode == "exact_per_T":
        if T not in state.settlements:
            raise MissingSettlement(
                f"settlement T={T} has no exact drift accumulator"
            )
        drift_integral = state.exact_drift[state.settlements.index(T)]
    elif mode == "approximate":
        drift_integral = integrated_variance(0.0, state.t, T, p)
        if state.t > 0.0:
            if k is None:
                k = drift_factor(state.t, T, p)
            drift_integral = drift_integral + k * state.int_w
    else:
        raise DomainError(f"mode must be one of {_DRIFT_MODES}")
    decay1 = math.exp(-p.beta1 * T)
    decay2 = math.exp(-p.beta2 * T)
    x = -0.5 * drift_integral + p.sigma * (decay1 * state.u1 + p.R * decay2 * state.u2)
    return curves.forward(T) * np.exp(x)


_PAYOFF_KINDS = ("vanilla", "early_exercise", "asian_prompt")


@dataclass(frozen=True)
class PayoffSpec:
    """Payoff description for the simulator.

    ``vanilla`` and ``early_exercise`` are European options on F(t_e, T),
    the former with t_e = T.  ``asian_prompt`` averages the prompt
    forward over a fixing schedule given as (fixing time, settlement)
    pairs and settles at the last fixing's settlement date.  Strike 0 is
    allowed and turns a call into a position in the forward itself.
    Every date is finite.
    """

    kind: str
    strike: float
    option: str = "call"
    t_e: float | None = None
    T: float | None = None
    fixings: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in _PAYOFF_KINDS:
            raise DomainError(f"kind must be one of {_PAYOFF_KINDS}")
        if not (math.isfinite(self.strike) and self.strike >= 0.0):
            raise DomainError("strike must be finite and >= 0")
        if self.option not in ("call", "put"):
            raise DomainError("option must be 'call' or 'put'")
        if self.kind in ("vanilla", "early_exercise"):
            if self.t_e is None or self.T is None:
                raise DomainError(f"{self.kind} payoff needs t_e and T")
            if self.fixings:
                raise DomainError(f"{self.kind} payoff takes no fixings")
            if not 0.0 < self.t_e <= self.T < math.inf:
                raise DomainError("need 0 < t_e <= T < inf")
            if self.kind == "vanilla" and self.t_e != self.T:
                raise DomainError("vanilla means t_e = T; use early_exercise")
        else:
            if self.t_e is not None or self.T is not None:
                raise DomainError("asian_prompt takes a fixing schedule, not t_e/T")
            fixings = tuple((float(t), float(T)) for t, T in self.fixings)
            if not fixings:
                raise DomainError("asian_prompt needs at least one fixing")
            for fixing in fixings:
                if not all(map(math.isfinite, fixing)):
                    raise DomainError(f"fixing {fixing} has a date that is not finite")
            times = [t for t, _ in fixings]
            if any(t <= 0.0 for t in times) or any(
                b <= a for a, b in zip(times, times[1:])
            ):
                raise DomainError("fixing times must be positive and ascending")
            if any(T < t for t, T in fixings):
                raise DomainError("each fixing settles at or after its fixing time")
            object.__setattr__(self, "fixings", fixings)

    @property
    def schedule(self) -> tuple[tuple[float, float], ...]:
        """The (fixing time, settlement) pairs the payoff averages: an
        asian_prompt's fixings, or the one pair (t_e, T) of a European."""
        return self.fixings or ((float(self.t_e), float(self.T)),)

    @property
    def expiry(self) -> float:
        return self.schedule[-1][0]

    @property
    def payment_time(self) -> float:
        return self.schedule[-1][1]

    def settlements(self) -> tuple[float, ...]:
        return _dates(T for _, T in self.schedule)


@dataclass(frozen=True)
class McEstimate:
    """Estimate with its standard error over independent samples."""

    value: float
    std_error: float
    n_paths: int


@dataclass(frozen=True)
class DriftStudyRow:
    """Approximation error of the k(t, T) drift at one alpha.

    Errors are approximate minus exact on identical paths; the standard
    errors quote the statistical noise of the exact-mode estimates
    themselves.  Forward entries are in basis points of the forward,
    implied vol entries in percentage points of annualized vol.

    ``fwd_stderr_bp`` is the sample standard error of the mean exact
    forward.  It estimates the true noise only where E[F^2] is finite at
    the horizon; at alphas where the second moment explodes before t_e
    it reflects the largest paths of the sample and estimates nothing.
    The vol stderr columns are the delta-method standard error of the
    exact-mode vol backed out against the simulated mean forward (see
    ``drift_error_study``), not the price stderr over vega: the payoff
    mean and that forward come from the same paths and move together.
    """

    alpha: float
    fwd_err_bp: float
    fwd_stderr_bp: float
    atm_vol_err_pct: float
    atm_vol_stderr_pct: float
    otm_vol_err_pct: float
    otm_vol_stderr_pct: float


def _grid_with_inserted(cfg: McConfig, required: tuple[float, ...]) -> np.ndarray:
    """Uniform grid with the required times added as exact nodes."""
    times = np.linspace(0.0, cfg.horizon, cfg.n_steps + 1)
    tol = 1e-9 * max(1.0, cfg.horizon)
    extras = []
    for t in sorted(set(required)):
        if not 0.0 < t <= cfg.horizon + tol:
            raise DomainError(f"time {t} lies outside the simulation horizon (0, {cfg.horizon}]")
        if np.min(np.abs(times - t)) > tol:
            extras.append(min(t, cfg.horizon))
    if extras:
        times = np.sort(np.concatenate([times, extras]))
    return times


def _nearest_node(times: np.ndarray, t: float) -> int:
    return int(np.argmin(np.abs(times - t)))


def _block_philox(seed: int, block: int) -> np.random.Generator:
    key = np.array([seed, block], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _simulate_forwards(
    cfg: McConfig,
    curves: MarketCurves,
    ps: Sequence[ModelParams],
    times: np.ndarray,
    observations: tuple[tuple[int, float, str], ...],
) -> np.ndarray:
    """Forwards at each (node, T, mode) observation for every set in ``ps``.

    The sets must share their shock correlations (rho, rho1, rho2).  Each
    block draws and correlates its normals once per step and evolves
    every parameter set on them as one stacked state, so entry i of the
    result equals a separate run of ``ps[i]``.  The state carries an
    exact drift row for each settlement an exact observation reads, and
    no other.  Returns an array of shape (len(ps), len(observations),
    n_paths); an empty ``ps`` draws nothing.
    """
    ps = tuple(ps)
    out = np.empty((len(ps), len(observations), cfg.n_paths))
    if not ps:
        return out
    if len({(p.rho, p.rho1, p.rho2) for p in ps}) > 1:
        raise DomainError("stacked parameter sets must share rho, rho1 and rho2")
    transform = factorize_correlation(ps[0])
    settlements = _dates(T for _, T, mode in observations if mode == "exact_per_T")
    at_node: dict[int, list[int]] = {}
    for j, (node, _, _) in enumerate(observations):
        at_node.setdefault(node, []).append(j)
    dts = [float(dt) for dt in np.diff(times)]
    # State times as evolve_step sums them, so each approximate
    # observation's k(t, T) and each step's variance-rate integrals are
    # evaluated once per grid here rather than once per block in the
    # workers.  The deterministic drift integral, one closed form, is
    # left to each block's reconstruction.
    state_t = list(itertools.accumulate(dts, initial=0.0))
    ks = [[drift_factor(state_t[node], T, p)
           if mode == "approximate" and state_t[node] > 0.0 else None
           for node, T, mode in observations]
          for p in ps]
    rates = []
    for t, dt in zip(state_t, dts):
        pending = settlements[bisect.bisect_right(settlements, t):]
        rates.append(_step_rates(t, dt, pending, ps) if pending else None)
    base = _BLOCK // 2 if cfg.antithetic else _BLOCK

    def run(block: int) -> None:
        n_cols = min(_BLOCK, cfg.n_paths - block * _BLOCK)
        paths = slice(block * _BLOCK, block * _BLOCK + n_cols)
        if cfg.antithetic:
            cols = np.arange(n_cols)
            pairs = cols // 2
            signs = np.where(cols % 2 == 0, 1.0, -1.0)
        rng = _block_philox(cfg.seed, block)
        rows = (len(ps), n_cols)
        state = PathState(
            t=0.0, u1=np.zeros(rows), u2=np.zeros(rows), v_raw=np.ones(rows),
            int_w=np.zeros(rows), settlements=settlements,
            exact_drift=np.zeros((len(ps), len(settlements), n_cols)) if settlements else None,
        )

        def observe(node: int) -> None:
            for j in at_node.get(node, ()):
                _, T, mode = observations[j]
                for i, p in enumerate(ps):
                    out[i, j, paths] = forward_reconstruct(
                        _set_state(state, i), T, curves, p, mode, k=ks[i][j])

        observe(0)
        for n, dt in enumerate(dts):
            # Always draw the full (3, base) shape, so a path's normals do
            # not depend on how full the final block is; per-step draws
            # continue the stream one (n_steps, 3, base) draw would give.
            draw = rng.standard_normal((3, base))
            z = draw[:, pairs] * signs if cfg.antithetic else draw[:, :n_cols]
            state = evolve_step(state, dt, transform @ z, ps, rates=rates[n])
            observe(n + 1)

    n_blocks = -(-cfg.n_paths // _BLOCK)
    if cfg.threads > 1 and n_blocks > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            list(pool.map(run, range(n_blocks)))
    else:
        for b in range(n_blocks):
            run(b)
    return out


def _set_state(state: PathState, i: int) -> PathState:
    """Parameter set i of a stacked state, as views of its rows."""
    drift = None if state.exact_drift is None else state.exact_drift[i]
    return replace(state, u1=state.u1[i], u2=state.u2[i], v_raw=state.v_raw[i],
                   int_w=state.int_w[i], exact_drift=drift)


def _mean_se(samples: np.ndarray, antithetic: bool) -> tuple[float, float]:
    if antithetic:
        samples = 0.5 * (samples[0::2] + samples[1::2])
    n = samples.size
    mean = float(np.mean(samples))
    if n < 2:
        return mean, 0.0
    return mean, float(np.std(samples, ddof=1) / math.sqrt(n))


def _apply_option(forward_avg: np.ndarray, payoff: PayoffSpec) -> np.ndarray:
    if payoff.option == "call":
        return np.maximum(forward_avg - payoff.strike, 0.0)
    return np.maximum(payoff.strike - forward_avg, 0.0)


def price_payoff(
    payoff: PayoffSpec,
    cfg: McConfig,
    curves: MarketCurves,
    p: ModelParams,
) -> McEstimate:
    """Discounted Monte Carlo price of ``payoff`` with its standard error.

    Each fixing time of the payoff's schedule is inserted into the time
    grid exactly; one past the horizon raises `DomainError`.  With
    antithetic sampling the standard error is computed over pair means.
    """
    validate_params(p)
    times = _grid_with_inserted(cfg, tuple(t for t, _ in payoff.schedule))
    if cfg.drift_mode == "exact_per_T":
        tracked = set(cfg.exact_settlements)
        for T in payoff.settlements():
            if T not in tracked:
                raise MissingSettlement(
                    f"settlement T={T} is not in exact_settlements"
                )
    observations = tuple((_nearest_node(times, t), T, cfg.drift_mode)
                         for t, T in payoff.schedule)

    (forwards,) = _simulate_forwards(cfg, curves, (p,), times, observations)
    total = forwards[0]
    for forward in forwards[1:]:
        total = total + forward
    average = total / len(forwards)
    discounted = curves.discount(payoff.payment_time) * _apply_option(average, payoff)
    value, std_error = _mean_se(discounted, cfg.antithetic)
    return McEstimate(value=value, std_error=std_error, n_paths=cfg.n_paths)


def drift_error_study(
    alphas,
    cfg: McConfig,
    curves: MarketCurves,
    p_base: ModelParams,
) -> tuple[DriftStudyRow, ...]:
    """Paired exact-versus-approximate drift comparison across alphas.

    Every alpha is validated before anything is drawn.  All alphas then
    share one simulation: each block draws its normals once and evolves
    every alpha on them, carrying both drift representations, and keeps
    only each alpha's exact and approximate forwards at the horizon, so
    each row equals a study of that alpha alone.  Paths expire at the
    horizon on the single tracked settlement date.  Strikes sit at the
    initial forward and at 1.4 times the initial forward.  Each mode's
    implied vol is backed out against that mode's own simulated mean
    forward,
    vol_e = implied_vol(D pay_e, mean_e, K, ...), so the vol columns
    isolate the smile distortion from the forward-level error reported
    separately in basis points.

    The vol stderr is the delta-method stderr of that vol_e: the stderr
    of the mean of payoff - N(d1) F, with d1 at (mean_e, K, vol_e),
    times D / vega, taken over pair means under antithetic sampling.
    The forward stderr is a sample value; at alphas where E[F^2]
    explodes before t_e it has no finite target and estimates nothing.
    A strike whose exact-mode vol is 0, as when no path ends above it,
    or whose vega underflows, has no vol stderr and raises
    `NumericalError`.
    """
    params, forwards = _study_forwards(alphas, cfg, curves, p_base)
    return _study_rows(params, forwards, cfg, curves)


def _study_forwards(
    alphas,
    cfg: McConfig,
    curves: MarketCurves,
    p_base: ModelParams,
) -> tuple[list[ModelParams], np.ndarray]:
    """The study's parameter sets and their (exact, approximate) forwards
    at the horizon, shape (len(alphas), 2, n_paths)."""
    if len(cfg.exact_settlements) != 1:
        raise DomainError("the study needs exactly one tracked settlement")
    t_e = cfg.horizon
    T = cfg.exact_settlements[0]
    if T < t_e:
        raise DomainError("the tracked settlement precedes the horizon")
    times = _grid_with_inserted(cfg, (t_e,))
    node = _nearest_node(times, t_e)
    params = [validate_params(replace(p_base, alpha=float(alpha))) for alpha in alphas]
    observations = ((node, T, "exact_per_T"), (node, T, "approximate"))
    return params, _simulate_forwards(cfg, curves, params, times, observations)


def _study_rows(
    params: Sequence[ModelParams],
    forwards: np.ndarray,
    cfg: McConfig,
    curves: MarketCurves,
) -> tuple[DriftStudyRow, ...]:
    """One `DriftStudyRow` per parameter set from its horizon forwards."""
    t_e = cfg.horizon
    T = cfg.exact_settlements[0]
    F0 = curves.forward(T)
    D = curves.discount(T)
    strikes = {"atm": F0, "otm": 1.4 * F0}
    rows = []
    for p, (f_exact, f_approx) in zip(params, forwards):
        mean_e, se_e = _mean_se(f_exact, cfg.antithetic)
        mean_a, _ = _mean_se(f_approx, cfg.antithetic)
        fwd_err_bp = (mean_a - mean_e) / F0 * 1e4
        fwd_stderr_bp = se_e / F0 * 1e4

        vol_cols = {}
        for label, K in strikes.items():
            payoff_e = np.maximum(f_exact - K, 0.0)
            pay_e, _ = _mean_se(payoff_e, cfg.antithetic)
            pay_a, _ = _mean_se(np.maximum(f_approx - K, 0.0), cfg.antithetic)
            vol_e = implied_vol(D * pay_e, mean_e, K, t_e, D)
            vol_a = implied_vol(D * pay_a, mean_a, K, t_e, D)
            if vol_e <= 0.0:
                raise NumericalError(f"alpha={p.alpha:g}: the exact-mode payoff at K={K:.6g} "
                                     f"averages {pay_e:.3g} over {cfg.n_paths} paths, so its "
                                     f"implied vol is 0 and has no stderr")
            # dC/dF = N(d1): vol_e moves with the mean of pay - N(d1) F.
            s = vol_e * math.sqrt(t_e)
            d1 = math.log(mean_e / K) / s + 0.5 * s
            delta = _norm_cdf(d1)
            _, se_resid = _mean_se(payoff_e - delta * f_exact, cfg.antithetic)
            vega = black76_vega(mean_e, K, t_e, vol_e, D)
            if not vega > 0.0:
                raise NumericalError(f"alpha={p.alpha:g}: vega at K={K:.6g} underflows to 0")
            vol_cols[label] = (
                (vol_a - vol_e) * 100.0,
                D * se_resid / vega * 100.0,
            )
        rows.append(
            DriftStudyRow(
                alpha=p.alpha,
                fwd_err_bp=fwd_err_bp,
                fwd_stderr_bp=fwd_stderr_bp,
                atm_vol_err_pct=vol_cols["atm"][0],
                atm_vol_stderr_pct=vol_cols["atm"][1],
                otm_vol_err_pct=vol_cols["otm"][0],
                otm_vol_stderr_pct=vol_cols["otm"][1],
            )
        )
    return tuple(rows)
