"""Path evolution, forward reconstruction, payoff pricing, the RNG
contract, and the paired drift comparison."""

import itertools
import math
import tracemalloc
from dataclasses import astuple, replace

import numpy as np
import pytest
from scipy.stats import norm

from fwdvol import (
    DomainError,
    InvalidModelParams,
    McConfig,
    MissingSettlement,
    NumericalError,
    OptionSpec,
    PayoffSpec,
    call_price,
    flat_curves,
)
from fwdvol.mc import (
    _BLOCK,
    PathState,
    _apply_option,
    _block_philox,
    _grid_with_inserted,
    _mean_se,
    _nearest_node,
    _simulate_forwards,
    drift_error_study,
    evolve_step,
    forward_reconstruct,
    initial_state,
    price_payoff,
)
from fwdvol.model import factorize_correlation, integrated_variance

from test_model_core import make
from test_drift_factor import make5


def _lognormal_tail(k: float, s: float, K: float) -> float:
    """E[X^k 1{X > K}] for the unit-mean lognormal X = exp(-s^2/2 + s Z)."""
    m = -0.5 * s * s
    return math.exp(k * m + 0.5 * (k * s) ** 2) * norm.cdf((m + k * s * s - math.log(K)) / s)


def lognormal_residual_moment(j: int, K: float, s: float) -> float:
    """E[R^j] for the residual R = (X - K)^+ - N(d1) X of a unit-mean
    lognormal X with log standard deviation s, d1 = -ln K / s + s / 2.

    R is a X - K above the strike (a = 1 - N(d1)) and -N(d1) X below it,
    so each power expands into partial moments of X.
    """
    delta = norm.cdf(-math.log(K) / s + 0.5 * s)
    above = sum(math.comb(j, i) * (1.0 - delta) ** i * (-K) ** (j - i) * _lognormal_tail(i, s, K)
                for i in range(j + 1))
    below = (-delta) ** j * (math.exp(0.5 * j * (j - 1) * s * s) - _lognormal_tail(j, s, K))
    return above + below


def lognormal_vol_stderr(K: float, s: float, t_e: float, n_paths: int,
                         antithetic: bool = False) -> float:
    """Delta-method stderr, in vol points, of the implied vol backed out
    against the sample mean forward when the forward is lognormal with
    F0 = 1 and total log variance s^2: the stderr of the mean of
    R = (X - K)^+ - N(d1) X divided by the undiscounted vega.

    Antithetic pairs map X to X' = c / X with c = exp(-s^2), so the pair
    covariance follows from the same partial moments.
    """
    d1 = -math.log(K) / s + 0.5 * s
    delta = norm.cdf(d1)
    mean = lognormal_residual_moment(1, K, s)
    var = lognormal_residual_moment(2, K, s) - mean * mean
    if antithetic:
        c = math.exp(-s * s)
        pay_fwd = c * (_lognormal_tail(0, s, K) - K * _lognormal_tail(-1, s, K))
        pay_pay = 0.0
        if K * K < c:
            def band(k):
                return _lognormal_tail(k, s, K) - _lognormal_tail(k, s, c / K)
            pay_pay = (c + K * K) * band(0) - K * c * band(-1) - K * band(1)
        cov = pay_pay - 2.0 * delta * pay_fwd + delta * delta * c - mean * mean
        # n / 2 pair means, each of variance (var + cov) / 2.
        var = var + cov
    return 100.0 * math.sqrt(var / n_paths) / (math.sqrt(t_e) * norm.pdf(d1))


def small_cfg(**overrides) -> McConfig:
    base = dict(n_paths=20_000, n_steps=50, horizon=1.0, seed=11,
                drift_mode="exact_per_T", exact_settlements=(1.0,))
    return McConfig(**{**base, **overrides})


# Twelve monthly fixings, each reading the forward that settles a month on.
STRIP = tuple((m / 12, (m + 1) / 12) for m in range(1, 13))

# Differs from the fig1 set in every field, correlations included.
DISTINCT_KW = dict(sigma=0.6, beta1=0.3, beta2=2.0, R=0.8, rho=0.2, beta=1.2,
                   alpha=0.5, rho1=-0.2, rho2=0.4)


def hex_bits(forwards: np.ndarray) -> list[str]:
    return [x.hex() for x in forwards.ravel().tolist()]


def reference_step(state, dt, normals, p, mode):
    """The former `evolve_step`: the exact drift is a {T: accumulator}
    dict rebuilt over every settlement at every step."""
    z = np.asarray(normals, dtype=float)
    t = state.t
    vp = state.v
    root_v = np.sqrt(vp)
    root_dt = math.sqrt(dt)
    u1 = state.u1 + root_v * math.exp(p.beta1 * t) * root_dt * z[0]
    u2 = state.u2 + root_v * math.exp(p.beta2 * t) * root_dt * z[1]
    v_raw = state.v_raw + p.beta * (1.0 - vp) * dt + p.alpha * root_v * root_dt * z[2]
    int_w = state.int_w + (vp - 1.0) * dt
    drift = state.exact_drift
    if mode == "exact_per_T" and drift is not None:
        updated = {}
        for T, acc in drift.items():
            upper = min(t + dt, T)
            if upper > t:
                acc = acc + vp * integrated_variance(t, upper, T, p)
            updated[T] = acc
        drift = updated
    return PathState(t=t + dt, u1=u1, u2=u2, v_raw=v_raw, int_w=int_w, exact_drift=drift)


def reference_simulate(cfg, p, times, obs_nodes, track_exact):
    """The former engine, the oracle for the per-block forwards: each block
    draws all its normals as one (n_steps, 3, base) array, steps with
    `reference_step` and keeps its full state at every observed node; the
    blocks' snapshots are then concatenated node by node."""
    settlements = cfg.exact_settlements if track_exact else ()
    mode = "exact_per_T" if track_exact else "approximate"
    transform = factorize_correlation(p)
    base = _BLOCK // 2 if cfg.antithetic else _BLOCK
    per_block = []
    for b in range(-(-cfg.n_paths // _BLOCK)):
        n_cols = min(_BLOCK, cfg.n_paths - b * _BLOCK)
        draws = _block_philox(cfg.seed, b).standard_normal((len(times) - 1, 3, base))
        if cfg.antithetic:
            cols = np.arange(n_cols)
            z_block = draws[:, :, cols // 2] * np.where(cols % 2 == 0, 1.0, -1.0)
        else:
            z_block = draws[:, :, :n_cols]
        state = PathState(
            t=0.0, u1=np.zeros(n_cols), u2=np.zeros(n_cols), v_raw=np.ones(n_cols),
            int_w=np.zeros(n_cols),
            exact_drift={T: np.zeros(n_cols) for T in settlements} if settlements else None,
        )
        snapshots = {}
        for n in range(len(times) - 1):
            state = reference_step(state, float(times[n + 1] - times[n]),
                                   transform @ z_block[n], p, mode)
            if n + 1 in obs_nodes:
                snapshots[n + 1] = state
        per_block.append(snapshots)

    merged = {}
    for node in obs_nodes:
        pieces = [blk[node] for blk in per_block]

        def cat(name):
            return np.concatenate([getattr(s, name) for s in pieces])

        drift = None
        if settlements:
            drift = np.stack([np.concatenate([s.exact_drift[T] for s in pieces])
                              for T in settlements])
        merged[node] = PathState(t=pieces[0].t, u1=cat("u1"), u2=cat("u2"),
                                 v_raw=cat("v_raw"), int_w=cat("int_w"),
                                 exact_drift=drift, settlements=settlements)
    return merged


def reference_price(payoff, cfg, curves, p):
    """`price_payoff` on `reference_simulate`: (value, std_error) from
    forwards reconstructed out of the merged snapshots."""
    fixings = payoff.fixings if payoff.kind == "asian_prompt" else ((payoff.t_e, payoff.T),)
    times = _grid_with_inserted(cfg, tuple(t for t, _ in fixings))
    fixing_nodes = [(_nearest_node(times, t), T) for t, T in fixings]
    obs_nodes = tuple(sorted({node for node, _ in fixing_nodes}))
    states = reference_simulate(cfg, p, times, obs_nodes, cfg.drift_mode == "exact_per_T")
    total = None
    for node, T in fixing_nodes:
        forward = forward_reconstruct(states[node], T, curves, p, cfg.drift_mode)
        total = forward if total is None else total + forward
    average = total / len(fixing_nodes)
    discounted = curves.discount(payoff.payment_time) * _apply_option(average, payoff)
    return _mean_se(discounted, cfg.antithetic)


def traced_peak(fn, *args) -> int:
    """Peak bytes allocated while ``fn(*args)`` runs; tracemalloc sees
    numpy's buffers."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMcConfig:
    def test_rejects_empty_settlements_in_exact_mode(self):
        with pytest.raises(DomainError):
            McConfig(n_paths=10, n_steps=10, horizon=1.0, seed=0,
                     drift_mode="exact_per_T", exact_settlements=())

    def test_rejects_bad_counts(self):
        with pytest.raises(DomainError):
            McConfig(n_paths=0, n_steps=10, horizon=1.0, seed=0,
                     drift_mode="approximate")
        with pytest.raises(DomainError):
            McConfig(n_paths=10, n_steps=0, horizon=1.0, seed=0,
                     drift_mode="approximate")
        with pytest.raises(DomainError):
            McConfig(n_paths=10, n_steps=10, horizon=0.0, seed=0,
                     drift_mode="approximate")

    @pytest.mark.parametrize("name, value", [("n_paths", 2000.0), ("n_steps", 10.0),
                                             ("seed", 1.5), ("threads", 2.5)])
    def test_counts_must_be_integers(self, name, value):
        # seed 1.5 used to price bit for bit as seed 1 and threads 2.5 to
        # be accepted; float path and step counts failed later in numpy.
        counts = {"n_paths": 2000, "n_steps": 10, "seed": 1, "threads": 2}
        with pytest.raises(DomainError, match=name):
            McConfig(horizon=1.0, drift_mode="approximate", **{**counts, name: value})
        cfg = McConfig(horizon=1.0, drift_mode="approximate",
                       **{k: np.int64(n) for k, n in counts.items()})
        assert all(type(getattr(cfg, k)) is int for k in counts)

    def test_antithetic_needs_even_paths(self):
        with pytest.raises(DomainError):
            McConfig(n_paths=11, n_steps=10, horizon=1.0, seed=0,
                     drift_mode="approximate", antithetic=True)

    def test_settlements_are_sorted(self):
        cfg = McConfig(n_paths=10, n_steps=10, horizon=1.0, seed=0,
                       drift_mode="exact_per_T", exact_settlements=(3.0, 1.0))
        assert cfg.exact_settlements == (1.0, 3.0)

    def test_duplicate_settlements_collapse(self, curves):
        # One accumulator row per date: a repeated date must not turn a
        # one-settlement study into a two-settlement one.
        cfg = small_cfg(n_paths=1_000, n_steps=5, exact_settlements=(2.0, 1.0, 2.0))
        assert cfg.exact_settlements == (1.0, 2.0)
        twice = small_cfg(n_paths=1_000, n_steps=5, exact_settlements=(2.0, 2.0))
        once = small_cfg(n_paths=1_000, n_steps=5, exact_settlements=(2.0,))
        assert twice == once
        assert drift_error_study((1.0,), twice, curves, make5()) == \
            drift_error_study((1.0,), once, curves, make5())


class TestEvolveStep:
    def test_constant_variance_without_vol_of_vol(self):
        p = make(alpha=0.0, beta=0.7)
        state = initial_state(n_paths=4, exact_settlements=(2.0,))
        rng = np.random.default_rng(3)
        for _ in range(25):
            state = evolve_step(state, 0.04, rng.standard_normal((3, 4)), p)
        np.testing.assert_allclose(state.v, 1.0, atol=1e-14)
        np.testing.assert_allclose(state.int_w, 0.0, atol=1e-14)

    def test_zero_normals_leave_factors_still(self):
        p = make()
        state = initial_state(n_paths=2, exact_settlements=(2.0,))
        state = evolve_step(state, 0.01, np.zeros((3, 2)), p)
        np.testing.assert_array_equal(state.u1, 0.0)
        np.testing.assert_array_equal(state.u2, 0.0)
        np.testing.assert_allclose(state.v, 1.0, atol=1e-15)

    def test_single_step_factor_increment(self):
        state = initial_state(n_paths=1, exact_settlements=(2.0,))
        normals = np.array([[1.0], [0.0], [0.0]])
        state = evolve_step(state, 0.01, normals, make())
        assert state.u1[0] == pytest.approx(0.1, abs=1e-15)
        assert state.u2[0] == 0.0
        assert state.t == pytest.approx(0.01)

    def test_one_set_step_updates_callers_arrays_in_place(self):
        state = initial_state(4, (2.0,))
        names = ("u1", "u2", "v_raw", "int_w", "exact_drift")
        before = {name: getattr(state, name).copy() for name in names}
        moved = state
        for z in np.random.default_rng(7).standard_normal((2, 3, 4)):
            moved = evolve_step(moved, 0.1, z, make())
        assert (state.t, moved.t) == (0.0, 0.2)
        for name in names:
            assert getattr(moved, name) is getattr(state, name), name
            assert np.all(getattr(state, name) != before[name]), name

    def test_stacked_step_matches_each_set(self):
        # Two sets that differ in every coefficient, on the same normals
        # and no rate table, against single-set steps, bit for bit; the
        # stacked arrays are updated in place.
        ps = (make(), make(**DISTINCT_KW))
        settlements = (0.3, 2.0)
        rng = np.random.default_rng(5)
        normals = rng.standard_normal((6, 3, 4))
        single = [initial_state(4, settlements) for _ in ps]
        rows = (len(ps), 4)
        stacked = PathState(t=0.0, u1=np.zeros(rows), u2=np.zeros(rows), v_raw=np.ones(rows),
                            int_w=np.zeros(rows), exact_drift=np.zeros((2, 2, 4)),
                            settlements=settlements)
        u1 = stacked.u1
        for z in normals:
            stacked = evolve_step(stacked, 0.1, z, ps)
            single = [evolve_step(s, 0.1, z, p) for s, p in zip(single, ps)]
        assert stacked.u1 is u1
        for i, state in enumerate(single):
            for name in ("u1", "u2", "v_raw", "int_w", "exact_drift"):
                got = getattr(stacked, name)[i]
                assert got.tobytes() == getattr(state, name).tobytes(), name

    def test_rejects_per_set_normals(self):
        # The sets of a stacked step share one (3, n_paths) draw.
        ps = (make(), make(alpha=2.0))
        rows = (len(ps), 4)
        stacked = PathState(t=0.0, u1=np.zeros(rows), u2=np.zeros(rows), v_raw=np.ones(rows),
                            int_w=np.zeros(rows))
        with pytest.raises(DomainError, match="shared by every set"):
            evolve_step(stacked, 0.1, np.zeros((len(ps), 3, 4)), ps)

    @pytest.mark.parametrize("dt", [math.inf, math.nan])
    @pytest.mark.parametrize("settlements", [(), (2.0,)])
    def test_non_finite_step_is_a_domain_error(self, dt, settlements):
        # An infinite step used to run the state to inf; a NaN one with no
        # pending settlement returned t = NaN.
        state = initial_state(4, settlements)
        with pytest.raises(DomainError, match="dt"):
            evolve_step(state, dt, np.zeros((3, 4)), make())
        assert state.t == 0.0 and np.all(state.v_raw == 1.0)

    @pytest.mark.parametrize("T", [math.nan, math.inf])
    def test_initial_state_rejects_a_non_finite_settlement(self, T):
        with pytest.raises(DomainError, match="finite"):
            initial_state(4, (1.0, T))

    def test_variance_never_negative_in_coefficients(self):
        # Drive v far below zero; the truncated view must floor at 0.
        p = make5(alpha=3.0)
        state = initial_state(n_paths=1, exact_settlements=(2.0,))
        down = np.array([[0.0], [0.0], [-8.0]])
        for _ in range(10):
            state = evolve_step(state, 0.1, down, p)
        assert state.v[0] == 0.0
        assert state.v_raw[0] < 0.0


class TestForwardReconstruct:
    def test_initial_state_returns_curve_forward(self, curves):
        state = initial_state(n_paths=3, exact_settlements=(2.0,))
        f = forward_reconstruct(state, 2.0, curves, make(), "exact_per_T")
        np.testing.assert_array_equal(f, 1.0)

    def test_short_rate_paths_positive(self, curves):
        p = make5(alpha=3.0)
        cfg = small_cfg(n_paths=5_000, exact_settlements=(2.0,))
        payoff = PayoffSpec(kind="early_exercise", strike=1e-12, option="call",
                            t_e=1.0, T=2.0)
        est = price_payoff(payoff, cfg, curves, p)
        assert est.value > 0.0

    def test_untracked_settlement_raises(self, curves):
        state = initial_state(n_paths=2, exact_settlements=(2.0,))
        with pytest.raises(MissingSettlement):
            forward_reconstruct(state, 3.0, curves, make(), "exact_per_T")


class TestPayoffSpec:
    def test_vanilla_expiry_equals_settlement(self):
        payoff = PayoffSpec(kind="vanilla", strike=1.0, option="call", t_e=1.0, T=1.0)
        assert payoff.expiry == 1.0
        assert payoff.settlements() == (1.0,)

    def test_vanilla_rejects_split_dates(self):
        with pytest.raises(DomainError):
            PayoffSpec(kind="vanilla", strike=1.0, option="call", t_e=1.0, T=2.0)

    def test_asian_fixings_must_ascend(self):
        with pytest.raises(DomainError):
            PayoffSpec(kind="asian_prompt", strike=1.0, option="call",
                       fixings=((0.5, 1.0), (0.25, 0.5)))

    def test_asian_settlement_before_fixing_rejected(self):
        with pytest.raises(DomainError):
            PayoffSpec(kind="asian_prompt", strike=1.0, option="call",
                       fixings=((0.5, 0.25),))

    @pytest.mark.parametrize("fixings", [((math.nan, 1.0),), ((0.5, math.nan),),
                                         ((0.5, math.inf),), ((0.25, 0.5), (math.inf, math.inf))])
    def test_asian_non_finite_fixing_rejected(self, fixings):
        with pytest.raises(DomainError, match="not finite"):
            PayoffSpec(kind="asian_prompt", strike=1.0, option="call", fixings=fixings)

    @pytest.mark.parametrize("kind, t_e, T", [("early_exercise", 1.0, math.inf),
                                              ("vanilla", math.inf, math.inf),
                                              ("early_exercise", math.nan, 1.0),
                                              ("early_exercise", 0.5, math.nan)])
    def test_european_non_finite_dates_rejected(self, kind, t_e, T):
        with pytest.raises(DomainError, match="T < inf"):
            PayoffSpec(kind=kind, strike=1.0, option="call", t_e=t_e, T=T)

    def test_schedule_of_each_kind(self):
        # A European is a schedule of one (t_e, T) pair; expiry, payment
        # time and settlements read the schedule.
        vanilla = PayoffSpec(kind="vanilla", strike=1.0, t_e=1, T=1)
        early = PayoffSpec(kind="early_exercise", strike=1.0, t_e=0.5, T=2.0)
        asian = PayoffSpec(kind="asian_prompt", strike=1.0,
                           fixings=[(0.25, 1.0), (0.5, 0.75), (0.75, 1.0)])
        assert vanilla.schedule == ((1.0, 1.0),)
        assert early.schedule == ((0.5, 2.0),)
        assert asian.schedule == asian.fixings == ((0.25, 1.0), (0.5, 0.75), (0.75, 1.0))
        for payoff in (vanilla, early, asian):
            assert all(type(x) is float for pair in payoff.schedule for x in pair)
        assert [(p.expiry, p.payment_time, p.settlements()) for p in (vanilla, early, asian)] == [
            (1.0, 1.0, (1.0,)), (0.5, 2.0, (2.0,)), (0.75, 1.0, (0.75, 1.0))]


class TestPricePayoff:
    def test_mean_se_of_one_sample_has_no_stderr(self):
        # One sample, or one antithetic pair, has a mean and no spread.
        assert _mean_se(np.array([1.5]), False) == (1.5, 0.0)
        assert _mean_se(np.array([1.0, 2.0]), True) == (1.5, 0.0)

    def test_zero_strike_call_is_discounted_forward(self, curves):
        est = price_payoff(
            PayoffSpec(kind="vanilla", strike=1e-12, option="call", t_e=1.0, T=1.0),
            small_cfg(), curves, make(),
        )
        assert abs(est.value - 1.0) <= 4.0 * est.std_error

    def test_martingale_across_settlement_gap(self, curves):
        p = make5()
        cfg = small_cfg(n_paths=50_000, n_steps=100, exact_settlements=(2.0,))
        est = price_payoff(
            PayoffSpec(kind="early_exercise", strike=1e-12, option="call", t_e=1.0, T=2.0),
            cfg, curves, p,
        )
        assert abs(est.value - 1.0) <= 4.0 * est.std_error

    def test_matches_fourier_at_the_money(self, curves, quad):
        p = make()
        cfg = small_cfg(n_paths=100_000, n_steps=100)
        est = price_payoff(
            PayoffSpec(kind="vanilla", strike=1.0, option="call", t_e=1.0, T=1.0),
            cfg, curves, p,
        )
        analytic = call_price(OptionSpec(1.0, 1.0, 1.0, "call"), curves, p, quad)
        assert abs(est.value - analytic) <= 3.0 * est.std_error

    def test_put_call_parity_same_paths(self, curves):
        p = make()
        cfg = small_cfg()
        call = price_payoff(PayoffSpec(kind="vanilla", strike=1.1, option="call",
                                       t_e=1.0, T=1.0), cfg, curves, p)
        put = price_payoff(PayoffSpec(kind="vanilla", strike=1.1, option="put",
                                      t_e=1.0, T=1.0), cfg, curves, p)
        fwd = price_payoff(PayoffSpec(kind="vanilla", strike=0.0, option="call",
                                      t_e=1.0, T=1.0), cfg, curves, p)
        # Same seed means same paths, so parity holds against the sampled
        # forward to rounding.
        assert call.value - put.value == pytest.approx(fwd.value - 1.1, abs=1e-12)

    def test_asian_prompt_average_is_martingale(self, curves):
        p = make()
        fixings = ((0.25, 0.5), (0.5, 1.0), (0.75, 1.0))
        cfg = small_cfg(exact_settlements=(0.5, 1.0))
        est = price_payoff(
            PayoffSpec(kind="asian_prompt", strike=1e-12, option="call", fixings=fixings),
            cfg, curves, p,
        )
        assert abs(est.value - 1.0) <= 4.0 * est.std_error

    def test_off_grid_asian_fixing_is_inserted_exactly(self, curves):
        # 0.37 sits between the 0.36 and 0.38 nodes of the 50-step grid; a
        # one-fixing average is then the vanilla on the same (t_e, T).
        cfg = small_cfg()
        asian = price_payoff(
            PayoffSpec(kind="asian_prompt", strike=0.95, option="call", fixings=((0.37, 1.0),)),
            cfg, curves, make(),
        )
        vanilla = price_payoff(
            PayoffSpec(kind="early_exercise", strike=0.95, option="call", t_e=0.37, T=1.0),
            cfg, curves, make(),
        )
        assert asian == vanilla

    @pytest.mark.parametrize("mode", ["exact_per_T", "approximate"])
    def test_expiry_at_the_first_node_reads_the_initial_forward(self, curves, mode):
        # t_e = 1e-10 lies within the grid tolerance of t = 0, so the
        # payoff is observed on the initial state.
        cfg = small_cfg(n_paths=1_000, n_steps=10, drift_mode=mode)
        est = price_payoff(
            PayoffSpec(kind="early_exercise", strike=0.9, option="call", t_e=1e-10, T=1.0),
            cfg, curves, make(),
        )
        want = curves.discount(1.0) * (curves.forward(1.0) - 0.9)
        assert est.value == pytest.approx(want, rel=1e-14)

    def test_expiry_beyond_horizon_rejected(self, curves):
        with pytest.raises(DomainError):
            price_payoff(
                PayoffSpec(kind="vanilla", strike=1.0, option="call", t_e=2.0, T=2.0),
                small_cfg(exact_settlements=(2.0,)), curves, make(),
            )

    def test_untracked_payoff_settlement_rejected(self, curves):
        with pytest.raises(MissingSettlement):
            price_payoff(
                PayoffSpec(kind="early_exercise", strike=1.0, option="call",
                           t_e=1.0, T=1.5),
                small_cfg(), curves, make(),
            )


class TestReproducibility:
    def test_fixed_seed_is_bit_identical(self, curves):
        payoff = PayoffSpec(kind="vanilla", strike=1.0, option="call", t_e=1.0, T=1.0)
        a = price_payoff(payoff, small_cfg(), curves, make())
        b = price_payoff(payoff, small_cfg(), curves, make())
        assert a.value == b.value
        assert a.std_error == b.std_error

    def test_worker_count_does_not_change_results(self, curves):
        payoff = PayoffSpec(kind="vanilla", strike=1.0, option="call", t_e=1.0, T=1.0)
        cfg1 = small_cfg(n_paths=20_000, threads=1)
        cfg4 = small_cfg(n_paths=20_000, threads=4)
        a = price_payoff(payoff, cfg1, curves, make())
        b = price_payoff(payoff, cfg4, curves, make())
        assert a.value == b.value
        assert a.std_error == b.std_error

    def test_path_draws_do_not_depend_on_path_count(self, curves):
        # Growing the path count must not disturb the paths already drawn,
        # including across the internal block boundary.
        p = make()
        times = None
        finals = {}
        for n in (100, 300, 9000):
            cfg = small_cfg(n_paths=n, n_steps=5)
            times = _grid_with_inserted(cfg, (1.0,))
            node = _nearest_node(times, 1.0)
            ((finals[n],),) = _simulate_forwards(
                cfg, curves, (p,), times, ((node, 1.0, "exact_per_T"),)
            )
        np.testing.assert_array_equal(finals[300][:100], finals[100])
        np.testing.assert_array_equal(finals[9000][:300], finals[300])

    def test_antithetic_reduces_forward_error(self, curves):
        p = make(alpha=0.0)
        payoff = PayoffSpec(kind="vanilla", strike=1e-12, option="call", t_e=1.0, T=1.0)
        plain = price_payoff(payoff, small_cfg(antithetic=False), curves, p)
        paired = price_payoff(payoff, small_cfg(antithetic=True), curves, p)
        assert paired.std_error < plain.std_error

    def test_step_doubling_within_noise(self, curves):
        p = make5()
        payoff = PayoffSpec(kind="early_exercise", strike=1e-12, option="call",
                            t_e=1.0, T=2.0)
        coarse = price_payoff(payoff, small_cfg(n_paths=50_000, n_steps=50,
                                                exact_settlements=(2.0,)), curves, p)
        fine = price_payoff(payoff, small_cfg(n_paths=50_000, n_steps=100,
                                              exact_settlements=(2.0,)), curves, p)
        assert abs(fine.value - coarse.value) <= 2.0 * max(fine.std_error, coarse.std_error)


class TestEngineAgainstReference:
    CASES = {
        "strip_exact": (PayoffSpec(kind="asian_prompt", strike=1.0, fixings=STRIP),
                        "exact_per_T", make()),
        "strip_approximate": (PayoffSpec(kind="asian_prompt", strike=1.0, fixings=STRIP),
                              "approximate", make()),
        "vanilla": (PayoffSpec(kind="vanilla", strike=1.0, t_e=1.0, T=1.0),
                    "exact_per_T", make()),
        "early_exercise": (PayoffSpec(kind="early_exercise", strike=1.1, t_e=1.0, T=2.0),
                           "exact_per_T", make5()),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("antithetic", [False, True])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_price_matches_former_engine(self, curves, case, antithetic, threads):
        # 20k paths leave the third block partial; 30 steps put half the
        # strip's settlements between grid nodes, where a row stops
        # accruing mid-step.
        payoff, mode, p = self.CASES[case]
        settlements = payoff.settlements() if mode == "exact_per_T" else ()
        cfg = small_cfg(n_paths=20_000, n_steps=30, drift_mode=mode,
                        exact_settlements=settlements, antithetic=antithetic,
                        threads=threads)
        est = price_payoff(payoff, cfg, curves, p)
        want = reference_price(payoff, cfg, curves, p)
        assert (est.value.hex(), est.std_error.hex()) == tuple(x.hex() for x in want)

    @pytest.mark.parametrize("antithetic", [False, True])
    def test_per_step_draws_continue_the_block_stream(self, antithetic):
        # The engine draws (3, base) normals step by step; that must be
        # the stream one (n_steps, 3, base) draw of the block would give.
        base = _BLOCK // 2 if antithetic else _BLOCK
        whole = _block_philox(11, 2).standard_normal((7, 3, base))
        rng = _block_philox(11, 2)
        steps = np.stack([rng.standard_normal((3, base)) for _ in range(7)])
        assert steps.tobytes() == whole.tobytes()


class TestStackedSets:
    """Every parameter set of a block evolves as one stacked state; each
    set's forwards must still be those of that set run alone."""

    FAMILIES = {
        # No two sets share a field but the shock correlations, which
        # the sets of one simulation share; these keep fig1's.
        "distinct": (make(), make(**{k: v for k, v in DISTINCT_KW.items()
                                     if k not in ("rho", "rho1", "rho2")}),
                     make(sigma=0.25, beta1=0.05, beta2=0.6, R=-0.4, beta=0.0, alpha=2.0)),
        # The drift study: only alpha varies, so every set shares one
        # correlated draw per step.
        "study": tuple(make5(alpha=a) for a in (0.0, 1.0, 2.0, 3.0)),
    }

    @staticmethod
    def strip_setup(mode, **overrides):
        # 10k paths leave the second block partial; 30 steps put half the
        # strip's settlements between grid nodes.
        settlements = tuple(sorted({T for _, T in STRIP}))
        cfg = small_cfg(**{"n_paths": 10_000, "n_steps": 30, "drift_mode": mode,
                           "exact_settlements": settlements if mode == "exact_per_T" else (),
                           **overrides})
        times = _grid_with_inserted(cfg, tuple(t for t, _ in STRIP))
        observations = tuple((_nearest_node(times, t), T, mode) for t, T in STRIP)
        return cfg, times, observations

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("mode", ["exact_per_T", "approximate"])
    @pytest.mark.parametrize("antithetic", [False, True])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_each_set_equals_its_solo_run(self, curves, family, mode, antithetic, threads):
        ps = self.FAMILIES[family]
        cfg, times, observations = self.strip_setup(mode, antithetic=antithetic, threads=threads)
        stacked = _simulate_forwards(cfg, curves, ps, times, observations)
        for i, p in enumerate(ps):
            (alone,) = _simulate_forwards(replace(cfg, threads=1), curves, (p,), times,
                                          observations)
            assert hex_bits(stacked[i]) == hex_bits(alone), f"set {i}"

    def test_sets_must_share_their_shock_correlations(self, curves, monkeypatch):
        import fwdvol.mc as mc

        built = []
        monkeypatch.setattr(mc, "_block_philox", lambda *args: built.append(args))
        cfg, times, observations = self.strip_setup("approximate")
        with pytest.raises(DomainError, match="rho1"):
            _simulate_forwards(cfg, curves, (make(), make(rho1=0.4)), times, observations)
        assert built == []

    @pytest.mark.parametrize("n_paths", [5_000, 20_000])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_step_rates_are_tabulated_once_per_grid(self, curves, monkeypatch, n_paths, threads):
        # One integrated_variance call per step, still-accruing
        # settlement and set, however many blocks and workers run.
        import fwdvol.mc as mc

        calls = []
        real = mc.integrated_variance

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(mc, "integrated_variance", counting)
        ps = self.FAMILIES["distinct"]
        cfg, times, observations = self.strip_setup("exact_per_T", n_paths=n_paths,
                                                     threads=threads)
        _simulate_forwards(cfg, curves, ps, times, observations)
        state_t = itertools.accumulate(np.diff(times).tolist(), initial=0.0)
        pending = sum(T > t for t in list(state_t)[:-1] for T in cfg.exact_settlements)
        assert len(calls) == pending * len(ps)


    @pytest.mark.parametrize("n_paths", [5_000, 20_000])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_drift_factor_runs_once_per_grid(self, curves, monkeypatch, n_paths, threads):
        # Approximate mode reads k(t, T) once per observation and set,
        # however many blocks and workers run: one numeric k^2 costs
        # hundreds of microseconds.
        import fwdvol.mc as mc

        calls = []
        real = mc.drift_factor

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(mc, "drift_factor", counting)
        ps = self.FAMILIES["distinct"]
        cfg, times, observations = self.strip_setup("approximate", n_paths=n_paths,
                                                     threads=threads)
        _simulate_forwards(cfg, curves, ps, times, observations)
        assert len(calls) == len(observations) * len(ps)


class TestMemory:
    def test_strip_holds_no_path_state_per_fixing(self, curves):
        # Three blocks, 12 fixings, 12 accumulator rows: the forwards are
        # 2.4 MB; the former engine's snapshots peaked at 65 MB.
        payoff = PayoffSpec(kind="asian_prompt", strike=1.0, fixings=STRIP)
        cfg = small_cfg(n_paths=3 * _BLOCK, n_steps=120, seed=0,
                        exact_settlements=payoff.settlements())
        assert traced_peak(price_payoff, payoff, cfg, curves, make()) < 8e6

    def test_drift_study_grows_by_its_forwards_per_alpha(self, curves):
        # Each extra alpha adds its exact and approximate forwards over
        # all paths plus its state inside the block being evolved (five
        # rows of _BLOCK), not a full path state over all paths.
        cfg = small_cfg(n_paths=8 * _BLOCK, n_steps=5, exact_settlements=(2.0,))
        alphas = tuple(0.25 * i for i in range(13))
        growth = (traced_peak(drift_error_study, alphas, cfg, curves, make5())
                  - traced_peak(drift_error_study, alphas[:1], cfg, curves, make5()))
        per_alpha = 2 * cfg.n_paths * 8 + 8 * _BLOCK * 8
        assert growth <= (len(alphas) - 1) * per_alpha


class TestDriftErrorStudy:
    def test_zero_vol_of_vol_row_is_exact(self, curves):
        cfg = small_cfg(n_paths=5_000, n_steps=20, exact_settlements=(2.0,))
        (row,) = drift_error_study((0.0,), cfg, curves, make5())
        assert abs(row.fwd_err_bp) <= 1e-8
        assert abs(row.atm_vol_err_pct) <= 1e-10
        assert abs(row.otm_vol_err_pct) <= 1e-10

    def test_paired_paths_exact_without_vol_of_vol(self, curves):
        p = make5(alpha=0.0)
        cfg = small_cfg(n_paths=5_000, n_steps=50, exact_settlements=(2.0,))
        times = _grid_with_inserted(cfg, (1.0,))
        node = _nearest_node(times, 1.0)
        ((exact, approx),) = _simulate_forwards(
            cfg, curves, (p,), times, ((node, 2.0, "exact_per_T"), (node, 2.0, "approximate"))
        )
        assert np.max(np.abs(approx - exact) / exact) <= 1e-12

    def test_paired_paths_exact_with_flat_rate(self, curves):
        p = make5(beta1=0.0, beta2=0.0)
        cfg = small_cfg(n_paths=5_000, n_steps=50, exact_settlements=(2.0,))
        times = _grid_with_inserted(cfg, (1.0,))
        node = _nearest_node(times, 1.0)
        ((exact, approx),) = _simulate_forwards(
            cfg, curves, (p,), times, ((node, 2.0, "exact_per_T"), (node, 2.0, "approximate"))
        )
        assert np.max(np.abs(approx - exact) / exact) <= 1e-12

    @pytest.mark.parametrize("antithetic", [False, True])
    def test_vol_stderr_matches_lognormal_delta_method(self, curves, antithetic):
        # At alpha = 0 the forward is lognormal, so the noise of a vol
        # backed out against the simulated mean forward has a closed
        # form.  The price-stderr-over-vega figure, which ignores that the
        # mean forward moves with the payoff, reads 1.8-2.7x higher.  At
        # 20k paths the sample stderr's own error is below 2.5%.
        p = make5(alpha=0.0)
        cfg = small_cfg(n_paths=20_000, n_steps=50, exact_settlements=(2.0,),
                        antithetic=antithetic)
        (row,) = drift_error_study((0.0,), cfg, curves, p)
        s = math.sqrt(integrated_variance(0.0, 1.0, 2.0, p))
        for got, K in ((row.atm_vol_stderr_pct, 1.0), (row.otm_vol_stderr_pct, 1.4)):
            want = lognormal_vol_stderr(K, s, 1.0, cfg.n_paths, antithetic)
            assert got == pytest.approx(want, rel=0.1)

    @pytest.mark.parametrize("antithetic", [False, True])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_shared_draws_match_single_alpha_studies(self, curves, antithetic, threads):
        # One study per alpha is the oracle: evolving every alpha on a
        # block's one draw must not move a bit of any row.  10k paths
        # leave the second block partial.
        cfg = small_cfg(n_paths=10_000, n_steps=20, exact_settlements=(2.0,),
                        antithetic=antithetic, threads=threads)
        alphas = (0.0, 1.0, 2.0, 3.0)
        shared = drift_error_study(alphas, cfg, curves, make5())
        single = [row for alpha in alphas
                  for row in drift_error_study((alpha,), replace(cfg, threads=1), curves, make5())]

        def bits(rows):
            return [tuple(float(x).hex() for x in astuple(row)) for row in rows]

        assert bits(shared) == bits(single)

    def test_each_block_draws_once_for_all_alphas(self, curves, monkeypatch):
        import fwdvol.mc as mc

        built = []
        real = mc._block_philox

        def counting(seed, block):
            built.append(block)
            return real(seed, block)

        monkeypatch.setattr(mc, "_block_philox", counting)
        cfg = small_cfg(n_paths=10_000, n_steps=5, exact_settlements=(2.0,))
        drift_error_study((0.0, 1.0, 2.0, 3.0), cfg, curves, make5())
        assert sorted(built) == [0, 1]

        built.clear()
        with pytest.raises(InvalidModelParams) as err:
            drift_error_study((0.0, -1.0), cfg, curves, make5())
        assert "NegativeRate" in err.value.codes()
        assert drift_error_study((), cfg, curves, make5()) == ()
        assert built == []

        first, second = drift_error_study((1.0, 1.0), cfg, curves, make5())
        assert first == second
        assert sorted(built) == [0, 1]

    def test_zero_payoff_sample_is_a_numerical_error(self, curves):
        # At t_e = 0.01 no path of 2,000 reaches the 1.4 F strike, so the
        # exact-mode vol there is 0 and its delta-method stderr divides
        # by it.
        cfg = small_cfg(n_paths=2_000, n_steps=20, horizon=0.01, exact_settlements=(2.0,))
        with pytest.raises(NumericalError, match=r"alpha=0: .* K=1\.4 averages 0 "):
            drift_error_study((0.0,), cfg, curves, make5())

    def test_requires_single_settlement(self, curves):
        cfg = small_cfg(exact_settlements=(1.5, 2.0))
        with pytest.raises(DomainError):
            drift_error_study((0.0,), cfg, curves, make5())
