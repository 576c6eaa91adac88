"""Affine ODE right-hand side, Runge-Kutta integration, and the
characteristic-function evaluation."""

import cmath
import decimal
import math
from dataclasses import replace
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fwdvol import (
    DomainError,
    NonConvergence,
    QuadratureConfig,
    integrated_variance,
    variance_before_expiry,
    variance_rate,
)
from fwdvol.charfn import (
    ab_ode_rhs,
    charfn_value,
    default_ab_steps,
    integrate_ab,
    integrate_ab_rows,
    integrate_ab_snapshots,
)
from fwdvol.pricing import _theta_grid

from test_model_core import make


def reference_ab(theta, t_e, T, p, n_steps, stops=None):
    """Classical RK4 over `ab_ode_rhs`, one stage call at a time: the
    oracle that the pricer's scheme converges to.  With ``stops``, the
    (A, B) after each of those step counts, up to ``n_steps``, of the
    one pass."""
    a_val = np.zeros(theta.shape, dtype=complex)
    b_val = np.zeros(theta.shape, dtype=complex)
    h = t_e / n_steps
    tau = 0.0
    wanted, snapshots = set(stops or ()), {}
    for step in range(1, n_steps + 1):
        da1, db1 = ab_ode_rhs(tau, a_val, b_val, theta, t_e, T, p)
        da2, db2 = ab_ode_rhs(
            tau + 0.5 * h, a_val + 0.5 * h * da1, b_val + 0.5 * h * db1, theta, t_e, T, p
        )
        da3, db3 = ab_ode_rhs(
            tau + 0.5 * h, a_val + 0.5 * h * da2, b_val + 0.5 * h * db2, theta, t_e, T, p
        )
        da4, db4 = ab_ode_rhs(tau + h, a_val + h * da3, b_val + h * db3, theta, t_e, T, p)
        a_val = a_val + (h / 6.0) * (da1 + 2.0 * da2 + 2.0 * da3 + da4)
        b_val = b_val + (h / 6.0) * (db1 + 2.0 * db2 + 2.0 * db3 + db4)
        tau += h
        if step in wanted:
            snapshots[step] = a_val, b_val
    return (a_val, b_val) if stops is None else [snapshots[n] for n in stops]


def transformed_rhs(tau, c_val, theta, t_e, T, p):
    """(dA/dtau, dc/dtau) of the system in c = B - q V(tau), where
    q = -(theta^2 + i theta) / 2 and V(tau) is the variance accrued over
    the last tau years before t_e, taken from `integrated_variance`."""
    b_val = c_val - 0.5 * (theta**2 + 1j * theta) * integrated_variance(t_e - tau, t_e, T, p)
    lag = T - t_e + tau
    cross = p.alpha * p.sigma * (
        p.rho1 * math.exp(-p.beta1 * lag) + p.R * p.rho2 * math.exp(-p.beta2 * lag)
    )
    return p.beta * b_val, b_val * (0.5 * p.alpha**2 * b_val + 1j * theta * cross - p.beta)


def reference_transformed(theta, t_e, T, p, grid):
    """Classical RK4 on the transformed system, one stage call at a time:
    the oracle of the pricer's own scheme.  ``grid`` is a step count, for
    equal steps, or the ascending tau nodes of the steps, from 0 to t_e.
    B = c + q V(t_e)."""
    a_val = np.zeros(theta.shape, dtype=complex)
    c_val = np.zeros(theta.shape, dtype=complex)
    if np.ndim(grid) == 0:
        h = t_e / grid
        steps = [(n * h, h) for n in range(grid)]
    else:
        steps = list(zip(grid[:-1], np.diff(grid)))
    for tau, h in steps:
        da1, dc1 = transformed_rhs(tau, c_val, theta, t_e, T, p)
        da2, dc2 = transformed_rhs(tau + 0.5 * h, c_val + 0.5 * h * dc1, theta, t_e, T, p)
        da3, dc3 = transformed_rhs(tau + 0.5 * h, c_val + 0.5 * h * dc2, theta, t_e, T, p)
        da4, dc4 = transformed_rhs(min(tau + h, t_e), c_val + h * dc3, theta, t_e, T, p)
        a_val = a_val + (h / 6.0) * (da1 + 2.0 * da2 + 2.0 * da3 + da4)
        c_val = c_val + (h / 6.0) * (dc1 + 2.0 * dc2 + 2.0 * dc3 + dc4)
    q = -0.5 * (theta**2 + 1j * theta)
    return a_val, c_val + q * integrated_variance(0.0, t_e, T, p)


def tau_nodes(knots):
    """The tau nodes of a row's grid of ``knots`` (tau_k, n_k): equal steps
    from one knot to the next."""
    nodes, start, first = [0.0], 0.0, 0
    for tau, n in knots:
        nodes += [start + (tau - start) / (n - first) * k for k in range(1, n - first)] + [tau]
        start, first = tau, n
    return np.array(nodes)


# Gap in exp(A + B) between the default steps and a classical pass at 1600
# steps a year on the pricing grid: 6.1e-10 at worst (fig1, t_e = 0.5,
# 44 steps), 2.5e-11 at t_e = 2.
CONVERGED = 1e-9


# Nodes for the divergence tests, built here so that no change to the
# pricing grid can move them.
DIVERGENCE_THETAS = np.linspace(0.5, 200.0, 400)

# Parameters whose 400-step Riccati pass at h = 0.005 on DIVERGENCE_THETAS
# diverges at step 330 (tau = 1.65): the 0.5y and 1y snapshots of a 2y
# pass are still good.  The negative cross term cancels most of sigma_F at
# settlement (0.36, against 0.78 at 2.6 years from it), so the pass
# stiffens as tau grows and leaves RK4's stability region late; alpha
# 4.45 and 4.55 diverge at steps 336 and 331.  Steps sized from the top
# theta do not.
LATE_DIVERGENCE = dict(
    sigma=0.8, beta1=0.01, beta2=2.0, R=1.0, rho=-0.9, rho2=-0.3, beta=0.0, alpha=4.5
)


def charfn_gap(ab, other):
    return np.max(np.abs(np.exp(ab[0] + ab[1]) - np.exp(other[0] + other[1])))


class TestOdeRhs:
    def test_zero_theta_is_stationary(self):
        da, db = ab_ode_rhs(0.3, 0j, 0j, 0.0, 1.0, 2.0, make())
        assert da == 0j
        assert db == 0j

    def test_initial_slope_without_vol_of_vol(self):
        p = make(alpha=0.0)
        _, db = ab_ode_rhs(0.0, 0j, 0j, 1.0, 1.0, 1.0, p)
        expected = -0.5 * (1.0 + 1.0j) * variance_rate(1.0, 1.0, p)
        assert db == pytest.approx(expected, abs=1e-15)

    def test_a_slope_proportional_to_beta(self):
        p = make(beta=0.0)
        da, _ = ab_ode_rhs(0.4, 0.2 + 0.1j, -1.0 + 2.0j, 3.0, 1.0, 2.0, p)
        assert da == 0j

    def test_mean_reversion_scales_a_slope(self):
        b_val = -1.0 + 2.0j
        da, _ = ab_ode_rhs(0.4, 0j, b_val, 3.0, 1.0, 2.0, make(beta=0.7))
        assert da == pytest.approx(0.7 * b_val, abs=1e-15)


class TestIntegrateAb:
    def test_zero_theta_integrates_to_zero(self):
        a_val, b_val = integrate_ab(0.0, 1.0, 2.0, make(), n_steps=64)
        assert a_val == 0j
        assert b_val == 0j

    def test_zero_expiry_takes_no_step(self):
        # At t_e = 0 the system has not moved from its initial value.
        assert integrate_ab(3.0, 0.0, 1.0, make()) == (0j, 0j)
        theta = np.array([0.0, 1.5, -40.0])
        for value in integrate_ab(theta, 0.0, 1.0, make()):
            assert value.shape == theta.shape
            assert value.dtype == complex
            np.testing.assert_array_equal(value, 0j)

    @pytest.mark.parametrize("preset", ["fig1", "sec5"])
    @pytest.mark.parametrize("t_e", [0.1, 1.0, 10.0])
    @pytest.mark.parametrize("lag", [0.0, 1.0])
    def test_gaussian_exponent_is_exact_at_any_step_count(self, request, preset, t_e, lag):
        # At alpha = 0 the stages' forcing is q V exactly, and A + c = 0
        # step by step, so A + B = q V(t_e) up to rounding at any step
        # count.  Measured: 4.7e-15 |q V| at worst (fig1, t_e = 10, where
        # |q V| = 1.3e4 at theta = 200 and the gap 5.3e-11); sec5 has
        # beta = 0, so A = c = 0 and the gap is V's own rounding.
        p = replace(request.getfixturevalue(preset), alpha=0.0)
        thetas = np.append(_theta_grid(QuadratureConfig())[0], 200.0)
        want = -0.5 * (thetas**2 + 1j * thetas) * integrated_variance(0.0, t_e, t_e + lag, p)
        for n_steps in (None, 3):
            a_val, b_val = integrate_ab(thetas, t_e, t_e + lag, p, n_steps=n_steps)
            assert np.all(np.abs(a_val + b_val - want) <= 1e-14 * np.abs(want))

    @pytest.mark.parametrize("theta", [math.inf, math.nan, np.array([1.0, -math.inf]),
                                       np.array([math.nan, 2.0])])
    @pytest.mark.parametrize("n_steps", [None, 40])
    def test_non_finite_theta_is_a_domain_error(self, fig1, theta, n_steps):
        # Beside the complex-theta check: an infinite node used to raise a
        # bare OverflowError in the step rule or overflow in the pass, and
        # a NaN one to read as a diverged B.
        with pytest.raises(DomainError, match="finite theta"):
            integrate_ab(theta, 1.0, 2.0, fig1, n_steps=n_steps)
        with pytest.raises(DomainError, match="finite theta"):
            integrate_ab_rows(theta, [(1.0, [(1.0, 40)], [40], fig1)])

    def test_gaussian_limit_identity(self):
        # Without vol of vol the combined exponent is the deterministic
        # total variance times -(theta^2 + i theta)/2.
        p = make(alpha=0.0)
        V = integrated_variance(0.0, 1.0, 2.0, p)
        for theta in (0.5, 1.0, 5.0, 20.0, 50.0):
            a_val, b_val = integrate_ab(theta, 1.0, 2.0, p, n_steps=default_ab_steps(1.0, p))
            expected = -0.5 * (theta**2 + 1j * theta) * V
            assert abs((a_val + b_val) - expected) < 1e-8

    def test_fourth_order_step_convergence(self):
        p = make()
        ref_a, ref_b = integrate_ab(1.0, 1.0, 1.0, p, n_steps=4096)

        def err(n):
            a_val, b_val = integrate_ab(1.0, 1.0, 1.0, p, n_steps=n)
            return abs(a_val - ref_a) + abs(b_val - ref_b)

        # Halving the step should cut the error by about 2^4.
        ratio = err(32) / err(64)
        assert ratio > 8.0

    def test_overflow_guard_raises(self):
        # One giant step at large theta overshoots the quadratic term.
        with pytest.raises(NonConvergence):
            integrate_ab(500.0, 1.0, 1.0, make(), n_steps=1)

    @pytest.mark.parametrize("preset", ["fig1", "sec5"])
    @pytest.mark.parametrize("t_e, T", [(0.5, 0.5), (1.0, 1.0), (2.0, 2.0), (1.0, 2.0)])
    def test_matches_stagewise_oracle_on_pricing_grid(self, request, preset, t_e, T):
        p = request.getfixturevalue(preset)
        thetas = _theta_grid(QuadratureConfig())[0]
        assert thetas.size == 288
        n_steps = default_ab_steps(t_e, p, thetas.max(), T - t_e)
        got = integrate_ab(thetas, t_e, T, p)
        assert charfn_gap(got, reference_transformed(thetas, t_e, T, p, n_steps)) <= 1e-14
        # Both schemes converge to one solution: classical RK4 at 1600
        # steps a year sits within CONVERGED of the default steps.
        converged = reference_ab(thetas, t_e, T, p, math.ceil(1600 * t_e))
        assert charfn_gap(got, converged) <= CONVERGED

    def test_default_step_count_floor(self, fig1):
        # At alpha = 0 only the decay term (3 + 4.5 kappa) t_e = 5.96 t_e
        # on fig1 counts, and no count falls below 20 up to 0.1 years,
        # nor below 20 sqrt(0.1 / t_e) past it.
        gaussian = replace(fig1, alpha=0.0)
        assert default_ab_steps(0.01, gaussian) == 20
        assert default_ab_steps(0.1, gaussian) == 20
        assert default_ab_steps(1.0, gaussian) == 7
        assert default_ab_steps(2.5, gaussian) == 15
        assert default_ab_steps(10.0, gaussian) == 60
        # Accuracy 41.22 alpha^1.1 sqrt(t_e sigma) + (3 + 4.5 kappa) t_e:
        # 26.07 + 5.96 = 32.03 on fig1 at t_e = 1, lag 0; stability
        # theta_top alpha max sigma_F + beta: 60 * 1 * 0.38987 + 0.5 =
        # 23.89 at theta_top = 60, and 78.47 at 200.
        assert default_ab_steps(1.0, fig1, 60.0) == 33
        assert default_ab_steps(1.0, fig1, 200.0) == 79
        assert default_ab_steps(1.0, replace(fig1, alpha=0.0), 200.0) == 7
        assert default_ab_steps(1.0, replace(fig1, alpha=3.0), 200.0) == 235
        # sigma_F decays with the lag, and so does the stability term.
        assert default_ab_steps(1.0, fig1, 200.0, lag=10.0) < 79
        # Fast reversion (kappa = 80) adds its steps at lag 0, but hardly
        # any past lag 1, where less than 1.7e-18 of sigma_F is left.
        fast = replace(fig1, beta1=40.0, beta2=40.0)
        assert default_ab_steps(1.0, fast, 60.0) == 390
        assert default_ab_steps(1.0, fast, 60.0, lag=1.0) <= 56
        assert default_ab_steps(1.0, fast, 60.0, lag=10.0) <= 56


class TestSnapshots:
    def test_snapshot_matches_standalone_pass(self, fig1):
        thetas = _theta_grid(QuadratureConfig())[0]
        short, full = integrate_ab_snapshots(thetas, 0.0, [(2.0, 400)], [100, 400], fig1)
        assert charfn_gap(short, integrate_ab(thetas, 0.5, 0.5, fig1, n_steps=100)) <= 1e-14
        assert charfn_gap(full, integrate_ab(thetas, 2.0, 2.0, fig1, n_steps=400)) <= 1e-14

    def test_snapshots_follow_stops_order(self, fig1):
        thetas = np.array([0.5, 3.0])
        late, early, again = integrate_ab_snapshots(thetas, 1.0, [(0.5, 50)], [50, 20, 50], fig1)
        assert np.array_equal(again[0], late[0]) and np.array_equal(again[1], late[1])
        assert charfn_gap(early, integrate_ab(thetas, 0.2, 1.2, fig1, n_steps=20)) <= 1e-15

    def test_zero_stop_is_zero(self, fig1):
        ((a_val, b_val),) = integrate_ab_snapshots(np.array([1.0, 2.0]), 0.0, [(0.01, 1)], [0], fig1)
        assert np.all(a_val == 0j) and np.all(b_val == 0j)

    def test_divergence_fails_only_later_stops(self, fig1):
        p = replace(fig1, **LATE_DIVERGENCE)
        thetas = DIVERGENCE_THETAS
        half, one, two = integrate_ab_snapshots(thetas, 0.0, [(2.0, 400)], [100, 200, 400], p)
        assert isinstance(two, NonConvergence)
        with pytest.raises(NonConvergence):
            integrate_ab(thetas, 2.0, 2.0, p, n_steps=400)
        assert charfn_gap(half, integrate_ab(thetas, 0.5, 0.5, p, n_steps=100)) <= 1e-14
        assert charfn_gap(one, integrate_ab(thetas, 1.0, 1.0, p, n_steps=200)) <= 1e-14
        # The default steps, sized from theta = 200, carry the pass through.
        a_val, b_val = integrate_ab(thetas, 2.0, 2.0, p)
        assert np.all(np.isfinite(b_val))

    def test_rows_equal_their_one_row_passes(self, fig1, sec5):
        # Rows of every length, lag, step and set, two of which diverge at
        # tau = 1.65 while the others carry on past it: the knotted one
        # takes knots at steps 340 and 800 after it diverged, and runs the
        # pass to step 1000.  The last row stops 969 steps before that.
        thetas = DIVERGENCE_THETAS
        rows = [
            (0.0, [(2.0, 400)], [100, 400], fig1),
            (0.0, [(2.0, 400)], [100, 200, 400], replace(fig1, **LATE_DIVERGENCE)),
            (1.0, [(0.5, 50)], [50, 20, 50], sec5),
            (0.0, [(0.01, 1)], [0], fig1),
            (0.3, [(0.006, 3)], [3, 1], replace(sec5, alpha=2.0)),
            (0.0, [(2.0, 500)], [500], fig1),
            (0.0, [(1.0, 200), (1.7, 340), (4.0, 800), (5.0, 1000)], [200, 340, 800, 1000],
             replace(fig1, **LATE_DIVERGENCE)),
            (0.5, [(0.1, 10), (0.31, 31)], [10, 31], sec5),
        ]

        def exact(snapshot):
            if isinstance(snapshot, NonConvergence):
                return str(snapshot)
            return tuple(np.asarray(part).tobytes() for part in snapshot)

        together = integrate_ab_rows(thetas, rows)
        assert isinstance(together[1][2], NonConvergence)
        assert [isinstance(s, NonConvergence) for s in together[6]] == [False, True, True, True]
        for row, snapshots in zip(rows, together, strict=True):
            alone = integrate_ab_snapshots(thetas, *row)
            assert list(map(exact, snapshots)) == list(map(exact, alone))

    def test_parked_rows_stay_at_zero(self, fig1, monkeypatch):
        # A row is held at B = 0 once it diverged or passed its last stop,
        # so the guard trips once, at the divergence, and never again: not
        # for the diverged row as it takes later knots, nor for the row
        # whose steps (h |J| about 3.9 at theta = 200, outside RK4's
        # stability interval) would diverge at step 4 if it stepped on.
        import fwdvol.charfn as charfn

        steps = []

        def counting(out, stops, tau, step, theta):
            steps.append(step)
            return diverged(out, stops, tau, step, theta)

        diverged = charfn._diverged
        monkeypatch.setattr(charfn, "_diverged", counting)
        rows = [
            (0.0, [(0.1, 2)], [2], fig1),
            (0.0, [(1.0, 200), (1.7, 340), (4.0, 800), (5.0, 1000)], [200, 1000],
             replace(fig1, **LATE_DIVERGENCE)),
        ]
        (coarse,), _ = integrate_ab_rows(DIVERGENCE_THETAS, rows)
        assert steps == [330]
        assert np.all(np.isfinite(coarse[1]))

    def test_guard_slow_path_keeps_every_row(self, fig1, monkeypatch):
        # With the guard at 1.5 times the pass's largest |B|, the sum of
        # |B|^2 passes a quarter of its square at that step, so each
        # row's peak is read, and no row leaves the guard: no row may
        # fail, and every snapshot keeps its bits.
        import fwdvol.charfn as charfn

        nodes, _, ((first_block, _, _), *_) = _theta_grid(QuadratureConfig())
        thetas = nodes[first_block]
        rows = []
        for lag, p in ((0.0, fig1), (1.0, fig1), (0.0, replace(fig1, alpha=2.0))):
            knots = list(zip([0.5, 1.0, 2.0], default_ab_steps([0.5, 1.0, 2.0], p, 60.0, lag)))
            rows.append((lag, knots, [n for _, n in knots], p))
        # The largest |B| after any step of any row, from each row's own
        # pass read off after every step.
        peak = max(
            float(np.abs(b_val).max())
            for lag, knots, stops, p in rows
            for _, b_val in integrate_ab_snapshots(thetas, lag, knots, range(1, stops[-1] + 1), p)
        )
        want = integrate_ab_rows(thetas, rows)
        calls = []
        monkeypatch.setattr(charfn, "_B_OVERFLOW", 1.5 * peak)
        monkeypatch.setattr(charfn, "_diverged", lambda *args: calls.append(args))
        got = integrate_ab_rows(thetas, rows)
        assert calls == []

        def hexes(snapshots):
            return [[x.hex() for part in snapshot for x in part.view(float).tolist()]
                    for snapshot in snapshots]

        assert list(map(hexes, got)) == list(map(hexes, want))

    @pytest.mark.parametrize("preset", ["fig1", "sec5"])
    @pytest.mark.parametrize("lag", [0.0, 1.0])
    def test_graded_row_matches_stagewise_oracle(self, request, preset, lag):
        # A row cut at each expiry steps every piece with its own h; each
        # snapshot is classical RK4 on the transformed system over the same
        # tau nodes.
        p = replace(request.getfixturevalue(preset), alpha=2.0)
        nodes, _, ((first_block, _, _), *_) = _theta_grid(QuadratureConfig())
        thetas = nodes[first_block]
        expiries = [0.25, 0.5, 1.0, 2.0]
        knots = list(zip(expiries, default_ab_steps(expiries, p, 60.0, lag)))
        assert len({round((t - s) / (n - m), 12) for (s, m), (t, n) in
                    zip([(0.0, 0)] + knots, knots)}) == len(knots)
        snapshots = integrate_ab_snapshots(thetas, lag, knots, [n for _, n in knots], p)
        for k, ((t_e, _), got) in enumerate(zip(knots, snapshots)):
            want = reference_transformed(thetas, t_e, t_e + lag, p, tau_nodes(knots[: k + 1]))
            assert charfn_gap(got, want) <= 1e-14

    def test_one_piece_grid_is_the_uniform_step(self, fig1, sec5):
        # A row of two pieces reads its first knot as the one-piece row
        # does, bit for bit.
        thetas = DIVERGENCE_THETAS
        for p, lag in ((fig1, 0.0), (sec5, 1.0)):
            uniform = integrate_ab_snapshots(thetas, lag, [(0.5, 28)], [14, 28], p)
            graded = integrate_ab_snapshots(thetas, lag, [(0.5, 28), (1.5, 60)], [14, 28], p)
            for a, b in zip(uniform, graded):
                assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_rejects_bad_knots(self, fig1):
        thetas = np.array([1.0])
        for knots, stops in (([(0.5, 10), (0.5, 20)], [20]), ([(0.5, 10), (1.0, 10)], [10]),
                             ([(0.5, 10)], [11])):
            with pytest.raises(DomainError):
                integrate_ab_snapshots(thetas, 0.0, knots, stops, fig1)
        with pytest.raises(DomainError):
            default_ab_steps([1.0, 0.5], fig1, 60.0)

    def test_bare_step_grid_is_a_domain_error(self, fig1):
        # A Riccati grid is its knots; a bare step h is not one.
        thetas = np.array([1.0])
        with pytest.raises(DomainError, match="knots"):
            integrate_ab_snapshots(thetas, 0.0, 0.005, [100], fig1)
        with pytest.raises(DomainError, match="knots"):
            integrate_ab_rows(thetas, [(0.0, 0.005, [100], fig1)])

    def test_counts_one_vectorized_variance_before_expiry_call(self, fig1, monkeypatch):
        import fwdvol.charfn as charfn

        calls = []

        def counting(lag, tau, p):
            calls.append(np.size(tau))
            return variance_before_expiry(lag, tau, p)

        monkeypatch.setattr(charfn, "variance_before_expiry", counting)
        integrate_ab_snapshots(np.array([1.0]), 0.0, [(2.0, 400)], [100, 200, 400], fig1)
        assert calls == [801]

    def test_variance_table_matches_decimal_channel_sum(self, fig1, sec5):
        # V(tau) against its three decay channels summed in 50-digit
        # decimal arithmetic, at a subnormal and a fast reversion rate.
        for p in (fig1, sec5, replace(fig1, beta1=5e-324), replace(fig1, beta2=40.0)):
            for lag in (0.0, 1.0, 10.0):
                tau = np.linspace(0.0, 2.0, 9)
                want = [decimal_variance_before_expiry(lag, s, p) for s in tau]
                np.testing.assert_allclose(variance_before_expiry(lag, tau, p), want,
                                           rtol=1e-13, atol=1e-300)


def decimal_variance_before_expiry(lag, tau, p):
    """sigma^2 times the sum over the channels (w, c) of sigma_F^2 / sigma^2
    of w exp(-c lag) (1 - exp(-c tau)) / c, in 50-digit decimals."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        lag, tau = Decimal(lag), Decimal(tau)
        b1, b2, R, rho = (Decimal(x) for x in (p.beta1, p.beta2, p.R, p.rho))
        total = Decimal(0)
        for w, c in ((1, 2 * b1), (R * R, 2 * b2), (2 * rho * R, b1 + b2)):
            x = c * tau
            if x < Decimal("1e-3"):
                # (1 - e^-x) / x as its series: no cancellation at small x.
                term, ratio, k = Decimal(1), Decimal(0), 1
                while term > Decimal("1e-60"):
                    ratio += term if k % 2 else -term
                    k += 1
                    term = term * x / k
                channel = tau * ratio
            else:
                channel = (1 - (-x).exp()) / c
            total += w * (-c * lag).exp() * channel
        return float(Decimal(p.sigma) ** 2 * total)


class TestCharfnValue:
    def test_unit_value_at_zero_theta(self):
        assert charfn_value(0.0, 0.0, 1.0, 1.0, 2.0, make()) == 1.0 + 0j

    def test_gaussian_limit_value(self):
        p = make(alpha=0.0)
        V = integrated_variance(0.0, 1.0, 1.0, p)
        theta = 2.0
        expected = cmath.exp(-0.5 * (theta**2 + 1j * theta) * V)
        got = charfn_value(theta, 0.0, 1.0, 1.0, 1.0, p)
        assert got == pytest.approx(expected, abs=1e-10)

    def test_zero_expiry_is_the_phase_alone(self):
        theta = np.array([0.5, 2.0, 30.0])
        got = charfn_value(theta, 0.3, 2.0, 0.0, 1.0, make())
        np.testing.assert_array_equal(got, np.exp(1j * theta * 0.3))

    def test_complex_theta_is_a_domain_error(self, fig1):
        # Complex theta lies outside the Riccati pass: an array is not cut
        # to its real part, and a scalar, or one at t_e = 0, raises the
        # same typed error.
        for theta, t_e in ((np.array([1 - 0.5j, 2.0]), 1.0), (1 - 0.5j, 1.0), (1j, 0.0)):
            with pytest.raises(DomainError, match="real theta"):
                charfn_value(theta, 0.0, 1.0, t_e, 1.0, fig1)

    @pytest.mark.parametrize("x, v", [(math.nan, 1.0), (math.inf, 1.0), (0.0, math.nan),
                                      (0.0, math.inf), (np.array([0.0, math.nan]), 1.0)])
    def test_non_finite_state_is_a_domain_error(self, fig1, x, v):
        # A NaN x or v used to come back as a NaN value.
        with pytest.raises(DomainError, match="finite x"):
            charfn_value(np.array([0.5, 2.0]), x, v, 1.0, 1.0, fig1)

    def test_modulus_strictly_inside_unit_disk(self):
        assert abs(charfn_value(1.0, 0.0, 1.0, 1.0, 1.0, make())) < 1.0

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(theta=st.floats(0.0, 50.0))
    def test_modulus_bounded_by_one(self, theta):
        value = charfn_value(theta, 0.0, 1.0, 1.0, 2.0, make())
        assert abs(value) <= 1.0 + 1e-12

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(theta=st.floats(0.1, 40.0), x=st.floats(-1.0, 1.0))
    def test_conjugate_symmetry(self, theta, x):
        plus = charfn_value(theta, x, 1.0, 1.0, 2.0, make())
        minus = charfn_value(-theta, x, 1.0, 1.0, 2.0, make())
        assert minus == pytest.approx(plus.conjugate(), abs=1e-12)
