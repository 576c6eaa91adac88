"""Affine ODE right-hand side, Runge-Kutta integration, and the
characteristic-function evaluation."""

import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fwdvol import NonConvergence, QuadratureConfig, integrated_variance, variance_rate
from fwdvol.charfn import (
    ab_ode_rhs,
    charfn_value,
    default_ab_steps,
    integrate_ab,
    integrate_ab_snapshots,
)
from fwdvol.pricing import _theta_grid

from test_model_core import make


def reference_ab(theta, t_e, T, p, n_steps):
    """Plain RK4 over `ab_ode_rhs`, one stage call at a time: the oracle."""
    a_val = np.zeros(theta.shape, dtype=complex)
    b_val = np.zeros(theta.shape, dtype=complex)
    h = t_e / n_steps
    tau = 0.0
    for _ in range(n_steps):
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
    return a_val, b_val


# Parameters whose 400-step Riccati pass on all 1280 nodes of the pricing
# grid diverges at tau = 1.895: the 0.5y and 1y snapshots of a 2y pass are
# still good.  Steps sized from the grid's top theta do not diverge.
LATE_DIVERGENCE = dict(sigma=0.8, beta1=0.01, beta=0.0, alpha=4.0)


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

    def test_gaussian_limit_identity(self):
        # Without vol of vol the combined exponent is the deterministic
        # total variance times -(theta^2 + i theta)/2.
        p = make(alpha=0.0)
        V = integrated_variance(0.0, 1.0, 2.0, p)
        for theta in (0.5, 1.0, 5.0, 20.0, 50.0):
            a_val, b_val = integrate_ab(theta, 1.0, 2.0, p, n_steps=default_ab_steps(1.0))
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
        assert thetas.size == 1280
        n_steps = default_ab_steps(t_e, p, thetas.max(), T - t_e)
        oracle = reference_ab(thetas, t_e, T, p, n_steps)
        assert charfn_gap(integrate_ab(thetas, t_e, T, p), oracle) <= 1e-14

    def test_default_step_count_floor(self, fig1):
        # 60 a year, rounded up to a multiple of 4, and at least 30.
        assert default_ab_steps(0.01) == 30
        assert default_ab_steps(1.0) == 60
        assert default_ab_steps(2.5) == 150
        # Stability adds (theta_top alpha max sigma_F + beta) / 2 a year:
        # 60 * 1 * 0.4 sqrt(1.25) + 0.5 = 27.3 on fig1 at lag 0.
        assert default_ab_steps(1.0, fig1, 60.0) == 76
        assert default_ab_steps(1.0, fig1, 200.0) == 108
        assert default_ab_steps(1.0, replace(fig1, alpha=0.0), 200.0) == 64
        # sigma_F decays with the lag, and so does the stability term.
        assert default_ab_steps(1.0, fig1, 200.0, lag=10.0) < 108


class TestSnapshots:
    def test_snapshot_matches_standalone_pass(self, fig1):
        thetas = _theta_grid(QuadratureConfig())[0]
        short, full = integrate_ab_snapshots(thetas, 0.0, 0.005, [100, 400], fig1)
        assert charfn_gap(short, integrate_ab(thetas, 0.5, 0.5, fig1, n_steps=100)) <= 1e-14
        assert charfn_gap(full, integrate_ab(thetas, 2.0, 2.0, fig1, n_steps=400)) <= 1e-14

    def test_snapshots_follow_stops_order(self, fig1):
        thetas = np.array([0.5, 3.0])
        late, early, again = integrate_ab_snapshots(thetas, 1.0, 0.01, [50, 20, 50], fig1)
        assert np.array_equal(again[0], late[0]) and np.array_equal(again[1], late[1])
        assert charfn_gap(early, integrate_ab(thetas, 0.2, 1.2, fig1, n_steps=20)) <= 1e-15

    def test_zero_stop_is_zero(self, fig1):
        ((a_val, b_val),) = integrate_ab_snapshots(np.array([1.0, 2.0]), 0.0, 0.01, [0], fig1)
        assert np.all(a_val == 0j) and np.all(b_val == 0j)

    def test_divergence_fails_only_later_stops(self, fig1):
        p = replace(fig1, **LATE_DIVERGENCE)
        thetas = _theta_grid(QuadratureConfig())[0]
        half, one, two = integrate_ab_snapshots(thetas, 0.0, 0.005, [100, 200, 400], p)
        assert isinstance(two, NonConvergence)
        with pytest.raises(NonConvergence):
            integrate_ab(thetas, 2.0, 2.0, p, n_steps=400)
        assert charfn_gap(half, integrate_ab(thetas, 0.5, 0.5, p, n_steps=100)) <= 1e-14
        assert charfn_gap(one, integrate_ab(thetas, 1.0, 1.0, p, n_steps=200)) <= 1e-14
        # The default steps, sized from theta = 200, carry the pass through.
        a_val, b_val = integrate_ab(thetas, 2.0, 2.0, p)
        assert np.all(np.isfinite(b_val))

    def test_counts_one_vectorized_variance_rate_call(self, fig1, monkeypatch):
        import fwdvol.charfn as charfn

        calls = []

        def counting(t, T, p):
            calls.append(np.size(t))
            return variance_rate(t, T, p)

        monkeypatch.setattr(charfn, "variance_rate", counting)
        integrate_ab_snapshots(np.array([1.0]), 0.0, 0.005, [100, 200, 400], fig1)
        assert calls == [801]


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
