"""Centered-variance covariance kernel, the quadrature oracle for k^2,
the divided-difference closed form, and the dispatcher."""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fwdvol import (
    DegenerateDenominator,
    DomainError,
    NumericalError,
    integrated_variance,
    variance_rate,
)
from fwdvol.driftfactor import (
    centered_variance_cov,
    closed_form_verification,
    drift_factor,
    drift_factor_result,
    k_sq_closed_form,
    k_sq_numeric,
)

from test_model_core import make

SEC5 = dict(
    sigma=0.6, beta1=0.01, beta2=1.0, R=0.5, rho=-0.3,
    beta=0.0, alpha=1.0, rho1=0.3, rho2=0.3,
)


def make5(**overrides):
    return make(**{**SEC5, **overrides})


class TestCovarianceKernel:
    def test_diagonal_value(self):
        beta, alpha, s = 0.5, 1.2, 0.7
        expected = alpha**2 / (2.0 * beta) * -math.expm1(-2.0 * beta * s)
        assert centered_variance_cov(s, s, beta, alpha) == pytest.approx(expected, rel=1e-14)

    def test_zero_mean_reversion_limit(self):
        assert centered_variance_cov(0.5, 1.0, 0.0, 1.0) == pytest.approx(0.5, rel=1e-12)
        assert centered_variance_cov(0.5, 1.0, 1e-13, 1.0) == pytest.approx(0.5, rel=1e-10)

    def test_zero_vol_of_vol(self):
        assert centered_variance_cov(0.3, 0.9, 0.5, 0.0) == 0.0

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        s1=st.floats(0.0, 5.0),
        s2=st.floats(0.0, 5.0),
        beta=st.floats(0.0, 3.0),
        alpha=st.floats(0.0, 3.0),
    )
    def test_symmetric_and_nonnegative(self, s1, s2, beta, alpha):
        c12 = centered_variance_cov(s1, s2, beta, alpha)
        c21 = centered_variance_cov(s2, s1, beta, alpha)
        assert c12 == pytest.approx(c21, rel=1e-13, abs=1e-300)
        assert c12 >= 0.0


class TestNumericKsq:
    def test_constant_rate_limit(self):
        p = make5(beta1=0.0, beta2=0.0)
        expected = (p.sigma**2 * (1.0 + p.R**2 + 2.0 * p.rho * p.R)) ** 2
        assert k_sq_numeric(1.0, 2.0, p) == pytest.approx(expected, rel=1e-8)

    def test_node_doubling_stability(self):
        p = make5()
        coarse = k_sq_numeric(1.0, 2.0, p, n_nodes=64)
        fine = k_sq_numeric(1.0, 2.0, p, n_nodes=128)
        assert fine == pytest.approx(coarse, rel=1e-8)

    def test_quartic_in_sigma(self):
        p = make5()
        assert k_sq_numeric(1.0, 2.0, make5(sigma=1.2)) == pytest.approx(
            16.0 * k_sq_numeric(1.0, 2.0, p), rel=1e-10
        )

    def test_degenerate_without_vol_of_vol(self):
        with pytest.raises(DegenerateDenominator):
            k_sq_numeric(1.0, 2.0, make5(alpha=0.0))

    def test_degenerate_at_time_zero(self):
        with pytest.raises(DegenerateDenominator):
            k_sq_numeric(0.0, 2.0, make5())

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        sigma=st.floats(0.1, 1.0),
        beta1=st.floats(0.0, 1.0),
        beta2=st.floats(0.0, 2.0),
        R=st.floats(-1.5, 1.5),
        rho=st.floats(-0.6, 0.6),
        beta=st.floats(0.0, 2.0),
        alpha=st.floats(0.1, 3.0),
        t=st.floats(0.1, 2.0),
    )
    def test_nonnegative(self, sigma, beta1, beta2, R, rho, beta, alpha, t):
        p = make(sigma=sigma, beta1=beta1, beta2=beta2, R=R, rho=rho,
                 beta=beta, alpha=alpha, rho1=0.0, rho2=0.0)
        assert k_sq_numeric(t, t + 1.0, p) >= 0.0


class TestClosedFormKsq:
    def test_verified_against_numeric_sweep(self):
        report = closed_form_verification()
        assert report.verified
        assert report.n_checked >= 50
        assert report.max_rel_diff <= 1e-6

    def test_reference_value(self):
        p = make(beta=0.5)
        closed = k_sq_closed_form(1.0, 2.0, p)
        numeric = k_sq_numeric(1.0, 2.0, p)
        assert closed == pytest.approx(numeric, rel=1e-6)

    @pytest.mark.parametrize(
        "t, T, p",
        [
            pytest.param(1.0, 2.0, make5(), id="zero_variance_reversion"),
            pytest.param(1.0, 2.0, make5(beta=0.5, beta1=0.0, beta2=0.0), id="zero_curve_rates"),
            pytest.param(1.0, 2.0, make5(beta=2.0, beta2=1.0), id="rates_collide"),
            pytest.param(1.0, 2.0, make(beta=0.2), id="beta_twice_beta1"),
            pytest.param(1.0, 2.0, make(beta=0.2 + 1e-9), id="beta_near_twice_beta1"),
            pytest.param(1.0, 2.0, make(beta=1e-13), id="tiny_beta"),
            pytest.param(1e-3, 2.0, make(), id="tiny_t"),
            pytest.param(5.0, 10.0, make(), id="long_settlement"),
        ],
    )
    def test_agrees_with_numeric_at_edge_cases(self, t, T, p):
        # Divided-difference nodes that coincide or nearly do (beta = 0,
        # beta = 2 beta_k, beta1 = beta2 = 0, tiny beta or t), and large
        # exponents at a long settlement.
        assert k_sq_closed_form(t, T, p) == pytest.approx(k_sq_numeric(t, T, p), rel=1e-10)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        sigma=st.floats(0.1, 1.0),
        beta1=st.just(0.0) | st.floats(0.0, 1.0),
        beta2=st.just(0.0) | st.floats(0.0, 2.0),
        R=st.floats(-1.5, 1.5),
        rho=st.floats(-0.6, 0.6),
        beta=st.just(0.0) | st.floats(0.0, 2.0),
        alpha=st.floats(0.1, 3.0),
        t=st.floats(0.1, 2.0),
    )
    def test_agrees_with_numeric(self, sigma, beta1, beta2, R, rho, beta, alpha, t):
        assume(beta1 > 0.0 or beta2 > 0.0)  # beta1 = beta2 = 0 is a dispatcher limit
        p = make(sigma=sigma, beta1=beta1, beta2=beta2, R=R, rho=rho,
                 beta=beta, alpha=alpha, rho1=0.0, rho2=0.0)
        closed = k_sq_closed_form(t, t + 1.0, p)
        assert math.isfinite(closed)
        assert closed == pytest.approx(k_sq_numeric(t, t + 1.0, p), rel=1e-10)

    def test_overflow_is_a_typed_error(self):
        # A node spread of 4 beta2 t = 1600 puts exp[...] beyond a double.
        with pytest.raises(NumericalError):
            k_sq_closed_form(400.0, 400.0, make())


class TestDispatcher:
    def test_time_zero_is_spot_rate_squared(self):
        p = make5()
        res = drift_factor_result(0.0, 2.0, p)
        assert res.method == "limit"
        assert res.k_sq == variance_rate(0.0, 2.0, p) ** 2

    def test_without_vol_of_vol_is_time_average(self):
        p = make5(alpha=0.0)
        res = drift_factor_result(1.0, 2.0, p)
        expected = (integrated_variance(0.0, 1.0, 2.0, p) / 1.0) ** 2
        assert res.method == "limit"
        assert res.k_sq == pytest.approx(expected, rel=1e-14)

    def test_flat_rate_collapses_exactly(self):
        p = make5(beta1=0.0, beta2=0.0)
        expected = p.sigma**2 * (1.0 + p.R**2 + 2.0 * p.rho * p.R)
        assert drift_factor_result(1.0, 2.0, p).method == "limit"
        assert drift_factor(1.0, 2.0, p) == pytest.approx(expected, rel=1e-15)

    def test_study_set_takes_closed_form(self):
        res = drift_factor_result(1.0, 2.0, make5())
        assert res.method == "closed_form"
        assert res.k_sq == pytest.approx(k_sq_numeric(1.0, 2.0, make5()), rel=1e-12)

    def test_closed_form_preferred_when_valid(self):
        res = drift_factor_result(1.0, 2.0, make(beta=0.5))
        assert res.method == "closed_form"

    def test_rejects_bad_times(self):
        with pytest.raises(DomainError):
            drift_factor_result(2.0, 1.0, make5())

    def test_continuous_in_time(self):
        # A transcription defect would show up as a jump; a smooth k^2 has
        # a tiny second difference on a fine grid.
        p = make(beta=0.5)
        d = 1e-3
        for t in (0.3, 0.7, 1.2):
            lo = drift_factor_result(t - d, 2.0, p).k_sq
            mid = drift_factor_result(t, 2.0, p).k_sq
            hi = drift_factor_result(t + d, 2.0, p).k_sq
            assert abs(hi - 2.0 * mid + lo) <= 1e-6
