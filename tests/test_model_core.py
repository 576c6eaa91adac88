"""Parameter validation, deterministic variance, curve lookup, and the
correlation factorization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad as scipy_quad

from fwdvol import (
    CorrelationMatrixNotPSD,
    DomainError,
    InvalidModelParams,
    MarketCurves,
    ModelParams,
    factorize_correlation,
    integrated_variance,
    validate_params,
    variance_rate,
)
from fwdvol.model import PSD_TOLERANCE, _clearly_positive_definite

FIG1 = dict(
    sigma=0.4, beta1=0.1, beta2=1.0, R=0.5, rho=-0.3,
    beta=0.5, alpha=1.0, rho1=0.3, rho2=0.3,
)


def make(**overrides) -> ModelParams:
    return ModelParams(**{**FIG1, **overrides})


def valid_param_sets():
    """Parameter tuples satisfying every invariant, PSD included."""
    return st.builds(
        make,
        sigma=st.floats(0.05, 2.0),
        beta1=st.floats(0.0, 3.0),
        beta2=st.floats(0.0, 3.0),
        R=st.floats(-2.0, 2.0),
        rho=st.floats(-0.6, 0.6),
        beta=st.floats(0.0, 3.0),
        alpha=st.floats(0.0, 3.0),
        rho1=st.floats(-0.5, 0.5),
        rho2=st.floats(-0.5, 0.5),
    )


class TestValidateParams:
    def test_reference_set_is_valid(self):
        p = make()
        assert validate_params(p) is p

    def test_correlation_out_of_range(self):
        with pytest.raises(InvalidModelParams) as err:
            validate_params(make(rho=1.5))
        assert "CorrelationOutOfRange" in err.value.codes()

    def test_non_psd_correlations(self):
        with pytest.raises(InvalidModelParams) as err:
            validate_params(make(rho=-0.9, rho1=0.9, rho2=0.9))
        assert "CorrelationMatrixNotPSD" in err.value.codes()

    def test_psd_verdict_is_the_least_eigenvalues(self):
        # The eigensolver is skipped where the determinant proves the
        # correlation matrix positive definite; each verdict must still be
        # the one its least eigenvalue gives, on and next to the boundary
        # (rho2 at a root of the determinant) too.
        rng = np.random.default_rng(7)
        triples = rng.uniform(-1.0, 1.0, (3000, 3)).tolist()
        for rho, rho1 in rng.uniform(-1.0, 1.0, (300, 2)).tolist():
            root = rho * rho1 + math.sqrt((1.0 - rho**2) * (1.0 - rho1**2))
            for shift in (-1e-9, -1e-12, -1e-15, 0.0, 1e-15, 1e-12, 1e-9):
                triples.append([rho, rho1, max(-1.0, min(1.0, root + shift))])
        triples += [[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
        certified = 0
        for rho, rho1, rho2 in triples:
            p = make(rho=rho, rho1=rho1, rho2=rho2)
            least = np.linalg.eigvalsh(p.correlation_matrix()).min()
            if _clearly_positive_definite(p):
                certified += 1
                assert least > 0.0
            try:
                validate_params(p)
            except InvalidModelParams as err:
                assert err.codes() == ("CorrelationMatrixNotPSD",)
                assert least < -PSD_TOLERANCE
            else:
                assert least >= -PSD_TOLERANCE
        assert certified > len(triples) // 3

    def test_nonpositive_sigma(self):
        with pytest.raises(InvalidModelParams) as err:
            validate_params(make(sigma=0.0))
        assert "NonPositiveSigma" in err.value.codes()

    def test_negative_rate(self):
        with pytest.raises(InvalidModelParams) as err:
            validate_params(make(beta1=-0.1))
        assert "NegativeRate" in err.value.codes()

    def test_all_violations_reported_together(self):
        with pytest.raises(InvalidModelParams) as err:
            validate_params(make(sigma=-1.0, beta=-1.0, rho=2.0))
        codes = err.value.codes()
        assert {"NonPositiveSigma", "NegativeRate", "CorrelationOutOfRange"} <= set(codes)


class TestVarianceRate:
    def test_value_at_settlement(self):
        # sigma^2 (1 + R^2 + 2 rho R) = 0.16 * 0.95 at the reference set.
        assert variance_rate(1.0, 1.0, make()) == pytest.approx(0.152, abs=1e-15)

    def test_single_factor_when_R_zero(self):
        p = make(R=0.0, rho=0.7)
        h = 0.75
        expected = p.sigma**2 * math.exp(-2.0 * p.beta1 * h)
        assert variance_rate(0.25, 1.0, p) == pytest.approx(expected, rel=1e-14)

    def test_constant_when_rates_zero(self):
        p = make(beta1=0.0, beta2=0.0)
        expected = p.sigma**2 * (1.0 + p.R**2 + 2.0 * p.rho * p.R)
        for t, T in ((0.0, 1.0), (0.5, 2.0), (3.0, 3.0)):
            assert variance_rate(t, T, p) == pytest.approx(expected, rel=1e-14)

    def test_rejects_time_outside_window(self):
        with pytest.raises(DomainError):
            variance_rate(1.5, 1.0, make())
        with pytest.raises(DomainError):
            variance_rate(-0.1, 1.0, make())

    def test_vectorized_over_t(self):
        p = make()
        t = np.array([0.0, 0.5, 1.0])
        out = variance_rate(t, 1.0, p)
        assert out.shape == (3,)
        assert out[2] == pytest.approx(0.152, abs=1e-15)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(p=valid_param_sets(), u=st.floats(0.0, 1.0), T=st.floats(0.01, 10.0))
    def test_nonnegative_everywhere(self, p, u, T):
        assert variance_rate(u * T, T, p) >= 0.0

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(
        sigma=st.floats(0.05, 2.0),
        beta1=st.floats(0.01, 3.0),
        beta2=st.floats(0.01, 3.0),
        R=st.floats(0.01, 2.0),
        data=st.data(),
    )
    def test_rises_toward_settlement(self, sigma, beta1, beta2, R, data):
        # Mean reversion makes distant-settlement volatility lower whenever
        # the cross term cannot flip the sign (rho >= -R/2).
        rho = data.draw(st.floats(max(-R / 2.0, -1.0), 0.6))
        p = make(sigma=sigma, beta1=beta1, beta2=beta2, R=R, rho=rho)
        assert variance_rate(2.0, 2.0, p) >= variance_rate(0.0, 2.0, p)


class TestIntegratedVariance:
    def test_empty_interval(self):
        assert integrated_variance(0.5, 0.5, 1.0, make()) == 0.0

    def test_constant_rate_integral(self):
        p = make(beta1=0.0, beta2=0.0)
        expected = p.sigma**2 * (1.0 + p.R**2 + 2.0 * p.rho * p.R)
        assert integrated_variance(0.0, 1.0, 2.0, p) == pytest.approx(expected, rel=1e-14)

    def test_matches_quadrature_on_reference_set(self):
        p = make()
        oracle, _ = scipy_quad(lambda s: variance_rate(s, 1.0, p), 0.0, 1.0,
                               epsabs=1e-13, epsrel=1e-13)
        assert integrated_variance(0.0, 1.0, 1.0, p) == pytest.approx(oracle, rel=1e-10)

    def test_fast_reversion_keeps_its_precision(self):
        # exp(-2 beta1 T) = e^-744 is subnormal, so the form that factors
        # the decay from t0 loses its digits although the integral itself
        # is a normal number.
        p = make(beta1=40.0, R=0.0)
        c, t1, T = 2.0 * p.beta1, 8.7, 9.3
        expected = p.sigma**2 * math.exp(-c * (T - t1)) * -math.expm1(-c * t1) / c
        value = integrated_variance(0.0, t1, T, p)
        assert value == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_rejects_bad_ordering(self):
        with pytest.raises(DomainError):
            integrated_variance(0.8, 0.2, 1.0, make())
        with pytest.raises(DomainError):
            integrated_variance(0.0, 1.5, 1.0, make())

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        p=valid_param_sets(),
        a=st.floats(0.0, 1.0),
        b=st.floats(0.0, 1.0),
        T=st.floats(0.05, 8.0),
    )
    def test_matches_quadrature_everywhere(self, p, a, b, T):
        t0, t1 = sorted((a * T, b * T))
        oracle, _ = scipy_quad(lambda s: variance_rate(s, T, p), t0, t1,
                               epsabs=1e-13, epsrel=1e-13)
        assert integrated_variance(t0, t1, T, p) == pytest.approx(oracle, abs=1e-12, rel=1e-10)


class TestMarketCurves:
    def test_rejects_nonpositive_forward(self):
        with pytest.raises(DomainError):
            MarketCurves(forwards=((1.0, -2.0),), discounts=((1.0, 0.9),))

    def test_rejects_discount_above_one(self):
        with pytest.raises(DomainError):
            MarketCurves(forwards=((1.0, 2.0),), discounts=((1.0, 1.1),))

    def test_rejects_unordered_times(self):
        with pytest.raises(DomainError):
            MarketCurves(forwards=((2.0, 1.0), (1.0, 1.0)), discounts=((1.0, 0.9),))

    @pytest.mark.parametrize("forwards, discounts", [
        (((0.0, math.nan),), ((0.0, 1.0),)),
        (((0.0, math.inf),), ((0.0, 1.0),)),
        (((math.nan, 1.0),), ((0.0, 1.0),)),
        (((0.0, 1.0), (math.inf, 1.1)), ((0.0, 1.0),)),
        (((0.0, 1.0),), ((0.0, math.nan),)),
        (((0.0, 1.0),), ((math.nan, 0.9),)),
    ])
    def test_rejects_non_finite_nodes(self, forwards, discounts):
        # NaN passes every ordering and sign check; it used to price as nan.
        with pytest.raises(DomainError):
            MarketCurves(forwards=forwards, discounts=discounts)

    def test_log_linear_interpolation(self):
        c = MarketCurves(forwards=((1.0, 2.0), (3.0, 8.0)),
                         discounts=((1.0, 0.9), (3.0, 0.7)))
        assert c.forward(2.0) == pytest.approx(4.0, rel=1e-12)
        assert c.discount(2.0) == pytest.approx(math.sqrt(0.9 * 0.7), rel=1e-12)

    def test_flat_extrapolation(self):
        c = MarketCurves(forwards=((1.0, 2.0), (3.0, 8.0)),
                         discounts=((1.0, 0.9), (3.0, 0.7)))
        assert c.forward(0.1) == 2.0
        assert c.forward(10.0) == pytest.approx(8.0, rel=1e-12)


class TestFactorizeCorrelation:
    def test_identity_for_independent_shocks(self):
        p = make(rho=0.0, rho1=0.0, rho2=0.0)
        np.testing.assert_allclose(factorize_correlation(p), np.eye(3), atol=0.0)

    def test_reconstruction_on_reference_set(self):
        p = make()
        L = factorize_correlation(p)
        np.testing.assert_allclose(L @ L.T, p.correlation_matrix(), atol=1e-12)
        assert np.allclose(np.triu(L, 1), 0.0)

    def test_boundary_psd_pivoting(self):
        # rho1 = 1 ties the variance shock to the first factor; the matrix
        # is singular but still PSD, so factorization must succeed.
        p = make(rho=0.3, rho1=1.0, rho2=0.3)
        L = factorize_correlation(p)
        np.testing.assert_allclose(L @ L.T, p.correlation_matrix(), atol=1e-12)

    @pytest.mark.parametrize("rho", [1.0, -1.0])
    def test_perfect_factor_correlation_zeroes_a_column(self, rho):
        # rho = +-1 ties the second factor to the first: pivot 1 is 0, so
        # its column is zeroed below the diagonal too.
        p = make(rho=rho, rho1=0.3, rho2=0.3 * rho)
        L = factorize_correlation(p)
        assert L[1, 1] == 0.0 and L[2, 1] == 0.0
        np.testing.assert_allclose(L @ L.T, p.correlation_matrix(), atol=1e-12)

    def test_raises_on_non_psd(self):
        p = ModelParams(**{**FIG1, "rho": -0.9, "rho1": 0.9, "rho2": 0.9})
        with pytest.raises(CorrelationMatrixNotPSD):
            factorize_correlation(p)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(p=valid_param_sets())
    def test_reconstruction_everywhere(self, p):
        L = factorize_correlation(p)
        np.testing.assert_allclose(L @ L.T, p.correlation_matrix(), atol=1e-12)
