"""Quote validation, the weighted vol objective, and Nelder-Mead fitting
in the transformed parameter space."""

import numpy as np
import pytest
from dataclasses import replace

import fwdvol.charfn
import fwdvol.pricing

from fwdvol import (
    DomainError,
    QuadratureConfig,
    VolQuote,
    fit,
    objective,
    smile_slice,
    validate_params,
)

from test_model_core import make


def synthesize_quotes(p, curves, expiries=(0.5, 1.0, 2.0),
                      moneyness=(0.8, 1.0, 1.2, 1.4), weight=1.0):
    quotes = []
    for t_e in expiries:
        strikes = [m * curves.forward(t_e) for m in moneyness]
        for K, vol in smile_slice(strikes, t_e, t_e, curves, p, QuadratureConfig()):
            quotes.append(VolQuote(t_e=t_e, T=t_e, strike=K, market_vol=vol,
                                   weight=weight))
    return quotes


class TestVolQuote:
    def test_rejects_nonpositive_vol(self):
        with pytest.raises(DomainError):
            VolQuote(t_e=1.0, T=1.0, strike=1.0, market_vol=0.0)

    def test_rejects_negative_weight(self):
        with pytest.raises(DomainError):
            VolQuote(t_e=1.0, T=1.0, strike=1.0, market_vol=0.3, weight=-1.0)

    def test_rejects_expiry_after_settlement(self):
        with pytest.raises(DomainError):
            VolQuote(t_e=2.0, T=1.0, strike=1.0, market_vol=0.3)


class TestObjective:
    def test_self_fit_is_zero(self, curves):
        p = make()
        quotes = synthesize_quotes(p, curves, expiries=(1.0,))
        assert objective(p, quotes, curves) <= 1e-10

    def test_zero_weight_kills_the_quote(self, curves):
        quote = VolQuote(t_e=1.0, T=1.0, strike=1.0, market_vol=0.99, weight=0.0)
        assert objective(make(), [quote], curves) == 0.0

    def test_perturbed_sigma_is_visibly_worse(self, curves):
        p = make()
        quotes = synthesize_quotes(p, curves, expiries=(1.0,))
        base = objective(p, quotes, curves)
        bumped = objective(replace(p, sigma=p.sigma + 0.05), quotes, curves)
        assert bumped - base >= 1e-4

    def test_invalid_params_pay_full_penalty(self, curves):
        p = make()
        quotes = synthesize_quotes(p, curves, expiries=(1.0,))
        bad = replace(p, rho=-0.9, rho1=0.9, rho2=0.9)
        assert objective(bad, quotes, curves) == 1e3 * len(quotes)

    def test_one_riccati_pass_per_evaluation(self, fig1, curves, monkeypatch):
        quotes = synthesize_quotes(fig1, curves)
        passes, rates = [], []
        snapshots = fwdvol.pricing.integrate_ab_snapshots
        rate = fwdvol.charfn.variance_rate

        def counting_snapshots(theta, lag, h, stops, p):
            passes.append((np.size(theta), max(stops)))
            return snapshots(theta, lag, h, stops, p)

        def counting_rate(t, T, p):
            rates.append(np.size(t))
            return rate(t, T, p)

        monkeypatch.setattr(fwdvol.pricing, "integrate_ab_snapshots", counting_snapshots)
        monkeypatch.setattr(fwdvol.charfn, "variance_rate", counting_rate)
        assert objective(fig1, quotes, curves) <= 1e-11
        # Expiries 0.5, 1 and 2 read off steps 38, 76 and 152 of one pass on
        # the 384 nodes of the first block, theta <= 60.
        assert passes == [(384, 152)]
        assert rates == [305]

    def test_divergent_slice_pays_alone(self, fig1, curves):
        # Capped at theta = 60 the 0.1y slice fails its tail test, while
        # the 1y and 2y slices stop below the cap and price.
        capped = QuadratureConfig(theta_max=60.0)
        quotes = synthesize_quotes(fig1, curves, expiries=(0.1, 1.0, 2.0))
        by_slice = [
            objective(fig1, [quote for quote in quotes if quote.t_e == t_e], curves, capped)
            for t_e in (0.1, 1.0, 2.0)
        ]
        assert by_slice[0] == 1e3 * 4
        assert max(by_slice[1:]) <= 1e-11
        assert objective(fig1, quotes, curves, capped) == pytest.approx(sum(by_slice), abs=1e-12)

    def test_requires_quotes(self, curves):
        with pytest.raises(DomainError):
            objective(make(), [], curves)


class TestFit:
    def test_start_at_truth_converges_immediately(self, curves):
        p = make()
        quotes = synthesize_quotes(p, curves, expiries=(1.0,))
        result = fit(quotes, p, curves, budget=200)
        assert result.converged
        assert result.objective <= 1e-10

    def test_budget_one_returns_initial(self, curves):
        p = make()
        quotes = synthesize_quotes(p, curves, expiries=(1.0,))
        start = replace(p, sigma=p.sigma * 1.2)
        result = fit(quotes, start, curves, budget=1)
        assert not result.converged
        assert result.n_evals == 1
        assert result.params == start

    def test_objective_never_worse_than_initial(self, curves):
        p = make()
        start = replace(p, sigma=p.sigma * 1.3, alpha=p.alpha * 0.7)
        quotes = synthesize_quotes(p, curves, expiries=(1.0,))
        result = fit(quotes, start, curves, budget=150)
        assert result.objective <= objective(start, quotes, curves)

    def test_returns_valid_params(self, curves):
        p = make()
        start = replace(p, sigma=p.sigma * 1.2, rho=-0.1)
        quotes = synthesize_quotes(p, curves, expiries=(1.0,))
        result = fit(quotes, start, curves, budget=150)
        validate_params(result.params)

    def test_deterministic(self, curves):
        p = make()
        start = replace(p, sigma=p.sigma * 1.2)
        quotes = synthesize_quotes(p, curves, expiries=(1.0,))
        a = fit(quotes, start, curves, budget=120)
        b = fit(quotes, start, curves, budget=120)
        assert a.params == b.params
        assert a.objective == b.objective
        assert a.n_evals == b.n_evals

    def test_recovers_bumped_vol_scale(self, curves):
        # One-parameter recovery: quotes from the reference set, start
        # with sigma off by 15%; the fit must close most of the gap.
        p = make()
        quotes = synthesize_quotes(p, curves, expiries=(1.0,))
        start = replace(p, sigma=p.sigma * 1.15)
        result = fit(quotes, start, curves, budget=400)
        assert result.objective <= 1e-6
        assert result.params.sigma == pytest.approx(p.sigma, abs=0.02)
