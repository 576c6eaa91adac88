"""Quote validation, the weighted vol objective, and Nelder-Mead fitting
in the transformed parameter space."""

import numpy as np
import pytest
from dataclasses import replace
from scipy.optimize import minimize

import fwdvol.calibration
import fwdvol.charfn
import fwdvol.pricing
from fwdvol.calibration import _nelder_mead

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


class _Stop(Exception):
    pass


def hex_point(x):
    return tuple(map(float.hex, x))


def own_points(func, x0, budget, xatol, fatol):
    """Points `_nelder_mead` evaluates, cut at ``budget`` evaluations the
    way scipy's ``maxfev`` cuts them; the best vertex, or None if cut."""
    points = []

    def capped(x):
        if len(points) >= budget:
            raise _Stop
        points.append(hex_point(x))
        return func(x)

    try:
        return points, _nelder_mead(capped, x0, xatol, fatol)
    except _Stop:
        return points, None


def scipy_nelder_mead(func, x0, budget, xatol, fatol):
    """The oracle: scipy's adaptive Nelder-Mead without bounds."""
    options = {"maxfev": budget, "xatol": xatol, "fatol": fatol, "adaptive": True}
    return minimize(func, x0, method="Nelder-Mead", options=options)


def scipy_points(func, x0, budget, xatol, fatol):
    points = []

    def recorded(x):
        points.append(hex_point(x))
        return func(x)

    return points, scipy_nelder_mead(recorded, x0, budget, xatol, fatol)


def quadratic_9d():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(9, 9))
    h = a @ a.T + 9.0 * np.eye(9)
    c = rng.normal(size=9)
    # Two zero coordinates take the 0.00025 initial step instead of 5%.
    x0 = np.array([0.3, 0.0, -1.2, 2.0, 0.5, 0.0, 1.0, -0.7, 0.1])
    return (lambda x: float((x - c) @ h @ (x - c))), x0


def flat_past_a_ridge():
    # Flat once x sums to 1: expansions tie with their reflections and
    # contractions with theirs, which pins each step's tie-breaking.
    return (lambda x: -min(float(x.sum()), 1.0)), np.zeros(3)


class TestNelderMeadAgainstScipy:
    @pytest.mark.parametrize("problem", [quadratic_9d, flat_past_a_ridge])
    def test_converges_on_the_same_points(self, problem):
        func, x0 = problem()
        ours, best = own_points(func, x0, 20_000, 1e-6, 1e-12)
        theirs, result = scipy_points(func, x0, 20_000, 1e-6, 1e-12)
        assert result.success and best is not None
        assert len(ours) < 20_000
        assert ours == theirs
        assert hex_point(best) == hex_point(result.x)

    def test_shrinks_on_the_same_points(self):
        # Every point but x0 is tied at 1, so each reflection and inside
        # contraction fails and every iteration shrinks the simplex.
        x0 = np.array([0.5, -2.0, 0.0])
        func = lambda x: float(np.any(x != x0))
        ours, best = own_points(func, x0, 200, 1e-8, 1e-8)
        theirs, result = scipy_points(func, x0, 200, 1e-8, 1e-8)
        assert best is None and not result.success
        assert ours == theirs
        # Evaluations 0-3 build the simplex, 4 and 5 reflect and contract,
        # 6-8 are the first shrink, toward x0 by sigma = 1 - 1/3.
        vertices = [x0]
        for k, step in enumerate((1.05 * x0[0], 1.05 * x0[1], 0.00025)):
            y = x0.copy()
            y[k] = step
            vertices.append(y)
        sigma = 1 - 1 / 3
        assert ours[:4] == [hex_point(v) for v in vertices]
        assert set(ours[6:9]) == {hex_point(x0 + sigma * (v - x0)) for v in vertices[1:]}

    @pytest.mark.parametrize("budget", [1, 3])
    def test_budget_cuts_the_initial_simplex(self, budget):
        func, x0 = quadratic_9d()
        ours, best = own_points(func, x0, budget, 1e-4, 1e-11)
        theirs, result = scipy_points(func, x0, budget, 1e-4, 1e-11)
        assert best is None and not result.success
        assert ours == theirs
        assert len(ours) == budget

    def test_fit_matches_scipy_on_acceptance_quotes(self, fig1, curves, monkeypatch):
        quotes = synthesize_quotes(fig1, curves)
        factors = {"sigma": 1.2, "beta1": 0.8, "beta2": 1.2, "R": 0.8,
                   "rho": 0.8, "beta": 1.2, "alpha": 0.8, "rho1": 1.2, "rho2": 0.8}
        start = replace(fig1, **{k: getattr(fig1, k) * f for k, f in factors.items()})
        budget = 40

        def recording(optimizer, points):
            def run(func, x0, xatol, fatol):
                # Recorded once evaluated: the call that meets the spent
                # budget raises in `fit` and evaluates nothing.
                def recorded(x):
                    value = func(x)
                    points.append(hex_point(x))
                    return value
                return optimizer(recorded, x0, xatol, fatol)
            return run

        def scipy_optimizer(func, x0, xatol, fatol):
            return scipy_nelder_mead(func, x0, budget, xatol, fatol).x

        theirs, ours = [], []
        with monkeypatch.context() as patch:
            patch.setattr(fwdvol.calibration, "_nelder_mead", recording(scipy_optimizer, theirs))
            oracle = fit(quotes, start, curves, budget=budget)
        with monkeypatch.context() as patch:
            patch.setattr(fwdvol.calibration, "_nelder_mead", recording(_nelder_mead, ours))
            result = fit(quotes, start, curves, budget=budget)
        assert ours == theirs
        assert result == oracle
        assert result.objective.hex() == oracle.objective.hex()
        assert (result.n_evals, result.converged) == (budget, False)
