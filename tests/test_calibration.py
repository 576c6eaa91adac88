"""Quote validation, the weighted vol objective, and Levenberg-Marquardt
fitting in the transformed parameter space."""

import numpy as np
import pytest
from dataclasses import replace
from scipy.optimize import least_squares

import fwdvol.charfn
import fwdvol.pricing
from fwdvol.calibration import (
    _BUMP,
    _by_slice,
    _from_vector,
    _objective_of,
    _repair_correlations,
    _residuals,
    _to_vector,
    _vol_gaps,
)

from fwdvol import (
    DomainError,
    InvalidModelParams,
    QuadratureTailError,
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

    @staticmethod
    def count_passes(monkeypatch):
        """Record each Riccati pass as (nodes, last step of each row) and
        each variance_before_expiry call by its number of points."""
        passes, rates = [], []
        integrate = fwdvol.pricing.integrate_ab_rows
        rate = fwdvol.charfn.variance_before_expiry

        def counting_rows(theta, rows):
            passes.append((np.size(theta), [max(stops) for _, _, stops, _ in rows]))
            return integrate(theta, rows)

        def counting_rate(lag, tau, p):
            rates.append(np.size(tau))
            return rate(lag, tau, p)

        monkeypatch.setattr(fwdvol.pricing, "integrate_ab_rows", counting_rows)
        monkeypatch.setattr(fwdvol.charfn, "variance_before_expiry", counting_rate)
        return passes, rates

    def test_one_riccati_pass_per_evaluation(self, fig1, curves, monkeypatch):
        quotes = synthesize_quotes(fig1, curves)
        passes, rates = self.count_passes(monkeypatch)
        assert objective(fig1, quotes, curves) <= 1e-11
        # Expiries 0.5, 1 and 2 read off steps 22, 36 and 53 of one pass on
        # the 120 nodes of the first block, theta <= 60: its tau grid takes
        # 22, 14 and 17 steps on [0, 0.5], [0.5, 1] and [1, 2].
        assert passes == [(120, [53])]
        assert rates == [107]

    def test_one_riccati_pass_for_several_sets(self, fig1, curves, monkeypatch):
        quotes = synthesize_quotes(fig1, curves)
        # sigma = 0.5 takes 60 steps for 2y, rho = -0.2 52 and fig1 53.
        sets = [replace(fig1, sigma=0.5), fig1, replace(fig1, rho=-0.2)]
        alone = [objective(p, quotes, curves) for p in sets]
        passes, rates = self.count_passes(monkeypatch)
        together = objective(sets, quotes, curves)
        assert [value.hex() for value in together] == [value.hex() for value in alone]
        assert passes == [(120, [60, 53, 52])]
        assert rates == [121, 107, 105]

    def test_invalid_set_pays_full_penalty_beside_valid_ones(self, fig1, curves):
        quotes = synthesize_quotes(fig1, curves)
        bad = replace(fig1, rho=-0.9, rho1=0.9, rho2=0.9)
        assert objective([bad, fig1, bad], quotes, curves) == [
            1e3 * len(quotes), objective(fig1, quotes, curves), 1e3 * len(quotes)
        ]
        assert objective([bad], quotes, curves) == [1e3 * len(quotes)]
        assert objective([], quotes, curves) == []

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


class TestRepairCorrelations:
    def test_projects_a_non_psd_triple_onto_a_valid_set(self):
        p = make(rho=-0.9, rho1=0.9, rho2=0.9)
        with pytest.raises(InvalidModelParams):
            validate_params(p)
        repaired = _repair_correlations(p)
        assert validate_params(repaired) is repaired
        assert replace(repaired, rho=p.rho, rho1=p.rho1, rho2=p.rho2) == p

    def test_psd_set_comes_back_unchanged(self):
        p = make()
        assert _repair_correlations(p) is p


class TestFit:
    def test_start_at_truth_converges_immediately(self, curves):
        p = make()
        quotes = synthesize_quotes(p, curves, expiries=(1.0,))
        result = fit(quotes, p, curves, budget=200)
        assert result.converged
        assert result.objective <= 1e-10
        # The start is priced together with its nine bumps, so even a start
        # already at the floor costs one ten-set call.
        assert result.n_evals == 10

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


# Criterion 11's start: every parameter of fig1 scaled by 0.8 or 1.2.
ACCEPTANCE_FACTORS = {"sigma": 1.2, "beta1": 0.8, "beta2": 1.2, "R": 0.8, "rho": 0.8,
                      "beta": 1.2, "alpha": 0.8, "rho1": 1.2, "rho2": 0.8}


def acceptance_start(p):
    return replace(p, **{k: getattr(p, k) * f for k, f in ACCEPTANCE_FACTORS.items()})


class _Spent(Exception):
    pass


def scipy_least_squares_best(quotes, start, curves, budget, requested=None):
    """The oracle: the least objective scipy's trust-region reflective
    least squares, scaled by its Jacobian, reaches over the first
    ``budget`` parameter sets it prices.  It runs on the fit's own
    residuals and forward-difference Jacobian, which prices the nine bumps
    of a point in one stacked call and reuses the point's residuals.  Each
    set scipy asks for, priced or cut by the budget, is appended to
    ``requested`` when given."""
    groups = _by_slice(quotes)
    values, last = [], {}

    def price(xs):
        sets = [_from_vector(x) for x in xs]
        if requested is not None:
            requested.extend(sets)
        if len(values) + len(xs) > budget:
            raise _Spent
        gaps = _vol_gaps(sets, groups, curves)
        values.extend(_objective_of(groups, g) for g in gaps)
        return [_residuals(groups, g) for g in gaps]

    def residuals(x):
        (last[x.tobytes()],) = price([x])
        return last[x.tobytes()]

    def jacobian(x):
        bumped = x + np.diag(_BUMP * np.maximum(1.0, np.abs(x)))
        base = last.get(x.tobytes())
        if base is None:
            base = residuals(x)
        return (np.array(price(bumped)) - base).T / (bumped.diagonal() - x)

    try:
        least_squares(residuals, _to_vector(start), jac=jacobian, method="trf",
                      x_scale="jac")
    except _Spent:
        pass
    return min(values)


def sets_per_pass(monkeypatch):
    """Record how many parameter sets each `integrate_ab_rows` pass
    carries, in order."""
    sizes = []
    integrate = fwdvol.pricing.integrate_ab_rows

    def counting_rows(theta, rows):
        sizes.append(len({id(p) for *_, p in rows}))
        return integrate(theta, rows)

    monkeypatch.setattr(fwdvol.pricing, "integrate_ab_rows", counting_rows)
    return sizes


class TestNelderMeadAgainstScipy:
    """Checks first written for the Nelder-Mead search, which the
    Levenberg-Marquardt fit replaced, on what the two share: how each
    call is batched, how the budget cuts the first call, and the fit of
    the acceptance quotes against a scipy oracle over the same budget."""

    def test_simplex_and_shrinks_are_one_call_each(self, fig1, curves, monkeypatch):
        # Where Nelder-Mead priced its simplex and each shrink as one call,
        # the fit prices the start and each trial point with its nine
        # bumps as one pass; the budget cuts the last call to five sets.
        quotes = synthesize_quotes(fig1, curves)
        sizes = sets_per_pass(monkeypatch)
        result = fit(quotes, acceptance_start(fig1), curves, budget=35)
        assert sizes == [10, 10, 10, 5]
        assert (result.n_evals, result.converged) == (35, False)
        assert result.singular_values is not None

    @pytest.mark.parametrize("budget", [1, 3])
    def test_budget_cuts_the_initial_simplex(self, fig1, curves, monkeypatch, budget):
        # The budget cuts the start's own call: the start and its first
        # budget - 1 bumps are priced in one pass, and the best of them
        # comes back.
        quotes = synthesize_quotes(fig1, curves)
        start = acceptance_start(fig1)
        x = _to_vector(start)
        bumped = x + np.diag(_BUMP * np.maximum(1.0, np.abs(x)))
        candidates = [start] + [_from_vector(y) for y in bumped[: budget - 1]]
        values = [objective(p, quotes, curves) for p in candidates]
        sizes = sets_per_pass(monkeypatch)
        result = fit(quotes, start, curves, budget=budget)
        assert sizes == [budget]
        assert (result.n_evals, result.converged) == (budget, False)
        assert result.singular_values is None
        assert result.objective == min(values)
        assert result.params == candidates[int(np.argmin(values))]
        if budget == 1:
            assert result.params is start

    @pytest.mark.parametrize("budget", [4, 11, 40])
    def test_fit_matches_scipy_on_acceptance_quotes(self, fig1, curves, monkeypatch,
                                                    budget):
        quotes = synthesize_quotes(fig1, curves)
        start = acceptance_start(fig1)
        start_value = objective(start, quotes, curves)
        theirs = []
        scipy_best = scipy_least_squares_best(quotes, start, curves, budget, theirs)

        ours = []
        vol_gaps = fwdvol.calibration._vol_gaps

        def recorded(ps, groups, curves):
            ours.extend(ps)
            return vol_gaps(ps, groups, curves)

        monkeypatch.setattr(fwdvol.calibration, "_vol_gaps", recorded)
        result = fit(quotes, start, curves, budget=budget)
        assert len(ours) == result.n_evals == budget
        assert result.objective <= start_value
        # The first call is the start and its bumps, the very sets of
        # scipy's first residual and Jacobian, cut at the budget; only the
        # start is priced as given, where scipy prices its transform's
        # round trip.
        first = min(budget, 10)
        assert ours[0] is start and theirs[0] == _from_vector(_to_vector(start))
        assert ours[1:first] == theirs[1:first]
        if budget > 10:
            # The first trial is the Levenberg step on that Jacobian, its
            # damping 1e-3 of the largest squared column norm.
            groups = _by_slice(quotes)
            rs = [_residuals(groups, g) for g in _vol_gaps(ours[:10], groups, curves)]
            x = _to_vector(start)
            h = _BUMP * np.maximum(1.0, np.abs(x))
            J = (np.array(rs[1:]) - rs[0]).T / h
            lam = 1e-3 * np.max(np.sum(J * J, axis=0))
            step = np.linalg.solve(J.T @ J + lam * np.eye(9), -J.T @ rs[0])
            assert _to_vector(ours[10]) == pytest.approx(x + step, rel=1e-7, abs=1e-12)
        if budget == 11:
            # Scipy's first trust-region step lands lower than that plain
            # Levenberg step; both descend.
            assert result.objective < 0.1 * start_value
            assert scipy_best < 0.1 * start_value
        else:
            assert result.objective <= scipy_best


class TestLevenbergMarquardt:
    def test_no_worse_than_scipy_least_squares(self, fig1, curves):
        # Run to its own tolerances scipy goes on far below the fit's
        # 1e-11 floor, pricing several times as many sets, so the two are
        # compared at the fit's own count of sets priced.
        quotes = synthesize_quotes(fig1, curves)
        start = acceptance_start(fig1)
        result = fit(quotes, start, curves)
        assert result.converged and result.n_evals < 500
        assert result.objective <= 1e-11
        assert result.objective <= scipy_least_squares_best(quotes, start, curves,
                                                            result.n_evals)
        assert result.failures == {}
        # Nine directions, one of which the twelve quotes hardly see.
        values = result.singular_values
        assert len(values) == 9 and list(values) == sorted(values, reverse=True)
        assert values[-1] < 1e-3 * values[0]

    @pytest.mark.parametrize("field, factor, fallbacks", [("beta2", 5.0, 1), ("sigma", 0.3, 0)])
    def test_rejected_steps_and_plain_fallback(self, fig1, curves, monkeypatch, field,
                                               factor, fallbacks):
        # Far starts make the search reject steps, which leave its
        # Jacobian as it was, and beta2 x 5 once drops the acceleration
        # for the plain step; the fit still converges and never rises
        # above its start.
        import fwdvol.calibration as calibration

        quotes = synthesize_quotes(fig1, curves)
        start = replace(fig1, **{field: getattr(fig1, field) * factor})
        calls, real = [], calibration._accelerated

        def spy(step, J, lam, bend):
            out = real(step, J, lam, bend)
            calls.append((J, bend is not None and out is step))
            return out

        monkeypatch.setattr(calibration, "_accelerated", spy)
        result = fit(quotes, start, curves, budget=400)
        rejected = sum(a is b for (a, _), (b, _) in zip(calls, calls[1:]))
        assert rejected >= 2
        assert sum(plain for _, plain in calls) == fallbacks
        assert result.converged
        assert result.objective <= objective(start, quotes, curves)

    def test_budget_must_be_an_integer(self, fig1, curves):
        # 2.5 used to fail with a slicing TypeError.
        with pytest.raises(DomainError, match="budget"):
            fit(synthesize_quotes(fig1, curves, expiries=(1.0,)), fig1, curves, budget=2.5)

    def test_budget_four_is_one_stacked_pass(self, fig1, curves, monkeypatch):
        quotes = synthesize_quotes(fig1, curves)
        start = acceptance_start(fig1)
        start_value = objective(start, quotes, curves)
        sizes = sets_per_pass(monkeypatch)
        result = fit(quotes, start, curves, budget=4)
        # The start and its first three bumps; the budget cuts the
        # Jacobian short, so the search never steps.
        assert sizes == [4]
        assert (result.n_evals, result.converged) == (4, False)
        assert result.singular_values is None
        assert result.objective <= start_value

    def test_start_with_a_failing_slice_never_regresses(self, fig1, curves):
        # At t_e = 0.001 the ATM slice still fails its tail test at the
        # default theta_max, for the start and every set near it.
        F = curves.forward(0.001)
        quotes = synthesize_quotes(fig1, curves, expiries=(1.0,)) + [
            VolQuote(t_e=0.001, T=0.001, strike=F, market_vol=0.4)
        ]
        start = replace(fig1, sigma=fig1.sigma * 1.2)
        start_value = objective(start, quotes, curves)
        with pytest.raises(QuadratureTailError):
            smile_slice([F], 0.001, 0.001, curves, start)
        result = fit(quotes, start, curves, budget=40)
        # The quotes that price are fitted; the failing one still pays.
        assert result.objective <= start_value
        assert result.objective - 1e3 <= 1e-10
        assert result.failures == {"QuadratureTailError": result.n_evals}
        validate_params(result.params)
