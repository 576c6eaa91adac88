"""Weighted least-squares fit of the model to implied-volatility quotes.

The objective compares model and market Black-76 vols quote by quote.
`fit` minimizes it by Levenberg-Marquardt with geodesic acceleration on
the residuals sqrt(w) (model vol - market vol), in a transformed
unconstrained space (log for the positive rates and vols, atanh for
correlations).  The Jacobian comes from forward differences: every point
the search tries is priced together with its nine bumps in one stacked
call, as `call_prices` prices several sets, which costs about as much as
four or five calls of one set.  A quote that cannot be priced adds a flat
penalty to `objective`, but inside the search it reads as a bounded residual, so a
failure is a step the finite differences can read, not a cliff.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import DomainError, FwdVolError, _index
from .model import (
    _PARAM_KEYS,
    MarketCurves,
    ModelParams,
    _clearly_positive_definite,
    validate_params,
)
from .pricing import QuadratureConfig, _price_checked, implied_vol

__all__ = ["VolQuote", "CalibrationResult", "objective", "fit"]

_POSITIVE = frozenset(("sigma", "beta1", "beta2", "beta", "alpha"))
_CORRELATION = frozenset(("rho", "rho1", "rho2"))

# Floor for log-transforming parameters sitting at zero (beta = 0 is a
# legitimate starting point in practice).
_LOG_FLOOR = 1e-8

_FAILED_QUOTE_PENALTY = 1e3

# Inside the search a quote that cannot be priced reads as a miss of one
# unit of vol (100 vol points), times the square root of its weight.
# That is far beyond any fitted quote's error, so the step still moves
# away from failures, yet bounded, so a bump that crosses into a failure
# moves the Jacobian by the order of the residuals, not of 1e3.
_FAILED_QUOTE_RESIDUAL = 1.0

# Forward-difference step of each transformed coordinate, relative to its
# size.
_BUMP = 1e-6

# An objective this small misses each quote by about 1e-6 in vol, far
# inside any market quote's precision; the search stops there.
_CONVERGED_OBJECTIVE = 1e-11

# The search also stops once an accepted step lowers the squared
# residuals by less than this fraction of them, or once the damped step
# shrinks below this fraction of the point's own size.
_TOLERANCE = 1e-10


@dataclass(frozen=True)
class VolQuote:
    """One market implied-vol observation to fit."""

    t_e: float
    T: float
    strike: float
    market_vol: float
    weight: float = 1.0

    def __post_init__(self) -> None:
        values = (self.t_e, self.T, self.strike, self.market_vol, self.weight)
        if not all(math.isfinite(v) for v in values):
            raise DomainError("quote fields must be finite")
        if not 0.0 < self.t_e <= self.T:
            raise DomainError("need 0 < t_e <= T")
        if self.strike <= 0.0:
            raise DomainError("strike must be > 0")
        if self.market_vol <= 0.0:
            raise DomainError("market_vol must be > 0")
        if self.weight < 0.0:
            raise DomainError("weight must be >= 0")


@dataclass(frozen=True)
class CalibrationResult:
    """Best parameters seen, with bookkeeping for the search.

    ``failures`` counts the quotes that could not be priced over the
    whole fit, one per quote of each set priced, by exception class.
    ``singular_values`` are those of the residual Jacobian at the
    search's last accepted point, in the transformed coordinates, largest
    first, as many as the lesser of the quotes and the nine parameters: a
    value far below the largest marks a direction the quotes hardly
    identify.  It is None when the budget cut the start's own Jacobian
    short.
    """

    params: ModelParams
    objective: float
    n_evals: int
    converged: bool
    failures: dict[str, int]
    singular_values: tuple[float, ...] | None


def _to_vector(p: ModelParams) -> np.ndarray:
    out = []
    for name in _PARAM_KEYS:
        value = getattr(p, name)
        if name in _POSITIVE:
            out.append(math.log(max(value, _LOG_FLOOR)))
        elif name in _CORRELATION:
            out.append(math.atanh(max(-1.0 + 1e-12, min(1.0 - 1e-12, value))))
        else:
            out.append(value)
    return np.array(out)


def _repair_correlations(p: ModelParams) -> ModelParams:
    """Project ``p``'s (rho, rho1, rho2) onto the valid correlation set.

    Eigenvalue clipping at zero followed by diagonal renormalization;
    a no-op whenever the matrix is already positive semidefinite.
    """
    if _clearly_positive_definite(p):
        return p
    eigvals, eigvecs = np.linalg.eigh(p.correlation_matrix())
    if eigvals[0] >= 0.0:
        return p
    repaired = (eigvecs * np.maximum(eigvals, 0.0)) @ eigvecs.T
    scale = 1.0 / np.sqrt(np.maximum(np.diag(repaired), 1e-12))
    repaired = repaired * np.outer(scale, scale)
    clip = lambda x: float(min(1.0, max(-1.0, x)))
    return replace(p, rho=clip(repaired[0, 1]), rho1=clip(repaired[0, 2]),
                   rho2=clip(repaired[1, 2]))


def _from_vector(x: np.ndarray) -> ModelParams:
    values = {}
    for name, xi in zip(_PARAM_KEYS, x):
        if name in _POSITIVE:
            value = math.exp(min(max(xi, -50.0), 50.0))
        elif name in _CORRELATION:
            value = math.tanh(xi)
        else:
            value = float(xi)
        values[name] = value
    return _repair_correlations(ModelParams(**values))


def objective(
    p: ModelParams | Sequence[ModelParams],
    quotes: Sequence[VolQuote],
    curves: MarketCurves,
    q: QuadratureConfig | None = None,
) -> float | list[float]:
    """Weighted sum of squared vol errors, in vol-squared units.

    Quotes that cannot be priced (parameter validation failure, Riccati
    overflow, quadrature tail failure, no-arbitrage violations) each add
    a flat penalty of 1e3 instead of aborting the evaluation.  Failures
    stay per (t_e, T) slice, while every slice is priced from one
    `call_prices` call.  ``p`` may also be a sequence of parameter sets,
    which that one call prices together; the result is then their
    objectives, as a list, each equal to its set's own call.
    """
    single = isinstance(p, ModelParams)
    groups = _by_slice(quotes)
    gaps = _vol_gaps([p] if single else p, groups, curves, q)
    values = [_objective_of(groups, set_gaps) for set_gaps in gaps]
    return values[0] if single else values


def _by_slice(quotes: Sequence[VolQuote]) -> list[list[VolQuote]]:
    """The quotes grouped by (t_e, T), in order of first appearance."""
    if not quotes:
        raise DomainError("quotes must be nonempty")
    groups: dict[tuple[float, float], list[VolQuote]] = {}
    for quote in quotes:
        groups.setdefault((quote.t_e, quote.T), []).append(quote)
    return list(groups.values())


def _vol_gaps(ps, groups, curves, q=None) -> list[list]:
    """Model minus market vol of each quote, per set in ``ps`` and per
    slice of ``groups``; a slice that could not be priced holds the
    exception that stopped it.  The valid sets are priced together, as
    one `call_prices` call prices them; each set and quote is checked
    once, here and by `VolQuote`."""
    out: list = [None] * len(ps)
    valid = []
    for i, p in enumerate(ps):
        try:
            validate_params(p)
        except (FwdVolError, ValueError) as exc:
            out[i] = [exc] * len(groups)
            continue
        valid.append(i)
    if valid:
        slices = [(g[0].t_e, g[0].T, np.array([quote.strike for quote in g])) for g in groups]
        # F(0, T) and D(T) of each slice, shared by every set.
        curve_values = [(curves.forward(T), curves.discount(T)) for _, T, _ in slices]
        priced = _price_checked(slices, curve_values, [ps[i] for i in valid],
                                q or QuadratureConfig())
        for i, results in zip(valid, priced):
            out[i] = [_slice_gaps(g, result.prices, F, D)
                      for g, result, (F, D) in zip(groups, results, curve_values)]
    return out


def _slice_gaps(group, prices, F: float, D: float):
    """One slice's vol gaps from its call prices, or the `FwdVolError`
    that stopped it, and its forward and discount factor; or the
    exception."""
    try:
        if isinstance(prices, FwdVolError):
            raise prices
        return [implied_vol(float(px), F, quote.strike, quote.t_e, D, "call") - quote.market_vol
                for px, quote in zip(prices, group)]
    except (FwdVolError, ValueError, ArithmeticError) as exc:
        return exc


def _objective_of(groups, gaps) -> float:
    """`objective` of one set from its `_vol_gaps`."""
    total = 0.0
    for group, gap in zip(groups, gaps):
        if isinstance(gap, Exception):
            total += _FAILED_QUOTE_PENALTY * len(group)
            continue
        for quote, g in zip(group, gap):
            total += quote.weight * g**2
    return total


def _residuals(groups, gaps) -> np.ndarray:
    """The search's residuals of one set from its `_vol_gaps`, failures
    read as `_FAILED_QUOTE_RESIDUAL`."""
    return np.array([
        math.sqrt(quote.weight)
        * (_FAILED_QUOTE_RESIDUAL if isinstance(gap, Exception) else gap[k])
        for group, gap in zip(groups, gaps)
        for k, quote in enumerate(group)
    ])


def _damped_step(J: np.ndarray, r: np.ndarray, lam: float) -> np.ndarray:
    """The step that minimizes |r + J step|^2 + lam |step|^2."""
    A = np.vstack([J, math.sqrt(lam) * np.eye(J.shape[1])])
    return np.linalg.lstsq(A, np.concatenate([-r, np.zeros(J.shape[1])]), rcond=None)[0]


def _accelerated(step, J, lam, bend) -> np.ndarray:
    """``step`` plus half its geodesic acceleration, where that is small.

    The acceleration is the damped step against the residuals' second
    derivative along ``step`` (Transtrum & Sethna 2012, "Improvements to
    the Levenberg-Marquardt algorithm for nonlinear least-squares
    minimization", arXiv:1201.5885); it bends the step along a curved
    valley, where the plain step crawls.  The derivative comes for free
    from ``bend``, the last accepted step s with the change dJ it made to
    the Jacobian: along ``step`` it reads (step . s / s . s) dJ step.  An
    acceleration of more than 3/8 of the step is left out, as there the
    estimate is not to be trusted.
    """
    if bend is None:
        return step
    dJ, s = bend
    acceleration = _damped_step(J, (step @ s) / (s @ s) * (dJ @ step), lam)
    if np.linalg.norm(acceleration) > 0.375 * np.linalg.norm(step):
        return step
    return step + 0.5 * acceleration


def fit(
    quotes: Sequence[VolQuote],
    initial: ModelParams,
    curves: MarketCurves,
    budget: int = 2000,
) -> CalibrationResult:
    """Levenberg-Marquardt search from ``initial``, capped at ``budget``
    evaluations.

    Each call prices a point and its nine forward-difference bumps as one
    stacked call, so a trial point comes with its Jacobian; the first
    call prices ``initial`` itself with the bumps of its transform.  A
    call that would pass the budget prices only the sets within it, and
    the search stops there.  The damping is lam |step|^2 in the
    transformed coordinates, which are all on one scale; it starts at
    1e-3 of the largest squared column norm of the start's Jacobian and
    follows the ratio of actual to predicted reduction (Nielsen 1999).
    Each step adds its geodesic acceleration (`_accelerated`).  The search
    converges once the objective reaches 1e-11, once an accepted step
    lowers the squared residuals by less than 1e-10 of them, or once the
    damped step shrinks below 1e-10 of the point.

    The returned parameters are the best point evaluated by `objective`,
    bumps included, so the result never regresses below the starting
    objective, and each set priced counts as one evaluation.  Quotes are
    priced with the default `QuadratureConfig`.
    """
    budget = _index(budget, "budget")
    if budget < 1:
        raise DomainError("budget must be >= 1")
    validate_params(initial)
    groups = _by_slice(quotes)
    failures: Counter[str] = Counter()
    n_evals = 0
    best_value, best_params = math.inf, initial

    def priced(x: np.ndarray, point: ModelParams | None = None):
        # Residuals at x and their Jacobian, or None when the budget cuts
        # the call short.
        nonlocal n_evals, best_value, best_params
        bumped = x + np.diag(_BUMP * np.maximum(1.0, np.abs(x)))
        sets = [point if point is not None else _from_vector(x)]
        sets += [_from_vector(y) for y in bumped[: budget - n_evals - 1]]
        residuals = []
        for p, gaps in zip(sets, _vol_gaps(sets, groups, curves)):
            n_evals += 1
            for group, gap in zip(groups, gaps):
                if isinstance(gap, Exception):
                    failures[type(gap).__name__] += len(group)
            value = _objective_of(groups, gaps)
            if value < best_value:
                best_value, best_params = value, p
            residuals.append(_residuals(groups, gaps))
        if len(residuals) <= len(bumped):
            return None
        return residuals[0], (np.array(residuals[1:]) - residuals[0]).T / (bumped.diagonal() - x)

    x = _to_vector(initial)
    current = priced(x, initial)
    converged = best_value <= _CONVERGED_OBJECTIVE
    if current is None:
        singular_values = None
    else:
        r, J = current
        cost = r @ r
        lam, nu, bend = 1e-3 * np.max(np.sum(J * J, axis=0)), 2.0, None
        while not converged and n_evals < budget:
            gauss_newton = _damped_step(J, r, lam)
            step = _accelerated(gauss_newton, J, lam, bend)
            if np.linalg.norm(step) <= _TOLERANCE * (np.linalg.norm(x) + _TOLERANCE):
                converged = True
                break
            trial = priced(x + step)
            if trial is None:
                break
            trial_cost = trial[0] @ trial[0]
            if trial_cost < cost:
                predicted = cost - np.sum((r + J @ gauss_newton) ** 2)
                gain = (cost - trial_cost) / predicted if predicted > 0.0 else 0.0
                converged = cost - trial_cost <= _TOLERANCE * cost
                bend = (trial[1] - J, step)
                x, (r, J), cost = x + step, trial, trial_cost
                lam *= max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
                nu = 2.0
            else:
                lam, nu = lam * nu, 2.0 * nu
            converged = converged or best_value <= _CONVERGED_OBJECTIVE
        singular_values = tuple(np.linalg.svd(J, compute_uv=False).tolist())
    return CalibrationResult(
        params=best_params,
        objective=best_value,
        n_evals=n_evals,
        converged=converged,
        failures=dict(failures),
        singular_values=singular_values,
    )
