"""Weighted least-squares fit of the model to implied-volatility quotes.

The objective compares model and market Black-76 vols quote by quote;
optimization runs derivative-free in a transformed unconstrained space
(log for the positive rates and vols, atanh for correlations) because the
characteristic-function overflow guard puts penalty cliffs into the
objective that gradient methods handle badly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import DomainError, FwdVolError
from .model import MarketCurves, ModelParams, validate_params
from .pricing import QuadratureConfig, call_prices, implied_vol

__all__ = ["VolQuote", "CalibrationResult", "objective", "fit"]

_ORDER = ("sigma", "beta1", "beta2", "R", "rho", "beta", "alpha", "rho1", "rho2")
_POSITIVE = frozenset(("sigma", "beta1", "beta2", "beta", "alpha"))
_CORRELATION = frozenset(("rho", "rho1", "rho2"))

# Floor for log-transforming parameters sitting at zero (beta = 0 is a
# legitimate starting point in practice).
_LOG_FLOOR = 1e-8

_FAILED_QUOTE_PENALTY = 1e3

# An objective this small is the implied-vol solver's own noise floor;
# no search step can improve on it meaningfully.
_CONVERGED_OBJECTIVE = 1e-11


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
    """Best parameters seen, with bookkeeping for the search."""

    params: ModelParams
    objective: float
    n_evals: int
    converged: bool


def _to_vector(p: ModelParams) -> np.ndarray:
    out = []
    for name in _ORDER:
        value = getattr(p, name)
        if name in _POSITIVE:
            out.append(math.log(max(value, _LOG_FLOOR)))
        elif name in _CORRELATION:
            out.append(math.atanh(max(-1.0 + 1e-12, min(1.0 - 1e-12, value))))
        else:
            out.append(value)
    return np.array(out)


def _repair_correlations(rho: float, rho1: float, rho2: float) -> tuple[float, float, float]:
    """Project (rho, rho1, rho2) onto the valid correlation set.

    Eigenvalue clipping at zero followed by diagonal renormalization;
    a no-op whenever the matrix is already positive semidefinite.
    """
    matrix = np.array(
        [
            [1.0, rho, rho1],
            [rho, 1.0, rho2],
            [rho1, rho2, 1.0],
        ]
    )
    eigvals, eigvecs = np.linalg.eigh(matrix)
    if eigvals[0] >= 0.0:
        return rho, rho1, rho2
    repaired = (eigvecs * np.maximum(eigvals, 0.0)) @ eigvecs.T
    scale = 1.0 / np.sqrt(np.maximum(np.diag(repaired), 1e-12))
    repaired = repaired * np.outer(scale, scale)
    clip = lambda x: float(min(1.0, max(-1.0, x)))
    return clip(repaired[0, 1]), clip(repaired[0, 2]), clip(repaired[1, 2])


def _from_vector(
    x: np.ndarray,
    bounds: Mapping[str, tuple[float, float]] | None,
) -> ModelParams:
    values = {}
    for name, xi in zip(_ORDER, x):
        if name in _POSITIVE:
            value = math.exp(min(max(xi, -50.0), 50.0))
        elif name in _CORRELATION:
            value = math.tanh(xi)
        else:
            value = float(xi)
        if bounds and name in bounds:
            lo, hi = bounds[name]
            value = min(max(value, lo), hi)
        values[name] = value
    values["rho"], values["rho1"], values["rho2"] = _repair_correlations(
        values["rho"], values["rho1"], values["rho2"]
    )
    return ModelParams(**values)


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
    if isinstance(p, ModelParams):
        (value,) = _objectives([p], quotes, curves, q)
        return value
    return _objectives(p, quotes, curves, q)


def _objectives(ps, quotes, curves, q) -> list[float]:
    """`objective` of each set in ``ps``, the valid ones priced by one
    `call_prices` call."""
    if not quotes:
        raise DomainError("quotes must be nonempty")
    q = q or QuadratureConfig()
    values = [_FAILED_QUOTE_PENALTY * len(quotes)] * len(ps)
    valid = []
    for i, p in enumerate(ps):
        try:
            validate_params(p)
        except (FwdVolError, ValueError):
            continue
        valid.append(i)
    if not valid:
        return values

    groups: dict[tuple[float, float], list[VolQuote]] = {}
    for quote in quotes:
        groups.setdefault((quote.t_e, quote.T), []).append(quote)
    slices = [(t_e, T, [quote.strike for quote in group]) for (t_e, T), group in groups.items()]
    priced = call_prices(slices, curves, [ps[i] for i in valid], q)
    for i, results in zip(valid, priced):
        values[i] = _vol_errors(slices, groups.values(), results, curves)
    return values


def _vol_errors(slices, groups, results, curves: MarketCurves) -> float:
    """One set's objective from its `call_prices` results, slice by slice."""
    total = 0.0
    for (t_e, T, strikes), group, prices in zip(slices, groups, results):
        try:
            if isinstance(prices, FwdVolError):
                raise prices
            F, D = curves.forward(T), curves.discount(T)
            vols = [implied_vol(float(px), F, K, t_e, D, "call") for K, px in zip(strikes, prices)]
        except (FwdVolError, ValueError, ArithmeticError):
            total += _FAILED_QUOTE_PENALTY * len(group)
            continue
        for quote, vol in zip(group, vols):
            total += quote.weight * (vol - quote.market_vol) ** 2
    return total


class _BudgetStop(Exception):
    pass


def _nelder_mead(func, x0: np.ndarray, xatol: float, fatol: float) -> np.ndarray:
    """Minimize by adaptive Nelder-Mead from ``x0``; return the best vertex.

    ``func`` maps an (m, n) array of points to their m values.  The
    initial simplex and each shrink are one call; a reflection, expansion
    or contraction is a call with one point.  Runs until the simplex is
    within ``xatol`` of its best vertex in every coordinate and within
    ``fatol`` of its best value; there is no evaluation cap, so a caller
    ends the search early by raising from ``func``.
    """
    # The adaptive parameters of Gao & Han (2012), "Implementing the
    # Nelder-Mead simplex algorithm with adaptive parameters", Comput. Optim.
    # Appl. 51:259-277, with the initial simplex, the step order and the
    # stopping test of scipy's BSD-3 `_minimize_neldermead` (scipy 1.17,
    # `adaptive=True`, no bounds), so it evaluates the points scipy would,
    # in the same order.  The reflection coefficient is 1 and is left out.
    n = len(x0)
    chi = 1 + 2 / n
    psi = 0.75 - 1 / (2 * n)
    sigma = 1 - 1 / n

    def at(x):
        (value,) = func(x[np.newaxis])
        return value

    sim = np.tile(x0, (n + 1, 1))
    for k in range(n):
        sim[k + 1, k] = 1.05 * x0[k] if x0[k] != 0 else 0.00025
    fsim = np.array(func(sim), dtype=float)

    def ordered(sim, fsim):
        ind = np.argsort(fsim)
        return np.take(sim, ind, 0), np.take(fsim, ind, 0)

    # scipy sorts the initial simplex twice; tied values may move again.
    sim, fsim = ordered(*ordered(sim, fsim))
    while not (
        np.max(np.abs(sim[1:] - sim[0])) <= xatol
        and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol
    ):
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = 2 * xbar - sim[-1]
        fxr = at(xr)
        if fxr < fsim[0]:
            xe = (1 + chi) * xbar - chi * sim[-1]
            fxe = at(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:
                xc = (1 + psi) * xbar - psi * sim[-1]
                fxc = at(xc)
                accept = fxc <= fxr
            else:
                xc = (1 - psi) * xbar + psi * sim[-1]
                fxc = at(xc)
                accept = fxc < fsim[-1]
            if accept:
                sim[-1], fsim[-1] = xc, fxc
            else:
                sim[1:] = sim[0] + sigma * (sim[1:] - sim[0])
                fsim[1:] = func(sim[1:])
        sim, fsim = ordered(sim, fsim)
    return sim[0]


def fit(
    quotes: Sequence[VolQuote],
    initial: ModelParams,
    curves: MarketCurves,
    bounds: Mapping[str, tuple[float, float]] | None = None,
    budget: int = 2000,
    q: QuadratureConfig | None = None,
) -> CalibrationResult:
    """Nelder-Mead search from ``initial``, capped at ``budget`` evaluations.

    The search is the adaptive Nelder-Mead of Gao & Han (2012), as scipy's
    BSD-3 implementation runs it (``_nelder_mead``).  The returned
    parameters are the best point actually evaluated, so the result never
    regresses below the starting objective; exhausting the budget returns
    that best point with ``converged`` false.  ``bounds`` optionally clamps
    named parameters to closed intervals.
    """
    if budget < 1:
        raise DomainError("budget must be >= 1")
    validate_params(initial)
    q = q or QuadratureConfig()
    x0 = _to_vector(initial)

    # The start point is evaluated directly on `initial` rather than on
    # its transform round trip, which would floor an exact beta = 0.
    start_value = objective(initial, quotes, curves, q)
    best_value = start_value
    best_params = initial
    n_evals = 1
    if start_value <= _CONVERGED_OBJECTIVE:
        return CalibrationResult(
            params=initial, objective=start_value, n_evals=1, converged=True
        )

    def wrapped(xs: np.ndarray) -> list[float]:
        # The points within the budget are priced by one call and counted
        # in order; a point past it then stops the search.
        nonlocal best_value, best_params, n_evals
        fresh = [j for j, x in enumerate(xs) if not np.array_equal(x, x0)]
        taken = fresh[: budget - n_evals]
        params = [_from_vector(xs[j], bounds) for j in taken]
        values = [start_value] * len(xs)
        for j, p, value in zip(taken, params, _objectives(params, quotes, curves, q)):
            values[j] = value
            n_evals += 1
            if value < best_value:
                best_value, best_params = value, p
        if len(taken) < len(fresh):
            raise _BudgetStop
        return values

    try:
        _nelder_mead(wrapped, x0, xatol=1e-4, fatol=1e-11)
        # Tolerances met on the budget's last evaluation still read as a
        # spent budget.
        converged = n_evals < budget
    except _BudgetStop:
        converged = False
    return CalibrationResult(
        params=best_params,
        objective=best_value,
        n_evals=n_evals,
        converged=converged,
    )
