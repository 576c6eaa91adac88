"""Variance-matched drift factor for the factor-based simulation.

Writing w = v - 1, the integrated drift of a fixed-settlement forward is
approximated by

    Int_0^t v(s) sigma_F^2(s, T) ds  ~=  Int_0^t sigma_F^2(s, T) ds
                                         + k(t, T) Int_0^t w(s) ds

with k chosen so both sides have the same variance.  That gives

    k^2(t, T) = Int Int sigma_F^2(s1,T) sigma_F^2(s2,T) J(s1,s2) ds1 ds2
                / Int Int J(s1,s2) ds1 ds2

over the square [0,t]^2, where J(s1,s2) = E[w(s1) w(s2)] is the covariance
kernel of the centered variance factor.

Because sigma_F^2 is a sum of three exponentials in s and J is a product of
exponentials on each side of the diagonal, the ratio reduces to third
divided differences of exp (``k_sq_closed_form``).  That closed form serves
every parameter set away from the documented limits; the nested
Gauss-Legendre evaluation ``k_sq_numeric`` is kept as its test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateDenominator, DomainError, NonConvergence, NumericalError
from .model import ModelParams, _channels, integrated_variance, validate_params, variance_rate

__all__ = [
    "centered_variance_cov",
    "k_sq_numeric",
    "k_sq_closed_form",
    "drift_factor",
    "drift_factor_result",
    "DriftFactorResult",
    "ClosedFormReport",
    "closed_form_verification",
]

def centered_variance_cov(s1, s2, beta: float, alpha: float):
    """Covariance E[w(s1) w(s2)] of the centered variance factor w = v - 1.

    With a = min(s1, s2) and b = max(s1, s2):

        J = (alpha^2 / (2 beta)) (1 - exp(-2 beta a)) exp(-beta (b - a))

    evaluated in a form that is exact in the beta -> 0 limit (alpha^2 a).
    Accepts scalars or arrays for ``s1`` and ``s2``.
    """
    if beta < 0.0 or alpha < 0.0:
        raise DomainError("beta and alpha must be >= 0")
    s1 = np.asarray(s1, dtype=float)
    s2 = np.asarray(s2, dtype=float)
    if np.any(s1 < 0.0) or np.any(s2 < 0.0):
        raise DomainError("times must be >= 0")
    a = np.minimum(s1, s2)
    b = np.maximum(s1, s2)
    x = 2.0 * beta * a
    small = x < 1e-8
    x_safe = np.where(small, 1.0, x)
    ratio = np.where(small, 1.0 - 0.5 * x + x * x / 6.0, -np.expm1(-x_safe) / x_safe)
    out = alpha**2 * a * ratio * np.exp(-beta * (b - a))
    return float(out) if out.ndim == 0 else out


@lru_cache(maxsize=None)
def _gauss_legendre(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``n_nodes``-point Gauss-Legendre rule on [-1, 1], built once
    per node count; read-only, since every caller shares it."""
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _k_sq_quadrature(t: float, T: float, p: ModelParams, n_nodes: int) -> float:
    x, w = _gauss_legendre(n_nodes)
    s2 = 0.5 * t * (x + 1.0)
    w2 = 0.5 * t * w
    # Inner integral over s1 in [0, s2] for every outer node, as one array.
    s1 = 0.5 * np.outer(x + 1.0, s2)
    weight = 0.5 * np.outer(w, s2 * w2)
    kernel = centered_variance_cov(s1, s2[None, :], p.beta, p.alpha)
    rate1 = variance_rate(s1, T, p)
    rate2 = variance_rate(s2, T, p)
    numerator = float(np.sum(weight * rate1 * rate2[None, :] * kernel))
    denominator = float(np.sum(weight * kernel))
    return numerator / denominator


def k_sq_numeric(t: float, T: float, p: ModelParams, n_nodes: int = 64) -> float:
    """Variance-matching ratio k^2 by nested Gauss-Legendre quadrature.

    The result is accepted only if doubling the node count moves it by less
    than 1e-8 relative.

    Raises
    ------
    DegenerateDenominator
        When alpha = 0 or t = 0, where both integrals vanish and the ratio
        is 0/0; callers fall back to the documented limits.
    """
    if not 0.0 <= t <= T:
        raise DomainError("k_sq_numeric requires 0 <= t <= T")
    if p.alpha == 0.0 or t == 0.0:
        raise DegenerateDenominator(
            "variance-matching ratio is 0/0 when alpha = 0 or t = 0"
        )
    coarse = _k_sq_quadrature(t, T, p, n_nodes)
    fine = _k_sq_quadrature(t, T, p, 2 * n_nodes)
    if abs(fine - coarse) > 1e-8 * max(abs(fine), 1e-300):
        raise NonConvergence(
            f"k^2 quadrature moved {abs(fine - coarse):.3e} under node doubling "
            f"at t={t}, T={T}"
        )
    return fine


def _exp_divided_difference(nodes, shift: float = 0.0) -> float:
    """Divided difference exp[x_0, ..., x_n] of exp(x + shift) at ``nodes``.

    Exact when nodes coincide and without cancellation when they nearly
    do: with m = min x and y = x - m >= 0,

        exp[x] = e^m  sum_k h_k(y) / (n + k)!

    where h_k is the complete homogeneous symmetric polynomial, so every
    term is positive (McCurdy, Ng & Parlett, Math. Comp. 1984).  The
    running terms u_j = h_k(y_0..y_j) / (j + k)! obey
    u_j <- (u_{j-1} + y_j u_j) / (j + k), which folds in the factorials.

    Raises
    ------
    NumericalError
        When the series sum overflows a double, which takes a node spread
        beyond about 700.
    """
    low = min(nodes)
    y = [x - low for x in nodes]
    spread = max(y)
    u = [1.0 / math.factorial(j) for j in range(len(y))]
    total = u[-1]
    k = 0
    while True:
        k += 1
        term = 0.0
        for j, yj in enumerate(y):
            term = (term + yj * u[j]) / (j + k)
            u[j] = term
        total += term
        if not math.isfinite(total):
            raise NumericalError(
                f"exp divided difference over a node spread of {spread:.4g} "
                "overflows a double"
            )
        # Past k = spread every term shrinks faster than geometrically.
        if k > spread and term <= 1e-17 * total:
            break
    return math.exp(low + shift) * total


def k_sq_closed_form(t: float, T: float, p: ModelParams) -> float:
    """Closed-form k^2(t, T) for 0 < t <= T, valid at every parameter set.

    Write sigma_F^2(s, T) = sum_i a_i exp(g_i s) with g = (2 beta1, 2 beta2,
    beta1 + beta2) and a_i = sigma^2 (1, R^2, 2 rho R)_i exp(-g_i T), the
    channels of `model._channels`.  For s1 < s2 the kernel is J(s1, s2) =
    alpha^2 sinh(beta s1) / beta exp(-beta s2).  By symmetry both double
    integrals are twice their part on the triangle s1 < s2 <= t, where
    each term is, by the Hermite-Genocchi formula, alpha^2 t^3 times a
    third divided difference of exp:

        k^2 = sum_ij a_i a_j D(g_i, g_j) / D(0, 0),
        D(g, h) = exp[0, (h - beta) t, (g + h) t, (g + h - 2 beta) t].

    alpha^2 and t^3 cancel.  The divided differences stay exact where
    nodes coincide (beta = 0, beta = 2 beta1, beta1 = beta2, ...), so no
    parameter set needs a fallback.  Each exp(-(g_i + g_j) T) is folded
    into its divided difference as a node shift, so no intermediate
    overflows before a node spread does (``NumericalError``).
    """
    if not 0.0 < t <= T < math.inf:
        raise DomainError("k_sq_closed_form requires 0 < t <= T < inf")
    b = p.beta
    channels = _channels(p)
    numerator = 0.0
    for ci, gi in channels:
        for cj, gj in channels:
            # A zero-weight term adds nothing and could only overflow.
            if ci * cj != 0.0:
                g = gi + gj
                nodes = (0.0, (gj - b) * t, g * t, (g - 2.0 * b) * t)
                numerator += ci * cj * _exp_divided_difference(nodes, -g * T)
    denominator = _exp_divided_difference((0.0, -b * t, 0.0, -2.0 * b * t))
    return p.sigma**4 * numerator / denominator


@dataclass(frozen=True)
class ClosedFormReport:
    """Outcome of the closed-form-versus-numeric equivalence sweep."""

    verified: bool
    n_checked: int
    max_rel_diff: float
    worst_case: tuple | None


@lru_cache(maxsize=1)
def closed_form_verification() -> ClosedFormReport:
    """Cross-check the closed form against the numeric oracle.

    Samples 50 random parameter tuples from a fixed seed and compares
    both k^2 evaluations; ``verified`` holds when every tuple agrees
    within 1e-6 relative.
    """
    n_tuples = 50
    rng = np.random.default_rng(20240917)
    max_rel = 0.0
    worst = None
    for _ in range(n_tuples):
        p = ModelParams(
            sigma=float(rng.uniform(0.1, 1.0)),
            beta1=float(rng.uniform(0.05, 0.8)),
            beta2=float(rng.uniform(0.05, 0.8)),
            R=float(rng.uniform(-1.5, 1.5)),
            rho=float(rng.uniform(-0.9, 0.9)),
            beta=float(rng.uniform(0.1, 2.0)),
            alpha=1.0,
            rho1=0.0,
            rho2=0.0,
        )
        t = float(rng.uniform(0.3, 1.5))
        T = t + float(rng.uniform(0.0, 1.0))
        validate_params(p)
        closed = k_sq_closed_form(t, T, p)
        numeric = k_sq_numeric(t, T, p)
        rel = abs(closed - numeric) / max(abs(numeric), 1e-300)
        if rel > max_rel:
            max_rel = rel
            worst = (t, T, p.to_dict())
    return ClosedFormReport(
        verified=max_rel <= 1e-6,
        n_checked=n_tuples,
        max_rel_diff=max_rel,
        worst_case=worst,
    )


@dataclass(frozen=True)
class DriftFactorResult:
    """k^2 at one (t, T) together with the evaluation route taken."""

    t: float
    T: float
    k_sq: float
    method: str


@lru_cache(maxsize=200_000)
def drift_factor_result(t: float, T: float, p: ModelParams) -> DriftFactorResult:
    """k^2(t, T) of a valid set: a documented limit, else the closed form.

    Requires 0 <= t <= T < inf.  Memoized for grids.  ``p`` must pass
    `validate_params`, or this raises `InvalidModelParams`.  ``method`` is
    "limit" or "closed_form".  Conventions at the degenerate points: at
    t = 0 the matching window is empty and k collapses to the instantaneous rate
    sigma_F^2(0, T); with alpha = 0 the variance factor never moves and
    k is fixed at the time average of sigma_F^2 over [0, t], which
    multiplies an identically zero integral anyway.
    """
    validate_params(p)
    if not 0.0 <= t <= T < math.inf:
        raise DomainError("drift_factor requires 0 <= t <= T < inf")
    if t == 0.0 or (p.beta1 == 0.0 and p.beta2 == 0.0):
        # Empty matching window, or sigma_F^2 flat in calendar time: the
        # weighted average collapses to the instantaneous rate either way.
        return DriftFactorResult(t, T, variance_rate(0.0, T, p) ** 2, "limit")
    if p.alpha == 0.0:
        avg = integrated_variance(0.0, t, T, p) / t
        return DriftFactorResult(t, T, avg * avg, "limit")
    return DriftFactorResult(t, T, k_sq_closed_form(t, T, p), "closed_form")


def drift_factor(t: float, T: float, p: ModelParams) -> float:
    """Variance-matched drift factor k(t, T) >= 0."""
    result = drift_factor_result(t, T, p)
    return math.sqrt(max(result.k_sq, 0.0))
