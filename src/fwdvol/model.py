"""Model parameters, market curves, and the deterministic variance structure.

The model evolves a whole forward curve F(t, T) under the pricing measure
with two correlated Brownian factors whose loadings decay exponentially in
time to settlement, scaled by a common square-root variance factor v(t):

    dF(t,T)/F(t,T) = sqrt(v) sigma (exp(-beta1 (T-t)) dz1
                                    + R exp(-beta2 (T-t)) dz2)
    dv             = beta (1 - v) dt + alpha sqrt(v) dz3

with constant shock correlations rho = <dz1, dz2>, rho1 = <dz1, dz3>,
rho2 = <dz2, dz3> and v(0) = 1.  Setting v identically to 1 (alpha = 0)
leaves a deterministic-volatility curve model whose instantaneous variance
rate for a fixed settlement is

    sigma_F^2(t, T) = sigma^2 (exp(-2 beta1 (T-t)) + R^2 exp(-2 beta2 (T-t))
                               + 2 rho R exp(-(beta1 + beta2) (T-t))).

This module owns the parameter container and its validation, the initial
forward and discount curves, the variance rate above together with its exact
time integral, and the PSD-tolerant factorization of the shock correlation
matrix used to draw correlated normals.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    CorrelationMatrixNotPSD,
    DomainError,
    InvalidModelParams,
    ParamViolation,
)

__all__ = [
    "PSD_TOLERANCE",
    "ModelParams",
    "MarketCurves",
    "validate_params",
    "variance_rate",
    "integrated_variance",
    "variance_before_expiry",
    "factorize_correlation",
]

# Eigenvalues of the correlation matrix may round to this far below zero.
PSD_TOLERANCE = 1e-12

_PARAM_KEYS = ("sigma", "beta1", "beta2", "R", "rho", "beta", "alpha", "rho1", "rho2")


@dataclass(frozen=True)
class ModelParams:
    """Complete parameter set of the two-factor stochastic-volatility model.

    Parameters
    ----------
    sigma : float
        Overall volatility scale of the first factor, > 0.
    beta1, beta2 : float
        Mean-reversion rates of the two curve factors, >= 0.
    R : float
        Relative weight of the second factor.  Any finite value is allowed;
        R = 0 removes the second factor.
    rho : float
        Correlation between the two curve factors.
    beta : float
        Mean-reversion rate of the variance factor, >= 0.
    alpha : float
        Volatility of the variance factor, >= 0.  alpha = 0 freezes v at 1.
    rho1, rho2 : float
        Correlations between each curve factor and the variance factor.

    The variance factor starts at v(0) = 1, its stationary mean: the
    overall level is carried by ``sigma``.
    """

    sigma: float
    beta1: float
    beta2: float
    R: float
    rho: float
    beta: float
    alpha: float
    rho1: float
    rho2: float

    def correlation_matrix(self) -> np.ndarray:
        """Return the 3x3 correlation matrix of (dz1, dz2, dz3)."""
        m = np.array(
            [
                [1.0, self.rho, self.rho1],
                [self.rho, 1.0, self.rho2],
                [self.rho1, self.rho2, 1.0],
            ]
        )
        return m

    def to_dict(self) -> dict[str, float]:
        """Serialize to the flat mapping used by the JSON interfaces."""
        return {k: float(getattr(self, k)) for k in _PARAM_KEYS}

    @classmethod
    def from_dict(cls, data: dict) -> "ModelParams":
        """Build from a flat mapping; unknown or missing keys are rejected."""
        if not isinstance(data, Mapping):
            raise DomainError(f"parameter mapping expected, got {type(data).__name__}")
        missing = [k for k in _PARAM_KEYS if k not in data]
        extra = [k for k in data if k not in _PARAM_KEYS]
        if missing or extra:
            raise DomainError(
                f"parameter mapping: missing keys {missing}, unexpected keys {extra}"
            )
        try:
            values = {k: float(data[k]) for k in _PARAM_KEYS}
        except TypeError as exc:
            raise DomainError(f"parameter mapping: {exc}") from exc
        return cls(**values)


def _clearly_positive_definite(p: ModelParams) -> bool:
    """Whether ``p``'s correlation matrix, with every correlation in
    [-1, 1], is positive definite by a margin no eigensolver can miss.

    The leading 2 x 2 block has eigenvalues 1 -+ rho >= 0, so by Cauchy
    interlacing at most one eigenvalue of the matrix is negative, and a
    positive determinant makes that one positive too; as the eigenvalues
    sum to 3, the least is then above 4/9 of the determinant.  A
    determinant above 1e-12 clears its own rounding error, about 2e-15,
    and that of `np.linalg.eigvalsh`, about 1e-15, so the eigenvalue
    that solver would return is positive.
    """
    r, r1, r2 = p.rho, p.rho1, p.rho2
    return 1.0 + 2.0 * r * r1 * r2 - r * r - r1 * r1 - r2 * r2 > 1e-12


def validate_params(p: ModelParams) -> ModelParams:
    """Check every parameter invariant, returning ``p`` unchanged if all hold.

    Raises
    ------
    InvalidModelParams
        Listing every violated invariant, not just the first.  Codes:
        ``NonFiniteValue``, ``NonPositiveSigma``, ``NegativeRate``,
        ``CorrelationOutOfRange``, ``CorrelationMatrixNotPSD``.
    """
    violations: list[ParamViolation] = []
    for f in fields(p):
        value = getattr(p, f.name)
        if not math.isfinite(value):
            violations.append(
                ParamViolation("NonFiniteValue", f"{f.name} = {value!r} is not finite")
            )
    if violations:
        raise InvalidModelParams(violations)

    if p.sigma <= 0.0:
        violations.append(
            ParamViolation("NonPositiveSigma", f"sigma = {p.sigma} must be > 0")
        )
    for name in ("beta1", "beta2", "beta", "alpha"):
        value = getattr(p, name)
        if value < 0.0:
            violations.append(
                ParamViolation("NegativeRate", f"{name} = {value} must be >= 0")
            )
    correlations_in_range = True
    for name in ("rho", "rho1", "rho2"):
        value = getattr(p, name)
        if abs(value) > 1.0:
            correlations_in_range = False
            violations.append(
                ParamViolation(
                    "CorrelationOutOfRange", f"{name} = {value} must lie in [-1, 1]"
                )
            )
    if correlations_in_range and not _clearly_positive_definite(p):
        eigenvalues = np.linalg.eigvalsh(p.correlation_matrix())
        if eigenvalues.min() < -PSD_TOLERANCE:
            violations.append(
                ParamViolation(
                    "CorrelationMatrixNotPSD",
                    "correlation matrix of (dz1, dz2, dz3) has eigenvalue "
                    f"{eigenvalues.min():.3e} < 0",
                )
            )
    if violations:
        raise InvalidModelParams(violations)
    return p


@dataclass(frozen=True)
class MarketCurves:
    """Initial forward curve F(0, T) and discount curve D(T).

    Both curves are given as sequences of finite (T, value) nodes with
    strictly increasing settlement times.  Lookups interpolate linearly in
    T on the logarithm of the value and extrapolate flat beyond the first
    and last nodes, so a single node describes a flat curve.
    """

    forwards: tuple[tuple[float, float], ...]
    discounts: tuple[tuple[float, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "forwards", tuple(map(tuple, self.forwards)))
        object.__setattr__(self, "discounts", tuple(map(tuple, self.discounts)))
        for name, nodes in (("forwards", self.forwards), ("discounts", self.discounts)):
            if not nodes:
                raise DomainError(f"{name}: at least one (T, value) node required")
            if not all(math.isfinite(x) for node in nodes for x in node):
                raise DomainError(f"{name}: settlement times and values must be finite")
            times = [t for t, _ in nodes]
            if any(t < 0.0 for t in times):
                raise DomainError(f"{name}: settlement times must be >= 0")
            if any(b <= a for a, b in zip(times, times[1:])):
                raise DomainError(f"{name}: settlement times must strictly increase")
        if any(v <= 0.0 for _, v in self.forwards):
            raise DomainError("forwards must be positive")
        if any(not 0.0 < v <= 1.0 for _, v in self.discounts):
            raise DomainError("discount factors must lie in (0, 1]")
        for name in ("forwards", "discounts"):
            times, values = zip(*getattr(self, name))
            object.__setattr__(self, f"_log_{name}", (np.array(times), np.log(values)))

    @staticmethod
    def _log_linear(T, table):
        """The curve of (times, log values) ``table`` at T."""
        T = np.asarray(T, dtype=float)
        if np.any(T < 0.0):
            raise DomainError("settlement time must be >= 0")
        out = np.exp(np.interp(T, *table))
        return float(out) if out.ndim == 0 else out

    def forward(self, T):
        """Initial forward F(0, T) for settlement T."""
        return self._log_linear(T, self._log_forwards)

    def discount(self, T):
        """Discount factor D(T) to settlement T."""
        return self._log_linear(T, self._log_discounts)

    @classmethod
    def from_dict(cls, data: dict) -> "MarketCurves":
        try:
            forwards = tuple((float(t), float(v)) for t, v in data["forwards"])
            discounts = tuple((float(t), float(v)) for t, v in data["discounts"])
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"curve mapping malformed: {exc}") from exc
        return cls(forwards=forwards, discounts=discounts)


def variance_rate(t, T, p: ModelParams):
    """Deterministic instantaneous variance rate sigma_F^2(t, T).

    This is the squared volatility of the forward settling at T as seen at
    time t when the variance factor sits at its mean level v = 1:

        sigma^2 (exp(-2 b1 h) + R^2 exp(-2 b2 h) + 2 rho R exp(-(b1+b2) h))

    with h = T - t >= 0.  Accepts scalars or arrays for ``t``.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0) or np.any(t > T):
        raise DomainError("variance_rate requires 0 <= t <= T")
    h = T - t
    e1 = np.exp(-p.beta1 * h)
    e2 = np.exp(-p.beta2 * h)
    out = p.sigma**2 * (e1 * e1 + (p.R * e2) ** 2 + 2.0 * p.rho * p.R * e1 * e2)
    # |rho| <= 1 makes the quadratic form nonnegative; only rounding can
    # produce a small negative value here.
    out = np.maximum(out, 0.0)
    return float(out) if out.ndim == 0 else out


def _channels(p: ModelParams):
    """sigma_F^2 / sigma^2 as (weight, rate) pairs: the sum of weight
    exp(-rate (T - t)) over its three decay channels."""
    return (
        (1.0, 2.0 * p.beta1),
        (p.R**2, 2.0 * p.beta2),
        (2.0 * p.rho * p.R, p.beta1 + p.beta2),
    )


def integrated_variance(t0: float, t1: float, T: float, p: ModelParams) -> float:
    """Exact integral of sigma_F^2(s, T) over s in [t0, t1]: the variance
    accrued over the last t1 - t0 years before an expiry T - t1 years
    short of settlement (`variance_before_expiry`)."""
    if not 0.0 <= t0 <= t1 <= T:
        raise DomainError("integrated_variance requires 0 <= t0 <= t1 <= T")
    return float(variance_before_expiry(T - t1, t1 - t0, p))


def variance_before_expiry(lag: float, tau, p: ModelParams):
    """Variance the forward accrues over the last ``tau`` years before an
    expiry ``lag`` years short of its settlement.

    V(tau) = integral of sigma_F^2 at distance to settlement lag + s over
    s in [0, tau], that is ``integrated_variance(t_e - tau, t_e, T, p)``
    with T - t_e = lag.  Each decay channel is written from the expiry's
    end, exp(-c lag) (1 - exp(-c tau)) / c with the bracket in expm1 form,
    whose exponents are never positive, so it neither overflows nor
    cancels at any rate.  A channel that decays by less than 1e-16 over
    the whole window is ``tau`` to double precision and is taken as such:
    a subnormal c would otherwise lose its digits in c tau.  Vectorized
    over ``tau`` >= 0.
    """
    tau = np.asarray(tau, dtype=float)
    window = lag + tau.max(initial=0.0)
    total = 0.0
    for weight, c in _channels(p):
        if c * window < 1e-16:
            channel = tau
        else:
            channel = (math.exp(-c * lag) / c) * -np.expm1(-c * tau)
        total = total + weight * channel
    return p.sigma**2 * total


def factorize_correlation(p: ModelParams) -> np.ndarray:
    """PSD-tolerant Cholesky factor of the 3x3 correlation matrix.

    Returns the read-only lower-triangular L with L L^T equal to the shock
    correlation matrix.  Plain Cholesky fails on semidefinite matrices (a
    perfectly correlated variance factor, say rho1 = 1).  Here a pivot
    below ``PSD_TOLERANCE`` is treated as exactly zero and its column is
    zeroed, which is valid for any PSD matrix; a pivot below
    -``PSD_TOLERANCE`` raises.
    """
    m = p.correlation_matrix()
    n = m.shape[0]
    lower = np.zeros_like(m)
    for j in range(n):
        d = m[j, j] - np.dot(lower[j, :j], lower[j, :j])
        if d < -PSD_TOLERANCE:
            raise CorrelationMatrixNotPSD(
                f"pivot {j} is {d:.3e}; correlation matrix is not PSD"
            )
        d = max(d, 0.0)
        lower[j, j] = math.sqrt(d)
        for i in range(j + 1, n):
            off = m[i, j] - np.dot(lower[i, :j], lower[j, :j])
            if lower[j, j] > PSD_TOLERANCE:
                lower[i, j] = off / lower[j, j]
            else:
                lower[i, j] = 0.0
    lower.setflags(write=False)
    return lower
