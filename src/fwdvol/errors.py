"""Exception taxonomy shared across the library.

Input problems (bad parameters, bad domains, arbitrage-violating prices)
derive from ``ValueError`` so callers can treat them as user errors;
numerical failures (divergent ODE integration, quadrature tails, degenerate
denominators) derive from ``ArithmeticError``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

__all__ = [
    "FwdVolError",
    "DomainError",
    "ParamViolation",
    "InvalidModelParams",
    "CorrelationMatrixNotPSD",
    "NumericalError",
    "NonConvergence",
    "QuadratureTailError",
    "NoArbitrageViolation",
    "MissingSettlement",
    "DegenerateDenominator",
]


class FwdVolError(Exception):
    """Base class for all library errors."""


class DomainError(FwdVolError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


def _index(value, name: str) -> int:
    """A count or a seed as an int; `DomainError` for a non-integer, 2.0
    included."""
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, not {value!r}") from None


@dataclass(frozen=True)
class ParamViolation:
    """One violated parameter invariant, identified by a stable code."""

    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"


class InvalidModelParams(FwdVolError, ValueError):
    """Raised by parameter validation; carries every violated invariant."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__("; ".join(str(v) for v in self.violations))

    def codes(self) -> tuple[str, ...]:
        return tuple(v.code for v in self.violations)


class CorrelationMatrixNotPSD(FwdVolError, ValueError):
    """The 3x3 shock correlation matrix has a negative eigenvalue."""


class NumericalError(FwdVolError, ArithmeticError):
    """Base class for numerical failures."""


class NonConvergence(NumericalError):
    """An iterative scheme diverged or failed to reach its tolerance."""


class QuadratureTailError(NumericalError):
    """The truncated quadrature tail is too large for the requested tolerance."""


class NoArbitrageViolation(FwdVolError, ValueError):
    """An option price lies outside its static no-arbitrage bounds."""


class MissingSettlement(FwdVolError, KeyError):
    """Exact-mode reconstruction asked for a settlement that was not tracked."""


class DegenerateDenominator(NumericalError):
    """A ratio is 0/0 at these inputs; the caller must use the documented fallback."""
