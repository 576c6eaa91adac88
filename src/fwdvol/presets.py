"""Canonical parameter sets and flat curves for demos and tests.

Two configurations recur throughout the documentation and the test
suite.  The term-structure set has all three mean reversions active and
produces the characteristic decay of at-the-money vol with expiry plus a
skewed smile.  The drift-study set switches variance mean reversion off
(its Feller condition fails on purpose) and is the stress configuration
for the drift approximation and the truncation scheme.
"""

from __future__ import annotations

from .model import MarketCurves, ModelParams

__all__ = [
    "TERM_STRUCTURE_SET",
    "DRIFT_STUDY_SET",
    "PRESETS",
    "flat_curves",
]

TERM_STRUCTURE_SET = ModelParams(
    sigma=0.4,
    beta1=0.1,
    beta2=1.0,
    R=0.5,
    rho=-0.3,
    beta=0.5,
    alpha=1.0,
    rho1=0.3,
    rho2=0.3,
)

DRIFT_STUDY_SET = ModelParams(
    sigma=0.6,
    beta1=0.01,
    beta2=1.0,
    R=0.5,
    rho=-0.3,
    beta=0.0,
    alpha=1.0,
    rho1=0.3,
    rho2=0.3,
)

# CLI preset tokens.
PRESETS = {
    "fig1": TERM_STRUCTURE_SET,
    "sec5": DRIFT_STUDY_SET,
}


def flat_curves() -> MarketCurves:
    """Unit forward and discount curves, flat in T: one node each."""
    return MarketCurves(forwards=((0.0, 1.0),), discounts=((0.0, 1.0),))
