"""Two-factor forward-curve model with one-factor stochastic volatility.

Forwards follow two exponentially damped factors whose common scale is a
mean-reverting variance process, so implied vol falls with time to
settlement while the smile stays controllable.  The package prices
European options on any forward semi-analytically through the model's
characteristic function, simulates the factor state with a drift
approximation that keeps the state dimension independent of the number
of settlement dates, and fits the parameters to implied-vol quotes.

Layout: ``model`` holds parameters, curves, and the variance-rate
integrals; ``charfn`` the characteristic-function ODEs; ``pricing`` the
Fourier pricer and Black-76 utilities; ``driftfactor`` the variance-
matched drift factor k(t, T); ``mc`` the path engine; ``calibration``
the least-squares fit; ``cli`` the command-line harness.
"""

__version__ = "0.1.0"

from .calibration import CalibrationResult, VolQuote, fit, objective
from .charfn import charfn_value, default_ab_steps, integrate_ab, integrate_ab_snapshots
from .driftfactor import (
    ClosedFormReport,
    DriftFactorResult,
    centered_variance_cov,
    closed_form_verification,
    drift_factor,
    drift_factor_result,
    k_sq_closed_form,
    k_sq_numeric,
)
from .errors import (
    CorrelationMatrixNotPSD,
    DegenerateDenominator,
    DomainError,
    FwdVolError,
    InvalidModelParams,
    MissingSettlement,
    NoArbitrageViolation,
    NonConvergence,
    NumericalError,
    ParamViolation,
    QuadratureTailError,
)
from .mc import (
    DriftStudyRow,
    McConfig,
    McEstimate,
    PathState,
    PayoffSpec,
    drift_error_study,
    evolve_step,
    forward_reconstruct,
    initial_state,
    price_payoff,
)
from .model import (
    CorrelationFactorization,
    MarketCurves,
    ModelParams,
    factorize_correlation,
    integrated_variance,
    validate_params,
    variance_rate,
)
from .presets import DRIFT_STUDY_SET, PRESETS, TERM_STRUCTURE_SET, flat_curves
from .pricing import (
    OptionSpec,
    QuadratureConfig,
    SliceResult,
    atm_term_structure,
    black76_price,
    black76_vega,
    call_price,
    call_prices,
    implied_vol,
    price,
    price_slices,
    put_price,
    smile_slice,
    smile_table,
    term_structure_table,
)

__all__ = [
    "__version__",
    "CalibrationResult",
    "VolQuote",
    "fit",
    "objective",
    "charfn_value",
    "default_ab_steps",
    "integrate_ab",
    "integrate_ab_snapshots",
    "ClosedFormReport",
    "DriftFactorResult",
    "centered_variance_cov",
    "closed_form_verification",
    "drift_factor",
    "drift_factor_result",
    "k_sq_closed_form",
    "k_sq_numeric",
    "CorrelationMatrixNotPSD",
    "DegenerateDenominator",
    "DomainError",
    "FwdVolError",
    "InvalidModelParams",
    "MissingSettlement",
    "NoArbitrageViolation",
    "NonConvergence",
    "NumericalError",
    "ParamViolation",
    "QuadratureTailError",
    "DriftStudyRow",
    "McConfig",
    "McEstimate",
    "PathState",
    "PayoffSpec",
    "drift_error_study",
    "evolve_step",
    "forward_reconstruct",
    "initial_state",
    "price_payoff",
    "CorrelationFactorization",
    "MarketCurves",
    "ModelParams",
    "factorize_correlation",
    "integrated_variance",
    "validate_params",
    "variance_rate",
    "DRIFT_STUDY_SET",
    "PRESETS",
    "TERM_STRUCTURE_SET",
    "flat_curves",
    "OptionSpec",
    "QuadratureConfig",
    "SliceResult",
    "atm_term_structure",
    "black76_price",
    "black76_vega",
    "call_price",
    "call_prices",
    "implied_vol",
    "price",
    "price_slices",
    "put_price",
    "smile_slice",
    "smile_table",
    "term_structure_table",
]
