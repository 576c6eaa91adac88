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

from . import calibration, charfn, driftfactor, errors, mc, model, presets, pricing
from .calibration import *
from .charfn import *
from .driftfactor import *
from .errors import *
from .mc import *
from .model import *
from .presets import *
from .pricing import *

__all__ = ["__version__"]
__all__ += calibration.__all__
__all__ += charfn.__all__
__all__ += driftfactor.__all__
__all__ += errors.__all__
__all__ += mc.__all__
__all__ += model.__all__
__all__ += presets.__all__
__all__ += pricing.__all__
