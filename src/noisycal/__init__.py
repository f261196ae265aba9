"""Conformal prediction sets that stay valid under label contamination.

Calibration labels observed through a known column-stochastic transition
matrix bias the usual split-conformal quantile.  This package estimates the
induced inflation of the empirical coverage, corrects it with either a
finite-sample optimized bound or an asymptotic Monte-Carlo estimate, and
calibrates thresholds whose marginal coverage is certified despite the
contamination.  Each module's ``__all__`` is the one list of its public names.
"""

from .calibrate import *
from .correction import *
from .empirical import *
from .errors import *
from .noise_model import *
from .scores import *
from .synth import *

__version__ = "0.1.0"
