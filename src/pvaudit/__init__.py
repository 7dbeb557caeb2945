"""pvaudit: reliability auditing for meta-analyses.

Reconstructs test statistics from reported confidence intervals, draws and
classifies p-value diagnostic plots, counts per-study analysis search
spaces, pools effects under a random-effects model, and simulates
literatures with selective reporting, all with deterministic outputs.
"""

__version__ = "0.1.0"

# Each module's __all__ is the one list of its public names.
from . import counting, diagnostics, model, sim, stats
from .model import *
from .stats import *
from .diagnostics import *
from .counting import *
from .sim import *

__all__ = [
    "__version__",
    *model.__all__,
    *stats.__all__,
    *diagnostics.__all__,
    *counting.__all__,
    *sim.__all__,
]
