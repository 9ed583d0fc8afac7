"""genretrack: track user interest through a genre space and recommend rising genres.

A user's interest profile is a point in a d-dimensional space whose axes are
content genres.  Watch events build daily profile snapshots; a
constant-acceleration Kalman predictor tracks the moving profile and issues
one-step-ahead interest forecasts; the predicted-vs-calculated delta per genre
drives promoted/demoted recommendations; the evaluation harness scores the
forecasts with per-step cosine distances and a smoothness ratio.  A seeded
synthetic generator stands in for real viewing data.
"""

# Each module's __all__ is its public API; the package re-exports all of them.
from . import evaluation, profiles, recommender, space, synthetic, tracking
from .evaluation import *
from .profiles import *
from .recommender import *
from .space import *
from .synthetic import *
from .tracking import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *space.__all__,
    *profiles.__all__,
    *tracking.__all__,
    *recommender.__all__,
    *evaluation.__all__,
    *synthetic.__all__,
]
