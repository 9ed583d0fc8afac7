"""genretrack: track user interest through a genre space and recommend rising genres.

A user's interest profile is a point in a d-dimensional space whose axes are
content genres.  Watch events build daily profile snapshots; a
constant-acceleration Kalman predictor tracks the moving profile and issues
one-step-ahead interest forecasts; the predicted-vs-calculated delta per genre
drives promoted/demoted recommendations; the evaluation harness scores the
forecasts with per-step cosine distances and a smoothness ratio.  A seeded
synthetic generator stands in for real viewing data.

The package re-exports every name in each module's ``__all__``, lazily (PEP
562): ``import genretrack`` loads none of the modules, and looking up a name
loads the modules searched for it, in the order of ``_MODULES``.
"""

import importlib

__version__ = "0.1.0"

# Ordered so that each module follows the modules it imports.
_MODULES = ("space", "profiles", "tracking", "recommender", "evaluation", "synthetic")


def __getattr__(name: str):
    if name in _MODULES:
        return importlib.import_module(f".{name}", __name__)
    modules = (importlib.import_module(f".{m}", __name__) for m in _MODULES)
    if name == "__all__":
        value = ["__version__", *(n for module in modules for n in module.__all__)]
    else:
        owner = next((module for module in modules if name in module.__all__), None)
        if owner is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(owner, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__getattr__("__all__")})
