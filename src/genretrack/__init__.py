"""genretrack: track user interest through a genre space and recommend rising genres.

A user's interest profile is a point in a d-dimensional space whose axes are
content genres.  Watch events build daily profile snapshots; a
constant-acceleration Kalman predictor tracks the moving profile and issues
one-step-ahead interest forecasts; the predicted-vs-calculated delta per genre
drives promoted/demoted recommendations; the evaluation harness scores the
forecasts with per-step cosine distances and a smoothness ratio.  A seeded
synthetic generator stands in for real viewing data.
"""

from .evaluation import (
    DEFAULT_TAU,
    EvalReport,
    PooledReport,
    evaluate,
    evaluate_many,
    evaluate_record,
    pooled_histogram,
    write_histogram,
    write_report,
    write_summary,
)
from .profiles import (
    ProfileSeries,
    WatchEvent,
    build_series,
    interest_update,
    read_events,
    read_profiles,
    write_events,
    write_profiles,
)
from .recommender import (
    DEFAULT_THETA,
    NEGATIVE,
    NEUTRAL,
    POSITIVE,
    ConceptDelta,
    Recommendation,
    concept_deltas,
    filter_catalog,
    read_recommendations,
    recommend,
    write_recommendations,
)
from .space import (
    ConceptSpace,
    UnknownGenreError,
    ZeroNormError,
    cosine_distance,
    new_space,
    read_vocabulary,
    write_vocabulary,
)
from .synthetic import (
    DAY_SECONDS,
    REGIMES,
    ScenarioConfig,
    ScenarioData,
    SimulatedUser,
    day_instants,
    generate_events,
    generate_scenario,
    generate_trajectories,
    generate_users,
    placeholder_vocabulary,
)
from .tracking import (
    DivergenceError,
    FilterState,
    SingularInnovationError,
    TrackingModel,
    TrackRecord,
    build_model,
    covariance_step,
    gain,
    init_filter,
    predict_step,
    read_final_states,
    read_track_record,
    steady_state_covariance,
    track_series,
    track_series_decoupled,
    track_users,
    write_final_states,
    write_track_record,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # space
    "ConceptSpace",
    "UnknownGenreError",
    "ZeroNormError",
    "cosine_distance",
    "new_space",
    "read_vocabulary",
    "write_vocabulary",
    # profiles
    "WatchEvent",
    "ProfileSeries",
    "interest_update",
    "build_series",
    "read_events",
    "write_events",
    "read_profiles",
    "write_profiles",
    # tracking
    "TrackingModel",
    "FilterState",
    "TrackRecord",
    "DivergenceError",
    "SingularInnovationError",
    "build_model",
    "init_filter",
    "gain",
    "predict_step",
    "covariance_step",
    "steady_state_covariance",
    "track_series",
    "track_series_decoupled",
    "track_users",
    "read_track_record",
    "write_track_record",
    "read_final_states",
    "write_final_states",
    # recommender
    "DEFAULT_THETA",
    "POSITIVE",
    "NEGATIVE",
    "NEUTRAL",
    "ConceptDelta",
    "Recommendation",
    "concept_deltas",
    "recommend",
    "filter_catalog",
    "read_recommendations",
    "write_recommendations",
    # evaluation
    "DEFAULT_TAU",
    "EvalReport",
    "PooledReport",
    "evaluate",
    "evaluate_record",
    "evaluate_many",
    "pooled_histogram",
    "write_report",
    "write_summary",
    "write_histogram",
    # synthetic
    "DAY_SECONDS",
    "REGIMES",
    "ScenarioConfig",
    "SimulatedUser",
    "ScenarioData",
    "placeholder_vocabulary",
    "day_instants",
    "generate_users",
    "generate_trajectories",
    "generate_events",
    "generate_scenario",
]
