"""pvaudit: reliability auditing for meta-analyses.

Reconstructs test statistics from reported confidence intervals, draws and
classifies p-value diagnostic plots, counts per-study analysis search
spaces, pools effects under a random-effects model, and simulates
literatures with selective reporting, all with deterministic outputs.
"""

__version__ = "0.1.0"

from .model import (
    Dataset,
    DatasetStateError,
    DerivedStats,
    ParseError,
    SchemaError,
    StudyRecord,
    Violation,
    dataset_from_json,
    dataset_to_json,
    parse_dataset,
    serialize_dataset,
    validate_dataset,
)
from .stats import (
    PoolResult,
    derive_dataset,
    derive_stats,
    effects_from_dataset,
    loo_influence,
    normal_sf,
    pool_dl,
    rank_pvalues,
    two_sided_critical_value,
)
from .diagnostics import (
    OutlierFlag,
    OutlierReport,
    PlotSeries,
    ReferenceLine,
    ShapeThresholds,
    ShapeVerdict,
    classify_pvalues,
    classify_shape,
    expectation_plot,
    flag_outliers,
    ks_uniform,
    pvalue_plot,
    smallest_p_marker,
    volcano_plot,
)
from .counting import (
    SearchSpaceEntry,
    SpaceSummary,
    parse_search_space_csv,
    search_space,
    serialize_search_space_csv,
    summarize_spaces,
)

# The simulator needs numpy and scipy; every other module runs on the
# standard library alone. Its names are resolved on first access (PEP 562)
# so that importing the package, or running any command but simulate, never
# loads them.
_SIM_NAMES = frozenset(
    {
        "ReplicateOutcome",
        "SimConfig",
        "SimOutcome",
        "generate_literature",
        "generate_study_effects",
        "greenwald_censor_rate",
        "run_experiment",
    }
)


def __getattr__(name: str):
    if name in _SIM_NAMES:
        from . import sim

        return getattr(sim, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "__version__",
    "Dataset",
    "DatasetStateError",
    "DerivedStats",
    "ParseError",
    "SchemaError",
    "StudyRecord",
    "Violation",
    "dataset_from_json",
    "dataset_to_json",
    "parse_dataset",
    "serialize_dataset",
    "validate_dataset",
    "PoolResult",
    "derive_dataset",
    "derive_stats",
    "effects_from_dataset",
    "loo_influence",
    "normal_sf",
    "pool_dl",
    "rank_pvalues",
    "two_sided_critical_value",
    "OutlierFlag",
    "OutlierReport",
    "PlotSeries",
    "ReferenceLine",
    "ShapeThresholds",
    "ShapeVerdict",
    "classify_pvalues",
    "classify_shape",
    "expectation_plot",
    "flag_outliers",
    "ks_uniform",
    "pvalue_plot",
    "smallest_p_marker",
    "volcano_plot",
    "SearchSpaceEntry",
    "SpaceSummary",
    "parse_search_space_csv",
    "search_space",
    "serialize_search_space_csv",
    "summarize_spaces",
    "ReplicateOutcome",
    "SimConfig",
    "SimOutcome",
    "generate_literature",
    "generate_study_effects",
    "greenwald_censor_rate",
    "run_experiment",
]
