"""Deterministic JSON assembly for audit and simulation reports.

The serializer is intentionally small and strict: numbers print with nine
significant digits, dictionaries keep insertion order, non-finite floats are
rejected rather than smuggled in as strings. Identical report content
therefore always produces identical bytes, and a report parsed with the
standard json module re-serializes to the same bytes.
"""

from __future__ import annotations

import json
import math
from typing import TYPE_CHECKING, Any

from . import __version__
from .counting import SearchSpaceEntry, SpaceSummary
from .diagnostics import OutlierReport, ShapeThresholds, ShapeVerdict
from .model import Dataset, record_as_dict
from .stats import PoolResult

if TYPE_CHECKING:
    from .sim import SimOutcome

TOOL_NAME = "pvaudit"


def format_number(x: float) -> str:
    """Nine significant digits, shortest form ('%.9g')."""
    return format(float(x), ".9g")


def _emit(value: Any, indent: int, out: list[str]) -> None:
    pad = "  " * indent
    if value is None:
        out.append("null")
    elif isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, int):
        out.append(repr(value))
    elif isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"non-finite number {value!r} cannot enter a report")
        out.append(format_number(value))
    elif isinstance(value, str):
        out.append(json.dumps(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, item) in enumerate(value.items()):
            if not isinstance(key, str):
                raise ValueError(f"report keys must be strings, got {key!r}")
            out.append(f'{pad}  {json.dumps(key)}: ')
            _emit(item, indent + 1, out)
            out.append(",\n" if i < len(value) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        out.append("[\n")
        for i, item in enumerate(value):
            out.append(pad + "  ")
            _emit(item, indent + 1, out)
            out.append(",\n" if i < len(value) - 1 else "\n")
        out.append(pad + "]")
    else:
        raise ValueError(f"unsupported report value {value!r}")


def dumps(value: Any) -> str:
    """Serialize a report structure to deterministic JSON text."""
    out: list[str] = []
    _emit(value, 0, out)
    return "".join(out) + "\n"


def _shape_dict(shape: ShapeVerdict) -> dict:
    return {
        "verdict": shape.verdict,
        "slope_single": shape.slope_single,
        "breakpoint": shape.breakpoint,
        "sse_single": shape.sse_single,
        "sse_two_segment": shape.sse_two_segment,
        "bic_delta": shape.bic_delta,
        "ks_statistic": shape.ks_statistic,
        "ks_pvalue": shape.ks_pvalue,
    }


def _thresholds_dict(t: ShapeThresholds) -> dict:
    return {
        "ks_alpha": t.ks_alpha,
        "slope_band": list(t.slope_band),
        "small_p": t.small_p,
        "small_p_majority": t.small_p_majority,
        "adequate_rmse": t.adequate_rmse,
        "bic_evidence": t.bic_evidence,
        "slope_ratio_max": t.slope_ratio_max,
        "min_points": t.min_points,
    }


def _pool_dict(pool: PoolResult) -> dict:
    return {
        "k": pool.k,
        "fixed_mean": pool.fixed_mean,
        "q": pool.q,
        "tau2": pool.tau2,
        "random_mean": pool.random_mean,
        "random_se": pool.random_se,
        "i2": pool.i2,
        "weights_fixed": list(pool.weights_fixed),
        "weights_random": list(pool.weights_random),
    }


def build_audit_report(
    ds: Dataset,
    shape: ShapeVerdict,
    outliers: OutlierReport,
    pool: PoolResult | None,
    space_entries: list[SearchSpaceEntry] | None,
    space_summary: SpaceSummary | None,
    config: dict,
    thresholds: ShapeThresholds | None = None,
) -> dict:
    """Assemble the audit report structure (dataset table, verdict, flags, pool)."""
    derived = ds.require_ranks()
    studies = []
    for rec, d in zip(ds.records, derived):
        row = record_as_dict(rec)
        row.update(
            {"se": d.se, "z": d.z, "p": d.p, "p_floored": d.p_floored, "rank": d.rank}
        )
        studies.append(row)
    report = {
        "tool": {"name": TOOL_NAME, "version": __version__},
        "label": ds.label,
        "config": config,
        "shape_thresholds": _thresholds_dict(thresholds or ShapeThresholds()),
        "n_studies": len(ds),
        "studies": studies,
        "shape": _shape_dict(shape),
        "outliers": {
            "p_threshold": outliers.p_threshold,
            "influence_threshold": (
                None
                if math.isinf(outliers.influence_threshold)
                else outliers.influence_threshold
            ),
            "flagged": [
                {"row": f.row, "reason": f.reason} for f in outliers.flagged
            ],
        },
        "pool": None if pool is None else _pool_dict(pool),
    }
    if space_entries is not None and space_summary is not None:
        report["search_space"] = {
            "entries": [
                {
                    "ref": e.ref_id,
                    "author": e.author,
                    "year": e.year,
                    "outcomes": e.outcomes,
                    "causes": e.causes,
                    "covariates": e.covariates,
                    "tests": e.tests,
                    "models": e.models,
                    "space": e.space,
                }
                for e in space_entries
            ],
            "median": space_summary.median,
            "min": space_summary.min,
            "max": space_summary.max,
        }
    else:
        report["search_space"] = None
    return report


def build_sim_report(outcome: SimOutcome) -> dict:
    """Assemble the simulation report: config echo, RNG scheme, verdict table."""
    from .sim import RNG_ALGORITHM, RNG_COUNTER_LAYOUT

    cfg = outcome.config
    return {
        "tool": {"name": TOOL_NAME, "version": __version__},
        "config": {
            "n_studies": cfg.n_studies,
            "effect_fraction": cfg.effect_fraction,
            "noncentrality": cfg.noncentrality,
            "censor_rate": cfg.censor_rate,
            "hack_k": cfg.hack_k,
            "seed": cfg.seed,
            "replicates": cfg.replicates,
        },
        "rng": {
            "algorithm": RNG_ALGORITHM,
            "key": cfg.seed,
            "counter": RNG_COUNTER_LAYOUT,
            "draws_per_study": cfg.hack_k + 2,
        },
        "replicates": [
            {
                "index": r.index,
                "reported": len(r.pvalues),
                "suppressed": r.suppressed,
                "verdict": r.verdict.verdict,
                "ks_statistic": r.verdict.ks_statistic,
                "ks_pvalue": r.verdict.ks_pvalue,
            }
            for r in outcome.replicates
        ],
        "aggregate": {
            "verdict_counts": dict(outcome.verdict_counts),
            "mean_suppressed_fraction": outcome.mean_suppressed_fraction,
            "ks_rejection_rate": outcome.ks_rejection_rate,
        },
    }
