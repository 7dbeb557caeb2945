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
from typing import Any

from . import __version__
from .counting import SearchSpaceEntry, SpaceSummary, entry_as_dict
from .diagnostics import OutlierReport, ShapeThresholds, ShapeVerdict
from .model import DerivedDataset, record_as_dict
from .sim import RNG_ALGORITHM, RNG_COUNTER_LAYOUT, SimOutcome
from .stats import PoolResult

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
        if hasattr(value, "_fields"):
            raise ValueError(
                f"named tuple {type(value).__name__} must enter a report as _asdict()"
            )
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


def build_audit_report(
    ds: DerivedDataset,
    shape: ShapeVerdict,
    outliers: OutlierReport,
    pool: PoolResult | None,
    space_entries: list[SearchSpaceEntry] | None,
    space_summary: SpaceSummary | None,
    config: dict,
    thresholds: ShapeThresholds | None = None,
) -> dict:
    """Assemble the audit report structure (dataset table, verdict, flags, pool)."""
    studies = []
    for rec, d in zip(ds.records, ds.derived):
        row = record_as_dict(rec)
        row.update(
            {"se": d.se, "z": d.z, "p": d.p, "p_floored": d.p_floored, "rank": d.rank}
        )
        studies.append(row)
    report = {
        "tool": {"name": TOOL_NAME, "version": __version__},
        "label": ds.label,
        "config": config,
        "shape_thresholds": (thresholds or ShapeThresholds())._asdict(),
        "n_studies": len(ds),
        "studies": studies,
        "shape": shape._asdict(),
        "outliers": {
            "p_threshold": outliers.p_threshold,
            "influence_threshold": (
                None
                if math.isinf(outliers.influence_threshold)
                else outliers.influence_threshold
            ),
            "flagged": [f._asdict() for f in outliers.flagged],
        },
        "pool": None if pool is None else pool._asdict(),
    }
    if space_entries is not None and space_summary is not None:
        report["search_space"] = {
            "entries": [entry_as_dict(e) for e in space_entries],
            "median": space_summary.median,
            "min": space_summary.min,
            "max": space_summary.max,
        }
    else:
        report["search_space"] = None
    return report


def build_sim_report(outcome: SimOutcome) -> dict:
    """Assemble the simulation report: config echo, RNG scheme, verdict table."""
    cfg = outcome.config
    return {
        "tool": {"name": TOOL_NAME, "version": __version__},
        "config": cfg._asdict(),
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
