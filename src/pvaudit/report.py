"""Deterministic JSON assembly for audit and simulation reports.

The serializer is intentionally small and strict: numbers print with nine
significant digits, dictionaries keep insertion order, non-finite floats are
rejected rather than smuggled in as strings. Identical report content
therefore always produces identical bytes, and a report parsed with the
standard json module re-serializes to the same bytes. A -0.0 prints as "0",
since "-0" would read back as the integer 0 and re-serialize without its sign.
"""

from __future__ import annotations

import math
from itertools import repeat
from json.encoder import encode_basestring_ascii as _quote
from typing import Any

from . import __version__
from .diagnostics import SHAPE_THRESHOLDS, OutlierReport, ShapeVerdict
from .model import CSV_COLUMNS, DerivedDataset, DerivedStats, format_number, record_values
from .stats import PoolResult

TOOL_NAME = "pvaudit"
_NO_KEY = object()  # the key of every list item in _encode


def _encode(value: Any, pad: str) -> str:
    """JSON text of ``value``, its continuation lines indented by ``pad``.

    One loop over a container's (key, item) pairs writes exact float, str
    and int items inline; the rest (bool, None, subclasses, errors) take the
    ``isinstance`` chain. A list's items pair with ``_NO_KEY``.
    """
    if isinstance(value, dict):
        pairs, brackets = value.items(), "{}"
    elif isinstance(value, (list, tuple)):
        if hasattr(value, "_fields"):
            raise ValueError(
                f"named tuple {type(value).__name__} must enter a report as _asdict()"
            )
        pairs, brackets = zip(repeat(_NO_KEY), value), "[]"
    elif value is None:
        return "null"
    elif isinstance(value, bool):
        return "true" if value else "false"
    elif isinstance(value, int):
        return repr(value)
    elif isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"non-finite number {value!r} cannot enter a report")
        return format_number(value)
    elif isinstance(value, str):
        return _quote(value)
    else:
        raise ValueError(f"unsupported report value {value!r}")
    inner = pad + "  "
    parts = []
    for key, item in pairs:
        if key is not _NO_KEY and not isinstance(key, str):
            raise ValueError(f"report keys must be strings, got {key!r}")
        t = type(item)
        if t is float and -math.inf < item < math.inf:
            text = "%.9g" % (item + 0.0)
        elif t is str:
            text = _quote(item)
        elif t is int:
            text = repr(item)
        else:
            text = _encode(item, inner)
        parts.append(text if key is _NO_KEY else f"{_quote(key)}: {text}")
    if not parts:
        return brackets
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(parts) + f"\n{pad}{brackets[1]}"


def dumps(value: Any) -> str:
    """Serialize a report structure to deterministic JSON text."""
    return _encode(value, "") + "\n"


def build_audit_report(
    ds: DerivedDataset,
    shape: ShapeVerdict,
    outliers: OutlierReport,
    pool: PoolResult | None,
    space_entries: list | None,
    space_summary: tuple | None,
    config: dict,
) -> dict:
    """Assemble the audit report structure (dataset table, verdict, flags, pool,
    and the ``counting`` search-space entries with their summary, or None).
    The config echo reads the level, critical value and scale from ``ds`` and
    the thresholds from ``outliers``, then adds ``config``: what only the
    caller knows (the CLI's ``manual_rows`` and ``profile``)."""
    keys = CSV_COLUMNS + DerivedStats._fields
    studies = [dict(zip(keys, record_values(rec) + d)) for rec, d in zip(ds.records, ds.derived)]
    report = {
        "tool": {"name": TOOL_NAME, "version": __version__},
        "label": ds.label,
        "config": {
            "confidence_level": ds.confidence_level,
            "critical_value": ds.critical_value,
            "scale": ds.scale,
            "p_threshold": outliers.p_threshold,
            "influence_threshold": outliers.influence_threshold,
            **config,
        },
        "shape_thresholds": SHAPE_THRESHOLDS._asdict(),
        "n_studies": len(ds),
        "studies": studies,
        "shape": shape._asdict(),
        "outliers": {**outliers._asdict(), "flagged": [f._asdict() for f in outliers.flagged]},
        "pool": None if pool is None else pool._asdict(),
    }
    if space_entries is not None and space_summary is not None:
        from .counting import OUTPUT_COLUMNS

        report["search_space"] = {
            "entries": [dict(zip(OUTPUT_COLUMNS, e)) for e in space_entries],
            **space_summary._asdict(),
        }
    else:
        report["search_space"] = None
    return report


def build_sim_report(outcome) -> dict:
    """Assemble a ``sim.SimOutcome``'s report: config echo, RNG scheme, verdict table."""
    from .sim import RNG_ALGORITHM, RNG_COUNTER_LAYOUT

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
