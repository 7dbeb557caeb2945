"""Command-line interface: derive, plot, audit, count, simulate.

Exit codes: 0 success, 1 I/O failure, 2 usage or configuration error,
3 input schema mismatch, 4 empty data section, 5 malformed or invalid data.
Analytic verdicts (including bilinear_mixture) are results, not failures,
and always exit 0. Row indices in messages and in --exclude/--manual-outlier
are 0-based positions in the data section, header excluded.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
from pathlib import Path

from . import __version__
from .counting import parse_search_space_csv, serialize_search_space_csv, summarize_spaces
from .diagnostics import (
    ShapeThresholds,
    classify_shape,
    expectation_plot,
    flag_outliers,
    pvalue_plot,
    volcano_plot,
)
from .model import (
    CSV_COLUMNS,
    DEFAULT_CONFIDENCE_LEVEL,
    Dataset,
    ParseError,
    SchemaError,
    dataset_from_json,
    parse_dataset,
)
from .report import build_audit_report, build_sim_report, dumps, format_number
from .sim import SimConfig, greenwald_censor_rate, run_experiment
from .stats import P_FLOOR, derive_dataset, effects_from_dataset, pool_dl

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_SCHEMA = 3
EXIT_NO_RECORDS = 4
EXIT_DATA = 5

# The bundled reproduction profile: tabulated 1.96 critical value, linear
# scale, extreme-p threshold 1e-3, and one judgment-call manual exclusion
# identified by author and year in the bundled dataset.
PROFILES = {
    "paper-reproduction": {
        "critical_value": 1.96,
        "scale": "linear",
        "p_threshold": 1e-3,
        "manual_studies": (("Jenkins", 1989),),
    }
}


class _NoRecords(Exception):
    pass


class _UsageError(Exception):
    pass


def _add_dataset_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--input", required=True, help="input CSV (or JSON mirror) path")
    sp.add_argument("--label", default=None, help="dataset label (default: file stem)")
    sp.add_argument(
        "--confidence-level",
        type=float,
        default=None,
        help="confidence level of the reported intervals (default 0.95, or "
        "the level a JSON mirror records)",
    )
    sp.add_argument(
        "--critical-value",
        type=float,
        default=None,
        help="override the critical value z* (default 1.96 at the 95%% level)",
    )
    sp.add_argument(
        "--scale",
        choices=("linear", "log"),
        default=None,
        help="scale for interval arithmetic (default linear)",
    )
    sp.add_argument(
        "--profile",
        choices=sorted(PROFILES),
        default=None,
        help="named preset pinning critical value, scale, and outlier rules",
    )


def _add_outlier_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument(
        "--p-threshold",
        type=float,
        default=None,
        help="flag rows with p below this as extreme_p (default 1e-3)",
    )
    sp.add_argument(
        "--influence-threshold",
        type=float,
        default=None,
        help="flag rows whose leave-one-out influence exceeds this (default: off)",
    )
    sp.add_argument(
        "--manual-outlier",
        type=int,
        action="append",
        default=[],
        metavar="ROW",
        help="flag this 0-based row manually (repeatable)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pvaudit",
        description="Audit the reliability of a meta-analytic literature "
        "from its reported risk ratios and confidence intervals.",
    )
    parser.add_argument("--version", action="version", version=f"pvaudit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser(
        "derive", help="reconstruct se, z, p, and rank for every study"
    )
    _add_dataset_args(sp)
    sp.add_argument("--output", default=None, help="output CSV path (default stdout)")

    sp = sub.add_parser("plot", help="render a diagnostic plot to SVG (plus CSV siblings)")
    _add_dataset_args(sp)
    _add_outlier_args(sp)
    sp.add_argument(
        "--kind",
        required=True,
        choices=("pvalue", "expectation", "volcano"),
        help="which diagnostic to draw",
    )
    sp.add_argument("--output", required=True, help="output SVG path")
    sp.add_argument(
        "--exclude",
        default="",
        help="comma-separated 0-based row indices to drop (volcano only)",
    )
    sp.add_argument(
        "--exclude-flagged",
        action="store_true",
        help="also drop every row the outlier rules flag (volcano only)",
    )
    sp.add_argument("--title", default=None, help="plot title (default: label and kind)")

    sp = sub.add_parser(
        "audit", help="full audit: verdict, outlier flags, pooling, search space"
    )
    _add_dataset_args(sp)
    _add_outlier_args(sp)
    sp.add_argument(
        "--counting", default=None, help="optional search-space counting CSV"
    )
    sp.add_argument("--output", default=None, help="output JSON path (default stdout)")

    sp = sub.add_parser("count", help="compute analysis search-space sizes")
    sp.add_argument("--input", required=True, help="counting CSV path")
    sp.add_argument("--output", default=None, help="output CSV path (default stdout)")

    sp = sub.add_parser("simulate", help="simulate literatures and classify each")
    sp.add_argument(
        "--n",
        "--n-studies",
        dest="n_studies",
        type=int,
        required=True,
        help="studies per replicate",
    )
    sp.add_argument("--effect-fraction", type=float, default=0.0)
    sp.add_argument("--noncentrality", type=float, default=0.0)
    sp.add_argument("--censor-rate", type=float, default=None)
    sp.add_argument(
        "--censor-preset",
        choices=("greenwald",),
        default=None,
        help="derive the censor rate from a named publication-asymmetry preset",
    )
    sp.add_argument("--hack-k", type=int, default=1, help="analyses tried per study")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--replicates", type=int, default=1)
    sp.add_argument("--output", default=None, help="output JSON path (default stdout)")
    return parser


def _load_dataset(args: argparse.Namespace) -> Dataset:
    path = Path(args.input)
    text = path.read_text(encoding="utf-8")
    label = args.label if args.label is not None else path.stem
    level = args.confidence_level
    if path.suffix.lower() == ".json":
        ds = dataset_from_json(text)
        if level is not None and level != ds.confidence_level:
            raise _UsageError(
                f"--confidence-level {level} differs from the level "
                f"{ds.confidence_level} recorded in {args.input}"
            )
        if args.label is not None:
            ds = Dataset(
                records=ds.records, label=label, confidence_level=ds.confidence_level
            )
    else:
        if level is None:
            level = DEFAULT_CONFIDENCE_LEVEL
        ds = parse_dataset(text, label=label, confidence_level=level)
    if len(ds) == 0:
        raise _NoRecords(f"{args.input}: data section is empty")
    return ds


def _resolve(args: argparse.Namespace) -> tuple[Dataset, dict]:
    """Load and derive the input, and resolve the outlier rules for it.

    Profile defaults fill in whatever the flags leave unset (explicit flags
    win). The rules are keyword arguments of ``flag_outliers``.
    """
    profile = PROFILES.get(args.profile or "", {})
    critical_value = (
        args.critical_value
        if args.critical_value is not None
        else profile.get("critical_value")
    )
    ds = derive_dataset(
        _load_dataset(args),
        critical_value=critical_value,
        scale=args.scale or profile.get("scale") or "linear",
    )
    floored = [str(i) for i, d in enumerate(ds.derived) if d.p_floored]
    if floored:
        print(
            f"warning: {len(floored)} p-value(s) underflowed and were floored at "
            f"{P_FLOOR}: rows {', '.join(floored)}",
            file=sys.stderr,
        )
    p_threshold = getattr(args, "p_threshold", None)
    if p_threshold is None:
        p_threshold = profile.get("p_threshold", 1e-3)
    influence = getattr(args, "influence_threshold", None)
    manual = list(getattr(args, "manual_outlier", []))
    for author, year in profile.get("manual_studies", ()):
        manual.extend(
            i
            for i, rec in enumerate(ds.records)
            if rec.author == author and rec.year == year
        )
    return ds, {
        "p_threshold": p_threshold,
        "influence_threshold": math.inf if influence is None else influence,
        "manual": tuple(dict.fromkeys(manual)),
    }


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def cmd_derive(args: argparse.Namespace) -> int:
    ds, _ = _resolve(args)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(CSV_COLUMNS) + ["se", "z", "p", "rank"])
    for rec, d in zip(ds.records, ds.derived):
        writer.writerow(
            [
                rec.author,
                rec.year,
                rec.comment,
                rec.ref_id,
                format_number(rec.rr),
                format_number(rec.cl_low),
                format_number(rec.cl_high),
                format_number(d.se),
                format_number(d.z),
                format_number(d.p),
                d.rank,
            ]
        )
    _write_text(args.output, buf.getvalue())
    return EXIT_OK


def cmd_plot(args: argparse.Namespace) -> int:
    from .svgplot import reference_lines_csv, render_series, series_csv

    if args.kind != "volcano" and (args.exclude.strip() or args.exclude_flagged):
        raise _UsageError("--exclude and --exclude-flagged apply only to --kind volcano")
    ds, rules = _resolve(args)
    exclude: list[int] = []
    if args.exclude.strip():
        try:
            exclude = [int(tok) for tok in args.exclude.split(",") if tok.strip()]
        except ValueError:
            raise _UsageError("--exclude must be comma-separated integers") from None
    if args.kind == "pvalue":
        series = pvalue_plot(ds)
    elif args.kind == "expectation":
        series = expectation_plot(ds)
    else:
        if args.exclude_flagged:
            exclude.extend(f.row for f in flag_outliers(ds, **rules).flagged)
        series = volcano_plot(ds, exclude=tuple(dict.fromkeys(exclude)))
    title = args.title if args.title is not None else f"{ds.label}: {args.kind}"
    out = Path(args.output)
    _write_text(str(out), render_series(series, title=title))
    sibling = out.parent / (out.stem + ".csv")
    _write_text(str(sibling), series_csv(series))
    ref_sibling = out.parent / (out.stem + ".ref.csv")
    _write_text(str(ref_sibling), reference_lines_csv(series))
    return EXIT_OK


def cmd_audit(args: argparse.Namespace) -> int:
    ds, rules = _resolve(args)
    thresholds = ShapeThresholds()
    shape = classify_shape(ds, thresholds)
    outliers = flag_outliers(ds, **rules)
    pool = pool_dl(effects_from_dataset(ds)) if len(ds) >= 2 else None
    space_entries = space_summary = None
    if args.counting:
        entries = parse_search_space_csv(
            Path(args.counting).read_text(encoding="utf-8")
        )
        if not entries:
            raise _NoRecords(f"{args.counting}: data section is empty")
        space_entries = entries
        space_summary = summarize_spaces(entries)
    config = {
        "confidence_level": ds.confidence_level,
        "critical_value": ds.critical_value,
        "scale": ds.scale,
        "p_threshold": rules["p_threshold"],
        "influence_threshold": (
            None
            if math.isinf(rules["influence_threshold"])
            else rules["influence_threshold"]
        ),
        "manual_rows": list(rules["manual"]),
        "profile": args.profile,
    }
    report = build_audit_report(
        ds, shape, outliers, pool, space_entries, space_summary, config, thresholds
    )
    _write_text(args.output, dumps(report))
    return EXIT_OK


def cmd_count(args: argparse.Namespace) -> int:
    entries = parse_search_space_csv(Path(args.input).read_text(encoding="utf-8"))
    if not entries:
        raise _NoRecords(f"{args.input}: data section is empty")
    text = serialize_search_space_csv(entries)
    summary = summarize_spaces(entries)
    _write_text(args.output, text)
    if args.output is not None:
        print(
            f"space: n={len(entries)} median={format_number(summary.median)} "
            f"min={summary.min} max={summary.max}"
        )
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.censor_rate is not None and args.censor_preset is not None:
        print(
            "error: --censor-rate and --censor-preset are mutually exclusive",
            file=sys.stderr,
        )
        return EXIT_USAGE
    try:
        if args.censor_preset == "greenwald":
            censor_rate = greenwald_censor_rate(args.hack_k)
        else:
            censor_rate = args.censor_rate if args.censor_rate is not None else 0.0
        cfg = SimConfig(
            n_studies=args.n_studies,
            effect_fraction=args.effect_fraction,
            noncentrality=args.noncentrality,
            censor_rate=censor_rate,
            hack_k=args.hack_k,
            seed=args.seed,
            replicates=args.replicates,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    outcome = run_experiment(cfg)
    report = build_sim_report(outcome)
    report["config"]["censor_preset"] = args.censor_preset
    _write_text(args.output, dumps(report))
    return EXIT_OK


_COMMANDS = {
    "derive": cmd_derive,
    "plot": cmd_plot,
    "audit": cmd_audit,
    "count": cmd_count,
    "simulate": cmd_simulate,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except _NoRecords as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_RECORDS
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
