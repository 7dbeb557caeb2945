"""Command-line interface: derive, plot, audit, count, simulate.

Exit codes: 0 success, 1 I/O failure, 2 usage or configuration error,
3 input schema mismatch, 4 empty data section, 5 malformed or invalid data.
Analytic verdicts (including bilinear_mixture) are results, not failures,
and always exit 0. Row indices in messages and in --exclude/--manual-outlier
are 0-based positions in the data section, header excluded.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys

from . import __version__
from .model import (
    CSV_COLUMNS,
    DEFAULT_CONFIDENCE_LEVEL,
    Dataset,
    DerivedDataset,
    SchemaError,
    _csv_text,
    dataset_from_json,
    format_number,
    parse_dataset,
    record_values,
)

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_SCHEMA = 3
EXIT_NO_RECORDS = 4
EXIT_DATA = 5


class _NoRecords(Exception):
    pass


class _UsageError(Exception):
    pass


# The exit code of each error main() reports, read in order: a SchemaError
# is also a ValueError.
_EXIT_CODES = {
    SchemaError: EXIT_SCHEMA,
    _NoRecords: EXIT_NO_RECORDS,
    _UsageError: EXIT_USAGE,
    ValueError: EXIT_DATA,
    OSError: EXIT_IO,
}

# The bundled reproduction profile: the tabulated 1.96 critical value at any
# confidence level, and one judgment-call manual exclusion identified by
# author and year in the bundled dataset. Scale and p threshold keep the
# defaults of derive_dataset and flag_outliers.
PROFILES = {
    "paper-reproduction": {
        "critical_value": 1.96,
        "manual_studies": (("Jenkins", 1989),),
    }
}

# Every negative float literal, exponent form, -inf and -nan included.
_NEGATIVE_NUMBER = re.compile(
    r"^-(\d+\.?\d*(e[-+]?\d+)?|\.\d+(e[-+]?\d+)?|inf(inity)?|nan)$", re.IGNORECASE
)

# A lone surrogate: an argv or file-name byte that did not decode as UTF-8.
_SURROGATE = re.compile("[\ud800-\udfff]")


class _Parser(argparse.ArgumentParser):
    """Reads any negative number after an option as its value, where argparse
    alone takes ``-1e1`` or ``-inf`` for an option. No pvaudit option looks
    like a number."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER


def _add_dataset_args(sp: argparse.ArgumentParser, labelled: bool) -> None:
    sp.add_argument("--input", required=True, help="input CSV (or JSON mirror) path")
    if labelled:
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
        help="named preset pinning the critical value and manual exclusions",
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
    parser = _Parser(
        prog="pvaudit",
        description="Audit the reliability of a meta-analytic literature "
        "from its reported risk ratios and confidence intervals.",
    )
    parser.add_argument("--version", action="version", version=f"pvaudit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser(
        "derive", help="reconstruct se, z, p, and rank for every study"
    )
    _add_dataset_args(sp, labelled=False)
    sp.add_argument("--output", default=None, help="output CSV path (default stdout)")

    sp = sub.add_parser("plot", help="render a diagnostic plot to SVG (plus CSV siblings)")
    _add_dataset_args(sp, labelled=True)
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
    _add_dataset_args(sp, labelled=True)
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
    # SimConfig's defaults fill in what is left unset
    sp.add_argument("--effect-fraction", type=float)
    sp.add_argument("--noncentrality", type=float)
    sp.add_argument("--censor-rate", type=float)
    sp.add_argument(
        "--censor-preset",
        choices=("greenwald",),
        default=None,
        help="derive the censor rate from a named publication-asymmetry preset",
    )
    sp.add_argument("--hack-k", type=int, help="analyses tried per study")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--replicates", type=int)
    sp.add_argument("--output", default=None, help="output JSON path (default stdout)")
    return parser


def _file_key(path: str) -> tuple[int, int] | str:
    """The file a path names: its device and inode where it exists, so a
    second hard link matches too, else the resolved path."""
    try:
        st = os.stat(path)
    except OSError:
        return os.path.realpath(path)
    return st.st_dev, st.st_ino


def _refuse_overwrite(
    reads: tuple[str | None, ...],
    writes: tuple[str | None, ...],
    message: str = "--output must not name a file the command reads",
) -> None:
    """Raise a usage error, before anything is read or written, if a file the
    command writes is one it reads or one it writes twice. None is stdout."""
    outs = [_file_key(path) for path in writes if path is not None]
    ins = {_file_key(path) for path in reads if path is not None}
    if len(set(outs)) < len(outs) or ins.intersection(outs):
        raise _UsageError(message)


def _read_text(path: str) -> str:
    with open(path, encoding="utf-8") as f:
        return f.read()


def _load_dataset(args: argparse.Namespace) -> Dataset:
    text = _read_text(args.input)
    stem, suffix = os.path.splitext(os.path.basename(args.input))
    level = args.confidence_level
    if suffix.lower() == ".json":
        ds = dataset_from_json(text)
        if level is not None and level != ds.confidence_level:
            raise _UsageError(
                f"--confidence-level {level} differs from the level "
                f"{ds.confidence_level} recorded in {args.input}"
            )
    else:
        if level is None:
            level = DEFAULT_CONFIDENCE_LEVEL
        ds = parse_dataset(text, confidence_level=level)
    if len(ds) == 0:
        raise _NoRecords(f"{args.input}: data section is empty")
    # --label, else the label a JSON mirror records, else the file stem; a
    # mirror refuses a surrogate, and one from argv prints as U+FFFD, as in SVGs
    label = getattr(args, "label", None)
    label = (ds.label or stem) if label is None else label
    return ds._replace(label=_SURROGATE.sub("\ufffd", label))


def _load_entries(path: str) -> list:
    from .counting import parse_search_space_csv

    entries = parse_search_space_csv(_read_text(path))
    if not entries:
        raise _NoRecords(f"{path}: data section is empty")
    return entries


def _resolve(args: argparse.Namespace) -> tuple[DerivedDataset, dict]:
    """Load and derive the input, and resolve the outlier rules for it.

    Profile defaults fill in whatever the flags leave unset (explicit flags
    win); what neither sets is left to ``derive_dataset`` and
    ``flag_outliers``. The rules are keyword arguments of ``flag_outliers``.
    """
    from .stats import P_FLOOR, derive_dataset

    profile = PROFILES.get(args.profile or "", {})
    critical_value = (
        args.critical_value
        if args.critical_value is not None
        else profile.get("critical_value")
    )
    scale = {"scale": args.scale} if args.scale is not None else {}
    ds = derive_dataset(_load_dataset(args), critical_value=critical_value, **scale)
    floored = [str(i) for i, d in enumerate(ds.derived) if d.p_floored]
    if floored:
        print(
            f"warning: {len(floored)} p-value(s) underflowed and were floored at "
            f"{P_FLOOR}: rows {', '.join(floored)}",
            file=sys.stderr,
        )
    p_threshold = getattr(args, "p_threshold", None)
    influence = getattr(args, "influence_threshold", None)
    if influence is not None and math.isfinite(influence) and len(ds) < 3:
        print(
            "warning: the influence rule needs at least 3 rows; it did not run",
            file=sys.stderr,
        )
    manual = list(getattr(args, "manual_outlier", []))
    for author, year in profile.get("manual_studies", ()):
        manual.extend(
            i
            for i, rec in enumerate(ds.records)
            if rec.author == author and rec.year == year
        )
    rules = {"influence_threshold": influence, "manual": tuple(dict.fromkeys(manual))}
    if p_threshold is not None:
        rules["p_threshold"] = p_threshold
    return ds, rules


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)


def _exact_number(x: float) -> str:
    """``format_number(x)`` when it reads back as ``x``, else ``repr(x)``."""
    text = format_number(x)
    return text if float(text) == x else repr(x)


def cmd_derive(args: argparse.Namespace) -> int:
    _refuse_overwrite((args.input,), (args.output,))
    ds, _ = _resolve(args)
    rows = (
        [_exact_number(v) if isinstance(v, float) else v for v in record_values(rec)]
        + [format_number(d.se), format_number(d.z), format_number(d.p), d.rank]
        for rec, d in zip(ds.records, ds.derived)
    )
    _write_text(args.output, _csv_text(CSV_COLUMNS + ("se", "z", "p", "rank"), rows))
    return EXIT_OK


def cmd_plot(args: argparse.Namespace) -> int:
    from .diagnostics import expectation_plot, flag_outliers, pvalue_plot, volcano_plot
    from .svgplot import reference_lines_csv, render_series, series_csv

    base = os.path.splitext(args.output)[0]
    _refuse_overwrite(
        (args.input,),
        (args.output, base + ".csv", base + ".ref.csv"),
        f"--input, --output and the sidecars {base}.csv and {base}.ref.csv "
        "must be four different files",
    )
    if args.kind != "volcano" and (args.exclude.strip() or args.exclude_flagged):
        raise _UsageError("--exclude and --exclude-flagged apply only to --kind volcano")
    rule_flags = [
        flag
        for flag, given in (
            ("--p-threshold", args.p_threshold is not None),
            ("--influence-threshold", args.influence_threshold is not None),
            ("--manual-outlier", bool(args.manual_outlier)),
        )
        if given
    ]
    if rule_flags and not args.exclude_flagged:
        raise _UsageError(
            f"{', '.join(rule_flags)}: the outlier rules apply only to "
            "--kind volcano --exclude-flagged"
        )
    ds, rules = _resolve(args)
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
        series = volcano_plot(ds, exclude=tuple(exclude))
    title = args.title if args.title is not None else f"{ds.label}: {args.kind}"
    _write_text(args.output, render_series(series, title=title))
    _write_text(base + ".csv", series_csv(series))
    _write_text(base + ".ref.csv", reference_lines_csv(series))
    return EXIT_OK


def cmd_audit(args: argparse.Namespace) -> int:
    from .diagnostics import classify_shape, flag_outliers
    from .report import build_audit_report, dumps
    from .stats import effects_from_dataset, pool_dl

    _refuse_overwrite((args.input, args.counting), (args.output,))
    ds, rules = _resolve(args)
    shape = classify_shape(ds)
    outliers = flag_outliers(ds, **rules)
    pool = pool_dl(effects_from_dataset(ds)) if len(ds) >= 2 else None
    space_entries = space_summary = None
    if args.counting:
        from .counting import summarize_spaces

        space_entries = _load_entries(args.counting)
        space_summary = summarize_spaces(space_entries)
    config = {"manual_rows": list(rules["manual"]), "profile": args.profile}
    report = build_audit_report(
        ds, shape, outliers, pool, space_entries, space_summary, config
    )
    _write_text(args.output, dumps(report))
    return EXIT_OK


def cmd_count(args: argparse.Namespace) -> int:
    from .counting import serialize_search_space_csv, summarize_spaces

    _refuse_overwrite((args.input,), (args.output,))
    entries = _load_entries(args.input)
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
    from .report import build_sim_report, dumps
    from .sim import SimConfig, greenwald_censor_rate, run_experiment

    if args.censor_rate is not None and args.censor_preset is not None:
        raise _UsageError("--censor-rate and --censor-preset are mutually exclusive")
    given = {k: v for k, v in vars(args).items() if k in SimConfig._fields and v is not None}
    try:
        cfg = SimConfig(**given)
        if args.censor_preset == "greenwald":
            cfg = cfg._replace(censor_rate=greenwald_censor_rate(cfg.hack_k))
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
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
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
