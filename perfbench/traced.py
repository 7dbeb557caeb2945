"""The traced run: per-layer metrics from in-process calls inside spans.

Layers are pvaudit's modules. Each iteration calls the public functions the
workload's CLI commands reach, on the same inputs, each call inside a span
named after the metric it feeds; then it runs ``pvaudit.cli.main`` on the
same argument lists. Two kinds of span repeat work for a finer breakdown and
have no counterpart in ``main``: ``diagnostics.ks_s`` calls ``ks_uniform``
again after ``classify_*``, and on sim-mixture ``sim.draw_s`` and the
per-replicate ``diagnostics.classify_s`` redo what ``sim.run_experiment_s``
then does in one call. Leaving those out, the gap between ``cli.main_s`` and
the layer spans is the CLI's own glue. Spans (name, start, end, parent, iteration, counts) stay
in memory and are written as JSON lines when the run ends.

Only public names are called, and no argument is passed that equals its
default, so the benchmark survives the removal of such arguments.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from harness import SRC, child_env, output_digest, reset_work, spawn
from workloads import (
    INFLUENCE_THRESHOLD,
    SIM_CENSOR_RATE,
    SIM_EFFECT_FRACTION,
    SIM_N,
    SIM_NONCENTRALITY,
    SPACE,
    STUDIES,
    BundledSession,
    LargeAudit,
    Workload,
    input_shares,
)

sys.path.insert(0, str(SRC))
from pvaudit import cli, counting, diagnostics, model, report, sim, stats, svgplot  # noqa: E402

PER_LAYER = {
    "cli.python_start_s": "s",
    "cli.import_s": "s",
    "cli.main_s": "s",
    "model.parse_s": "s",
    "model.rows": "count",
    "counting.parse_s": "s",
    "stats.derive_s": "s",
    "stats.rank_s": "s",
    "stats.pool_s": "s",
    "stats.loo_s": "s",
    "diagnostics.classify_s": "s",
    "diagnostics.classify_calls": "count",
    "diagnostics.points_classified": "count",
    "diagnostics.ks_s": "s",
    "diagnostics.flag_s": "s",
    "diagnostics.series_s": "s",
    "report.build_s": "s",
    "report.dumps_s": "s",
    "report.bytes": "bytes",
    "svgplot.render_s": "s",
    "svgplot.bytes": "bytes",
    "sim.draw_s": "s",
    "sim.run_experiment_s": "s",
    "sim.reported_frac": "fraction",
    "trace.overhead_s": "s",
}
# Interpreter start and the cold import are timed around child processes,
# a few per iteration, and reported as medians over the run.
SPAWNS_PER_ITERATION = 3
IMPORT_CLI = "import pvaudit.cli"
# The cost of one span is calibrated as the median of a few batches of empty spans.
CALIBRATION_BATCHES = 5
CALIBRATION_SPANS = 2000


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    iteration: int
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    """In-memory spans; a span's parent is the innermost span open around it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self.iteration = -1

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1].id if self._open else None
        s = Span(len(self.spans), name, parent, self.iteration, time.perf_counter())
        self.spans.append(s)
        self._open.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def count(self, name: str, value: float) -> None:
        """Add to a count on the innermost open span."""
        counts = self._open[-1].counts
        counts[name] = counts.get(name, 0) + value

    def self_times(self) -> dict[int, float]:
        """Each span's duration minus the part its children cover."""
        own = {s.id: s.end - s.start for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def write(self, path: Path, origin: float) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps({
                    "id": s.id, "name": s.name, "parent": s.parent,
                    "iteration": s.iteration, "start": s.start - origin,
                    "end": s.end - origin, "counts": s.counts,
                }) + "\n")


def span_cost() -> float:
    """Seconds one empty span costs the tracer (median of a few batches)."""
    costs = []
    for _ in range(CALIBRATION_BATCHES):
        t = Tracer()
        start = time.perf_counter()
        for _ in range(CALIBRATION_SPANS):
            with t.span("calibrate"):
                pass
        costs.append((time.perf_counter() - start) / CALIBRATION_SPANS)
    return statistics.median(costs)


class Pipeline:
    """The public calls behind one workload's CLI commands, traced."""

    def __init__(self, wl: Workload, work: Path, t: Tracer):
        self.wl, self.work, self.t = wl, work, t

    def load(self, name: str):
        """parse -> derive -> rank, as every dataset command starts."""
        t = self.t
        text = (self.work / name).read_text(encoding="utf-8")
        with t.span("model.parse_s"):
            ds = model.parse_dataset(text, label=Path(name).stem)
            t.count("model.rows", len(ds))
        ds = t.call("stats.derive_s", stats.derive_dataset, ds)
        return t.call("stats.rank_s", stats.rank_pvalues, ds)

    def classify(self, ds):
        t = self.t
        with t.span("diagnostics.classify_s"):
            shape = diagnostics.classify_shape(ds)
            t.count("diagnostics.classify_calls", 1)
            t.count("diagnostics.points_classified", len(ds))
        t.call("diagnostics.ks_s", diagnostics.ks_uniform, ds.pvalues)
        return shape

    def pool(self, ds):
        with self.t.span("stats.pool_s"):
            effects = stats.effects_from_dataset(ds)
            return effects, stats.pool_dl(effects)

    def emit(self, build, *args) -> str:
        """Build a report with ``build`` and serialize it; returns the text."""
        t = self.t
        rep = t.call("report.build_s", build, *args)
        with t.span("report.dumps_s"):
            text = report.dumps(rep)
            t.count("report.bytes", len(text.encode("utf-8")))
        return text

    def render(self, series, title: str) -> None:
        with self.t.span("svgplot.render_s"):
            svg = svgplot.render_series(series, title=title)
            self.t.count("svgplot.bytes", len(svg.encode("utf-8")))

    def run(self) -> list[str]:
        """One iteration's layer calls; returns problems with their results."""
        if isinstance(self.wl, BundledSession):
            return self.bundled()
        if isinstance(self.wl, LargeAudit):
            return self.large()
        return self.simulate()

    def bundled(self) -> list[str]:
        t, diag = self.t, diagnostics
        label = Path(STUDIES).stem
        self.load(STUDIES)  # derive

        ds = self.load(STUDIES)  # audit
        jenkins = tuple(
            i for i, r in enumerate(ds.records) if (r.author, r.year) == ("Jenkins", 1989)
        )
        shape = self.classify(ds)
        outliers = t.call("diagnostics.flag_s", diag.flag_outliers, ds, manual=jenkins)
        _, pool = self.pool(ds)
        entries = t.call(
            "counting.parse_s", counting.parse_search_space_csv,
            (self.work / SPACE).read_text(encoding="utf-8"),
        )
        summary = counting.summarize_spaces(entries)
        config = {
            "confidence_level": 0.95, "critical_value": 1.96, "scale": "linear",
            "p_threshold": 1e-3, "influence_threshold": None,
            "manual_rows": list(jenkins), "profile": "paper-reproduction", "seed": None,
        }
        self.emit(report.build_audit_report, ds, shape, outliers, pool, entries, summary, config)

        for kind, fn in (("pvalue", diag.pvalue_plot), ("expectation", diag.expectation_plot)):
            series = t.call("diagnostics.series_s", fn, self.load(STUDIES))
            self.render(series, f"{label}: {kind}")
        ds = self.load(STUDIES)
        flags = t.call("diagnostics.flag_s", diag.flag_outliers, ds, manual=jenkins)
        volcano = t.call(
            "diagnostics.series_s", diag.volcano_plot, ds,
            exclude=tuple(f.row for f in flags.flagged),
        )
        self.render(volcano, f"{label}: volcano")

        t.call(  # count
            "counting.parse_s", counting.parse_search_space_csv,
            (self.work / SPACE).read_text(encoding="utf-8"),
        )

        problems = []
        if shape.verdict != "bilinear_mixture" or not 6 <= shape.breakpoint <= 14:
            problems.append(f"pipeline: C4 verdict {shape.verdict} at {shape.breakpoint}")
        if len(outliers.flagged) != 7 or summary.median != 24 or volcano.n != 43:
            problems.append("pipeline: C5/C2 flags, median or volcano count")
        return problems

    def large(self) -> list[str]:
        t = self.t
        ds = self.load("large.csv")
        shape = self.classify(ds)
        # flag_outliers with an influence threshold would run the leave-one-out
        # inside flag_s. Flag extreme p alone there, time the one LOO under
        # loo_s, and add its high_influence flags as flag_outliers would.
        extreme = t.call("diagnostics.flag_s", diagnostics.flag_outliers, ds)
        effects, pool = self.pool(ds)
        influence = t.call("stats.loo_s", stats.loo_influence, effects)
        with t.span("diagnostics.flag_s"):
            reasons = {f.row: f.reason for f in extreme.flagged}
            for row, value in enumerate(influence):
                if value > INFLUENCE_THRESHOLD and row not in reasons:
                    reasons[row] = "high_influence"
            outliers = dataclasses.replace(
                extreme,
                flagged=tuple(diagnostics.OutlierFlag(row=r, reason=reasons[r]) for r in sorted(reasons)),
                influence_threshold=INFLUENCE_THRESHOLD,
            )
        config = {
            "confidence_level": 0.95, "critical_value": 1.96, "scale": "linear",
            "p_threshold": 1e-3, "influence_threshold": INFLUENCE_THRESHOLD,
            "manual_rows": [], "profile": None, "seed": None,
        }
        text = self.emit(report.build_audit_report, ds, shape, outliers, pool, None, None, config)

        oracle = self.wl.oracle(self.work)
        problems = LargeAudit.check_report(json.loads(text), oracle)
        for key in ("random_mean", "tau2"):
            got, want = getattr(pool, key), oracle["pool"][key]
            if abs(got - want) > 1e-9 * abs(want):
                problems.append(f"pipeline: pool {key} {got!r} vs oracle {want!r}")
        # Influence is in units of the pooled se; 1e-12 of that is rounding.
        if not np.allclose(influence, oracle["influence"], rtol=1e-9, atol=1e-12):
            problems.append("pipeline: loo_influence differs from the oracle")
        shares = input_shares([d.p for d in ds.derived], [d.p_floored for d in ds.derived])
        if shares != self.wl.facts(self.work):
            problems.append("pipeline: tied or floored rows differ from the oracle's")
        return problems

    def simulate(self) -> list[str]:
        t, diag = self.t, diagnostics
        cfg = sim.SimConfig(
            n_studies=SIM_N, effect_fraction=SIM_EFFECT_FRACTION,
            noncentrality=SIM_NONCENTRALITY, censor_rate=SIM_CENSOR_RATE,
            seed=self.wl.sim_seed, replicates=self.wl.items_per_iteration,
        )
        tally: Counter = Counter()
        for r in range(cfg.replicates):
            with t.span("sim.draw_s"):
                ps = sim.generate_literature(cfg, r)
                t.count("sim.drawn", cfg.n_studies)
                t.count("sim.reported", len(ps))
            with t.span("diagnostics.classify_s"):
                tally[diag.classify_pvalues(ps).verdict] += 1
                t.count("diagnostics.classify_calls", 1)
                t.count("diagnostics.points_classified", len(ps))
            if len(ps) >= 5:
                t.call("diagnostics.ks_s", diag.ks_uniform, ps)
        outcome = t.call("sim.run_experiment_s", sim.run_experiment, cfg)
        problems = self.wl.check_report(json.loads(self.emit(report.build_sim_report, outcome)))
        if dict(tally) != {k: v for k, v in outcome.verdict_counts.items() if v}:
            problems.append("pipeline: per-replicate verdicts disagree with run_experiment")
        return problems


def per_iteration(tracer: Tracer, own: dict[int, float], iterations: int) -> dict:
    """Sum of self times and counts per name, for each iteration."""
    totals = [Counter() for _ in range(iterations)]
    for s in tracer.spans:
        if 0 <= s.iteration < iterations:
            totals[s.iteration][s.name] += own[s.id]
            totals[s.iteration].update(s.counts)
    return totals


def measure(wl: Workload, seconds: float, trace_path: Path) -> dict:
    env = child_env()
    work = reset_work()
    inputs = wl.make_inputs(work)
    commands = wl.commands()
    tracer = Tracer()
    pipeline = Pipeline(wl, work, tracer)
    problems: list[str] = []
    digests: list[list[str]] = []
    codes: list[list[int]] = []
    origin = time.perf_counter()
    cwd = os.getcwd()
    os.chdir(work)  # the commands name their files relative to the work dir
    try:
        while not digests or time.perf_counter() - origin < seconds:
            tracer.iteration += 1
            with tracer.span("iteration"):
                for _ in range(SPAWNS_PER_ITERATION):
                    with tracer.span("cli.python_start"):
                        spawn([sys.executable, "-c", "pass"], env)
                    with tracer.span("cli.import_process"):
                        spawn([sys.executable, "-c", IMPORT_CLI], env)
                found = pipeline.run()
                problems += [p for p in found if p not in problems]
                row_digests, row_codes = [], []
                for cmd in commands:
                    stem = Path(cmd.outputs[0]).stem
                    out, err = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        row_codes.append(tracer.call("cli.main_s", cli.main, list(cmd.argv)))
                    (work / f"{stem}.stdout").write_text(out.getvalue(), encoding="utf-8")
                    (work / f"{stem}.stderr").write_text(err.getvalue(), encoding="utf-8")
                    row_digests.append(output_digest(work, cmd))
            if not digests:
                problems += wl.checked(work)
            digests.append(row_digests)
            codes.append(row_codes)
    finally:
        os.chdir(cwd)

    attempted = sum(len(row) for row in codes)
    failed = sum(
        1
        for row_d, row_c in zip(digests, codes)
        for d, c, ref in zip(row_d, row_c, digests[0])
        if problems or c != 0 or d != ref
    )
    iterations = len(digests)
    tracer.write(trace_path, origin)
    own = tracer.self_times()
    totals = per_iteration(tracer, own, iterations)
    cost = span_cost()

    def median_of(name: str) -> float:
        return statistics.median(total.get(name, 0) for total in totals)

    def span_median(name: str) -> float:
        return statistics.median(s.end - s.start for s in tracer.spans if s.name == name)

    start_s = span_median("cli.python_start")
    metrics = {name: median_of(name) for name in PER_LAYER}
    drawn = sum(total.get("sim.drawn", 0) for total in totals)
    metrics.update({
        "cli.python_start_s": start_s,
        "cli.import_s": span_median("cli.import_process") - start_s,
        "sim.reported_frac": (
            sum(total.get("sim.reported", 0) for total in totals) / drawn if drawn else 0.0
        ),
        "trace.overhead_s": statistics.median(
            cost * sum(1 for s in tracer.spans if s.iteration == i) for i in range(iterations)
        ),
    })
    inputs.update(wl.facts(work))
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "units": PER_LAYER,
        "detail": {
            "problems": problems,
            "inputs": inputs,
            "iterations": iterations,
            "spans": len(tracer.spans),
            "span_cost_s": cost,
            "trace_file": trace_path.relative_to(SRC.parent).as_posix(),
        },
    }
