"""The benchmark's workloads: seeded inputs, the CLI commands of one
iteration, and the checks that decide whether those commands' outputs are
correct.

Every check reads only the input files and the output files, never pvaudit
itself, so the same check serves the CLI processes of the untraced run and
the in-process ``main`` calls of the traced run.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
import shutil
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracles

ROOT = Path(__file__).resolve().parent.parent
BUNDLED_DATA = ROOT / "src" / "pvaudit" / "data"
STUDIES = "soy_ldl_studies.csv"
SPACE = "soy_ldl_search_space.csv"

# large-audit input shape. 1200 rows keep one audit process near 2 s on a
# 2-core Xeon, so a run of the benchmark's length gets more than ten of them;
# the O(k^2) leave-one-out is still most of that time.
LARGE_ROWS = 1200
LARGE_NULL_SHARE = 0.6
LARGE_NARROW_SHARE = 0.01
LARGE_SE_RANGE = (0.025, 0.35)
LARGE_SHIFT_Z = (2.0, 3.0)
INFLUENCE_THRESHOLD = 0.05
EXTREME_P = 1e-3
P_FLOOR = 5e-324

# sim-mixture: 600 replicates keep one simulate process near 2 s for the
# same reason; classification is still most of it.
SIM_N = 100
SIM_EFFECT_FRACTION = 0.2
SIM_NONCENTRALITY = 3.0
SIM_CENSOR_RATE = 0.3
SIM_REPLICATES = 600
VERDICTS = ("uniform_null", "significant_effect", "bilinear_mixture", "indeterminate")
# The seed commit's per-replicate verdicts for simulate seeds 0..63, written
# by golden.py. A workload seed selects simulate seed ``seed % 64``, so every
# run's verdicts are checked against a known-good result.
SIM_GOLDEN_PATH = Path(__file__).resolve().parent / "baseline" / "sim-verdicts.json"
SIM_GOLDEN_SEEDS = 64


@dataclass(frozen=True)
class Command:
    """One CLI invocation: the arguments after ``python -m pvaudit.cli`` and
    the files it writes, relative to the work directory."""

    argv: tuple[str, ...]
    outputs: tuple[str, ...]


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def _close(got: float, want: float, rel: float = 1e-9) -> bool:
    """Agreement to ``rel``, allowing for the report's 9-significant-digit print."""
    if want == 0.0:
        return got == 0.0
    printed = 0.5 * 10.0 ** (math.floor(math.log10(abs(want))) - 8)
    return abs(got - want) <= rel * abs(want) + printed


class Workload:
    name = ""
    items_per_iteration = 0
    item = ""

    def __init__(self, seed: int):
        self.seed = seed

    def make_inputs(self, work: Path) -> dict:
        """Write the inputs into ``work``; return facts about them to record."""
        raise NotImplementedError

    def commands(self) -> list[Command]:
        raise NotImplementedError

    def check(self, work: Path) -> list[str]:
        """Problems found in the outputs the commands left in ``work``."""
        raise NotImplementedError

    def checked(self, work: Path) -> list[str]:
        """:meth:`check`, with outputs it cannot read reported as a problem."""
        try:
            return self.check(work)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"outputs unreadable: {exc!r}"]

    def facts(self, work: Path) -> dict:
        """Measured properties of the inputs, recorded with each result."""
        return {}


class BundledSession(Workload):
    """The six processes a reviewer of the bundled meta-analysis runs."""

    name = "bundled-session"
    items_per_iteration = 50
    item = "study row through audit"

    def make_inputs(self, work: Path) -> dict:
        for name in (STUDIES, SPACE):
            shutil.copyfile(BUNDLED_DATA / name, work / name)
        return {"rows": 50, "search_space_rows": 9}

    def commands(self) -> list[Command]:
        data = ("--input", STUDIES)

        def plot(kind: str, *extra: str) -> Command:
            return Command(
                ("plot", *data, "--kind", kind, *extra, "--output", f"{kind}.svg"),
                (f"{kind}.svg", f"{kind}.csv", f"{kind}.ref.csv"),
            )

        return [
            Command(("derive", *data, "--output", "derive.csv"), ("derive.csv",)),
            Command(
                ("audit", *data, "--profile", "paper-reproduction",
                 "--counting", SPACE, "--output", "audit.json"),
                ("audit.json",),
            ),
            plot("pvalue"),
            plot("expectation"),
            plot("volcano", "--exclude-flagged", "--profile", "paper-reproduction"),
            Command(("count", "--input", SPACE, "--output", "count.csv"), ("count.csv",)),
        ]

    def check(self, work: Path) -> list[str]:
        problems = []
        derived = _read_csv(work / "derive.csv")
        if sorted(int(r["rank"]) for r in derived) != list(range(1, 51)):
            problems.append("derive: ranks are not a permutation of 1..50")

        report = json.loads((work / "audit.json").read_text(encoding="utf-8"))
        shape = report["shape"]
        if shape["verdict"] != "bilinear_mixture" or not 6 <= (shape["breakpoint"] or 0) <= 14:
            problems.append(f"audit: C4 verdict {shape['verdict']} at {shape['breakpoint']}")
        flagged = report["outliers"]["flagged"]
        reasons = Counter(f["reason"] for f in flagged)
        manual = [report["studies"][f["row"]] for f in flagged if f["reason"] == "manual"]
        if (
            len(flagged) != 7
            or reasons != {"extreme_p": 6, "manual": 1}
            or (manual[0]["author"], manual[0]["year"]) != ("Jenkins", 1989)
        ):
            problems.append(f"audit: C5 flags {dict(reasons)}")
        if report["search_space"]["median"] != 24:
            problems.append("audit: C2 search-space median is not 24")

        volcano = _read_csv(work / "volcano.csv")
        marker = _read_csv(work / "volcano.ref.csv")[0]
        if len(volcano) != 43 or abs(float(marker["param1"]) + math.log10(1 / 44)) > 1e-8:
            problems.append("plot volcano: expected 43 points and the -log10(1/44) marker")
        for kind in ("pvalue", "expectation", "volcano"):
            if not (work / f"{kind}.svg").read_text(encoding="utf-8").startswith("<svg"):
                problems.append(f"plot {kind}: output is not an SVG document")
        if len(_read_csv(work / "count.csv")) != 9 or "median=24 " not in (
            work / "count.stdout"
        ).read_text(encoding="utf-8"):
            problems.append("count: C2 nine entries with median 24")
        return problems


def large_audit_csv(seed: int) -> str:
    """A synthetic study table, byte-identical for the same seed.

    About 60% of rows are null and the rest carry a protective effect of 2 to
    3 standard errors; standard errors are log-uniform over an order of
    magnitude. RR and limits are rounded to two decimals as published tables
    print them, which makes about half the p-values tie. About 1% of rows
    have a 0.02-wide interval at RR 0.78..0.80, so their p-value underflows
    and is floored. Draws that break the model's invariants after rounding
    are redrawn, so every emitted row is valid.
    """
    rng = random.Random(seed)
    lo, hi = LARGE_SE_RANGE
    lines = ["author,year,comment,ref,rr,cl_low,cl_high"]
    while len(lines) <= LARGE_ROWS:
        u = rng.random()
        if u < LARGE_NARROW_SHARE:
            rr = 0.78 + rng.randrange(3) / 100
            low, high = rr - 0.01, rr + 0.01
        else:
            se = lo * (hi / lo) ** rng.random()
            shift = 0.0 if u < LARGE_NULL_SHARE else -rng.uniform(*LARGE_SHIFT_Z) * se
            rr = 1.0 + shift + rng.gauss(0.0, se)
            low, high = rr - oracles.Z_975 * se, rr + oracles.Z_975 * se
        rr, low, high = round(rr, 2), round(low, 2), round(high, 2)
        if not 0 < low < high or not low <= rr <= high:
            continue
        i = len(lines) - 1
        lines.append(f"Study{i:04d},{1980 + i % 40},,{i + 1},{rr:.2f},{low:.2f},{high:.2f}")
    return "\n".join(lines) + "\n"


class LargeAudit(Workload):
    """One audit with influence screening of a large synthetic literature."""

    name = "large-audit"
    items_per_iteration = LARGE_ROWS
    item = "study row through audit"

    def __init__(self, seed: int):
        super().__init__(seed)
        self._oracle: dict | None = None

    def make_inputs(self, work: Path) -> dict:
        (work / "large.csv").write_text(large_audit_csv(self.seed), encoding="utf-8")
        return {"rows": LARGE_ROWS}

    def commands(self) -> list[Command]:
        return [
            Command(
                ("audit", "--input", "large.csv",
                 "--influence-threshold", str(INFLUENCE_THRESHOLD),
                 "--output", "large.json"),
                ("large.json",),
            )
        ]

    def oracle(self, work: Path) -> dict:
        """Oracle values for the input in ``work``, computed once per run."""
        if self._oracle is None:
            rows = _read_csv(work / "large.csv")
            y, se = oracles.effects(
                *([float(r[c]) for r in rows] for c in ("rr", "cl_low", "cl_high"))
            )
            # Two-sided p as 2 * (0.5 * erfc), the same float steps as the
            # program, so exact ties and underflow agree.
            p = np.array(
                [2.0 * (0.5 * math.erfc(abs(v / s) / math.sqrt(2.0))) for v, s in zip(y, se)]
            )
            self._oracle = {
                "pool": oracles.dersimonian_laird(y, se),
                "influence": oracles.loo_influence(y, se),
                "floored": p == 0.0,
                "p": np.maximum(p, P_FLOOR),
                "extreme": p < EXTREME_P,
            }
        return self._oracle

    def facts(self, work: Path) -> dict:
        oracle = self.oracle(work)
        return input_shares(oracle["p"].tolist(), oracle["floored"].tolist())

    def check(self, work: Path) -> list[str]:
        return self.check_report(
            json.loads((work / "large.json").read_text(encoding="utf-8")), self.oracle(work)
        )

    @staticmethod
    def check_report(report: dict, oracle: dict) -> list[str]:
        problems = []
        if report["n_studies"] != len(oracle["extreme"]):
            problems.append("audit: row count differs from the input")
        for key in ("random_mean", "tau2"):
            if not _close(report["pool"][key], oracle["pool"][key]):
                problems.append(
                    f"audit: pool {key} {report['pool'][key]} != oracle {oracle['pool'][key]}"
                )
        influence = oracle["influence"]
        # A row whose influence sits within rounding of the threshold may
        # fall either way; it is left out of the comparison.
        clear = np.abs(influence - INFLUENCE_THRESHOLD) > 1e-9 * INFLUENCE_THRESHOLD
        high = (influence > INFLUENCE_THRESHOLD) & clear & ~oracle["extreme"]
        want = {
            "extreme_p": set(np.flatnonzero(oracle["extreme"]).tolist()),
            "high_influence": set(np.flatnonzero(high).tolist()),
        }
        for reason, rows in want.items():
            got = {f["row"] for f in report["outliers"]["flagged"] if f["reason"] == reason}
            got = {r for r in got if clear[r]} if reason == "high_influence" else got
            if got != rows:
                problems.append(
                    f"audit: {reason} rows differ from the oracle ({len(got)} vs {len(rows)})"
                )
        return problems


def input_shares(pvalues: list[float], floored: list[bool]) -> dict:
    """Measured share of rows whose p-value ties another row's, and of floored rows."""
    counts = Counter(pvalues)
    n = len(pvalues)
    return {
        "tied_p_share": sum(c for c in counts.values() if c > 1) / n,
        "floored_share": sum(floored) / n,
    }


class SimMixture(Workload):
    """One simulation of many small biased literatures."""

    name = "sim-mixture"
    items_per_iteration = SIM_REPLICATES
    item = "replicate"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.sim_seed = seed % SIM_GOLDEN_SEEDS

    def make_inputs(self, work: Path) -> dict:
        return {"replicates": SIM_REPLICATES, "n_studies": SIM_N, "sim_seed": self.sim_seed}

    def commands(self) -> list[Command]:
        return [
            Command(
                ("simulate", "--n", str(SIM_N),
                 "--effect-fraction", str(SIM_EFFECT_FRACTION),
                 "--noncentrality", str(SIM_NONCENTRALITY),
                 "--censor-rate", str(SIM_CENSOR_RATE),
                 "--replicates", str(SIM_REPLICATES), "--seed", str(self.sim_seed),
                 "--output", "sim.json"),
                ("sim.json",),
            )
        ]

    def facts(self, work: Path) -> dict:
        report = json.loads((work / "sim.json").read_text(encoding="utf-8"))
        return {"verdict_counts": report["aggregate"]["verdict_counts"]}

    def check(self, work: Path) -> list[str]:
        return self.check_report(json.loads((work / "sim.json").read_text(encoding="utf-8")))

    def check_report(self, report: dict) -> list[str]:
        counts = report["aggregate"]["verdict_counts"]
        tally = Counter(r["verdict"] for r in report["replicates"])
        problems = []
        if sum(counts.values()) != SIM_REPLICATES or len(report["replicates"]) != SIM_REPLICATES:
            problems.append(f"simulate: verdict counts sum to {sum(counts.values())}")
        if any(counts.get(v, 0) != tally[v] for v in VERDICTS) or set(tally) - set(VERDICTS):
            problems.append("simulate: aggregate counts disagree with the replicate rows")
        if report["config"]["seed"] != self.sim_seed:
            problems.append("simulate: seed not echoed")
        golden = json.loads(SIM_GOLDEN_PATH.read_text(encoding="utf-8"))[str(self.sim_seed)]
        if counts != golden["verdict_counts"] or verdict_digest(report) != golden["verdicts_sha256"]:
            problems.append(f"simulate: verdicts differ from the seed commit's ({golden['verdict_counts']})")
        return problems


def verdict_digest(report: dict) -> str:
    """sha256 over each replicate's index, reported-study count and verdict.

    The KS figures are left out, so a rewrite that moves their last printed
    digit still passes while any changed verdict fails.
    """
    rows = (f"{r['index']},{r['reported']},{r['verdict']}\n" for r in report["replicates"])
    return hashlib.sha256("".join(rows).encode()).hexdigest()


WORKLOADS = {w.name: w for w in (BundledSession, LargeAudit, SimMixture)}
