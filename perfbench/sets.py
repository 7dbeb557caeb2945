"""Repeat the benchmark over seeds, summarise its spread, compare two sets.

From the root of a checkout::

    python3 perfbench/sets.py --seeds 1-10 --out perfbench/baseline/set-a.json
    python3 perfbench/sets.py --compare perfbench/baseline/set-a.json perfbench/baseline/set-b.json

A set runs every workload untraced once per seed (seeds in the outer loop,
so slow drift on the machine touches every workload alike), then each
workload once traced. For each end-to-end metric it records the median of
the per-seed values and the distance between their first and third
quartiles as a share of that median, next to the metric's bound. Comparing
two sets gives, per metric and workload, how much worse the second median is
than the first as a share of the first.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
BOUNDS = {m["name"]: m for m in BENCHMARK["end_to_end"]}
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = [
        sys.executable, *BENCHMARK["command"][1:], "--workload", workload,
        "--seed", str(seed), "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace),
    ]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    wall = time.perf_counter() - start
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    return {
        "workload": workload, "seed": seed, "trace": trace, "run_wall_s": wall,
        "detail": json.loads(lines[-2]), "result": json.loads(lines[-1]),
    }


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def summarise(runs: list[dict]) -> dict:
    summary: dict = {}
    for wl in WORKLOADS:
        plain = [r["result"]["metrics"] for r in runs if r["workload"] == wl and r["trace"] == 0]
        rows = {}
        for name, spec in BOUNDS.items():
            row = spread([m[name]["value"] for m in plain])
            row.update(bound=spec["bound"], steady=row["spread"] < spec["bound"] / 3)
            rows[name] = row
        summary[wl] = rows
    return summary


def sizing(runs: list[dict], summary: dict) -> dict:
    """Share of one CLI process that the layer each workload targets takes.

    Two estimates: against the untraced ``cmd_wall_p50_s`` median, and
    against a process modelled from the same traced run (interpreter start
    plus the cold import plus one in-process ``main`` call), which drift in
    machine speed between runs cannot skew.
    """
    targets = {
        "bundled-session": ("cli.python_start_s", "cli.import_s"),
        "large-audit": ("stats.loo_s",),
        "sim-mixture": ("diagnostics.classify_s",),
    }
    commands = {"bundled-session": 6, "large-audit": 1, "sim-mixture": 1}
    out = {}
    for r in runs:
        if r["trace"] != 1:
            continue
        m = {k: v["value"] for k, v in r["result"]["metrics"].items()}
        wl = r["workload"]
        layer = sum(m[k] for k in targets[wl])
        process = m["cli.python_start_s"] + m["cli.import_s"] + m["cli.main_s"] / commands[wl]
        name = " + ".join(targets[wl])
        out[f"{wl}: ({name}) / cmd_wall_p50_s"] = layer / summary[wl]["cmd_wall_p50_s"]["median"]
        out[f"{wl}: ({name}) / traced process"] = layer / process
    return out


def compare(a: dict, b: dict) -> dict:
    """Per workload and metric: second median worse than the first, as a share."""
    out = {}
    for wl in a["summary"].keys() & b["summary"].keys():
        rows = {}
        for name, spec in BOUNDS.items():
            first, second = a["summary"][wl][name]["median"], b["summary"][wl][name]["median"]
            sign = 1.0 if spec["better"] == "lower" else -1.0
            worse = sign * (second - first) / first
            rows[name] = {"first": first, "second": second, "worse_by": worse,
                          "bound": spec["bound"], "within": worse <= spec["bound"]}
        out[wl] = rows
    return out


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--compare", nargs=2, type=Path, metavar="SET")
    args = parser.parse_args()

    if args.compare:
        a, b = (json.loads(p.read_text(encoding="utf-8")) for p in args.compare)
        result = compare(a, b)
        print(json.dumps(result, indent=2))
        return 0 if all(r["within"] for rows in result.values() for r in rows.values()) else 1

    runs = []
    for seed in parse_seeds(args.seeds):
        for wl in WORKLOADS:
            runs.append(run_once(wl, seed, 0))
            print(f"{wl} seed {seed}: {runs[-1]['run_wall_s']:.1f} s", file=sys.stderr)
    for wl in WORKLOADS:
        runs.append(run_once(wl, parse_seeds(args.seeds)[0], 1))
    summary = summarise(runs)
    record = {
        "provenance": runs[0]["detail"]["provenance"],
        "run_seconds": BENCHMARK["run_seconds"],
        "summary": summary,
        "sizing": sizing(runs, summary),
        "runs": runs,
    }
    text = json.dumps(record, indent=1)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(text + "\n", encoding="utf-8")
    for wl, rows in summary.items():
        for name, row in rows.items():
            print(f"{wl:16s} {name:16s} median {row['median']:.6g}  spread {row['spread']:.4f}"
                  f"  bound {row['bound']}  {'steady' if row['steady'] else 'NOT STEADY'}")
    for key, share in record["sizing"].items():
        print(f"{key}: {share:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
