"""pvaudit benchmark: three seeded CLI workloads, end-to-end and per layer.

Usage, from the root of a checkout (pvaudit need not be installed; children
run with ``PYTHONPATH=src``)::

    python3 perfbench/run.py --workload large-audit --seed 1 --seconds 25 --trace 0

The load is a closed loop: one client, one ``python -m pvaudit.cli`` process
at a time, each spawned only after the previous one has exited. With
``--trace 0`` the run times those processes and prints the end-to-end
metrics. With ``--trace 1`` it instead calls each module's public functions
in-process on the same inputs, inside spans, and prints per-layer metrics
(see ``traced.py``). Either way every output is checked; the last stdout
line is the result object, the line before it the run's provenance, and the
exit code is nonzero when a check failed.

Workloads:

- ``bundled-session``: the six processes a reviewer of the bundled 50-row
  table runs (derive, audit, three plots, count). Each computes for a few
  milliseconds, so interpreter start and imports are almost the whole cost.
- ``large-audit``: one ``audit --influence-threshold 0.05`` of a seeded
  synthetic 1200-row table; leave-one-out influence dominates.
- ``sim-mixture``: one ``simulate`` of 600 replicates of 100 studies with
  20% real effects and 30% censoring; shape classification dominates.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

from harness import OUT, SRC, WORK, child_env, invoke, reset_work
from workloads import ROOT, WORKLOADS, Workload

SETUPS = 3
TAIL_BEYOND = 10
# With fewer than 3 * TAIL_BEYOND samples the tail is this nearest-rank
# percentile instead, so it never falls to the median or below.
FEW_SAMPLES_PERCENTILE = 90
# A run measures at least this many processes, so the tail is not the maximum.
MIN_SAMPLES = 11
# Past this, a run stops even short of MIN_SAMPLES.
MAX_MEASURE_S = 120.0

END_TO_END = {
    "setup_s": "s",
    "cmd_wall_p50_s": "s",
    "cmd_wall_tail_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
}


def tail(walls: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with at
    least TAIL_BEYOND samples above it, or with too few samples for that to
    lie well above the median, the FEW_SAMPLES_PERCENTILE-th."""
    s = sorted(walls)
    n = len(s)
    if n >= 3 * TAIL_BEYOND:
        idx = n - TAIL_BEYOND - 1
    else:
        idx = math.ceil(FEW_SAMPLES_PERCENTILE / 100 * n) - 1
    return s[idx], 100.0 * (idx + 1) / n, n - idx - 1


def measure(wl: Workload, seconds: float) -> dict:
    """The untraced run: repeated set-ups, then timed iterations."""
    env = child_env()
    commands = wl.commands()
    setups, warmups = [], []
    for _ in range(SETUPS):
        start = time.perf_counter()
        work = reset_work()
        inputs = wl.make_inputs(work)
        warmups.append([invoke(c, work, env) for c in commands])
        setups.append(time.perf_counter() - start)
    reference = warmups[-1]
    problems = [
        f"warm-up {c.argv[0]} exited {inv.exit_code}"
        for c, inv in zip(commands, reference)
        if inv.exit_code != 0
    ]
    problems = problems or wl.checked(work)
    if any([i.digest for i in w] != [i.digest for i in reference] for w in warmups):
        problems.append("warm-up outputs differ between set-ups (C8)")
    inputs.update(wl.facts(work))

    iterations = []
    walls: list[float] = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= MAX_MEASURE_S or (elapsed >= seconds and len(walls) >= MIN_SAMPLES):
            break
        t0 = time.perf_counter()
        invs = [invoke(c, work, env) for c in commands]
        iterations.append((time.perf_counter() - t0, invs))
        walls.extend(i.wall_s for i in invs)

    attempted = len(walls)
    failed = sum(
        1
        for _, invs in iterations
        for inv, ref in zip(invs, reference)
        if problems or inv.exit_code != 0 or inv.digest != ref.digest
    )
    tail_value, tail_pct, beyond = tail(walls)
    metrics = {
        "setup_s": statistics.median(setups),
        "cmd_wall_p50_s": statistics.median(walls),
        "cmd_wall_tail_s": tail_value,
        "items_per_s": wl.items_per_iteration / statistics.median(t for t, _ in iterations),
        "peak_rss_mb": max(i.maxrss_kb for _, invs in iterations for i in invs) / 1024.0,
        "ok_frac": 1.0 - failed / attempted,
    }
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "units": END_TO_END,
        "detail": {
            "problems": problems,
            "inputs": inputs,
            "item": wl.item,
            "setups": SETUPS,
            "setup_samples_s": setups,
            "iterations": len(iterations),
            "cmd_wall_samples": attempted,
            "cmd_wall_tail_percentile": tail_pct,
            "cmd_wall_tail_samples_beyond": beyond,
        },
    }


def provenance(seed: int) -> dict:
    def version(pkg: str) -> str | None:
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted((SRC / "pvaudit").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            models = (ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name"))
            cpu = next(models, None)
    except OSError:
        pass
    return {
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "workload_seed": seed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "pvaudit" / "cli.py").is_file():
        print(f"error: no pvaudit source under {SRC}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload](args.seed)
    try:
        if args.trace:
            import traced

            result = traced.measure(wl, args.seconds, OUT / f"trace-{wl.name}.jsonl")
        else:
            result = measure(wl, args.seconds)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    print(json.dumps({
        "workload": wl.name,
        "trace": args.trace,
        "provenance": provenance(args.seed),
        **result["detail"],
    }))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": result["units"][name]}
            for name, value in result["metrics"].items()
        },
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
