"""Record the per-replicate simulate verdicts that sim-mixture checks against.

Run once, from the root of a checkout of a commit whose verdicts are known
to be good::

    python3 perfbench/golden.py

For each simulate seed 0..SIM_GOLDEN_SEEDS-1 it runs the workload's
``simulate`` command and stores its verdict counts and verdict digest in
``perfbench/baseline/sim-verdicts.json``.
"""

from __future__ import annotations

import json
import shutil
import sys

from harness import WORK, child_env, invoke, reset_work
from workloads import SIM_GOLDEN_PATH, SIM_GOLDEN_SEEDS, SimMixture, verdict_digest


def main() -> int:
    env = child_env()
    golden = {}
    try:
        for seed in range(SIM_GOLDEN_SEEDS):
            work = reset_work()
            (cmd,) = SimMixture(seed).commands()
            if invoke(cmd, work, env).exit_code != 0:
                print(f"simulate seed {seed} failed", file=sys.stderr)
                return 1
            report = json.loads((work / "sim.json").read_text(encoding="utf-8"))
            golden[str(seed)] = {
                "verdict_counts": report["aggregate"]["verdict_counts"],
                "verdicts_sha256": verdict_digest(report),
            }
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    SIM_GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
