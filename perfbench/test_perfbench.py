"""Self-tests of the benchmark itself, kept out of the repository's tier-1
suite. Run from the repository root with::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import oracles  # noqa: E402
from run import END_TO_END, tail  # noqa: E402
from traced import PER_LAYER  # noqa: E402
from workloads import (  # noqa: E402
    LARGE_ROWS,
    SIM_CENSOR_RATE,
    SIM_EFFECT_FRACTION,
    SIM_N,
    SIM_NONCENTRALITY,
    SIM_REPLICATES,
    LargeAudit,
    SimMixture,
    input_shares,
    large_audit_csv,
)

from pvaudit import (  # noqa: E402
    derive_dataset,
    effects_from_dataset,
    loo_influence,
    parse_dataset,
    pool_dl,
    rank_pvalues,
    report,
    sim,
    validate_dataset,
)
from pvaudit.datasets import load_soy_ldl_studies  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _declared(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def test_generator_is_deterministic_and_valid(tmp_path):
    text = large_audit_csv(7)
    assert text == large_audit_csv(7)
    assert text != large_audit_csv(8)
    ds = parse_dataset(text)
    assert len(ds) == LARGE_ROWS
    assert validate_dataset(ds) == []

    derived = derive_dataset(ds).derived
    shares = input_shares([d.p for d in derived], [d.p_floored for d in derived])
    assert 0.3 <= shares["tied_p_share"] <= 0.7
    assert 0.005 <= shares["floored_share"] <= 0.02
    wl = LargeAudit(7)
    wl.make_inputs(tmp_path)
    assert wl.facts(tmp_path) == shares


def _bundled_effects():
    ds = rank_pvalues(derive_dataset(load_soy_ldl_studies()))
    effects = effects_from_dataset(ds)
    return effects, np.array([e for e, _ in effects]), np.array([s for _, s in effects])


def test_dl_oracle_matches_pvaudit_on_bundled_data():
    effects, y, se = _bundled_effects()
    got = pool_dl(effects)
    want = oracles.dersimonian_laird(y, se)
    for key, value in want.items():
        assert getattr(got, key) == pytest.approx(value, rel=1e-9, abs=0.0), key


def test_loo_oracle_matches_pvaudit_on_bundled_data():
    effects, y, se = _bundled_effects()
    np.testing.assert_allclose(
        oracles.loo_influence(y, se, chunk=7), loo_influence(effects), rtol=1e-9, atol=1e-12
    )


def test_effects_oracle_matches_derivation():
    ds = derive_dataset(load_soy_ldl_studies())
    y, se = oracles.effects(
        [r.rr for r in ds.records], [r.cl_low for r in ds.records], [r.cl_high for r in ds.records]
    )
    assert list(zip(y, se)) == effects_from_dataset(ds)


def test_sim_check_rejects_a_changed_verdict():
    wl = SimMixture(67)
    cfg = sim.SimConfig(
        n_studies=SIM_N, effect_fraction=SIM_EFFECT_FRACTION, noncentrality=SIM_NONCENTRALITY,
        censor_rate=SIM_CENSOR_RATE, seed=wl.sim_seed, replicates=SIM_REPLICATES,
    )
    got = json.loads(report.dumps(report.build_sim_report(sim.run_experiment(cfg))))
    assert wl.check_report(got) == []

    # Swap two replicates' verdicts: the counts still agree, the rows do not.
    rows = got["replicates"]
    j = next(i for i, r in enumerate(rows) if r["verdict"] != rows[0]["verdict"])
    rows[0]["verdict"], rows[j]["verdict"] = rows[j]["verdict"], rows[0]["verdict"]
    assert [p for p in wl.check_report(got) if "seed commit" in p]


def test_tail_has_ten_beyond_or_is_p90():
    assert tail([float(i) for i in range(40, 0, -1)]) == (30.0, 75.0, 10)
    assert tail([float(i) for i in range(20, 0, -1)]) == (18.0, 90.0, 2)
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_metric_tables_match_benchmark_json():
    assert END_TO_END == _declared("end_to_end")
    assert PER_LAYER == _declared("per_layer")


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bundled-session",
         "--seed", "1", "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".*", "__pycache__")
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "large-audit",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
