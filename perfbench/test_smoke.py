"""Smoke test of the benchmark: every workload at a tiny size, and the correctness gate.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 5


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_reported_with_its_unit(workload, trace, section):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert set(result["metrics"]) == set(declared)
    for name, unit in declared.items():
        assert result["metrics"][name]["unit"] == unit
        assert isinstance(result["metrics"][name]["value"], float)


def _bench(workload: str):
    sys.path.insert(0, str(ROOT / "src"))
    bench, _, _ = workloads.timed_setup(ROOT, workloads.WORKLOADS[workload], SEED, reps=1)
    return bench


def test_gate_rejects_a_wrong_logarithm():
    bench = _bench("solve-p907-n1")
    attack = bench.mods.attack
    honest = attack.run_attack

    def off_by_one(cfg, on_record=None):
        outcome = honest(cfg, on_record)
        outcome.m = (outcome.m + 1) % bench.group.order
        return outcome

    attack.run_attack = off_by_one
    untraced = workloads.run_loop(bench, 0.1).untraced
    assert not untraced.correct
    assert "planted m" in untraced.errors()[0]


def test_gate_counts_a_nonzero_exit_as_failed():
    bench = _bench("experiment-p907-n2")
    bench.mods.cli.main = lambda argv: 4
    untraced = workloads.run_loop(bench, 0.1).untraced
    assert untraced.correct
    assert untraced.count("failed") == untraced.count("attempted") > 0


def test_gate_rejects_a_short_csv():
    bench = _bench("experiment-p907-n2")
    cli = bench.mods.cli
    honest = cli.main

    def drop_last_row(argv):
        code = honest(argv)
        csv = Path(argv[argv.index("--csv") + 1])
        csv.write_text("\n".join(csv.read_text().splitlines()[:-1]) + "\n")
        return code

    cli.main = drop_last_row
    untraced = workloads.run_loop(bench, 0.1).untraced
    assert not untraced.correct


def test_percentile_is_nearest_rank():
    samples = [float(i) for i in range(1, 101)]
    assert run.percentile(samples, 96) == (96.0, 4)
    assert run.percentile(samples, 50) == (50.0, 50)
    assert run.percentile([7.0], 98) == (7.0, 0)
