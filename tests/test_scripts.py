"""Smoke runs of the experiment scripts in ``scripts/``, as subprocesses, and the
summary of ``bench_pairs.py`` on synthetic runs."""

import importlib.util
import os
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import lvecdlp

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    src = str(Path(lvecdlp.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args], env=env, capture_output=True, text=True
    )


def test_success_sweep_runs():
    # A recovered m that differs from the planted one would end the run with a traceback.
    done = run_script("success_sweep.py", "--trials", "20")
    assert done.returncode == 0, done.stderr
    header, *cells = done.stdout.splitlines()
    assert header.split() == ["p", "nprime", "C", "observed", "model", "ci95", "secs"]
    assert [cell.split()[:3] for cell in cells] == [["19", "1", "20"], ["907", "1", "20"], ["907", "2", "924"]]


@pytest.mark.parametrize("nprime", ["1", "2"])
def test_alg2_calibration_runs(nprime):
    done = run_script("alg2_calibration.py", "--instances", "5", "--nprime", nprime)
    assert done.returncode == 0, done.stderr
    assert "solvable instances: 5 " in done.stdout
    assert "unsound returns: 0 " in done.stdout


@pytest.mark.parametrize(
    "script, option, value",
    [
        ("success_sweep.py", "--trials", "0"),
        ("success_sweep.py", "--trials", "-5"),
        ("alg2_calibration.py", "--instances", "0"),
        ("alg2_calibration.py", "--instances", "-1"),
    ],
)
def test_scripts_reject_counts_below_one(script, option, value):
    done = run_script(script, option, value)
    assert done.returncode == 2, done.stderr
    assert f"{option} must be >= 1, got {value}" in done.stderr
    assert "Traceback" not in done.stderr
    assert done.stdout == ""


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def synthetic_runs(workload, parent_values, change_values, digest=lambda seed, side: "d"):
    """Paired runs of one metric, ``ms``, alternating which side ran first."""
    runs = []
    for pair, (seed, values) in enumerate(zip(range(1, 100), zip(parent_values, change_values))):
        first = "parent" if pair % 2 == 0 else "change"
        for side, value in zip(("parent", "change"), values):
            runs.append(
                {
                    "workload": workload,
                    "side": side,
                    "seed": seed,
                    "ran_first": first,
                    "attempted": 10,
                    "failed": 0,
                    "correct": True,
                    "output_digest": digest(seed, side),
                    "operations": 10,
                    "errors": [],
                    "metrics": {"ms": value},
                }
            )
    return runs


MS = [{"name": "ms", "unit": "ms", "better": "lower", "bound": 0.1}]


@pytest.mark.parametrize(
    "parent, change, pairs_better, verdict",
    [
        # Ten pairs, the change faster in every one, by more than the parent's quartile spread.
        ([10.0 + 0.1 * i for i in range(10)], [9.0 + 0.1 * i for i in range(10)], "10/10", "gain"),
        # Faster in 8 of 10: no gain, and within the bound.
        ([10.0] * 10, [9.0] * 8 + [10.5] * 2, "8/10", "within bound"),
        # Faster in all of five pairs: too few pairs for a gain.
        ([10.0, 10.1, 10.2, 10.3, 10.4], [9.0, 9.1, 9.2, 9.3, 9.4], "5/5", "within bound"),
        # Slower by 20% against a 10% bound.
        ([10.0, 10.1, 10.2, 10.3, 10.4], [12.0, 12.1, 12.2, 12.3, 12.4], "0/5", "worse"),
        # The parent's own quartiles lie 40% apart: level medians are unresolved.
        ([8.0, 8.0, 12.0, 12.0, 8.0, 12.0], [8.1, 8.1, 11.9, 11.9, 8.1, 11.9], "3/6", "unresolved"),
        # The same spread, but every change run below every parent run.
        ([8.0, 8.0, 12.0, 12.0, 8.0, 12.0], [7.0, 7.5, 7.0, 7.5, 7.0, 7.5], "6/6", "within bound"),
    ],
)
def test_bench_pairs_summary_on_synthetic_runs(parent, change, pairs_better, verdict):
    bench_pairs = load_bench_pairs()
    runs = synthetic_runs("w", parent, change)
    row = bench_pairs.summarize(runs, MS)["w"]["ms"]
    assert row["pairs_change_better"] == pairs_better
    assert row["verdict"] == verdict
    assert row["parent_median"] == round(statistics.median(parent), 6)
    assert row["change_vs_parent"] == round(statistics.median(change) / statistics.median(parent) - 1, 4)
    assert row["parent_quartiles"] == [round(v, 6) for v in statistics.quantiles(parent, n=4, method="exclusive")]
    assert bench_pairs.problems(runs) == []


def test_bench_pairs_flags_wrong_output_and_digest_mismatch():
    bench_pairs = load_bench_pairs()
    assert bench_pairs.parse_seeds("1-3,7") == [1, 2, 3, 7]
    runs = synthetic_runs("w", [1.0, 1.0], [1.0, 1.0], digest=lambda seed, side: side if seed == 2 else "d")
    runs[0]["correct"] = False
    assert bench_pairs.problems(runs) == [
        "w seed 1 parent: correct is false",
        "w seed 2: output_digest differs between the sides",
    ]
    # A larger share of failed operations on the change's side is flagged and
    # takes the gain away; more failures in more attempts at a lower share are
    # neither.
    runs = synthetic_runs("w", [10.0 + 0.1 * i for i in range(10)], [9.0 + 0.1 * i for i in range(10)])
    runs[1]["failed"] = 1
    assert bench_pairs.summarize(runs, MS)["w"]["ms"]["verdict"] == "within bound"
    assert bench_pairs.problems(runs) == ["w: the change fails 1 of 100 operations, the parent 0 of 100"]
    runs[0]["failed"], runs[1]["failed"], runs[1]["attempted"] = 1, 2, 300
    assert bench_pairs.summarize(runs, MS)["w"]["ms"]["verdict"] == "gain"
    assert bench_pairs.problems(runs) == []
    # Each side's median operations per run sit beside the metrics, so that a
    # peak_rss_mib move can be read against them, and so do its failed and
    # attempted operations.
    for run in runs:
        run["operations"] = run["seed"] * (3 if run["side"] == "change" else 2)
    assert bench_pairs.summarize(runs, MS)["w"]["operations"] == {
        "parent_median": 11.0,
        "change_median": 16.5,
        "parent_failed": [1, 100],
        "change_failed": [2, 390],
    }


@pytest.mark.parametrize(
    "parent_failed, change_failed, verdict, flagged",
    [
        # The parent fails more: shown, no flag, the gain stands.
        ([3, 0, 0, 0, 0, 0, 0, 0, 0, 4], [0] * 10, "gain", False),
        # The same share on both sides: shown, no flag.
        ([1] + [0] * 9, [0] * 9 + [1], "gain", False),
        # The change fails more: shown, flagged, no gain.
        ([0] * 10, [0, 5] + [0] * 8, "within bound", True),
    ],
)
def test_bench_pairs_shows_each_sides_failed_share(parent_failed, change_failed, verdict, flagged):
    """Under ``operations``, each side's failed and attempted operations summed
    over its runs, whichever share is larger; the verdict and the flag stay
    what the shares make them."""
    bench_pairs = load_bench_pairs()
    runs = synthetic_runs("w", [10.0 + 0.1 * i for i in range(10)], [9.0 + 0.1 * i for i in range(10)])
    for run in runs:
        run["failed"] = (parent_failed if run["side"] == "parent" else change_failed)[run["seed"] - 1]
    summary = bench_pairs.summarize(runs, MS)["w"]
    assert summary["operations"]["parent_failed"] == [sum(parent_failed), 100]
    assert summary["operations"]["change_failed"] == [sum(change_failed), 100]
    assert summary["ms"]["verdict"] == verdict
    assert bool(bench_pairs.problems(runs)) == flagged


def test_bench_pairs_names_failures_both_sides_share():
    """A larger failed share on the change's side names the failed operations
    that both sides of a seed report, and only those; the verdict and the
    flag stay what the shares alone make them."""
    bench_pairs = load_bench_pairs()
    runs = synthetic_runs("w", [10.0 + 0.1 * i for i in range(10)], [9.0 + 0.1 * i for i in range(10)])
    for run in runs:
        run["attempted"] = 100 if run["side"] == "parent" else 90
    exhausted = "target 8056: iteration-budget-exhausted"
    runs[2]["failed"], runs[2]["errors"] = 1, [exhausted]  # seed 2, parent
    runs[3]["failed"], runs[3]["errors"] = 1, [exhausted]  # seed 2, change
    runs[5]["failed"], runs[5]["errors"] = 1, ["target 7: iteration-budget-exhausted"]  # seed 3, change only
    del runs[6]["errors"]  # seed 4, parent: an older BENCH run without the field
    assert bench_pairs.problems(runs) == [
        "w: the change fails 2 of 900 operations, the parent 1 of 1000; "
        "both sides fail seed 2: target 8056: iteration-budget-exhausted"
    ]
    assert bench_pairs.summarize(runs, MS)["w"]["ms"]["verdict"] == "within bound"
    # With the shares equal, nothing is flagged, shared failures or not.
    runs[5]["failed"] = 0
    for run in runs:
        run["attempted"] = 100
    assert bench_pairs.problems(runs) == []
    assert bench_pairs.shared_errors(runs, "w") == ["seed 2: target 8056: iteration-budget-exhausted"]
    assert bench_pairs.shared_errors(runs, "other") == []


def test_bench_pairs_fits_peak_rss_against_operations():
    """Under ``operations``: the parent's runs lie on 0.5 + 0.1 * operations MiB,
    a slope of 102.4 KiB per operation, and the change's runs lie 0.25, 0.5
    and 2.0 MiB above that line, so their median residual is 0.5 MiB.
    Without the metric, or with one operation count on every parent run,
    there is no line and no fit is reported."""
    bench_pairs = load_bench_pairs()
    runs = synthetic_runs("w", [1.0] * 3, [1.0] * 3)
    parent_ops, change_ops, change_above = [10, 20, 40], [15, 30, 25], [0.25, 2.0, 0.5]
    for run in runs:
        side_ops = parent_ops if run["side"] == "parent" else change_ops
        run["operations"] = side_ops[run["seed"] - 1]
        above = change_above[run["seed"] - 1] if run["side"] == "change" else 0.0
        run["metrics"]["peak_rss_mib"] = 0.5 + 0.1 * run["operations"] + above
    spec = MS + [{"name": "peak_rss_mib", "unit": "MiB", "better": "lower", "bound": 0.1}]
    assert bench_pairs.summarize(runs, spec)["w"]["operations"] == {
        "parent_median": 20,
        "change_median": 25,
        "parent_failed": [0, 30],
        "change_failed": [0, 30],
        "parent_peak_rss_kib_per_operation": 102.4,
        "change_peak_rss_residual_mib": 0.5,
    }
    no_fit = {"parent_median", "change_median", "parent_failed", "change_failed"}
    for run in runs:
        run["operations"] = 10
    assert set(bench_pairs.summarize(runs, spec)["w"]["operations"]) == no_fit
    for run in runs:
        del run["metrics"]["peak_rss_mib"]
    assert set(bench_pairs.summarize(runs, MS)["w"]["operations"]) == no_fit


def test_bench_pairs_sets_each_sides_logs_against_bsgs():
    """Under ``ms_per_log_over_bsgs``: each side's median ms_per_log over its
    median bsgs_ms_per_log, medians taken over the runs separately; absent
    when a run lacks either metric.  The verdicts and problems do not move."""
    bench_pairs = load_bench_pairs()
    parent_ms, change_ms = [1.6, 1.7, 1.5, 1.65, 1.62], [1.5, 1.45, 1.52, 1.48, 1.4]
    parent_bsgs, change_bsgs = [0.0125, 0.013, 0.012, 0.0126, 0.02], [0.01, 0.0105, 0.0098, 0.03, 0.01]
    runs = synthetic_runs("w", parent_ms, change_ms)
    for run in runs:
        side_ms, side_bsgs = (parent_ms, parent_bsgs) if run["side"] == "parent" else (change_ms, change_bsgs)
        run["metrics"] = {"ms_per_log": side_ms[run["seed"] - 1], "bsgs_ms_per_log": side_bsgs[run["seed"] - 1]}
    spec = [
        {"name": "ms_per_log", "unit": "ms", "better": "lower", "bound": 0.25},
        {"name": "bsgs_ms_per_log", "unit": "ms", "better": "lower", "bound": 0.25},
    ]
    summary = bench_pairs.summarize(runs, spec)["w"]
    assert summary["ms_per_log_over_bsgs"] == {
        "parent_median": round(1.62 / 0.0126, 2),
        "change_median": round(1.48 / 0.01, 2),
    }
    assert summary["ms_per_log"]["verdict"] == "within bound"
    assert bench_pairs.problems(runs) == []
    del runs[3]["metrics"]["bsgs_ms_per_log"]
    assert "ms_per_log_over_bsgs" not in bench_pairs.summarize(runs, spec)["w"]
    assert "ms_per_log_over_bsgs" not in bench_pairs.summarize(synthetic_runs("w", [1.0], [1.0]), MS)["w"]


FAKE_PERFBENCH = """
import json
report = {"output_digest": "abc", "operations": 7, "errors": ["target 3: iteration-budget-exhausted"]}
print("perfbench-report " + json.dumps(report))
result = {"correct": True, "attempted": 7, "failed": 1, "metrics": {"ms_per_log": {"value": 2.5, "unit": "ms"}}}
print(json.dumps(result))
"""


def test_bench_pairs_keeps_operations_and_errors_of_each_run(tmp_path):
    bench_pairs = load_bench_pairs()
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(FAKE_PERFBENCH)
    assert bench_pairs.run_once(tmp_path, "solve-p907-n1", 1, 36) == {
        "attempted": 7,
        "failed": 1,
        "correct": True,
        "output_digest": "abc",
        "operations": 7,
        "errors": ["target 3: iteration-budget-exhausted"],
        "metrics": {"ms_per_log": 2.5},
    }
