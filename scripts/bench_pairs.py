#!/usr/bin/env python3
"""Alternating benchmark pairs of two checkouts, summarized into a BENCH file.

Run from the repository root, with the parent and the change each checked
out (or exported) into its own directory:

    python3 scripts/bench_pairs.py --parent ../parent --change ../change \\
        --workload solve-p907-n1 --seeds 1901-1910 --out BENCH_N.json \\
        --parent-commit <sha> --note "<what the change is and how it ran>"

For each workload, and for each seed in turn, it runs
``python3 perfbench/run.py --workload W --seed S --seconds T --trace 0`` once
in each checkout, T being ``BENCHMARK.json``'s ``run_seconds``: the parent
first on the first, third, ... seed and the change first on the others.  It
writes the ``command``, ``note``, ``parent_commit``, ``runs`` and ``summary``
of the BENCH files.  Each run keeps its result line (``attempted``,
``failed``, ``correct`` and the metrics) and, from the perfbench report,
``output_digest``, ``operations`` (the closed-loop operations run, each one
record in the run's memory) and ``errors`` (the first failed operations'
messages).  The summary holds, per workload and end-to-end metric of
``BENCHMARK.json``, each side's median and quartiles (exclusive method),
the change's median relative to the parent's, the pairs in which the
change reads better, and a verdict.  Under ``operations`` it holds, per
workload, each side's median operations per run, against which a move in
``peak_rss_mib`` can be read (perfbench keeps one record per operation);
each side's failed and attempted operations summed over its runs
(``parent_failed: [failed, attempted]``), the shares the failure rule below
compares, shown whichever is larger; the slope of ``peak_rss_mib`` against
operations fitted over the parent's runs (KiB per operation); and the
change's median residual from that line (MiB), which separates record
growth from program memory.  Under ``ms_per_log_over_bsgs`` it holds, per
workload whose runs report both metrics, each side's median ``ms_per_log``
divided by its median ``bsgs_ms_per_log``: how many baseline logarithms one
attack logarithm costs.  The verdicts:

* ``gain``: the change reads better in at least nine tenths of ten or more
  pairs (ties count for neither), its median is better by more than the
  distance between the parent's quartiles, and on that workload no larger
  share of its operations fails than of the parent's (failed against
  attempted, summed over the runs);
* ``worse``: its median is worse than the parent's by more than the bound;
* ``unresolved``: the parent's quartiles lie further apart than the bound,
  relative to its median, and not every change run reads better than every
  parent run;
* ``within bound`` otherwise.

It reads ``perfbench/`` and ``BENCHMARK.json`` and writes neither (a
perfbench run writes its reports under each checkout's ``perfbench/out/``).
The exit code is 1 when a run reports ``correct: false``, the two sides'
``output_digest`` differ on a seed, or a larger share of the change's
operations fails on a workload; 2 when a run does not finish; else 0.  The
message for a larger failed share also names the failed operations that
both sides of a seed report, so that a share moved only by the attempted
counts reads apart from a failure of the change's own.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
REPORT_PREFIX = "perfbench-report "
SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    """'1-3,7' -> [1, 2, 3, 7]."""
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def perfbench_argv(workload: str, seed: int | str, seconds: float) -> list[str]:
    return ["perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"]


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run in ``checkout``: its result line, and from its
    report the output digest, the number of operations run and the first
    errors of failed ones."""
    done = subprocess.run(
        [sys.executable, *perfbench_argv(workload, seed, seconds)], cwd=checkout, capture_output=True, text=True
    )
    lines = done.stdout.splitlines()
    if done.returncode not in (0, 1) or not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"perfbench in {checkout} exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    report = next(json.loads(line[len(REPORT_PREFIX):]) for line in lines if line.startswith(REPORT_PREFIX))
    return {
        "attempted": result["attempted"],
        "failed": result["failed"],
        "correct": result["correct"],
        "output_digest": report["output_digest"],
        "operations": report["operations"],
        "errors": report["errors"],
        "metrics": {name: entry["value"] for name, entry in sorted(result["metrics"].items())},
    }


def quartiles(values: list[float]) -> list[float]:
    """[Q1, median, Q3] by the exclusive method; a single value is all three."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="exclusive")


def failed_counts(runs: list[dict], workload: str) -> dict:
    """Per side, [failed, attempted] summed over the workload's runs."""
    counts = {side: [0, 0] for side in SIDES}
    for run in runs:
        if run["workload"] == workload:
            counts[run["side"]][0] += run["failed"]
            counts[run["side"]][1] += run["attempted"]
    return counts


def more_failed(counts: dict) -> bool:
    """Whether the change fails a larger share of its attempted operations."""
    (parent_failed, parent_attempted), (change_failed, change_attempted) = counts["parent"], counts["change"]
    return change_failed * parent_attempted > parent_failed * change_attempted


def verdict(
    parent: list[float], change: list[float], pairs_better: int, pairs: int, better: str, bound: float, failing: bool
) -> str:
    """The rule of the module docstring, on the paired runs of one metric;
    ``failing`` is whether the change fails a larger share of operations."""
    sign = 1 if better == "higher" else -1
    q1, median, q3 = quartiles(parent)
    gap = sign * (statistics.median(change) - median)
    if pairs >= 10 and pairs_better * 10 >= 9 * pairs and gap > q3 - q1 and not failing:
        return "gain"
    if median and -gap > bound * abs(median):
        return "worse"
    every_run_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if median and q3 - q1 > bound * abs(median) and not every_run_better:
        return "unresolved"
    return "within bound"


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per workload and end-to-end metric: medians, quartiles, pairs better and
    the verdict; per workload, each side's median operations and its
    [failed, attempted] operations summed over its runs, and each side's
    ratio of median ``ms_per_log`` to median ``bsgs_ms_per_log``."""
    summary: dict = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        by_seed: dict = {}
        for run in runs:
            if run["workload"] == workload:
                by_seed.setdefault(run["seed"], {})[run["side"]] = run["metrics"]
        paired = [sides for sides in by_seed.values() if set(sides) == set(SIDES)]
        counts = failed_counts(runs, workload)
        failing = more_failed(counts)
        rows = {}
        for spec in end_to_end:
            name, better = spec["name"], spec["better"]
            if not paired or any(name not in sides[side] for sides in paired for side in SIDES):
                continue
            parent = [sides["parent"][name] for sides in paired]
            change = [sides["change"][name] for sides in paired]
            sign = 1 if better == "higher" else -1
            pairs_better = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
            parent_median, change_median = statistics.median(parent), statistics.median(change)
            rows[name] = {
                "parent_median": round(parent_median, 6),
                "change_median": round(change_median, 6),
                "change_vs_parent": round(change_median / parent_median - 1, 4) if parent_median else None,
                "parent_quartiles": [round(v, 6) for v in quartiles(parent)],
                "change_quartiles": [round(v, 6) for v in quartiles(change)],
                "pairs_change_better": f"{pairs_better}/{len(paired)}",
                "verdict": verdict(parent, change, pairs_better, len(paired), better, spec["bound"], failing),
            }
        rows["operations"] = {
            f"{side}_median": statistics.median(
                run["operations"] for run in runs if run["workload"] == workload and run["side"] == side
            )
            for side in SIDES
        }
        rows["operations"].update({f"{side}_failed": counts[side] for side in SIDES})
        rows["operations"].update(rss_per_operation([run for run in runs if run["workload"] == workload]))
        ratios = bsgs_ratios(paired)
        if ratios:
            rows["ms_per_log_over_bsgs"] = ratios
        summary[workload] = rows
    return summary


def bsgs_ratios(paired: list[dict]) -> dict:
    """Per side, median ``ms_per_log`` over median ``bsgs_ms_per_log`` of the
    paired runs; empty when a run lacks either metric or a BSGS median is 0."""
    names = ("ms_per_log", "bsgs_ms_per_log")
    if not paired or any(name not in sides[side] for sides in paired for side in SIDES for name in names):
        return {}
    ratios = {}
    for side in SIDES:
        attack, bsgs = (statistics.median(sides[side][name] for sides in paired) for name in names)
        if not bsgs:
            return {}
        ratios[f"{side}_median"] = round(attack / bsgs, 2)
    return ratios


def rss_per_operation(runs: list[dict]) -> dict:
    """``peak_rss_mib`` against operations: the least-squares line through the
    parent's runs, its slope in KiB per operation, and the median of the
    change's runs' distances above that line in MiB.  A change that only runs
    more operations, each kept as one record, lands on the line (residual
    near 0); one whose program holds more memory lands above it.  Empty when
    a run lacks the metric or the parent's runs do not all run the same
    number of operations."""
    sides = {side: [run for run in runs if run["side"] == side] for side in SIDES}
    if not all(sides.values()) or any("peak_rss_mib" not in run["metrics"] for run in runs):
        return {}
    ops = [run["operations"] for run in sides["parent"]]
    if len(set(ops)) < 2:
        return {}
    slope, intercept = statistics.linear_regression(ops, [run["metrics"]["peak_rss_mib"] for run in sides["parent"]])
    residuals = [run["metrics"]["peak_rss_mib"] - (intercept + slope * run["operations"]) for run in sides["change"]]
    return {
        "parent_peak_rss_kib_per_operation": round(slope * 1024, 6),
        "change_peak_rss_residual_mib": round(statistics.median(residuals), 6),
    }


def shared_errors(runs: list[dict], workload: str) -> list[str]:
    """'seed S: message' for each failed-operation message that both sides of
    a seed of the workload report."""
    by_seed: dict = {}
    for run in runs:
        if run["workload"] == workload:
            by_seed.setdefault(run["seed"], {})[run["side"]] = set(run.get("errors") or ())
    return [
        f"seed {seed}: {error}"
        for seed, sides in by_seed.items()
        if set(sides) == set(SIDES)
        for error in sorted(sides["parent"] & sides["change"])
    ]


def problems(runs: list[dict]) -> list[str]:
    """Runs that report wrong output, seeds whose two sides' digests differ, and
    workloads on which a larger share of the change's operations fails."""
    found = [f"{r['workload']} seed {r['seed']} {r['side']}: correct is false" for r in runs if not r["correct"]]
    digests: dict = {}
    for run in runs:
        digests.setdefault((run["workload"], run["seed"]), set()).add(run["output_digest"])
    found += [f"{w} seed {s}: output_digest differs between the sides" for (w, s), d in digests.items() if len(d) > 1]
    for workload in dict.fromkeys(run["workload"] for run in runs):
        counts = failed_counts(runs, workload)
        if more_failed(counts):
            (pf, pa), (cf, ca) = counts["parent"], counts["change"]
            line = f"{workload}: the change fails {cf} of {ca} operations, the parent {pf} of {pa}"
            shared = shared_errors(runs, workload)
            found.append(f"{line}; both sides fail {', '.join(shared)}" if shared else line)
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", action="append", required=True, help="repeat for several workloads")
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="e.g. 1901-1910")
    parser.add_argument("--parent-commit", default=None)
    parser.add_argument("--note", default="")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    checkouts = {"parent": args.parent, "change": args.change}
    runs = []
    for workload in args.workload:
        for pair, seed in enumerate(args.seeds):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                try:
                    measured = run_once(checkouts[side], workload, seed, seconds)
                except RuntimeError as exc:
                    print(f"bench_pairs: {exc}", file=sys.stderr)
                    return 2
                runs.append({"workload": workload, "side": side, "seed": seed, "ran_first": order[0], **measured})
                print(f"{workload} seed {seed} {side}: {json.dumps(measured['metrics'])}", file=sys.stderr)
    command = " ".join(["python3", *perfbench_argv("<workload>", "<seed>", seconds)])
    bench = {
        "command": command,
        "note": args.note,
        "parent_commit": args.parent_commit,
        "runs": runs,
        "summary": summarize(runs, spec["end_to_end"]),
    }
    args.out.write_text(json.dumps(bench, indent=1) + "\n")
    found = problems(runs)
    for line in found:
        print(f"bench_pairs: {line}", file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
