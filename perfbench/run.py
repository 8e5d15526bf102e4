"""Benchmark of lvecdlp: time per verified logarithm and experiment throughput.

Run from the repository root:

    python3 perfbench/run.py --workload solve-p907-n1 --seed 1 --seconds 36 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, measured untraced.  Times are scaled
by the run's speed factor (see ``calibration``).  With ``--trace 1``
every operation is run twice on the same inputs, once untraced and once with
spans recorded at each layer boundary, and the metrics are the per-layer
split plus the tracing overhead and coverage.  The line before it, prefixed
``perfbench-report``, records the environment, the output digest, the
failure share and the tail percentile with its sample counts; the same report
and, when traced, every span are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent


def percentile(samples: list[float], percent: float) -> tuple[float, int]:
    """Nearest-rank percentile: (value, number of samples above it)."""
    ordered = sorted(samples)
    index = min(len(ordered), max(1, math.ceil(percent * len(ordered) / 100))) - 1
    return ordered[index], len(ordered) - 1 - index


def end_to_end(tally: workloads.Tally, bsgs_passes: list[float], tail_percent: float) -> tuple[dict, dict]:
    """End-to-end metrics and the detail that explains them."""
    logs = tally.count("logs")
    per_log = max(logs, 1)
    attempted = tally.count("attempted")
    seconds = tally.seconds
    # A failed operation still yields a latency sample: its whole time, as if it gave one log.
    samples = [op.seconds * 1000 / max(op.logs, 1) for op in tally.ops]
    tail_ms, beyond = percentile(samples, tail_percent)
    metrics = {
        "ms_per_log": (seconds * 1000 / per_log, "ms"),
        "ms_per_log_p50": (statistics.median(samples), "ms"),
        "ms_per_log_tail": (tail_ms, "ms"),
        "iterations_per_log": (tally.count("iterations") / per_log, "count"),
        "iterations_per_s": (tally.count("iterations") / seconds, "1/s"),
        "bsgs_ms_per_log": (statistics.median(bsgs_passes), "ms"),
        "trials_per_s": (attempted / seconds, "1/s"),
        "trial_success_rate": (logs / attempted, "ratio"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    detail = {
        "failed_share": {"value": tally.count("failed") / attempted, "unit": "ratio"},
        "ms_per_log_tail_percentile": tail_percent,
        "ms_per_log_tail_samples_beyond": beyond,
        "latency_samples": len(samples),
        "logs": logs,
        "operations": len(tally.ops),
        "bsgs_passes": len(bsgs_passes),
    }
    return metrics, detail


def scaled(metrics: dict, factor: float) -> dict:
    """Times multiplied by the speed factor, rates divided by it, the rest as measured."""
    out = {}
    for name, (value, unit) in metrics.items():
        if unit in ("s", "ms", "us"):
            value *= factor
        elif unit == "1/s":
            value /= factor
        out[name] = (value, unit)
    return out


def per_layer(
    tracer: tracing.Tracer, traced: workloads.Tally, untraced: workloads.Tally, kind: str
) -> dict:
    """Per-layer metrics from the spans of the traced operations and BSGS passes."""
    s = tracing.SpanStats(tracer.spans)
    per_log = max(traced.count("logs"), 1)
    wall = traced.seconds
    in_pipeline = [i for i in range(len(s.spans)) if s.root_name(i) != "dlp.bsgs"]
    pipeline = set(in_pipeline)
    curve = [i for i in s.of("curve.scalar_mul") if i in pipeline]
    veronese = s.of("veronese.evaluate_row")
    left_kernel = s.of("linalg.left_kernel")
    alg2 = s.of("problem_l.alg2")
    exhaustive = s.of("problem_l.exhaustive")
    decode = s.of("attack.decode")
    bsgs = s.of("dlp.bsgs")
    cli = s.of("cli.main")
    scan_children = s.children_by_name(exhaustive)
    scans = set(exhaustive)
    accept_calls = [i for i in decode if s.spans[i][1] in scans]

    # The decode that follows an alg2 candidate is the next span with the same parent.
    candidates = hits = 0
    for i in alg2:
        if not s.spans[i][4]:
            continue
        candidates += 1
        parent = s.spans[i][1]
        sibling = next(j for j in range(i + 1, len(s.spans)) if s.spans[j][1] == parent)
        hits += int(s.spans[sibling][0] == "attack.decode" and s.spans[sibling][4])

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    trials = traced.count("attempted") if kind == "experiment" else 0
    roots = [i for i in in_pipeline if s.spans[i][1] == tracing.ROOT_PARENT]
    metrics = {
        "curve.scalar_mul.calls_per_log": (len(curve) / per_log, "count"),
        "curve.scalar_mul.us_p50": (s.median_us(curve), "us"),
        "curve.ms_per_log": (s.total(curve) * 1000 / per_log, "ms"),
        "curve.share": (ratio(s.total(curve), wall), "ratio"),
        "veronese.evaluate_row.calls_per_log": (len(veronese) / per_log, "count"),
        "veronese.ms_per_log": (s.total(veronese) * 1000 / per_log, "ms"),
        "linalg.left_kernel.calls_per_log": (len(left_kernel) / per_log, "count"),
        "linalg.left_kernel.us_p50": (s.median_us(left_kernel), "us"),
        "linalg.ms_per_log": (s.total(s.of_layer("linalg")) * 1000 / per_log, "ms"),
        "linalg.row_rank.calls_per_log": (scan_children["linalg.row_rank"] / per_log, "count"),
        "linalg.right_kernel_rows.calls_per_log": (scan_children["linalg.right_kernel_rows"] / per_log, "count"),
        "problem_l.alg2.calls_per_log": (len(alg2) / per_log, "count"),
        "problem_l.alg2.us_p50": (s.median_us(alg2), "us"),
        "problem_l.alg2.hit_ratio": (ratio(hits, candidates), "ratio"),
        "problem_l.exhaustive.calls_per_log": (len(exhaustive) / per_log, "count"),
        "problem_l.exhaustive.us_p50": (s.median_us(exhaustive), "us"),
        "problem_l.exhaustive.self_ms_per_log": (s.total_self(exhaustive) * 1000 / per_log, "ms"),
        "problem_l.exhaustive.zero_sets_per_call": (ratio(scan_children["linalg.row_rank"], len(exhaustive)), "count"),
        "problem_l.exhaustive.full_scan_ratio": (ratio(len(exhaustive) - s.ok_count(exhaustive), len(exhaustive)), "ratio"),
        "attack.decode.calls_per_log": (len(decode) / per_log, "count"),
        "attack.decode.accept_ratio": (ratio(s.ok_count(accept_calls), len(accept_calls)), "ratio"),
        "attack.config.us": (s.median_us(s.of("attack.config")), "us"),
        "attack.self_ms_per_log": (
            s.total_self(s.of("attack.run_attack") + s.of("attack.execute_iteration")) * 1000 / per_log,
            "ms",
        ),
        "dlp.bsgs.ms_per_log": (ratio(s.total(bsgs) * 1000, len(bsgs)), "ms"),
        "cli.self_ms_per_trial": (ratio(s.total_self(cli) * 1000, trials), "ms"),
        "cli.output_bytes": (ratio(traced.count("output_bytes"), trials), "B/trial"),
        "trace.overhead": (traced.seconds / untraced.seconds - 1, "ratio"),
        "trace.coverage": (ratio(s.total(roots), wall), "ratio"),
    }
    return metrics


def _read_git_commit(root: Path):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def _steal_ticks():
    """Machine-wide CPU time stolen by the hypervisor, in clock ticks, if the kernel reports it."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def environment(root: Path) -> dict:
    sources = hashlib.sha256()
    for path in sorted((root / "src" / "lvecdlp").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": _read_git_commit(root),
        "source_sha256": sources.hexdigest(),
        "loadavg_start": _loadavg(),
        "steal_ticks_start": _steal_ticks(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def measure(root: Path, workload_name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Set up, run the closed loop and BSGS, and return (result line, report)."""
    env = environment(root)
    workload = workloads.WORKLOADS[workload_name]
    bench, setup_s, setup_wall_s = workloads.timed_setup(root, workload, seed)
    tracer = tracing.Tracer(tracing.boundaries(bench.mods)) if trace else None
    run = workloads.run_loop(bench, seconds, tracer)
    untraced, traced = run.untraced, run.traced
    wall, detail = end_to_end(untraced, run.bsgs_ms_per_log, workload.tail_percentile)
    e2e = scaled(wall, run.speed_factor)
    e2e["setup_s"], wall["setup_s"] = (setup_s, "s"), (setup_wall_s, "s")
    detail["speed_factor"] = run.speed_factor
    detail["calibration_samples"] = len(run.calibration_ms)
    detail["end_to_end_wall"] = {name: {"value": value, "unit": unit} for name, (value, unit) in wall.items()}
    if trace:
        chosen = scaled(per_layer(tracer, traced, untraced, workload.kind), run.speed_factor)
        tracer.write(bench.out_dir / f"spans-{workload_name}.csv")
        detail["spans"] = len(tracer.spans)
        detail["untraced_boundaries"] = tracer.missing
    else:
        chosen = e2e
    output_digest, digest_ops = workloads.digest(untraced)
    correct = untraced.correct and traced.correct and run.bsgs_correct
    env["loadavg_end"] = _loadavg()
    env["steal_ticks_end"] = _steal_ticks()
    result = {
        "correct": correct,
        "attempted": untraced.count("attempted"),
        "failed": untraced.count("failed"),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in chosen.items()},
    }
    report = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": env,
        "output_digest": output_digest,
        "output_digest_ops": digest_ops,
        "errors": untraced.errors() + traced.errors(),
        "end_to_end": {name: {"value": value, "unit": unit} for name, (value, unit) in e2e.items()},
        **detail,
    }
    if trace:
        report["per_layer"] = result["metrics"]
    bench.out_dir.mkdir(parents=True, exist_ok=True)
    report_path = bench.out_dir / f"{workload_name}-seed{seed}-trace{int(trace)}.json"
    report_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return result, report


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "lvecdlp" / "__init__.py").is_file():
        print(f"perfbench: no lvecdlp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        result, report = measure(ROOT, args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"perfbench: cannot import lvecdlp: {exc}", file=sys.stderr)
        return 2
    print("perfbench-report " + json.dumps(report, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
