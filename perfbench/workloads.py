"""The benchmark's workloads: set-up, the timed closed loop and its correctness gate.

All three workloads attack the pinned p = 907 fixture (curve over F_853).
One caller drives the package in a closed loop: each operation starts only
after the previous one returned, and no threads or processes are used.

* ``solve-p907-n1``: ``attack.run_attack`` with n' = 1 and the default
  ``alg2-then-exhaustive`` solver.  About 40 iterations per logarithm and
  only C(6, 3) = 20 zero sets, so curve sampling dominates.
* ``solve-p907-n3``: ``attack.run_attack`` with n' = 3.  About one
  iteration per logarithm; the exhaustive scan over C(18, 9) = 48,620 zero
  sets, which stops at the first accepted set, dominates.
* ``experiment-p907-n2``: ``cli.main(["experiment", ...])`` with the AC-5
  configuration (n' = 2, ``exhaustive``, accident check off).  About a third
  of trials scan all C(12, 6) = 924 sets, and the CLI trial loop and its
  CSV/JSON output are exercised.

Targets are drawn from the workload seed.  The program only receives the
target points, ``AttackConfig.seed`` values and experiment ``--seed`` values.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import random
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import Optional

import calibration
import tracing

POOL_SIZE = 64
TRIALS_PER_CALL = 20
SETUP_REPS = 9
BSGS_SHARE = 0.05
CALIBRATION_SHARE = 0.05
DIGEST_OPS = 16


@dataclass(frozen=True)
class Workload:
    """``tail_percentile`` is fixed so that a faster program, which yields more
    latency samples, is compared at the same percentile.  It is the highest
    whole percentile with at least ten samples beyond it in the slowest
    36-second runs measured at the commit that defined the benchmark."""

    name: str
    kind: str
    n_prime: int
    tail_percentile: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("solve-p907-n1", "solve", 1, 96),
        Workload("solve-p907-n3", "solve", 3, 98),
        Workload("experiment-p907-n2", "experiment", 2, 85),
    )
}


@dataclass
class Bench:
    """Everything set-up produces; the timed loop only reads it."""

    workload: Workload
    seed: int
    mods: SimpleNamespace
    group: object
    pool: list[tuple[int, object]]
    out_dir: Path


@dataclass
class OpResult:
    """One closed-loop operation: a solve target or one experiment call."""

    seconds: float
    attempted: int
    logs: int
    iterations: int
    failed: int = 0
    correct: bool = True
    error: Optional[str] = None
    digest_text: str = ""
    output_bytes: int = 0


@dataclass
class Tally:
    ops: list[OpResult] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return sum(op.seconds for op in self.ops)

    def count(self, attr: str) -> int:
        return sum(getattr(op, attr) for op in self.ops)

    @property
    def correct(self) -> bool:
        return all(op.correct for op in self.ops)

    def errors(self) -> list[str]:
        return [op.error for op in self.ops if op.error][:5]


def _seeded(workload: str, seed: int, *parts) -> random.Random:
    return random.Random(":".join(["perfbench", workload, str(seed), *map(str, parts)]))


def op_seed(workload: str, seed: int, index: int) -> int:
    """Seed handed to the program for operation ``index`` of a workload run."""
    return _seeded(workload, seed, "op", index).randrange(1 << 31)


def planted_m(call_seed: int, trial: int, p: int) -> int:
    """The logarithm ``lvecdlp experiment --seed call_seed`` plants in ``trial``."""
    return random.Random(f"{call_seed}:m:{trial}").randrange(1, p)


def _import_package(root: Path) -> SimpleNamespace:
    for name in [n for n in sys.modules if n == "lvecdlp" or n.startswith("lvecdlp.")]:
        del sys.modules[name]
    names = ("attack", "cli", "curve", "dlp", "problem_l", "verification")
    mods = SimpleNamespace(**{n: importlib.import_module(f"lvecdlp.{n}") for n in names})
    expected = (root / "src" / "lvecdlp").resolve()
    if Path(mods.attack.__file__).resolve().parent != expected:
        raise ImportError(f"lvecdlp was imported from {mods.attack.__file__}, not {expected}")
    return mods


def setup(root: Path, workload: Workload, seed: int) -> Bench:
    """Import the package afresh, build and validate the fixture, build the targets."""
    mods = _import_package(root)
    group = mods.verification.fixture_medium()
    p = group.order
    if workload.kind == "solve":
        ms = [_seeded(workload.name, seed, "m", i).randrange(1, p) for i in range(POOL_SIZE)]
    else:
        ms = [
            planted_m(op_seed(workload.name, seed, k // TRIALS_PER_CALL), k % TRIALS_PER_CALL + 1, p)
            for k in range(POOL_SIZE)
        ]
    pool = [(m, group.scalar_mul(m)) for m in ms]
    return Bench(workload, seed, mods, group, pool, root / "perfbench" / "out")


def timed_setup(root: Path, workload: Workload, seed: int, reps: int = SETUP_REPS) -> tuple[Bench, float, float]:
    """Run set-up ``reps`` times; return the last result and the median time, scaled and unscaled.

    Each repetition is scaled by the median of three calibration kernels run
    just before it, since set-up is over before the loop measures its own
    speed factor.
    """
    scaled, wall = [], []
    for _ in range(reps):
        speed = calibration.REFERENCE_MS / statistics.median(calibration.sample() for _ in range(3))
        start = perf_counter()
        bench = setup(root, workload, seed)
        wall.append(perf_counter() - start)
        scaled.append(wall[-1] * speed)
    return bench, statistics.median(scaled), statistics.median(wall)


def solve_op(bench: Bench, index: int) -> OpResult:
    attack = bench.mods.attack
    m, target = bench.pool[index % POOL_SIZE]
    seed = op_seed(bench.workload.name, bench.seed, index)
    start = perf_counter()
    try:
        cfg = attack.AttackConfig(group=bench.group, target=target, n_prime=bench.workload.n_prime, seed=seed)
        outcome = attack.run_attack(cfg)
    except Exception as exc:  # one failed operation must not end the run
        return OpResult(perf_counter() - start, 1, 0, 0, failed=1, error=f"{type(exc).__name__}: {exc}")
    seconds = perf_counter() - start
    digest = f"{index},{m},{outcome.m},{outcome.iterations_used}\n"
    result = OpResult(seconds, 1, 0, outcome.iterations_used, digest_text=digest)
    if outcome.m is None:
        result.failed = 1
        result.error = f"target {index}: {outcome.failure_reason}"
    elif outcome.m != m:
        result.correct = False
        result.error = f"target {index}: recovered m = {outcome.m}, planted m = {m}"
    else:
        result.logs = 1
    return result


def experiment_argv(bench: Bench, call_seed: int, csv_path: Path, json_path: Path) -> list[str]:
    v = bench.mods.verification
    return [
        "experiment",
        "--q", str(v.MEDIUM_Q), "--a", str(v.MEDIUM_A), "--b", str(v.MEDIUM_B),
        "--gx", str(v.MEDIUM_GX), "--gy", str(v.MEDIUM_GY), "--order", str(v.MEDIUM_ORDER),
        "--nprime", str(bench.workload.n_prime), "--solver", "exhaustive", "--accident-check", "off",
        "--trials", str(TRIALS_PER_CALL), "--seed", str(call_seed),
        "--csv", str(csv_path), "--json", str(json_path),
    ]


def experiment_op(bench: Bench, index: int, tmp: Path) -> OpResult:
    call_seed = op_seed(bench.workload.name, bench.seed, index)
    csv_path, json_path = tmp / f"trials-{index}.csv", tmp / f"summary-{index}.json"
    argv = experiment_argv(bench, call_seed, csv_path, json_path)
    console = io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(console), contextlib.redirect_stderr(console):
            code = bench.mods.cli.main(argv)
    except Exception as exc:  # one failed operation must not end the run
        code, console = None, io.StringIO(f"{type(exc).__name__}: {exc}")
    seconds = perf_counter() - start
    result = OpResult(seconds, TRIALS_PER_CALL, 0, TRIALS_PER_CALL)
    if code != 0:
        result.failed = TRIALS_PER_CALL
        result.error = f"call {index}: exit {code}: {console.getvalue().strip()[-200:]}"
        return result
    csv_text, json_text = csv_path.read_text(), json_path.read_text()
    csv_path.unlink()
    json_path.unlink()
    result.output_bytes = len(csv_text.encode()) + len(json_text.encode())
    result.digest_text = csv_text + json_text
    successes, problem = check_experiment_outputs(csv_text, json_text, call_seed, bench.group.order)
    if problem is not None:
        result.correct = False
        result.error = f"call {index}: {problem}"
    else:
        result.logs = successes
    return result


def check_experiment_outputs(csv_text: str, json_text: str, call_seed: int, p: int) -> tuple[int, Optional[str]]:
    """(successes, None) when the CSV has one row per trial with its planted m
    and the JSON summary agrees; otherwise (0, what is wrong)."""
    rows = csv_text.splitlines()[1:]
    if len(rows) != TRIALS_PER_CALL:
        return 0, f"{len(rows)} CSV rows for {TRIALS_PER_CALL} trials"
    successes = 0
    for trial, row in enumerate(rows, start=1):
        cells = row.split(",")
        try:
            matches = int(cells[0]) == trial and int(cells[1]) == planted_m(call_seed, trial, p)
            successes += int(cells[2])
        except (IndexError, ValueError):
            matches = False
        if not matches:
            return 0, f"CSV row {trial} does not match the planted target: {row}"
    try:
        summary = json.loads(json_text)["summary"]
    except (ValueError, KeyError) as exc:
        return 0, f"unreadable JSON summary: {exc}"
    if summary.get("trials") != TRIALS_PER_CALL or summary.get("successes") != successes:
        return 0, f"JSON summary {summary.get('successes')}/{summary.get('trials')} disagrees with the CSV"
    return successes, None


@dataclass
class Run:
    """What one timed loop produced; ``traced`` stays empty without a tracer."""

    untraced: Tally
    traced: Tally
    bsgs_ms_per_log: list[float]
    bsgs_correct: bool
    calibration_ms: list[float]

    @property
    def speed_factor(self) -> float:
        """Reference kernel time over the mean kernel time in this run."""
        return calibration.REFERENCE_MS / statistics.fmean(self.calibration_ms)


def bsgs_pass(bench: Bench) -> tuple[float, bool]:
    """Baby-step giant-step over the whole pool: (ms per logarithm, all answers right)."""
    dlp = bench.mods.dlp
    correct = True
    start = perf_counter()
    for m, target in bench.pool:
        correct &= dlp.solve_bsgs(bench.group, target) == m
    return (perf_counter() - start) * 1000 / len(bench.pool), correct


def run_loop(bench: Bench, seconds: float, tracer: Optional[tracing.Tracer] = None) -> Run:
    """Closed loop of operations until ``seconds`` pass.

    BSGS passes over the pool and calibration kernels are interleaved so
    that they take BSGS_SHARE and CALIBRATION_SHARE of the time and see the
    same machine conditions as the attack.  With a tracer, every operation
    and pass runs twice on identical inputs, once with the tracer installed
    (alternating which goes first for operations), so the difference between
    the two tallies is the tracing overhead.
    """
    run = Run(Tally(), Tally(), [], True, [])
    tmp = bench.out_dir / f"tmp-{bench.workload.name}-{bench.seed}"

    def op(index: int) -> OpResult:
        if bench.workload.kind == "solve":
            return solve_op(bench, index)
        return experiment_op(bench, index, tmp)

    def traced(call, *args):
        tracer.install()
        try:
            return call(*args)
        finally:
            tracer.uninstall()

    def bsgs() -> None:
        ms, correct = bsgs_pass(bench)
        run.bsgs_ms_per_log.append(ms)
        run.bsgs_correct &= correct
        if tracer is not None:
            run.bsgs_correct &= traced(bsgs_pass, bench)[1]

    tmp.mkdir(parents=True, exist_ok=True)
    try:
        op(-1)  # warm-up on an input outside the measured stream
        start = perf_counter()
        deadline = start + seconds
        bsgs_seconds = calibration_seconds = 0.0
        index = 0
        while True:
            if tracer is None:
                run.untraced.ops.append(op(index))
            elif index % 2:
                run.traced.ops.append(traced(op, index))
                run.untraced.ops.append(op(index))
            else:
                run.untraced.ops.append(op(index))
                run.traced.ops.append(traced(op, index))
            index += 1
            now = perf_counter()
            if bsgs_seconds < BSGS_SHARE * (now - start) or (now >= deadline and not run.bsgs_ms_per_log):
                bsgs()
                bsgs_seconds += perf_counter() - now
            while calibration_seconds < CALIBRATION_SHARE * (perf_counter() - start) or not run.calibration_ms:
                run.calibration_ms.append(calibration.sample())
                calibration_seconds += run.calibration_ms[-1] / 1000
            if perf_counter() >= deadline or not run.untraced.ops[-1].correct:
                break
    finally:
        for leftover in tmp.iterdir():
            leftover.unlink()
        tmp.rmdir()
    return run


def digest(tally: Tally) -> tuple[str, int]:
    """sha256 of the seeded outputs of the first DIGEST_OPS operations."""
    ops = tally.ops[:DIGEST_OPS]
    text = "".join(op.digest_text for op in ops)
    return hashlib.sha256(text.encode()).hexdigest(), len(ops)
