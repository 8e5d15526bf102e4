"""Acceptance criteria, one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the report lines.
The medium fixture is the order-907 group over F_853 (matched to
C(12, 6) = 924); the small fixture is the order-19 group over F_17.
"""

import os
import random
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

import lvecdlp
from lvecdlp.analysis import audit_partition_counts, success_model
from lvecdlp.attack import (
    AttackConfig,
    decode_solution,
    planted_trials,
    run_attack,
    sample_iteration,
)
from lvecdlp.cli import main as cli_main
from lvecdlp.dlp import solve_bsgs
from lvecdlp.linalg import in_row_space, left_kernel
from lvecdlp.problem_l import solve_alg2, solve_exhaustive
from lvecdlp.verification import (
    clean_iteration,
    verify_chord_law,
    verify_kernel_dimension,
)
from reference_attack import subset_sum_oracle

AC5_SEED = 20250810
AC5_TRIALS = 2000


def report(name: str, ok: bool, detail: str) -> None:
    print(f"{name}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_ac1_chord_law(group_p19):
    result = verify_chord_law(group_p19, trials=1000, seed=1)
    report(
        "AC-1 degree-1 interpolation (chord law)",
        result.passed,
        "; ".join(result.lines),
    )
    assert result.passed


def test_ac2_kernel_dimension(group_p907):
    result = verify_kernel_dimension(group_p907, degrees=(1, 2, 3, 4), iterations=200, seed=2)
    report("AC-2 kernel dimension == l", result.passed, "; ".join(result.lines))
    assert result.passed


def test_ac3_cross_validation(group_p907):
    """Subset-sum ground truth vs exhaustive zero-pattern verdict, both filtered."""
    p = group_p907.order
    m_true = 555
    cfg = AttackConfig(
        group=group_p907,
        target=group_p907.scalar_mul(m_true),
        n_prime=2,
        solver="exhaustive",
        seed=3,
    )
    disagreements = 0
    solvable = 0
    index = 1
    skipped_total = 0
    for _ in range(500):
        sample, index, skipped = clean_iteration(cfg, index)
        skipped_total += skipped
        oracle_found, _ = subset_sum_oracle(sample.multipliers_p, sample.multipliers_q, m_true, p)
        kernel = left_kernel(cfg.monomials, sample.points, group_p907.curve.q)

        def accept(vec):
            return decode_solution(vec, sample.multipliers_p, sample.multipliers_q, p)[0] is not None

        solution = solve_exhaustive(kernel, cfg.l, accept=accept)
        if oracle_found != (solution is not None):
            disagreements += 1
        if solution is not None:
            solvable += 1
            decoded, _ = decode_solution(solution, sample.multipliers_p, sample.multipliers_q, p)
            assert decoded == m_true
    ok = disagreements == 0
    report(
        "AC-3 interpolation law cross-validation",
        ok,
        f"500 collision-free iterations, {disagreements} disagreements, "
        f"{solvable} solvable, {skipped_total} collision samples excluded",
    )
    assert ok


def test_ac4_las_vegas_correctness(group_p19, group_p907):
    wrong = 0
    failures = 0
    runs = 0
    rng = random.Random(4)
    for group, count, n_prime in ((group_p19, 100, 1), (group_p907, 20, 2)):
        for _ in range(count):
            m = rng.randrange(1, group.order)
            cfg = AttackConfig(
                group=group,
                target=group.scalar_mul(m),
                n_prime=n_prime,
                solver="exhaustive",
                seed=rng.randrange(2**32),
            )
            outcome = run_attack(cfg)
            runs += 1
            if not outcome.succeeded:
                failures += 1
                continue
            if outcome.m != m or outcome.m != solve_bsgs(group, cfg.target):
                wrong += 1
            if group.scalar_mul(outcome.m) != cfg.target:
                wrong += 1
    ok = wrong == 0
    report(
        "AC-4 Las Vegas end-to-end",
        ok,
        f"{runs} planted instances, {wrong} wrong answers, {failures} budget failures (allowed)",
    )
    assert ok


@pytest.fixture(scope="module")
def ac5_trial_stream(group_p907):
    """The AC-5 trial stream; AC-6 harvests its instances."""
    return list(islice(planted_trials(group_p907, seed=AC5_SEED, n_prime=2), AC5_TRIALS))


def test_ac5_success_probability(group_p907, ac5_trial_stream):
    successes = sum(1 for t in ac5_trial_stream if t.record.m is not None)
    rate = successes / AC5_TRIALS
    model = success_model(group_p907.order, 2, 6)
    diff = abs(rate - model.per_iteration)
    ok = diff <= 0.05
    report(
        "AC-5 per-iteration success probability",
        ok,
        f"observed {rate:.4f} over {AC5_TRIALS} trials vs model {model.per_iteration:.4f} "
        f"(|diff| = {diff:.4f}, tolerance 0.05)",
    )
    assert ok


def test_ac6_block_solver_soundness_and_calibration(ac5_trial_stream):
    l = 6
    heuristic = 36 / 924
    solvable = 0
    finds = 0
    sound = 0
    for trial in ac5_trial_stream:
        if solvable >= 1000:
            break
        kernel = left_kernel(trial.cfg.monomials, sample_iteration(trial.cfg, trial.index).points, trial.cfg.group.curve.q)
        if trial.record.m is None and solve_exhaustive(kernel, l) is None:
            continue
        solvable += 1
        candidate = solve_alg2(kernel.vectors, l, kernel.p)
        if candidate is None:
            continue
        finds += 1
        if candidate.count(0) >= l and in_row_space(kernel.vectors, candidate, kernel.p):
            sound += 1
    conditional = finds / solvable
    ratio = conditional / heuristic
    ok = solvable >= 1000 and sound == finds
    report(
        "AC-6 block-solver soundness + calibration",
        ok,
        f"{solvable} solvable instances; every return in-span with >= {l} zeros: {sound}/{finds}; "
        f"measured conditional {conditional:.4f} vs heuristic {heuristic:.4f} "
        f"(ratio {ratio:.2f}; factor-3 agreement is a soft expectation, reported only)",
    )
    assert ok


def test_ac7_partition_audit():
    audit = audit_partition_counts((5, 7, 11, 13, 17), (3, 4, 5))
    example = next(
        (row for row in audit.rows if (row.p, row.k, row.m) == (7, 3, 0)),
        None,
    )
    ok = audit.consistency_ok and example is not None and example.oracle == 2 and not example.match
    report(
        "AC-7 partition-count audit",
        ok,
        f"oracle self-consistent on all (p, k); {audit.mismatch_count}/{len(audit.rows)} formula rows "
        f"disagree, {audit.anomaly_count} non-integer formula values; "
        f"example p=7 k=3 m=0: oracle {example.oracle} vs formula {example.formula}",
    )
    assert ok


AC8_SOLVE_ARGS = [
    "solve",
    "--q", "853", "--a", "1", "--b", "348", "--gx", "1", "--gy", "297", "--order", "907",
    "--qx", "707", "--qy", "631",
    "--nprime", "2", "--solver", "exhaustive", "--seed", "11",
]
AC8_EXPERIMENT_ARGS = [
    "experiment",
    "--q", "17", "--a", "2", "--b", "2", "--gx", "5", "--gy", "1", "--order", "19",
    "--nprime", "1", "--solver", "exhaustive", "--trials", "30", "--seed", "12",
]


def test_ac8_byte_determinism(tmp_path):
    m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
    assert cli_main([*AC8_SOLVE_ARGS, "--manifest", str(m1)]) == 0
    assert cli_main([*AC8_SOLVE_ARGS, "--manifest", str(m2)]) == 0
    solve_identical = m1.read_bytes() == m2.read_bytes()

    c1, j1 = tmp_path / "e1.csv", tmp_path / "e1.json"
    c2, j2 = tmp_path / "e2.csv", tmp_path / "e2.json"
    assert cli_main([*AC8_EXPERIMENT_ARGS, "--csv", str(c1), "--json", str(j1)]) == 0
    assert cli_main([*AC8_EXPERIMENT_ARGS, "--csv", str(c2), "--json", str(j2)]) == 0
    experiment_identical = c1.read_bytes() == c2.read_bytes() and j1.read_bytes() == j2.read_bytes()

    ok = solve_identical and experiment_identical
    report(
        "AC-8 byte-identical reruns",
        ok,
        f"solve manifests identical: {solve_identical}; experiment csv+json identical: {experiment_identical}",
    )
    assert ok


def test_ac8_byte_determinism_across_hash_seeds(tmp_path):
    """The AC-8 runs in fresh processes with different string-hash seeds give the same bytes."""
    src = str(Path(lvecdlp.__file__).resolve().parents[1])
    outputs = {}
    for hash_seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = tmp_path / hash_seed
        out.mkdir()
        files = (out / "m.json", out / "e.csv", out / "e.json")
        runs = (
            [*AC8_SOLVE_ARGS, "--manifest", str(files[0])],
            [*AC8_EXPERIMENT_ARGS, "--csv", str(files[1]), "--json", str(files[2])],
        )
        for argv in runs:
            done = subprocess.run(
                [sys.executable, "-m", "lvecdlp.cli", *argv], env=env, capture_output=True, text=True
            )
            assert done.returncode == 0, done.stderr
        outputs[hash_seed] = [path.read_bytes() for path in files]
    ok = outputs["0"] == outputs["1"]
    report("AC-8 across processes", ok, f"manifest, csv and json identical for PYTHONHASHSEED 0 and 1: {ok}")
    assert ok
