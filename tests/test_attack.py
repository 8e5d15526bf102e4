import dataclasses
import hashlib
import json
import random
from itertools import islice
from math import comb

import pytest

import lvecdlp.attack as attack_mod
from lvecdlp.attack import (
    AttackConfig,
    IterationSample,
    REJECT_MISSING_BLOCK,
    REJECT_SUPPORT_SIZE,
    REJECT_ZERO_DENOMINATOR,
    accident_logarithm,
    decode_solution,
    detect_accident,
    execute_iteration,
    planted_trials,
    run_attack,
    sample_iteration,
)
from lvecdlp.curve import find_prime_order_curve
from lvecdlp.dlp import solve_bsgs
from lvecdlp.errors import BudgetExceededError
from lvecdlp.field import PrimeField
from lvecdlp.linalg import left_kernel
from lvecdlp.problem_l import _singular_zero_sets, solve_alg2, solve_exhaustive
from lvecdlp.veronese import basis, evaluate_row
from lvecdlp.verification import LARGE_ORDER, clean_iteration, fixture_large
from reference_attack import accident_by_points, projective_span, subset_sum_oracle
from reference_curve import reference_scalar_mul


def make_sample(group, m, multipliers_p, multipliers_q, n_prime):
    """Assemble a sample from chosen multipliers (bypasses the sampler)."""
    curve = group.curve
    target = group.scalar_mul(m)
    neg_target = curve.negate(target)
    points_p = tuple(group.scalar_mul(r) for r in multipliers_p)
    points_q = tuple(curve.scalar_mul(r, neg_target) for r in multipliers_q)
    mb = basis(n_prime)
    rows = tuple(tuple(evaluate_row(mb, pt, curve.q)) for pt in points_p + points_q)
    return IterationSample(0, tuple(multipliers_p), tuple(multipliers_q), rows)


def test_sample_shapes_and_determinism(group_p907):
    cfg = AttackConfig(group=group_p907, target=group_p907.scalar_mul(5), n_prime=2, seed=7)
    sample = sample_iteration(cfg, 3)
    assert len(sample.multipliers_p) == 5
    assert len(sample.multipliers_q) == 7
    assert len(sample.rows) == 12
    assert {len(row) for row in sample.rows} == {6}
    assert len(set(sample.multipliers_p)) == 5
    assert len(set(sample.multipliers_q)) == 7
    again = sample_iteration(cfg, 3)
    assert again.multipliers_p == sample.multipliers_p
    assert again.multipliers_q == sample.multipliers_q
    other = sample_iteration(cfg, 4)
    assert (other.multipliers_p, other.multipliers_q) != (sample.multipliers_p, sample.multipliers_q)


def test_sample_layout_n1(group_p19):
    cfg = AttackConfig(group=group_p19, target=group_p19.scalar_mul(4), n_prime=1, l=3, seed=0)
    sample = sample_iteration(cfg, 1)
    assert len(sample.rows) == 6 and {len(row) for row in sample.rows} == {3}
    q = group_p19.curve.q
    mb = basis(1)
    for i, r in enumerate(sample.multipliers_p):
        assert list(sample.rows[i]) == evaluate_row(mb, group_p19.scalar_mul(r), q)
    neg_target = group_p19.curve.negate(cfg.target)
    for j, r in enumerate(sample.multipliers_q):
        expected = evaluate_row(mb, group_p19.curve.scalar_mul(r, neg_target), q)
        assert list(sample.rows[len(sample.multipliers_p) + j]) == expected


def test_config_validation(group_p19):
    target = group_p19.scalar_mul(3)
    with pytest.raises(ValueError):
        AttackConfig(group=group_p19, target=target, n_prime=0)
    with pytest.raises(ValueError):
        AttackConfig(group=group_p19, target=target, n_prime=1, solver="nope")
    with pytest.raises(ValueError):
        AttackConfig(group=group_p19, target=target, n_prime=4)  # 12 + 12 > 18
    with pytest.raises(ValueError):
        AttackConfig(group=group_p19, target=group_p19.curve.point(0, 6), n_prime=1, l=0)
    with pytest.raises(ValueError):
        AttackConfig(group=group_p19, target=target, max_iterations=0)
    for budget in (0, -1):
        with pytest.raises(ValueError, match="enumeration_budget"):
            AttackConfig(group=group_p19, target=target, enumeration_budget=budget)


def test_detect_accident_planted(group_p907):
    p = group_p907.order
    m = 123
    r2 = 77
    r1 = -m * r2 % p
    sample = make_sample(group_p907, m, [r1, 50, 51, 52, 53], [r2, 60, 61, 62, 63, 64, 65], 2)
    accident = detect_accident(sample)
    assert accident == (r1, r2)
    assert accident_logarithm(r1, r2, p) == m


@pytest.mark.parametrize("n_prime", [1, 2])
def test_accident_by_rows_matches_accident_by_points(group_p19, group_p907, n_prime):
    """On seeded samples, collision samples included, comparing rows finds the
    same (r, r') as comparing the reference points of the two blocks."""
    collided = 0
    for group, m, seeds in ((group_p19, 1, range(3)), (group_p19, 7, range(3)), (group_p907, 123, range(2))):
        if 6 * n_prime > group.order - 1:
            continue
        curve = group.curve
        cfg = AttackConfig(group=group, target=group.scalar_mul(m), n_prime=n_prime, seed=0)
        neg_target = curve.negate(cfg.target)
        for seed in seeds:
            cfg = dataclasses.replace(cfg, seed=seed)
            for index in range(1, 61):
                sample = sample_iteration(cfg, index)
                points_p = [reference_scalar_mul(curve, r, group.generator) for r in sample.multipliers_p]
                points_q = [reference_scalar_mul(curve, r, neg_target) for r in sample.multipliers_q]
                expected = accident_by_points(sample.multipliers_p, sample.multipliers_q, points_p, points_q)
                assert detect_accident(sample) == expected, (group.order, m, seed, index)
                collided += expected is not None
    assert collided >= 20


def test_detect_accident_absent_generically(group_p907):
    cfg = AttackConfig(group=group_p907, target=group_p907.scalar_mul(222), n_prime=2, seed=1)
    hits = sum(1 for idx in range(1, 41) if detect_accident(sample_iteration(cfg, idx)) is not None)
    assert hits <= 6  # expect about 4% of iterations


def test_accident_check_disabled_proceeds(group_p907):
    p = group_p907.order
    m = 123
    cfg = AttackConfig(
        group=group_p907,
        target=group_p907.scalar_mul(m),
        n_prime=2,
        solver="exhaustive",
        seed=2,
        accident_check=False,
        max_iterations=1,
    )
    record = execute_iteration(cfg, 1)
    assert record.accident is None
    assert record.kernel_dim is not None


def test_decode_rejects():
    multipliers_p = (1, 2)
    multipliers_q = (3, 16, 5, 6)
    p = 19
    m, reason = decode_solution((1, 0, 0, 0, 0, 0), multipliers_p, multipliers_q, p)
    assert m is None and reason == REJECT_SUPPORT_SIZE
    m, reason = decode_solution((0, 0, 1, 1, 1, 0), multipliers_p, multipliers_q, p)
    assert m is None and reason == REJECT_MISSING_BLOCK
    m, reason = decode_solution((1, 0, 1, 1, 0, 0), multipliers_p, multipliers_q, p)
    assert m is None and reason == REJECT_ZERO_DENOMINATOR
    with pytest.raises(ValueError):
        decode_solution((1, 0, 0), multipliers_p, multipliers_q, p)


def test_unverified_decode_is_a_rejection(group_p907, monkeypatch):
    """A decoded m with m * P != Q rejects its vector instead of raising:
    alg2 records "alg2:unverified", the exhaustive scan moves on to the next
    zero set, and a planted trial comes back as a failed trial."""
    p = group_p907.order
    honest = attack_mod.decode_solution
    wrong = []

    def wrong_for_first_accepted_vector(vector, *rest):
        m, reason = honest(vector, *rest)
        if m is not None and wrong in ([], [vector]):
            wrong[:] = [vector]
            return (m + 1) % p, None
        return m, reason

    monkeypatch.setattr(attack_mod, "decode_solution", wrong_for_first_accepted_vector)

    def run(solver, seed):
        wrong.clear()
        cfg = AttackConfig(
            group=group_p907,
            target=group_p907.scalar_mul(321),
            n_prime=2,
            solver=solver,
            seed=seed,
            max_iterations=1,
            accident_check=False,
        )
        return execute_iteration(cfg, 1)

    record = run("alg2", 19)
    assert wrong
    assert (record.m, record.found_by, record.reject_reasons) == (None, None, ["alg2:unverified"])
    record = run("exhaustive", 19)
    assert (record.m, record.found_by, record.reject_reasons) == (321, "exhaustive", [])
    assert record.solution_vector != wrong[0]
    record = run("exhaustive", 0)
    assert wrong
    assert (record.m, record.solution_vector, record.reject_reasons) == (None, None, ["exhaustive:not-found"])

    wrong.clear()
    trial = next(planted_trials(group_p907, seed=3, n_prime=2, solver="alg2"))
    assert wrong
    assert trial.record.m is None and trial.record.reject_reasons == ["alg2:unverified"]


def test_planted_trials_rejects_identity_target(group_p19):
    for m in (0, 19, -38):
        with pytest.raises(ValueError, match=f"fixed m = {m} "):
            next(planted_trials(group_p19, seed=0, fixed_m=m))


def test_decode_planted_subset(group_p19):
    # 7 + 8 = 15 = 5 * 3 mod 19, so rows {P1, P2, Q1} are a summing subset.
    m = 5
    sample = make_sample(group_p19, m, [7, 8], [3, 10, 11, 12], 1)
    kernel = left_kernel(sample.rows, group_p19.curve.q)
    assert kernel.dim == 3

    def accept(vec):
        return decode_solution(vec, sample.multipliers_p, sample.multipliers_q, 19)[0] is not None

    vec = solve_exhaustive(kernel, 3, accept=accept)
    assert vec is not None
    decoded, reason = decode_solution(vec, sample.multipliers_p, sample.multipliers_q, 19)
    assert reason is None
    assert decoded == m


def test_run_attack_recovers_and_matches_bsgs(group_p19):
    rng = random.Random(9)
    for _ in range(10):
        m = rng.randrange(1, 19)
        cfg = AttackConfig(
            group=group_p19,
            target=group_p19.scalar_mul(m),
            n_prime=1,
            solver="exhaustive",
            seed=rng.randrange(2**32),
        )
        outcome = run_attack(cfg)
        assert outcome.succeeded
        assert outcome.m == m == solve_bsgs(group_p19, cfg.target)
        assert group_p19.scalar_mul(outcome.m) == cfg.target


def test_run_attack_identity_target(group_p19):
    from lvecdlp.curve import Point

    cfg = AttackConfig(group=group_p19, target=Point.identity(), n_prime=1, seed=0)
    outcome = run_attack(cfg)
    assert outcome.m == 0 and outcome.iterations_used == 0


def test_run_attack_budget_exhaustion(group_p19):
    # alg2 alone fails most iterations; with a single iteration and an
    # unlucky seed the run must report exhaustion, never a wrong answer.
    failures = 0
    for seed in range(12):
        cfg = AttackConfig(
            group=group_p19,
            target=group_p19.scalar_mul(7),
            n_prime=1,
            solver="alg2",
            seed=seed,
            max_iterations=1,
            accident_check=False,
        )
        outcome = run_attack(cfg)
        if not outcome.succeeded:
            failures += 1
            assert outcome.failure_reason == "iteration-budget-exhausted"
        else:
            assert outcome.m == 7
    assert failures > 0


def test_run_attack_determinism(group_p907):
    def run():
        cfg = AttackConfig(
            group=group_p907,
            target=group_p907.scalar_mul(400),
            n_prime=2,
            solver="exhaustive",
            seed=31,
            max_iterations=8,
        )
        outcome = run_attack(cfg)
        return outcome.m, outcome.iterations_used, [r.to_dict() for r in outcome.records]

    assert run() == run()


# (n', m, seed) of the pinned runs on the p = 907 fixture, with the default
# solver and accident check.
PINNED_RUNS = [(1, m, seed) for m, seed in zip((17, 101, 250, 333, 478, 602, 777, 905), range(40, 48))]
PINNED_RUNS += [(2, 123, 5), (2, 640, 6), (3, 451, 9)]
PINNED_SHA256 = "349a880b6f9174d11d609067a7beab2f419c200ebe42574f1353d4f98c562a32"


def pinned_digest(group) -> str:
    digest = hashlib.sha256()
    for n_prime, m, seed in PINNED_RUNS:
        cfg = AttackConfig(group=group, target=group.scalar_mul(m), n_prime=n_prime, seed=seed)
        outcome = run_attack(cfg)
        result = [outcome.m, outcome.iterations_used, [r.to_dict() for r in outcome.records]]
        digest.update(json.dumps(result, sort_keys=True).encode())
    return digest.hexdigest()


def test_seeded_records_match_pinned_digest(group_p907):
    """The records of fixed seeded runs hash to a pinned value, so a faster hot path
    that changes any seeded output, not only one that differs between two reruns of
    the same build, fails here.  A change that alters outputs on purpose updates the
    hash and says why."""
    assert pinned_digest(group_p907) == PINNED_SHA256


def test_config_is_frozen_and_its_memo_is_no_field(group_p907):
    """A config's settings are fixed at construction: assigning a field raises,
    and the -target memo that sampling fills is not part of its value."""
    settings = dict(group=group_p907, target=group_p907.scalar_mul(400), n_prime=1, seed=1)
    cfg = AttackConfig(**settings)
    for name, value in (("target", group_p907.scalar_mul(123)), ("n_prime", 2), ("l", 6), ("max_iterations", 16)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, name, value)
    assert (cfg.n_prime, cfg.l, cfg.max_iterations) == (1, 3, 459)
    run_attack(cfg)
    assert cfg._neg_target_memo
    fresh = AttackConfig(**settings)
    assert cfg == fresh and hash(cfg) == hash(fresh)


def test_distinct_multipliers_beyond_the_range_raises():
    """20 distinct multipliers among the 18 of 1..18 raise at once instead of drawing forever."""
    with pytest.raises(ValueError, match="20 distinct multipliers"):
        attack_mod._distinct_multipliers(random.Random(0), 20, 19)


def test_accident_resolves_q_equals_p(group_p19):
    # m = 1 makes cross-block collisions common; with detection on, some run
    # in the first few seeds resolves via an accident and still returns m = 1.
    saw_accident = False
    for seed in range(8):
        cfg = AttackConfig(
            group=group_p19,
            target=group_p19.generator,
            n_prime=1,
            solver="exhaustive",
            seed=seed,
            accident_check=True,
        )
        outcome = run_attack(cfg)
        assert outcome.succeeded and outcome.m == 1
        saw_accident = saw_accident or outcome.accident is not None
    assert saw_accident


def test_subset_sum_oracle_planted(group_p19):
    # Planted witness: rows 0, 1 (P-block) and 2 (first Q row).
    p = 19
    m = 5
    found, witness = subset_sum_oracle((7, 8), (3, 10, 11, 12), m, p)
    assert found and witness == (0, 1, 2)
    with pytest.raises(ValueError):
        subset_sum_oracle((7, 8), (3, 10, 11, 12), 0, p)
    with pytest.raises(BudgetExceededError):
        subset_sum_oracle(tuple(range(1, 12)), tuple(range(12, 25)), 5, 907, budget=10)


def test_oracle_matches_exhaustive_verdict(group_p907):
    """Theorem cross-validation at n' = 2 on collision-free iterations."""
    m_true = 321
    p = group_p907.order
    cfg = AttackConfig(
        group=group_p907,
        target=group_p907.scalar_mul(m_true),
        n_prime=2,
        solver="exhaustive",
        seed=55,
    )
    index = 1
    for _ in range(40):
        sample, index, _ = clean_iteration(cfg, index)
        oracle_found, _ = subset_sum_oracle(sample.multipliers_p, sample.multipliers_q, m_true, p)
        kernel = left_kernel(sample.rows, group_p907.curve.q)

        def accept(vec):
            return decode_solution(vec, sample.multipliers_p, sample.multipliers_q, p)[0] is not None

        vec = solve_exhaustive(kernel, cfg.l, accept=accept)
        assert oracle_found == (vec is not None)
        if vec is not None:
            decoded, _ = decode_solution(vec, sample.multipliers_p, sample.multipliers_q, p)
            assert decoded == m_true


def test_kernel_dimension_exact_on_clean_iterations(group_p907):
    for degree in (1, 2, 3):
        cfg = AttackConfig(
            group=group_p907,
            target=group_p907.scalar_mul(100 + degree),
            n_prime=degree,
            seed=degree,
        )
        index = 1
        for _ in range(15):
            sample, index, _ = clean_iteration(cfg, index)
            assert left_kernel(sample.rows, group_p907.curve.q).dim == 3 * degree


def test_right_kernel_dimension_on_attack_matrices(group_p907):
    """No low-degree curve passes through all sampled points; from degree 3 on,
    the only ones are multiples of the group's cubic, of dimension
    (degree - 2)(degree - 1) / 2."""
    from lvecdlp.linalg import right_kernel_rows

    for degree in (1, 2, 3, 4):
        expected = (degree - 2) * (degree - 1) // 2 if degree >= 3 else 0
        cfg = AttackConfig(
            group=group_p907,
            target=group_p907.scalar_mul(200 + degree),
            n_prime=degree,
            seed=10 + degree,
        )
        index = 1
        for _ in range(10):
            sample, index, _ = clean_iteration(cfg, index)
            ncols = len(sample.rows[0])
            assert len(right_kernel_rows(sample.rows, ncols, group_p907.curve.q)) == expected


def test_exhaustive_matches_span_scan_on_attack_kernels(group_p19):
    """At n' = 1 the exhaustive verdict under the decode filter equals a scan
    of the whole kernel span, collision samples included.

    An accepted vector vanishes exactly on an l-set Z.  The span members that
    vanish on Z are the dependencies among the three rows outside Z, which
    hold at least two distinct points (multipliers are distinct within a
    block), so they form a line and the one vector the solver tries on Z
    stands for all of them.  On collision-free samples every singular set
    has corank 1, and the scan finds every logarithm alg2 finds.
    """
    group_p41 = find_prime_order_curve(PrimeField(37), 38, 50)
    assert (group_p41.curve.a, group_p41.curve.b, group_p41.order) == (1, 16, 41)
    for group, trials in ((group_p19, 200), (group_p41, 100)):
        p = group.order
        collisions = 0
        agreed_found = 0
        alg2_decoded = 0
        for trial in islice(planted_trials(group, seed=5, n_prime=1), trials):
            sample = sample_iteration(trial.cfg, trial.index)
            kernel = left_kernel(sample.rows, group.curve.q)
            l = trial.cfg.l
            assert kernel.dim == l
            collision = detect_accident(sample) is not None
            collisions += collision

            def decode(vec):
                return decode_solution(vec, sample.multipliers_p, sample.multipliers_q, p)[0]

            solution = solve_exhaustive(kernel, l, accept=lambda v: decode(v) is not None)
            scanned = any(decode(v) is not None for v in projective_span(kernel))
            assert (solution is not None) == scanned, f"p={p} trial {trial.index}"
            if solution is not None:
                assert decode(solution) == trial.m
                agreed_found += 1
            if not collision:
                pairs = _singular_zero_sets(kernel.vector_lists(), kernel.ambient, l, kernel.p)
                assert all(line for _, line in pairs)
                vector = solve_alg2(kernel, l)
                if vector is not None and decode(vector) is not None:
                    assert solution is not None and decode(solution) == decode(vector)
                    alg2_decoded += 1
        assert collisions > 0 and 0 < agreed_found < trials and alg2_decoded > 0


def test_fixture_large_is_the_matched_n3_group_and_solves_a_seeded_log():
    """The pinned q = 48,619 group has the prime order it states, by point
    count, with C(18, 9) / order within 1% of 1; one seeded n' = 3 attack
    on it returns a verified m that BSGS confirms."""
    group = fixture_large()
    assert group.curve.group_order() == group.order == LARGE_ORDER
    assert abs(comb(18, 9) / group.order - 1) < 0.01
    m = 12346
    target = group.scalar_mul(m)
    outcome = run_attack(AttackConfig(group=group, target=target, n_prime=3, seed=1))
    assert outcome.succeeded and outcome.m == m == solve_bsgs(group, target)
    assert group.scalar_mul(outcome.m) == target
    assert all(record.kernel_dim == 9 for record in outcome.records)
