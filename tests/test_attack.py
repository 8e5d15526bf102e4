import dataclasses
import hashlib
import json
import random
from collections import Counter
from itertools import combinations, islice
from math import comb, exp

import pytest

import lvecdlp.attack as attack_mod
import lvecdlp.problem_l as problem_l
from lvecdlp.analysis import per_iteration_success
from lvecdlp.attack import (
    AttackConfig,
    IterationSample,
    REJECT_MISSING_BLOCK,
    REJECT_SUPPORT_SIZE,
    REJECT_ZERO_DENOMINATOR,
    accident_logarithm,
    decode_solution,
    default_max_iterations,
    detect_accident,
    execute_iteration,
    planted_trials,
    run_attack,
    sample_iteration,
)
from lvecdlp.curve import GroupSpec, find_prime_order_curve
from lvecdlp.dlp import solve_bsgs
from lvecdlp.errors import BudgetExceededError
from lvecdlp.field import PrimeField
from lvecdlp.linalg import left_kernel
from lvecdlp.problem_l import general_position_test, solve_alg2, solve_exhaustive
from lvecdlp.veronese import basis
from lvecdlp.verification import LARGE_ORDER, clean_iteration, fixture_large
from reference_attack import (
    accident_by_points,
    iteration_stream,
    projective_span,
    randrange_multipliers,
    subset_sum_oracle,
)
from reference_curve import reference_scalar_mul
from reference_veronese import reference_evaluate_rows
from scan_helpers import singular_zero_sets


def make_sample(group, m, multipliers_p, multipliers_q, n_prime):
    """Assemble a sample from chosen multipliers (bypasses the sampler)."""
    curve = group.curve
    target = group.scalar_mul(m)
    neg_target = curve.negate(target)
    points_p = tuple(group.scalar_mul(r) for r in multipliers_p)
    points_q = tuple(reference_scalar_mul(curve, r, neg_target) for r in multipliers_q)
    return IterationSample(0, tuple(multipliers_p), tuple(multipliers_q), points_p + points_q)


def test_sample_shapes_and_determinism(group_p907):
    cfg = AttackConfig(group=group_p907, target=group_p907.scalar_mul(5), n_prime=2, seed=7)
    sample = sample_iteration(cfg, 3)
    assert len(sample.multipliers_p) == 5
    assert len(sample.multipliers_q) == 7
    assert len(sample.points) == 12
    assert all(map(group_p907.curve.contains, sample.points)) and None not in sample.points
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
    assert len(sample.points) == 6
    curve = group_p19.curve
    for i, r in enumerate(sample.multipliers_p):
        assert sample.points[i] == reference_scalar_mul(curve, r, group_p19.generator)
    neg_target = curve.negate(cfg.target)
    for j, r in enumerate(sample.multipliers_q):
        assert sample.points[len(sample.multipliers_p) + j] == reference_scalar_mul(curve, r, neg_target)


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
    """On seeded samples, collision samples included, comparing the sampled
    points finds the same (r, r') as comparing the reference points of the
    two blocks (the name is from when samples kept rows)."""
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


@pytest.mark.parametrize("solver", ["exhaustive", "alg2"])
def test_iteration_goes_once_through_each_traced_boundary(group_p907, monkeypatch, solver):
    """An iteration without an accident calls ``attack.left_kernel`` once and
    its solver's ``attack`` attribute once, except at n' = 1 when no maximal
    minor of the points' matrix is zero: then it calls neither, since no
    l-set is singular.  perfbench's tracer rebinds exactly these names, so a
    path around them reads 0 there; at n' = 1 it sees them on the
    iterations whose points include three on a line (or a collision, with
    the accident check off)."""
    calls = Counter()
    for name in ("left_kernel", "solve_exhaustive", "solve_alg2"):

        def counted(*args, _name=name, _original=getattr(attack_mod, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(attack_mod, name, counted)
    q = group_p907.curve.q
    cfg = AttackConfig(
        group=group_p907, target=group_p907.scalar_mul(321), solver=solver, seed=2, accident_check=False
    )
    certified = Counter()
    for index in range(1, 81):
        calls.clear()
        sample = sample_iteration(cfg, index)
        no_line = general_position_test(6)(sample.points, q)
        certified[no_line] += 1
        assert execute_iteration(cfg, index).kernel_dim == 3
        assert calls == ({} if no_line else {"left_kernel": 1, f"solve_{solver}": 1}), index
    # Index 33 is a collision sample.
    assert certified == {True: 75, False: 5}
    cfg = AttackConfig(group=group_p907, target=group_p907.scalar_mul(321), n_prime=2, solver=solver, seed=2)
    for index in range(1, 21):
        calls.clear()
        assert execute_iteration(cfg, index).accident is None
        assert calls == {"left_kernel": 1, f"solve_{solver}": 1}, index


@pytest.mark.parametrize(
    "group_name, count, kernels",
    [
        ("group_p907", 400, {3: (14, 8), 4: (17, 11), 6: (35, 28)}),
        ("group_p19", 200, {3: (163, 89), 4: (197, 103), 6: (200, 75)}),
    ],
)
def test_n1_records_equal_those_of_the_kernel_path(request, monkeypatch, group_name, count, kernels):
    """At n' = 1 with l = 3, 4 and 6 the records equal, field by field, those
    of the path that takes the kernel and runs the solver on every iteration
    (the collinearity test patched to report a line): both solvers, with the
    accident check off and on, on p = 907 and on order 19, collision samples
    included.  ``kernels[l]`` counts the iterations that still take the
    kernel, check off and on."""
    group = request.getfixturevalue(group_name)
    kernel_calls = Counter()
    original = attack_mod.left_kernel

    def counted(*args):
        kernel_calls["left_kernel"] += 1
        return original(*args)

    def records(l, solver, accident_check):
        cfg = AttackConfig(
            group=group, target=group.scalar_mul(401), l=l, solver=solver, seed=11, accident_check=accident_check
        )
        kernel_calls.clear()
        return [execute_iteration(cfg, index) for index in range(1, count + 1)], kernel_calls["left_kernel"]

    monkeypatch.setattr(attack_mod, "left_kernel", counted)
    for l, expected in kernels.items():
        for solver in ("exhaustive", "alg2"):
            tested = [records(l, solver, accident_check) for accident_check in (False, True)]
            with monkeypatch.context() as patched:
                patched.setattr(attack_mod, "general_position_test", lambda n: lambda points, q: False)
                untested = [records(l, solver, accident_check) for accident_check in (False, True)]
            for (fast, fast_kernels), (slow, slow_kernels) in zip(tested, untested):
                assert fast == slow
                assert slow_kernels == sum(record.accident is None for record in slow)
            assert tuple(fast_kernels for _, fast_kernels in tested) == expected, (l, solver)


def test_n1_at_a_large_l_skips_the_minors_test(group_p907, monkeypatch):
    """At n' = 1 with l = 20 (N = 23 points, C(23, 3) = 1,771 triples) an
    iteration whose points hold no three on a line skips the kernel and the
    scan's minors test; the rest take the kernel.  The records of alg2 over
    40 iterations with the accident check off and on, and of the exhaustive
    solver on iterations 4 and 5 with the check off, hash to what the kernel
    path on every iteration gave."""
    kernel_calls = Counter()
    original = attack_mod.left_kernel

    def counted(*args):
        kernel_calls["left_kernel"] += 1
        return original(*args)

    def records(solver, accident_check, indices):
        cfg = AttackConfig(
            group=group_p907,
            target=group_p907.scalar_mul(401),
            solver=solver,
            seed=11,
            l=20,
            accident_check=accident_check,
        )
        return [execute_iteration(cfg, index).to_dict() for index in indices]

    monkeypatch.setattr(attack_mod, "left_kernel", counted)
    runs = [("alg2", False, range(1, 41)), ("alg2", True, range(1, 41)), ("exhaustive", False, (4, 5))]
    text = json.dumps([records(*run) for run in runs], sort_keys=True)
    assert kernel_calls["left_kernel"] == 69
    assert hashlib.sha256(text.encode()).hexdigest() == "9b8bebc81d36c1509431f4aebeef13ae3b0e6e05d7ff112fd8759db9fd9f77ed"


@pytest.mark.parametrize("accident_check", [False, True])
def test_general_position_rules_out_accidents_at_n1(group_p19, group_p907, accident_check):
    """At n' = 1 ``execute_iteration`` tests the points for collinearity before
    it looks for an accident.  Two equal points are on a line with any third,
    so a sample in general position holds no accident and the order cannot
    change a record: on p = 907 and on the order-19 group, where a
    generator multiple often equals a target multiple, every sample in
    general position has none, and every record is the one the accident
    check, run first, would give."""
    seen = Counter()
    for group, ms in ((group_p19, range(1, 19)), (group_p907, (5, 321, 906))):
        q = group.curve.q
        for m in ms:
            cfg = AttackConfig(group=group, target=group.scalar_mul(m), seed=m, accident_check=accident_check)
            for index in range(1, 41):
                sample = sample_iteration(cfg, index)
                general = general_position_test(6)(sample.points, q)
                accident = detect_accident(sample)
                if general:
                    assert accident is None, (group.order, m, index)
                record = execute_iteration(cfg, index)
                if accident_check and accident is not None:
                    assert (record.accident, record.found_by, record.m) == (accident, "accident", m)
                elif general:
                    assert (record.kernel_dim, record.reject_reasons) == (3, [f"{cfg.solver}:not-found"])
                    assert record.accident is None and record.m is None
                else:
                    assert record.kernel_dim is not None and record.accident is None
                seen[group.order, general, accident is not None] += 1
    for order in (19, 907):
        assert seen[order, True, False] > 0 and seen[order, False, False] > 0
    assert seen[19, False, True] > 0 and seen[19, True, True] == seen[907, True, True] == 0


def test_n1_budget_below_the_sets_takes_the_kernel_path(group_p907, monkeypatch):
    """With an enumeration budget below C(6, 3) = 20 an n' = 1 iteration skips
    the collinearity test: the exhaustive solver raises on an iteration the test
    would have settled, and an alg2 run takes the kernel on every iteration,
    its records hashing to what the kernel-and-solver path gave before the
    test existed."""
    settings = dict(group=group_p907, target=group_p907.scalar_mul(321), seed=2, enumeration_budget=19)
    with pytest.raises(BudgetExceededError, match="C\\(6, 3\\) exceeds the enumeration budget 19"):
        execute_iteration(AttackConfig(**settings), 1)
    monkeypatch.setattr(attack_mod, "general_position_test", None)
    outcome = run_attack(AttackConfig(solver="alg2", max_iterations=60, **settings))
    assert (outcome.m, outcome.iterations_used) == (321, 31)
    records = json.dumps([record.to_dict() for record in outcome.records], sort_keys=True)
    assert hashlib.sha256(records.encode()).hexdigest() == "b19b215bec767e148c5d7c7c5e8e82cfa6343711b380ee4833bdd42bc5e57592"


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
    kernel = left_kernel(basis(1), sample.points, group_p19.curve.q)
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
    cfg = AttackConfig(group=group_p19, target=None, n_prime=1, seed=0)
    outcome = run_attack(cfg)
    assert outcome.m == 0 and outcome.iterations_used == 0


def test_unreduced_coordinates_are_rejected(group_p907):
    """A point is a pair of residues in [0, q): a target, a generator or a BSGS
    target with a coordinate off by a multiple of q is not on the curve and
    raises ValueError at construction, before any attack runs.  ``Curve.point``
    still reduces its input."""
    curve, q = group_p907.curve, group_p907.curve.q
    x, y = group_p907.scalar_mul(123)
    for bad in ((x + q, y), (x, y - q), (x - q, y + 2 * q)):
        assert not curve.contains(bad)
        with pytest.raises(ValueError, match="not on the curve"):
            AttackConfig(group=group_p907, target=bad)
        with pytest.raises(ValueError, match="not on the curve"):
            solve_bsgs(group_p907, bad)
    gx, gy = group_p907.generator
    for bad in ((gx + q, gy), (gx, gy - q)):
        with pytest.raises(ValueError, match="not on the curve"):
            GroupSpec(curve, bad, group_p907.order)
    assert curve.point(x + q, y - 2 * q) == (x, y)


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


@pytest.mark.parametrize("n_prime, l", [(1, 3), (2, 6), (3, 9), (1, 10)])
def test_budget_counts_the_zero_sets_that_can_decode(n_prime, l):
    """A zero set can decode only if a point outside it lies in the generator
    block (the first 3n' - 1 of the 3n' + l points): by enumeration those
    sets number C(3n' + l, l) - C(l + 1, 3n'), and on every fixture order
    the default budget misses all of them with probability at most e^-10,
    at their rate and at alg2's l^2/C of it."""
    generator_block = set(range(3 * n_prime - 1))
    width = 3 * n_prime + l
    decodable = sum(1 for zeros in combinations(range(width), l) if generator_block - set(zeros))
    assert decodable == comb(width, l) - comb(l + 1, 3 * n_prime)
    for p in (19, 907, LARGE_ORDER):
        for solver, scale in (("exhaustive", 1), ("alg2", l * l / comb(width, l))):
            rate = per_iteration_success(p, decodable) * scale
            assert (1 - rate) ** default_max_iterations(p, n_prime, l, solver) <= exp(-10), (p, solver)


@pytest.mark.parametrize(
    "m, seed, iterations",
    [(119, 219722602, 462), (589, 1078912052, 477)],
    ids=["solve-p907-n1-seed1922-op8777", "solve-p907-n1-seed2102-op8056"],
)
def test_budget_covers_logs_that_exhausted_the_full_set_count(group_p907, m, seed, iterations):
    """Two benchmark logs at n'=1 that ran out of the 459 iterations sized
    from all C(6, 3) zero sets: with the budget sized from the 16 that can
    decode (572), each returns its verified m."""
    cfg = AttackConfig(group=group_p907, target=group_p907.scalar_mul(m), n_prime=1, seed=seed)
    assert cfg.max_iterations == 572
    outcome = run_attack(cfg)
    assert (outcome.m, outcome.iterations_used, outcome.failure_reason) == (m, iterations, None)


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
    and the table of -target that sampling fills is not part of its value."""
    settings = dict(group=group_p907, target=group_p907.scalar_mul(400), n_prime=1, seed=1)
    cfg = AttackConfig(**settings)
    for name, value in (("target", group_p907.scalar_mul(123)), ("n_prime", 2), ("l", 6), ("max_iterations", 16)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, name, value)
    assert (cfg.n_prime, cfg.l, cfg.max_iterations) == (1, 3, 572)
    run_attack(cfg)
    assert len(cfg._neg_target_table._lo) > 2 and len(cfg._neg_target_table._hi) > 1
    assert "_neg_target_table" not in [f.name for f in dataclasses.fields(AttackConfig)]
    fresh = AttackConfig(**settings)
    assert cfg == fresh and hash(cfg) == hash(fresh) and repr(cfg) == repr(fresh)


def test_distinct_multipliers_beyond_the_range_raises():
    """20 distinct multipliers among the 18 of 1..18 raise at once instead of drawing forever."""
    with pytest.raises(ValueError, match="20 distinct multipliers"):
        attack_mod._distinct_multipliers(random.Random(0), 19)(20)


@pytest.mark.parametrize("p", [2, 3, 19, 907, 48_731, 2**31 - 1])
def test_distinct_multipliers_match_randrange_draws(p):
    """The getrandbits draws give the multipliers, and leave the generator in
    the state, that one randrange(1, p) per draw does: for seeds 0-99 and
    every count up to min(p - 1, 12), and count p - 1 when p <= 19."""
    counts = set(range(1, min(p - 1, 12) + 1))
    if p <= 19:
        counts.add(p - 1)
    for seed in range(100):
        for count in counts:
            ours, reference = random.Random(seed), random.Random(seed)
            assert attack_mod._distinct_multipliers(ours, p)(count) == randrange_multipliers(reference, count, p)
            assert ours.getstate() == reference.getstate()


def test_run_attack_records_match_standalone_iterations(group_p19, group_p907):
    """Each record of run_attack equals the record execute_iteration gives for
    that index on its own, so no state of an earlier iteration's draws reaches
    a later one, and every branch of the run's loop gives what the
    one-iteration entry gives: an n' = 1 run of 30 or more iterations, n' = 2
    and 3, both solvers, the order-19 group with the accident check on (where
    equal points make the n' = 1 test answer False and the accident settles
    the iteration), and n' = 1 at l = 10, whose 14 points take
    ``_general_position_loop`` rather than a generated kernel."""
    runs = [(group_p907, 333, dict(seed=43))]
    runs += [(group_p907, 100 + seed, dict(solver="alg2", seed=seed)) for seed in range(6)]
    runs += [(group_p907, 200 + seed, dict(n_prime=2, solver=solver, seed=seed)) for seed in range(4)
             for solver in ("exhaustive", "alg2")]
    runs += [(group_p907, 300 + seed, dict(n_prime=3, seed=seed)) for seed in range(2)]
    runs += [(group_p19, m, dict(seed=m, accident_check=True)) for m in range(1, 19)]
    runs += [(group_p907, 400 + seed, dict(l=10, seed=seed)) for seed in range(3)]
    seen = Counter()
    for group, m, settings in runs:
        cfg = AttackConfig(group=group, target=group.scalar_mul(m), **settings)
        outcome = run_attack(cfg)
        assert outcome.m == m
        for i, record in enumerate(outcome.records):
            assert record == execute_iteration(cfg, i + 1)
            seen[group.order, cfg.n_prime, cfg.l, record.found_by] += 1
    assert len(runs[0][2]) == 1 and seen[907, 1, 3, None] >= 30
    assert seen[907, 1, 3, "alg2"] and seen[907, 1, 3, "accident"]
    assert seen[907, 2, 6, None] and seen[907, 2, 6, "exhaustive"] and seen[907, 2, 6, "alg2"]
    assert seen[907, 3, 9, "exhaustive"] == 2
    assert seen[19, 1, 3, "accident"] and seen[19, 1, 3, "exhaustive"] and seen[19, 1, 3, None]
    assert seen[907, 1, 10, None] and seen[907, 1, 10, "exhaustive"]
    l10 = AttackConfig(group=group_p907, target=group_p907.scalar_mul(400), l=10)
    assert attack_mod._Run(l10).general_position is problem_l._general_position_loop


@pytest.mark.parametrize("group_name", ["group_p19", "group_p907"])
def test_run_generator_reseeded_per_index_is_the_index_substream(request, group_name):
    """One run's generator, reseeded for index i, draws the multipliers
    ``sample_iteration(cfg, i)`` gives, and after the draws holds the state
    that ``iteration_stream(seed, i)`` followed by the two blocks' draws holds:
    seeds 0, -5 and 2^40, indices 1-50 in order and then in reverse, at
    n' = 1 and 2.  The draws also equal one ``randrange(1, p)`` per value
    from a generator seeded afresh."""
    group = request.getfixturevalue(group_name)
    p = group.order
    for seed in (0, -5, 2**40):
        for n_prime in (1, 2):
            cfg = AttackConfig(group=group, target=group.scalar_mul(5), n_prime=n_prime, seed=seed)
            run = attack_mod._Run(cfg)
            counts = (3 * n_prime - 1, cfg.l + 1)
            for index in [*range(1, 51), *range(50, 0, -1)]:
                mult_p, mult_q, points = run.sample(index)
                sample = sample_iteration(cfg, index)
                assert (mult_p, mult_q, points) == (sample.multipliers_p, sample.multipliers_q, sample.points)
                reference = iteration_stream(seed, index)
                draw = attack_mod._distinct_multipliers(reference, p)
                assert [draw(count) for count in counts] == [list(mult_p), list(mult_q)]
                assert run.rng.getstate() == reference.getstate()
                fresh = iteration_stream(seed, index)
                assert [randrange_multipliers(fresh, count, p) for count in counts] == [list(mult_p), list(mult_q)]


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
        kernel = left_kernel(cfg.monomials, sample.points, group_p907.curve.q)

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
            assert left_kernel(cfg.monomials, sample.points, group_p907.curve.q).dim == 3 * degree


def test_right_kernel_dimension_on_attack_matrices(group_p907):
    """No low-degree curve passes through all sampled points; from degree 3 on,
    the only ones are multiples of the group's cubic, of dimension
    (degree - 2)(degree - 1) / 2.  The attack's columns, which leave out the
    monomials of x-degree 3 or more, hold none of them."""
    from lvecdlp.linalg import right_kernel_rows

    for degree in (1, 2, 3, 4):
        expected = (degree - 2) * (degree - 1) // 2 if degree >= 3 else 0
        cfg = AttackConfig(
            group=group_p907,
            target=group_p907.scalar_mul(200 + degree),
            n_prime=degree,
            seed=10 + degree,
        )
        assert basis(degree).size - cfg.monomials.size == expected
        index = 1
        for _ in range(10):
            sample, index, _ = clean_iteration(cfg, index)
            for mb, dim in ((basis(degree), expected), (cfg.monomials, 0)):
                rows = reference_evaluate_rows(mb, sample.points, group_p907.curve.q)
                assert len(right_kernel_rows(rows, mb.size, group_p907.curve.q)) == dim


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
            kernel = left_kernel(trial.cfg.monomials, sample.points, group.curve.q)
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
                pairs = singular_zero_sets(kernel.vectors, kernel.ambient, l, kernel.p)
                assert all(len(combos) == 1 for _, combos in pairs)
                vector = solve_alg2(kernel.vectors, l, kernel.p)
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
