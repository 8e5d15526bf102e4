import dataclasses
import math
import random

import pytest

from lvecdlp.attack import AttackConfig, sample_iteration
import lvecdlp.curve as curve_module
from lvecdlp.curve import (
    KEPT_MULTIPLES,
    Curve,
    FixedBaseTable,
    GroupSpec,
    curve_to_text,
    find_prime_order_curve,
    point_to_text,
)
from lvecdlp.errors import BudgetExceededError
from lvecdlp.field import PrimeField, is_prime
from lvecdlp.veronese import basis
from lvecdlp.verification import fixture_large, fixture_medium
from reference_attack import fraction_free_rank
from reference_curve import reference_add, reference_scalar_mul
from reference_veronese import reference_evaluate_rows


def chord_oracle(curve, a, b):
    """Third collinear point, by scanning the whole curve instead of slopes.

    Only valid for distinct affine points with different x.  Returns None in
    the tangent case where the line meets the curve again at a or b itself.
    """
    assert a is not None and b is not None and a[0] != b[0]
    mb = basis(1)
    q = curve.q
    for candidate in curve.points():
        if candidate in (a, b):
            continue
        if fraction_free_rank(reference_evaluate_rows(mb, (a, b, candidate), q), q) < 3:
            return curve.negate(candidate)
    return None


def double_oracle(curve, pt):
    """Doubling as (A + X) + (A - X) via chords, independent of the tangent formula."""
    for helper in curve.points():
        if helper is None or helper in (pt, curve.negate(pt)) or pt[0] == helper[0]:
            continue
        s1 = chord_oracle(curve, pt, helper)
        s2 = chord_oracle(curve, pt, curve.negate(helper))
        # None is the tangent case here: a chord of two affine points with
        # different x never meets the identity.
        if s1 is None or s2 is None:
            continue
        if s1 == s2 or s1[0] == s2[0]:
            continue
        result = chord_oracle(curve, s1, s2)
        if result is not None:
            return result
    raise AssertionError("no usable helper point")


@pytest.fixture(scope="module")
def curve17():
    return Curve(PrimeField(17), 2, 2)


def test_singular_curve_rejected():
    with pytest.raises(ValueError):
        Curve(PrimeField(17), 0, 0)
    with pytest.raises(ValueError):
        Curve(PrimeField(5), 0, 0)


def test_small_characteristic_rejected():
    with pytest.raises(ValueError):
        Curve(PrimeField(2), 1, 1)
    with pytest.raises(ValueError):
        Curve(PrimeField(3), 1, 1)


def test_point_validation(curve17):
    assert curve17.point(5, 1) == (5, 1)
    with pytest.raises(ValueError):
        curve17.point(5, 2)


def test_doubling_example(curve17):
    doubled = curve17.add(curve17.point(5, 1), curve17.point(5, 1))
    assert doubled == (6, 3)
    assert double_oracle(curve17, curve17.point(5, 1)) == doubled


def test_add_identity_and_inverse(curve17):
    pt = curve17.point(5, 1)
    assert curve17.add(pt, None) == pt
    assert curve17.add(None, pt) == pt
    assert curve17.add(pt, curve17.negate(pt)) is None


def test_chord_addition_against_enumeration_oracle(curve17):
    points = [pt for pt in curve17.points() if pt is not None]
    rng = random.Random(7)
    for _ in range(50):
        a, b = rng.sample(points, 2)
        if a[0] == b[0]:
            continue
        expected = chord_oracle(curve17, a, b)
        if expected is not None:
            assert curve17.add(a, b) == expected


def test_group_order_examples(curve17):
    assert curve17.group_order() == 19
    assert Curve(PrimeField(5), 1, 0).group_order() == 4
    assert len(curve17.points()) == 19


def test_group_order_matches_point_enumeration():
    """On every nonsingular curve mod 5 to 23, ``group_order`` and the number
    of ``points`` equal one plus the number of pairs (x, y) in [0, q)^2 with
    y^2 = x^3 + ax + b, counted without the sweep's square-root table."""
    for q in (5, 7, 11, 13, 17, 19, 23):
        field = PrimeField(q)
        for a in range(q):
            for b in range(q):
                if (4 * a**3 + 27 * b**2) % q == 0:
                    continue
                curve = Curve(field, a, b)
                count = 1 + sum((y * y - x**3 - a * x - b) % q == 0 for x in range(q) for y in range(q))
                assert curve.group_order() == len(curve.points()) == count, curve


def test_hasse_bound_sweep():
    for q in (5, 7, 11, 13, 17):
        field = PrimeField(q)
        for a in range(q):
            for b in range(q):
                if (4 * a**3 + 27 * b**2) % q == 0:
                    continue
                n = Curve(field, a, b).group_order()
                assert abs(n - (q + 1)) <= math.isqrt(4 * q)


def test_group_order_budget_guard():
    curve = Curve(PrimeField(2**21 + 17), 1, 1)
    with pytest.raises(BudgetExceededError, match="q <= 1048576"):
        curve.group_order()
    with pytest.raises(BudgetExceededError, match="q <= 1048576"):
        curve.points()


def test_group_axioms_randomized(group_p19):
    curve = group_p19.curve
    p = group_p19.order
    rng = random.Random(11)
    for _ in range(1000):
        a, b, c = (group_p19.scalar_mul(rng.randrange(p)) for _ in range(3))
        assert curve.add(curve.add(a, b), c) == curve.add(a, curve.add(b, c))
        assert curve.add(a, b) == curve.add(b, a)
        assert curve.add(a, curve.negate(a)) is None
        assert curve.contains(curve.add(a, b))


def test_scalar_mul_homomorphism(group_p907):
    p = group_p907.order
    curve = group_p907.curve
    rng = random.Random(13)
    for _ in range(50):
        r1, r2 = rng.randrange(p), rng.randrange(p)
        lhs = curve.add(group_p907.scalar_mul(r1), group_p907.scalar_mul(r2))
        assert lhs == group_p907.scalar_mul((r1 + r2) % p)


def test_scalar_mul_edges(group_p19):
    assert group_p19.scalar_mul(0) is None
    assert group_p19.scalar_mul(1) == group_p19.generator
    assert group_p19.scalar_mul(group_p19.order) is None


def test_chord_law_collinearity(group_p19):
    """Three summing points are collinear; distinct non-summing triples are not."""
    p = group_p19.order
    q = group_p19.curve.q
    mb = basis(1)
    rng = random.Random(17)
    for _ in range(200):
        a = rng.randrange(1, p)
        b = rng.randrange(1, p)
        if a == b or (a + b) % p == 0:
            continue
        triple = [a, b, (-a - b) % p]
        rows = reference_evaluate_rows(mb, map(group_p19.scalar_mul, triple), q)
        assert fraction_free_rank(rows, q) < 3
        scalars = [rng.randrange(1, p) for _ in range(3)]
        if len(set(scalars)) == 3 and sum(scalars) % p != 0:
            rows = reference_evaluate_rows(mb, map(group_p19.scalar_mul, scalars), q)
            assert fraction_free_rank(rows, q) == 3


def test_group_spec_validation(curve17):
    with pytest.raises(ValueError):
        GroupSpec(curve17, None, 19)
    with pytest.raises(ValueError):
        GroupSpec(curve17, curve17.point(5, 1), 18)
    with pytest.raises(ValueError):
        GroupSpec(curve17, curve17.point(5, 1), 23)


def test_find_prime_order_curve():
    group = find_prime_order_curve(PrimeField(17), 19, 19)
    assert group.order == 19
    assert group.curve.group_order() == 19
    with pytest.raises(BudgetExceededError):
        find_prime_order_curve(PrimeField(17), 20, 22)
    with pytest.raises(BudgetExceededError):  # the Hasse bound 10 is in range: scanned, not refused
        find_prime_order_curve(PrimeField(17), 0, 10)


@pytest.mark.parametrize(
    "q, order_min, order_max",
    [(17, 4, 4), (17, 27, 40), (853, 2000, 3000), (853, 910, 900), (853, 0, 795), (48619, 10, 20)],
)
def test_find_prime_order_curve_rejects_range_outside_hasse(q, order_min, order_max):
    """Every curve over F_q has q + 1 +- isqrt(4q) points; a range that misses
    that interval, or is empty, is refused before the scan counts any curve."""
    with pytest.raises(ValueError, match="Hasse interval"):
        find_prime_order_curve(PrimeField(q), order_min, order_max, max_candidates=0)


def test_text_round_trip(curve17):
    assert curve_to_text(curve17) == "17 2 2"
    assert point_to_text(curve17.point(5, 1)) == "5 1"
    assert point_to_text(None) == "O"


def test_add_matches_reference_on_every_pair(curve17):
    """Every ordered pair of the order-19 group, identity, P + (-P) and P + P included."""
    points = curve17.points()
    assert len(points) == 19
    for lhs in points:
        for rhs in points:
            assert curve17.add(lhs, rhs) == reference_add(curve17, lhs, rhs), (lhs, rhs)


def test_arithmetic_matches_reference_with_two_torsion():
    """Small curves, some with points y = 0 whose doubling is the identity."""
    doubled_two_torsion = 0
    for q in (5, 7, 11):
        field = PrimeField(q)
        for a in range(q):
            for b in range(q):
                if (4 * a**3 + 27 * b**2) % q == 0:
                    continue
                curve = Curve(field, a, b)
                points = curve.points()
                for lhs in points:
                    for rhs in points:
                        assert curve.add(lhs, rhs) == reference_add(curve, lhs, rhs), (curve, lhs, rhs)
                    for k in range(len(points) + 2):
                        expected = reference_scalar_mul(curve, k, lhs)
                        assert FixedBaseTable(curve, lhs, k).multiple(k) == expected, (curve, k, lhs)
                    if lhs is not None and lhs[1] == 0:
                        assert curve.add(lhs, lhs) is None
                        doubled_two_torsion += 1
    assert doubled_two_torsion > 0
    seven = Curve(PrimeField(7), 0, 1)
    two_torsion = [pt for pt in seven.points() if pt is not None and pt[1] == 0]
    assert len(two_torsion) == 3
    for pt in two_torsion:
        assert FixedBaseTable(seven, pt, 2).multiple(2) is None
        assert FixedBaseTable(seven, pt, 3).multiple(3) == pt


def test_scalar_mul_matches_reference_p907(group_p907):
    curve, gen, p = group_p907.curve, group_p907.generator, group_p907.order
    rng = random.Random(907)
    scalars = [0, 1, p - 1, p] + [rng.randrange(4 * p) for _ in range(2000)]
    for k in scalars:
        assert FixedBaseTable(curve, gen, k).multiple(k) == reference_scalar_mul(curve, k, gen), k
    with pytest.raises(ValueError):
        FixedBaseTable(curve, gen, -1).multiple(-1)


def test_chord_law_on_integer_results(group_p907):
    """Degree-1 interpolation law on points produced by the integer arithmetic."""
    curve, p, q = group_p907.curve, group_p907.order, group_p907.curve.q
    mb = basis(1)
    rng = random.Random(23)
    for _ in range(300):
        a, b = rng.randrange(1, p), rng.randrange(1, p)
        if a == b or (a + b) % p == 0:
            continue
        pa, pb = group_p907.scalar_mul(a), group_p907.scalar_mul(b)
        pc = group_p907.scalar_mul((-a - b) % p)
        assert curve.add(pa, pb) == curve.negate(pc)
        assert curve.add(curve.add(pa, pb), pc) is None
        rows = reference_evaluate_rows(mb, (pa, pb, pc), q)
        assert fraction_free_rank(rows, q) < 3


def test_points_enumeration_order():
    """Identity first, then x ascending and, for each x, y ascending."""
    rng = random.Random(5)
    for _ in range(10):
        q = rng.choice([5, 7, 11, 13, 17, 19, 23])
        a, b = rng.randrange(q), rng.randrange(q)
        if (4 * a**3 + 27 * b**2) % q == 0:
            continue
        curve = Curve(PrimeField(q), a, b)
        expected = [None] + [(x, y) for x in range(q) for y in range(q) if (y * y - x**3 - a * x - b) % q == 0]
        assert curve.points() == expected


def test_find_prime_order_curve_reproduces_medium_fixture():
    group = find_prime_order_curve(PrimeField(853), 907, 907)
    assert group == fixture_medium()
    assert (group.curve.a, group.curve.b) == (1, 348)
    assert group.generator == (1, 297)


def test_find_prime_order_curve_builds_one_square_root_table():
    """The square-root table depends only on q, so the search over F_853
    builds it once for its 348 reads, the point count of every candidate and
    the generator's sweep; a count over another field replaces it."""
    curve_module._square_roots.cache_clear()
    find_prime_order_curve(PrimeField(853), 907, 907)
    info = curve_module._square_roots.cache_info()
    assert (info.misses, info.hits) == (1, 347)
    Curve(PrimeField(17), 2, 3).group_order()
    Curve(PrimeField(853), 1, 348).group_order()
    assert curve_module._square_roots.cache_info().misses == 3


def test_find_prime_order_curve_skips_j0_and_j1728_rows():
    """At q = 48,619 (1 mod 3) every a = 0 curve has one of a few orders, none
    prime in range, and the scan would spend q point counts in that row;
    skipped, the a = 1 row hits at b = 55 within 60 candidates."""
    group = find_prime_order_curve(PrimeField(48619), 48400, 48840, max_candidates=60)
    assert (group.curve.a, group.curve.b, group.order) == (1, 55, 48731)
    assert group.generator == (0, 4724)
    assert group == fixture_large()


def table_keys(k):
    """The indices filling entry k of a lo or hi table leaves in it: the
    doubling chain up to k's top bit and the partial sums of k's bits taken
    from the lowest up; none for k = 0."""
    keys = {1 << j for j in range(k.bit_length())}
    done = 0
    while k:
        bit = k & -k
        k ^= bit
        done |= bit
        keys.add(done)
    return keys


def digit_keys(r, w):
    """The (lo, hi) indices a multiple of r leaves in a table of width w: r's
    two digits, and lo's chain up to 2^(w - 1) when the high digit, which
    starts from hi[1] = 2 * lo[2^(w - 1)], is nonzero."""
    d, e = r & (1 << w) - 1, r >> w
    return table_keys(d) | (table_keys(1 << w - 1) if e else set()), table_keys(e)


def table_state(table):
    return dict(table._lo), dict(table._hi)


def assert_fills_exactly(table, r, expected):
    """table.multiple(r) == expected, adding exactly digit_keys(r) to the
    tables and changing no entry; asked again, it leaves them as they are."""
    lo, hi = table_state(table)
    assert table.multiple(r) == expected, r
    lo_keys, hi_keys = digit_keys(r, table._w)
    assert set(table._lo) == set(lo) | lo_keys and set(table._hi) == set(hi) | hi_keys, r
    assert all(table._lo[d] == lo[d] for d in lo) and all(table._hi[e] == hi[e] for e in hi), r
    after = table_state(table)
    assert table.multiple(r) == expected, r
    assert table_state(table) == after, r


def test_chain_matches_reference_for_every_scalar_p19(group_p19):
    """Every r in [0, order], from the generator's table and -target's, once
    with r decreasing and once increasing from fresh tables, so that entries
    are met both cold and warm: each r equals the reference multiple, its
    first call adds exactly the entries of its two digits and their chains,
    and its second leaves the tables as they are."""
    curve, gen, p = group_p19.curve, group_p19.generator, group_p19.order
    w = 3
    for scalars in (range(p, -1, -1), range(p + 1)):
        cfg = AttackConfig(group=group_p19, target=group_p19.scalar_mul(5))
        neg_target = curve.negate(cfg.target)
        table = FixedBaseTable(curve, gen, p)
        assert table._w == cfg._neg_target_table._w == w
        for r in scalars:
            assert_fills_exactly(table, r, reference_scalar_mul(curve, r, gen))
            assert_fills_exactly(cfg._neg_target_table, r, reference_scalar_mul(curve, r, neg_target))
            assert cfg.neg_target_mul(r) == reference_scalar_mul(curve, r, neg_target), r
            for k in (r, r + p, r + 2 * p):
                assert group_p19.scalar_mul(k) == reference_scalar_mul(curve, r, gen), k
        # Every digit of [0, 19]: lo[0..7] and hi[0..2], nothing else.
        for base, t in ((gen, table), (neg_target, cfg._neg_target_table)):
            assert sorted(t._lo) == list(range(8)) and sorted(t._hi) == [0, 1, 2]
            assert all(t._lo[d] == reference_scalar_mul(curve, d, base) for d in t._lo)
            assert all(t._hi[e] == reference_scalar_mul(curve, e << w, base) for e in t._hi)
    # The generator's whole multiples: every r mod p asked for, each the reference multiple.
    assert sorted(group_p19._multiples) == list(range(p))
    assert all(pt == reference_scalar_mul(curve, r, gen) for r, pt in group_p19._multiples.items())


def count_group_operations(monkeypatch, curve):
    """A copy of curve whose group operations are counted, and the list that
    grows by one per operation of it.  Each chord or tangent step with no
    identity operand and no P + (-P) reads exactly one slope inverse from the
    curve's ``_inverses`` table, in ``Curve.add`` and in a table's inlined
    addition alike, so the copy's table counts its reads."""
    calls = []
    inverses = curve._inv

    class CountedReads:
        def __getitem__(self, x):
            calls.append(x)
            return inverses[x]

    monkeypatch.setattr(curve_module, "_inverses", lambda q: CountedReads())
    counted = dataclasses.replace(curve)
    assert isinstance(counted._inv, CountedReads) and counted == curve
    return counted, calls


def test_window_memo_addition_counts(group_p907, monkeypatch):
    """Group operations on the p = 907 generator, counted: a one-shot table
    bounded by k makes exactly those of double-and-add,
    (bits - 1) doublings and (popcount - 1) additions, and so does a first
    multiple on an empty table; on a table in use, a multiple makes one per
    entry it fills plus one when both digits are nonzero, so warm it makes
    at most one.  A group makes none for a whole multiple it has kept."""
    gen, p = group_p907.generator, group_p907.order
    curve, calls = count_group_operations(monkeypatch, group_p907.curve)
    group = GroupSpec(curve, gen, p)
    shared = FixedBaseTable(curve, gen, p)
    w = shared._w
    assert w == 5
    for k in random.Random(5).sample(range(1, p), 200):
        expected = reference_scalar_mul(curve, k, gen)
        double_and_add = k.bit_length() - 1 + k.bit_count() - 1
        both_digits = int(k & 31 != 0 and k >> 5 != 0)
        calls.clear()
        assert FixedBaseTable(curve, gen, k).multiple(k) == expected, k
        assert len(calls) == double_and_add, k
        fresh = FixedBaseTable(curve, gen, p)
        calls.clear()
        assert fresh.multiple(k) == expected, k
        assert len(calls) == double_and_add == len(fresh._lo) + len(fresh._hi) - 3 + both_digits, k
        before = len(shared._lo) + len(shared._hi)
        calls.clear()
        assert shared.multiple(k) == expected, k
        assert len(calls) == len(shared._lo) + len(shared._hi) - before + both_digits, k
        for table in (fresh, shared):
            calls.clear()
            assert table.multiple(k) == expected, k
            assert len(calls) == both_digits, k
        before = len(group._table._lo) + len(group._table._hi)
        calls.clear()
        assert group.scalar_mul(k) == expected and group._multiples[k] == expected, k
        assert len(calls) == len(group._table._lo) + len(group._table._hi) - before + both_digits, k
        calls.clear()
        assert group.scalar_mul(k) == expected and group.scalar_mul(k + p) == expected, k
        assert calls == [], k
    # 200 multipliers meet every low digit and every high one: the table is whole.
    assert sorted(shared._lo) == list(range(32)) and sorted(shared._hi) == list(range((p >> 5) + 1))


def test_chain_matches_reference_with_two_torsion():
    """Every base on every curve mod 5, 7 and 11, the identity included, with
    a table bounded by the curve's order N, filled once with r decreasing
    and once increasing: every r in [0, N] equals the reference multiple and
    adds exactly its digits' entries, and every entry is the reference
    multiple of its index.  The bases have every order from 2 to 8; the
    chain of a base of order 2, 4 or 8 reaches the identity and stays there,
    entries of other orders sum to it, and the inlined addition meets both
    its doubling (two equal entries) and its P + (-P) case."""
    orders = set()
    identity_chain_bits = set()
    identity_sums = doublings = inverses = 0
    for q in (5, 7, 11):
        field = PrimeField(q)
        for a in range(q):
            for b in range(q):
                if (4 * a**3 + 27 * b**2) % q == 0:
                    continue
                curve = Curve(field, a, b)
                points = curve.points()
                n = len(points)
                for pt in points:
                    expected = [reference_scalar_mul(curve, r, pt) for r in range(n + 1)]
                    assert expected[n] is None
                    orders.add(next(r for r in range(1, n + 1) if expected[r] is None))
                    for scalars in (range(n, -1, -1), range(n + 1)):
                        table = FixedBaseTable(curve, pt, n)
                        w = table._w
                        for r in scalars:
                            assert_fills_exactly(table, r, expected[r])
                            lhs, rhs = table._lo[r & (1 << w) - 1], table._hi[r >> w]
                            if lhs is not None and rhs is not None:
                                doublings += lhs == rhs
                                inverses += lhs == curve.negate(rhs)
                        assert all(entry == expected[d] for d, entry in table._lo.items()), (curve, pt)
                        assert all(entry == reference_scalar_mul(curve, e << w, pt) for e, entry in table._hi.items())
                        # The chain 2^j * pt, from lo's powers of two and then hi's.
                        chain = {d.bit_length() - 1: pt for d, pt in table._lo.items() if d and d & d - 1 == 0}
                        chain |= {w + e.bit_length() - 1: pt for e, pt in table._hi.items() if e and e & e - 1 == 0}
                        stops = [j for j in chain if chain[j] is None]
                        if stops:
                            identity_chain_bits.add(min(stops))
                            assert all(chain[j] is None for j in chain if j >= min(stops)), (curve, pt)
                        identity_sums += sum(1 for d in table._lo if d & d - 1 and table._lo[d] is None)
    assert set(range(1, 9)) <= orders
    assert {1, 2, 3} <= identity_chain_bits
    assert identity_sums > 0 and doublings > 0 and inverses > 0


@pytest.mark.parametrize("n_prime", [1, 2, 3])
def test_sampled_points_match_reference(group_p907, n_prime):
    curve = group_p907.curve
    cfg = AttackConfig(group=group_p907, target=group_p907.scalar_mul(321), n_prime=n_prime, seed=4)
    neg_target = curve.negate(cfg.target)
    for index in range(1, 6):
        sample = sample_iteration(cfg, index)
        points = [reference_scalar_mul(curve, r, group_p907.generator) for r in sample.multipliers_p]
        points += [reference_scalar_mul(curve, r, neg_target) for r in sample.multipliers_q]
        assert sample.points == tuple(points)


@pytest.mark.parametrize("n_prime", [1, 2, 3])
def test_pair_multiples_match_reference_on_sampled_multipliers(group_p907, n_prime):
    """On a fresh group and config, the sampled multipliers' pairs equal the
    reference multiples when first computed, and again as kept whole
    multiples of the generator or from warm entries of -target's table,
    every entry of which is the reference multiple of its index; sampling
    on that config then reads the same pairs."""
    curve = group_p907.curve
    group = GroupSpec(curve, group_p907.generator, group_p907.order)
    cfg = AttackConfig(group=group, target=group.scalar_mul(321), n_prime=n_prime, seed=4)
    neg_target = curve.negate(cfg.target)
    table = cfg._neg_target_table
    checked = {"lo": set(), "hi": set()}
    cold = warm = 0
    for index in range(1, 61):
        multipliers = sample_iteration(AttackConfig(group=group_p907, target=cfg.target, n_prime=n_prime, seed=4), index)
        pairs = []
        for r in multipliers.multipliers_p:
            expected = reference_scalar_mul(curve, r, group.generator)
            if r in group._multiples:
                warm += 1
            else:
                cold += 1
            assert group.scalar_mul(r) == expected, r
            assert group._multiples[r] == expected and group.scalar_mul(r) == expected, r
            pairs.append(expected)
        for r in multipliers.multipliers_q:
            expected = reference_scalar_mul(curve, r, neg_target)
            assert cfg.neg_target_mul(r) == expected and cfg.neg_target_mul(r) == expected, r
            # Every entry, once it is filled, is the reference multiple of its index.
            for name, entries, shift in (("lo", table._lo, 0), ("hi", table._hi, 5)):
                for k in entries.keys() - checked[name]:
                    assert entries[k] == reference_scalar_mul(curve, k << shift, neg_target), (name, k)
                checked[name] |= entries.keys()
            pairs.append(expected)
        sample = sample_iteration(cfg, index)
        assert sample.points == tuple(pairs)
    assert cold + warm == 60 * (3 * n_prime - 1) and cold > 0 and warm > 0


def test_kept_multiples_stay_bounded_on_a_large_group():
    """On the order-48,731 group the generator keeps at most KEPT_MULTIPLES
    whole multiples and at most 2^w + (order >> w) + 1 table entries,
    w = 8, however many distinct multipliers it is asked for; every answer,
    kept or not, is the reference multiple."""
    group = fixture_large()
    curve, gen, order = group.curve, group.generator, group.order
    w = group._table._w
    assert w == 8
    entries = (1 << w) + (order >> w) + 1
    rng = random.Random(7)
    asked = rng.sample(range(1, order), KEPT_MULTIPLES + 2000)
    for r in asked:
        group.scalar_mul(r)
    assert list(group._multiples) == asked[:KEPT_MULTIPLES]
    assert len(group._table._lo) + len(group._table._hi) <= entries
    for r in rng.sample(asked, 200) + asked[:50] + asked[-50:]:
        assert group.scalar_mul(r) == reference_scalar_mul(curve, r, gen), r
    assert len(group._multiples) == KEPT_MULTIPLES and len(group._table._lo) + len(group._table._hi) <= entries


def test_table_on_a_61_bit_bound_fills_lazily():
    """A table of a point over F_(2^61 - 1) with bound 2^61 - 1, whose digits
    are 31 bits wide: each multiple adds only its digits' entries, at most
    about 4 * 31, and equals the reference multiple."""
    q = (1 << 61) - 1
    curve = Curve(PrimeField(q), 3, 7)
    x = next(x for x in range(1, 100) if pow(x**3 + 3 * x + 7, (q - 1) // 2, q) == 1)
    base = curve.point(x, pow(x**3 + 3 * x + 7, (q + 1) // 4, q))
    table = FixedBaseTable(curve, base, q)
    assert table._w == 31
    assert isinstance(table._inv, curve_module._PowInverses)
    rng = random.Random(61)
    for r in [0, 1, q, (1 << 31) - 1, 1 << 31, q - 1] + [rng.randrange(q + 1) for _ in range(40)]:
        assert_fills_exactly(table, r, reference_scalar_mul(curve, r, base))
    assert len(table._lo) + len(table._hi) <= 46 * 4 * 31


# The largest prime <= 2^16, whose inverses are tabulated, and the smallest above it.
LARGEST_TABULATED, SMALLEST_UNTABULATED = 65521, 65537


@pytest.mark.parametrize("q", [5, 7, 11, 17, 37, 853, 48619, LARGEST_TABULATED])
def test_inverse_table_matches_pow(q):
    """Up to the bound, the table holds pow(x, -1, q) at every nonzero
    residue, also read as x - q; entry 0 is None and fails on use; every
    curve over the field, and every fixed-base table of one, shares it."""
    inverses = curve_module._inverses(q)
    assert isinstance(inverses, tuple) and len(inverses) == q
    assert all(inverses[x] == pow(x, -1, q) == inverses[x - q] for x in range(1, q))
    assert inverses[0] is None
    with pytest.raises(TypeError):
        3 * inverses[0] % q
    field = PrimeField(q)
    curves = [Curve(field, a, b) for a, b in ((1, 1), (2, 3), (0, 4)) if (4 * a**3 + 27 * b**2) % q]
    assert curves and all(c._inv is inverses for c in curves)
    assert FixedBaseTable(curves[0], None, q)._inv is inverses


def test_inverses_above_the_bound_call_pow():
    """Above 2^16 the same subscript calls pow: it agrees with pow on sampled
    residues, both signs, and raises on 0."""
    q = SMALLEST_UNTABULATED
    assert LARGEST_TABULATED <= curve_module.INVERSE_TABLE_LIMIT < q
    assert is_prime(LARGEST_TABULATED) and is_prime(q) and not any(map(is_prime, range(LARGEST_TABULATED + 1, q)))
    inverses = curve_module._inverses(q)
    assert isinstance(inverses, curve_module._PowInverses)
    assert Curve(PrimeField(q), 1, 1)._inv is inverses
    for x in random.Random(q).sample(range(1, q), 500) + [1, 2, q - 1]:
        assert inverses[x] == pow(x, -1, q) == inverses[x - q], x
    with pytest.raises(ValueError):
        inverses[0]


@pytest.mark.parametrize("q", [LARGEST_TABULATED, SMALLEST_UNTABULATED])
def test_add_matches_reference_on_both_sides_of_the_inverse_bound(q):
    """On the last tabulated field and the first untabulated one, Curve.add
    equals reference_add on sampled chords, doublings, P + (-P) and the
    identity, and so does a fixed-base table's multiple."""
    curve = Curve(PrimeField(q), 3, 7)
    points = curve.points()
    rng = random.Random(q)
    sampled = rng.sample(points, 200)
    for lhs, rhs in zip(sampled, sampled[1:] + sampled[:1]):
        for pair in ((lhs, rhs), (lhs, lhs), (lhs, curve.negate(lhs)), (lhs, None), (None, rhs)):
            assert curve.add(*pair) == reference_add(curve, *pair), pair
    base = next(pt for pt in sampled if pt is not None)
    table = FixedBaseTable(curve, base, len(points))
    for r in rng.sample(range(len(points) + 1), 40):
        assert table.multiple(r) == reference_scalar_mul(curve, r, base), r


def test_chain_rejects_negative_scalars(group_p19):
    """A table answers for 0 <= r <= its bound and raises ValueError, not
    IndexError, outside; -target's is bounded by the order, and a one-shot
    table by its own k."""
    cfg = AttackConfig(group=group_p19, target=group_p19.scalar_mul(5))
    table = FixedBaseTable(group_p19.curve, group_p19.generator, 19)
    for r in (-1, -20, 20, 1 << 70):
        with pytest.raises(ValueError, match="outside"):
            table.multiple(r)
        with pytest.raises(ValueError, match="outside"):
            cfg.neg_target_mul(r)
    with pytest.raises(ValueError, match="outside"):
        FixedBaseTable(group_p19.curve, group_p19.generator, -1).multiple(-1)
    assert cfg.neg_target_mul(19) is None and table.multiple(19) is None


def test_cached_chain_leaves_group_spec_equality_and_hash(group_p907):
    fresh = GroupSpec(group_p907.curve, group_p907.generator, group_p907.order)
    for r in range(100):
        group_p907.scalar_mul(r)
    assert [f.name for f in dataclasses.fields(GroupSpec)] == ["curve", "generator", "order"]
    assert fresh == group_p907
    assert hash(fresh) == hash(group_p907) == hash((group_p907.curve, group_p907.generator, group_p907.order))
    assert len({fresh, group_p907}) == 1
    assert repr(fresh) == repr(group_p907)
