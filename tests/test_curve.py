import dataclasses
import math
import random

import pytest

from lvecdlp.attack import AttackConfig, sample_iteration
from lvecdlp.curve import KEPT_MULTIPLES, Curve, GroupSpec, Point, curve_to_text, find_prime_order_curve, point_to_text
from lvecdlp.errors import BudgetExceededError
from lvecdlp.field import PrimeField
from lvecdlp.linalg import rref_rows
from lvecdlp.veronese import basis, evaluate_row, evaluate_rows
from lvecdlp.verification import fixture_large, fixture_medium
from reference_curve import reference_add, reference_scalar_mul


def chord_oracle(curve, a, b):
    """Third collinear point, by scanning the whole curve instead of slopes.

    Only valid for distinct affine points with different x.  Returns None in
    the tangent case where the line meets the curve again at a or b itself.
    """
    assert not a.is_identity and not b.is_identity and a.x != b.x
    mb = basis(1)
    q = curve.q
    rows = [evaluate_row(mb, a, q), evaluate_row(mb, b, q)]
    for candidate in curve.points():
        if candidate in (a, b):
            continue
        if rref_rows(rows + [evaluate_row(mb, candidate, q)], q)[1] < 3:
            return curve.negate(candidate)
    return None


def double_oracle(curve, pt):
    """Doubling as (A + X) + (A - X) via chords, independent of the tangent formula."""
    for helper in curve.points():
        if helper.is_identity or helper in (pt, curve.negate(pt)) or pt.x == helper.x:
            continue
        s1 = chord_oracle(curve, pt, helper)
        s2 = chord_oracle(curve, pt, curve.negate(helper))
        if s1 is None or s2 is None or s1.is_identity or s2.is_identity:
            continue
        if s1 == s2 or s1.x == s2.x:
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


def test_point_normal_forms():
    with pytest.raises(ValueError):
        Point(1, 1, 2)
    with pytest.raises(ValueError):
        Point(1, 1, 0)
    assert Point.identity().is_identity


def test_point_validation(curve17):
    assert curve17.point(5, 1) == Point.affine(5, 1)
    with pytest.raises(ValueError):
        curve17.point(5, 2)


def test_doubling_example(curve17):
    doubled = curve17.add(curve17.point(5, 1), curve17.point(5, 1))
    assert doubled == Point.affine(6, 3)
    assert double_oracle(curve17, curve17.point(5, 1)) == doubled


def test_add_identity_and_inverse(curve17):
    pt = curve17.point(5, 1)
    assert curve17.add(pt, Point.identity()) == pt
    assert curve17.add(Point.identity(), pt) == pt
    assert curve17.add(pt, curve17.negate(pt)).is_identity


def test_chord_addition_against_enumeration_oracle(curve17):
    points = [pt for pt in curve17.points() if not pt.is_identity]
    rng = random.Random(7)
    for _ in range(50):
        a, b = rng.sample(points, 2)
        if a.x == b.x:
            continue
        expected = chord_oracle(curve17, a, b)
        if expected is not None:
            assert curve17.add(a, b) == expected


def test_group_order_examples(curve17):
    assert curve17.group_order() == 19
    assert Curve(PrimeField(5), 1, 0).group_order() == 4
    assert len(curve17.points()) == 19


def test_group_order_matches_point_enumeration():
    rng = random.Random(3)
    for _ in range(10):
        q = rng.choice([5, 7, 11, 13, 17, 19])
        a, b = rng.randrange(q), rng.randrange(q)
        if (4 * a**3 + 27 * b**2) % q == 0:
            continue
        curve = Curve(PrimeField(q), a, b)
        assert curve.group_order() == len(curve.points())


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
    with pytest.raises(BudgetExceededError):
        Curve(PrimeField(2**21 + 17), 1, 1).group_order()


def test_group_axioms_randomized(group_p19):
    curve = group_p19.curve
    p = group_p19.order
    rng = random.Random(11)
    for _ in range(1000):
        a, b, c = (group_p19.scalar_mul(rng.randrange(p)) for _ in range(3))
        assert curve.add(curve.add(a, b), c) == curve.add(a, curve.add(b, c))
        assert curve.add(a, b) == curve.add(b, a)
        assert curve.add(a, curve.negate(a)).is_identity
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
    assert group_p19.scalar_mul(0).is_identity
    assert group_p19.scalar_mul(1) == group_p19.generator
    assert group_p19.scalar_mul(group_p19.order).is_identity


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
        rows = [evaluate_row(mb, group_p19.scalar_mul(s), q) for s in triple]
        assert rref_rows(rows, q)[1] < 3
        scalars = [rng.randrange(1, p) for _ in range(3)]
        if len(set(scalars)) == 3 and sum(scalars) % p != 0:
            rows = [evaluate_row(mb, group_p19.scalar_mul(s), q) for s in scalars]
            assert rref_rows(rows, q)[1] == 3


def test_group_spec_validation(curve17):
    with pytest.raises(ValueError):
        GroupSpec(curve17, Point.identity(), 19)
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
    assert point_to_text(Point.identity()) == "O"


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
                        assert curve.scalar_mul(k, lhs) == reference_scalar_mul(curve, k, lhs), (curve, k, lhs)
                    if not lhs.is_identity and lhs.y == 0:
                        assert curve.add(lhs, lhs).is_identity
                        doubled_two_torsion += 1
    assert doubled_two_torsion > 0
    seven = Curve(PrimeField(7), 0, 1)
    two_torsion = [pt for pt in seven.points() if not pt.is_identity and pt.y == 0]
    assert len(two_torsion) == 3
    for pt in two_torsion:
        assert seven.scalar_mul(2, pt).is_identity
        assert seven.scalar_mul(3, pt) == pt


def test_scalar_mul_matches_reference_p907(group_p907):
    curve, gen, p = group_p907.curve, group_p907.generator, group_p907.order
    rng = random.Random(907)
    scalars = [0, 1, p - 1, p] + [rng.randrange(4 * p) for _ in range(2000)]
    for k in scalars:
        assert curve.scalar_mul(k, gen) == reference_scalar_mul(curve, k, gen), k
    with pytest.raises(ValueError):
        curve.scalar_mul(-1, gen)


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
        assert curve.add(curve.add(pa, pb), pc).is_identity
        rows = [evaluate_row(mb, pt, q) for pt in (pa, pb, pc)]
        assert rref_rows(rows, q)[1] < 3


def test_points_enumeration_order():
    """Identity first, then x ascending and, for each x, y ascending."""
    rng = random.Random(5)
    for _ in range(10):
        q = rng.choice([5, 7, 11, 13, 17, 19, 23])
        a, b = rng.randrange(q), rng.randrange(q)
        if (4 * a**3 + 27 * b**2) % q == 0:
            continue
        curve = Curve(PrimeField(q), a, b)
        expected = [Point.identity()] + [
            Point.affine(x, y) for x in range(q) for y in range(q) if (y * y - x**3 - a * x - b) % q == 0
        ]
        assert curve.points() == expected


def test_find_prime_order_curve_reproduces_medium_fixture():
    group = find_prime_order_curve(PrimeField(853), 907, 907)
    assert group == fixture_medium()
    assert (group.curve.a, group.curve.b) == (1, 348)
    assert group.generator == Point.affine(1, 297)


def test_find_prime_order_curve_skips_j0_and_j1728_rows():
    """At q = 48,619 (1 mod 3) every a = 0 curve has one of a few orders, none
    prime in range, and the scan would spend q point counts in that row;
    skipped, the a = 1 row hits at b = 55 within 60 candidates."""
    group = find_prime_order_curve(PrimeField(48619), 48400, 48840, max_candidates=60)
    assert (group.curve.a, group.curve.b, group.order) == (1, 55, 48731)
    assert group.generator == Point.affine(0, 4724)
    assert group == fixture_large()


def test_chain_matches_reference_for_every_scalar_p19(group_p19):
    """Every k below 2^bits, on one shared memo per base (the generator's and
    -target's), once with k decreasing and once increasing from a fresh memo,
    so that digits are met both cold and warm.  Each k is asked as a pair
    and then again as a Point, the second time from warm window entries
    that leave the memo as it is."""
    curve, gen, p = group_p19.curve, group_p19.generator, group_p19.order
    gen_xy = (gen.x, gen.y)
    bits = p.bit_length()
    for scalars in (reversed(range(1 << bits)), range(1 << bits)):
        cfg = AttackConfig(group=group_p19, target=group_p19.scalar_mul(5))
        neg_target = curve.negate(cfg.target)
        memo = {}
        for k in scalars:
            expected = reference_scalar_mul(curve, k, gen)
            assert expected.xy == memo_entry(expected), k
            before = dict(memo)
            assert curve.scalar_mul_xy(k, gen_xy, memo) == memo_entry(expected), k
            # The chain up to k's top bit and the digits of k's windows, nothing else.
            assert set(memo) == set(before) | memo_keys(k), k
            assert all(memo[s] == before[s] for s in before), k
            after = dict(memo)
            assert curve.scalar_mul(k, gen, memo) == expected, k
            assert memo == after, k
            for r in (k, k):
                assert group_p19.scalar_mul(r) == reference_scalar_mul(curve, r % p, gen), r
                assert group_p19.scalar_mul_xy(r) == memo_entry(reference_scalar_mul(curve, r % p, gen)), r
                assert cfg.neg_target_xy(r) == memo_entry(reference_scalar_mul(curve, r, neg_target)), r
        # The chain up to the top bit and every digit of each window, nothing else.
        windows = [d << shift for shift in (0, 4) for d in range(1, 16) if d << shift < 1 << bits]
        assert sorted(memo) == windows
        assert sorted(cfg._neg_target_memo) == windows
        assert memo[1 << 4] == memo_entry(reference_scalar_mul(curve, 16, gen))
        assert all(memo[s] == memo_entry(reference_scalar_mul(curve, s, gen)) for s in memo)
    # The generator's whole multiples: every r mod p asked for, each the reference multiple.
    assert sorted(group_p19._multiples) == list(range(p))
    assert all(xy == memo_entry(reference_scalar_mul(curve, r, gen)) for r, xy in group_p19._multiples.items())


def memo_entry(pt):
    """A point as the window memo holds it: an affine pair, or None for the identity."""
    return None if pt.is_identity else (pt.x, pt.y)


def is_window_entry(s):
    """Whether s > 0 is d * 2^(4i) for a digit 0 < d < 16, the form of a window entry."""
    return s > 0 and s >> 4 * (((s & -s).bit_length() - 1) // 4) < 16


def memo_keys(k):
    """The keys a call for k leaves in the memo: the doubling chain up to k's
    top bit and, in each 4-bit window, the partial sums of its bits taken
    from the lowest up; none for k = 0."""
    keys = {1 << j for j in range(k.bit_length())}
    for shift in range(0, k.bit_length(), 4):
        rest, done = k & (15 << shift), 0
        while rest:
            bit = rest & -rest
            rest ^= bit
            done |= bit
            keys.add(done)
    return keys


def test_window_memo_addition_counts(group_p907, monkeypatch):
    """On an empty memo a call makes exactly the group operations of
    double-and-add, (bits - 1) doublings and (popcount - 1) additions, and
    leaves only window entries; warm, one addition fewer than its nonzero
    4-bit digits, so at most two below 2^10.  A group makes none for a
    whole multiple it has kept."""
    curve, gen, p = group_p907.curve, group_p907.generator, group_p907.order
    group = GroupSpec(curve, gen, p)
    calls = []
    add_xy = Curve._add_xy

    def counted(self, *args):
        calls.append(args)
        return add_xy(self, *args)

    monkeypatch.setattr(Curve, "_add_xy", counted)
    for k in random.Random(5).sample(range(1, p), 200):
        memo = {}
        calls.clear()
        assert curve.scalar_mul(k, gen, memo) == reference_scalar_mul(curve, k, gen), k
        assert len(calls) == k.bit_length() - 1 + k.bit_count() - 1, k
        assert all(map(is_window_entry, memo)), k
        calls.clear()
        assert curve.scalar_mul(k, gen, memo) == reference_scalar_mul(curve, k, gen), k
        digits = sum(1 for shift in range(0, 12, 4) if k >> shift & 15)
        assert len(calls) == digits - 1 <= 2, k
        expected = memo_entry(reference_scalar_mul(curve, k, gen))
        assert group.scalar_mul_xy(k) == expected and group._multiples[k] == expected, k
        calls.clear()
        assert group.scalar_mul_xy(k) == expected and group.scalar_mul(k + p) == reference_scalar_mul(curve, k, gen), k
        assert calls == [], k


def test_chain_matches_reference_with_two_torsion():
    """The curves of the two-torsion test, with one memo per point, filled once
    with k decreasing and once increasing.  The chain of a point of order 2, 4
    or 8 reaches the identity inside the first 4-bit window and stops there,
    and a digit of a point of order 3 (or 5, 6, ...) sums to the identity."""
    identity_chain_bits = set()
    identity_digits = 0
    for q in (5, 7, 11):
        field = PrimeField(q)
        for a in range(q):
            for b in range(q):
                if (4 * a**3 + 27 * b**2) % q == 0:
                    continue
                curve = Curve(field, a, b)
                points = curve.points()
                bound = 1 << (len(points) + 2).bit_length()
                for pt in points:
                    expected = [reference_scalar_mul(curve, k, pt) for k in range(bound)]
                    for scalars in (reversed(range(bound)), range(bound)):
                        memo = {}
                        for k in scalars:
                            before = set(memo)
                            assert curve.scalar_mul(k, pt, memo) == expected[k], (curve, k, pt)
                            assert set(memo) == (before if pt.is_identity else before | memo_keys(k)), (curve, k, pt)
                        for part, entry in memo.items():
                            assert entry == memo_entry(expected[part]), (curve, part, pt)
                        chain = [part for part in memo if part & part - 1 == 0]
                        stops = [part.bit_length() - 1 for part in chain if memo[part] is None]
                        if stops:
                            identity_chain_bits.add(min(stops))
                        identity_digits += sum(
                            1 for part in memo if part & part - 1 and is_window_entry(part) and memo[part] is None
                        )
    assert {1, 2, 3} <= identity_chain_bits
    assert identity_digits > 0


@pytest.mark.parametrize("n_prime", [1, 2, 3])
def test_sampled_points_match_reference(group_p907, n_prime):
    curve = group_p907.curve
    cfg = AttackConfig(group=group_p907, target=group_p907.scalar_mul(321), n_prime=n_prime, seed=4)
    neg_target = curve.negate(cfg.target)
    mb = basis(n_prime)
    for index in range(1, 6):
        sample = sample_iteration(cfg, index)
        points = [reference_scalar_mul(curve, r, group_p907.generator) for r in sample.multipliers_p]
        points += [reference_scalar_mul(curve, r, neg_target) for r in sample.multipliers_q]
        assert sample.rows == tuple(tuple(evaluate_row(mb, pt, curve.q)) for pt in points)


@pytest.mark.parametrize("n_prime", [1, 2, 3])
def test_pair_multiples_match_reference_on_sampled_multipliers(group_p907, n_prime):
    """On a fresh group and config, the sampled multipliers' pairs equal the
    reference multiples when first computed, and again as kept whole
    multiples of the generator or from warm window entries of -target;
    sampling on that config then reads the same pairs."""
    curve = group_p907.curve
    group = GroupSpec(curve, group_p907.generator, group_p907.order)
    cfg = AttackConfig(group=group, target=group.scalar_mul(321), n_prime=n_prime, seed=4)
    neg_target = curve.negate(cfg.target)
    mb = basis(n_prime)
    cold = warm = 0
    for index in range(1, 61):
        multipliers = sample_iteration(AttackConfig(group=group_p907, target=cfg.target, n_prime=n_prime, seed=4), index)
        pairs = []
        for r in multipliers.multipliers_p:
            expected = memo_entry(reference_scalar_mul(curve, r, group.generator))
            if r in group._multiples:
                warm += 1
            else:
                cold += 1
            assert group.scalar_mul_xy(r) == expected, r
            assert group._multiples[r] == expected and group.scalar_mul_xy(r) == expected, r
            pairs.append(expected)
        for r in multipliers.multipliers_q:
            expected = memo_entry(reference_scalar_mul(curve, r, neg_target))
            assert cfg.neg_target_xy(r) == expected and cfg.neg_target_xy(r) == expected, r
            assert all(map(is_window_entry, cfg._neg_target_memo)), r
            pairs.append(expected)
        sample = sample_iteration(cfg, index)
        assert sample.rows == evaluate_rows(mb, pairs, curve.q)
    assert cold + warm == 60 * (3 * n_prime - 1) and cold > 0 and warm > 0


def test_kept_multiples_stay_bounded_on_a_large_group():
    """On the order-48,731 group the generator keeps at most KEPT_MULTIPLES
    whole multiples and at most 15 window entries per 4-bit window, however
    many distinct multipliers it is asked for; every answer, kept or not,
    is the reference multiple."""
    group = fixture_large()
    curve, gen, order = group.curve, group.generator, group.order
    rng = random.Random(7)
    asked = rng.sample(range(1, order), KEPT_MULTIPLES + 2000)
    for r in asked:
        group.scalar_mul_xy(r)
    assert list(group._multiples) == asked[:KEPT_MULTIPLES]
    windows = -(-order.bit_length() // 4) * 15
    assert len(group._memo) <= windows
    for r in rng.sample(asked, 200) + asked[:50] + asked[-50:]:
        assert group.scalar_mul_xy(r) == memo_entry(reference_scalar_mul(curve, r, gen)), r
    assert len(group._multiples) == KEPT_MULTIPLES and len(group._memo) <= windows


def test_chain_rejects_negative_scalars(group_p19):
    cfg = AttackConfig(group=group_p19, target=group_p19.scalar_mul(5))
    with pytest.raises(ValueError):
        group_p19.curve.scalar_mul(-1, group_p19.generator, [])
    with pytest.raises(ValueError):
        group_p19.curve.scalar_mul_xy(-1, (group_p19.generator.x, group_p19.generator.y), {})
    with pytest.raises(ValueError):
        cfg.neg_target_xy(-1)


def test_cached_chain_leaves_group_spec_equality_and_hash(group_p907):
    fresh = GroupSpec(group_p907.curve, group_p907.generator, group_p907.order)
    for r in range(100):
        group_p907.scalar_mul(r)
    assert [f.name for f in dataclasses.fields(GroupSpec)] == ["curve", "generator", "order"]
    assert fresh == group_p907
    assert hash(fresh) == hash(group_p907) == hash((group_p907.curve, group_p907.generator, group_p907.order))
    assert len({fresh, group_p907}) == 1
    assert repr(fresh) == repr(group_p907)
