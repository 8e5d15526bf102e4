import gc
import random
import weakref
from math import isqrt

import pytest

from lvecdlp import dlp
from lvecdlp.curve import Curve, GroupSpec
from lvecdlp.dlp import solve_bsgs
from lvecdlp.errors import BudgetExceededError
from lvecdlp.field import PrimeField
from lvecdlp.verification import fixture_large, fixture_medium, fixture_small
from reference_curve import reference_scalar_mul
from reference_dlp import solve_exhaustive_dlp


def test_bsgs_edge_cases(group_p19):
    assert solve_bsgs(group_p19, None) == 0
    assert solve_bsgs(group_p19, group_p19.generator) == 1
    assert solve_bsgs(group_p19, group_p19.scalar_mul(group_p19.order - 1)) == group_p19.order - 1


def test_exhaustive_edge_cases(group_p19):
    assert solve_exhaustive_dlp(group_p19, None) == 0
    assert solve_exhaustive_dlp(group_p19, group_p19.scalar_mul(group_p19.order - 1)) == group_p19.order - 1


def test_plant_and_recover(group_p19, group_p907):
    rng = random.Random(0)
    for group in (group_p19, group_p907):
        for _ in range(50):
            m = rng.randrange(group.order)
            target = group.scalar_mul(m)
            assert solve_bsgs(group, target) == m


def test_solvers_agree(group_p19, group_p907):
    rng = random.Random(1)
    for group, trials in ((group_p19, 60), (group_p907, 40)):
        for _ in range(trials):
            m = rng.randrange(group.order)
            target = group.scalar_mul(m)
            assert solve_bsgs(group, target) == solve_exhaustive_dlp(group, target) == m


def test_budget_guards(group_p907, monkeypatch):
    monkeypatch.setattr(dlp, "BSGS_ORDER_LIMIT", 100)
    with pytest.raises(BudgetExceededError):
        solve_bsgs(group_p907, group_p907.generator)
    with pytest.raises(BudgetExceededError):
        solve_exhaustive_dlp(group_p907, group_p907.generator, max_order=100)


def test_off_curve_target_rejected(group_p19):
    bad = (2, 3)
    assert not group_p19.curve.contains(bad)
    with pytest.raises(ValueError):
        solve_bsgs(group_p19, bad)
    with pytest.raises(ValueError):
        solve_exhaustive_dlp(group_p19, bad)


def small_group(q, a, b, gx, gy, order):
    curve = Curve(PrimeField(q), a, b)
    return GroupSpec(curve, curve.point(gx, gy), order)


@pytest.mark.parametrize(
    "make_group",
    [
        lambda: small_group(5, 0, 1, 4, 0, 2),
        lambda: small_group(5, 0, 1, 0, 1, 3),
        lambda: small_group(5, 3, 0, 1, 2, 5),
        lambda: small_group(5, 2, 1, 0, 1, 7),
        lambda: small_group(7, 1, 6, 1, 1, 11),
        lambda: small_group(7, 0, 3, 1, 2, 13),
        fixture_small,
        fixture_medium,
    ],
    ids=["p2", "p3", "p5", "p7", "p11", "p13", "p19", "p907"],
)
def test_every_m_agrees_with_the_reference(make_group):
    """Every m, so the identity and +-j at every giant step's baby steps: a
    point of order 2 (y = 0), orders 3 and 5 where the giant step is the
    identity (2T - 1 = p), and the last giant step at p = 7, 11, 13, 19, 907."""
    group = make_group()
    assert reference_scalar_mul(group.curve, group.order, group.generator) is None
    target = None
    for m in range(group.order):
        assert solve_bsgs(group, target) == solve_exhaustive_dlp(group, target) == m
        target = group.curve.add(target, group.generator)


def test_giant_steps_per_log_stay_within_the_bound(group_p19, group_p907, monkeypatch):
    """With the table warm, a log takes at most ceil(p / (2T - 1)) - 1 additions,
    2 at p = 19, 14 at p = 907 and 110 at p = 48,731: every m of the first two
    and every 37th m of the third."""
    large = fixture_large()
    cases = [(group_p19, range(19), 2), (group_p907, range(907), 14), (large, range(0, large.order, 37), 110)]
    calls = []
    add = Curve.add

    def counted(self, lhs, rhs):
        calls.append(None)
        return add(self, lhs, rhs)

    for group, ms, bound in cases:
        assert bound == -(-group.order // (2 * isqrt(group.order - 1) + 1)) - 1
        targets = [group.scalar_mul(m) for m in ms]
        solve_bsgs(group, group.generator)
        with monkeypatch.context() as patch:
            patch.setattr(Curve, "add", counted)
            counts = []
            for m, target in zip(ms, targets):
                calls.clear()
                assert solve_bsgs(group, target) == m
                counts.append(len(calls))
        assert max(counts) <= bound


def test_the_table_leaves_the_groups_caches_untouched(group_p907):
    """The oracle builds its table by adding the generator: neither the call
    that builds it nor a later one changes ``GroupSpec``'s
    table and kept multiples."""
    curve = group_p907.curve
    group = GroupSpec(curve, reference_scalar_mul(curve, 5, group_p907.generator), group_p907.order)
    assert group not in dlp._BABY_STEPS
    lo, hi, multiples = dict(group._table._lo), dict(group._table._hi), dict(group._multiples)
    for m in (400, 906):
        target = reference_scalar_mul(curve, 5 * m, group_p907.generator)
        assert solve_bsgs(group, target) == m
        assert group in dlp._BABY_STEPS
        assert group._table._lo == lo and group._table._hi == hi and group._multiples == multiples


def test_kept_tables_agree_with_the_reference_across_interleaved_groups(group_p19, group_p907):
    """Every m at p = 19, 200 seeded m at p = 907 and 50 on the order-48,731
    group, in one shuffled order, each asked of the group or of a second,
    equal GroupSpec; each group's kept table is one call's table: T - 1
    distinct x keys and the giant step -(2T - 1) * G."""
    large = fixture_large()
    rng = random.Random(20)
    cases = [(group_p19, m) for m in range(group_p19.order)]
    cases += [(group_p907, rng.randrange(group_p907.order)) for _ in range(200)]
    cases += [(large, rng.randrange(large.order)) for _ in range(50)]
    rng.shuffle(cases)
    twins = {id(g): GroupSpec(g.curve, g.generator, g.order) for g in (group_p19, group_p907, large)}
    for n, (group, m) in enumerate(cases):
        asked = twins[id(group)] if n % 2 else group
        target = group.scalar_mul(m)
        assert solve_bsgs(asked, target) == solve_exhaustive_dlp(group, target) == m
    for group in (group_p19, group_p907, large):
        table, giant = dlp._BABY_STEPS[group]
        steps = isqrt(group.order - 1) + 1
        assert len(table) == steps - 1
        assert giant == group.curve.negate(group.scalar_mul(2 * steps - 1))
        assert solve_bsgs(group, None) == 0


def test_checks_run_before_the_table_is_built_and_the_table_goes_with_its_group(group_p19, monkeypatch):
    group = GroupSpec(group_p19.curve, group_p19.scalar_mul(2), group_p19.order)
    twin = GroupSpec(group.curve, group.generator, group.order)
    with monkeypatch.context() as patched:
        patched.setattr(dlp, "BSGS_ORDER_LIMIT", 18)
        with pytest.raises(BudgetExceededError):
            solve_bsgs(group, group_p19.generator)
    with pytest.raises(ValueError):
        solve_bsgs(group, (2, 3))
    assert twin not in dlp._BABY_STEPS
    assert solve_bsgs(group, group_p19.generator) == 10  # 10 * 2G = 20G = G
    assert twin in dlp._BABY_STEPS
    held = weakref.ref(group)
    del group
    gc.collect()
    assert held() is None
    assert twin not in dlp._BABY_STEPS
