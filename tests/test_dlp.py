import gc
import random
import weakref
from math import isqrt

import pytest

from lvecdlp import dlp
from lvecdlp.curve import GroupSpec
from lvecdlp.dlp import solve_bsgs
from lvecdlp.errors import BudgetExceededError
from lvecdlp.verification import fixture_large
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


def test_budget_guards(group_p907):
    with pytest.raises(BudgetExceededError):
        solve_bsgs(group_p907, group_p907.generator, max_order=100)
    with pytest.raises(BudgetExceededError):
        solve_exhaustive_dlp(group_p907, group_p907.generator, max_order=100)


def test_off_curve_target_rejected(group_p19):
    bad = (2, 3)
    assert not group_p19.curve.contains(bad)
    with pytest.raises(ValueError):
        solve_bsgs(group_p19, bad)
    with pytest.raises(ValueError):
        solve_exhaustive_dlp(group_p19, bad)


def test_kept_tables_agree_with_the_reference_across_interleaved_groups(group_p19, group_p907):
    """Every m at p = 19, 200 seeded m at p = 907 and 50 on the order-48,731
    group, in one shuffled order, each asked of the group or of a second,
    equal GroupSpec; each group's kept table is one call's table."""
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
        assert len(table) == steps
        assert giant == group.curve.negate(group.scalar_mul(steps))
        assert solve_bsgs(group, None) == 0


def test_checks_run_before_the_table_is_built_and_the_table_goes_with_its_group(group_p19):
    group = GroupSpec(group_p19.curve, group_p19.scalar_mul(2), group_p19.order)
    twin = GroupSpec(group.curve, group.generator, group.order)
    with pytest.raises(BudgetExceededError):
        solve_bsgs(group, group_p19.generator, max_order=18)
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
