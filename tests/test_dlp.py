import random

import pytest

from lvecdlp.dlp import solve_bsgs
from lvecdlp.errors import BudgetExceededError
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
