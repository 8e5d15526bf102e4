import math
from fractions import Fraction

import pytest

from lvecdlp.analysis import (
    audit_partition_counts,
    binomial_confidence_interval,
    partition_count_formula,
    partition_count_oracle,
    per_iteration_success,
    select_parameters,
    success_model,
)
from lvecdlp.errors import BudgetExceededError


def test_formula_values():
    # k = 3: (p-1)(p-3)/6
    assert partition_count_formula(7, 3) == Fraction(6 * 4, 6) == 4
    assert partition_count_formula(11, 3) == Fraction(10 * 8, 6)
    assert partition_count_formula(11, 3).denominator != 1  # non-integer anomaly
    assert partition_count_formula(5, 3) == Fraction(4 * 2, 6)
    assert partition_count_formula(7, 5) == Fraction(6 * 5 * 4 * 2, 120) == 2


def test_formula_domain_checks():
    with pytest.raises(ValueError):
        partition_count_formula(7, 2)
    with pytest.raises(ValueError):
        partition_count_formula(9, 3)
    with pytest.raises(ValueError):
        partition_count_formula(5, 5)


def test_oracle_examples():
    assert partition_count_oracle(7, 3, 0) == 2  # {1,2,4} and {3,5,6}
    assert partition_count_oracle(5, 4, 0) == 1  # 1+2+3+4 = 10 = 0 mod 5
    for m in range(1, 5):
        assert partition_count_oracle(5, 4, m) == 0


def test_oracle_symmetry_sums():
    for p in (5, 7, 11, 13):
        for k in (3, 4):
            if k >= p:
                continue
            assert sum(partition_count_oracle(p, k, m) for m in range(p)) == math.comb(p - 1, k)


def test_oracle_known_discrepancy():
    # The closed form is m-independent; the true counts are not.
    assert partition_count_oracle(7, 3, 0) == 2
    assert partition_count_oracle(7, 3, 1) == 3
    assert int(partition_count_formula(7, 3)) == 4


def test_oracle_budget_guard():
    with pytest.raises(BudgetExceededError):
        partition_count_oracle(907, 5, 0, budget=1000)


def test_audit_report():
    audit = audit_partition_counts((5, 7), (3, 4, 5))
    assert audit.consistency_ok
    assert audit.mismatch_count > 0
    csv = audit.to_csv()
    lines = csv.strip().splitlines()
    assert lines[0] == "p,k,m,formula,oracle,match"
    assert len(lines) == 1 + len(audit.rows)
    summary = audit.to_summary()
    assert summary["oracle_consistency_ok"] is True
    assert summary["formula_non_integer"] > 0


def test_success_model_values():
    model = success_model(907, 2, 6)
    assert model.subsets == 924
    assert abs(model.per_iteration - 0.639) < 1e-3
    assert model.alg2_conditional == Fraction(36, 924)
    assert success_model(19, 1, 3).alg2_conditional == Fraction(9, 20)
    for n_prime in (1, 2, 3):
        assert success_model(907, n_prime, 1).alg2_conditional == Fraction(1, math.comb(3 * n_prime + 1, 1))
    assert model.overall_estimate_ln == pytest.approx(0.6 * math.log(907) ** 2 / 907)
    assert model.overall_estimate_log2 == pytest.approx(0.6 * math.log2(907) ** 2 / 907)


def test_per_iteration_asymptote():
    p = 10**9
    assert abs(per_iteration_success(p, p) - (1 - 1 / math.e)) < 1e-6


def test_per_iteration_monotone_in_subsets():
    values = [per_iteration_success(907, c) for c in (100, 500, 924, 2000)]
    assert values == sorted(values)


def test_select_parameters_boundaries():
    assert select_parameters(5).n_prime == 1
    assert select_parameters(20).n_prime == 1
    assert select_parameters(21).n_prime == 2
    assert select_parameters(924).n_prime == 2
    assert select_parameters(925).n_prime == 3
    assert select_parameters(48620).n_prime == 3
    assert select_parameters(48621).n_prime == 4
    choice = select_parameters(907)
    assert choice.l == 6 and choice.subsets == 924
    assert choice.stirling_estimate == pytest.approx(4.0**6 / math.sqrt(math.pi * 6))


def test_confidence_interval():
    low, high = binomial_confidence_interval(639, 1000)
    assert 0.6 < low < 0.639 < high < 0.68
    assert binomial_confidence_interval(0, 10)[0] == 0.0
    with pytest.raises(ValueError):
        binomial_confidence_interval(0, 0)
