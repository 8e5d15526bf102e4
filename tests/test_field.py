import random

import pytest
from hypothesis import given, strategies as st

from lvecdlp.field import PrimeField, is_prime
from reference_curve import elem


def egcd_inverse(a, p):
    """Extended-Euclid oracle, independent of the library's pow-based inverse."""
    old_r, r = a % p, p
    old_s, s = 1, 0
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
    assert old_r == 1
    return old_s % p


def test_is_prime_small_cases():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 907, 2305843009213693951}
    composites = {0, 1, 4, 9, 15, 21, 561, 41041, 25326001}
    for n in primes:
        assert is_prime(n), n
    for n in composites:
        assert not is_prime(n), n


def test_prime_field_rejects_bad_moduli():
    with pytest.raises(ValueError):
        PrimeField(1)
    with pytest.raises(ValueError):
        PrimeField(561)
    with pytest.raises(ValueError):
        PrimeField(2**64 + 13)


# The element cases below check the reference FieldElement in reference_curve.py.


def test_add_examples():
    f = PrimeField(17)
    assert (elem(f, 3) + elem(f, 15)).value == 1
    q = PrimeField(907)
    b = elem(q, 123)
    assert (elem(q, 0) + b) == b
    a = elem(q, 40)
    assert (a + elem(q, 907 - 40)).value == 0


def test_mul_examples():
    f = PrimeField(17)
    assert (elem(f, 4) * elem(f, 13)).value == 1
    q = PrimeField(907)
    b = elem(q, 456)
    assert (elem(q, 1) * b) == b
    assert (elem(q, 0) * b).value == 0


def test_inv_examples():
    f = PrimeField(17)
    assert elem(f, 1).inv().value == 1
    assert elem(f, 4).inv().value == 13
    assert elem(f, 4).inv().value == egcd_inverse(4, 17)
    with pytest.raises(ZeroDivisionError):
        elem(f, 0).inv()


def test_modulus_mismatch_rejected():
    a = elem(PrimeField(17), 3)
    b = elem(PrimeField(19), 3)
    for op in (lambda: a + b, lambda: a - b, lambda: a * b, lambda: a / b):
        with pytest.raises(ValueError):
            op()


@pytest.mark.parametrize("p", [5, 17, 907, 2**31 - 1])
def test_field_axioms_randomized(p):
    f = PrimeField(p)
    rng = random.Random(p)
    for _ in range(1000):
        a, b, c = (elem(f, rng.randrange(p)) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        for result in (a + b, a * b, a - b, -a):
            assert 0 <= result.value < p


@given(st.integers(min_value=1, max_value=906))
def test_inverse_involution(v):
    f = PrimeField(907)
    a = elem(f, v)
    assert (a * a.inv()).value == 1
    assert a.inv().inv() == a


def test_inverse_via_egcd_oracle_many():
    f = PrimeField(907)
    for v in range(1, 907, 13):
        assert elem(f, v).inv().value == egcd_inverse(v, 907)
