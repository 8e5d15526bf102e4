import random

import pytest
from hypothesis import given, strategies as st

from lvecdlp.curve import Point
from lvecdlp.veronese import basis, evaluate_row, evaluate_rows
from reference_veronese import reference_evaluate_at


def poly_eval_oracle(exponents, coeffs, x, y, z, p):
    """Term-by-term polynomial evaluation with repeated multiplication."""
    total = 0
    for (i, j, k), c in zip(exponents, coeffs):
        term = c
        for _ in range(i):
            term = term * x % p
        for _ in range(j):
            term = term * y % p
        for _ in range(k):
            term = term * z % p
        total = (total + term) % p
    return total


def test_basis_degree_one():
    assert basis(1).exponents == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_basis_degree_two_ordering():
    # x^2, xy, xz, y^2, yz, z^2
    assert basis(2).exponents == (
        (2, 0, 0),
        (1, 1, 0),
        (1, 0, 1),
        (0, 2, 0),
        (0, 1, 1),
        (0, 0, 2),
    )


@pytest.mark.parametrize("degree,size", [(1, 3), (2, 6), (3, 10), (4, 15), (5, 21)])
def test_basis_size(degree, size):
    mb = basis(degree)
    assert mb.size == size == (degree + 1) * (degree + 2) // 2
    assert all(sum(e) == degree for e in mb.exponents)
    assert len(set(mb.exponents)) == mb.size


def test_basis_rejects_degree_zero():
    with pytest.raises(ValueError):
        basis(0)


def test_evaluate_row_examples():
    assert evaluate_row(basis(1), Point.affine(3, 4), 17) == [3, 4, 1]
    assert evaluate_row(basis(2), Point.affine(3, 4), 17) == [9, 12, 3, 16, 4, 1]
    assert evaluate_row(basis(2), Point.identity(), 17) == [0, 0, 0, 1, 0, 0]


@given(
    st.integers(min_value=0, max_value=906),
    st.integers(min_value=0, max_value=906),
    st.integers(min_value=0, max_value=906),
    st.integers(min_value=1, max_value=906),
    st.integers(min_value=1, max_value=4),
)
def test_homogeneity(x, y, z, lam, degree):
    """The pow formula is homogeneous of degree n at any triple, and the
    power-table rows of (x : y : 1) and of (0 : 1 : 0) are its values there,
    so they scale to its values at every representative of those points."""
    p = 907
    mb = basis(degree)
    factor = pow(lam, degree, p)
    base = reference_evaluate_at(mb, x, y, z, p)
    scaled = reference_evaluate_at(mb, lam * x % p, lam * y % p, lam * z % p, p)
    assert scaled == [v * factor % p for v in base]
    for pt, (px, py, pz) in ((Point.affine(x, y), (x, y, 1)), (Point.identity(), (0, 1, 0))):
        row = evaluate_row(mb, pt, p)
        assert reference_evaluate_at(mb, lam * px % p, lam * py % p, lam * pz % p, p) == [v * factor % p for v in row]


def test_row_dot_coefficients_matches_polynomial_evaluation():
    p = 907
    rng = random.Random(5)
    for degree in (1, 2, 3):
        mb = basis(degree)
        for _ in range(50):
            x, y, z = rng.randrange(p), rng.randrange(p), rng.randrange(p)
            coeffs = [rng.randrange(p) for _ in range(mb.size)]
            row = reference_evaluate_at(mb, x, y, z, p)
            dot = sum(r * c for r, c in zip(row, coeffs)) % p
            assert dot == poly_eval_oracle(mb.exponents, coeffs, x, y, z, p)
            affine = evaluate_row(mb, Point.affine(x, y), p)
            assert sum(r * c for r, c in zip(affine, coeffs)) % p == poly_eval_oracle(mb.exponents, coeffs, x, y, 1, p)


def test_distinct_points_distinct_rows_degree_one(group_p19):
    q = group_p19.curve.q
    mb = basis(1)
    rows = [tuple(evaluate_row(mb, pt, q)) for pt in group_p19.curve.points()]
    assert len(set(rows)) == len(rows)


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_power_table_rows_match_pow_formula(group_p19, degree):
    """Rows from power tables equal the pow formula at every point of the
    q = 17 curve, the identity included, and at edge and random pairs mod 853."""
    mb = basis(degree)
    cases = [(pt, 17) for pt in group_p19.curve.points()]
    edges = (0, 1, 2, 852)
    cases += [(Point.affine(x, y), 853) for x in edges for y in edges]
    rng = random.Random(degree)
    cases += [(Point.affine(rng.randrange(853), rng.randrange(853)), 853) for _ in range(200)]
    assert cases[0][0].is_identity
    for p in (17, 853):
        points = [pt for pt, modulus in cases if modulus == p]
        expected = [reference_evaluate_at(mb, pt.x, pt.y, pt.z, p) for pt in points]
        pairs = [None if pt.is_identity else (pt.x, pt.y) for pt in points]
        assert evaluate_rows(mb, pairs, p) == tuple(map(tuple, expected))
        assert [evaluate_row(mb, pt, p) for pt in points] == expected
    assert evaluate_rows(mb, [], 17) == ()
