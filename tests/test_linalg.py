"""Exact linear algebra: two determinant routes, and hand examples of the
nullspace of the box-kernel oracle (``box_kernel``)."""

import random
from fractions import Fraction

import pytest

from box_kernel import nullspace
from glhecke.laurent import GS_PROFILE, LaurentPoly
from glhecke.linalg import det_expansion, det_laurent


def rand_poly(rng, max_terms=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        key = (rng.randint(-2, 2), rng.randint(-2, 2))
        terms[key] = terms.get(key, 0) + rng.randint(-3, 3)
    return LaurentPoly(GS_PROFILE, {k: v for k, v in terms.items() if v})


def test_determinant_two_routes():
    rng = random.Random(41)
    for _ in range(60):
        n = rng.randint(1, 4)
        mat = [[rand_poly(rng, 2) for _ in range(n)] for _ in range(n)]
        assert det_laurent(mat) == det_expansion(mat)


def test_determinant_singular():
    one = LaurentPoly.one(GS_PROFILE)
    zero = LaurentPoly.zero(GS_PROFILE)
    assert det_laurent([[one, one], [one, one]]).is_zero()
    assert det_laurent([[zero, one], [one, zero]]) == -1 * one


def test_empty_matrix_rejected():
    for det in (det_laurent, det_expansion):
        with pytest.raises(ValueError, match="empty matrix"):
            det([])


def test_nullspace():
    rows = [
        [Fraction(1), Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(1), Fraction(1)],
    ]
    basis = nullspace(rows)
    assert basis == [{0: 1, 1: -1, 2: 1}]
    for row in rows:
        assert sum(row[j] * x for j, x in basis[0].items()) == 0
    assert nullspace([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]) == []
    # the second row's pivot is cleared from the first, and the last row,
    # the first plus twice the second, reduces to zero
    rows = [[Fraction(1, 2), 1, 1, 3], [0, 0, Fraction(2, 3), -1]]
    rows.append([a + 2 * b for a, b in zip(rows[0], rows[-1])])
    basis = nullspace(rows)
    assert basis == [{0: -2, 1: 1}, {0: -9, 2: Fraction(3, 2), 3: 1}]
    assert all(list(vec) == sorted(vec) for vec in basis)
    for vec in basis:
        assert all(sum(row[j] * x for j, x in vec.items()) == 0 for row in rows)
