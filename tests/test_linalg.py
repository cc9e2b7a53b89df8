"""Exact linear algebra: two determinant routes and rational nullspaces."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glhecke.laurent import GS_PROFILE, LaurentPoly
from glhecke.linalg import det_expansion, det_laurent, nullspace


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
    assert len(basis) == 1
    vec = basis[0]
    for row in rows:
        assert sum(a * b for a, b in zip(row, vec)) == 0
    assert nullspace([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]) == []


def _rank(rows):
    """Rank by forward elimination, the oracle for ``nullspace``."""
    rows = [list(row) for row in rows]
    rank = 0
    for c in range(len(rows[0])):
        i = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if i is None:
            continue
        rows[rank], rows[i] = rows[i], rows[rank]
        for k in range(rank + 1, len(rows)):
            f = rows[k][c] / rows[rank][c]
            rows[k] = [x - f * y for x, y in zip(rows[k], rows[rank])]
        rank += 1
    return rank


entries = st.one_of(st.just(Fraction(0)), st.fractions(-3, 3, max_denominator=3))
matrices = st.integers(1, 6).flatmap(
    lambda ncols: st.lists(st.lists(entries, min_size=ncols, max_size=ncols), min_size=1, max_size=5)
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(matrices)
def test_nullspace_is_the_rref_basis(rows):
    ncols = len(rows[0])
    basis = nullspace(rows)
    for vec in basis:
        assert all(sum(a * b for a, b in zip(row, vec)) == 0 for row in rows)
    ranks = [_rank([row[:c] for row in rows]) for c in range(ncols + 1)]
    assert len(basis) == ncols - ranks[-1]
    # column c is free when it lies in the span of the columns before it
    free = [c for c in range(ncols) if ranks[c + 1] == ranks[c]]
    for k, vec in enumerate(basis):
        assert [vec[c] for c in free] == [int(j == k) for j in range(len(free))]
