"""Exact linear algebra: two determinant routes, and the integer nullspace
against a Fraction RREF oracle."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glhecke import springer
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
    assert basis == [{0: 1, 1: -1, 2: 1}]
    for row in rows:
        assert sum(row[j] * x for j, x in basis[0].items()) == 0
    assert nullspace([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]) == []


def _dense(basis, ncols):
    """The sparse ``{column: Fraction}`` vectors of ``nullspace`` as lists."""
    out = []
    for vec in basis:
        assert all(vec.values()) and list(vec) == sorted(vec)
        dense = [Fraction(0)] * ncols
        for j, x in vec.items():
            dense[j] = x
        out.append(dense)
    return out


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
    basis = _dense(nullspace(rows), ncols)
    assert basis == _rref_nullspace(rows)
    for vec in basis:
        assert all(sum(a * b for a, b in zip(row, vec)) == 0 for row in rows)
    ranks = [_rank([row[:c] for row in rows]) for c in range(ncols + 1)]
    assert len(basis) == ncols - ranks[-1]
    # column c is free when it lies in the span of the columns before it
    free = [c for c in range(ncols) if ranks[c + 1] == ranks[c]]
    for k, vec in enumerate(basis):
        assert [vec[c] for c in free] == [int(j == k) for j in range(len(free))]


def _subtract(row, f, pivot):
    """row -= f * pivot in place, dropping the entries that become zero."""
    for j, x in pivot.items():
        y = row.get(j, 0) - f * x
        if y:
            row[j] = y
        else:
            del row[j]


def _rref_nullspace(rows):
    """The nullspace by a sparse RREF over Fractions, with every pivot row
    divided to 1 as it is found: the oracle for the integer elimination."""
    if not rows:
        return []
    ncols = len(rows[0])
    pivots = {}  # pivot column -> its RREF row
    for dense in rows:
        row = {j: Fraction(x) for j, x in enumerate(dense) if x}
        for p in [j for j in row if j in pivots]:
            _subtract(row, row[p], pivots[p])
        if row:
            c = min(row)
            row = {j: x / row[c] for j, x in row.items()}
            for other in pivots.values():
                if c in other:
                    _subtract(other, other[c], row)
            pivots[c] = row
    free = {c: [Fraction(0)] * ncols for c in range(ncols) if c not in pivots}
    for c, vec in free.items():
        vec[c] = Fraction(1)
    for p, row in pivots.items():
        for j, x in row.items():
            if j in free:
                free[j][p] = -x
    return list(free.values())


int_matrices = st.integers(1, 7).flatmap(
    lambda ncols: st.lists(
        st.lists(st.integers(-4, 4) | st.just(0), min_size=ncols, max_size=ncols), min_size=1, max_size=7
    )
)
wide_fractions = st.one_of(st.just(Fraction(0)), st.fractions(-50, 50, max_denominator=12))
rational_matrices = st.integers(1, 7).flatmap(
    lambda ncols: st.lists(
        st.lists(wide_fractions, min_size=ncols, max_size=ncols), min_size=1, max_size=7
    )
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(int_matrices)
def test_nullspace_matches_fraction_rref_on_integers(rows):
    got = nullspace(rows)
    assert _dense(got, len(rows[0])) == _rref_nullspace(rows)
    assert all(type(x) is Fraction for vec in got for x in vec.values())


@settings(max_examples=100, deadline=None, derandomize=True)
@given(rational_matrices)
def test_nullspace_matches_fraction_rref_on_rationals(rows):
    # dependent rows make pivots that the later rows must share
    rows = rows + [[a + 2 * b for a, b in zip(rows[0], rows[-1])]]
    assert _dense(nullspace(rows), len(rows[0])) == _rref_nullspace(rows)


@pytest.mark.parametrize("m, degree", [(m, 2) for m in range(2, 7)] + [(3, 3), (4, 3)])
def test_kernel_vectors_match_the_fraction_rref_route(monkeypatch, m, degree):
    got = [str(u) for u in springer.kernel_vectors(m, degree)]

    def sparse_rref(rows):
        return [{j: x for j, x in enumerate(vec) if x} for vec in _rref_nullspace(rows)]

    monkeypatch.setattr(springer, "nullspace", sparse_rref)
    assert got == [str(u) for u in springer.kernel_vectors(m, degree)]
