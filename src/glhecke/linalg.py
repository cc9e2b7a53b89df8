"""Small exact linear algebra: symbolic determinants over the Laurent ring
Z[g^{+-1}, s^{+-1}] by fraction-free Bareiss elimination (``det_laurent``),
with signed permutation expansion (``det_expansion``) kept as its
independent oracle, and rational nullspaces by integer elimination: rows
are cleared of denominators, reduced over Z with primitive pivot rows, and
divided by their pivots only when the RREF basis is read off, as sparse
maps of Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import gcd, lcm

from .laurent import LaurentPoly

__all__ = [
    "det_laurent",
    "det_expansion",
    "nullspace",
]


def det_expansion(m: list[list[LaurentPoly]]) -> LaurentPoly:
    """Determinant by signed permutation expansion; kept as an independent
    oracle for the Bareiss determinant on small matrices."""
    n = len(m)
    if n == 0:
        raise ValueError("empty matrix")
    profile = m[0][0].profile
    total = LaurentPoly.zero(profile)
    for perm in permutations(range(n)):
        sign = 1
        seen = [False] * n
        for start in range(n):
            if seen[start]:
                continue
            length = 0
            j = start
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        prod = LaurentPoly.const(profile, sign)
        for i in range(n):
            entry = m[i][perm[i]]
            if entry.is_zero():
                prod = LaurentPoly.zero(profile)
                break
            prod = prod * entry
        total = total + prod
    return total


def det_laurent(m: list[list[LaurentPoly]]) -> LaurentPoly:
    """Fraction-free Bareiss determinant over the Laurent ring; every
    division in the sweep is exact by the Sylvester identity."""
    n = len(m)
    if n == 0:
        raise ValueError("empty matrix")
    profile = m[0][0].profile
    a = [row[:] for row in m]
    sign = 1
    prev = LaurentPoly.one(profile)
    for k in range(n - 1):
        if a[k][k].is_zero():
            pivot_row = next((r for r in range(k + 1, n) if not a[r][k].is_zero()), None)
            if pivot_row is None:
                return LaurentPoly.zero(profile)
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        pkk = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[i][j] * pkk - a[i][k] * a[k][j]
                q = num.div_exact(prev)
                if q is None:
                    raise AssertionError("Bareiss division failed")
                a[i][j] = q
            a[i][k] = LaurentPoly.zero(profile)
        prev = pkk
    return a[n - 1][n - 1] * sign


def _eliminate(row: dict[int, int], c: int, pivot: dict[int, int]) -> None:
    """Clear column c of ``row`` in place with the integer pivot row ``pivot``:
    row := (p/g)*row - (a/g)*pivot for a = row[c], p = pivot[c], g = gcd(a, p).
    Entries that become zero are dropped; the row is not made primitive."""
    a, p = row[c], pivot[c]
    g = gcd(a, p)
    a, p = a // g, p // g
    if p != 1:
        for j in row:
            row[j] *= p
    for j, x in pivot.items():
        y = row.get(j, 0) - a * x
        if y:
            row[j] = y
        else:
            del row[j]


def _primitive(row: dict[int, int], c: int) -> dict[int, int]:
    """``row`` divided by the gcd of its entries, signed so that row[c] > 0."""
    g = gcd(*row.values())
    if row[c] < 0:
        g = -g
    return row if g == 1 else {j: x // g for j, x in row.items()}


def nullspace(rows: list[list[Fraction | int]]) -> list[dict[int, Fraction]]:
    """Basis of the right nullspace of a matrix over Q (Fraction or int
    entries), read off its reduced row echelon form: one vector per free
    column, ascending, with 1 there and 0 at the other free columns.  Each
    vector is a sparse ``{column: Fraction}`` map of its nonzero entries in
    ascending column order.

    The elimination runs over Z.  Each row is scaled by the lcm of its
    denominators and reduced, as a sparse ``{column: int}`` map, against the
    pivot rows so far, which are primitive (gcd 1, positive pivot) and zero
    at every other pivot column.  Only the read-off divides by the pivots,
    and the RREF is unique, so the basis is the one a Fraction RREF gives."""
    if not rows:
        return []
    ncols = len(rows[0])
    pivots: dict[int, dict[int, int]] = {}  # pivot column -> its primitive row
    for dense in rows:
        support = [(j, x) for j, x in enumerate(dense) if x]
        den = lcm(*(x.denominator for _, x in support))
        row = {j: int(x * den) for j, x in support}
        for p in [j for j in row if j in pivots]:
            _eliminate(row, p, pivots[p])
        if row:
            c = min(row)
            row = _primitive(row, c)
            for q, other in pivots.items():
                if c in other:
                    _eliminate(other, c, row)
                    pivots[q] = _primitive(other, q)
            pivots[c] = row
    free: dict[int, dict[int, Fraction]] = {c: {} for c in range(ncols) if c not in pivots}
    for p in sorted(pivots):
        row = pivots[p]
        pv = row[p]
        for j, x in row.items():
            if j in free:
                free[j][p] = Fraction(-x, pv)
    for c, vec in free.items():
        vec[c] = Fraction(1)  # after its pivot columns, which all lie left of c
    return list(free.values())
