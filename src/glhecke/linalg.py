"""Small exact linear algebra: symbolic determinants over the Laurent ring
Z[g^{+-1}, s^{+-1}] by fraction-free Bareiss elimination (``det_laurent``),
with signed permutation expansion (``det_expansion``) kept as its
independent oracle.
"""

from __future__ import annotations

from itertools import permutations

from .laurent import LaurentPoly

__all__ = [
    "det_laurent",
    "det_expansion",
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
