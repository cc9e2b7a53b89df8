"""Small exact linear algebra over the fraction field of Z[g^{+-1}, s^{+-1}].

Entries are RationalFn pairs (numerator, denominator LaurentPoly) with light
normalization: integer content and monomial content are stripped and exact
divisions collapsed, but no multivariate gcd is attempted.  Everything stays
exact; zero tests reduce to zero tests on numerators.

Also: symbolic determinants over the Laurent ring by fraction-free Bareiss
elimination (``det_laurent``), with signed permutation expansion
(``det_expansion``) kept as its independent oracle, and rational nullspaces
over plain Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import gcd

from .laurent import LaurentPoly

__all__ = [
    "RationalFn",
    "det_laurent",
    "det_expansion",
    "nullspace",
]


def _content(p: LaurentPoly) -> int:
    c = 0
    for v in p.terms.values():
        c = gcd(c, abs(v))
        if c == 1:
            return 1
    return c or 1


def _monomial_shift(p: LaurentPoly) -> tuple[int, ...]:
    n = len(p.profile)
    return tuple(min(k[i] for k in p.terms) for i in range(n))


def _shift(p: LaurentPoly, by: tuple[int, ...]) -> LaurentPoly:
    return LaurentPoly(
        p.profile, {tuple(e - s for e, s in zip(k, by)): c for k, c in p.terms.items()}
    )


class RationalFn:
    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly | None = None, reduce: bool = True):
        if den is None:
            den = LaurentPoly.one(num.profile)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if reduce and not num.is_zero():
            q = num.div_exact(den)
            if q is not None:
                num, den = q, LaurentPoly.one(num.profile)
            else:
                shift = _monomial_shift(den)
                if any(shift):
                    den = _shift(den, shift)
                    num = _shift(num, shift)
                c = gcd(_content(num), _content(den))
                if c > 1:
                    num = LaurentPoly(num.profile, {k: v // c for k, v in num.terms.items()})
                    den = LaurentPoly(den.profile, {k: v // c for k, v in den.terms.items()})
        if num.is_zero():
            den = LaurentPoly.one(num.profile)
        self.num = num
        self.den = den

    @staticmethod
    def of(p: LaurentPoly) -> "RationalFn":
        return RationalFn(p, None, reduce=False)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __add__(self, other: "RationalFn") -> "RationalFn":
        if self.den == other.den:
            return RationalFn(self.num + other.num, self.den)
        return RationalFn(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other: "RationalFn") -> "RationalFn":
        if self.den == other.den:
            return RationalFn(self.num - other.num, self.den)
        return RationalFn(self.num * other.den - other.num * self.den, self.den * other.den)

    def __neg__(self) -> "RationalFn":
        return RationalFn(-self.num, self.den, reduce=False)

    def __mul__(self, other: "RationalFn") -> "RationalFn":
        if self.num.is_zero() or other.num.is_zero():
            return RationalFn(LaurentPoly.zero(self.num.profile), None, reduce=False)
        return RationalFn(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RationalFn") -> "RationalFn":
        if other.num.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFn(self.num * other.den, self.den * other.num)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalFn):
            return NotImplemented
        return (self.num * other.den) == (other.num * self.den)

    def __hash__(self) -> int:
        raise TypeError("RationalFn is not hashable")

    def to_laurent(self) -> LaurentPoly | None:
        """The Laurent polynomial this equals, or None if denominators do
        not clear."""
        if self.den.is_one():
            return self.num
        return self.num.div_exact(self.den)

    def __str__(self) -> str:
        if self.den.is_one():
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    __repr__ = __str__


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


def _subtract(row: dict[int, Fraction], f: Fraction, pivot: dict[int, Fraction]) -> None:
    """row -= f * pivot in place, dropping the entries that become zero."""
    for j, x in pivot.items():
        y = row.get(j, 0) - f * x
        if y:
            row[j] = y
        else:
            del row[j]


def nullspace(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Basis of the right nullspace of a matrix over Q, read off its reduced
    row echelon form: one vector per free column, ascending, with 1 there and
    0 at the other free columns.  Rows are reduced one at a time, as sparse
    ``{column: value}`` maps, against the fully reduced pivot rows so far."""
    if not rows:
        return []
    ncols = len(rows[0])
    pivots: dict[int, dict[int, Fraction]] = {}  # pivot column -> its RREF row
    for dense in rows:
        row = {j: x for j, x in enumerate(dense) if x}
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
