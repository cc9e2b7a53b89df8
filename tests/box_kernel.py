"""The box route to the kernel of restriction, kept as a test oracle.

``kernel_vectors`` gives a Q-basis of the relations among the pushdowns of
the monomial box {x^nu : 0 <= nu_i <= degree}, from ``nullspace``, a sparse
Fraction RREF.  The registered ``kernel-stability`` check proves stability
from the ideal generators instead; these tests check the box kernel against
it, so the two share the pushdown and the action but not the kernel.
"""

from fractions import Fraction
from itertools import product
from math import lcm

from glhecke.laurent import LaurentPoly, x_profile
from glhecke.springer import pushdown_poly


def _subtract(row: dict[int, Fraction], f: Fraction, pivot: dict[int, Fraction]) -> None:
    """row -= f * pivot in place, dropping the entries that become zero."""
    for j, x in pivot.items():
        y = row.get(j, 0) - f * x
        if y:
            row[j] = y
        else:
            del row[j]


def nullspace(rows: list[list[Fraction | int]]) -> list[dict[int, Fraction]]:
    """Basis of the right nullspace of a matrix over Q (Fraction or int
    entries), read off its reduced row echelon form: one vector per free
    column, ascending, with 1 there and 0 at the other free columns.  Each
    vector is a sparse ``{column: Fraction}`` map of its nonzero entries in
    ascending column order.

    Each row, as a sparse ``{column: Fraction}`` map, is reduced against the
    pivot rows so far, which are 1 at their pivot and zero at every other
    pivot column; a new pivot row is divided to 1 and cleared from them."""
    if not rows:
        return []
    ncols = len(rows[0])
    pivots: dict[int, dict[int, Fraction]] = {}  # pivot column -> its RREF row
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
    free: dict[int, dict[int, Fraction]] = {c: {} for c in range(ncols) if c not in pivots}
    for p in sorted(pivots):
        for j, x in pivots[p].items():
            if j in free:
                free[j][p] = -x
    for c, vec in free.items():
        vec[c] = Fraction(1)  # after its pivot columns, which all lie left of c
    return list(free.values())


def kernel_vectors(m: int, degree: int = 1) -> list[LaurentPoly]:
    """A basis of Q-linear relations among the pushdowns of the monomial box
    {x^nu : 0 <= nu_i <= degree}; elements are polynomials in the
    x-profile that restrict to zero on every fixed point."""
    profile = x_profile(m)
    box = list(product(range(degree + 1), repeat=m))
    columns = []
    keys: dict[tuple[int, tuple[int, int]], int] = {}
    for nu in box:
        mono = LaurentPoly.monomial(profile, nu + (0,), 1)
        tup = pushdown_poly(m, mono)
        col = {}
        for k in range(m):
            for gk, c in tup[k].terms.items():
                pos = keys.setdefault((k, gk), len(keys))
                col[pos] = c
        columns.append(col)
    rows = [[0] * len(box) for _ in range(len(keys))]
    for jcol, col in enumerate(columns):
        for pos, c in col.items():
            rows[pos][jcol] = c
    out = []
    for vec in nullspace(rows):
        denom = lcm(*(x.denominator for x in vec.values()))
        out.append(LaurentPoly(profile, {box[j] + (0,): int(x * denom) for j, x in vec.items()}))
    return out
