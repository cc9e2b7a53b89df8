"""The box route to the kernel of restriction, kept as a test oracle.

``kernel_vectors`` gives a Q-basis of the relations among the pushdowns of
the monomial box {x^nu : 0 <= nu_i <= degree}, from ``nullspace``, a
rational nullspace by integer elimination.  ``pushdown_act`` pushes the
images of many vectors under one Hecke element down by linearity.  The
registered ``kernel-stability`` check proves stability from the ideal
generators instead; these tests check the box kernel against it.
"""

from fractions import Fraction
from itertools import product
from math import gcd, lcm

from glhecke import polyrep
from glhecke.hecke import HeckeElt
from glhecke.laurent import GS_PROFILE, LaurentPoly, ProfileMismatchError, x_profile
from glhecke.springer import pushdown_poly


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


def pushdown_act(m: int, h: HeckeElt, vectors: list[LaurentPoly]):
    """Yield ``pushdown_poly(m, polyrep.act(h, u))`` for each u in vectors, in
    order, by linearity: P(h u) = sum_nu u_nu P(h x^nu).  Each monomial x^nu
    in the support of the vectors is acted on and pushed down once, as a
    sparse column; each vector then combines the columns with its integer
    coefficients."""
    profile = x_profile(m)
    columns: dict[tuple[int, ...], list[tuple[int, tuple[int, int], int]]] = {}
    for u in vectors:
        if u.profile != profile:
            raise ProfileMismatchError(f"expected a vector over {profile}, got {u.profile}")
        for nu in u.terms:
            if nu not in columns:
                pushed = pushdown_poly(m, polyrep.act(h, LaurentPoly.monomial(profile, nu)))
                columns[nu] = [(k, gk, c) for k in range(m) for gk, c in pushed[k].terms.items()]
    for u in vectors:
        rows: list[dict[tuple[int, int], int]] = [dict() for _ in range(m)]
        for nu, a in u.terms.items():
            for k, gk, c in columns[nu]:
                row = rows[k]
                row[gk] = row.get(gk, 0) + a * c
        yield tuple(LaurentPoly(GS_PROFILE, {gk: c for gk, c in row.items() if c}) for row in rows)
