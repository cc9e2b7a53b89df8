"""The rank-m IC-basis module, its generator matrices, and orbit labels.

The module with basis IC^0, ..., IC^{m-1} over Z[g^{+-1}, s^{+-1}] is built
by transport from the Springer K-module: the unique module isomorphism sends
the theorem basis B_i = s^{i(m-i)} L_{-omega_i} (B_0 = O) to IC^i, so every
generator matrix here is literally the matrix of ``springer.k_act`` in the
theorem basis.  The matrices are cached as sparse rows; ``T[i]`` has about
m nonzero entries and ``e[..]`` about 3m.  The quadratic, braid, Tw[1] and
Bernstein relations are checked on them as O(m) sparse matrix products
(``check_defining_relations`` says why that many suffice).  That is exact: every
stage of ``k_act`` (lift, polynomial action, pushdown, theorem-basis
coordinates) is linear over Z[g^{+-1}, s^{+-1}], so applying a word of
generators to a basis vector gives the matching column of the product of
their matrices.  Extended indices wrap by IC^{k+m} = g^{-1} IC^k, and
multiplication by s stands for the cohomological shift [-1], so a shift [1]
contributes s^{-1} and IC^{k,!} = IC^k - s^{-1} IC^{k-1}.

The sheaf-function dictionary is deliberately two-headed: the print source
does not pin the K-class of the normalized intersection form on a one-cell
closure, so ``ic_sheaf_dictionary`` evaluates both candidate readings

    A:  [L_{s_i}] = s^{-1} (T_i + 1),    [L_{s_i!}] =  s^{-1} T_i
    B:  [L_{s_i}] = -s^{-1} (T_i - v),   [L_{s_i!}] = -s^{-1} T_i

through the matrices and reports, per formula, which reading matches; it
never guesses.

Orbit labels for the (GL_n, GL_m) correspondence are pairs of a cocharacter
in Z^n and an injection datum (I_s, s); the admissible cocharacters under
the bounds (N, r) form the box -N <= lam_i <= r.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations, combinations_with_replacement, permutations, product
from typing import NamedTuple

from . import springer
from .hecke import HeckeElt, parse_hecke
from .laurent import GS_PROFILE, LaurentPoly, orbit
from .linalg import det_laurent

__all__ = [
    "theta_action_matrices",
    "generator_keys",
    "check_defining_relations",
    "check_conjugation",
    "freeness_determinant",
    "ic_sheaf_dictionary",
    "dictionary_report",
    "OrbitLabel",
    "enumerate_orbits",
    "orbit_representative",
    "condition1_brute",
]

_ONE = LaurentPoly.one(GS_PROFILE)
_ZERO = LaurentPoly.zero(GS_PROFILE)


def _gs(ge: int, se: int) -> LaurentPoly:
    return LaurentPoly.monomial(GS_PROFILE, (ge, se))


_S_INV = _gs(0, -1)
_S = _gs(0, 1)
_V = _gs(0, 2)


PolyMatrix = list[list[LaurentPoly]]
# A sparse matrix: one {column: entry} dict per row, with no zero entries, so
# equal matrices have equal rows.
SparseRows = list[dict[int, LaurentPoly]]


def _poly_mat_mul(a: SparseRows, b: SparseRows) -> SparseRows:
    """a b, row by row over the nonzero entries only (Gustavson, ACM TOMS
    4(3), 1978): row i of the product sums a[i][k] * (row k of b)."""
    out = []
    for row in a:
        acc: dict[int, LaurentPoly] = {}
        for k, x in row.items():
            for j, y in b[k].items():
                z = acc.get(j)
                acc[j] = x * y if z is None else z + x * y
        out.append({j: z for j, z in acc.items() if not z.is_zero()})
    return out


def _add(a: SparseRows, b: SparseRows, c: LaurentPoly = _ONE) -> SparseRows:
    """a + c b."""
    out = []
    for ra, rb in zip(a, b):
        row = dict(ra)
        for j, y in rb.items():
            z = row.get(j, _ZERO) + y * c
            if z.is_zero():
                row.pop(j, None)
            else:
                row[j] = z
        out.append(row)
    return out


def _scale(a: SparseRows, c: LaurentPoly) -> SparseRows:
    """c a; c must be nonzero."""
    return [{j: x * c for j, x in row.items()} for row in a]


def _ic(m: int, k: int) -> SparseRows:
    """IC^k as an m x 1 column, for any integer k, wrapped by
    IC^{k+m} = g^{-1} IC^k."""
    q, r = divmod(k, m)
    return [{0: _gs(-q, 0)} if j == r else {} for j in range(m)]


def _dense(mat: SparseRows) -> PolyMatrix:
    return [[row.get(j, _ZERO) for j in range(len(mat))] for row in mat]


def generator_keys(m: int) -> list[str]:
    keys = [f"T[{i}]" for i in range(1, m + 1)] if m >= 2 else []
    keys.append("Tw[1]")
    for i in range(1, m):
        omega_i = ",".join(["1"] * i + ["0"] * (m - i))
        keys.append(f"e[{omega_i}]")
    keys.extend(["g", "s"])
    return keys


def _matrix_of(m: int, h: HeckeElt) -> SparseRows:
    """The matrix of h: column i holds the coordinates of h acting on B_i,
    which ``k_act`` reads off B_i's unit coordinate vector."""
    cols = [springer.k_act(h, b).coords for b in springer.theorem_basis(m)]
    return [{j: col[i] for j, col in enumerate(cols) if not col[i].is_zero()} for i in range(m)]


def _scalar_matrix(m: int, c: LaurentPoly) -> SparseRows:
    """c times the identity; c must be nonzero."""
    return [{i: c} for i in range(m)]


_SCALARS = {"g": _gs(1, 0), "s": _S}


@cache
def _matrix(m: int, key: str) -> SparseRows:
    """The cached matrix of a generator key, or of any other Hecke literal
    such as ``Tw[-1]`` or ``e[0,1,0]``, in the basis IC^0..IC^{m-1}."""
    if key in _SCALARS:
        return _scalar_matrix(m, _SCALARS[key])
    return _matrix_of(m, parse_hecke(m, key))


def theta_action_matrices(m: int) -> dict[str, PolyMatrix]:
    """Generator matrices in the basis IC^0..IC^{m-1}, dense, zeros included;
    entries are exact Laurent polynomials in g and s (integrality is
    enforced, not assumed)."""
    return {key: _dense(_matrix(m, key)) for key in generator_keys(m)}


# -- defining relations, checked on the cached matrices ------------------------


def _unit_key(m: int, k: int) -> str:
    """The key of e^(eps_k), k = 1..m."""
    return "e[" + ",".join("1" if j == k else "0" for j in range(1, m + 1)) + "]"


def check_conjugation(m: int) -> list[str]:
    """Check Tw[1] Tw[-1] = 1 and Tw[1] T[i] Tw[-1] = T[i+1] (indices mod m)
    on the cached matrices: conjugation by the length-zero generator rotates
    the nodes.  Returns the violated relations."""
    if m < 2:
        return []
    failures: list[str] = []
    w, winv = _matrix(m, "Tw[1]"), _matrix(m, "Tw[-1]")
    if _poly_mat_mul(w, winv) != _scalar_matrix(m, _ONE):
        failures.append("Tw[1] inverse")
    for i in range(1, m + 1):
        conj = _poly_mat_mul(_poly_mat_mul(w, _matrix(m, f"T[{i}]")), winv)
        if conj != _matrix(m, f"T[{i % m + 1}]"):
            failures.append(f"conjugation Tw[1] T[{i}]")
    return failures


def check_defining_relations(m: int) -> list[str]:
    """Verify the Hecke presentation on the transported module; returns the
    violated relations (empty means the action is a genuine module structure).

    Every relation but e-multiplicativity is a product of cached sparse
    matrices, and O(m) products suffice.  Write W = Tw[1], T_i = T[i] and
    E_k for the matrix of e^(eps_k).

    Finite and affine nodes.  ``check_conjugation`` proves W Tw[-1] = 1, so
    Tw[-1] = W^-1 (the ring is commutative), and W T_i W^-1 = T_(i+1) for
    every i mod m.  Conjugation by W^(i-1) is a ring automorphism taking
    T_1 to T_i, so the quadratic relation at i = 1, braid (1, 2) and commute
    (1, j) for j = 3..m-1 give every quadratic relation, every braid
    relation of a cyclically adjacent pair (i, i+1) and every commute
    relation of a pair at cyclic distance j - 1 in 2..m-2, i.e. all of them.

    Bernstein at the units.  With E_lam the matrix of e^lam,
    D(lam) = T_i E_(s_i lam) - E_lam T_i and
    Delta_i(lam) = (e^lam - e^(s_i lam)) / (1 - e^(-alpha_i)), the relation
    D(lam) = (1 - v) E_(Delta_i(lam)) at lam = eps_k, where Delta_i(eps_k)
    is e^(eps_i), -e^(eps_i) or 0 as k = i, i + 1 or neither, reads
      (a) T_i E_(i+1) - E_i T_i = (1 - v) E_i, i.e. T_i E_(i+1) T_i = v E_i
          (the quadratic relation gives T_i^-1 = v^-1 (T_i + 1 - v));
      (b) T_i E_i - E_(i+1) T_i = (v - 1) E_i;
      (c) T_i E_k = E_k T_i for k not in {i, i + 1}.
    Only (a) for i = 1..m-1 and (c) for k = 1, i = 2..m-1 are checked.
    (b) follows from (a): E_(i+1) T_i = v T_i^-1 E_i and
    T_i - v T_i^-1 = v - 1.  By (a), E_k = v^(k-1) X E_1 X' with
    X = T_(k-1)^-1 ... T_1^-1 and X' = T_1^-1 ... T_(k-1)^-1.  If i > k,
    T_i commutes with X, X' and E_1; if i < k - 1, the braid relations give
    T_i X = X T_(i+1) and T_(i+1) X' = X' T_i, and T_(i+1) commutes with
    E_1; either way T_i E_k = E_k T_i, which is the rest of (c).  Conjugation
    by W does not carry E_k to any E_j (the lattice part of the Bernstein
    presentation is not stable under it), so it cannot move (a) and (c)
    from one node to the next.

    All of Z^m.  Given e-multiplicativity, both sides of the Bernstein
    relation vanish at 0 and obey the twisted Leibniz rule
    D(lam + mu) = E_lam D(mu) + D(lam) E_(s_i mu), hence
    D(-lam) = -E_(-lam) D(lam) E_(-s_i lam); for Delta_i the rule reads
    e^(lam+mu) - e^(s_i(lam+mu)) = e^lam (e^mu - e^(s_i mu))
    + (e^lam - e^(s_i lam)) e^(s_i mu).  So the units prove it on all of Z^m.

    e-multiplicativity.  The translations act diagonally by line-bundle
    tuples, so E_lam E_mu = E_(lam+mu) is the pointwise identity
    L_(lam+mu) = L_lam L_mu.  ``springer.restrict_line_bundle`` gives the
    entry at p_k the g- and s-exponents sum_j w_kj lam_j, linear in lam, so
    lam -> L_lam is a group map by construction.  It is checked at lam = 0
    and on the sums eps_a + eps_b (a <= b), which already pins down any
    exponent formula of degree <= 2 in lam as linear, plus one composite
    spot check through ``springer.k_act``."""
    failures: list[str] = []
    units = [tuple(int(j == k) for j in range(m)) for k in range(m)]
    if m >= 2:
        t = {i: _matrix(m, f"T[{i}]") for i in range(1, m + 1)}
        t1, t2 = t[1], t[2]
        # quadratic: T_1^2 = (v - 1) T_1 + v
        if _poly_mat_mul(t1, t1) != _add(_scalar_matrix(m, _V), t1, _V - _ONE):
            failures.append("quadratic T[1]")
        # braid (1, 2) for m >= 3 (m = 2 has none); commute (1, j), j = 3..m-1
        if m >= 3 and _poly_mat_mul(_poly_mat_mul(t1, t2), t1) != _poly_mat_mul(_poly_mat_mul(t2, t1), t2):
            failures.append("braid T[1],T[2]")
        for j in range(3, m):
            if _poly_mat_mul(t1, t[j]) != _poly_mat_mul(t[j], t1):
                failures.append(f"commute T[1],T[{j}]")
        # Bernstein at the units (see the docstring): (a), then (c) at eps_1
        e = {k: _matrix(m, _unit_key(m, k)) for k in range(1, m + 1)}
        for i in range(1, m):
            rhs = _add(_poly_mat_mul(e[i], t[i]), e[i], _ONE - _V)
            if _poly_mat_mul(t[i], e[i + 1]) != rhs:
                failures.append(f"bernstein T[{i}] lam={units[i - 1]}")
        for i in range(2, m):
            if _poly_mat_mul(t[i], e[1]) != _poly_mat_mul(e[1], t[i]):
                failures.append(f"bernstein T[{i}] lam={units[0]}")
    # e^lam e^mu = e^(lam+mu), pointwise on line-bundle tuples ...
    line = [springer.restrict_line_bundle(m, lam).entries for lam in units]
    if any(x != _ONE for x in springer.restrict_line_bundle(m, (0,) * m).entries):
        failures.append(f"e-multiplicativity lam={(0,) * m}")
    for a, b in combinations_with_replacement(range(m), 2):
        lam = tuple(x + y for x, y in zip(units[a], units[b]))
        got = springer.restrict_line_bundle(m, lam).entries
        if any(got[k] != line[a][k] * line[b][k] for k in range(m)):
            failures.append(f"e-multiplicativity lam={lam}")
    # ... with one composite spot check through the full action path
    eps1 = (1,) + (0,) * (m - 1)
    eps_last = (0,) * (m - 1) + (-1,)
    both = tuple(a + b for a, b in zip(eps1, eps_last))
    for b in springer.theorem_basis(m):
        lhs = springer.k_act(HeckeElt.e(eps1), springer.k_act(HeckeElt.e(eps_last), b))
        if lhs != springer.k_act(HeckeElt.e(both), b):
            failures.append("e-multiplicativity through k_act")
            break
    return failures + check_conjugation(m)


def freeness_determinant(m: int) -> LaurentPoly:
    """det C, for C the theorem-basis coordinates of the m vectors
    Tw[1]^k IC^0, computed by actually iterating the action (not assumed to
    be a shift).  Their fixed-point matrix is V C, of determinant
    det V * det C, and the ``rank`` check proves det V != 0 from its step
    factors, so the orbit is a basis over the fraction field exactly when
    det C != 0."""
    w1 = HeckeElt.tw(m, 1)
    orbit = [springer.structure_sheaf(m)]
    for _ in range(m - 1):
        orbit.append(springer.k_act(w1, orbit[-1]))
    coords = [[orbit[j].coords[k] for j in range(m)] for k in range(m)]
    return det_laurent(coords)


# -- the sheaf-function dictionary ---------------------------------------------


FORMULA_IDS = [
    "L[s_i] on IC^i -> IC^{i+1} + IC^{i-1}",
    "L[s_i,!] on IC^i -> IC^{i+1,!} + IC^{i-1}",
    "L[s_i] on IC^j (j != i) -> (s + s^-1) IC^j",
    "L[s_i,!] on IC^j (j != i) -> s IC^j",
    "L[w_i] on IC^k -> IC^{k+i}",
]


# [L_{s_i}] = c (T[i] + d) and [L_{s_i,!}] = c T[i]: (c, d) per twist
# convention (see the module docstring)
_CONVENTIONS = {"A": (_S_INV, _ONE), "B": (-_S_INV, -_V)}


def ic_sheaf_dictionary(m: int, convention: str) -> dict[str, bool]:
    """Evaluate the five formula families of the rank-m theorem through the
    action matrices under one twist convention; True means every instance
    matches."""
    if convention not in _CONVENTIONS:
        raise ValueError(f"convention must be 'A' or 'B', got {convention!r}")
    c, d = _CONVENTIONS[convention]
    lift, lift_shriek, off_lift, off_shriek, rotate = FORMULA_IDS
    ok = dict.fromkeys(FORMULA_IDS, True)
    sum_shift = _S + _S_INV
    for i in range(1, m + 1) if m >= 2 else ():
        lsq = _scale(_matrix(m, f"T[{i}]"), c)
        ls = _add(lsq, _scalar_matrix(m, c * d))
        ic_i = _ic(m, i)
        want = _add(_ic(m, i + 1), _ic(m, i - 1))
        ok[lift] &= _poly_mat_mul(ls, ic_i) == want
        ok[lift_shriek] &= _poly_mat_mul(lsq, ic_i) == _add(want, ic_i, -_S_INV)
        for j in range(m):
            if (j - i) % m:
                ic_j = _ic(m, j)
                ok[off_lift] &= _poly_mat_mul(ls, ic_j) == _scale(ic_j, sum_shift)
                ok[off_shriek] &= _poly_mat_mul(lsq, ic_j) == _scale(ic_j, _S)
    w = _matrix(m, "Tw[1]")
    power = _scalar_matrix(m, _ONE)
    for i in range(1, m + 1):
        power = _poly_mat_mul(w, power)
        for k in range(m):
            ok[rotate] &= _poly_mat_mul(power, _ic(m, k)) == _ic(m, k + i)
    return ok


def dictionary_report(m: int) -> dict:
    """Deterministic both-convention report for the five formula families."""
    res_a = ic_sheaf_dictionary(m, "A")
    res_b = ic_sheaf_dictionary(m, "B")
    formulas = [
        {
            "id": fid,
            "A": "match" if res_a[fid] else "mismatch",
            "B": "match" if res_b[fid] else "mismatch",
        }
        for fid in FORMULA_IDS
    ]
    all_a = all(res_a.values())
    all_b = all(res_b.values())
    if all_a and not all_b:
        matching = "A"
    elif all_b and not all_a:
        matching = "B"
    elif all_a and all_b:
        matching = "both"
    else:
        matching = "none"
    return {
        "schema": 1,
        "m": m,
        "conventions": {
            "A": {"L[s_i]": "s^-1*(T[i] + 1)", "L[s_i,!]": "s^-1*T[i]"},
            "B": {"L[s_i]": "-s^-1*(T[i] - s^2)", "L[s_i,!]": "-s^-1*T[i]"},
        },
        "wrap": "IC^(k+m) = g^-1*IC^k; shift [1] acts as s^-1; IC^(k,!) = IC^k - s^-1*IC^(k-1)",
        "formulas": formulas,
        "matching_convention": matching,
    }


# -- orbit combinatorics --------------------------------------------------------


class OrbitLabel(NamedTuple):
    """A cocharacter in Z^n and an injection datum: subset holds I_s as a
    sorted tuple of 1-based columns, bij[t] is the value s(subset[t]) in 1..n."""

    lam: tuple[int, ...]
    subset: tuple[int, ...]
    bij: tuple[int, ...]


def injection_data(n: int, m: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    out = []
    for subset in combinations(range(1, m + 1), n):
        for bij in permutations(range(1, n + 1)):
            out.append((subset, bij))
    return out


def enumerate_orbits(n: int, m: int, bound_n: int, bound_r: int) -> list[OrbitLabel]:
    """All labels (lam, (s, I_s)) whose full Weyl orbit satisfies the bounds,
    i.e. -bound_n <= lam_i <= bound_r componentwise."""
    if n > m:
        raise ValueError("n <= m required")
    if bound_n + bound_r <= 0:
        raise ValueError("N + r > 0 required")
    injections = injection_data(n, m)
    out = []
    for lam in product(range(-bound_n, bound_r + 1), repeat=n):
        for subset, bij in injections:
            out.append(OrbitLabel(lam, subset, bij))
    return out


def condition1_brute(lam: tuple[int, ...], bound_n: int, bound_r: int) -> bool:
    """Scan every Weyl conjugate nu of lam: <nu, w_1^vee> <= r and the dual
    bound -nu_n <= N."""
    for nu in orbit(lam):
        if nu[0] > bound_r or -nu[-1] > bound_n:
            return False
    return True


def orbit_representative(label: OrbitLabel, m: int) -> dict[tuple[int, int], int]:
    """The n x m table of monomial entries: position (s(i), i) holds the
    exponent of t, i.e. v(u*_i) = t^{a_{s(i)}} e_{s(i)} for i in I_s."""
    out = {}
    for col, row in zip(label.subset, label.bij):
        out[(row, col)] = label.lam[row - 1]
    return out
