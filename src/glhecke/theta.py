"""The rank-m IC-basis module, its generator matrices, and orbit labels.

The module with basis IC^0, ..., IC^{m-1} over Z[g^{+-1}, s^{+-1}] is built
by transport from the Springer K-module: the unique module isomorphism sends
the theorem basis B_i = s^{i(m-i)} L_{-omega_i} (B_0 = O) to IC^i, so every
generator matrix here is literally the matrix of ``springer.k_act`` in the
theorem basis.  The quadratic, braid, Tw[1] and Bernstein relations are
checked on these cached matrices, as matrix products.  That is exact: every
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

from dataclasses import dataclass
from functools import reduce
from itertools import combinations, permutations, product
from operator import mul

from . import springer
from .hecke import HeckeElt, parse_hecke
from .laurent import GS_PROFILE, LaurentPoly
from .linalg import det_laurent

__all__ = [
    "ThetaVector",
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
    "s_nm_size",
    "condition1_brute",
]

_ONE = LaurentPoly.one(GS_PROFILE)
_ZERO = LaurentPoly.zero(GS_PROFILE)


def _gs(ge: int, se: int, c: int = 1) -> LaurentPoly:
    return LaurentPoly.monomial(GS_PROFILE, (ge, se), c)


_S_INV = _gs(0, -1)
_S = _gs(0, 1)
_V = _gs(0, 2)


PolyMatrix = list[list[LaurentPoly]]


@dataclass(frozen=True)
class ThetaVector:
    """Coordinates in the basis IC^0..IC^{m-1} over Z[g^{+-1}, s^{+-1}]."""

    coords: tuple[LaurentPoly, ...]

    @property
    def m(self) -> int:
        return len(self.coords)

    @staticmethod
    def ic(m: int, k: int) -> "ThetaVector":
        """IC^k for any integer k, wrapped by IC^{k+m} = g^{-1} IC^k."""
        q, r = divmod(k, m)
        coords = [_ZERO] * m
        coords[r] = _gs(-q, 0)
        return ThetaVector(tuple(coords))

    def __add__(self, other: "ThetaVector") -> "ThetaVector":
        return ThetaVector(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "ThetaVector") -> "ThetaVector":
        return ThetaVector(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def scale(self, c: LaurentPoly | int) -> "ThetaVector":
        return ThetaVector(tuple(x * c for x in self.coords))


def mat_vec(mat: PolyMatrix, vec: ThetaVector) -> ThetaVector:
    m = len(mat)
    out = []
    for i in range(m):
        acc = LaurentPoly.zero(GS_PROFILE)
        for j in range(m):
            if not (mat[i][j].is_zero() or vec.coords[j].is_zero()):
                acc = acc + mat[i][j] * vec.coords[j]
        out.append(acc)
    return ThetaVector(tuple(out))


def _poly_mat_mul(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = LaurentPoly.zero(GS_PROFILE)
            for k in range(n):
                if not (a[i][k].is_zero() or b[k][j].is_zero()):
                    acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(row)
    return out


def generator_keys(m: int) -> list[str]:
    keys = [f"T[{i}]" for i in range(1, m + 1)] if m >= 2 else []
    keys.append("Tw[1]")
    for i in range(1, m):
        omega_i = ",".join(["1"] * i + ["0"] * (m - i))
        keys.append(f"e[{omega_i}]")
    keys.extend(["g", "s"])
    return keys


def _matrix_of(m: int, h: HeckeElt) -> PolyMatrix:
    basis = springer.theorem_basis(m)
    cols = [springer.k_act(h, b).coords for b in basis]
    return [[cols[j][i] for j in range(m)] for i in range(m)]


def _scalar_matrix(m: int, c: LaurentPoly) -> PolyMatrix:
    return [[c if i == j else _ZERO for j in range(m)] for i in range(m)]


_SCALARS = {"g": _gs(1, 0), "s": _S}
_matrix_cache: dict[tuple[int, str], PolyMatrix] = {}


def _matrix(m: int, key: str) -> PolyMatrix:
    """The cached matrix of a generator key, or of ``Tw[-1]``, in the basis
    IC^0..IC^{m-1}."""
    got = _matrix_cache.get((m, key))
    if got is None:
        if key in _SCALARS:
            got = _scalar_matrix(m, _SCALARS[key])
        else:
            got = _matrix_of(m, parse_hecke(m, key))
        _matrix_cache[(m, key)] = got
    return got


def theta_action_matrices(m: int) -> dict[str, PolyMatrix]:
    """Generator matrices in the basis IC^0..IC^{m-1}; entries are exact
    Laurent polynomials in g and s (integrality is enforced, not assumed)."""
    return {key: _matrix(m, key) for key in generator_keys(m)}


# -- defining relations, checked on the cached matrices ------------------------


def _default_box(m: int) -> list[tuple[int, ...]]:
    """Cocharacters with entries in {-1,0,1} supported on at most two
    coordinates, plus the fundamental ones."""
    box = {(0,) * m}
    for i in range(m):
        for v in (-1, 1):
            lam = [0] * m
            lam[i] = v
            box.add(tuple(lam))
    for i, j in combinations(range(m), 2):
        for vi, vj in product((-1, 1), repeat=2):
            lam = [0] * m
            lam[i], lam[j] = vi, vj
            box.add(tuple(lam))
    for i in range(1, m):
        box.add(tuple([1] * i + [0] * (m - i)))
    return sorted(box)


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
        conj = reduce(_poly_mat_mul, [w, _matrix(m, f"T[{i}]"), winv])
        if conj != _matrix(m, f"T[{i % m + 1}]"):
            failures.append(f"conjugation Tw[1] T[{i}]")
    return failures


def check_defining_relations(m: int) -> list[str]:
    """Verify the Hecke presentation on the transported module; returns the
    violated relations (empty means the action is a genuine module structure).

    Every relation but e-multiplicativity is a product of cached matrices.
    With E_lam the matrix of e^lam, D(lam) = T_i E_{s_i lam} - E_lam T_i and
    Delta_i(lam) = (e^lam - e^{s_i lam}) / (1 - e^{-alpha_i}), the Bernstein
    relation D(lam) = (1 - v) E_{Delta_i(lam)} is checked at the units
    lam = eps_k, where Delta_i(eps_k) is e^{eps_i}, -e^{eps_i} or 0 as k = i,
    i + 1 or neither.  That proves it on all of Z^m.  Given e-multiplicativity
    (checked on line-bundle tuples, plus one spot check through
    ``springer.k_act``), both sides vanish at 0 and obey the twisted Leibniz
    rule D(lam + mu) = E_lam D(mu) + D(lam) E_{s_i mu}, hence D(-lam) =
    -E_{-lam} D(lam) E_{-s_i lam}; for Delta_i the rule reads e^{lam+mu} -
    e^{s_i(lam+mu)} = e^lam (e^mu - e^{s_i mu}) + (e^lam - e^{s_i lam}) e^{s_i mu}."""
    failures: list[str] = []
    t = {i: _matrix(m, f"T[{i}]") for i in range(1, m + 1)} if m >= 2 else {}

    # quadratic: T_i^2 = (v - 1) T_i + v
    v_minus_1 = _V - _ONE
    for i, ti in t.items():
        rhs = [
            [x * v_minus_1 + (_V if a == b else _ZERO) for b, x in enumerate(row)]
            for a, row in enumerate(ti)
        ]
        if _poly_mat_mul(ti, ti) != rhs:
            failures.append(f"quadratic T[{i}]")
    # braid: cyclic adjacency for m >= 3; m = 2 has no braid relation
    if m >= 3:
        for i in range(1, m + 1):
            for j in range(i + 1, m + 1):
                adjacent = (j - i) % m in (1, m - 1)
                a, b = t[i], t[j]
                word_l = [a, b, a] if adjacent else [a, b]
                word_r = [b, a, b] if adjacent else [b, a]
                if reduce(_poly_mat_mul, word_l) != reduce(_poly_mat_mul, word_r):
                    failures.append(f"{'braid' if adjacent else 'commute'} T[{i}],T[{j}]")
    # Bernstein at the unit cocharacters, finite nodes (see the docstring)
    units = [tuple(int(j == k) for j in range(m)) for k in range(m)]
    e_unit = [_matrix(m, "e[" + ",".join(map(str, lam)) + "]") for lam in units]
    for i in range(1, m):
        for k, lam in enumerate(units):
            c = (_ONE - _V) * (1 if k == i - 1 else -1 if k == i else 0)
            lhs = _poly_mat_mul(t[i], e_unit[{i - 1: i, i: i - 1}.get(k, k)])
            rhs = _poly_mat_mul(e_unit[k], t[i])
            if lhs != [[y + c * z for y, z in zip(r, er)] for r, er in zip(rhs, e_unit[i - 1])]:
                failures.append(f"bernstein T[{i}] lam={lam}")
    # e^lam e^mu = e^(lam+mu): the translations act diagonally by line-bundle
    # tuples, so multiplicativity is the pointwise monomial identity
    # L_lam = prod_j L_(eps_j)^(lam_j), checked once per lam in the box ...
    eps = [springer.restrict_line_bundle(m, lam).entries for lam in units]
    for lam in _default_box(m):
        l_lam = springer.restrict_line_bundle(m, lam).entries
        if any(
            l_lam[k] != reduce(mul, (e[k] ** lj for e, lj in zip(eps, lam) if lj), _ONE)
            for k in range(m)
        ):
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
    """Determinant of the fixed-point matrix of the m vectors Tw[1]^k IC^0,
    computed by actually iterating the action (not assumed to be a shift);
    nonzero exactly when the orbit is a basis over the fraction field.
    Row differencing rebuilds every row from the theorem-basis coordinates C
    that ``k_act`` returns, so the matrix is V C and det = det V * det C."""
    w1 = HeckeElt.tw(m, 1)
    orbit = [springer.structure_sheaf(m)]
    for _ in range(m - 1):
        orbit.append(springer.k_act(w1, orbit[-1]))
    coords = [[orbit[j].coords[k] for j in range(m)] for k in range(m)]
    return springer._theorem_data(m).det * det_laurent(coords)


# -- the sheaf-function dictionary ---------------------------------------------


def _ls_operator(m: int, i: int, convention: str, shriek: bool) -> PolyMatrix:
    """[L_{s_i}] = c (T[i] + d) and [L_{s_i,!}] = c T[i] under one twist
    convention (see the module docstring)."""
    if convention == "A":
        c, d = _S_INV, _ONE
    elif convention == "B":
        c, d = -_S_INV, -_V
    else:
        raise ValueError(f"convention must be 'A' or 'B', got {convention!r}")
    t, shift = _matrix(m, f"T[{i}]"), _scalar_matrix(m, _ZERO if shriek else d)
    return [[(x + y) * c for x, y in zip(t_row, s_row)] for t_row, s_row in zip(t, shift)]


FORMULA_IDS = [
    "L[s_i] on IC^i -> IC^{i+1} + IC^{i-1}",
    "L[s_i,!] on IC^i -> IC^{i+1,!} + IC^{i-1}",
    "L[s_i] on IC^j (j != i) -> (s + s^-1) IC^j",
    "L[s_i,!] on IC^j (j != i) -> s IC^j",
    "L[w_i] on IC^k -> IC^{k+i}",
]


def ic_sheaf_dictionary(m: int, convention: str) -> dict[str, bool]:
    """Evaluate the five formula families of the rank-m theorem through the
    action matrices under one twist convention; True means every instance
    matches."""
    results: dict[str, bool] = {}
    sum_shift = _S + _S_INV
    ok1 = ok2 = ok3 = ok4 = True
    for i in range(1, m + 1):
        if m < 2:
            break
        ls = _ls_operator(m, i, convention, shriek=False)
        lsq = _ls_operator(m, i, convention, shriek=True)
        ic_i = ThetaVector.ic(m, i)
        want1 = ThetaVector.ic(m, i + 1) + ThetaVector.ic(m, i - 1)
        if mat_vec(ls, ic_i).coords != want1.coords:
            ok1 = False
        want2 = (
            ThetaVector.ic(m, i + 1)
            - ThetaVector.ic(m, i).scale(_S_INV)
            + ThetaVector.ic(m, i - 1)
        )
        if mat_vec(lsq, ic_i).coords != want2.coords:
            ok2 = False
        for j in range(m):
            if (j - i) % m == 0:
                continue
            ic_j = ThetaVector.ic(m, j)
            if mat_vec(ls, ic_j).coords != ic_j.scale(sum_shift).coords:
                ok3 = False
            if mat_vec(lsq, ic_j).coords != ic_j.scale(_S).coords:
                ok4 = False
    results[FORMULA_IDS[0]] = ok1
    results[FORMULA_IDS[1]] = ok2
    results[FORMULA_IDS[2]] = ok3
    results[FORMULA_IDS[3]] = ok4
    w = _matrix(m, "Tw[1]")
    ok5 = True
    power = _scalar_matrix(m, _ONE)
    for i in range(1, m + 1):
        power = _poly_mat_mul(w, power)
        for k in range(m):
            if mat_vec(power, ThetaVector.ic(m, k)).coords != ThetaVector.ic(m, k + i).coords:
                ok5 = False
    results[FORMULA_IDS[4]] = ok5
    return results


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


@dataclass(frozen=True)
class OrbitLabel:
    """A cocharacter in Z^n and an injection datum: subset holds I_s as a
    sorted tuple of 1-based columns, bij[t] is the value s(subset[t]) in 1..n."""

    lam: tuple[int, ...]
    subset: tuple[int, ...]
    bij: tuple[int, ...]


def s_nm_size(n: int, m: int) -> int:
    out = 1
    for t in range(m - n + 1, m + 1):
        out *= t
    return out


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
    for nu in set(permutations(lam)):
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
