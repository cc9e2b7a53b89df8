"""Equivariant K-theory of the subregular Springer fiber for GL(m).

The fiber is a chain of m-1 projective lines V_1, ..., V_{m-1} with m torus
fixed points p_1, ..., p_m; the torus scales the standard basis by

    u_1 -> g,    u_j -> s^{m-2(j-1)}   (j >= 2).

Ground truth is the fixed-point representation: a K-class is recorded by its
m restriction entries in Z[g^{+-1}, s^{+-1}].  Line bundles restrict to their
fiber weights; the two declared bases are

  * the theorem basis  B_0 = O,  B_i = s^{i(m-i)} L_{-omega_i}, whose tuples
    are monomial and whose span carries the Hecke action, and
  * the Lusztig basis  O_{p_1}, O_{V_i}(-1), solved from the change-of-basis
    system below rather than re-derived from sheaf theory.  At nodal fixed
    points its entries are honest rational functions, all with denominator
    1 - s^2, so the Lusztig table holds their numerators over 1 - s^2.

The change-of-basis rows (with X_0 = O_{p_1}, X_j = O_{V_j}(-1)):

    O        = X_0 + sum_j s^{2j-m} X_j
    L_omega_k = s^{(k-1)(m-k)} ( sum_{j<=k} X_j + sum_{j>k} s^{2(j-k)} X_j )

The j = k term carries the det-normalization factor s^{(k-1)(m-k)}
(= the weight of det of the fixed part of the flag); dropping it makes the
solved tuples inconsistent with the end-point fiber values.

The Hecke action k_act is linear over Z[g^{+-1}, s^{+-1}]: it acts on the
canonical preimages l_0 = 1, l_i = s^{i(m-i)} e^{omega_i} of the theorem
basis in the polynomial representation, pushes each result down along
e^lam -> L_{-lam}, and sums them with the coordinates of the class as
coefficients.  Well-definedness is the kernel-stability property checked in
the verification suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import lcm
from typing import NamedTuple

from . import polyrep
from .hecke import HeckeElt
from .laurent import GS_PROFILE, LaurentPoly, ProfileMismatchError, is_symmetric, x_profile
from .linalg import det_laurent, nullspace

__all__ = [
    "FixedFlagTable",
    "KClass",
    "SpanError",
    "build_fixed_flags",
    "restrict_line_bundle",
    "structure_sheaf",
    "theorem_basis",
    "declared_bases",
    "BasisTables",
    "LUSZTIG_DENOMINATOR",
    "k_act",
    "res_sigma",
    "bundle_identities_hold",
    "skyscraper_pm",
    "exact_sequence_identities_hold",
    "kernel_vectors",
    "pushdown_act",
    "pushdown_poly",
]


class SpanError(ValueError):
    """A tuple failed to lie in the integral span of the theorem basis."""


def _gs(gexp: int, sexp: int, coeff: int = 1) -> LaurentPoly:
    return LaurentPoly.monomial(GS_PROFILE, (gexp, sexp), coeff)


@dataclass(frozen=True)
class FixedFlagTable:
    """Graded-line weights of the m fixed flags.

    ``weights[k][j]`` is the (g, s)-exponent pair of F_{j+1}/F_j at the fixed
    point p_{k+1}; ``flags[k][j]`` lists which standard vectors span F_{j+1}.
    """

    m: int
    flags: tuple[tuple[tuple[int, ...], ...], ...]
    weights: tuple[tuple[tuple[int, int], ...], ...]

    def weight_poly(self, k: int, j: int) -> LaurentPoly:
        ge, se = self.weights[k][j]
        return _gs(ge, se)


def _vector_weight(m: int, u: int) -> tuple[int, int]:
    # u is 1-based; u_1 -> g, u_j -> s^{m-2(j-1)}
    return (1, 0) if u == 1 else (0, m - 2 * (u - 1))


def build_fixed_flags(m: int) -> FixedFlagTable:
    """The m fixed flags: p_1 is the standard flag, p_k swaps in the shifted
    spaces U'_j = <u_2..u_{j+1}> below level k, p_m uses all of them."""
    if m < 1:
        raise ValueError("rank must be positive")
    flags = []
    for k in range(1, m + 1):
        steps = []
        for j in range(1, m + 1):
            if j < k:
                steps.append(tuple(range(2, j + 2)))  # U'_j
            else:
                steps.append(tuple(range(1, j + 1)))  # U_j
        flags.append(tuple(steps))
    weights = []
    for flag in flags:
        prev: tuple[int, ...] = ()
        row = []
        for step in flag:
            (new,) = set(step) - set(prev)
            row.append(_vector_weight(m, new))
            prev = step
        weights.append(tuple(row))
    return FixedFlagTable(m, tuple(flags), tuple(weights))


_flag_cache: dict[int, FixedFlagTable] = {}


def flags(m: int) -> FixedFlagTable:
    got = _flag_cache.get(m)
    if got is None:
        got = _flag_cache[m] = build_fixed_flags(m)
    return got


@dataclass(frozen=True)
class KClass:
    """An element of the K-module: fixed-point tuple, optionally with
    coordinates in the theorem basis."""

    entries: tuple[LaurentPoly, ...]
    coords: tuple[LaurentPoly, ...] | None = None

    @property
    def m(self) -> int:
        return len(self.entries)

    def __add__(self, other: "KClass") -> "KClass":
        coords = None
        if self.coords is not None and other.coords is not None:
            coords = tuple(a + b for a, b in zip(self.coords, other.coords))
        return KClass(tuple(a + b for a, b in zip(self.entries, other.entries)), coords)

    def __sub__(self, other: "KClass") -> "KClass":
        coords = None
        if self.coords is not None and other.coords is not None:
            coords = tuple(a - b for a, b in zip(self.coords, other.coords))
        return KClass(tuple(a - b for a, b in zip(self.entries, other.entries)), coords)

    def scale(self, c: LaurentPoly | int) -> "KClass":
        coords = None if self.coords is None else tuple(x * c for x in self.coords)
        return KClass(tuple(x * c for x in self.entries), coords)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, KClass) and self.entries == other.entries


def restrict_line_bundle(m: int, lam) -> KClass:
    """L_lam as a fixed-point tuple: entry at p_k is prod_j w(F_j/F_{j-1})^{lam_j}."""
    lam = tuple(lam)
    if len(lam) != m:
        raise ValueError("cocharacter length mismatch")
    table = flags(m)
    entries = []
    for k in range(m):
        ge = se = 0
        for j, lj in enumerate(lam):
            wg, ws = table.weights[k][j]
            ge += wg * lj
            se += ws * lj
        entries.append(_gs(ge, se))
    return KClass(tuple(entries))


def structure_sheaf(m: int) -> KClass:
    unit = tuple(LaurentPoly.one(GS_PROFILE) for _ in range(m))
    coords = tuple(
        LaurentPoly.one(GS_PROFILE) if i == 0 else LaurentPoly.zero(GS_PROFILE)
        for i in range(m)
    )
    return KClass(unit, coords)


def theorem_basis(m: int) -> list[KClass]:
    """B_0 = O and B_i = s^{i(m-i)} L_{-omega_i}, with unit coordinate vectors."""
    out = [structure_sheaf(m)]
    for i in range(1, m):
        omega_i = [-1] * i + [0] * (m - i)
        cls = restrict_line_bundle(m, omega_i).scale(_gs(0, i * (m - i)))
        coords = tuple(
            LaurentPoly.one(GS_PROFILE) if j == i else LaurentPoly.zero(GS_PROFILE)
            for j in range(m)
        )
        out.append(KClass(cls.entries, coords))
    return out


class _TheoremData(NamedTuple):
    """The step shape of V, where V[k][i] is the entry of B_i at p_{k+1}.

    Column 0 of V is all ones, and column i >= 1 is a_i on the rows k < i
    and b_i on the rows k >= i, so rows k-1 and k differ only in column k.
    ``steps[i-1]`` is the pair (b_i, a_i - b_i), and
    det V = (-1)^(m-1) prod_i (a_i - b_i)."""

    steps: list[tuple[LaurentPoly, LaurentPoly]]
    det: LaurentPoly


_basis_cache: dict[int, _TheoremData] = {}


def _theorem_data(m: int) -> _TheoremData:
    """The steps and det V of rank m, built on first use; raises
    AssertionError when V does not have the step shape."""
    got = _basis_cache.get(m)
    if got is None:
        cols = [b.entries for b in theorem_basis(m)]
        one = LaurentPoly.one(GS_PROFILE)
        if cols[0] != (one,) * m:
            raise AssertionError(f"theorem basis m={m}: B_0 is not the unit tuple")
        steps = []
        det = one if m % 2 else -one
        for i in range(1, m):
            a, b = cols[i][0], cols[i][m - 1]
            if a == b or cols[i] != (a,) * i + (b,) * (m - i):
                raise AssertionError(f"theorem basis m={m}: column {i} is not a step")
            steps.append((b, a - b))
            det = det * (a - b)
        got = _basis_cache[m] = _TheoremData(steps, det)
    return got


def coords_in_theorem_basis(entries: tuple[LaurentPoly, ...]) -> tuple[LaurentPoly, ...]:
    """Solve V x = entries by differencing adjacent rows:
    x_i = (y_{i-1} - y_i) / (a_i - b_i) for i >= 1, then
    x_0 = y_{m-1} - sum_i b_i x_i.  Raise SpanError when a division is not
    exact, i.e. the tuple leaves the integral span (kernel-stability
    violation)."""
    steps = _theorem_data(len(entries)).steps
    coords = []
    x0 = entries[-1]
    for i, (b, diff) in enumerate(steps, start=1):
        q = (entries[i - 1] - entries[i]).div_exact(diff)
        if q is None:
            raise SpanError("tuple has no Laurent-integral theorem-basis coordinates")
        coords.append(q)
        x0 = x0 - b * q
    return (x0, *coords)


# -- the Hecke action ---------------------------------------------------------


def pushdown_poly(m: int, u: LaurentPoly) -> tuple[LaurentPoly, ...]:
    """Push a vector of the polynomial representation down to a fixed-point
    tuple along e^lam -> L_{-lam}; s coefficients pass through."""
    if u.profile != x_profile(m):
        raise ProfileMismatchError(f"expected a vector over {x_profile(m)}, got {u.profile}")
    weights = flags(m).weights
    rows: list[dict[tuple[int, int], int]] = [dict() for _ in range(m)]
    for key, c in u.terms.items():
        for k in range(m):
            ge, se = 0, key[m]
            for (wg, ws), e in zip(weights[k], key):
                if e:
                    ge -= wg * e
                    se -= ws * e
            kk = (ge, se)
            c2 = rows[k].get(kk, 0) + c
            if c2:
                rows[k][kk] = c2
            else:
                del rows[k][kk]
    return tuple(LaurentPoly(GS_PROFILE, row) for row in rows)


def k_act(h: HeckeElt, c: KClass) -> KClass:
    """Act by a Hecke element: sum_i c_i * pushdown(h * l_i) over the nonzero
    coordinates c_i, then re-express the tuple in the theorem basis."""
    m = c.m
    coords = c.coords if c.coords is not None else coords_in_theorem_basis(c.entries)
    profile = x_profile(m)
    entries = (LaurentPoly.zero(GS_PROFILE),) * m
    for i, ci in enumerate(coords):
        if ci.is_zero():
            continue
        lift = LaurentPoly.monomial(profile, (1,) * i + (0,) * (m - i) + (i * (m - i),), 1)
        pushed = pushdown_poly(m, polyrep.act(h, lift))
        entries = tuple(e + ci * p for e, p in zip(entries, pushed))
    return KClass(entries, coords_in_theorem_basis(entries))


def res_sigma(p: LaurentPoly, m: int) -> LaurentPoly:
    """Restriction of a symmetric character along the torus embedding:
    x_1 -> g, x_j -> s^{m-2(j-1)}.  The direct substitution (no inversion)
    is the convention pinned by the center criterion."""
    if p.profile != x_profile(m):
        raise ValueError("expected a polynomial in the x-profile")
    if not is_symmetric(p, m):
        raise ValueError("res_sigma requires a symmetric polynomial")
    images = {"x1": LaurentPoly.variable(GS_PROFILE, "g")}
    for j in range(2, m + 1):
        images[f"x{j}"] = _gs(0, m - 2 * (j - 1))
    images["s"] = LaurentPoly.variable(GS_PROFILE, "s")
    return p.subst(GS_PROFILE, images)


# -- declared bases ------------------------------------------------------------


# every solved Lusztig entry is a Laurent polynomial over this; built from
# terms, not by arithmetic, so importing never meets GLHECKE_MAX_TERMS
LUSZTIG_DENOMINATOR = LaurentPoly.from_terms(GS_PROFILE, (((0, 2), -1), ((0, 0), 1)))


@dataclass(frozen=True)
class BasisTables:
    """Solved Lusztig tuples, as numerators over LUSZTIG_DENOMINATOR = 1 - s^2,
    theorem tuples, and the determinant of the change-of-basis system."""

    m: int
    theorem: tuple[KClass, ...]
    lusztig: tuple[tuple[LaurentPoly, ...], ...]  # rows: O_{p_1}, O_{V_1}(-1), ...
    system_det: LaurentPoly


def _system_matrix(m: int) -> list[list[LaurentPoly]]:
    zero = LaurentPoly.zero(GS_PROFILE)
    rows = []
    # row for O
    row0 = [LaurentPoly.one(GS_PROFILE)]
    for j in range(1, m):
        row0.append(_gs(0, 2 * j - m))
    rows.append(row0)
    # rows for L_{omega_k}
    for k in range(1, m):
        row = [zero]
        base = (k - 1) * (m - k)
        for j in range(1, m):
            if j <= k:
                row.append(_gs(0, base))
            else:
                row.append(_gs(0, base + 2 * (j - k)))
        rows.append(row)
    return rows


def declared_bases(m: int) -> BasisTables:
    """Solve the change-of-basis system against the computed tuples of
    {O, L_{omega_1}, ..., L_{omega_{m-1}}}.

    The X-block is triangularized by differencing adjacent normalized rows:
    with tail_k = X_k + sum_{j>k} s^{2(j-k)} X_j one has tail_1 = R'_1 and
    (1 - s^2) tail_{k+1} = R'_{k+1} - R'_k, so the only division is by
    1 - s^2 (solved tuples are genuinely rational at nodes).  Every entry is
    kept as its numerator over 1 - s^2.
    """
    system = _system_matrix(m)
    det = det_laurent(system)
    if det.is_zero():
        raise AssertionError("change-of-basis system is singular")
    o_class = structure_sheaf(m)
    l_classes = [
        restrict_line_bundle(m, [1] * k + [0] * (m - k)) for k in range(1, m)
    ]
    den = LUSZTIG_DENOMINATOR
    vsq = _gs(0, 2)
    cols = []  # cols[k][i]: numerator of X_i at p_{k+1}
    for k in range(m):
        normalized = [
            l_classes[j - 1].entries[k] * _gs(0, -(j - 1) * (m - j)) for j in range(1, m)
        ]
        # numerators of tail_1, ..., tail_{m-1}, then tail_m = 0
        tails = (
            [p * den for p in normalized[:1]]
            + [b - a for a, b in zip(normalized, normalized[1:])]
            + [LaurentPoly.zero(GS_PROFILE)]
        )
        col = [o_class.entries[k] * den]
        col += [tails[j - 1] - vsq * tails[j] for j in range(1, m)]
        for j in range(1, m):
            col[0] = col[0] - _gs(0, 2 * j - m) * col[j]
        cols.append(col)
    lusztig = tuple(zip(*cols))
    return BasisTables(m, tuple(theorem_basis(m)), lusztig, det)


def skyscraper_pm(m: int) -> KClass:
    """O_{p_m} = L_{-omega_{m-1}} - g^{-1} s^{2-m} O, from the exact sequence
    for the section u_1* ^ ... ^ u_{m-1}* of L_{-omega_{m-1}}."""
    l_m1 = restrict_line_bundle(m, [-1] * (m - 1) + [0])
    return l_m1 - structure_sheaf(m).scale(_gs(-1, 2 - m))


def bundle_identities_hold(m: int) -> bool:
    """Check the line-bundle restriction table and the O_{V_i}(-1) twist
    identities as exact monomial identities, plus the consistency of the
    solved Lusztig tuples with the end-point fiber values (compared as
    numerators over 1 - s^2)."""
    table = flags(m)
    # restriction table for L_{omega_k} on V_j (fixed points p_j, p_{j+1})
    for k in range(1, m):
        lw = restrict_line_bundle(m, [1] * k + [0] * (m - k))
        for j in range(1, m):
            base = (k - 1) * (m - k)
            if j < k:
                want_j = want_j1 = _gs(1, base)
            elif j == k:
                taut_pj = _gs(1, 0)  # fiber of O_{V_k}(-1) at p_k
                taut_pj1 = _gs(0, m - 2 * k)  # and at p_{k+1}
                want_j = _gs(0, base) * taut_pj
                want_j1 = _gs(0, base) * taut_pj1
            else:
                want_j = want_j1 = _gs(0, k * (m - k - 1))
            if lw.entries[j - 1] != want_j or lw.entries[j] != want_j1:
                return False
    # twist identities on each component: O(-p_i) = s^{2i-m} O(-1),
    # O(-p_{i+1}) = g^{-1} O(-1), with conormal fibers a/b and b/a
    for i in range(1, m):
        a, b = _gs(1, 0), _gs(0, m - 2 * i)
        left = (a * b**-1, LaurentPoly.one(GS_PROFILE))
        right = (_gs(0, 2 * i - m) * a, _gs(0, 2 * i - m) * b)
        if left != right:
            return False
        left2 = (LaurentPoly.one(GS_PROFILE), b * a**-1)
        right2 = (_gs(-1, 0) * a, _gs(-1, 0) * b)
        if left2 != right2:
            return False
    # solved tuples: supports and end-point values
    den = LUSZTIG_DENOMINATOR
    tables = declared_bases(m)
    x0 = tables.lusztig[0]
    if m == 1:
        return x0[0] == den
    if x0[0] != den * (LaurentPoly.one(GS_PROFILE) - _gs(1, 2 - m)):
        return False
    if any(not x0[k].is_zero() for k in range(1, m)):
        return False
    for i in range(1, m):
        xi = tables.lusztig[i]
        for k in range(m):
            inside = k in (i - 1, i)
            if not inside and not xi[k].is_zero():
                return False
        if i == 1 and xi[0] != den * _gs(1, 0):
            return False
        if i == m - 1 and xi[m - 1] != den * _gs(0, 2 - m):
            return False
    return True


def exact_sequence_identities_hold(m: int) -> bool:
    """L_lam = s^{2-m} L_{-omega_1} + g s^{2-m} O_{p_m}  and
    g s^{2-m} O_{p_m} = g s^{2-m} L_{-omega_{m-1}} - s^{4-2m} O,
    for lam = (-1, 0, ..., 0, 1), as tuple identities."""
    if m < 2:
        return True
    lam = [-1] + [0] * (m - 2) + [1]
    l_lam = restrict_line_bundle(m, lam)
    l_w1 = restrict_line_bundle(m, [-1] + [0] * (m - 1))
    l_wm1 = restrict_line_bundle(m, [-1] * (m - 1) + [0])
    o = structure_sheaf(m)
    pm = skyscraper_pm(m)
    first = l_lam == l_w1.scale(_gs(0, 2 - m)) + pm.scale(_gs(1, 2 - m))
    second = pm.scale(_gs(1, 2 - m)) == l_wm1.scale(_gs(1, 2 - m)) - o.scale(
        _gs(0, 4 - 2 * m)
    )
    return first and second


# -- kernel of the restriction map ---------------------------------------------


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
    coefficients.  The columns live as long as the generator."""
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
