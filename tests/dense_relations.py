"""The dense route to the defining relations, kept as a test oracle.

``check_dense_relations`` multiplies the cached generator matrices as dense
m x m lists and checks every relation at every node: the quadratic relation
at each T[i], braid or commute at each pair, the Bernstein relation at each
finite node and unit cocharacter, e-multiplicativity pointwise on the
default box of cocharacters, the ``k_act`` spot check and the conjugation
relations.  ``theta.check_defining_relations`` checks O(m) sparse products
instead; these tests check that the two agree.
"""

from functools import reduce
from operator import mul

from glhecke import springer, theta
from glhecke.hecke import HeckeElt
from glhecke.laurent import GS_PROFILE, LaurentPoly
from glhecke.verify import _default_box

ZERO = LaurentPoly.zero(GS_PROFILE)
ONE = LaurentPoly.one(GS_PROFILE)
V = LaurentPoly.monomial(GS_PROFILE, (0, 2), 1)


def dense(m, key):
    """The cached matrix of ``key`` as a dense list of rows, zeros included."""
    return [[row.get(j, ZERO) for j in range(m)] for row in theta._matrix(m, key)]


def dense_mat_mul(a, b):
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = ZERO
            for k in range(n):
                if not (a[i][k].is_zero() or b[k][j].is_zero()):
                    acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(row)
    return out


def identity(m):
    return [[ONE if i == j else ZERO for j in range(m)] for i in range(m)]


def box_multiplicativity_failures(m):
    """e^lam e^mu = e^(lam+mu) as the pointwise monomial identity
    L_lam = prod_j L_(eps_j)^(lam_j), once per lam in the default box."""
    units = [tuple(int(j == k) for j in range(m)) for k in range(m)]
    eps = [springer.restrict_line_bundle(m, lam).entries for lam in units]
    failures = []
    for lam in _default_box(m):
        l_lam = springer.restrict_line_bundle(m, lam).entries
        if any(
            l_lam[k] != reduce(mul, (e[k] ** lj for e, lj in zip(eps, lam) if lj), ONE)
            for k in range(m)
        ):
            failures.append(f"e-multiplicativity lam={lam}")
    return failures


def check_dense_relations(m):
    """Every relation at every node on dense products; the violated ones."""
    failures = []
    t = {i: dense(m, f"T[{i}]") for i in range(1, m + 1)} if m >= 2 else {}
    v_minus_1 = V - ONE
    for i, ti in t.items():
        rhs = [
            [x * v_minus_1 + (V if a == b else ZERO) for b, x in enumerate(row)]
            for a, row in enumerate(ti)
        ]
        if dense_mat_mul(ti, ti) != rhs:
            failures.append(f"quadratic T[{i}]")
    if m >= 3:
        for i in range(1, m + 1):
            for j in range(i + 1, m + 1):
                adjacent = (j - i) % m in (1, m - 1)
                a, b = t[i], t[j]
                word_l = [a, b, a] if adjacent else [a, b]
                word_r = [b, a, b] if adjacent else [b, a]
                if reduce(dense_mat_mul, word_l) != reduce(dense_mat_mul, word_r):
                    failures.append(f"{'braid' if adjacent else 'commute'} T[{i}],T[{j}]")
    units = [tuple(int(j == k) for j in range(m)) for k in range(m)]
    e_unit = [dense(m, theta._unit_key(m, k + 1)) for k in range(m)]
    for i in range(1, m):
        for k, lam in enumerate(units):
            c = (ONE - V) * (1 if k == i - 1 else -1 if k == i else 0)
            lhs = dense_mat_mul(t[i], e_unit[{i - 1: i, i: i - 1}.get(k, k)])
            rhs = dense_mat_mul(e_unit[k], t[i])
            if lhs != [[y + c * z for y, z in zip(r, er)] for r, er in zip(rhs, e_unit[i - 1])]:
                failures.append(f"bernstein T[{i}] lam={lam}")
    failures += box_multiplicativity_failures(m)
    eps1 = (1,) + (0,) * (m - 1)
    eps_last = (0,) * (m - 1) + (-1,)
    both = tuple(a + b for a, b in zip(eps1, eps_last))
    for b in springer.theorem_basis(m):
        lhs = springer.k_act(HeckeElt.e(eps1), springer.k_act(HeckeElt.e(eps_last), b))
        if lhs != springer.k_act(HeckeElt.e(both), b):
            failures.append("e-multiplicativity through k_act")
            break
    if m >= 2:
        w, winv = dense(m, "Tw[1]"), dense(m, "Tw[-1]")
        if dense_mat_mul(w, winv) != identity(m):
            failures.append("Tw[1] inverse")
        for i in range(1, m + 1):
            if reduce(dense_mat_mul, [w, t[i], winv]) != t[i % m + 1]:
                failures.append(f"conjugation Tw[1] T[{i}]")
    return failures
