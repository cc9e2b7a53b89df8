"""The transported IC module: generator matrices, defining relations,
freeness, the two-headed dictionary, and orbit-label combinatorics."""

import json
import math
import os

import pytest
from conftest import _package_caches
from dense_relations import box_multiplicativity_failures, check_dense_relations, dense, dense_mat_mul
from det_oracle import det_laurent
from orbit_oracle import orbit_scalar

from glhecke import laurent, polyrep, springer, theta, verify
from glhecke.hecke import HeckeElt, parse_hecke
from glhecke.laurent import GS_PROFILE, LaurentPoly, demazure_exponents, x_profile

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def gs(ge, se, c=1):
    return LaurentPoly.monomial(GS_PROFILE, (ge, se), c)


def test_ic_wrap():
    m = 3
    assert theta._ic(m, 3) == theta._scale(theta._ic(m, 0), gs(-1, 0))
    assert theta._ic(m, -1) == theta._scale(theta._ic(m, 2), gs(1, 0))


def test_tw1_matrix_is_cyclic_shift_with_wrap():
    m = 3
    mats = theta.theta_action_matrices(m)
    w = mats["Tw[1]"]
    zero, one = LaurentPoly.zero(GS_PROFILE), LaurentPoly.one(GS_PROFILE)
    want = [
        [zero, zero, gs(-1, 0)],
        [one, zero, zero],
        [zero, one, zero],
    ]
    assert w == want


def test_ts_matrices_on_ic0():
    for m in (2, 3, 4):
        ic0 = theta._ic(m, 0)
        for i in range(1, m):
            got = theta._poly_mat_mul(theta._matrix(m, f"T[{i}]"), ic0)
            assert got == theta._scale(ic0, gs(0, 2)), (m, i)
        got = theta._poly_mat_mul(theta._matrix(m, f"T[{m}]"), ic0)
        # -IC^0 + s IC^1 + s IC^-1
        want = theta._add(theta._scale(ic0, gs(0, 0, -1)), theta._ic(m, 1), gs(0, 1))
        want = theta._add(want, theta._ic(m, -1), gs(0, 1))
        assert got == want, m


def test_matrices_present_and_integral():
    for m in (1, 2, 3):
        mats = theta.theta_action_matrices(m)
        keys = set(mats)
        assert "Tw[1]" in keys and "g" in keys and "s" in keys
        if m >= 2:
            assert {f"T[{i}]" for i in range(1, m + 1)} <= keys
        for i in range(1, m):
            assert f"e[{','.join(['1'] * i + ['0'] * (m - i))}]" in keys


def test_defining_relations():
    for m in range(1, 7):
        assert theta.check_defining_relations(m) == []


def test_sparse_matrices_hold_no_zeros():
    for m in (1, 2, 3, 4):
        for key in theta.generator_keys(m) + ["Tw[-1]", theta._unit_key(m, m)]:
            rows = theta._matrix(m, key)
            assert len(rows) == m
            assert all(0 <= j < m and not x.is_zero() for row in rows for j, x in row.items()), key


def test_sparse_product_matches_dense_product():
    for m in (2, 3, 4, 5):
        keys = theta.generator_keys(m) + ["Tw[-1]"]
        for a in keys:
            for b in keys:
                got = theta._poly_mat_mul(theta._matrix(m, a), theta._matrix(m, b))
                assert theta._dense(got) == dense_mat_mul(dense(m, a), dense(m, b)), (m, a, b)


def _relation_words(m):
    """Every word of generator keys whose matrix product the relation checks
    compare, innermost factor last: each relation at each node, as the dense
    oracle checks them, and the Bernstein words at the units."""
    e = {k: theta._unit_key(m, k) for k in range(1, m + 1)}
    words = [["Tw[1]", "Tw[-1]"]]
    for i in range(1, m + 1):
        words.append([f"T[{i}]", f"T[{i}]"])
        words.append(["Tw[1]", f"T[{i}]", "Tw[-1]"])
        for j in range(i + 1, m + 1):
            words.append([f"T[{i}]", f"T[{j}]", f"T[{i}]"])
            words.append([f"T[{j}]", f"T[{i}]", f"T[{j}]"])
            words.append([f"T[{i}]", f"T[{j}]"])
            words.append([f"T[{j}]", f"T[{i}]"])
    for i in range(1, m):
        for k in range(1, m + 1):
            words.append([f"T[{i}]", e[k]])
            words.append([e[k], f"T[{i}]"])
    return words


def test_relation_words_match_kact_chain():
    # the oracle for checking relations on matrices: the column of a product
    # is the k_act chain applied to the same theorem-basis vector
    for m in (2, 3, 4):
        basis = springer.theorem_basis(m)
        for word in _relation_words(m):
            prod = theta._matrix(m, word[0])
            for key in word[1:]:
                prod = theta._poly_mat_mul(prod, theta._matrix(m, key))
            for j, b in enumerate(basis):
                chain = b
                for key in reversed(word):
                    chain = springer.k_act(parse_hecke(m, key), chain)
                col = tuple(prod[i].get(j, LaurentPoly.zero(GS_PROFILE)) for i in range(m))
                assert chain.coords == col, (m, word, j)
                entries = tuple(
                    sum((c * bi.entries[k] for c, bi in zip(col, basis)), LaurentPoly.zero(GS_PROFILE))
                    for k in range(m)
                )
                assert chain.entries == entries, (m, word, j)


def test_fresh_caches_empties_the_matrices_too(request):
    # a fault planted under the fixture may reach the generator matrices
    HeckeElt.tw(3, 1)
    theta._matrix(3, "T[1]")
    caches = _package_caches()
    assert theta._matrix in caches and theta._matrix.cache_info().currsize
    request.getfixturevalue("fresh_caches")
    assert [fn for fn in caches if fn.cache_info().currsize] == []


# the cached generator matrices, which a planted fault wraps
_MATRIX = theta._matrix


def _serve(monkeypatch, planted):
    """Make ``theta._matrix`` return the matrices of ``planted``, keyed by
    (m, key), and the built ones for every other key; nothing planted
    enters the cache."""
    monkeypatch.setattr(theta, "_matrix", lambda m, key: planted[m, key] if (m, key) in planted else _MATRIX(m, key))


def _plant(monkeypatch, m, key):
    """Serve the sparse matrix of ``key`` with 1 added at (0, 0), and
    every other matrix as built."""
    bad = [dict(r) for r in _MATRIX(m, key)]
    entry = bad[0].get(0, LaurentPoly.zero(GS_PROFILE)) + LaurentPoly.one(GS_PROFILE)
    if entry.is_zero():
        del bad[0][0]
    else:
        bad[0][0] = entry
    _serve(monkeypatch, {(m, key): bad})


# every planted fault below: (m, key); each one fails the relations
PLANTED_FAULTS = [
    (3, "T[1]"),
    (4, "T[3]"),
    (4, "T[4]"),
    (2, "e[1,0]"),
    (3, "e[1,0,0]"),
    (4, "e[1,0,0,0]"),
    (4, "e[0,0,1,0]"),
    (4, "e[0,0,0,1]"),
    (5, "e[0,0,0,1,0]"),
    (4, "Tw[1]"),
    (4, "Tw[-1]"),
]


def test_planted_matrix_fault_fails_relations(monkeypatch):
    _plant(monkeypatch, 3, "T[1]")
    assert "quadratic T[1]" in theta.check_defining_relations(3)
    assert verify.run_check("theta", "cyclic-symmetry", 3).status == "fail"


def test_planted_fault_off_node_one_fails_conjugation(monkeypatch):
    # T[3] and T[4] at m = 4 reach the relations through conjugation: no
    # quadratic or braid relation is checked there any more, and T[4] enters
    # no other product at all
    for key in ("T[3]", "T[4]"):
        _plant(monkeypatch, 4, key)
        fails = theta.check_defining_relations(4)
        conjugation = [f for f in fails if f.startswith("conjugation Tw[1] T[")]
        assert conjugation and (key == "T[3]" or conjugation == fails), (key, fails)
        assert verify.run_check("main-theorem", "module-relations", 4).status == "fail"


def test_planted_fault_at_m2_fails_cyclic_symmetry(monkeypatch, fresh_caches):
    # at m = 2, conjugation by Tw[1] is the one relation that reads T[2]
    for key in ("T[2]", "Tw[-1]"):
        _plant(monkeypatch, 2, key)
        assert verify.run_check("theta", "cyclic-symmetry", 2).status == "fail", key


def test_fault_on_the_last_negative_unit_fails_e_multiplicativity(monkeypatch, fresh_caches):
    # e^(-eps_m) acts with an extra s^2; the spot check through k_act is
    # the one relation that applies it alone
    act_e = polyrep.act_e

    def bent(lam, u, m):
        out = act_e(lam, u, m)
        return out * LaurentPoly.variable(u.profile, "s", 2) if tuple(lam) == (0,) * (m - 1) + (-1,) else out

    monkeypatch.setattr(polyrep, "act_e", bent)
    for m in (2, 3, 4):
        assert "e-multiplicativity through k_act" in theta.check_defining_relations(m), m


def test_planted_e_matrix_fault_fails_bernstein(monkeypatch):
    # the e-matrices that `theta --matrices` reports are checked, not only the T's
    for m in (2, 3, 4):
        _plant(monkeypatch, m, "e[" + ",".join(["1"] + ["0"] * (m - 1)) + "]")
        fails = theta.check_defining_relations(m)
        assert any(f.startswith("bernstein T[") for f in fails), (m, fails)


def test_planted_fault_in_a_later_unit_fails_bernstein(monkeypatch):
    # E_k for k >= 3 enters only the relations (a) at i = k - 1 and i = k
    for m, k in ((4, 3), (4, 4), (5, 4)):
        _plant(monkeypatch, m, theta._unit_key(m, k))
        fails = theta.check_defining_relations(m)
        assert fails and all(f.startswith("bernstein T[") for f in fails), (m, k, fails)
        assert {f.split()[1] for f in fails} <= {f"T[{k - 1}]", f"T[{k}]"}, fails
        assert verify.run_check("main-theorem", "module-relations", m).status == "fail"


def test_fault_carried_along_the_unit_chain_fails_bernstein(monkeypatch):
    # E_k + N_k with N_1 = the unit at (0, 0) and N_(k+1) = v T_k^-1 N_k T_k^-1
    # satisfies every relation (a) T_i E_(i+1) T_i = v E_i; only (c),
    # T_i E_1 = E_1 T_i for i >= 2, sees it
    one, v_inv = LaurentPoly.one(GS_PROFILE), gs(0, -2)
    for m in (3, 4, 5):
        units = [theta._unit_key(m, k) for k in range(1, m + 1)]
        n = [{0: one}] + [{} for _ in range(m - 1)]
        planted = {}
        for k, key in enumerate(units, start=1):
            planted[(m, key)] = theta._add(theta._matrix(m, key), n)
            if k < m:
                # v T_k^-1 = T_k + 1 - v
                t = theta._add(theta._matrix(m, f"T[{k}]"), theta._scalar_matrix(m, one - gs(0, 2)))
                tnt = theta._poly_mat_mul(theta._poly_mat_mul(t, n), t)
                n = [{j: x * v_inv for j, x in row.items()} for row in tnt]
        _serve(monkeypatch, planted)
        fails = theta.check_defining_relations(m)
        eps1 = (1,) + (0,) * (m - 1)
        assert fails and all(f.endswith(f" lam={eps1}") and f.split()[1] != "T[1]" for f in fails), (m, fails)
        assert check_dense_relations(m), m


def test_dense_oracle_agrees_on_correct_matrices():
    for m in range(1, 7):
        assert check_dense_relations(m) == theta.check_defining_relations(m) == [], m


@pytest.mark.parametrize("m, key", PLANTED_FAULTS)
def test_dense_oracle_agrees_on_planted_faults(monkeypatch, m, key):
    _plant(monkeypatch, m, key)
    fails = theta.check_defining_relations(m)
    assert fails and check_dense_relations(m), fails
    # the O(m) check reports a subset of the relations the dense route breaks
    assert set(fails) <= set(check_dense_relations(m)), fails


def test_planted_line_bundle_fault_fails_e_multiplicativity(monkeypatch):
    # a cross term lam_1 * lam_m in the g-exponent at p_1; the theorem basis
    # uses only lam_m = 0, so the matrices stay as they are
    true_restrict = springer.restrict_line_bundle

    def bent(m, lam):
        got = true_restrict(m, lam)
        lam = tuple(lam)
        bend = gs(lam[0] * lam[-1], 0)
        return springer.KClass((got.entries[0] * bend,) + got.entries[1:])

    for m in (2, 3, 4, 5):
        theta.check_defining_relations(m)  # fill the matrix cache
        monkeypatch.setattr(springer, "restrict_line_bundle", bent)
        fails = theta.check_defining_relations(m)
        want = "e-multiplicativity lam=" + str(tuple(int(j in (0, m - 1)) for j in range(m)))
        assert want in fails, (m, fails)
        assert box_multiplicativity_failures(m), m
        monkeypatch.setattr(springer, "restrict_line_bundle", true_restrict)


def test_conjugation_does_not_permute_the_e_matrices():
    # W E_k W^-1 is not E_j for any j (nor is W^-1 E_k W): conjugation by the
    # length-zero generator rotates the T's but not the Bernstein lattice, so
    # check_defining_relations moves the unit Bernstein relations along the
    # finite nodes with the T's instead (see its docstring)
    for m in (2, 3, 4, 5):
        w, winv = theta._matrix(m, "Tw[1]"), theta._matrix(m, "Tw[-1]")
        e = [theta._matrix(m, theta._unit_key(m, k)) for k in range(1, m + 1)]
        for ek in e:
            for a, b in ((w, winv), (winv, w)):
                conj = theta._poly_mat_mul(theta._poly_mat_mul(a, ek), b)
                assert all(conj != ej for ej in e), m


def test_bernstein_on_lifted_vectors():
    # the oracle for the matrix Bernstein check: the relation on the lifts
    # l_0 = 1, l_i = s^(i(m-i)) x^omega_i of the theorem basis in the
    # polynomial representation, pushed down to tuples
    for m in range(2, 7):
        profile = x_profile(m)
        one_minus_v = LaurentPoly.one(profile) - LaurentPoly.variable(profile, "s", 2)
        lifts = [
            LaurentPoly.monomial(profile, (1,) * i + (0,) * (m - i) + (i * (m - i),), 1)
            for i in range(m)
        ]
        for i in range(1, m):
            for lam in verify._default_box(m):
                slam = list(lam)
                slam[i - 1], slam[i] = slam[i], slam[i - 1]
                for lift in lifts:
                    lhs = polyrep.act_T(i, polyrep.act_e(slam, lift, m), m)
                    rhs = polyrep.act_e(lam, polyrep.act_T(i, lift, m), m)
                    for nu, sign in demazure_exponents(lam, i):
                        rhs = rhs + one_minus_v * polyrep.act_e(nu, lift, m) * sign
                    assert all(e.is_zero() for e in springer.pushdown_poly(m, lhs - rhs)), (m, i, lam)


def test_freeness():
    for m in range(1, 6):
        for suite in ("theta", "main-theorem"):
            assert verify.run_check(suite, "freeness", m).status == "pass", (suite, m)


def test_freeness_fails_on_an_orbit_that_skips_a_class(monkeypatch):
    # Tw[1] applied twice to B_1 skips B_2, and the walk must name that step
    def doubled(h, c):
        out = true_k_act(h, c)
        if h == w1 and c == springer.theorem_basis(c.m)[1]:
            out = true_k_act(h, out)
        return out

    true_k_act = springer.k_act
    w1 = HeckeElt.tw(4, 1)
    monkeypatch.setattr(springer, "k_act", doubled)
    check = verify.run_check("main-theorem", "freeness", 4)
    assert (check.status, check.counterexample) == ("fail", "Tw[1]^2 O != B_2")


def test_freeness_from_coordinates():
    # the Tw[1]-orbit of IC^0 has identity coordinates C, so it is a basis
    # over the Laurent ring; the Bareiss determinant of its fixed-point
    # matrix V C = V is the oracle for det V, the signed product of the step
    # factors of V
    for m in range(1, 9):
        orbit = [springer.structure_sheaf(m)]
        for _ in range(m - 1):
            orbit.append(springer.k_act(HeckeElt.tw(m, 1), orbit[-1]))
        identity = theta._dense(theta._scalar_matrix(m, LaurentPoly.one(GS_PROFILE)))
        assert [list(v.coords) for v in orbit] == identity
        fixed = [[orbit[j].entries[k] for j in range(m)] for k in range(m)]
        det_v = LaurentPoly.one(GS_PROFILE) * (-1) ** (m - 1)
        for _, diff in springer._theorem_data(m):
            det_v = det_v * diff
        assert det_laurent(fixed) == det_v, m


def test_main_theorem_fits_a_small_term_cap(monkeypatch, fresh_caches):
    # no check of the main theorem reads det V, which has 130 terms at
    # m = 24, so none may multiply it out and stop on this cap
    monkeypatch.setattr(laurent, "_MAX_TERMS", 100)
    for stem in ("module-isomorphism", "module-relations", "freeness"):
        assert verify.run_check("main-theorem", stem, 24).status == "pass", stem


def test_central_characters_through_matrices():
    m = 3
    for k in (1, 2, 3):
        lam = (1,) * k + (0,) * (m - k)
        mat = theta._matrix_of(m, verify._orbit_element(lam))
        assert mat == theta._scalar_matrix(m, orbit_scalar(lam))


def test_matrix_of_is_multiplicative():
    # the transport is an algebra map: matrix(a*b) == matrix(a) @ matrix(b)
    import random

    rng = random.Random(51)
    for m in (2, 3):
        gens = [HeckeElt.gen(m, i) for i in range(1, m + 1)] + [
            HeckeElt.tw(m, 1),
            HeckeElt.e((1,) + (0,) * (m - 1)),
        ]
        for _ in range(15):
            a, b = rng.choice(gens), rng.choice(gens)
            lhs = theta._matrix_of(m, a * b)
            rhs = theta._poly_mat_mul(theta._matrix_of(m, a), theta._matrix_of(m, b))
            assert lhs == rhs


def test_omega_inverse_shifts_down():
    for m in (2, 3, 4):
        winv = theta._matrix(m, "Tw[-1]")
        for k in range(m):
            assert theta._poly_mat_mul(winv, theta._ic(m, k)) == theta._ic(m, k - 1)


def test_dictionary_convention_a_wins():
    for m in (2, 3):
        res_a = theta.ic_sheaf_dictionary(m, "A")
        res_b = theta.ic_sheaf_dictionary(m, "B")
        assert all(res_a.values())
        assert not all(res_b.values())
        # the length-zero family is convention-independent
        assert res_b[theta.FORMULA_IDS[4]]


def test_dictionary_rejects_unknown_convention():
    # m = 1 has no T[i], so the check must not sit inside the per-node loop
    for m in (1, 2):
        with pytest.raises(ValueError):
            theta.ic_sheaf_dictionary(m, "C")


def test_dictionary_golden_files():
    for m in (2, 3, 4, 5):
        rep = theta.dictionary_report(m)
        rendered = json.dumps(rep, sort_keys=True, separators=(",", ":")) + "\n"
        with open(os.path.join(GOLDEN, f"dictionary_m{m}.json")) as fh:
            assert fh.read() == rendered
        assert rep["matching_convention"] == "A"


# -- orbit labels -------------------------------------------------------------


def test_injection_counts():
    assert len(theta.injection_data(2, 3)) == 6
    assert len(theta.injection_data(1, 2)) == 2
    for n in range(1, 5):
        for m in range(n, 5):
            assert len(theta.injection_data(n, m)) == math.factorial(m) // math.factorial(m - n)


def test_enumerate_orbits_example():
    labels = theta.enumerate_orbits(1, 2, 0, 1)
    assert len(labels) == 4
    assert {label.lam for label in labels} == {(0,), (1,)}


def test_condition1_brute_matches_box():
    from itertools import product

    for n in (1, 2):
        for bn, br in ((0, 1), (1, 1), (2, 3)):
            for lam in product(range(-bn - 2, br + 3), repeat=n):
                in_box = all(-bn <= v <= br for v in lam)
                assert theta.condition1_brute(lam, bn, br) == in_box


def test_enumerate_requires_valid_bounds():
    with pytest.raises(ValueError):
        theta.enumerate_orbits(2, 1, 0, 1)
    with pytest.raises(ValueError):
        theta.enumerate_orbits(1, 2, 0, 0)


def test_orbit_representatives():
    # n = m = 1, lam = (k): the 1x1 entry t^k
    rep = theta.orbit_representative(theta.OrbitLabel((5,), (1,), (1,)), 1)
    assert rep == {(1, 1): 5}
    # n = 1, m = 3, lam = (2), I_s = {2}: row (0, t^2, 0)
    rep = theta.orbit_representative(theta.OrbitLabel((2,), (2,), (1,)), 3)
    assert rep == {(1, 2): 2}
    # n = m = 2, transposition: antidiagonal
    rep = theta.orbit_representative(theta.OrbitLabel((7, 9), (1, 2), (2, 1)), 2)
    assert rep == {(2, 1): 9, (1, 2): 7}
