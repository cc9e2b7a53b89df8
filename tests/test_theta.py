"""The transported IC module: generator matrices, defining relations,
freeness, the two-headed dictionary, and orbit-label combinatorics."""

import json
import os

import pytest

from glhecke import polyrep, springer, theta
from glhecke.hecke import HeckeElt, parse_hecke
from glhecke.laurent import GS_PROFILE, LaurentPoly, demazure_exponents, x_profile
from glhecke.linalg import det_laurent

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def gs(ge, se, c=1):
    return LaurentPoly.monomial(GS_PROFILE, (ge, se), c)


def test_ic_wrap():
    m = 3
    assert theta.ThetaVector.ic(m, 3).coords == theta.ThetaVector.ic(m, 0).scale(gs(-1, 0)).coords
    assert theta.ThetaVector.ic(m, -1).coords == theta.ThetaVector.ic(m, 2).scale(gs(1, 0)).coords


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
        mats = theta.theta_action_matrices(m)
        ic0 = theta.ThetaVector.ic(m, 0)
        for i in range(1, m):
            got = theta.mat_vec(mats[f"T[{i}]"], ic0)
            assert got.coords == ic0.scale(gs(0, 2)).coords, (m, i)
        got = theta.mat_vec(mats[f"T[{m}]"], ic0)
        want = (
            theta.ThetaVector.ic(m, 0).scale(-1)
            + theta.ThetaVector.ic(m, 1).scale(gs(0, 1))
            + theta.ThetaVector.ic(m, -1).scale(gs(0, 1))
        )
        assert got.coords == want.coords, m


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


def _relation_words(m):
    """Every word of generator keys whose matrix product the relation checks
    compare, innermost factor last."""
    words = [["Tw[1]", "Tw[-1]"]]
    for i in range(1, m + 1):
        words.append([f"T[{i}]", f"T[{i}]"])
        words.append(["Tw[1]", f"T[{i}]", "Tw[-1]"])
        for j in range(i + 1, m + 1):
            words.append([f"T[{i}]", f"T[{j}]", f"T[{i}]"])
            words.append([f"T[{j}]", f"T[{i}]", f"T[{j}]"])
            words.append([f"T[{i}]", f"T[{j}]"])
            words.append([f"T[{j}]", f"T[{i}]"])
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
                col = tuple(prod[i][j] for i in range(m))
                assert chain.coords == col, (m, word, j)
                entries = tuple(
                    sum((c * bi.entries[k] for c, bi in zip(col, basis)), LaurentPoly.zero(GS_PROFILE))
                    for k in range(m)
                )
                assert chain.entries == entries, (m, word, j)


def test_planted_matrix_fault_fails_relations(monkeypatch):
    from glhecke import verify

    bad = [row[:] for row in theta._matrix(3, "T[1]")]
    bad[0][0] = bad[0][0] + LaurentPoly.one(GS_PROFILE)
    monkeypatch.setattr(theta, "_matrix_cache", {(3, "T[1]"): bad})
    assert "quadratic T[1]" in theta.check_defining_relations(3)
    assert verify.run_check("theta", "cyclic-symmetry", 3).status == "fail"


def test_planted_e_matrix_fault_fails_bernstein(monkeypatch):
    # the e-matrices that `theta --matrices` reports are checked, not only the T's
    for m in (2, 3, 4):
        key = "e[" + ",".join(["1"] + ["0"] * (m - 1)) + "]"
        bad = [row[:] for row in theta._matrix(m, key)]
        bad[0][0] = bad[0][0] + LaurentPoly.one(GS_PROFILE)
        monkeypatch.setattr(theta, "_matrix_cache", {(m, key): bad})
        fails = theta.check_defining_relations(m)
        assert any(f.startswith("bernstein T[") for f in fails), (m, fails)


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
            for lam in theta._default_box(m):
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
        assert not theta.freeness_determinant(m).is_zero()


def test_freeness_from_coordinates():
    # the Tw[1]-orbit of IC^0 has identity coordinates, so it is a basis over
    # the Laurent ring; the Bareiss determinant of its fixed-point matrix is
    # the oracle for det V * det C
    for m in range(1, 9):
        orbit = [springer.structure_sheaf(m)]
        for _ in range(m - 1):
            orbit.append(springer.k_act(HeckeElt.tw(m, 1), orbit[-1]))
        assert [list(v.coords) for v in orbit] == theta._scalar_matrix(m, LaurentPoly.one(GS_PROFILE))
        fixed = [[orbit[j].entries[k] for j in range(m)] for k in range(m)]
        assert det_laurent(fixed) == theta.freeness_determinant(m), m


def test_central_characters_through_matrices():
    m = 3
    from itertools import permutations

    from glhecke.laurent import orbit_sum

    for k in (1, 2, 3):
        lam = [1] * k + [0] * (m - k)
        zel = HeckeElt.zero(m)
        for mu in set(permutations(lam)):
            zel = zel + HeckeElt.e(mu)
        mat = theta._matrix_of(m, zel)
        scal = springer.res_sigma(orbit_sum(lam), m)
        for a in range(m):
            for b in range(m):
                assert mat[a][b] == (scal if a == b else LaurentPoly.zero(GS_PROFILE))


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
            got = theta.mat_vec(winv, theta.ThetaVector.ic(m, k))
            assert got.coords == theta.ThetaVector.ic(m, k - 1).coords


def test_dictionary_convention_a_wins():
    for m in (2, 3):
        res_a = theta.ic_sheaf_dictionary(m, "A")
        res_b = theta.ic_sheaf_dictionary(m, "B")
        assert all(res_a.values())
        assert not all(res_b.values())
        # the length-zero family is convention-independent
        assert res_b[theta.FORMULA_IDS[4]]


def test_dictionary_rejects_unknown_convention():
    with pytest.raises(ValueError):
        theta._ls_operator(2, 1, "C", shriek=False)


def test_dictionary_golden_files():
    for m in (2, 3, 4, 5):
        rep = theta.dictionary_report(m)
        rendered = json.dumps(rep, sort_keys=True, separators=(",", ":")) + "\n"
        with open(os.path.join(GOLDEN, f"dictionary_m{m}.json")) as fh:
            assert fh.read() == rendered
        assert rep["matching_convention"] == "A"


# -- orbit labels -------------------------------------------------------------


def test_injection_counts():
    assert theta.s_nm_size(2, 3) == 6
    assert theta.s_nm_size(1, 2) == 2
    for n in range(1, 5):
        for m in range(n, 5):
            import math

            assert theta.s_nm_size(n, m) == math.factorial(m) // math.factorial(m - n)
            assert len(theta.injection_data(n, m)) == theta.s_nm_size(n, m)


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
