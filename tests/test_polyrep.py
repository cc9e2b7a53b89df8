"""The polynomial representation: generator actions, the affine-reflection
closed form, module axioms, and exactness of the divided differences."""

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glhecke import laurent, polyrep, weyl
from glhecke.hecke import HeckeElt, t_element
from glhecke.laurent import LaurentPoly, TermBudgetError, x_profile


def mono(m, xexps, sexp=0, c=1):
    return LaurentPoly.monomial(x_profile(m), tuple(xexps) + (sexp,), c)


def test_act_rejects_other_profiles():
    # a g variable is not passed through: the vector must be over x_profile(m)
    u = LaurentPoly.monomial(("g", "x1", "x2", "s"), (1, 0, 1, 0), 1)
    for h in (HeckeElt.one(2), HeckeElt.gen(2, 1), HeckeElt.tw(2, 1)):
        with pytest.raises(laurent.ProfileMismatchError):
            polyrep.act(h, u)
    with pytest.raises(ValueError):
        polyrep.act(HeckeElt.one(3), polyrep.one_vector(2))


def test_ts1_on_omega1():
    # T_s1 * e^omega_1 = e^(omega_1 - alpha_1)
    for m in (2, 3, 4):
        u = mono(m, [1] + [0] * (m - 1))
        want = mono(m, [0, 1] + [0] * (m - 2))
        assert polyrep.act_T(1, u, m) == want


def test_ts_on_one_is_v():
    for m in (2, 3, 5):
        one = polyrep.one_vector(m)
        for i in range(1, m):
            assert polyrep.act_T(i, one, m) == mono(m, [0] * m, 2)


def test_length_zero_on_one():
    # T_wi * 1 = s^(i(m-i)) e^omega_i
    for m in (1, 2, 3, 4):
        one = polyrep.one_vector(m)
        for i in range(1, m + 1):
            got = polyrep.act(t_element(weyl.omega(m, i)), one)
            assert got == mono(m, [1] * i + [0] * (m - i), i * (m - i)), (m, i)


def test_e_lambda_action_inverts():
    m = 3
    u = mono(m, (1, 0, -2), 1)
    got = polyrep.act_e((1, 1, 0), u, m)
    assert got == mono(m, (0, -1, -2), 1)


def test_act_e_rejects_a_cocharacter_of_the_wrong_length():
    # extra entries were ignored and a short one indexed past its end
    u = mono(2, (1, 0), 1)
    for lam in ((2, 0, 5), (2,)):
        with pytest.raises(ValueError, match="expected m=2"):
            polyrep.act_e(lam, u, 2)


def test_tsm_closed_form():
    # (s^2 - 1) + s^(2(m-1)) e^(xi + omega_1), xi = (0,...,0,-1)
    for m, spower in ((2, 2), (3, 4), (5, 8)):
        got = polyrep.t_sm_on_one(m)
        want = (
            mono(m, [0] * m, 2)
            - polyrep.one_vector(m)
            + mono(m, [1] + [0] * (m - 2) + [-1], spower)
        )
        assert got == want


def test_sigma_one_inverse_identity():
    # T_(sigma_1^-1) e^mu_2 = (s^2-1) e^mu_m + s^(2(m-1)) e^omega_1
    for m in (2, 3, 4, 5):
        mu2 = [0] * m
        mu2[1 % m] = 1
        got = polyrep.act(t_element(weyl.sigma(m, 1).inverse()), mono(m, mu2))
        mum = [0] * m
        mum[m - 1] = 1
        want = (
            mono(m, mum, 2)
            - mono(m, mum)
            + mono(m, [1] + [0] * (m - 1), 2 * (m - 1))
        )
        assert got == want, m


def test_step_identities():
    # T_si e^mu_i = e^mu_(i+1); T_si e^omega_1 = v e^omega_1 for i >= 2
    m = 4
    for i in range(1, m):
        mu = [0] * m
        mu[i - 1] = 1
        out = [0] * m
        out[i] = 1
        assert polyrep.act_T(i, mono(m, mu), m) == mono(m, out)
    for i in range(2, m):
        w1 = mono(m, [1] + [0] * (m - 1))
        assert polyrep.act_T(i, w1, m) == mono(m, [1] + [0] * (m - 1), 2)


def test_module_axiom_random():
    rng = random.Random(21)
    for _ in range(150):
        m = rng.randint(2, 4)
        gens = [HeckeElt.gen(m, i) for i in range(1, m + 1)]
        gens += [HeckeElt.tw(m, 1), HeckeElt.tw(m, -1), HeckeElt.e((1,) + (0,) * (m - 1))]
        a, b = rng.choice(gens), rng.choice(gens)
        u = mono(m, [rng.randint(-1, 1) for _ in range(m)], rng.randint(-1, 1))
        assert polyrep.act(a * b, u) == polyrep.act(a, polyrep.act(b, u))


def test_quadratic_in_action():
    rng = random.Random(22)
    for _ in range(150):
        m = rng.randint(2, 4)
        i = rng.randint(1, m - 1)
        u = mono(m, [rng.randint(-2, 2) for _ in range(m)])
        tu = polyrep.act_T(i, u, m)
        v = mono(m, [0] * m, 2)
        assert polyrep.act_T(i, tu, m) == (v - polyrep.one_vector(m)) * tu + v * u


def test_divisions_are_exact():
    # (Ts) outputs are Laurent polynomials: multiply back by e^alpha - 1
    rng = random.Random(23)
    for _ in range(200):
        m = rng.randint(2, 4)
        i = rng.randint(1, m - 1)
        lam = [rng.randint(-3, 3) for _ in range(m)]
        u = mono(m, lam)
        got = polyrep.act_T(i, u, m)
        alpha = [0] * m
        alpha[i - 1], alpha[i] = 1, -1
        e_alpha = mono(m, alpha)
        one = polyrep.one_vector(m)
        slam = list(lam)
        slam[i - 1], slam[i] = slam[i], slam[i - 1]
        slam_plus = list(slam)
        slam_plus[i - 1] += 1
        slam_plus[i] -= 1
        want_times = (mono(m, lam) - mono(m, slam)) - mono(m, [0] * m, 2) * (
            mono(m, lam) - mono(m, slam_plus)
        )
        assert got * (e_alpha - one) == want_times


def act_T_four_branches(i, u, m):
    """T_{s_i} * u with each quotient's two signs of k written out as its
    own telescoping loop: the form ``polyrep.act_T`` had before it read both
    quotients off ``laurent.demazure_range``."""
    ia, ib = i - 1, i
    out = {}

    def bump(key, c):
        c2 = out.get(key, 0) + c
        if c2:
            out[key] = c2
        else:
            del out[key]

    def alpha_shift(key, j):
        nk = list(key)
        nk[ia] -= j
        nk[ib] += j
        return nk

    for key, c in u.terms.items():
        k = key[ia] - key[ib]
        # first quotient: k > 0: +sum_{j=1..k}; k < 0: -sum_{j=0..|k|-1} at +j
        if k > 0:
            for j in range(1, k + 1):
                bump(tuple(alpha_shift(key, j)), c)
        elif k < 0:
            for j in range(0, -k):
                bump(tuple(alpha_shift(key, -j)), -c)
        # second quotient with k' = k - 1, times -s^2
        k2 = k - 1
        if k2 > 0:
            for j in range(1, k2 + 1):
                nk = alpha_shift(key, j)
                nk[m] += 2
                bump(tuple(nk), -c)
        elif k2 < 0:
            for j in range(0, -k2):
                nk = alpha_shift(key, -j)
                nk[m] += 2
                bump(tuple(nk), c)
    return LaurentPoly(u.profile, out)


@st.composite
def act_T_cases(draw):
    """(i, u, m): m in 2..5, a finite index i, and u with up to 6 terms,
    x-exponents in [-6, 6] and s-exponents in [-2, 2]."""
    m = draw(st.integers(2, 5))
    i = draw(st.integers(1, m - 1))
    key = st.tuples(*[st.integers(-6, 6)] * m, st.integers(-2, 2))
    items = draw(st.lists(st.tuples(key, st.integers(-3, 3).filter(bool)), max_size=6))
    return i, LaurentPoly.from_terms(x_profile(m), items), m


@settings(max_examples=300)
@given(act_T_cases())
def test_act_T_matches_the_four_branch_form(case):
    i, u, m = case
    assert polyrep.act_T(i, u, m) == act_T_four_branches(i, u, m)


def test_act_T_respects_term_budget(monkeypatch):
    # T_1 x1^6 telescopes to 11 terms without a single LaurentPoly sum
    u = mono(2, [6, 0])
    assert len(polyrep.act_T(1, u, 2).terms) == 11
    monkeypatch.setattr(laurent, "_MAX_TERMS", 11)
    assert len(polyrep.act_T(1, u, 2).terms) == 11
    monkeypatch.setattr(laurent, "_MAX_TERMS", 3)
    with pytest.raises(TermBudgetError):
        polyrep.act_T(1, u, 2)
    # T_1 x1^200000 has quotients of 200,000 and 199,999 terms: the cap
    # refuses the first before any of its terms is built
    monkeypatch.setattr(laurent, "_MAX_TERMS", 1000)
    big = mono(2, [200000, 0])
    tracemalloc.start()
    try:
        with pytest.raises(TermBudgetError):
            polyrep.act_T(1, big, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def test_affine_generator_through_bernstein_form():
    for m in (2, 3):
        one = polyrep.one_vector(m)
        via_elt = polyrep.act(HeckeElt.gen(m, m), one)
        assert via_elt == polyrep.t_sm_on_one(m)


def test_one_is_the_sign_character_vector():
    # T_w * 1 = v^len(w) for every finite permutation (the induced module
    # along T_w -> v^len(w) is the polynomial representation)
    from itertools import permutations

    from glhecke.hecke import perm_word

    for m in (2, 3, 4):
        one = polyrep.one_vector(m)
        for perm in permutations(range(m)):
            word = perm_word(perm)
            vec = one
            for i in reversed(word):
                vec = polyrep.act_T(i, vec, m)
            assert vec == mono(m, [0] * m, 2 * len(word)), (m, perm)
