"""Bernstein-basis multiplication: relations, T_w expansion, inverses,
the center, the group-algebra limit, and literals."""

import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glhecke import laurent, weyl
from glhecke.hecke import (
    HeckeElt,
    ONE_S,
    V,
    V_MINUS_1,
    parse_hecke,
    t_element,
    t_inverse,
)
from glhecke.laurent import S_PROFILE, LaurentPoly, TermBudgetError, demazure_exponents


def s_pow(k):
    return LaurentPoly(S_PROFILE, {(k,): 1})


def test_quadratic_rearranged():
    # T_s1 * T_s1 = (v-1) T_s1 + v
    for m in (2, 3):
        t1 = HeckeElt.gen(m, 1)
        assert t1 * t1 == t1.scale(V_MINUS_1) + HeckeElt.one(m).scale(V)


def test_relation_commuting_case():
    # <lam, alpha^vee> = 0  =>  T e^lam = e^lam T
    m = 3
    t1 = HeckeElt.gen(m, 1)
    for lam in [(0, 0, 0), (1, 1, 0), (2, 2, -1), (-1, -1, 3)]:
        assert t1 * HeckeElt.e(lam) == HeckeElt.e(lam) * t1


def test_relation_norm_one_case():
    # <lam, alpha^vee> = 1  =>  T e^(s lam) T = v e^lam
    m = 3
    for i in (1, 2):
        t = HeckeElt.gen(m, i)
        for lam in [(1, 0, 0), (0, -1, 4), (2, 1, 5)] if i == 1 else [(0, 1, 0), (5, 3, 2)]:
            slam = list(lam)
            slam[i - 1], slam[i] = slam[i], slam[i - 1]
            assert t * HeckeElt.e(slam) * t == HeckeElt.e(lam).scale(V)


def test_useful_formula_random():
    rng = random.Random(11)
    for _ in range(200):
        m = rng.randint(2, 4)
        i = rng.randint(1, m - 1)
        lam = tuple(rng.randint(-3, 3) for _ in range(m))
        slam = list(lam)
        slam[i - 1], slam[i] = slam[i], slam[i - 1]
        t = HeckeElt.gen(m, i)
        lhs = t * HeckeElt.e(slam) - HeckeElt.e(lam) * t
        rhs = HeckeElt.zero(m)
        for nu, sign in demazure_exponents(lam, i):
            rhs = rhs + HeckeElt.e(nu).scale(sign)
        assert lhs == rhs.scale(ONE_S - V)


def test_braid_relations():
    for m in (3, 4, 5):
        for i in range(1, m + 1):
            for j in range(i + 1, m + 1):
                a, b = HeckeElt.gen(m, i), HeckeElt.gen(m, j)
                if (j - i) % m in (1, m - 1):
                    assert a * b * a == b * a * b, (m, i, j)
                else:
                    assert a * b == b * a, (m, i, j)


def test_m2_has_no_braid_relation():
    a, b = HeckeElt.gen(2, 1), HeckeElt.gen(2, 2)
    assert a * b * a != b * a * b


def test_t_element_examples():
    # dominant fundamental translations
    for m in (2, 3, 4):
        for i in range(1, m):
            lam = [1] * i + [0] * (m - i)
            assert t_element(weyl.translation(lam)) == HeckeElt.e(lam).scale(
                s_pow(i * (m - i))
            )
    assert t_element(weyl.identity(3)) == HeckeElt.one(3)
    # the length-zero generator at m = 2
    got = HeckeElt.tw(2, 1)
    assert got == HeckeElt.basis(2, (-1, 0), (1, 0), s_pow(-1))
    assert str(got) == "(s^-1)*e[-1,0]*T[1]"
    # round trip: T_(t^omega_1) * T_(w_1) = T_(sigma_1)
    lhs = t_element(weyl.translation((1, 0))) * got
    assert lhs == t_element(weyl.sigma(2, 1))


def test_t_element_random_consistency():
    rng = random.Random(12)
    for _ in range(60):
        m = rng.randint(1, 3)
        lam = tuple(rng.randint(-2, 2) for _ in range(m))
        perm = list(range(m))
        rng.shuffle(perm)
        w = weyl.AffineWeylElt(lam, tuple(perm))
        u = weyl.AffineWeylElt(tuple(rng.randint(-1, 1) for _ in range(m)), tuple(range(m)))
        assert (t_element(w) * t_element(u)).at_s_one() == {w * u: 1}


def test_t_inverse():
    for m in (2, 3):
        for i in range(1, m + 1):
            assert HeckeElt.gen(m, i) * t_inverse(m, i) == HeckeElt.one(m)
            assert t_inverse(m, i) * HeckeElt.gen(m, i) == HeckeElt.one(m)
    # s -> 1 limit: T_s^-1 specializes to T_s
    inv = t_inverse(2, 1)
    assert inv.at_s_one() == HeckeElt.gen(2, 1).at_s_one()


def test_t_inverse_conjugation_consistency():
    # (T_sigma1)^-1 e^(1,0) T_sigma1 agrees with the useful-formula expansion
    m = 2
    t1 = HeckeElt.gen(m, 1)  # sigma_1 = s_1 when m = 2
    lhs = t_inverse(m, 1) * HeckeElt.e((1, 0)) * t1
    # from T_1 e^(0,1) = e^(1,0) T_1 + (1-v) e^(1,0):
    rhs = HeckeElt.e((0, 1)) - (t_inverse(m, 1) * HeckeElt.e((1, 0))).scale(ONE_S - V)
    assert lhs == rhs


def test_center_commutes():
    for m in (2, 3):
        for lam in [(1, 0) if m == 2 else (1, 0, 0), (1,) * m, (2, 1) if m == 2 else (2, 1, 0)]:
            z = HeckeElt.zero(m)
            for mu in set(permutations(lam)):
                z = z + HeckeElt.e(mu)
            for g in [HeckeElt.gen(m, i) for i in range(1, m + 1)] + [
                HeckeElt.tw(m, 1),
                HeckeElt.e((1,) + (0,) * (m - 1)),
            ]:
                assert z * g == g * z, (m, lam)


def test_affine_generator_bernstein_form():
    # m = 2: T_s2 = (v-1) + e^(-1,1) T_s1, derived by hand from the chain
    got = HeckeElt.gen(2, 2)
    want = HeckeElt.one(2).scale(V_MINUS_1) + HeckeElt.basis(2, (-1, 1), (1, 0), ONE_S)
    assert got == want
    # and satisfies the quadratic relation
    assert got * got == got.scale(V_MINUS_1) + HeckeElt.one(2).scale(V)


def test_omega_conjugation():
    for m in (2, 3, 4):
        w1, w1i = HeckeElt.tw(m, 1), HeckeElt.tw(m, -1)
        assert w1 * w1i == HeckeElt.one(m)
        for i in range(1, m + 1):
            j = weyl.conjugate_simple(m, i, 1)
            assert w1 * HeckeElt.gen(m, i) * w1i == HeckeElt.gen(m, j)


def test_associativity_random():
    rng = random.Random(13)
    from glhecke.verify import _random_hecke

    for _ in range(60):
        m = rng.randint(2, 3)
        a, b, c = (_random_hecke(m, rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_literals_round_trip():
    elt = parse_hecke(2, "(s^2 - 1)*e[1,0]*T[1] + 3*Tw[1] - s^-2*e[0,2]")
    assert parse_hecke(2, str(elt)) == elt
    assert parse_hecke(3, "T[3]") == HeckeElt.gen(3, 3)
    assert parse_hecke(2, "Tw[-2]") == HeckeElt.tw(2, -2)
    with pytest.raises(ValueError):
        parse_hecke(2, "e[1]")
    with pytest.raises(ValueError):
        parse_hecke(2, "T[1")


def test_tw_powers_match_iterated_products():
    for m in range(1, 5):
        # T_{w1}^{-1} = s^{1-m} e^{(0,..,0,1)} T_{sigma_1^{-1}}, an independent form
        lam = (0,) * (m - 1) + (1,)
        inv = HeckeElt.basis(m, lam, weyl.sigma(m, m - 1).perm, s_pow(1 - m))
        assert HeckeElt.tw(m, -1) == inv
        assert HeckeElt.tw(m, 1) * inv == HeckeElt.one(m)
        # T_{w1}^m = e^{-(1,..,1)}
        assert HeckeElt.tw(m, m) == HeckeElt.e((-1,) * m)
        for sign in (1, -1):
            step, power = HeckeElt.tw(m, sign), HeckeElt.one(m)
            for k in range(2 * m + 2):
                assert HeckeElt.tw(m, sign * k) == power, (m, sign * k)
                power = power * step
    # deep powers split off the central part and need no recursion
    assert HeckeElt.tw(2, 3000) == HeckeElt.e((-1500, -1500))
    assert HeckeElt.tw(3, -3001) == HeckeElt.e((1000, 1000, 1000)) * HeckeElt.tw(3, -1)


def test_hecke_arithmetic_honours_term_cap(monkeypatch):
    # T[1] e[200000,0] has a Bernstein correction of 200,000 terms: the cap
    # stops it before the exponent list is built, not after
    monkeypatch.setattr(laurent, "_MAX_TERMS", 1000)
    with pytest.raises(TermBudgetError):
        demazure_exponents((0, 200000), 1)
    with pytest.raises(TermBudgetError):
        parse_hecke(2, "T[1]*e[200000,0]")
    # sums and products count their basis terms too: each result below has
    # 3 or 4 terms, from operands of at most 2
    a, b = parse_hecke(2, "e[1,0] + e[2,0]"), parse_hecke(2, "T[1]*e[1,0]")
    ops = (
        lambda: a + HeckeElt.e((3, 0)),
        lambda: HeckeElt.e((2, 0)).left_mul_gen(1),
        lambda: b.right_mul_gen(1),
        lambda: a * parse_hecke(2, "e[0,1] + e[0,2]"),
    )
    assert [len(op().terms) for op in ops] == [3, 3, 3, 4]
    monkeypatch.setattr(laurent, "_MAX_TERMS", 2)
    for op in ops:
        with pytest.raises(TermBudgetError):
            op()
    monkeypatch.undo()
    assert len(parse_hecke(2, "T[1]*e[200,0]").terms) == 201


# -- algebra axioms on random elements (Hypothesis) ----------------------------

s_coeffs = st.lists(
    st.tuples(st.integers(-2, 2), st.integers(-3, 3)), min_size=1, max_size=3
).map(lambda items: LaurentPoly.from_terms(S_PROFILE, (((e,), c) for e, c in items)))


@st.composite
def hecke_elts(draw, m):
    out = HeckeElt.zero(m)
    for _ in range(draw(st.integers(1, 2))):
        lam = draw(st.tuples(*[st.integers(-1, 1)] * m))
        perm = tuple(draw(st.permutations(range(m))))
        out = out + HeckeElt.basis(m, lam, perm, draw(s_coeffs))
    return out


@st.composite
def hecke_triples(draw):
    m = draw(st.sampled_from([2, 3]))
    return tuple(draw(hecke_elts(m)) for _ in range(3))


def convolve(f, g):
    """Product in the group algebra of the extended affine Weyl group."""
    out = {}
    for x, cx in f.items():
        for y, cy in g.items():
            out[x * y] = out.get(x * y, 0) + cx * cy
    return {k: c for k, c in out.items() if c}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from([1, 2, 3]).flatmap(hecke_elts))
def test_literal_round_trip_property(h):
    assert parse_hecke(h.m, str(h)) == h


@settings(max_examples=120, deadline=None, derandomize=True)
@given(hecke_triples())
def test_product_associative_property(abc):
    a, b, c = abc
    assert (a * b) * c == a * (b * c)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(hecke_triples(), s_coeffs)
def test_product_bilinear_property(abc, p):
    a, b, c = abc
    assert (a + b) * c == a * c + b * c
    assert c * (a - b) == c * a - c * b
    ab = (a * b).scale(p)
    assert a.scale(p) * b == ab
    assert a * b.scale(p) == ab
    assert a.scale(-2) * b == (a * b).scale(-2)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(hecke_triples())
def test_s_one_collapse_property(abc):
    a, b, _ = abc
    assert (a * b).at_s_one() == convolve(a.at_s_one(), b.at_s_one())
