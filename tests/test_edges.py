"""Edge cases and error paths across the public surface."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glhecke import springer, theta, weyl
from glhecke.hecke import HeckeElt, parse_hecke, t_element
from glhecke.laurent import S_PROFILE, LaurentPoly, demazure_exponents, parse_poly, x_profile


def test_poly_pow_edges():
    p = LaurentPoly.variable(S_PROFILE, "s") + LaurentPoly.one(S_PROFILE)
    assert p**0 == LaurentPoly.one(S_PROFILE)
    with pytest.raises(ValueError):
        p**-1
    q = LaurentPoly.monomial(S_PROFILE, (3,), -1)
    assert q**-2 == LaurentPoly.monomial(S_PROFILE, (-6,), 1)
    with pytest.raises(ValueError):
        LaurentPoly.monomial(S_PROFILE, (1,), 2) ** -1


def test_demazure_index_bounds():
    with pytest.raises(ValueError):
        demazure_exponents((1, 0), 2)
    with pytest.raises(ValueError):
        demazure_exponents((1, 0), 0)


def test_weyl_parse_errors():
    with pytest.raises(ValueError):
        weyl.parse_weyl(2, "t[1]")
    with pytest.raises(ValueError):
        weyl.parse_weyl(2, "p[1,1]")
    with pytest.raises(ValueError):
        weyl.parse_weyl(2, "q[1,2]")
    with pytest.raises(ValueError, match=r"missing exponent after '\^'"):
        weyl.parse_weyl(2, "t[1,0]^")
    with pytest.raises(ValueError, match=r"missing exponent after '\^'"):
        weyl.parse_weyl(2, "W1^x")
    with pytest.raises(ValueError, match=r"unclosed '\['"):
        weyl.parse_weyl(2, "t[1,2")


def test_literal_error_messages():
    with pytest.raises(ValueError, match="takes one index"):
        parse_hecke(2, "T[1,2]")
    with pytest.raises(ValueError, match="takes one index"):
        parse_hecke(2, "Tw[1,-2]")
    with pytest.raises(ValueError, match=r"missing exponent after '\^'"):
        parse_hecke(2, "s^x")
    with pytest.raises(ValueError, match=r"missing exponent after '\^'"):
        parse_poly(S_PROFILE, "s^x")
    with pytest.raises(ValueError, match="expected an integer"):
        weyl.parse_weyl(2, "t[1, a]")
    with pytest.raises(ValueError, match="needs 2 entries"):
        parse_hecke(2, "e[1]")
    with pytest.raises(ValueError, match="nested too deeply"):
        parse_poly(S_PROFILE, "(" * 2000 + "s" + ")" * 2000)


# the tokens of all three grammars: small integers, identifiers, punctuation
_LITERAL_TOKENS = st.sampled_from(
    [str(n) for n in range(13)]
    + ["s", "x1", "x2", "g", "e", "T", "Tw", "t", "p", "W1"]
    + list("+-*^()[],")
)


@settings(max_examples=600)
@given(st.lists(_LITERAL_TOKENS, max_size=12), st.integers(1, 3))
def test_literal_fuzz_parses_or_raises_value_error(tokens, m):
    text = " ".join(tokens)
    for parse in (
        lambda: parse_poly(x_profile(m), text),
        lambda: parse_hecke(m, text),
        lambda: weyl.parse_weyl(m, text),
    ):
        try:
            parse()
        except ValueError:
            pass


def test_reflection_bounds():
    with pytest.raises(ValueError):
        weyl.simple_reflection(3, 4)
    with pytest.raises(ValueError):
        weyl.simple_reflection(1, 1)
    with pytest.raises(ValueError):
        HeckeElt.gen(1, 1)
    with pytest.raises(ValueError):
        weyl.omega_opposite_sign(3, 0)


def test_hecke_printer_edges():
    assert str(HeckeElt.zero(2)) == "0"
    assert str(HeckeElt.one(2)) == "(1)"
    assert parse_hecke(2, str(HeckeElt.one(2))) == HeckeElt.one(2)
    mixed = HeckeElt.gen(2, 1) - HeckeElt.e((0, -1)).scale(3)
    assert parse_hecke(2, str(mixed)) == mixed


def test_rank_mismatch_rejected():
    with pytest.raises(ValueError):
        HeckeElt.one(2) * HeckeElt.one(3)
    with pytest.raises(ValueError):
        HeckeElt.one(2) + HeckeElt.one(3)
    with pytest.raises(ValueError):
        HeckeElt.one(3) - HeckeElt.one(2)
    with pytest.raises(ValueError):
        springer.restrict_line_bundle(3, (1, 0))


def test_t_element_of_omega_powers():
    for m in (1, 2, 3):
        for k in (-2, -1, 0, 1, 2):
            assert t_element(weyl.omega(m, k)) == HeckeElt.tw(m, k)


def test_theta_m1_degenerate():
    mats = theta.theta_action_matrices(1)
    one = LaurentPoly.one(("g", "s"))
    ginv = LaurentPoly.monomial(("g", "s"), (-1, 0), 1)
    assert mats["Tw[1]"] == [[ginv]]
    assert mats["g"] == [[LaurentPoly.monomial(("g", "s"), (1, 0), 1)]]
    assert theta.check_defining_relations(1) == []
    assert theta.freeness_determinant(1) == one


@settings(max_examples=150)
@given(
    st.integers(2, 3),
    st.lists(st.integers(-2, 2), min_size=3, max_size=3),
    st.integers(1, 2),
)
def test_hecke_mul_bilinear(m, lam3, i):
    lam = tuple(lam3[:m])
    a = HeckeElt.gen(m, min(i, m - 1))
    b = HeckeElt.e(lam)
    c = HeckeElt.e(tuple(-v for v in lam))
    assert a * (b + c) == a * b + a * c
    assert (b + c) * a == b * a + c * a


@settings(max_examples=100)
@given(st.lists(st.integers(-3, 3), min_size=2, max_size=4))
def test_translation_lengths_are_orbit_invariant(lam):
    # len(t^lam) depends only on the multiset of entries
    m = len(lam)
    base = weyl.length(weyl.translation(lam))
    assert base == weyl.length(weyl.translation(sorted(lam)))
    assert base == sum(abs(a - b) for idx, a in enumerate(lam) for b in lam[idx + 1 :])
