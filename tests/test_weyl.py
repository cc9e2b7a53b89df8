"""Group structure, the length function against two independent oracles,
reduced words, and literals."""

import random
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glhecke import verify, weyl
from glhecke.verify import bfs_length_table


def random_elt(m, rng, bound=2):
    lam = tuple(rng.randint(-bound, bound) for _ in range(m))
    perm = list(range(m))
    rng.shuffle(perm)
    return weyl.AffineWeylElt(lam, tuple(perm))


def test_group_axioms():
    rng = random.Random(0)
    for _ in range(300):
        m = rng.randint(1, 4)
        a, b, c = (random_elt(m, rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * a.inverse() == weyl.identity(m)
        assert a.inverse() * a == weyl.identity(m)
        assert a * weyl.identity(m) == a


@st.composite
def weyl_pairs(draw):
    m = draw(st.integers(1, 5))
    lams = st.tuples(*[st.integers(-3, 3) for _ in range(m)])
    perms = st.permutations(range(m)).map(tuple)
    return tuple(weyl.AffineWeylElt(draw(lams), draw(perms)) for _ in range(2))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(weyl_pairs())
def test_semidirect_product_law(pair):
    # (lam1, w1)(lam2, w2) = (lam1 + w1(lam2), w1 w2), with w acting on
    # vectors by (w . lam)[w[i]] = lam[i] and (w1 w2)[i] = w1[w2[i]]
    a, b = pair
    m = len(a.trans)
    moved = [None] * m
    for i in range(m):
        moved[a.perm[i]] = b.trans[i]
    want_trans = tuple(a.trans[j] + moved[j] for j in range(m))
    want_perm = tuple(a.perm[b.perm[i]] for i in range(m))
    assert a * b == weyl.AffineWeylElt(want_trans, want_perm)


def test_one_element_four_ways():
    # w1 = t^(-omega_1) sigma_1 at m = 3, from a literal, omega, an inverse
    # and a product; all equal, with one hash, and equal to the plain pair
    ways = [
        weyl.parse_weyl(3, "W1"),
        weyl.omega(3, 1),
        weyl.omega(3, -1).inverse(),
        weyl.translation((-1, 0, 0)) * weyl.sigma(3, 1),
    ]
    pair = ((-1, 0, 0), (1, 2, 0))
    assert all(w == pair for w in ways)
    assert {hash(w) for w in ways} == {hash(pair)}
    assert all(str(w) == "t[-1,0,0]*p[2,3,1]" for w in ways)
    assert weyl.parse_weyl(3, str(ways[0])) == ways[0]
    with pytest.raises(ValueError, match="rank mismatch"):
        weyl.omega(3, 1) * weyl.omega(2, 1)


@pytest.mark.parametrize("name", ["length", "window_inversions"])
def test_planted_length_fault_fails_bfs_check(monkeypatch, name):
    target = weyl.parse_weyl(3, "t[2,0,-2]*p[1,2,3]")
    honest = getattr(weyl, name)
    monkeypatch.setattr(weyl, name, lambda w: honest(w) + (w == target))
    check = verify.run_check("hecke", "weyl-length-bfs", 3)
    assert check.status == "fail"
    assert "t[2,0,-2]*p[1,2,3]" in check.counterexample


def test_length_known_values():
    for m in (2, 3, 4, 6):
        for i in range(1, m):
            omega_i = weyl.translation([1] * i + [0] * (m - i))
            assert weyl.length(omega_i) == i * (m - i)
        for i in range(1, m):
            assert weyl.length(weyl.omega(m, i)) == 0
        assert weyl.length(weyl.simple_reflection(m, m)) == 1


def test_length_inversion_and_subadditivity():
    rng = random.Random(1)
    for _ in range(300):
        m = rng.randint(1, 4)
        a, b = random_elt(m, rng), random_elt(m, rng)
        assert weyl.length(a) == weyl.length(a.inverse())
        assert weyl.length(a * b) <= weyl.length(a) + weyl.length(b)


def test_length_matches_window_inversions():
    rng = random.Random(2)
    for _ in range(500):
        m = rng.randint(1, 5)
        w = random_elt(m, rng, bound=3)
        assert weyl.length(w) == weyl.window_inversions(w)


def test_omega_preserves_length():
    rng = random.Random(3)
    for _ in range(200):
        m = rng.randint(1, 4)
        a = random_elt(m, rng)
        for k in (-2, -1, 1, 2):
            assert weyl.length(weyl.omega(m, k) * a) == weyl.length(a)


def test_sigma_omega_structure():
    for m in (1, 2, 3, 5):
        w1 = weyl.omega(m, 1)
        for i in range(1, m + 1):
            expected = weyl.translation([-1] * i + [0] * (m - i)) * weyl.sigma(m, i)
            assert w1**i == expected
        assert w1**m == weyl.translation([-1] * m)


def test_omega_opposite_sign_lengths():
    for m in (2, 3, 4, 5):
        for i in range(1, m + 1):
            assert weyl.length(weyl.omega_opposite_sign(m, i)) == 2 * i * (m - i)


def test_reduced_word_examples():
    assert weyl.reduced_word(weyl.identity(3)) == (0, [])
    for m in (2, 3, 4):
        assert weyl.reduced_word(weyl.simple_reflection(m, m)) == (0, [m])
    for m in (3, 5, 6):
        k, word = weyl.reduced_word(weyl.sigma(m, 1).inverse())
        assert (k, word) == (0, list(range(m - 1, 0, -1)))


def trial_length_reduced_word(w):
    """The earlier reduced_word, kept as the reference for the greedy
    smallest-index-first order: each trial right descent costs a product
    and a full length."""
    m = w.m
    gens = [weyl.simple_reflection(m, i) for i in range(1, m + 1)] if m >= 2 else []
    cur, cur_len, records = w, weyl.length(w), []
    while cur_len > 0:
        for i, g in enumerate(gens, 1):
            nxt = cur * g
            if weyl.length(nxt) < cur_len:
                records.append(i)
                cur, cur_len = nxt, weyl.length(nxt)
                break
        else:
            raise AssertionError("positive length but no descent")
    return -sum(cur.trans), records[::-1]


weyl_elts = st.integers(1, 6).flatmap(
    lambda m: st.builds(
        weyl.AffineWeylElt,
        st.tuples(*[st.integers(-3, 3)] * m),
        st.permutations(range(m)).map(tuple),
    )
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(weyl_elts)
def test_reduced_word_matches_trial_length_reference(w):
    assert weyl.reduced_word(w) == trial_length_reduced_word(w)


def test_reduced_word_round_trip():
    rng = random.Random(4)
    for _ in range(300):
        m = rng.randint(1, 4)
        w = random_elt(m, rng)
        k, word = weyl.reduced_word(w)
        assert len(word) == weyl.length(w)
        recomposed = weyl.omega(m, k)
        for i in word:
            recomposed = recomposed * weyl.simple_reflection(m, i)
        assert recomposed == w


def test_conjugate_simple():
    assert weyl.conjugate_simple(5, 1, 1) == 2
    assert weyl.conjugate_simple(5, 5, 1) == 1
    assert weyl.conjugate_simple(5, 2, 5) == 2
    # group-theoretic verification: w_j s_i w_j^-1 = s_(i+j mod m)
    for m in (2, 3, 4):
        for i in range(1, m + 1):
            for j in range(1, m + 1):
                lhs = weyl.omega(m, j) * weyl.simple_reflection(m, i) * weyl.omega(m, j).inverse()
                assert lhs == weyl.simple_reflection(m, weyl.conjugate_simple(m, i, j))


def test_bfs_oracle_small():
    # exhaustive for m <= 3, |lam_i| <= 2
    for m in (1, 2, 3):
        table = bfs_length_table(m, 2)
        for lam in product(range(-2, 3), repeat=m):
            for perm in permutations(range(m)):
                w = weyl.AffineWeylElt(lam, perm)
                assert w in table
                assert table[w] == weyl.length(w), w


def test_literals():
    w = weyl.parse_weyl(3, "t[1,0,-2]*p[2,1,3]")
    assert w == weyl.AffineWeylElt((1, 0, -2), (1, 0, 2))
    assert weyl.parse_weyl(3, weyl.format_weyl(w)) == w
    assert weyl.parse_weyl(2, "W1") == weyl.omega(2, 1)
    assert weyl.parse_weyl(2, "W1^-3") == weyl.omega(2, -3)
    assert weyl.parse_weyl(2, "W1^2 * t[1,0]") == weyl.omega(2, 2) * weyl.translation((1, 0))
    # juxtaposition multiplies too
    assert weyl.parse_weyl(2, "W1^2 t[1,0]p[2,1]") == weyl.parse_weyl(2, "W1^2*t[1,0]*p[2,1]")


@settings(max_examples=200, deadline=None, derandomize=True)
@given(weyl_elts)
def test_literal_round_trip_property(w):
    assert weyl.parse_weyl(w.m, weyl.format_weyl(w)) == w


def test_tuple_operators_are_refused():
    # AffineWeylElt is a tuple, but tuple + and int * are not group operations
    w = weyl.omega(2, 1)
    with pytest.raises(TypeError):
        w + w
    with pytest.raises(TypeError):
        2 * w
    with pytest.raises(TypeError):
        w * 2
