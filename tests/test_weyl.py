"""Group structure, the length function against two independent oracles,
reduced words, and literals."""

import os
import random
import subprocess
import sys
from collections import deque
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glhecke import verify, weyl
from glhecke.verify import bfs_lengths


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


def elts_of_rank(m, translated=st.just(True)):
    """Elements of rank m; with ``translated`` drawing False, a pure
    permutation, which the product takes a shortcut for."""
    lams = st.tuples(*[st.integers(-3, 3) for _ in range(m)])
    return st.builds(
        weyl.AffineWeylElt,
        translated.flatmap(lambda t: lams if t else st.just((0,) * m)),
        st.permutations(range(m)).map(tuple),
    )


@st.composite
def weyl_pairs(draw):
    """Two elements of one rank; the right one has no translation half the time."""
    m = draw(st.integers(1, 5))
    return draw(elts_of_rank(m)), draw(elts_of_rank(m, st.booleans()))


@settings(max_examples=300)
@given(weyl_pairs())
def test_semidirect_product_law(pair):
    # (lam1, w1)(lam2, w2) = (lam1 + w1(lam2), w1 w2), with w acting on
    # vectors by (w . lam)[w[i]] = lam[i] and (w1 w2)[i] = w1[w2[i]],
    # for right factors with and without translation
    a, b = pair
    m = len(a.trans)
    moved = [None] * m
    for i in range(m):
        moved[a.perm[i]] = b.trans[i]
    want_trans = tuple(a.trans[j] + moved[j] for j in range(m))
    want_perm = tuple(a.perm[b.perm[i]] for i in range(m))
    assert a * b == weyl.AffineWeylElt(want_trans, want_perm)


@settings(max_examples=100)
@given(st.data())
def test_product_rejects_rank_mismatch_property(data):
    # with or without a translation on the right, the ranks must agree
    m1, m2 = data.draw(st.lists(st.integers(1, 5), min_size=2, max_size=2, unique=True))
    a = data.draw(elts_of_rank(m1))
    b = data.draw(elts_of_rank(m2, st.booleans()))
    with pytest.raises(ValueError, match="rank mismatch"):
        a * b


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
    # the second target lies on the pruning boundary |lambda_i| = 2 + 4,
    # outside the box whose reach the check tests
    honest = getattr(weyl, name)
    for literal in ("t[2,0,-2]*p[1,2,3]", "t[6,0,-6]*p[1,2,3]"):
        target = weyl.parse_weyl(3, literal)
        monkeypatch.setattr(weyl, name, lambda w, target=target: honest(w) + (w == target))
        check = verify.run_check("hecke", "weyl-length-bfs", 3)
        assert check.status == "fail"
        assert literal in check.counterexample


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


@settings(max_examples=300)
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


def deque_bfs_lengths(m, lam_bound, slack=4):
    """The whole distance table by a deque 0-1 BFS over the same pruned
    Cayley graph: the oracle for the layer-by-layer ``bfs_lengths``."""
    cap = lam_bound + slack
    gens1 = [weyl.simple_reflection(m, i) for i in range(1, m + 1)] if m >= 2 else []
    gens0 = [weyl.omega(m, 1), weyl.omega(m, -1)]
    start = weyl.identity(m)
    dist = {start: 0}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        d = dist[cur]
        for g in gens0:
            nxt = cur * g
            if max(nxt.trans) > cap or min(nxt.trans) < -cap:
                continue
            if nxt not in dist or dist[nxt] > d:
                dist[nxt] = d
                queue.appendleft(nxt)
        for g in gens1:
            nxt = cur * g
            if max(nxt.trans) > cap or min(nxt.trans) < -cap:
                continue
            if nxt not in dist:
                dist[nxt] = d + 1
                queue.append(nxt)
    return dist


@pytest.mark.parametrize("m, size", [(1, 13), (2, 338), (3, 13_182)])
def test_bfs_lengths_match_the_deque_bfs(m, size):
    pairs = list(bfs_lengths(m, 2))
    assert len(pairs) == size  # each element yielded once
    assert dict(pairs) == deque_bfs_lengths(m, 2)


def test_bfs_check_memory_does_not_grow_with_the_graph():
    # The whole m = 3 table grew the peak RSS by 3.0 MiB; two layers and the
    # 750 elements of the box stay well under 1.5 MiB.  Linux carries the
    # peak RSS of the spawning process (here pytest) over exec, so the check
    # runs in a fork of the fresh interpreter, whose peak starts at its own size.
    script = (
        "import os, resource\n"
        "from glhecke import verify\n"
        "pid = os.fork()\n"
        "if pid == 0:\n"
        "    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "    status = verify.run_check('hecke', 'weyl-length-bfs', 3).status\n"
        "    print(status, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before, flush=True)\n"
        "    os._exit(0)\n"
        "assert os.waitpid(pid, 0)[1] == 0\n"
    )
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(weyl.__file__)))
    env = {**os.environ, "PYTHONPATH": package_root}
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
    status, growth_kib = out.stdout.split()
    assert status == "pass"
    assert int(growth_kib) < 1.5 * 1024, f"peak RSS grew by {growth_kib} KiB"


def test_bfs_oracle_small():
    # exhaustive for m <= 3, |lam_i| <= 2
    for m in (1, 2, 3):
        table = dict(bfs_lengths(m, 2))
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


@settings(max_examples=200)
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
