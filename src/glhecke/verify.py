"""Batch verification suites with machine-readable, byte-stable reports.

Every identity the library claims is re-checked here as an exact symbolic
statement; no check ever compares floating-point numbers and every recorded
counterexample is an exact literal.  Randomized checks draw from a
counter-based generator keyed by (seed, suite, check id, m), so reports are
reproducible; elapsed times are recorded but excluded from the canonical
JSON rendering used for golden-file comparisons.

Each check is one module-level function, registered in the ordered table of
every suite that runs it with the suite's own id stem, anchor and rank
range; ``run_suite`` runs a table and ``run_check`` runs one entry by id.

``run_suite`` runs its (check, rank) units on every CPU in the process's
affinity mask: the process itself and one forked helper per further CPU
take unit indices from one shared queue, the largest rank first and table
order within a rank, and the helpers send each finished ``Check`` back as
JSON.  The report does not depend on how many processes ran it or on which
one ran a unit.  A unit's result is a function of its check and its
``_Ctx`` alone: its draws come from the generator keyed by (seed, suite,
check id, m), and every table it reads (the ``functools.cache`` tables, such
as ``theta._matrix``) holds a pure function of the rank, so a table that
one process filled and another did not gives the same values.  The only
field that varies, ``elapsed_ms``, is left out of the canonical JSON, and
the parent puts the checks in table order, so the text report, the JSON
and the exit code are those of a serial run.  A helper that dies costs only
the unit it was running, which is reported as an ``error`` with the exit
status.  With one CPU in the mask (``taskset -c 0``), or where ``os.fork``,
``os.sched_getaffinity`` or ``os.memfd_create`` is missing, nothing is
forked.

The Hecke product is proved associative through its left operators
(``_associativity``).  ``HeckeElt.__mul__`` computes a*b as the sum of
c e^lam L_w(b) over the terms c e^lam T_w of a, with L_w the product of the
left operators L_i = ``left_mul_gen(i)`` along a reduced word of w.  If the
L_i and the shifts e^lam * _ satisfy the quadratic, braid and Bernstein
relations of the Bernstein presentation, and L_w(1) = T_w for w in S_m, then
a -> L_a is a representation of the affine Hecke algebra whose evaluation at
1 is the identity on bases, so the coded product is the algebra's product.
The check verifies those relations on a box of basis elements and keeps
random basis triples as the end-to-end oracle.
"""

from __future__ import annotations

import json
import math
import os
import random
import time
from collections import Counter
from itertools import combinations, permutations, product
from typing import Callable, Iterator, NamedTuple, Sequence

from . import polyrep, springer, theta, weyl
from .hecke import ONE_MINUS_V, HeckeElt, V, V_MINUS_1, perm_word, t_element, t_inverse
from .laurent import (
    GS_PROFILE,
    LaurentPoly,
    TermBudgetError,
    demazure_exponents,
    demazure_quotient,
    orbit,
    x_profile,
)

__all__ = ["Check", "VerificationReport", "run_suite", "run_check", "report_json", "report_text", "SUITES"]


class Check(NamedTuple):
    id: str
    anchor: str
    status: str  # pass | fail | error | convention-A | convention-B
    elapsed_ms: int = 0
    counterexample: str | None = None
    error: str | None = None  # the resource limit an ``error`` check hit


class VerificationReport:
    schema = 1

    def __init__(
        self, suite: str, m_range: tuple[int, int], seed: int, checks: list[Check] | None = None
    ) -> None:
        self.suite = suite
        self.m_range = m_range
        self.seed = seed
        self.checks = [] if checks is None else checks

    @property
    def failed(self) -> bool:
        return any(c.status == "fail" for c in self.checks)

    @property
    def errored(self) -> bool:
        return any(c.status == "error" for c in self.checks)


def _rng(seed: int, suite: str, check_id: str, m: int) -> random.Random:
    import hashlib  # on the first draw: it loads OpenSSL, which suites that draw nothing skip

    digest = hashlib.sha256(f"{seed}:{suite}:{check_id}:{m}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def report_json(report: VerificationReport, include_elapsed: bool = False) -> str:
    payload = {
        "schema": report.schema,
        "suite": report.suite,
        "m_range": list(report.m_range),
        "seed": report.seed,
        "checks": [
            {
                "id": c.id,
                "anchor": c.anchor,
                "status": c.status,
                **({"elapsed_ms": c.elapsed_ms} if include_elapsed else {}),
                **({"counterexample": c.counterexample} if c.counterexample else {}),
                **({"error": c.error} if c.error else {}),
            }
            for c in report.checks
        ],
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def report_text(report: VerificationReport) -> str:
    lines = [
        f"suite {report.suite}  m={report.m_range[0]}..{report.m_range[1]}  seed={report.seed}"
    ]
    for c in report.checks:
        line = f"  [{c.status:>12}] {c.id}  ({c.elapsed_ms} ms)"
        if c.counterexample:
            line += f"\n      counterexample: {c.counterexample}"
        if c.error:
            line += f"\n      error: {c.error}"
        lines.append(line)
    verdict = "FAIL" if report.failed else "ERROR" if report.errored else "OK"
    lines.append(f"result: {verdict}")
    return "\n".join(lines) + "\n"


# -- random element generation ---------------------------------------------------


def _random_basis(m: int, rng: random.Random) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The pair (lam, w) of e^lam T_w with lam in {-1, 0, 1}^m; w is uniform
    in S_m at m <= 4 and a product of at most three adjacent transpositions
    above, where one triple product of uniform draws can take seconds."""
    lam = tuple(rng.randint(-1, 1) for _ in range(m))
    perm = list(range(m))
    if m <= 4:
        rng.shuffle(perm)
    else:
        for _ in range(rng.randint(0, 3)):
            i = rng.randint(0, m - 2)
            perm[i], perm[i + 1] = perm[i + 1], perm[i]
    return lam, tuple(perm)


def _random_weyl(m: int, rng: random.Random, bound: int = 2) -> weyl.AffineWeylElt:
    if m <= 4:
        lam = tuple(rng.randint(-bound, bound) for _ in range(m))
        perm = list(range(m))
        rng.shuffle(perm)
        return weyl.AffineWeylElt(lam, tuple(perm))
    # sparse translations and short words keep t_element tractable at high rank
    lam = [0] * m
    for _ in range(rng.randint(0, 2)):
        lam[rng.randint(0, m - 1)] = rng.randint(-1, 1)
    perm = list(range(m))
    for _ in range(rng.randint(0, 3)):
        i = rng.randint(0, m - 2)
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    return weyl.AffineWeylElt(tuple(lam), tuple(perm))


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


def _lambda_box(m: int) -> list[tuple[int, ...]]:
    """All cocharacters with entries in {-1, 0, 1} (m <= 4), else the sparse
    default box."""
    if m <= 4:
        return [lam for lam in product((-1, 0, 1), repeat=m)]
    return _default_box(m)


# -- the BFS length oracle ---------------------------------------------------------

# ``weyl-length-bfs`` checks |lambda_i| <= _BFS_BOX; the search adds a slack
_BFS_BOX, _BFS_SLACK = 2, 4


def bfs_lengths(m: int) -> Iterator[tuple[weyl.AffineWeylElt, int]]:
    """Yield every (w, d) with d the shortest word length of w over the
    Cayley graph of W_aff x| Omega, with weight-1 moves w -> w s_i and
    weight-0 moves w -> w omega^(+-1), pruned to |lambda_i| <= _BFS_BOX +
    _BFS_SLACK; each w once, one layer (all w at one distance d) at a time.

    The search walks windows u = ``weyl.window(w)``, each move one of the
    tuple moves of ``weyl``, and yields ``weyl.from_window(u)``.  Since
    u(k) = w(k) - m lambda_{w(k)} with 1 <= w(k) <= m, the cap
    |lambda_i| <= c is 1 - cm <= u(k) <= (c + 1)m for every k.  The s_i
    with i < m permute the entries and keep it; s_m and omega^(+-1) change
    at most the first entry, downwards, and the last, upwards, so the cap
    is checked there alone.  Within the cap the Omega moves from u reach an
    interval of its Omega orbit: omega moves every entry up or keeps it, so
    the minimum and the maximum of omega^j u both grow with j.

    This is frontier search (Korf, Zhang, Thayer and Hohwald, "Frontier
    search", J. ACM 52(5), 2005): only layers d - 1 and d are held while
    layer d + 1 is built.  It is exact because the pruned graph is
    undirected: each window move of s_i is an involution, those of omega
    and omega^-1 are inverse to each other and both are moves, and pruning
    removes vertices (windows outside the cap), not edges.  So the
    distances at the two ends of an edge of weight c differ by at most c:
    an s_i-neighbour of layer d lies in layer d - 1, d or d + 1, and an
    Omega-neighbour of layer d lies in layer d.  A shortest path to a
    vertex of layer d + 1 ends with one s_i move out of layer d followed by
    Omega moves only, so layer d + 1 is the set of s_i-neighbours of layer d
    that lie in neither layer d - 1 nor layer d, closed under the in-cap
    Omega moves."""
    cap = _BFS_BOX + _BFS_SLACK
    lo, hi = 1 - cap * m, (cap + 1) * m
    swap, affine, rotate = weyl.window_swap, weyl.window_affine, weyl.window_rotate
    inner = range(1, m)

    def omega_closure(layer: set[tuple[int, ...]]) -> set[tuple[int, ...]]:
        for u in list(layer):
            for e in (1, -1):
                nxt = rotate(u, e)
                while lo <= nxt[0] and nxt[-1] <= hi and nxt not in layer:
                    layer.add(nxt)
                    nxt = rotate(nxt, e)
        return layer

    before: set[tuple[int, ...]] = set()
    layer = omega_closure({weyl.window(weyl.identity(m))})
    d = 0
    while layer:
        for u in layer:
            yield weyl.from_window(u), d
        after: set[tuple[int, ...]] = set()
        for u in layer:
            for i in inner:
                nxt = swap(u, i)
                if nxt not in layer and nxt not in before:
                    after.add(nxt)
            if m >= 2:
                nxt = affine(u)
                if lo <= nxt[0] and nxt[-1] <= hi and nxt not in layer and nxt not in before:
                    after.add(nxt)
        before, layer = layer, omega_closure(after)
        d += 1


# -- the check runner -------------------------------------------------------------


class _Ctx(NamedTuple):
    """What one check run sees: its suite, rank, seed and case count, and for
    the orbit checks the first-factor rank and the bounds (N, r)."""

    suite: str
    m: int
    seed: int = 0
    cases: int = 1000
    n: int = 1
    bounds: tuple[int, int] = (0, 1)

    def rng(self, key: str) -> random.Random:
        return _rng(self.seed, self.suite, key, self.m)


class _Spec(NamedTuple):
    """One registered check: the report id is ``stem + tail`` with ``tail``
    formatted by m, n, N and r; it runs at ranks ``lo <= m <= hi``."""

    stem: str
    fn: Callable[[_Ctx], object]
    anchor: str
    lo: int = 1
    hi: int | None = None
    tail: str = "-m{m}"

    def covers(self, m: int) -> bool:
        return self.lo <= m and (self.hi is None or m <= self.hi)

    def check_id(self, c: _Ctx) -> str:
        return self.stem + self.tail.format(m=c.m, n=c.n, N=c.bounds[0], r=c.bounds[1])


def _run(spec: _Spec, c: _Ctx) -> Check:
    """Time one check and classify its result: True passes, a
    ``convention-*`` string is reported as is, anything else fails with it
    as the counterexample, and a crash fails with the exception.  A
    resource limit (term cap, memory, recursion depth) decides nothing about
    the identity, so it is an ``error`` and not a counterexample."""
    id_ = spec.check_id(c)
    t0 = time.perf_counter()
    error = None
    try:
        result = spec.fn(c)
    except (TermBudgetError, MemoryError, RecursionError) as exc:
        result = error = repr(exc)
    except Exception as exc:  # a crash is a failure with a diagnostic
        result = repr(exc)
    elapsed = int((time.perf_counter() - t0) * 1000)
    if error is not None:
        return Check(id_, spec.anchor, "error", elapsed, error=error)
    if result is True:
        return Check(id_, spec.anchor, "pass", elapsed)
    if isinstance(result, str) and result.startswith("convention-"):
        return Check(id_, spec.anchor, result, elapsed)
    return Check(id_, spec.anchor, "fail", elapsed, None if result is False else str(result))


# -- checks shared by several suites -------------------------------------------------


def _orbit_element(lam) -> HeckeElt:
    """sum of e^mu over the S_m-orbit of lam, a central element."""
    z = HeckeElt.zero(len(lam))
    for mu in orbit(lam):
        z = z + HeckeElt.e(mu)
    return z


def _bernstein_holds(m: int, i: int, lam: tuple[int, ...]) -> bool:
    slam = list(lam)
    slam[i - 1], slam[i] = slam[i], slam[i - 1]
    t = HeckeElt.gen(m, i)
    lhs = t * HeckeElt.e(slam) - HeckeElt.e(lam) * t
    rhs = HeckeElt.zero(m)
    for nu, sign in demazure_exponents(lam, i):
        rhs = rhs + HeckeElt.e(nu).scale(sign)
    return lhs == rhs.scale(ONE_MINUS_V)


def _tsm(c: _Ctx):
    m = c.m
    if m < 2:
        return True
    profile = x_profile(m)
    want = (
        LaurentPoly.monomial(profile, (0,) * m + (2,), 1)
        - LaurentPoly.one(profile)
        + LaurentPoly.monomial(profile, (1,) + (0,) * (m - 2) + (-1, 2 * (m - 1)), 1)
    )
    got = polyrep.t_sm_on_one(m)
    return True if got == want else f"T_sm * 1 = {got}, want {want}"


def _kact_formulas(c: _Ctx):
    m = c.m
    o = springer.structure_sheaf(m)
    basis = springer.theorem_basis(m)
    for i in range(1, m + 1):
        got = springer.k_act(t_element(weyl.omega(m, i)), o)
        want = basis[i] if i < m else o.scale(LaurentPoly.monomial(GS_PROFILE, (-1, 0), 1))
        if got != want:
            return f"T_w{i} O failure: {[str(x) for x in got.coords]}"
    for i in range(1, m):
        if springer.k_act(HeckeElt.gen(m, i), o) != o.scale(
            LaurentPoly.monomial(GS_PROFILE, (0, 2), 1)
        ):
            return f"T[{i}] O != v O"
    if m >= 2:
        got = springer.k_act(HeckeElt.gen(m, m), o)
        sm = LaurentPoly.monomial(GS_PROFILE, (0, m), 1)
        gsm = LaurentPoly.monomial(GS_PROFILE, (1, m), 1)
        lw1 = springer.restrict_line_bundle(m, [-1] + [0] * (m - 1))
        lwm1 = springer.restrict_line_bundle(m, [-1] * (m - 1) + [0])
        if got != lw1.scale(sm) + lwm1.scale(gsm) - o:
            return f"T[s_m] O failure: {[str(x) for x in got.coords]}"
    return True


def _u_line_weights(m: int) -> list[tuple[int, int]]:
    """The u-line weights g, s^(m-2), ..., s^(2-m) as (g, s) exponents, written
    out by hand: the checks that use them test ``springer._vector_weight``."""
    return [(1, 0)] + [(0, m - 2 * j) for j in range(1, m)]


def _central_characters(c: _Ctx):
    """The orbit sum z_k of e^mu over the S_m-orbit of (1^k, 0^(m-k)), a
    central element (Lusztig, JAMS 1989), acts on the K-module by the scalar
    e_k(g, s^(m-2), ..., s^(2-m)), for k = 1..m.  No orbit is built:

      * act(e^lam, u) = x^(-lam) u and ``pushdown_poly`` is a ring map, so
        e^(eps_j) acts by pointwise multiplication with the tuple
        P_j = k_act(e^(eps_j), O).  That premise is checked on every
        theorem-basis class; ``k_act`` is linear in the class, so it holds
        on their span.
      * ``k_act`` is linear in h (``module-axiom``) and multiplicative on
        translations (the e-multiplicativity part of ``defining-relations``),
        and every mu in the orbit is 0/1.  So e^mu acts at each fixed point
        p by the product of the P_j(p) over the support of mu, and z_k by
        e_k(P_1(p), ..., P_m(p)).
      * That is e_k(w_1, ..., w_m) of the weights for every k exactly when
        prod_j (X + P_j(p)) = prod_j (X + w_j) in R[X], R = Z[g^+-1, s^+-1].
        R is an integral domain, so roots in Frac(R)[X] are unique with
        multiplicity: at each p the P_j(p) must be the weights as a multiset."""
    m = c.m
    basis = springer.theorem_basis(m)
    units = [HeckeElt.e(tuple(int(i == j) for i in range(m))) for j in range(m)]
    tuples = [springer.k_act(e, basis[0]).entries for e in units]
    for i, b in enumerate(basis):
        for j, (e, pj) in enumerate(zip(units, tuples), start=1):
            if springer.k_act(e, b).entries != tuple(x * y for x, y in zip(pj, b.entries)):
                return f"e^(eps_{j}) does not act on B_{i} by the tuple P_{j}"
    want = Counter(LaurentPoly.monomial(GS_PROFILE, w) for w in _u_line_weights(m))
    for p in range(m):
        got = Counter(pj[p] for pj in tuples)
        for w in [*want, *got]:
            if got[w] != want[w]:
                return f"central scalar failure at p_{p + 1}: {w} occurs {got[w]} times, not {want[w]}"
    return True


def _relations(c: _Ctx):
    fails = theta.check_defining_relations(c.m)
    return True if not fails else "; ".join(fails)


def _freeness(c: _Ctx):
    return True if not theta.freeness_determinant(c.m).is_zero() else "freeness determinant vanished"


# -- hecke ----------------------------------------------------------------------------


def _quadratic(c: _Ctx):
    m = c.m
    if m == 1:
        return True
    for i in range(1, m + 1):
        t = HeckeElt.gen(m, i)
        if t * t != t.scale(V_MINUS_1) + HeckeElt.one(m).scale(V):
            return f"(T[{i}]+1)(T[{i}]-v) != 0 at m={m}"
    return True


def _braid(c: _Ctx):
    m = c.m
    if m < 3:
        return True  # two affine nodes of A_1 generate an infinite dihedral group
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            a, b = HeckeElt.gen(m, i), HeckeElt.gen(m, j)
            if (j - i) % m in (1, m - 1):
                ok = a * b * a == b * a * b
            else:
                ok = a * b == b * a
            if not ok:
                return f"braid failure T[{i}],T[{j}] at m={m}"
    return True


def _bernstein(c: _Ctx):
    for i in range(1, c.m):
        for lam in _lambda_box(c.m):
            if not _bernstein_holds(c.m, i, lam):
                return f"Bernstein failure i={i} lam={lam}"
    return True


def _bernstein_random(c: _Ctx):
    m = c.m
    if m < 2:
        return True
    rng = c.rng("bernstein-random")
    for _ in range(c.cases):
        i = rng.randint(1, m - 1)
        lam = tuple(rng.randint(-3, 3) for _ in range(m))
        if not _bernstein_holds(m, i, lam):
            lam = _shrink(lam, lambda mu: not _bernstein_holds(m, i, mu))
            return f"random Bernstein failure i={i} lam={lam}"
    return True


def _shrink(lam: tuple[int, ...], fails: Callable[[tuple[int, ...]], bool]) -> tuple[int, ...]:
    """Move the entries of the counterexample lam one step toward 0 at a time,
    greedily, while ``fails`` still holds, until no single entry can move."""
    lam = list(lam)
    moved = True
    while moved:
        moved = False
        for j in range(len(lam)):
            while lam[j]:
                trial = lam[:]
                trial[j] -= 1 if lam[j] > 0 else -1
                if not fails(tuple(trial)):
                    break
                lam, moved = trial, True
    return tuple(lam)


def _hecke_center(c: _Ctx):
    m = c.m
    gens = [HeckeElt.gen(m, i) for i in range(1, m + 1) if m >= 2]
    gens += [HeckeElt.tw(m, 1), HeckeElt.e((1,) + (0,) * (m - 1))]
    for lam in _lambda_box(m):
        z = _orbit_element(lam)
        for g in gens:
            if z * g != g * z:
                return f"orbit sum of {lam} does not commute"
    return True


def _left_relation_failure(m: int, b: HeckeElt) -> str | None:
    """The first relation of the left operators L_i = ``left_mul_gen(i)``
    and the shifts E_lam = ``HeckeElt.e(lam) * _`` that fails on the basis
    element b, or None: the quadratic relation, the braid and commute words
    of the finite nodes, and the Bernstein relation at every unit eps_k."""
    gens = range(1, m)
    lb = {i: b.left_mul_gen(i) for i in gens}
    for i in gens:
        if lb[i].left_mul_gen(i) != lb[i].scale(V_MINUS_1) + b.scale(V):
            return f"quadratic i={i}"
    for i in gens:
        for j in range(i + 1, m):
            if j == i + 1:
                if lb[i].left_mul_gen(j).left_mul_gen(i) != lb[j].left_mul_gen(i).left_mul_gen(j):
                    return f"braid i={i} j={j}"
            elif lb[i].left_mul_gen(j) != lb[j].left_mul_gen(i):
                return f"commute i={i} j={j}"
    units = [tuple(int(j == k) for j in range(m)) for k in range(m)]
    for i in gens:
        correction = (HeckeElt.e(units[i - 1]) * b).scale(ONE_MINUS_V)
        for k in range(1, m + 1):
            swapped = units[{i: i, i + 1: i - 1}.get(k, k - 1)]  # s_i eps_k
            lhs = (HeckeElt.e(swapped) * b).left_mul_gen(i) - HeckeElt.e(units[k - 1]) * lb[i]
            want = correction if k == i else correction.scale(-1) if k == i + 1 else HeckeElt.zero(m)
            if lhs != want:
                return f"bernstein i={i} k={k}"
    return None


def _associativity(c: _Ctx):
    """The product is associative: the relations of its left operators make
    it the product of the affine Hecke algebra, and random basis triples
    check it end to end.

    ``HeckeElt.__mul__`` computes a*b as sum c E_lam L_w(b) over the terms
    c e^lam T_w of a, where L_w = L_i1 ... L_il along the reduced word
    ``perm_word(w)``, L_i = ``left_mul_gen(i)`` and E_lam shifts every
    exponent by lam (so E_lam E_mu = E_(lam+mu) by construction).  Suppose
    the L_i and E_lam satisfy, as operators, the Bernstein presentation of
    the affine Hecke algebra H (Lusztig, "Affine Hecke algebras and their
    graded version", JAMS 1989): the quadratic relation
    L_i^2 = (v-1) L_i + v, the braid and commute words, and
    L_i E_(s_i lam) - E_lam L_i = (1-v) E_(Delta_i(lam)) with
    Delta_i(lam) = (e^lam - e^(s_i lam))/(1 - e^-alpha_i).  Then
    rho(T_i) = L_i, rho(e^lam) = E_lam is a representation of H, and
    a*b = rho(a)(b).  If also L_w(1) = T_w for every w in S_m, then
    rho(a)(1) = a on the basis e^lam T_w, hence for every a, and
    a*b = rho(a)(rho(b)(1)) = rho(ab)(1) = ab is the product of H, which
    is associative.  The twisted Leibniz rule of
    ``theta.check_defining_relations`` carries the Bernstein relation from
    the units eps_k, where Delta_i(eps_k) is e^eps_i, -e^eps_i or 0 as
    k = i, i+1 or neither, to all of Z^m.

    Each relation is checked on every basis element e^mu T_u with u in S_m
    and mu in {-1, 0, 1}^m at m <= 4 (1,944 of them at m = 4), mu = 0 first,
    and on ``cases`` seeded draws from that box at m >= 5, where the
    exhaustive run takes most of a minute.  A failure names the relation
    and the one-term b.  The relations are checked as operator identities
    only as far as the box reaches; beyond it, ``cases`` random basis triples
    e^lam T_w with coefficient 1 check associativity directly: their
    products reach exponents outside the box, and trilinearity of the
    product (a Hypothesis property in the tests) extends the check from
    basis triples to all triples.  A failing triple is reported with its 3m
    translation entries shrunk toward 0 and its three permutations kept."""
    m = c.m
    rng = c.rng("associativity")
    one = HeckeElt.one(m)
    for perm in permutations(range(m)):
        got = one
        for i in reversed(perm_word(perm)):
            got = got.left_mul_gen(i)
        if got != HeckeElt.basis(m, (0,) * m, perm):
            return f"evaluation L_w(1) = {got} != T_w at w={perm}"
    if m <= 4:
        box = (
            HeckeElt.basis(m, mu, u)
            for mu in product((0, 1, -1), repeat=m)
            for u in permutations(range(m))
        )
    else:
        box = (
            HeckeElt.basis(m, [rng.randint(-1, 1) for _ in range(m)], rng.sample(range(m), m))
            for _ in range(c.cases)
        )
    for b in box:
        bad = _left_relation_failure(m, b)
        if bad:
            return f"{bad} b={b}"

    def basis(lam: tuple[int, ...], u: tuple[int, ...]) -> HeckeElt:
        return HeckeElt.basis(m, lam, u)

    for _ in range(c.cases):
        triple = [_random_basis(m, rng) for _ in range(3)]
        if not _associates(*(basis(*f) for f in triple)):
            a, b, d = _shrink_factors(triple, basis, _associates)
            return f"associativity failure: a={a}, b={b}, c={d}"
    return True


def _associates(a: HeckeElt, b: HeckeElt, d: HeckeElt) -> bool:
    return (a * b) * d == a * (b * d)


def _specializes(w1: weyl.AffineWeylElt, w2: weyl.AffineWeylElt) -> bool:
    """T_w1 T_w2 collapses to the group element w1 w2 at s = 1."""
    return (t_element(w1) * t_element(w2)).at_s_one() == {w1 * w2: 1}


def _specialization(c: _Ctx):
    rng = c.rng("specialization")
    for _ in range(c.cases):
        w1 = _random_weyl(c.m, rng, bound=1)
        w2 = _random_weyl(c.m, rng, bound=1)
        if not _specializes(w1, w2):
            w1, w2 = _shrink_factors((w1, w2), weyl.AffineWeylElt, _specializes)
            return f"s->1 group algebra failure at {w1} * {w2}"
    return True


def _shrink_factors(
    factors: Sequence[tuple[tuple[int, ...], tuple[int, ...]]],
    build: Callable,
    holds: Callable[..., bool],
) -> list:
    """``_shrink`` the translations of the failing factors (lam, w) as one
    vector, keeping every w, and return the factors ``build(lam, w)``, on
    which ``holds`` is false."""
    m = len(factors[0][0])

    def rebuild(lam: tuple[int, ...]) -> list:
        return [build(lam[k * m : (k + 1) * m], w) for k, (_, w) in enumerate(factors)]

    flat = tuple(x for lam, _ in factors for x in lam)
    return rebuild(_shrink(flat, lambda lam: not holds(*rebuild(lam))))


def _t_inverses(c: _Ctx):
    m = c.m
    if m < 2:
        return True
    for i in range(1, m + 1):
        if HeckeElt.gen(m, i) * t_inverse(m, i) != HeckeElt.one(m):
            return f"T[{i}] inverse failure"
    if HeckeElt.tw(m, 1) * HeckeElt.tw(m, -1) != HeckeElt.one(m):
        return "Tw[1] inverse failure"
    return True


def _omega_conjugation(c: _Ctx):
    """Conjugation by Tw[1] shifts T[i] to T[i+1]; first it also pins the
    closed-form powers by Tw[r] * Tw[1] = Tw[r + 1] for r = -1..m-1."""
    m = c.m
    w1 = HeckeElt.tw(m, 1)
    for r in range(-1, m):
        if HeckeElt.tw(m, r) * w1 != HeckeElt.tw(m, r + 1):
            return f"Tw[{r}] * Tw[1] != Tw[{r + 1}]"
    if m < 2:
        return True
    w1i = HeckeElt.tw(m, -1)
    for i in range(1, m + 1):
        j = weyl.conjugate_simple(m, i, 1)
        if w1 * HeckeElt.gen(m, i) * w1i != HeckeElt.gen(m, j):
            return f"T_w1 T[{i}] T_w1^-1 != T[{j}]"
    return True


def _weyl_bfs(c: _Ctx):
    m = c.m
    reached = set()  # the elements of the box |lambda_i| <= _BFS_BOX
    for elt, d in bfs_lengths(m):
        formula, inversions = weyl.length(elt), weyl.window_inversions(elt)
        if formula != d or inversions != d:
            return f"length mismatch at {elt}: bfs={d} length={formula} window_inversions={inversions}"
        if -_BFS_BOX <= min(elt.trans) and max(elt.trans) <= _BFS_BOX:
            reached.add(elt)
    for lam in product(range(-_BFS_BOX, _BFS_BOX + 1), repeat=m):
        for perm in permutations(range(m)):
            elt = weyl.AffineWeylElt(lam, perm)
            if elt not in reached:
                return f"BFS did not reach {elt}"
    return True


def _reduced_words(c: _Ctx):
    m = c.m
    rng = c.rng("reduced-words")
    for _ in range(max(50, c.cases // 10)):
        w = _random_weyl(m, rng)
        k, word = weyl.reduced_word(w)
        if len(word) != weyl.length(w):
            return f"word length != length at {w}"
        recomposed = weyl.omega(m, k)
        for i in word:
            recomposed = recomposed * weyl.simple_reflection(m, i)
        if recomposed != w:
            return f"recomposition failure at {w}"
    return True


# -- polyrep --------------------------------------------------------------------------


def _length_zero(c: _Ctx):
    m = c.m
    one = polyrep.one_vector(m)
    for i in range(1, m + 1):
        got = polyrep.act(t_element(weyl.omega(m, i)), one)
        key = [1] * i + [0] * (m - i) + [i * (m - i)]
        want = LaurentPoly.monomial(x_profile(m), tuple(key), 1)
        if got != want:
            return f"T_w{i} * 1 = {got}, want {want}"
    return True


def _finite_action(c: _Ctx):
    m = c.m
    profile = x_profile(m)
    one = polyrep.one_vector(m)
    for i in range(1, m):
        if polyrep.act_T(i, one, m) != LaurentPoly.monomial(profile, (0,) * m + (2,), 1):
            return f"T[{i}]*1 != v"
    # T_si * e^(mu_i) = e^(mu_(i+1))
    for i in range(1, m):
        mu = [0] * (m + 1)
        mu[i - 1] = 1
        got = polyrep.act_T(i, LaurentPoly.monomial(profile, tuple(mu), 1), m)
        want_key = [0] * (m + 1)
        want_key[i] = 1
        if got != LaurentPoly.monomial(profile, tuple(want_key), 1):
            return f"T[{i}]*e^mu_{i} failure"
    return True


def _sigma_chain(c: _Ctx):
    m = c.m
    if m < 2:
        return True
    profile = x_profile(m)
    mu2 = [0] * (m + 1)
    mu2[1] = 1
    vec = LaurentPoly.monomial(profile, tuple(mu2), 1)
    got = polyrep.act(t_element(weyl.sigma(m, 1).inverse()), vec)
    mum = [0] * (m + 1)
    mum[m - 1] = 1
    want = (
        LaurentPoly.monomial(profile, tuple(mum[:m]) + (2,), 1)
        - LaurentPoly.monomial(profile, tuple(mum), 1)
        + LaurentPoly.monomial(profile, (1,) + (0,) * (m - 1) + (2 * (m - 1),), 1)
    )
    if got != want:
        return f"T_(sigma_1^-1) * e^mu_2 = {got}, want {want}"
    return True


def _module_axiom(c: _Ctx):
    m = c.m
    rng = c.rng("module-axiom")
    gens: list[HeckeElt] = [HeckeElt.tw(m, 1), HeckeElt.tw(m, -1)]
    if m >= 2:
        gens += [HeckeElt.gen(m, i) for i in range(1, m + 1)]
    for _ in range(c.cases):
        a = rng.choice(gens)
        b = rng.choice(gens)
        lam = tuple(rng.randint(-1, 1) for _ in range(m))
        u = LaurentPoly.monomial(x_profile(m), lam + (0,), 1)
        if polyrep.act(a * b, u) != polyrep.act(a, polyrep.act(b, u)):
            return f"module axiom failure: a={a}, b={b}, u={u}"
    return True


def _quadratic_action(c: _Ctx):
    m = c.m
    if m < 2:
        return True
    profile = x_profile(m)
    rng = c.rng("quadratic-action")
    for _ in range(c.cases):
        i = rng.randint(1, m - 1)
        lam = tuple(rng.randint(-2, 2) for _ in range(m))
        u = LaurentPoly.monomial(profile, lam + (rng.randint(-1, 1),), 1)
        tu = polyrep.act_T(i, u, m)
        lhs = polyrep.act_T(i, tu, m)
        vpoly = LaurentPoly.monomial(profile, (0,) * m + (2,), 1)
        if lhs != (vpoly - LaurentPoly.one(profile)) * tu + vpoly * u:
            return f"quadratic action failure i={i} u={u}"
    return True


def _exact_division(c: _Ctx):
    m = c.m
    if m < 2:
        return True
    profile = x_profile(m)
    rng = c.rng("exact-division")
    for _ in range(c.cases):
        i = rng.randint(1, m - 1)
        lam = tuple(rng.randint(-3, 3) for _ in range(m))
        alpha = [0] * (m + 1)
        alpha[i - 1], alpha[i] = -1, 1
        back = demazure_quotient(lam, i) * (
            LaurentPoly.one(profile) - LaurentPoly.monomial(profile, tuple(alpha), 1)
        )
        slam = list(lam)
        slam[i - 1], slam[i] = slam[i], slam[i - 1]
        want = LaurentPoly.monomial(profile, lam + (0,), 1) - LaurentPoly.monomial(
            profile, tuple(slam) + (0,), 1
        )
        if back != want:
            return f"multiply-back failure lam={lam} i={i}"
    return True


# -- springer -------------------------------------------------------------------------


def _weights(c: _Ctx):
    m = c.m
    table = springer.build_fixed_flags(m)
    want = sorted(_u_line_weights(m))
    for k in range(m):
        if sorted(table.weights[k]) != want:
            return f"graded weights at p_{k+1} are not a permutation of the u-line weights"
    return True


def _det_bundle(c: _Ctx):
    m = c.m
    got = springer.restrict_line_bundle(m, [1] * m)
    want = springer.structure_sheaf(m).scale(LaurentPoly.monomial(GS_PROFILE, (1, 0), 1))
    return True if got == want else f"L_omega_m != g*O: {[str(e) for e in got.entries]}"


def _basis_tables(c: _Ctx):
    if springer.declared_bases(c.m).system_det.is_zero():
        return "change-of-basis determinant vanished"
    if not springer.bundle_identities_hold(c.m):
        return "bundle identities failed"
    if not springer.exact_sequence_identities_hold(c.m):
        return "exact-sequence identities failed"
    return True


def _rank(c: _Ctx):
    """det V = (-1)^(m-1) prod_i (a_i - b_i) over the steps of V, which is
    nonzero exactly when every factor is (``springer._theorem_data``)."""
    if any(diff.is_zero() for _, diff in springer._theorem_data(c.m)):
        return "theorem basis tuple matrix is singular"
    return True


def _kernel_stability(c: _Ctx):
    """The kernel I of ``pushdown_poly`` is H-stable, proved from the
    m(m-1) generators G of I (``springer.kernel_generators``; the argument
    is in the ``springer`` docstring).  Its premises come first:
    D = x1...xm pushes down to g^-1 at every fixed point, and
    act(T_i, f x^lam) = f act(T_i, x^lam) for f among the generators
    x_i x_(i+1), its inverse, x_i + x_(i+1), s and x_j (j not i, i+1) of the
    s_i-invariants, with lam_i - lam_(i+1) in [-4, 4], which takes every
    branch of the telescoping sums of ``act_T``.  Then each G restricts to
    zero, and T_i G, T_i (x_i G) and e^(+-eps_j) G lie in I.  Every image
    goes through ``polyrep.act``; the report is the first failure in that
    order."""
    m = c.m
    profile = x_profile(m)
    x = [LaurentPoly.variable(profile, f"x{j}") for j in range(1, m + 1)]
    d = LaurentPoly.monomial(profile, (1,) * m + (0,))
    if springer.pushdown_poly(m, d) != (LaurentPoly.monomial(GS_PROFILE, (-1, 0)),) * m:
        return f"{d} does not push down to g^-1 at every fixed point"
    ts = [HeckeElt.gen(m, i) for i in range(1, m)]
    for i, t in enumerate(ts):
        a, b = x[i], x[i + 1]
        invariants = [a * b, (a * b) ** -1, a + b, LaurentPoly.variable(profile, "s")]
        invariants += [xj for j, xj in enumerate(x) if j not in (i, i + 1)]
        for k in range(-4, 5):
            u = a**k
            tu = polyrep.act(t, u)
            for f in invariants:
                if polyrep.act(t, f * u) != f * tu:
                    return f"{t} is not linear over {f} at {u}"
    es = [HeckeElt.e([sign * (k == j) for k in range(m)]) for j in range(m) for sign in (1, -1)]

    def in_kernel(v):
        return all(e.is_zero() for e in springer.pushdown_poly(m, v))

    for g in springer.kernel_generators(m):
        if not in_kernel(g):
            return f"kernel basis vector {g} does not restrict to zero"
        images = [(t, u) for t, xi in zip(ts, x) for u in (g, xi * g)] + [(e, g) for e in es]
        for h, u in images:
            if not in_kernel(polyrep.act(h, u)):
                return f"kernel not stable under {h} at {u}"
    return True


# -- theta ----------------------------------------------------------------------------


def _matrices(c: _Ctx):
    theta.theta_action_matrices(c.m)
    return True


def _cyclic(c: _Ctx):
    fails = theta.check_conjugation(c.m)
    return True if not fails else "; ".join(fails)


def _dictionary(c: _Ctx):
    matching = theta.dictionary_report(c.m)["matching_convention"]
    if matching in ("A", "B"):
        return f"convention-{matching}"
    return f"matching_convention = {matching}"


# -- orbits ---------------------------------------------------------------------------


def _orbit_count(c: _Ctx):
    (bn, br), n = c.bounds, c.n
    labels = theta.enumerate_orbits(n, c.m, bn, br)
    brute = sum(
        1 for lam in product(range(-bn - 2, br + 3), repeat=n) if theta.condition1_brute(lam, bn, br)
    )
    want = brute * math.perm(c.m, n)
    return True if len(labels) == want else f"enumerated {len(labels)}, brute force {want}"


def _injections(c: _Ctx):
    got = len(theta.injection_data(c.n, c.m))
    want = math.perm(c.m, c.n)
    return True if got == want else f"{got} != {want}"


def _representatives(c: _Ctx):
    labels = theta.enumerate_orbits(c.n, c.m, *c.bounds)
    for label in labels[: min(len(labels), 50)]:
        table = theta.orbit_representative(label, c.m)
        if set(table) != {(row, col) for col, row in zip(label.subset, label.bij)}:
            return f"support mismatch for {label}"
        for (row, col), a in table.items():
            if a != label.lam[row - 1]:
                return f"exponent mismatch for {label}"
    return True


# -- the registry: one ordered table per suite -------------------------------------------

_TABLES: dict[str, tuple[_Spec, ...]] = {
    "hecke": (
        _Spec("quadratic", _quadratic, "relation (T_s+1)(T_s-v)=0"),
        _Spec("braid", _braid, "braid relations, affine node included"),
        _Spec("bernstein-commutation", _bernstein,
              "T_s e^(s.lam) - e^lam T_s = (1-v)(e^lam - e^(s.lam))/(1 - e^-alpha)"),
        _Spec("bernstein-random", _bernstein_random, "Bernstein commutation on random cocharacters"),
        _Spec("center", _hecke_center, "W-orbit sums are central (Bernstein center)"),
        _Spec("associativity", _associativity, "associativity on random triples"),
        _Spec("specialization-s1", _specialization,
              "s->1 collapses the product to the group algebra of the extended affine Weyl group"),
        _Spec("t-inverse", _t_inverses, "T_s^-1 = v^-1 T_s + (v^-1 - 1)"),
        _Spec("omega-conjugation", _omega_conjugation, "T_w1 T_si T_w1^-1 = T_s(i+1), indices mod m"),
        # m <= 3 is the exhaustive oracle range
        _Spec("weyl-length-bfs", _weyl_bfs,
              "closed length formula == BFS shortest words over the Cayley graph", hi=3),
        _Spec("reduced-words", _reduced_words, "reduced words recompose and have minimal length"),
    ),
    "polyrep": (
        _Spec("tsm", _tsm, "T_sm * 1 = (s^2-1) + s^(2(m-1)) e^(xi+omega_1)"),
        _Spec("length-zero-action", _length_zero, "T_wi * 1 = s^(i(m-i)) e^(omega_i)"),
        _Spec("finite-action", _finite_action, "T_si * 1 = v and T_si e^mu_i = e^mu_(i+1)"),
        _Spec("sigma-inverse-chain", _sigma_chain,
              "T_(sigma1^-1) e^mu_2 = (s^2-1) e^mu_m + s^(2(m-1)) e^omega_1"),
        _Spec("module-axiom", _module_axiom, "act(a*b, u) == act(a, act(b, u))"),
        _Spec("quadratic-action", _quadratic_action, "T_si^2 = (v-1) T_si + v in the action"),
        _Spec("demazure-multiply-back", _exact_division, "quotient * (1 - e^-alpha) == e^lam - e^(s lam)"),
    ),
    "springer": (
        _Spec("fixed-weights", _weights, "each fixed flag carries the weights {g, s^(m-2), ..., s^(2-m)}"),
        _Spec("determinant-bundle", _det_bundle, "L_omega_m = g * O"),
        _Spec("declared-bases", _basis_tables,
              "Lusztig change-of-basis system solves; O_Vi(-1) twist identities hold"),
        _Spec("rank", _rank, "the m theorem-basis tuples are independent over Frac"),
        _Spec("kact-examples", _kact_formulas,
              "T_wi O = s^(i(m-i)) L_(-omega_i); T_si O = v O; T_sm O = -O + s^m L_(-w1) + g s^m L_(-w(m-1))"),
        _Spec("center", _central_characters, "orbit sums of e_k act by the restriction scalar res_sigma(e_k)"),
        # restriction is injective at m = 1; at m = 16 the 240 ideal generators take about 2 s (2 CPUs)
        _Spec("kernel-stability", _kernel_stability,
              "generator actions preserve the kernel of the fixed-point restriction", lo=2, hi=16),
    ),
    "theta": (
        _Spec("matrices-integral", _matrices, "generator matrices have Laurent-integral entries"),
        _Spec("defining-relations", _relations, "the transported action satisfies the Hecke presentation"),
        _Spec("freeness", _freeness, "the Tw[1]-orbit of IC^0 is a basis"),
        _Spec("central-characters", _central_characters, "symmetric elements act by res_sigma scalars"),
        _Spec("cyclic-symmetry", _cyclic, "conjugating T_si by Tw1 gives T_s(i+1)"),
        # at m = 1 there is no finite reflection, so both conventions match
        _Spec("dictionary", _dictionary,
              "exactly one twist convention reproduces the five IC formulas", lo=2),
    ),
    "main-theorem": (
        _Spec("tsm", _tsm, "T_sm acts on 1 by the closed form"),
        _Spec("module-isomorphism", _kact_formulas,
              "the basis transport reproduces the rank-m module action formulas"),
        _Spec("module-relations", _relations, "transported matrices satisfy the presentation"),
        _Spec("freeness", _freeness, "rank-m freeness of the IC module"),
    ),
    "orbits": (
        _Spec("orbit-count", _orbit_count, "enumeration equals the brute-force scan of condition (1)",
              tail="-n{n}-m{m}-N{N}-r{r}"),
        _Spec("injection-count", _injections, "|S_(n,m)| = m!/(m-n)!", tail="-n{n}-m{m}"),
        _Spec("representatives", _representatives,
              "v(u*_i) = t^(a_si) e_si on I_s and 0 elsewhere", tail="-n{n}-m{m}"),
    ),
}

SUITES = tuple(_TABLES)


def run_check(suite: str, stem: str, m: int) -> Check:
    """Run one registered check at rank m exactly as ``run_suite`` runs it
    with its defaults: same id, anchor, rng key, case count and
    classification."""
    spec = next((s for s in _TABLES.get(suite, ()) if s.stem == stem), None)
    if spec is None:
        raise ValueError(f"no check {stem!r} in suite {suite!r}")
    if not spec.covers(m):
        raise ValueError(f"check {suite}/{stem} is not registered at m={m}")
    return _run(spec, _Ctx(suite, m))


def run_suite(
    suite: str,
    m_range: tuple[int, int],
    seed: int = 0,
    cases: int = 1000,
    n: int = 1,
    bounds: tuple[int, int] = (0, 1),
    progress: Callable[[Check], object] | None = None,
) -> VerificationReport:
    """Run one named suite over the m-range; deterministic given all inputs.
    ``progress``, if given, is called with each check in table order as
    soon as it and every check before it have finished."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    if m_range[0] > m_range[1] or m_range[0] < 1:
        raise ValueError("empty or invalid m range")
    units = [
        (spec, _Ctx(suite, m, seed, cases, nn, bounds))
        for m in range(m_range[0], m_range[1] + 1)
        # the orbit checks run once for each first-factor rank up to min(n, m)
        for nn in (range(1, min(n, m) + 1) if suite == "orbits" else (n,))
        for spec in _TABLES[suite]
        if spec.covers(m)
    ]
    checks: list[Check | None] = [None] * len(units)
    shown = 0

    def settle(k: int, check: Check) -> None:
        nonlocal shown
        checks[k] = check
        while shown < len(checks) and checks[shown] is not None:
            if progress:
                progress(checks[shown])
            shown += 1

    helpers = min(_cpu_count(), len(units)) - 1
    if helpers > 0:
        _run_forked(units, settle, helpers)
        for k in [k for k, check in enumerate(checks) if check is None]:
            # taken by a helper that died before it could say so
            spec, c = units[k]
            settle(k, Check(spec.check_id(c), spec.anchor, "error", error="no process reported this check"))
    else:
        for k, unit in enumerate(units):
            settle(k, _run(*unit))
    return VerificationReport(suite, m_range, seed, checks)


# -- running units on every CPU ---------------------------------------------------------


def _cpu_count() -> int:
    """How many processes run a suite: the CPUs in the affinity mask, or 1
    where helpers cannot be forked."""
    if not all(hasattr(os, f) for f in ("fork", "sched_getaffinity", "memfd_create")):
        return 1
    return len(os.sched_getaffinity(0))


def _claim(queue: int) -> int | None:
    """The next unit index from the queue, or None when it is empty.  The
    processes share the queue's file offset, and the kernel advances it
    atomically on each read of a regular file."""
    raw = os.read(queue, 4)
    return int.from_bytes(raw, "little") if raw else None


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view) :]


def _helper(units: list[tuple[_Spec, _Ctx]], queue: int, out: int, parent: int) -> None:
    """The loop of a forked helper: claim a unit, say so on ``out``, run it
    and send ``index JSON``; stop when the queue is empty or the parent has
    gone.  It never returns, so no code of the parent runs twice."""
    code = 1
    try:
        while os.getppid() == parent and (k := _claim(queue)) is not None:
            _write_all(out, b"%d\n" % k)
            check = _run(*units[k])
            _write_all(out, b"%d %s\n" % (k, json.dumps(check).encode()))
        code = 0
    finally:
        os._exit(code)


def _run_forked(
    units: list[tuple[_Spec, _Ctx]], settle: Callable[[int, Check], None], helpers: int
) -> None:
    """Run the units here and on ``helpers`` forked processes, all taking
    indices from one queue, and ``settle`` each result.  The queue is a
    memory file, which holds any number of indices where a pipe would block
    at 64 KiB; each helper answers on a pipe of its own, which this process
    drains between its own units.  Every helper is killed if still running
    and reaped before this returns or raises."""
    import select
    import signal

    order = sorted(range(len(units)), key=lambda k: -units[k][1].m)
    queue = os.memfd_create("glhecke-units")
    live: dict[int, list] = {}  # read end -> [pid, unread bytes, claimed unit]
    try:
        _write_all(queue, b"".join(k.to_bytes(4, "little") for k in order))
        os.lseek(queue, 0, os.SEEK_SET)
        parent = os.getpid()
        for _ in range(helpers):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # out of processes: run with the helpers there are
                os.close(r)
                os.close(w)
                break
            if pid == 0:
                _helper(units, queue, w, parent)
            os.close(w)
            live[r] = [pid, b"", None]

        def drain(timeout: int | None) -> None:
            ready, _, _ = select.select(list(live), [], [], timeout)
            for r in ready:
                pid, rest, claimed = live[r]
                data = os.read(r, 1 << 16)
                if data:
                    *lines, rest = (rest + data).split(b"\n")
                    for line in lines:
                        k, _, payload = line.partition(b" ")
                        if payload:
                            settle(int(k), Check(*json.loads(payload)))
                            claimed = None
                        else:
                            claimed = int(k)
                    live[r] = [pid, rest, claimed]
                    continue
                _, status = os.waitpid(pid, 0)
                del live[r]
                os.close(r)
                if claimed is not None:
                    spec, c = units[claimed]
                    code = os.waitstatus_to_exitcode(status)
                    ended = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
                    error = f"the helper process running this check {ended}"
                    settle(claimed, Check(spec.check_id(c), spec.anchor, "error", error=error))

        while (k := _claim(queue)) is not None:
            settle(k, _run(*units[k]))
            if live:
                drain(0)
        while live:
            drain(None)
    finally:
        os.close(queue)
        for r, (pid, _, _) in live.items():
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.waitpid(pid, 0)
            os.close(r)
