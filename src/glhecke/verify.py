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
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from collections import deque
from dataclasses import dataclass, field
from itertools import permutations, product
from typing import Callable, NamedTuple

from . import polyrep, springer, theta, weyl
from .hecke import ONE_MINUS_V, HeckeElt, V, V_MINUS_1, t_element, t_inverse
from .laurent import (
    GS_PROFILE,
    S_PROFILE,
    LaurentPoly,
    TermBudgetError,
    demazure_exponents,
    demazure_quotient,
    orbit_sum,
    x_profile,
)

__all__ = ["Check", "VerificationReport", "run_suite", "run_check", "report_json", "report_text", "SUITES"]


@dataclass
class Check:
    id: str
    anchor: str
    status: str  # pass | fail | error | convention-A | convention-B
    elapsed_ms: int = 0
    counterexample: str | None = None
    error: str | None = None  # the resource limit an ``error`` check hit


@dataclass
class VerificationReport:
    suite: str
    m_range: tuple[int, int]
    seed: int
    checks: list[Check] = field(default_factory=list)
    schema: int = 1

    @property
    def failed(self) -> bool:
        return any(c.status == "fail" for c in self.checks)

    @property
    def errored(self) -> bool:
        return any(c.status == "error" for c in self.checks)


def _rng(seed: int, suite: str, check_id: str, m: int) -> random.Random:
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


def _random_s_poly(rng: random.Random) -> LaurentPoly:
    items = []
    for _ in range(rng.randint(1, 2)):
        c = rng.choice([-2, -1, 1, 2])
        items.append(((rng.randint(-1, 1),), c))
    poly = LaurentPoly.from_terms(S_PROFILE, items)
    return poly if not poly.is_zero() else LaurentPoly.one(S_PROFILE)


def _random_hecke(m: int, rng: random.Random, nterms: int = 2) -> HeckeElt:
    out = HeckeElt.zero(m)
    for _ in range(rng.randint(1, nterms)):
        lam = tuple(rng.randint(-1, 1) for _ in range(m))
        perm = list(range(m))
        if m <= 4:
            rng.shuffle(perm)
        else:
            # keep reduced words short at larger rank so suite runs stay bounded
            for _ in range(rng.randint(0, 3)):
                i = rng.randint(0, m - 2)
                perm[i], perm[i + 1] = perm[i + 1], perm[i]
        out = out + HeckeElt.basis(m, lam, tuple(perm), _random_s_poly(rng))
    return out


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


def _lambda_box(m: int) -> list[tuple[int, ...]]:
    """All cocharacters with entries in {-1, 0, 1} (m <= 4), else the sparse
    default box."""
    if m <= 4:
        return [lam for lam in product((-1, 0, 1), repeat=m)]
    return theta._default_box(m)


# -- the BFS length oracle ---------------------------------------------------------


def bfs_length_table(m: int, lam_bound: int, slack: int = 4) -> dict[weyl.AffineWeylElt, int]:
    """Shortest word lengths over the Cayley graph of W_aff x| Omega with
    zero-weight Omega moves, pruned to |lambda_i| <= lam_bound + slack."""
    cap = lam_bound + slack
    gens1 = [weyl.simple_reflection(m, i) for i in range(1, m + 1)] if m >= 2 else []
    gens0 = [weyl.omega(m, 1), weyl.omega(m, -1)]
    start = weyl.identity(m)
    dist: dict[weyl.AffineWeylElt, int] = {start: 0}
    queue: deque[weyl.AffineWeylElt] = deque([start])
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


def _run(spec: _Spec, c: _Ctx) -> Check:
    """Time one check and classify its result: True passes, a
    ``convention-*`` string is reported as is, anything else fails with it
    as the counterexample, and a crash fails with the exception.  A
    resource limit (term cap, memory, recursion depth) decides nothing about
    the identity, so it is an ``error`` and not a counterexample."""
    id_ = spec.stem + spec.tail.format(m=c.m, n=c.n, N=c.bounds[0], r=c.bounds[1])
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
    for mu in set(permutations(lam)):
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


def _central_characters(c: _Ctx):
    m = c.m
    for k in range(1, m + 1):
        lam = [1] * k + [0] * (m - k)
        z = _orbit_element(lam)
        scal = springer.res_sigma(orbit_sum(lam), m)
        for b in springer.theorem_basis(m):
            if springer.k_act(z, b) != b.scale(scal):
                return f"central scalar failure at e_{k}"
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
            return f"random Bernstein failure i={i} lam={lam}"
    return True


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


def _associativity(c: _Ctx):
    rng = c.rng("associativity")
    for _ in range(c.cases):
        a, b, d = (_random_hecke(c.m, rng) for _ in range(3))
        if (a * b) * d != a * (b * d):
            return f"associativity failure: a={a}, b={b}, c={d}"
    return True


def _specialization(c: _Ctx):
    rng = c.rng("specialization")
    for _ in range(c.cases):
        w1 = _random_weyl(c.m, rng, bound=1)
        w2 = _random_weyl(c.m, rng, bound=1)
        if (t_element(w1) * t_element(w2)).at_s_one() != {w1 * w2: 1}:
            return f"s->1 group algebra failure at {w1} * {w2}"
    return True


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
    m = c.m
    if m < 2:
        return True
    w1 = HeckeElt.tw(m, 1)
    w1i = HeckeElt.tw(m, -1)
    for i in range(1, m + 1):
        j = weyl.conjugate_simple(m, i, 1)
        if w1 * HeckeElt.gen(m, i) * w1i != HeckeElt.gen(m, j):
            return f"T_w1 T[{i}] T_w1^-1 != T[{j}]"
    return True


def _weyl_bfs(c: _Ctx):
    m = c.m
    table = bfs_length_table(m, 2)
    for elt, d in table.items():
        if weyl.length(elt) != d or weyl.window_inversions(elt) != d:
            return f"length mismatch at {elt}: bfs={d} formula={weyl.length(elt)}"
    for lam in product(range(-2, 3), repeat=m):
        for perm in permutations(range(m)):
            elt = weyl.AffineWeylElt(lam, perm)
            if elt not in table:
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
    want = sorted([(1, 0)] + [(0, m - 2 * j) for j in range(1, m)])
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
    det = springer._theorem_data(c.m).det
    return True if not det.is_zero() else "theorem basis tuple matrix is singular"


def _kernel_stability(c: _Ctx):
    """Each degree-2 kernel basis vector restricts to zero and stays in the
    kernel under every generator.  ``polyrep.act`` and ``pushdown_poly`` are
    Z-linear, so checking the basis proves it for the whole degree-2 kernel."""
    m = c.m
    kernel = springer.kernel_vectors(m, degree=2)
    if not kernel:
        return "kernel basis unexpectedly empty"
    gens: list[HeckeElt] = [HeckeElt.tw(m, 1)]
    gens += [HeckeElt.gen(m, i) for i in range(1, m + 1)]
    gens.append(HeckeElt.e((1,) + (0,) * (m - 1)))
    for u in kernel:
        if any(not e.is_zero() for e in springer.pushdown_poly(m, u)):
            return f"kernel basis vector {u} does not restrict to zero"
        for g in gens:
            if any(not e.is_zero() for e in springer.pushdown_poly(m, polyrep.act(g, u))):
                return f"kernel not stable under {g} at {u}"
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
    want = brute * theta.s_nm_size(n, c.m)
    return True if len(labels) == want else f"enumerated {len(labels)}, brute force {want}"


def _injections(c: _Ctx):
    got = len(theta.injection_data(c.n, c.m))
    want = 1
    for t in range(c.m - c.n + 1, c.m + 1):
        want *= t
    return True if got == want == theta.s_nm_size(c.n, c.m) else f"{got} != {want}"


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
        # restriction is injective at m = 1; the 573 degree-2 basis vectors at m = 6 take seconds
        _Spec("kernel-stability", _kernel_stability,
              "generator actions preserve the kernel of the fixed-point restriction", lo=2, hi=6),
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
) -> VerificationReport:
    """Run one named suite over the m-range; deterministic given all inputs."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    if m_range[0] > m_range[1] or m_range[0] < 1:
        raise ValueError("empty or invalid m range")
    report = VerificationReport(suite, m_range, seed)
    for m in range(m_range[0], m_range[1] + 1):
        # the orbit checks run once for each first-factor rank up to min(n, m)
        for nn in range(1, min(n, m) + 1) if suite == "orbits" else (n,):
            c = _Ctx(suite, m, seed, cases, nn, bounds)
            report.checks.extend(_run(spec, c) for spec in _TABLES[suite] if spec.covers(m))
    return report
