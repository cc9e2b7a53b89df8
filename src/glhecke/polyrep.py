"""The polynomial (Bernstein) representation of the affine Hecke algebra.

Vectors are Laurent polynomials over ``x_profile(m) = (x1, ..., xm, s)``:
x_j sits at index j - 1 and s at index m.  ``act`` rejects any other
profile with a ``ProfileMismatchError``; ``act_T`` and ``act_e`` assume it.
Generator actions:

    e^lam * u     = e^{-lam} u
    T_{s_i} * e^lam = (e^lam - e^{s_i lam})/(e^alpha - 1)
                      - s^2 (e^lam - e^{s_i lam + alpha})/(e^alpha - 1)

``act_T`` writes both quotients out as telescoping sums inline, for speed,
rather than calling ``laurent.demazure_exponents`` per term; every division
is exact by construction, and the multiply-back test
``test_divisions_are_exact`` is its oracle.  Composite
Hecke elements act through their Bernstein-basis expansion.
"""

from __future__ import annotations

from .hecke import ONE_S, HeckeElt, perm_word, t_element
from .laurent import LaurentPoly, ProfileMismatchError, check_terms, x_profile
from . import weyl

__all__ = ["one_vector", "act", "act_T", "act_e", "t_sm_on_one"]


def one_vector(m: int) -> LaurentPoly:
    return LaurentPoly.one(x_profile(m))


def act_e(lam, u: LaurentPoly, m: int) -> LaurentPoly:
    """e^lam * u = e^{-lam} u; only the m x-slots of a key move.  A
    cocharacter with other than m entries raises ``ValueError``."""
    if len(lam) != m:
        raise ValueError(f"cocharacter {tuple(lam)} has {len(lam)} entries, expected m={m}")
    out = {}
    for key, c in u.terms.items():
        nk = list(key)
        for j in range(m):
            nk[j] -= lam[j]
        out[tuple(nk)] = c
    return LaurentPoly(u.profile, out)


def act_T(i: int, u: LaurentPoly, m: int) -> LaurentPoly:
    """T_{s_i} * u for a finite index 1 <= i < m, term by term."""
    if not 1 <= i <= m - 1:
        raise ValueError(f"index {i} is not a finite reflection for m={m}")
    ia, ib = i - 1, i
    out: dict[tuple[int, ...], int] = {}

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
    check_terms(len(out))
    return LaurentPoly(u.profile, out)


def _embed_s(c: LaurentPoly, profile: tuple[str, ...], m: int) -> LaurentPoly:
    zeros = (0,) * m
    return LaurentPoly(profile, {zeros + k: coeff for k, coeff in c.terms.items()})


def act(h: HeckeElt, u: LaurentPoly) -> LaurentPoly:
    """h * u through the Bernstein expansion of h; a zero lam and a unit
    coefficient are skipped, not applied."""
    m = h.m
    if u.profile != x_profile(m):
        raise ProfileMismatchError(f"expected a vector over {x_profile(m)}, got {u.profile}")
    total = LaurentPoly.zero(u.profile)
    for (lam, w), c in h.terms.items():
        vec = u
        for i in reversed(perm_word(w)):
            vec = act_T(i, vec, m)
        if any(lam):
            vec = act_e(lam, vec, m)
        total = total + (vec if c == ONE_S else _embed_s(c, u.profile, m) * vec)
    return total


def t_sm_on_one(m: int) -> LaurentPoly:
    """act(T_{s_m}, 1), computed through the chain T_{w1}^{-1} T_{s1} T_{w1}
    and asserted equal to the action of T_{s_m} through its Bernstein form.
    ``verify`` compares the result with the closed form."""
    if m < 2:
        raise ValueError("the affine reflection needs m >= 2")
    one = one_vector(m)
    step = act(HeckeElt.tw(m, 1), one)
    step = act_T(1, step, m)
    step = act(HeckeElt.tw(m, -1), step)
    direct = act(t_element(weyl.simple_reflection(m, m)), one)
    if direct != step:
        raise AssertionError(f"Bernstein form of T[s_m] disagrees for m={m}")
    return step
