"""The polynomial (Bernstein) representation of the affine Hecke algebra.

Vectors are Laurent polynomials over ``x_profile(m) = (x1, ..., xm, s)``:
x_j sits at index j - 1 and s at index m.  ``act`` rejects any other
profile with a ``ProfileMismatchError``; ``act_T`` and ``act_e`` assume it.
Generator actions:

    e^lam * u     = e^{-lam} u
    T_{s_i} * e^lam = (e^lam - e^{s_i lam})/(e^alpha - 1)
                      - s^2 (e^lam - e^{s_i lam + alpha})/(e^alpha - 1)

With k = <lam, alpha_i^vee>, e^alpha - 1 = e^alpha (1 - e^{-alpha}) and
s_i lam + alpha = lam - (k - 1) alpha, so ``act_T`` reads both quotients off
the one telescoping rule ``laurent.demazure_range``: the first with k and
coefficient +c, the second with k - 1, coefficient -c and s-shift +2, each
term j placed at lam - (j + 1) alpha.  Every division is exact by
construction, and the multiply-back test ``test_divisions_are_exact`` is its
oracle.  Each quotient is held to the term cap before it is built, so one
quotient over the cap is refused even when its terms would later cancel
against the other's.  Composite Hecke elements act through their
Bernstein-basis expansion.
"""

from __future__ import annotations

from .hecke import ONE_S, HeckeElt, perm_word, t_element
from .laurent import LaurentPoly, ProfileMismatchError, check_terms, demazure_range, x_profile
from . import weyl

__all__ = ["one_vector", "act", "act_T", "act_e", "t_sm_on_one"]


def one_vector(m: int) -> LaurentPoly:
    return LaurentPoly.one(x_profile(m))


def act_e(lam, u: LaurentPoly, m: int) -> LaurentPoly:
    """e^lam * u = e^{-lam} u, the product with the monomial x^{-lam}.  A
    cocharacter with other than m entries raises ``ValueError``."""
    if len(lam) != m:
        raise ValueError(f"cocharacter {tuple(lam)} has {len(lam)} entries, expected m={m}")
    return u * LaurentPoly.monomial(u.profile, (*(-e for e in lam), 0))


def act_T(i: int, u: LaurentPoly, m: int) -> LaurentPoly:
    """T_{s_i} * u for a finite index 1 <= i < m, term by term."""
    if not 1 <= i <= m - 1:
        raise ValueError(f"index {i} is not a finite reflection for m={m}")
    ia, ib = i - 1, i
    out: dict[tuple[int, ...], int] = {}
    for key, c in u.terms.items():
        a, b = key[ia], key[ib]
        # the two quotients as (k, coefficient, s-shift); a telescoping term
        # j of either sits at lam - (j + 1) alpha
        for k, cq, ds in ((a - b, c, 0), (a - b - 1, -c, 2)):
            sign, js = demazure_range(k)
            if not js:
                continue
            cq *= sign
            nk = list(key)
            nk[m] += ds
            for j in js:
                nk[ia], nk[ib] = a - j - 1, b + j + 1
                key2 = tuple(nk)
                c2 = out.get(key2, 0) + cq
                if c2:
                    out[key2] = c2
                else:
                    del out[key2]
    check_terms(len(out))
    return LaurentPoly(u.profile, out)


def act(h: HeckeElt, u: LaurentPoly) -> LaurentPoly:
    """h * u through the Bernstein expansion of h; a zero lam and a unit
    coefficient are skipped, not applied."""
    m = h.m
    if u.profile != x_profile(m):
        raise ProfileMismatchError(f"expected a vector over {x_profile(m)}, got {u.profile}")
    total = LaurentPoly.zero(u.profile)
    s_image = ((0,) * m + (1,),)
    for (lam, w), c in h.terms.items():
        vec = u
        for i in reversed(perm_word(w)):
            vec = act_T(i, vec, m)
        if any(lam):
            vec = act_e(lam, vec, m)
        total = total + (vec if c == ONE_S else c.monomial_map(u.profile, s_image) * vec)
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
