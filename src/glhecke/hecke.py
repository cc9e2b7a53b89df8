"""The extended affine Hecke algebra of GL(m) in the Bernstein basis.

Elements are finite sums  sum_c c(s) * e^lam * T_w  with lam in Z^m, w a
finite permutation, and coefficients in Z[s, s^-1]; internally v = s^2.
Multiplication normal-orders products by moving every e^mu left past
T-letters one reduced-word letter at a time:

    T_{s_i} e^mu = e^{s_i(mu)} T_{s_i} + (1 - v) * DQ(s_i(mu), i)

where DQ is the exact telescoping quotient from ``laurent``.  T-against-T
products reduce along reduced words with the quadratic relation
T_s^2 = (v-1) T_s + v.

The affine generator T[m] and the length-zero generators Tw[k] enter through
their Bernstein expansions:

    T_{w_1}      = s^{1-m} e^{-omega_1} T_{sigma_1},
    T_{w_1}^k    = e^{-q(1,..,1)} T_{w_1}^r   (q, r = divmod(k, m)),
    T_{s_m}      = T_{w_1}^{-1} T_{s_1} T_{w_1},

the second because T_{w_1}^m = e^{-(1,..,1)} is central.

``t_element`` builds T_w along w = w_1^k s_{i1} ... s_{il} from the left:
a finite letter is ``right_mul_gen``, and the affine letter uses

    (c e^lam T_u) T_{s_m} = c e^lam (T_u T_{s_m}),

reading T_u T_{s_m} from a table keyed by u in S_m (``functools.cache`` on
``_affine_right``: at most m! entries per rank, each built once by the
product), so the step only shifts exponents by lam and multiplies
coefficients, in the same accumulation as the product.  The reduced words,
the T_{w_1} powers and the affine generator are cached the same way.

Literals ``(s^2 - 1)*e[1,0]*T[1] + Tw[-2]`` are read by ``parse_hecke`` on
the shared ``laurent.TokenCursor``; coefficients use its polynomial rule.

Everything is exact; specializing s -> 1 collapses the product to the group
algebra of the extended affine Weyl group (tested).
"""

from __future__ import annotations

from functools import cache
from operator import add
from typing import Iterable

from . import weyl
from .laurent import S_PROFILE, LaurentPoly, TokenCursor, check_terms, demazure_range

__all__ = ["HeckeElt", "t_element", "t_inverse", "parse_hecke", "V", "ONE_S"]

V = LaurentPoly.variable(S_PROFILE, "s", 2)
V_INV = LaurentPoly.variable(S_PROFILE, "s", -2)
ONE_S = LaurentPoly.one(S_PROFILE)
# built from terms, not by arithmetic, so importing never meets GLHECKE_MAX_TERMS
V_MINUS_1 = LaurentPoly.from_terms(S_PROFILE, (((2,), 1), ((0,), -1)))
ONE_MINUS_V = LaurentPoly.from_terms(S_PROFILE, (((2,), -1), ((0,), 1)))


def _s_power(k: int) -> LaurentPoly:
    return LaurentPoly.monomial(S_PROFILE, (k,))


@cache
def perm_word(perm: tuple[int, ...]) -> tuple[int, ...]:
    """Reduced word (1-based letters) with perm = s_{i1} o ... o s_{il}."""
    w = list(perm)
    records: list[int] = []
    while True:
        for i in range(len(w) - 1):
            if w[i] > w[i + 1]:
                w[i], w[i + 1] = w[i + 1], w[i]
                records.append(i + 1)
                break
        else:
            break
    return tuple(reversed(records))


class HeckeElt:
    """A finite Z[s,s^-1]-combination of Bernstein basis elements e^lam T_w."""

    __slots__ = ("m", "terms")

    def __init__(self, m: int, terms: dict[tuple[tuple[int, ...], tuple[int, ...]], LaurentPoly]):
        self.m = m
        self.terms = terms

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(m: int) -> "HeckeElt":
        return HeckeElt(m, {})

    @staticmethod
    def one(m: int) -> "HeckeElt":
        return HeckeElt(m, {((0,) * m, tuple(range(m))): ONE_S})

    @staticmethod
    def e(lam) -> "HeckeElt":
        lam = tuple(lam)
        return HeckeElt(len(lam), {(lam, tuple(range(len(lam)))): ONE_S})

    @staticmethod
    def basis(m: int, lam, perm, coeff: LaurentPoly = ONE_S) -> "HeckeElt":
        """coeff * e^lam T_perm; ``ValueError`` unless lam and perm have m entries."""
        lam, perm = tuple(lam), tuple(perm)
        if len(lam) != m or len(perm) != m:
            raise ValueError(f"e^{lam} T{perm} needs m={m} entries in each")
        return HeckeElt(m, {(lam, perm): coeff})

    @staticmethod
    def gen(m: int, i: int) -> "HeckeElt":
        """T[i]; finite for 1 <= i < m, Bernstein form of the affine node at i = m."""
        if not 1 <= i <= m:
            raise ValueError(f"generator index {i} out of range for m={m}")
        if i < m:
            perm = list(range(m))
            perm[i - 1], perm[i] = perm[i], perm[i - 1]
            return HeckeElt(m, {((0,) * m, tuple(perm)): ONE_S})
        return _affine_gen(m)

    @staticmethod
    def tw(m: int, k: int) -> "HeckeElt":
        """T_{w_1}^k for the length-zero generator w_1."""
        return _tw_power(m, k)

    # -- linear structure -------------------------------------------------

    def __add__(self, other: "HeckeElt") -> "HeckeElt":
        if self.m != other.m:
            raise ValueError("rank mismatch")
        terms = dict(self.terms)
        for key, c in other.terms.items():
            c2 = terms.get(key)
            c2 = c if c2 is None else c2 + c
            if c2.is_zero():
                terms.pop(key, None)
            else:
                terms[key] = c2
        check_terms(len(terms))
        return HeckeElt(self.m, terms)

    def __sub__(self, other: "HeckeElt") -> "HeckeElt":
        return self + other.scale(-1)

    def scale(self, c: "LaurentPoly | int") -> "HeckeElt":
        if (c == 0) if isinstance(c, int) else c.is_zero():
            return HeckeElt.zero(self.m)
        return HeckeElt(self.m, {k: p * c for k, p in self.terms.items()})

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, HeckeElt)
            and self.m == other.m
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.m, tuple(sorted((k, hash(p)) for k, p in self.terms.items()))))

    def is_zero(self) -> bool:
        return not self.terms

    # -- multiplication ----------------------------------------------------

    def left_mul_gen(self, i: int) -> "HeckeElt":
        """T_{s_i} * self for a finite index 1 <= i < m."""
        m = self.m
        out: dict[tuple[tuple[int, ...], tuple[int, ...]], LaurentPoly] = {}

        def bump(lam, perm, c):
            key = (lam, perm)
            c2 = out.get(key)
            c2 = c if c2 is None else c2 + c
            if c2.is_zero():
                out.pop(key, None)
            else:
                out[key] = c2

        a, b = i - 1, i  # 0-indexed values swapped by s_i
        for (lam, w), c in self.terms.items():
            swl = list(lam)
            swl[a], swl[b] = swl[b], swl[a]
            swl = tuple(swl)
            # T_i T_w: ascent iff value a sits left of value b in w
            ia, ib = w.index(a), w.index(b)
            sw = list(w)
            sw[ia], sw[ib] = b, a
            sw = tuple(sw)
            if ia < ib:
                bump(swl, sw, c)
            else:
                bump(swl, w, V_MINUS_1 * c)
                bump(swl, sw, V * c)
            # + (1 - v) c DQ(s_i(lam), i), built only when DQ != 0; the sign
            # of the telescoping sum goes into the (1 - v) factor
            sign, js = demazure_range(swl[a] - swl[b])
            if js:
                cdq = (ONE_MINUS_V if sign > 0 else V_MINUS_1) * c
                head, x, y, tail = swl[:a], swl[a], swl[b], swl[b + 1 :]
                for j in js:
                    bump((*head, x - j, y + j, *tail), w, cdq)
        check_terms(len(out))
        return HeckeElt(m, out)

    def right_mul_gen(self, i: int) -> "HeckeElt":
        """self * T_{s_i} for a finite index; no Bernstein rewriting needed."""
        out: dict[tuple[tuple[int, ...], tuple[int, ...]], LaurentPoly] = {}

        def bump(key, c):
            prev = out.get(key)
            c = c if prev is None else prev + c
            if c.is_zero():
                out.pop(key, None)
            else:
                out[key] = c

        a = i - 1
        for (lam, w), c in self.terms.items():
            sw = w[:a] + (w[a + 1], w[a]) + w[a + 2 :]
            if w[a] < w[a + 1]:
                bump((lam, sw), c)
            else:
                bump((lam, w), V_MINUS_1 * c)
                bump((lam, sw), V * c)
        check_terms(len(out))
        return HeckeElt(self.m, out)

    def __mul__(self, other: "HeckeElt") -> "HeckeElt":
        if self.m != other.m:
            raise ValueError("rank mismatch")
        return _shifted_sum(
            self.m,
            ((lam1, c1, _left_mul_perm(w1, other)) for (lam1, w1), c1 in self.terms.items()),
        )

    # -- specialization ----------------------------------------------------

    def at_s_one(self) -> dict[weyl.AffineWeylElt, int]:
        """Specialize s -> 1; lands in the group algebra of the extended
        affine Weyl group via e^lam T_w -> t^lam w."""
        out: dict[weyl.AffineWeylElt, int] = {}
        for (lam, w), c in self.terms.items():
            n = c.coefficient_sum()
            if n == 0:
                continue
            g = weyl.AffineWeylElt(lam, w)
            n2 = out.get(g, 0) + n
            if n2:
                out[g] = n2
            else:
                del out[g]
        return out

    # -- printing -----------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for (lam, w), c in sorted(self.terms.items()):
            factors = []
            cs = str(c)
            if cs != "1" or (all(v == 0 for v in lam) and w == tuple(range(self.m))):
                factors.append(f"({cs})")
            if any(v != 0 for v in lam):
                factors.append("e[" + ",".join(str(v) for v in lam) + "]")
            for i in perm_word(w):
                factors.append(f"T[{i}]")
            pieces.append("*".join(factors))
        return " + ".join(pieces)

    def __repr__(self) -> str:
        return f"HeckeElt({self!s})"


def _left_mul_perm(w: tuple[int, ...], x: HeckeElt) -> HeckeElt:
    """T_w * x, one ``left_mul_gen`` per letter of the reduced word of w."""
    for i in reversed(perm_word(w)):
        x = x.left_mul_gen(i)
    return x


def _shifted_sum(
    m: int, parts: Iterable[tuple[tuple[int, ...], LaurentPoly, HeckeElt]]
) -> HeckeElt:
    """sum c * e^lam * x over the (lam, c, x) in parts: e^lam moves every
    exponent of x by lam, and c multiplies its coefficients."""
    out: dict[tuple[tuple[int, ...], tuple[int, ...]], LaurentPoly] = {}
    for lam1, c1, x in parts:
        trivial = not any(lam1)
        for (lam2, w2), c2 in x.terms.items():
            key = (lam2 if trivial else tuple(map(add, lam1, lam2)), w2)
            c3 = c1 * c2
            prev = out.get(key)
            c3 = c3 if prev is None else prev + c3
            if c3.is_zero():
                out.pop(key, None)
            else:
                out[key] = c3
    check_terms(len(out))
    return HeckeElt(m, out)


# -- Omega generators and the affine node ---------------------------------

def _tw_one(m: int) -> HeckeElt:
    lam = tuple(-1 if j == 0 else 0 for j in range(m))
    return HeckeElt.basis(m, lam, weyl.sigma(m, 1).perm, _s_power(1 - m))


@cache
def _tw_power(m: int, k: int) -> HeckeElt:
    """T_{w_1}^k = e^{-q(1,..,1)} T_{w_1}^r for q, r = divmod(k, m), since
    T_{w_1}^m = e^{-(1,..,1)} is central."""
    q, r = divmod(k, m)
    if q:
        return HeckeElt.e((-q,) * m) * _tw_power(m, r)
    res = HeckeElt.one(m)
    for _ in range(r):
        res = res * _tw_one(m)
    return res


@cache
def _affine_gen(m: int) -> HeckeElt:
    if m < 2:
        raise ValueError("no affine generator for m=1")
    return _tw_power(m, -1) * HeckeElt.gen(m, 1) * _tw_power(m, 1)


@cache
def _affine_right(u: tuple[int, ...]) -> HeckeElt:
    """T_u T_{s_m} for u in S_m: the rank is len(u), so at most m! entries
    per rank, each built once by the product."""
    m = len(u)
    return HeckeElt.basis(m, (0,) * m, u) * _affine_gen(m)


def t_element(w: weyl.AffineWeylElt) -> HeckeElt:
    """T_w expanded in the Bernstein basis, via w = w1^k s_{i1}...s_{il}."""
    m = w.m
    k, word = weyl.reduced_word(w)
    res = _tw_power(m, k)
    for i in word:
        if i < m:
            res = res.right_mul_gen(i)
        else:
            # (c e^lam T_u) T_{s_m} = c e^lam (T_u T_{s_m}), read from the table
            res = _shifted_sum(m, ((lam, c, _affine_right(u)) for (lam, u), c in res.terms.items()))
    return res


def t_inverse(m: int, i: int) -> HeckeElt:
    """T_{s_i}^{-1} = v^{-1} T_{s_i} + (v^{-1} - 1), the affine node included."""
    return HeckeElt.gen(m, i).scale(V_INV) + HeckeElt.one(m).scale(V_INV - ONE_S)


# -- literal grammar ----------------------------------------------------------


def _hecke_factor(cur: TokenCursor, m: int) -> HeckeElt:
    """``e[lam]``, ``T[i]``, ``Tw[k]``, or a coefficient: an integer, a power
    of ``s`` or a parenthesized polynomial in ``s``."""
    tok = cur.peek()
    if tok in ("(", "s") or (tok is not None and tok.isdigit()):
        return HeckeElt.one(m).scale(cur.poly_factor(S_PROFILE))
    tok = cur.take()
    if tok not in ("e", "T", "Tw"):
        raise ValueError(f"unexpected token {tok!r} in Hecke literal")
    vals = cur.int_list()
    if tok == "e":
        if len(vals) != m:
            raise ValueError(f"e[...] needs {m} entries, got {len(vals)}")
        return HeckeElt.e(vals)
    if len(vals) != 1:
        raise ValueError(f"{tok}[...] takes one index, got {len(vals)}")
    return HeckeElt.gen(m, vals[0]) if tok == "T" else HeckeElt.tw(m, vals[0])


def parse_hecke(m: int, text: str) -> HeckeElt:
    """Parse sums of products of ``e[lam]``, ``T[i]`` and ``Tw[k]`` with
    integer and s-polynomial coefficients."""
    cur = TokenCursor(text)
    return cur.finish(cur.expr(lambda: _hecke_factor(cur, m), HeckeElt.zero(m)))
