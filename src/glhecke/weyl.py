"""The extended affine Weyl group Z^m x| S_m of GL(m).

Elements are pairs (translation vector, permutation) representing t^lam * w,
with multiplication (lam1, w1)(lam2, w2) = (lam1 + w1(lam2), w1 w2).
Permutations are stored one-line and 0-indexed: ``perm[i]`` is the image of
position i, and they act on vectors by (w . lam)[w[i]] = lam[i].

The length function is the closed formula

    len(t^lam w) = sum_{a<b} | lam_a - lam_b + [w^{-1}(a) > w^{-1}(b)] |,

cross-checked in the test suite against an inversion count in the periodic
permutation model (u(k) = w(k) - m*lam_{w(k)}, u(k+m) = u(k)+m) and against
breadth-first search over the Cayley graph.  Right descents, and so the
greedy reduced words, are read off that window.  The length-zero subgroup
Omega is infinite cyclic, generated by w1 = t^{-omega_1} sigma_1 where
sigma_i is the rotation sending (1,...,m) to (i+1,...,m,1,...,i).

Note the sign: with the affine simple reflection fixed as
s_m = t^{(-1,0,...,0,1)} (1 m), the length-zero elements are t^{-omega_i}
sigma_i.  The opposite pairing t^{+omega_i} sigma_i (which also appears in
print) has length 2i(m-i) and is exposed as ``omega_opposite_sign``.

Literals ``t[1,0]*p[2,1]*W1^-3`` are read by ``parse_weyl`` on the shared
``laurent.TokenCursor``.  Elements are tuples, but tuple ``+`` and integer
``*`` raise TypeError: only the group product is defined.
"""

from __future__ import annotations

from typing import NamedTuple

from .laurent import TokenCursor

__all__ = [
    "AffineWeylElt",
    "identity",
    "translation",
    "from_perm",
    "simple_reflection",
    "sigma",
    "omega",
    "omega_opposite_sign",
    "length",
    "reduced_word",
    "conjugate_simple",
    "window",
    "window_inversions",
    "parse_weyl",
    "format_weyl",
]


def _invert(a: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(a)
    for i, v in enumerate(a):
        inv[v] = i
    return tuple(inv)


class AffineWeylElt(NamedTuple):
    """t^trans * perm, a named ``(trans, perm)`` tuple: it equals and hashes
    like the plain pair."""

    trans: tuple[int, ...]
    perm: tuple[int, ...]

    @property
    def m(self) -> int:
        return len(self.trans)

    def __mul__(self, other: "AffineWeylElt") -> "AffineWeylElt":
        t1, p1 = self
        t2, p2 = other
        if len(t1) != len(t2):
            raise ValueError("rank mismatch")
        # lam1 + w1(lam2): (w1 . lam2)[w1[i]] = lam2[i], and lam1 when lam2 = 0
        if any(t2):
            out = list(t1)
            for i, v in zip(p1, t2):
                out[i] += v
            t1 = tuple(out)
        return AffineWeylElt(t1, tuple(map(p1.__getitem__, p2)))

    def __add__(self, other):
        raise TypeError("AffineWeylElt has no addition; * is the group product")

    __radd__ = __add__

    def __rmul__(self, other):
        raise TypeError("AffineWeylElt has no scalar multiple; * is the group product")

    def inverse(self) -> "AffineWeylElt":
        pinv = _invert(self.perm)
        out = [0] * self.m
        for i, v in enumerate(self.trans):
            out[pinv[i]] = -v
        return AffineWeylElt(tuple(out), pinv)

    def __pow__(self, n: int) -> "AffineWeylElt":
        if n < 0:
            return self.inverse() ** (-n)
        result = identity(self.m)
        base = self
        while n:
            if n & 1:
                result = result * base
            if n > 1:
                base = base * base
            n >>= 1
        return result

    def __str__(self) -> str:
        return format_weyl(self)


def identity(m: int) -> AffineWeylElt:
    return AffineWeylElt((0,) * m, tuple(range(m)))


def translation(lam) -> AffineWeylElt:
    lam = tuple(lam)
    return AffineWeylElt(lam, tuple(range(len(lam))))


def from_perm(perm) -> AffineWeylElt:
    perm = tuple(perm)
    return AffineWeylElt((0,) * len(perm), perm)


def simple_reflection(m: int, i: int) -> AffineWeylElt:
    """s_i for 1 <= i <= m-1; i = m is the affine node t^{(-1,0,..,0,1)}(1 m)."""
    if not 1 <= i <= m:
        raise ValueError(f"reflection index {i} out of range for m={m}")
    if i < m:
        perm = list(range(m))
        perm[i - 1], perm[i] = perm[i], perm[i - 1]
        return AffineWeylElt((0,) * m, tuple(perm))
    if m < 2:
        raise ValueError("no affine reflection for m=1")
    perm = list(range(m))
    perm[0], perm[m - 1] = perm[m - 1], perm[0]
    lam = [0] * m
    lam[0], lam[m - 1] = -1, 1
    return AffineWeylElt(tuple(lam), tuple(perm))


def sigma(m: int, i: int) -> AffineWeylElt:
    """The rotation (1,...,m) -> (i+1,...,m,1,...,i)."""
    return from_perm(tuple((k + i) % m for k in range(m)))


def omega(m: int, k: int) -> AffineWeylElt:
    """w_1^k, the length-zero elements; w_i = t^{-omega_i} sigma_i for 1<=i<=m."""
    q, r = divmod(k, m)
    lam = tuple(-q - (1 if j < r else 0) for j in range(m))
    return AffineWeylElt(lam, sigma(m, r).perm)


def omega_opposite_sign(m: int, i: int) -> AffineWeylElt:
    """The opposite-sign pairing t^{+omega_i} sigma_i.

    Not length-zero: its length is 2i(m-i).  Provided so the alternative
    printed convention stays constructible; every identity in this package
    uses ``omega`` instead.
    """
    if not 1 <= i <= m:
        raise ValueError(f"index {i} out of range")
    return translation([1] * i + [0] * (m - i)) * sigma(m, i)


def length(w: AffineWeylElt) -> int:
    """len(t^lam w) = sum_{a<b} |lam_a - lam_b + [w^{-1}(a) > w^{-1}(b)]|."""
    lam = w.trans
    pinv = _invert(w.perm)
    m = len(lam)
    total = 0
    for a in range(m):
        la, pa = lam[a], pinv[a]
        for b in range(a + 1, m):
            total += abs(la - lam[b] + (1 if pa > pinv[b] else 0))
    return total


def window(w: AffineWeylElt) -> tuple[int, ...]:
    """The periodic-permutation window [u(1),...,u(m)], 1-based values,
    where u(k) = w(k) - m*lam_{w(k)} and u(k+m) = u(k) + m."""
    m = w.m
    return tuple(w.perm[k] + 1 - m * w.trans[w.perm[k]] for k in range(m))


def window_inversions(w: AffineWeylElt) -> int:
    """Independent length computation: inversions of the periodic window."""
    m = w.m
    u = window(w)
    total = 0
    for i in range(m):
        for b in range(m):
            diff = u[i] - u[b]
            t_start = 0 if b > i else 1
            bound = -(-diff // m)  # ceil(diff / m)
            if bound > t_start:
                total += bound - t_start
    return total


def reduced_word(w: AffineWeylElt) -> tuple[int, list[int]]:
    """Decompose w = w1^k * s_{i1} ... s_{il} with l = length(w).

    Greedy right-descent stripping, smallest index first.  A right descent
    is read off the window: s_i for i < m is one iff u(i) > u(i+1), and the
    affine node s_m iff u(m) > u(m+1) = u(1) + m.  An element without one
    has length zero; the Omega power k is read off its translation.
    Recomposition is exact.
    """
    m = w.m
    gens = [simple_reflection(m, i) for i in range(1, m + 1)] if m >= 2 else []
    cur = w
    records: list[int] = []
    while gens:
        u = window(cur)
        u += (u[0] + m,)
        i = next((i for i in range(1, m + 1) if u[i - 1] > u[i]), 0)
        if not i:
            break
        records.append(i)
        cur = cur * gens[i - 1]
    k = -sum(cur.trans)
    if cur != omega(m, k):
        raise AssertionError("leftover is not a length-zero element")
    return k, records[::-1]


def conjugate_simple(m: int, i: int, j: int) -> int:
    """Index of w_j s_i w_j^{-1}: returns i+j reduced into {1..m} mod m."""
    if not 1 <= i <= m:
        raise ValueError(f"index {i} out of range")
    return (i + j - 1) % m + 1


# -- literals -----------------------------------------------------------------


def format_weyl(w: AffineWeylElt) -> str:
    """Element literal ``t[lam]*p[pi]`` with 1-based one-line permutation."""
    lam = ",".join(str(v) for v in w.trans)
    pi = ",".join(str(v + 1) for v in w.perm)
    return f"t[{lam}]*p[{pi}]"


def _weyl_factor(cur: TokenCursor, m: int) -> AffineWeylElt:
    """``t[lam]``, ``p[pi]`` or ``W1``, with an optional power."""
    tok = cur.take()
    if tok == "W1":
        atom = omega(m, 1)
    elif tok == "t":
        vals = cur.int_list()
        if len(vals) != m:
            raise ValueError(f"translation needs {m} entries, got {len(vals)}")
        atom = translation(vals)
    elif tok == "p":
        vals = cur.int_list()
        if sorted(vals) != list(range(1, m + 1)):
            raise ValueError("permutation must list 1..m")
        atom = from_perm(tuple(v - 1 for v in vals))
    else:
        raise ValueError(f"bad atom {tok!r} in Weyl literal")
    return atom ** cur.power()


def parse_weyl(m: int, text: str) -> AffineWeylElt:
    """Parse products of ``t[...]``, ``p[...]`` and ``W1`` atoms, with
    optional ^integer powers; the ``*`` between atoms may be left out."""
    cur = TokenCursor(text)
    result = identity(m)
    while cur.peek() is not None:
        if cur.peek() == "*":
            cur.take()
        else:
            result = result * _weyl_factor(cur, m)
    return result
