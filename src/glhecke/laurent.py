"""Exact sparse Laurent-polynomial arithmetic over ZZ in named invertible variables.

Coefficients are arbitrary-precision Python integers; no floating point
anywhere.  A polynomial is a map from exponent vectors to nonzero integer
coefficients, keyed against a fixed *profile* (an ordered tuple of variable
names).  Values are immutable after construction, so they can be shared and
hashed freely; equality of values is equality of canonical forms.

The three profiles used downstream:

>>> S_PROFILE
('s',)
>>> GS_PROFILE
('g', 's')
>>> x_profile(2)
('x1', 'x2', 's')

Besides ring arithmetic this module provides ``monomial_map``, the ring map
sending each variable to a monomial, and the telescoping quotient
``(e^lam - e^{s_i(lam)}) / (1 - e^{-alpha_i})`` (always an exact Laurent
polynomial, computed as a closed-form sum rather than by trial division):
``demazure_range`` is its one rule, on which ``demazure_exponents``, the
Bernstein relation of ``hecke`` and the ``T_i`` action of ``polyrep`` are
built.  Further: ``orbit``, each distinct permutation of an exponent vector
once, ``coefficient_sum`` (the value at 1 of every variable), a round-trip
text grammar like ``3*s^-2*x1^2 - x2``, and ``TokenCursor``, the one literal
reader that the Hecke and Weyl grammars build on.
"""

from __future__ import annotations

import os
import re
import sys
from functools import cache
from operator import add
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

__all__ = [
    "S_PROFILE",
    "GS_PROFILE",
    "x_profile",
    "LaurentPoly",
    "ProfileMismatchError",
    "TermBudgetError",
    "check_term_cap",
    "check_terms",
    "TokenCursor",
    "parse_poly",
    "demazure_range",
    "demazure_exponents",
    "demazure_quotient",
    "orbit",
]

S_PROFILE = ("s",)
GS_PROFILE = ("g", "s")


@cache
def x_profile(m: int) -> tuple[str, ...]:
    """Profile ``(x1, ..., xm, s)`` carrying the torus characters; built once
    per rank, and the tuple is shared."""
    return tuple(f"x{i}" for i in range(1, m + 1)) + ("s",)


class ProfileMismatchError(ValueError):
    """Raised when two polynomials over different profiles are combined, or
    a polynomial is not over the profile an operation expects."""


class TermBudgetError(RuntimeError):
    """Raised when a result would exceed the GLHECKE_MAX_TERMS cap."""


# GLHECKE_MAX_TERMS, read once per process: a positive integer caps the term
# count of every sum and product.  Unset or empty means no cap; so does any
# other value here, and the CLI rejects it at startup through check_term_cap.
_CAP_TEXT = os.environ.get("GLHECKE_MAX_TERMS", "")
_CAP_MALFORMED = bool(_CAP_TEXT) and not (_CAP_TEXT.isdecimal() and int(_CAP_TEXT) > 0)
_MAX_TERMS = int(_CAP_TEXT) if _CAP_TEXT and not _CAP_MALFORMED else sys.maxsize


def check_term_cap() -> None:
    """Raise ValueError unless GLHECKE_MAX_TERMS is unset, empty or a
    positive integer."""
    if _CAP_MALFORMED:
        raise ValueError(f"GLHECKE_MAX_TERMS must be a positive integer, got {_CAP_TEXT!r}")


def check_terms(n: int) -> None:
    """Raise TermBudgetError if a result of n terms exceeds the
    GLHECKE_MAX_TERMS cap."""
    if n > _MAX_TERMS:
        raise TermBudgetError(f"{n} terms exceeds GLHECKE_MAX_TERMS={_MAX_TERMS}")


class LaurentPoly:
    """A sparse Laurent polynomial with integer coefficients.

    ``terms`` maps exponent tuples (aligned with ``profile``) to nonzero
    integers.  Do not mutate either field; all operations return new values.
    """

    __slots__ = ("profile", "terms", "_hash")

    def __init__(self, profile: tuple[str, ...], terms: dict[tuple[int, ...], int]):
        self.profile = profile
        self.terms = terms
        self._hash: int | None = None

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(profile: tuple[str, ...]) -> "LaurentPoly":
        return LaurentPoly(profile, {})

    @staticmethod
    def const(profile: tuple[str, ...], c: int) -> "LaurentPoly":
        if c == 0:
            return LaurentPoly(profile, {})
        return LaurentPoly(profile, {(0,) * len(profile): c})

    @staticmethod
    def one(profile: tuple[str, ...]) -> "LaurentPoly":
        return LaurentPoly.const(profile, 1)

    @staticmethod
    def variable(profile: tuple[str, ...], name: str, power: int = 1) -> "LaurentPoly":
        idx = profile.index(name)
        if power == 0:
            return LaurentPoly.one(profile)
        exps = [0] * len(profile)
        exps[idx] = power
        return LaurentPoly(profile, {tuple(exps): 1})

    @staticmethod
    def monomial(profile: tuple[str, ...], exps: Sequence[int], coeff: int = 1) -> "LaurentPoly":
        if len(exps) != len(profile):
            raise ProfileMismatchError(f"{len(exps)} exponents for profile {profile}")
        if coeff == 0:
            return LaurentPoly(profile, {})
        return LaurentPoly(profile, {tuple(exps): coeff})

    @staticmethod
    def from_terms(
        profile: tuple[str, ...], items: Iterable[tuple[Sequence[int], int]]
    ) -> "LaurentPoly":
        terms: dict[tuple[int, ...], int] = {}
        for exps, c in items:
            key = tuple(exps)
            c2 = terms.get(key, 0) + c
            if c2:
                terms[key] = c2
            else:
                terms.pop(key, None)
        return LaurentPoly(profile, terms)

    # -- predicates and views -----------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        """Terms in the canonical order: descending lex on exponent tuples."""
        return sorted(self.terms.items(), key=lambda kv: kv[0], reverse=True)

    # -- arithmetic ----------------------------------------------------

    def _check(self, other: "LaurentPoly") -> None:
        if self.profile != other.profile:
            raise ProfileMismatchError(f"{self.profile} vs {other.profile}")

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        terms = dict(self.terms)
        for key, c in other.terms.items():
            c2 = terms.get(key, 0) + c
            if c2:
                terms[key] = c2
            else:
                del terms[key]
        check_terms(len(terms))
        return LaurentPoly(self.profile, terms)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.profile, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        terms = dict(self.terms)
        for key, c in other.terms.items():
            c2 = terms.get(key, 0) - c
            if c2:
                terms[key] = c2
            else:
                del terms[key]
        check_terms(len(terms))
        return LaurentPoly(self.profile, terms)

    def __mul__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            if other == 0:
                return LaurentPoly(self.profile, {})
            return LaurentPoly(self.profile, {k: c * other for k, c in self.terms.items()})
        self._check(other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1:
            # a factor equal to the constant 1 gives the other one, which is
            # still held to the cap; with one term each, either may be the 1
            ((ka, ca),) = a.items()
            if ca == 1 and not any(ka):
                check_terms(len(b))
                return other if a is self.terms else self
            if len(b) == 1:
                ((kb, cb),) = b.items()
                if cb == 1 and not any(kb):
                    check_terms(1)
                    return self if a is self.terms else other
        if len(self.profile) == 1:
            # Z[s^-1, s]: one exponent per key, added without the generic zip
            if len(a) == 1:
                (((ea,), ca),) = a.items()
                out = {(ea + eb,): ca * cb for (eb,), cb in b.items()}
            else:
                out = {}
                for (ea,), ca in a.items():
                    for (eb,), cb in b.items():
                        key = (ea + eb,)
                        c2 = out.get(key, 0) + ca * cb
                        if c2:
                            out[key] = c2
                        else:
                            del out[key]
        elif len(a) == 1:
            ((ka, ca),) = a.items()
            out = {tuple(map(add, ka, kb)): ca * cb for kb, cb in b.items()}
        else:
            out = {}
            for ka, ca in a.items():
                for kb, cb in b.items():
                    key = tuple(map(add, ka, kb))
                    c2 = out.get(key, 0) + ca * cb
                    if c2:
                        out[key] = c2
                    else:
                        del out[key]
        check_terms(len(out))
        return LaurentPoly(self.profile, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            if not self.is_monomial():
                raise ValueError("negative powers only for monomials")
            key, c = next(iter(self.terms.items()))
            if c * c != 1:
                raise ValueError("negative powers need coefficient +-1")
            inv = LaurentPoly(self.profile, {tuple(-e for e in key): c})
            return inv ** (-n)
        result = LaurentPoly.one(self.profile)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- comparisons ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, LaurentPoly)
            and self.profile == other.profile
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.profile, tuple(self.sorted_terms())))
        return self._hash

    # -- evaluation and monomial maps -------------------------------------

    def coefficient_sum(self) -> int:
        """The value at 1 of every variable."""
        return sum(self.terms.values())

    def monomial_map(
        self, target: tuple[str, ...], images: Sequence[Sequence[int]]
    ) -> "LaurentPoly":
        """The ring map sending variable j to the monomial over ``target``
        with exponent vector ``images[j]``; terms sent to one key are summed.
        Other than one image per variable, each of ``len(target)`` entries,
        raises ``ProfileMismatchError``."""
        if len(images) != len(self.profile) or any(len(img) != len(target) for img in images):
            raise ProfileMismatchError(f"images {images} do not map {self.profile} to {target}")
        zero = (0,) * len(target)
        terms: dict[tuple[int, ...], int] = {}
        for key, c in self.terms.items():
            out = zero
            for e, img in zip(key, images):
                if e:
                    out = tuple(x + e * y for x, y in zip(out, img))
            c2 = terms.get(out, 0) + c
            if c2:
                terms[out] = c2
            else:
                del terms[out]
        check_terms(len(terms))
        return LaurentPoly(target, terms)

    # -- exact division ---------------------------------------------------

    def div_exact(self, other: "LaurentPoly") -> "LaurentPoly | None":
        """Return q with self == q*other, or None if no such Laurent
        polynomial exists.  Uses leading-term peeling under the canonical
        order, after shifting both operands into the polynomial range."""
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return LaurentPoly.zero(self.profile)
        n = len(self.profile)
        shift_a = [min(k[i] for k in self.terms) for i in range(n)]
        shift_b = [min(k[i] for k in other.terms) for i in range(n)]
        rem = {tuple(e - s for e, s in zip(k, shift_a)): c for k, c in self.terms.items()}
        div = {tuple(e - s for e, s in zip(k, shift_b)): c for k, c in other.terms.items()}
        lead_b = max(div)
        cb = div[lead_b]
        quot: dict[tuple[int, ...], int] = {}
        while rem:
            lead_a = max(rem)
            ca = rem[lead_a]
            if ca % cb != 0:
                return None
            qk = tuple(a - b for a, b in zip(lead_a, lead_b))
            if any(e < 0 for e in qk):
                return None
            qc = ca // cb
            quot[qk] = quot.get(qk, 0) + qc
            check_terms(len(quot))
            for kb, c in div.items():
                key = tuple(a + b for a, b in zip(qk, kb))
                c2 = rem.get(key, 0) - qc * c
                if c2:
                    rem[key] = c2
                else:
                    rem.pop(key, None)
        shift_q = tuple(a - b for a, b in zip(shift_a, shift_b))
        return LaurentPoly(
            self.profile,
            {tuple(e + s for e, s in zip(k, shift_q)): c for k, c in quot.items() if c},
        )

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces: list[str] = []
        for key, c in self.sorted_terms():
            factors = []
            if abs(c) != 1 or all(e == 0 for e in key):
                factors.append(str(abs(c)))
            for name, e in zip(self.profile, key):
                if e == 0:
                    continue
                factors.append(name if e == 1 else f"{name}^{e}")
            body = "*".join(factors)
            if not pieces:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"LaurentPoly({self!s})"


# -- parsing ------------------------------------------------------------------


# an integer, an identifier, a punctuation mark, or any other visible character
_TOKEN = re.compile(r"\s*(?:([0-9]+|[A-Za-z]\w*|[-+*^()\[\],])|(\S))", re.ASCII)


def _tokenize(text: str) -> list[str]:
    """Split a literal into integers, identifiers (a letter, then letters,
    digits and ``_``) and the punctuation ``+-*^()[],``."""
    tokens: list[str] = []
    for tok, bad in _TOKEN.findall(text):
        if bad:
            raise ValueError(f"bad character {bad!r} in literal")
        tokens.append(tok)
    return tokens


_T = TypeVar("_T")


class TokenCursor:
    """A cursor over the tokens of one literal: the single reader behind the
    polynomial, Hecke and Weyl grammars.

    It supplies the pieces they share (signed integers, an optional
    ``^integer``, bracketed integer lists, the ``[+-] term {(+|-) term}`` /
    ``factor {* factor}`` skeleton, the polynomial factor rule and the
    trailing-input check); each grammar adds only its own atoms.  Every
    malformed literal raises ValueError.
    """

    __slots__ = ("tokens", "pos")

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ValueError("unexpected end of literal")
        self.pos += 1
        return tok

    def _got(self) -> str:
        tok = self.peek()
        return "end of literal" if tok is None else repr(tok)

    def expect(self, tok: str) -> None:
        got = self.take()
        if got != tok:
            raise ValueError(f"expected {tok!r}, got {got!r}")

    def integer(self, error: str = "expected an integer") -> int:
        """``[-]digits``."""
        sign = 1
        if self.peek() == "-":
            self.pos += 1
            sign = -1
        tok = self.peek()
        if tok is None or not tok.isdigit():
            raise ValueError(f"{error}, got {self._got()}")
        self.pos += 1
        return sign * int(tok)

    def power(self) -> int:
        """An optional ``^integer``; 1 when absent."""
        if self.peek() != "^":
            return 1
        self.pos += 1
        return self.integer("missing exponent after '^'")

    def int_list(self) -> list[int]:
        """``[integer {, integer}]``."""
        self.expect("[")
        vals = [self.integer()]
        while self.peek() == ",":
            self.pos += 1
            vals.append(self.integer())
        if self.peek() != "]":
            raise ValueError(f"unclosed '[': expected ',' or ']', got {self._got()}")
        self.pos += 1
        return vals

    def expr(self, factor: Callable[[], _T], zero: _T) -> _T:
        """``[+-] term {(+|-) term}`` with ``term = factor {* factor}``,
        summed from ``zero``."""
        out = zero
        sign = self.take() if self.peek() in ("+", "-") else "+"
        while True:
            term = factor()
            while self.peek() == "*":
                self.pos += 1
                term = term * factor()
            out = out - term if sign == "-" else out + term
            if self.peek() not in ("+", "-"):
                return out
            sign = self.take()

    def poly_factor(self, profile: tuple[str, ...]) -> LaurentPoly:
        """``( poly )``, an integer, or a variable of ``profile`` with an
        optional power."""
        tok = self.take()
        if tok == "(":
            try:
                inner = self.expr(lambda: self.poly_factor(profile), LaurentPoly.zero(profile))
            except RecursionError:
                raise ValueError("parentheses nested too deeply") from None
            self.expect(")")
            return inner
        if tok.isdigit():
            return LaurentPoly.const(profile, int(tok))
        if tok not in profile:
            raise ValueError(f"unknown variable {tok!r} for profile {profile}")
        return LaurentPoly.variable(profile, tok, self.power())

    def finish(self, value: _T) -> _T:
        """Return ``value`` if every token was read."""
        if self.peek() is not None:
            raise ValueError(f"trailing input at token {self._got()}")
        return value


def parse_poly(profile: tuple[str, ...], text: str) -> LaurentPoly:
    """Parse the polynomial grammar; parse(print(p)) == p bit-exactly."""
    cur = TokenCursor(text)
    return cur.finish(cur.expr(lambda: cur.poly_factor(profile), LaurentPoly.zero(profile)))


# -- Demazure quotient and orbits ---------------------------------------------


def demazure_range(k: int) -> tuple[int, range]:
    """The telescoping rule: with alpha = alpha_i and k = lam_i - lam_{i+1},

      (e^lam - e^{s_i lam}) / (1 - e^{-alpha}) = sign * sum_{j in js} e^{lam - j*alpha}

    for (sign, js) = (1, range(k)) if k >= 0 and (-1, range(k, 0)) if k < 0.
    The |k| terms are held to the term cap before anything is built."""
    check_terms(abs(k))
    return (1, range(k)) if k >= 0 else (-1, range(k, 0))


def demazure_exponents(lam: Sequence[int], i: int) -> list[tuple[tuple[int, ...], int]]:
    """Telescoping expansion of (e^lam - e^{s_i(lam)}) / (1 - e^{-alpha_i})
    by ``demazure_range``, as (exponent vector, sign) pairs, lam - j*alpha_i
    ordered by |j|; alpha_i = eps_i - eps_{i+1} and 1 <= i <= len(lam)-1."""
    m = len(lam)
    if not 1 <= i <= m - 1:
        raise ValueError(f"simple-coroot index {i} out of range for m={m}")
    sign, js = demazure_range(lam[i - 1] - lam[i])
    head, tail = lam[: i - 1], lam[i + 1 :]
    return [
        ((*head, lam[i - 1] - j, lam[i] + j, *tail), sign)
        for j in (js if sign > 0 else reversed(js))
    ]


def demazure_quotient(lam: Sequence[int], i: int) -> LaurentPoly:
    """(e^lam - e^{s_i(lam)}) / (1 - e^{-alpha_i}) as an x-profile polynomial."""
    return LaurentPoly.from_terms(
        x_profile(len(lam)), (((*mu, 0), sign) for mu, sign in demazure_exponents(lam, i))
    )


def orbit(lam: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Each distinct permutation of lam once, in increasing lexicographic
    order: next-permutation steps from the sorted tuple, so an orbit of
    size n costs O(n m) rather than m! steps."""
    mu = sorted(lam)
    m = len(mu)
    while True:
        yield tuple(mu)
        i = m - 2
        while i >= 0 and mu[i] >= mu[i + 1]:
            i -= 1
        if i < 0:
            return
        j = m - 1
        while mu[j] <= mu[i]:
            j -= 1
        mu[i], mu[j] = mu[j], mu[i]
        mu[i + 1 :] = reversed(mu[i + 1 :])
