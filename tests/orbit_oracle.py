"""The orbit route to the central characters, kept as a test oracle.

The registered ``center`` check reads the scalar by which the orbit sum of
e^omega_k acts off the fixed-point tuples, with no orbit built, and compares
the tuples with the weights as multisets.  This route builds the orbit sum
of x^omega_k and substitutes x_1 -> g, x_j -> s^(m-2(j-1)) into it; the
elementary symmetric functions of the weights are its wanted values.
"""

from glhecke.laurent import GS_PROFILE, LaurentPoly, orbit, x_profile


def orbit_scalar(lam) -> LaurentPoly:
    """The orbit sum of x^lam under x_1 -> g, x_j -> s^(m-2(j-1))."""
    m = len(lam)
    z = LaurentPoly.from_terms(x_profile(m), ((mu + (0,), 1) for mu in orbit(lam)))
    images = [(1, 0)] + [(0, m - 2 * (j - 1)) for j in range(2, m + 1)] + [(0, 1)]
    return z.monomial_map(GS_PROFILE, images)


def elementary(ws) -> list[LaurentPoly]:
    """e_0, ..., e_n of the n values ws, by the recurrence
    e_k <- e_k + e_(k-1) w over the values w: O(n^2) products."""
    e = [LaurentPoly.one(GS_PROFILE)] + [LaurentPoly.zero(GS_PROFILE)] * len(ws)
    for n, w in enumerate(ws, start=1):
        for k in range(n, 0, -1):
            e[k] = e[k] + e[k - 1] * w
    return e
