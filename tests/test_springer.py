"""Fixed flags and weights, line-bundle restriction, the declared bases,
the Hecke action on the K-module, and the kernel of restriction."""

import random
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import box_kernel
from glhecke import polyrep, springer, verify, weyl
from glhecke.hecke import HeckeElt, t_element
from glhecke.laurent import GS_PROFILE, LaurentPoly, orbit_sum, parse_poly, x_profile
from glhecke.linalg import det_expansion, det_laurent


def gs(ge, se, c=1):
    return LaurentPoly.monomial(GS_PROFILE, (ge, se), c)


def test_fixed_flags_examples():
    t2 = springer.build_fixed_flags(2)
    assert [str(t2.weight_poly(0, j)) for j in range(2)] == ["g", "1"]
    t3 = springer.build_fixed_flags(3)
    assert [str(t3.weight_poly(0, j)) for j in range(3)] == ["g", "s", "s^-1"]
    assert [str(t3.weight_poly(2, j)) for j in range(3)] == ["s", "s^-1", "g"]
    # p_1 is the standard flag; p_m is U'_1 c ... c U'_(m-1) c U_m
    assert t3.flags[0] == ((1,), (1, 2), (1, 2, 3))
    assert t3.flags[2] == ((2,), (2, 3), (1, 2, 3))


def test_weights_are_permutations_of_u_line_weights():
    for m in range(1, 9):
        table = springer.build_fixed_flags(m)
        want = sorted([(1, 0)] + [(0, m - 2 * j) for j in range(1, m)])
        for k in range(m):
            assert sorted(table.weights[k]) == want


def test_restrict_line_bundle_examples():
    assert [str(e) for e in springer.restrict_line_bundle(2, (0, 0)).entries] == ["1", "1"]
    assert [str(e) for e in springer.restrict_line_bundle(2, (1, 0)).entries] == ["g", "1"]
    assert [str(e) for e in springer.restrict_line_bundle(3, (1, 0, 0)).entries] == [
        "g",
        "s",
        "s",
    ]


def test_determinant_bundle_is_g():
    for m in (1, 2, 3, 6):
        got = springer.restrict_line_bundle(m, [1] * m)
        assert got == springer.structure_sheaf(m).scale(gs(1, 0))


def test_declared_bases_m1():
    # the one Lusztig entry is 1, so its numerator is the denominator itself
    tables = springer.declared_bases(1)
    assert tables.lusztig[0][0] == springer.LUSZTIG_DENOMINATOR
    assert not tables.system_det.is_zero()


def test_declared_bases_m2_identity():
    # O = O_(p_1) + O_(V_1)(-1)  (s^(2j-m) = s^0 at m = 2), on numerators over 1 - s^2
    den = springer.LUSZTIG_DENOMINATOR
    tables = springer.declared_bases(2)
    x0, x1 = tables.lusztig
    assert list(x1) == [den * gs(1, 0), den]
    one, zero = LaurentPoly.one(GS_PROFILE), LaurentPoly.zero(GS_PROFILE)
    assert list(x0) == [den * (one - gs(1, 0)), zero]
    o = springer.structure_sheaf(2)
    for k in range(2):
        assert x0[k] + x1[k] == den * o.entries[k]


def test_declared_bases_node_entries_are_rational():
    # at a nodal fixed point the Lusztig tuple is an honest rational function:
    # (s - g) / (s^2 - 1), whose numerator 1 - s^2 does not divide
    den = springer.LUSZTIG_DENOMINATOR
    num = springer.declared_bases(3).lusztig[2][1]
    assert num.div_exact(den) is None
    assert num * parse_poly(GS_PROFILE, "s^2 - 1") == den * parse_poly(GS_PROFILE, "s - g")


def test_bundle_and_exact_sequence_identities():
    for m in range(1, 9):
        assert springer.bundle_identities_hold(m)
        assert springer.exact_sequence_identities_hold(m)
        assert not springer.declared_bases(m).system_det.is_zero()


def test_skyscraper_support():
    for m in (2, 3, 5):
        pm = springer.skyscraper_pm(m)
        assert all(pm.entries[k].is_zero() for k in range(m - 1))
        assert pm.entries[m - 1] == LaurentPoly.one(GS_PROFILE) - gs(-1, 2 - m)


def test_theorem_basis_rank():
    for m in range(1, 9):
        det = springer._theorem_data(m).det
        assert not det.is_zero()


def test_theorem_det_product_formula():
    # det V = (-1)^(m-1) prod_i (a_i - b_i) from the step shape of V, with
    # V[k][i] the entry of B_i at p_(k+1); Bareiss and the permutation
    # expansion are independent oracles
    for m in range(1, 9):
        basis = springer.theorem_basis(m)
        vmat = [[basis[i].entries[k] for i in range(m)] for k in range(m)]
        det = springer._theorem_data(m).det
        assert det == det_laurent(vmat), m
        if m <= 5:
            assert det == det_expansion(vmat), m


def test_theorem_data_rejects_a_non_step_basis(monkeypatch, fresh_caches):
    # B_1 is (a, b, ..., b); swapping its ends gives (b, b, ..., a), which
    # for m >= 3 is not a step
    def swapped(m):
        basis = list(true_basis(m))
        e = basis[1].entries
        basis[1] = springer.KClass((e[-1],) + e[1:-1] + (e[0],))
        return tuple(basis)

    true_basis = springer.theorem_basis
    monkeypatch.setattr(springer, "theorem_basis", swapped)
    for m in (3, 4, 6):
        with pytest.raises(AssertionError, match="not a step"):
            springer._theorem_data(m)


def test_k_act_makes_no_determinant_calls(monkeypatch, fresh_caches):
    calls = []

    def counting(mat):
        calls.append(len(mat))
        return det_laurent(mat)

    monkeypatch.setattr(springer, "det_laurent", counting)
    for m in range(1, 7):
        basis = springer.theorem_basis(m)
        gens = [HeckeElt.gen(m, i) for i in range(1, m + 1)] if m >= 2 else []
        gens += [HeckeElt.tw(m, 1), HeckeElt.tw(m, -1), HeckeElt.e((1,) + (0,) * (m - 1))]
        for h in gens:
            for b in basis:
                springer.k_act(h, b)
        assert calls == [], m


def test_coords_round_trip():
    rng = random.Random(31)
    for m in range(2, 7):
        basis = springer.theorem_basis(m)
        for _ in range(20):
            coeffs = [gs(rng.randint(-1, 1), rng.randint(-2, 2), rng.randint(-2, 2)) for _ in basis]
            cls = springer.KClass(
                tuple(
                    sum(
                        (basis[i].entries[k] * coeffs[i] for i in range(m)),
                        LaurentPoly.zero(GS_PROFILE),
                    )
                    for k in range(m)
                )
            )
            got = springer.coords_in_theorem_basis(cls.entries)
            assert list(got) == coeffs


def test_kclass_hash_agrees_with_equality():
    # equality and the hash read the entries alone, so a class whose
    # coordinates were already derived and a fresh one that has not derived
    # them yet must hash alike and meet in a set
    for m in range(1, 5):
        for cls in springer.theorem_basis(m):
            bare = springer.KClass(cls.entries)
            assert len(cls.coords) == m and "coords" not in vars(bare)
            assert cls == bare
            assert hash(cls) == hash(bare)
            assert len({cls, bare}) == 1


def test_theorem_basis_is_built_once_per_rank():
    assert springer.theorem_basis(5) is springer.theorem_basis(5)


def test_kclass_holds_its_entries_alone():
    entries = springer.structure_sheaf(3).entries
    assert vars(springer.KClass(entries)) == {"entries": entries}


def test_k_act_coords_match_a_fresh_solve():
    for m in range(1, 7):
        gens = [HeckeElt.gen(m, i) for i in range(1, m + 1)] if m >= 2 else []
        gens += [HeckeElt.tw(m, 1), HeckeElt.e((1,) + (0,) * (m - 1))]
        for h in gens:
            for b in springer.theorem_basis(m):
                got = springer.k_act(h, b)
                assert got.coords == springer.coords_in_theorem_basis(got.entries), (m, h)


def test_span_error_reported():
    # a bare skyscraper at p_1 needs the non-integral localization factors;
    # it is still a class, and only reading its coordinates raises
    for m in range(2, 7):
        entries = tuple(
            LaurentPoly.one(GS_PROFILE) if k == 0 else LaurentPoly.zero(GS_PROFILE)
            for k in range(m)
        )
        with pytest.raises(springer.SpanError):
            springer.coords_in_theorem_basis(entries)
        cls = springer.KClass(entries)
        with pytest.raises(springer.SpanError):
            cls.coords


def test_k_act_length_zero():
    # T_wi O = s^(i(m-i)) L_(-omega_i) = B_i
    for m in range(1, 6):
        o = springer.structure_sheaf(m)
        basis = springer.theorem_basis(m)
        for i in range(1, m):
            assert springer.k_act(t_element(weyl.omega(m, i)), o) == basis[i]
        assert springer.k_act(t_element(weyl.omega(m, m)), o) == o.scale(gs(-1, 0))


def test_k_act_finite_reflections():
    for m in (2, 3, 4, 5):
        o = springer.structure_sheaf(m)
        for i in range(1, m):
            assert springer.k_act(HeckeElt.gen(m, i), o) == o.scale(gs(0, 2))


def test_k_act_affine_reflection():
    # T_sm O = -O + s^m L_(-omega_1) + g s^m L_(-omega_(m-1))
    for m in (2, 3, 4, 5):
        o = springer.structure_sheaf(m)
        got = springer.k_act(HeckeElt.gen(m, m), o)
        want = (
            springer.restrict_line_bundle(m, [-1] + [0] * (m - 1)).scale(gs(0, m))
            + springer.restrict_line_bundle(m, [-1] * (m - 1) + [0]).scale(gs(1, m))
            - o
        )
        assert got == want
        if m > 2:
            coords = list(got.coords)
            assert str(coords[0]) == "-1"
            assert str(coords[1]) == "s"
            assert str(coords[m - 1]) == "g*s"
            assert all(c.is_zero() for c in coords[2 : m - 1])


def test_res_sigma_examples():
    m = 3
    p = parse_poly(x_profile(m), "x1 + x2 + x3")
    assert springer.res_sigma(p, m) == gs(1, 0) + gs(0, 1) + gs(0, -1)
    det = parse_poly(x_profile(m), "x1*x2*x3")
    assert springer.res_sigma(det, m) == gs(1, 0)
    one = parse_poly(x_profile(m), "1")
    assert springer.res_sigma(one, m) == LaurentPoly.one(GS_PROFILE)
    with pytest.raises(ValueError):
        springer.res_sigma(parse_poly(x_profile(m), "x1"), m)


def test_center_scalar_action():
    for m in (2, 3, 4):
        basis = springer.theorem_basis(m)
        for k in range(1, m + 1):
            lam = [1] * k + [0] * (m - k)
            zel = HeckeElt.zero(m)
            for mu in set(permutations(lam)):
                zel = zel + HeckeElt.e(mu)
            scal = springer.res_sigma(orbit_sum(lam), m)
            for b in basis:
                assert springer.k_act(zel, b) == b.scale(scal)


def _stability_generators(m):
    gens = [HeckeElt.tw(m, 1), *(HeckeElt.gen(m, i) for i in range(1, m + 1))]
    return gens + [HeckeElt.e((1,) + (0,) * (m - 1))]


@st.composite
def x_poly_pairs(draw):
    """A rank m in 2..4 and two polynomials in its x-profile."""
    m = draw(st.integers(2, 4))
    monomial = st.tuples(*[st.integers(-1, 2)] * m, st.integers(-1, 1))
    poly = st.dictionaries(monomial, st.integers(-3, 3).filter(bool), max_size=4)
    return m, LaurentPoly(x_profile(m), draw(poly)), LaurentPoly(x_profile(m), draw(poly))


@settings(max_examples=60)
@given(x_poly_pairs(), st.integers(-3, 3), st.integers(-3, 3))
def test_act_and_pushdown_are_linear(muv, a, b):
    # the linearity that lets the box oracle check a basis
    m, u, v = muv
    w = u * a + v * b
    for g in _stability_generators(m):
        assert polyrep.act(g, w) == polyrep.act(g, u) * a + polyrep.act(g, v) * b
    pu, pv = springer.pushdown_poly(m, u), springer.pushdown_poly(m, v)
    assert springer.pushdown_poly(m, w) == tuple(x * a + y * b for x, y in zip(pu, pv))


def _box_kernel_is_stable(m, degree):
    """Every box kernel vector, and its image under each generator of
    ``_stability_generators``, pushes down to zero: the box route, as an
    oracle for the registered check."""
    kernel = box_kernel.kernel_vectors(m, degree)
    images = [springer.pushdown_poly(m, u) for u in kernel]
    for g in _stability_generators(m):
        images += [springer.pushdown_poly(m, polyrep.act(g, u)) for u in kernel]
    return all(e.is_zero() for image in images for e in image)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_box_kernel_is_stable_at_degree_2(m):
    assert _box_kernel_is_stable(m, 2)
    assert verify.run_check("springer", "kernel-stability", m).status == "pass"


@pytest.mark.parametrize("m, dim", [(3, 8), (4, 172)])
def test_kernel_stability_at_degree_3(m, dim):
    assert len(box_kernel.kernel_vectors(m, 3)) == dim
    assert _box_kernel_is_stable(m, 3)


def test_kernel_generators_restrict_to_zero():
    # m(m-1) of the m^2 elements G_ji are nonzero: x_(i+1) l_i is a unit
    # multiple of l_(i+1), or of D at i = m - 1
    for m in range(2, 8):
        gens = springer.kernel_generators(m)
        assert len(gens) == m * (m - 1), m
        for g in gens:
            assert all(e.is_zero() for e in springer.pushdown_poly(m, g)), (m, g)


def test_kernel_stability_catches_planted_faults(monkeypatch, fresh_caches):
    m = 3
    coords, act = springer.coords_in_theorem_basis, polyrep.act
    one = LaurentPoly.one(GS_PROFILE)
    with monkeypatch.context() as mp:
        # the coordinate of l_0 is off by one, so G_10 = x1 - x1 - 1
        mp.setattr(springer, "coords_in_theorem_basis", lambda e: (coords(e)[0] + one, *coords(e)[1:]))
        check = verify.run_check("springer", "kernel-stability", m)
    assert check.status == "fail"
    assert check.counterexample == "kernel basis vector -1 does not restrict to zero"

    def no_span(entries):
        raise springer.SpanError("no coordinates")

    with monkeypatch.context() as mp:
        mp.setattr(springer, "coords_in_theorem_basis", no_span)
        check = verify.run_check("springer", "kernel-stability", m)
    assert check.status == "fail"
    assert check.counterexample == "SpanError('x1 pushes down outside the theorem-basis span')"
    pushdown = springer.pushdown_poly
    d = LaurentPoly.monomial(x_profile(m), (1, 1, 1, 0))

    def shifted_d(m, u):
        # D pushes down to g^-1 s at every fixed point
        return tuple(e * gs(0, 1) for e in pushdown(m, u)) if u == d else pushdown(m, u)

    with monkeypatch.context() as mp:
        mp.setattr(springer, "pushdown_poly", shifted_d)
        check = verify.run_check("springer", "kernel-stability", m)
    assert check.status == "fail"
    assert check.counterexample == "x1*x2*x3 does not push down to g^-1 at every fixed point"
    x1 = LaurentPoly.variable(x_profile(m), "x1")
    monkeypatch.setattr(polyrep, "act", lambda h, u: act(h, u) + x1)
    check = verify.run_check("springer", "kernel-stability", m)
    assert check.status == "fail"
    assert check.counterexample == "T[1] is not linear over x1*x2 at x1^-4"


def _flipped_act_T(act_T, only=None):
    """T_si with the sign of its s-shifted (-s^2 quotient) terms flipped,
    applied one monomial at a time, so the fault stays linear; with ``only``
    set, at i = only(m) alone."""

    def act(i, u, m):
        if only is not None and i != only(m):
            return act_T(i, u, m)
        total = LaurentPoly.zero(u.profile)
        for key, c in u.terms.items():
            image = act_T(i, LaurentPoly.monomial(u.profile, key, c), m)
            flipped = {k: -d if k[m] == key[m] + 2 else d for k, d in image.terms.items()}
            total = total + LaurentPoly(u.profile, flipped)
        return total

    return act


def _bent_at_3(act_T):
    """T_si plus the identity on the monomials x^lam with lam_i - lam_(i+1) = 3:
    Z-linear, but not linear over x_i + x_(i+1)."""

    def act(i, u, m):
        bent = {k: c for k, c in u.terms.items() if k[i - 1] - k[i] == 3}
        return act_T(i, u, m) + LaurentPoly(u.profile, bent)

    return act


def _swap_x1_x2(u):
    return LaurentPoly(u.profile, {(k[1], k[0], *k[2:]): c for k, c in u.terms.items()})


@pytest.mark.parametrize("m", [3, 4, 5])
def test_kernel_stability_catches_the_flip_fault(monkeypatch, m):
    # the flipped T_i stays linear over the s_i-invariants, so the premises
    # hold, and T[1] moves the first generator, G_11, out of the kernel; the
    # degree-2 box route missed this at m = 3, and neither route catches it
    # at m = 2
    monkeypatch.setattr(polyrep, "act_T", _flipped_act_T(polyrep.act_T))
    check = verify.run_check("springer", "kernel-stability", m)
    assert check.status == "fail"
    rest = "*".join(f"x{j}" for j in range(2, m + 1))
    u = f"-x1^2*{rest}*s^{m - 1} + x1^2*s^{m - 1} + x1*{rest}*s - x1*s"
    assert check.counterexample == f"kernel not stable under T[1] at {u}"


def _swapped_at_last_e(act_e):
    """e^lam followed by the swap x1 <-> x2 whenever lam_m is nonzero."""

    def act(lam, u, m):
        return _swap_x1_x2(act_e(lam, u, m)) if lam[m - 1] else act_e(lam, u, m)

    return act


# name -> (patched polyrep attribute, fault made from the original, report at m = 4)
_FAULTS = {
    "flip-s-shifted-terms": (
        "act_T", _flipped_act_T,
        "kernel not stable under T[1] at -x1^2*x2*x3*x4*s^3 + x1^2*s^3 + x1*x2*x3*x4*s - x1*s",
    ),
    # T[1] is untouched, so a check that looked at T_1 alone would pass
    "flip-at-last-index": (
        "act_T", lambda act_T: _flipped_act_T(act_T, only=lambda m: m - 1),
        "kernel not stable under T[3] at "
        "-x1^2*x2*x3*x4*s + x1^2*x2*x3*s^3 + x1*x2*x3*x4*s^-1 - x1*x2*x3*s",
    ),
    "bent-at-difference-3": ("act_T", _bent_at_3, "T[1] is not linear over x1 + x2 at x1^2"),
    # x1 + x2 and x1*x2 commute with the swap, so T[1] passes the premise
    "add-x1-x2-swap": (
        "act", lambda act: lambda h, u: act(h, u) + _swap_x1_x2(u),
        "T[2] is not linear over x2*x3 at x2^-4",
    ),
    # e^(eps_1) is untouched, so a check that looked at it alone would pass
    "swap-after-e-last": (
        "act_e", _swapped_at_last_e,
        "kernel not stable under e[0,0,0,1] at -x1^2*x2*x3*x4*s^3 + x1^2*s^3 + x1*x2*x3*x4*s - x1*s",
    ),
}


@pytest.mark.parametrize("fault", list(_FAULTS))
def test_kernel_stability_reports_linear_faults_in_loop_order(monkeypatch, fault):
    # the first failure in the order: D, the premise by (i, lam, f), then by
    # generator G its restriction and its images
    name, make, want = _FAULTS[fault]
    monkeypatch.setattr(polyrep, name, make(getattr(polyrep, name)))
    check = verify.run_check("springer", "kernel-stability", 4)
    assert check.status == "fail"
    assert check.counterexample == want
    # the box oracle sees every fault but the bend, as the degree-2 box has
    # no exponent difference of 3
    assert _box_kernel_is_stable(4, 2) == (fault == "bent-at-difference-3")


@st.composite
def invariant_pairs(draw):
    """A rank m in 2..4, an index i, an s_i-invariant f and a vector u: the
    terms of f come in pairs swapped by x_i <-> x_(i+1), with one coefficient
    per pair, and may involve s and the other x_j."""
    m = draw(st.integers(2, 4))
    i = draw(st.integers(1, m - 1))
    monomial = st.tuples(*[st.integers(-2, 2)] * m, st.integers(-1, 1))
    coeffs = st.integers(-3, 3).filter(bool)
    u = LaurentPoly(x_profile(m), draw(st.dictionaries(monomial, coeffs, max_size=4)))
    f = {}
    for key, c in draw(st.dictionaries(monomial, coeffs, max_size=3)).items():
        swapped = list(key)
        swapped[i - 1], swapped[i] = key[i], key[i - 1]
        f[key] = f[tuple(swapped)] = c
    return m, i, LaurentPoly(x_profile(m), f), u


@settings(max_examples=80)
@given(invariant_pairs())
def test_act_T_is_linear_over_the_invariants(mifu):
    # the premise that kernel-stability checks on the ring generators of the
    # s_i-invariants, on every branch of the telescoping sums
    m, i, f, u = mifu
    t = HeckeElt.gen(m, i)
    assert polyrep.act(t, f * u) == f * polyrep.act(t, u)


def test_k_act_is_a_module_action():
    rng = random.Random(34)
    for m in (2, 3):
        basis = springer.theorem_basis(m)
        gens = [HeckeElt.gen(m, i) for i in range(1, m + 1)]
        gens += [HeckeElt.tw(m, 1), HeckeElt.tw(m, -1), HeckeElt.e((0, 1) + (0,) * (m - 2))]
        for _ in range(40):
            a, b = rng.choice(gens), rng.choice(gens)
            c = rng.choice(basis)
            assert springer.k_act(a * b, c) == springer.k_act(a, springer.k_act(b, c))


def test_k_act_coords_reproduce_tuple():
    for m in (2, 3, 4):
        basis = springer.theorem_basis(m)
        got = springer.k_act(HeckeElt.gen(m, m), springer.structure_sheaf(m))
        rebuilt = [LaurentPoly.zero(GS_PROFILE)] * m
        for i, c in enumerate(got.coords):
            for k in range(m):
                rebuilt[k] = rebuilt[k] + basis[i].entries[k] * c
        assert tuple(rebuilt) == got.entries


def test_pushdown_matches_restriction():
    # pushdown of the monomial x^nu is the tuple of L_(-nu)
    rng = random.Random(33)
    for _ in range(50):
        m = rng.randint(1, 4)
        nu = [rng.randint(-2, 2) for _ in range(m)]
        mono = LaurentPoly.monomial(x_profile(m), tuple(nu) + (0,), 1)
        got = springer.pushdown_poly(m, mono)
        want = springer.restrict_line_bundle(m, [-v for v in nu])
        assert got == want.entries


def test_pushdown_walk_matches_restriction_at_higher_rank():
    # pushdown_poly walks from one fixed point to the next through the two
    # slots of each step; restrict_line_bundle reads every weight afresh
    rng = random.Random(35)
    for m in range(5, 11):
        assert all(len(step) == 2 for step in springer.build_fixed_flags(m).steps)
        for _ in range(10):
            nu = [rng.randint(-2, 2) for _ in range(m)]
            b = rng.randint(-2, 2)
            mono = LaurentPoly.monomial(x_profile(m), (*nu, b), 3)
            want = springer.restrict_line_bundle(m, [-v for v in nu]).scale(gs(0, b, 3))
            assert springer.pushdown_poly(m, mono) == want.entries


def test_k_act_on_line_bundles_matches_their_monomial_lifts():
    # x^(-lam) is a lift of L_lam independent of the theorem-basis lifts that
    # k_act combines; the coordinates of L_lam have several terms and involve g
    cases = 0
    for m in range(1, 5):
        gens = [HeckeElt.gen(m, i) for i in range(1, m + 1)] if m >= 2 else []
        gens += [HeckeElt.tw(m, 1), HeckeElt.tw(m, -1), HeckeElt.e((1,) + (0,) * (m - 1))]
        for lam in product((-1, 0, 1), repeat=m):
            cls = springer.restrict_line_bundle(m, lam)
            mono = LaurentPoly.monomial(x_profile(m), tuple(-v for v in lam) + (0,), 1)
            for h in gens:
                want = springer.pushdown_poly(m, polyrep.act(h, mono))
                assert springer.k_act(h, cls).entries == want, (m, lam, h)
                cases += 1
    assert cases == 783


def test_pushdown_rejects_other_profiles():
    u = LaurentPoly.monomial(("g", "x1", "x2", "s"), (1, 0, 1, 0), 1)
    with pytest.raises(ValueError):
        springer.pushdown_poly(2, u)
    with pytest.raises(ValueError):
        springer.pushdown_poly(3, polyrep.one_vector(2))
