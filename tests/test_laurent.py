"""Ring arithmetic, the telescoping quotient, orbits, specialization,
and the literal grammar."""

import ast
import importlib.util
import operator
import os
import random
import subprocess
import sys
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glhecke import laurent
from glhecke.laurent import (
    GS_PROFILE,
    S_PROFILE,
    LaurentPoly,
    ProfileMismatchError,
    TermBudgetError,
    demazure_exponents,
    demazure_quotient,
    demazure_range,
    orbit,
    parse_poly,
    x_profile,
)

X2 = x_profile(2)
X3 = x_profile(3)


def mono(profile, exps, c=1):
    return LaurentPoly.monomial(profile, exps, c)


# -- dense multiplication oracle ------------------------------------------------


def dense_mul(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Naive dense multiplication over a bounding exponent box."""
    n = len(a.profile)
    keys = list(a.terms) + list(b.terms)
    if not keys:
        return LaurentPoly.zero(a.profile)
    lo = [min(k[i] for k in keys) for i in range(n)]
    hi = [max(k[i] for k in keys) for i in range(n)]
    out = {}
    for ka, ca in a.terms.items():
        for kb, cb in b.terms.items():
            key = tuple(x + y for x, y in zip(ka, kb))
            assert all(2 * l <= e <= 2 * h for e, l, h in zip(key, lo, hi))
            out[key] = out.get(key, 0) + ca * cb
    return LaurentPoly(a.profile, {k: v for k, v in out.items() if v})


def test_difference_of_squares():
    x1 = LaurentPoly.variable(X2, "x1")
    s = LaurentPoly.variable(X2, "s")
    assert (x1 + s) * (x1 - s) == x1 * x1 - s * s


def test_multiplicative_identity():
    p = mono(X2, (1, 0, 0)) - mono(X2, (0, 1, 0)) + mono(X2, (0, 0, 2), 3)
    assert p * LaurentPoly.one(X2) == p


def test_inverse_monomial_product():
    # (e^(1,0) - e^(0,1)) * e^(0,1)^-1 = e^(1,-1) - 1
    p = mono(X2, (1, 0, 0)) - mono(X2, (0, 1, 0))
    q = mono(X2, (0, 1, 0)) ** -1
    want = mono(X2, (1, -1, 0)) - LaurentPoly.one(X2)
    assert p * q == want
    assert dense_mul(p, q) == want


def test_mul_against_dense_oracle():
    rng = random.Random(20260810)
    for _ in range(300):
        profile = random.Random(rng.random()).choice([S_PROFILE, GS_PROFILE, X2])
        a = _random_poly(profile, rng)
        b = _random_poly(profile, rng)
        assert a * b == dense_mul(a, b)


def _random_poly(profile, rng, max_terms=4, span=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        key = tuple(rng.randint(-span, span) for _ in profile)
        terms[key] = terms.get(key, 0) + rng.randint(-4, 4)
    return LaurentPoly(profile, {k: v for k, v in terms.items() if v})


def test_profile_mismatch_rejected():
    with pytest.raises(ProfileMismatchError):
        LaurentPoly.one(S_PROFILE) + LaurentPoly.one(GS_PROFILE)
    with pytest.raises(ProfileMismatchError):
        LaurentPoly.one(S_PROFILE) * LaurentPoly.one(X2)


def test_ring_axioms_bulk():
    # randomized associativity/commutativity/distributivity, 10^4 cases per profile
    for profile in (S_PROFILE, GS_PROFILE, X2):
        rng = random.Random(f"axioms:{profile}")
        for _ in range(10_000):
            a = _random_poly(profile, rng, max_terms=2, span=2)
            b = _random_poly(profile, rng, max_terms=2, span=2)
            c = _random_poly(profile, rng, max_terms=2, span=2)
            assert a + b == b + a
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c


@st.composite
def polys(draw, profile=X2):
    n = len(profile)
    items = draw(
        st.lists(
            st.tuples(
                st.tuples(*[st.integers(-3, 3) for _ in range(n)]),
                st.integers(-5, 5),
            ),
            max_size=5,
        )
    )
    return LaurentPoly.from_terms(profile, items)


@settings(max_examples=200)
@given(polys(), polys(), polys())
def test_ring_axioms_property(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=200)
@given(st.sampled_from([S_PROFILE, X2]).flatmap(polys))
def test_unit_factor_returns_the_other_property(p):
    one = LaurentPoly.one(p.profile)
    assert one * p == p * one == p


@st.composite
def s_pairs(draw):
    """Two S_PROFILE polynomials; the second is often a monomial, the negation
    of the first (the sum cancels to zero) or its image under s -> -s (the
    odd terms of the product cancel)."""
    p = draw(polys(S_PROFILE))
    kind = draw(st.sampled_from(["any", "monomial", "negation", "mirror"]))
    if kind == "monomial":
        q = mono(S_PROFILE, (draw(st.integers(-4, 4)),), draw(st.sampled_from([-2, -1, 1, 3])))
    elif kind == "negation":
        q = -p
    elif kind == "mirror":
        q = LaurentPoly(S_PROFILE, {k: -c if k[0] % 2 else c for k, c in p.terms.items()})
    else:
        q = draw(polys(S_PROFILE))
    return (p, q) if draw(st.booleans()) else (q, p)


def embed_gs(p):
    return LaurentPoly(GS_PROFILE, {(0,) + k: c for k, c in p.terms.items()})


@settings(max_examples=300)
@given(s_pairs())
def test_one_variable_branch_matches_generic_path(pair):
    # products and sums over ('s',) agree with the n-variable code over ('g', 's')
    p, q = pair
    assert embed_gs(p * q) == embed_gs(p) * embed_gs(q)
    assert embed_gs(p + q) == embed_gs(p) + embed_gs(q)
    assert embed_gs(p - q) == embed_gs(p) - embed_gs(q)
    assert p * q == dense_mul(p, q)


# -- the telescoping quotient -----------------------------------------------------


def alpha_poly(m, i):
    key = [0] * (m + 1)
    key[i - 1], key[i] = -1, 1
    return LaurentPoly.monomial(x_profile(m), tuple(key), 1)


def multiply_back_holds(lam, i):
    m = len(lam)
    profile = x_profile(m)
    q = demazure_quotient(lam, i)
    slam = list(lam)
    slam[i - 1], slam[i] = slam[i], slam[i - 1]
    lhs = q * (LaurentPoly.one(profile) - alpha_poly(m, i))
    rhs = mono(profile, tuple(lam) + (0,)) - mono(profile, tuple(slam) + (0,))
    return lhs == rhs


def test_demazure_examples():
    assert demazure_quotient((1, 0), 1) == mono(X2, (1, 0, 0))
    assert multiply_back_holds((1, 0), 1)
    assert demazure_quotient((2, 2, 0), 1).is_zero()
    assert demazure_quotient((2, 0), 1) == mono(X2, (2, 0, 0)) + mono(X2, (1, 1, 0))
    assert multiply_back_holds((2, 0), 1)


def test_demazure_exhaustive_multiply_back():
    for m in (2, 3, 4):
        for lam in _box(m, 2):
            for i in range(1, m):
                assert multiply_back_holds(lam, i), (lam, i)


def _box(m, bound):
    if m == 0:
        yield ()
        return
    for rest in _box(m - 1, bound):
        for v in range(-bound, bound + 1):
            yield (v,) + rest


def test_demazure_exponents_signs():
    assert demazure_exponents((0, 1), 1) == [((1, 0), -1)]
    assert demazure_exponents((1, 0), 1) == [((1, 0), 1)]
    assert demazure_exponents((0, 0), 1) == []


DEMAZURE_RANGES = {
    -3: (-1, [-3, -2, -1]),
    -2: (-1, [-2, -1]),
    -1: (-1, [-1]),
    0: (1, []),
    1: (1, [0]),
    2: (1, [0, 1]),
    3: (1, [0, 1, 2]),
}


@pytest.mark.parametrize("k", list(DEMAZURE_RANGES))
def test_demazure_range_examples(k):
    sign, got = demazure_range(k)
    assert (sign, list(got)) == DEMAZURE_RANGES[k]
    # sign * sum_j e^(lam - j alpha) times 1 - e^-alpha is e^lam - e^(s lam),
    # at lam = (k, 0)
    q = LaurentPoly.from_terms(X2, (((k - j, j, 0), sign) for j in got))
    assert q * (LaurentPoly.one(X2) - alpha_poly(2, 1)) == mono(X2, (k, 0, 0)) - mono(X2, (0, k, 0))


# -- monomial maps -------------------------------------------------------------------

IMAGES_X3_TO_GS = st.tuples(*[st.tuples(st.integers(-3, 3), st.integers(-3, 3)) for _ in X3])


@settings(max_examples=200)
@given(polys(X3), polys(X3), IMAGES_X3_TO_GS)
def test_monomial_map_is_a_ring_map(a, b, images):
    def f(p):
        return p.monomial_map(GS_PROFILE, images)

    assert f(a + b) == f(a) + f(b)
    assert f(a * b) == f(a) * f(b)
    assert f(LaurentPoly.one(X3)) == LaurentPoly.one(GS_PROFILE)


def test_monomial_map_examples(monkeypatch):
    # x1 -> g, x2 -> s^-1, x3 -> s, s -> s: x2*x3 and 1 meet at one key
    images = [(1, 0), (0, -1), (0, 1), (0, 1)]
    p = parse_poly(X3, "x1^2*x2 + x2*x3 - 1 + 3*x3^-1*s")
    assert p.monomial_map(GS_PROFILE, images) == parse_poly(GS_PROFILE, "g^2*s^-1 + 3")
    assert (p - p).monomial_map(GS_PROFILE, images).is_zero()
    monkeypatch.setattr(laurent, "_MAX_TERMS", 2)
    assert len(p.monomial_map(GS_PROFILE, images).terms) == 2
    with pytest.raises(TermBudgetError):
        p.monomial_map(X3, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])


@settings(max_examples=100)
@given(
    polys(X3),
    st.lists(st.lists(st.integers(-2, 2), min_size=0, max_size=3), min_size=0, max_size=5),
)
def test_monomial_map_rejects_bad_image_shapes(p, images):
    if len(images) == len(X3) and all(len(img) == len(GS_PROFILE) for img in images):
        assert p.monomial_map(GS_PROFILE, images).profile == GS_PROFILE
    else:
        with pytest.raises(ProfileMismatchError):
            p.monomial_map(GS_PROFILE, images)


# -- the term layout stays in this module ------------------------------------------

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "glhecke"
# functions outside laurent.py that may build LaurentPoly(profile, terms) or
# read .terms; None stands for the whole module (hecke reads HeckeElt.terms)
LAYOUT_BUILDERS = {("polyrep", "act_T"), ("springer", "pushdown_poly")}
LAYOUT_READERS = LAYOUT_BUILDERS | {("polyrep", "act"), ("hecke", None)}


def layout_touches(path):
    """(kind, module, function) for each ``LaurentPoly(...)`` call ("build")
    and each ``.terms`` read ("read") in a source file, where function is the
    enclosing top-level function or ``Class.method`` ("" at module level)."""
    units = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.ClassDef):
            units += [(f"{node.name}.{getattr(item, 'name', '')}", item) for item in node.body]
        else:
            units.append((getattr(node, "name", ""), node))
    out = set()
    for name, unit in units:
        for n in ast.walk(unit):
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "LaurentPoly":
                out.add(("build", path.stem, name))
            if isinstance(n, ast.Attribute) and n.attr == "terms" and isinstance(n.ctx, ast.Load):
                out.add(("read", path.stem, name))
    return out


def test_term_layout_is_private_to_laurent():
    touches = set().union(*(layout_touches(p) for p in PACKAGE.glob("*.py")))
    # the walker sees the module's own uses
    assert ("build", "laurent", "LaurentPoly.__add__") in touches
    assert ("read", "laurent", "LaurentPoly.monomial_map") in touches
    for kind, module, func in sorted(touches):
        if module == "laurent":
            continue
        allowed = LAYOUT_BUILDERS if kind == "build" else LAYOUT_READERS
        assert (module, func) in allowed or (module, None) in allowed, (kind, module, func)


_DETERMINANT_NAMES = {"det", "det_laurent", "det_expansion"}
_LINALG_MODULES = {"linalg", "numpy", "scipy", "sympy"}


def _names_a_determinant(name):
    name = name.lower().strip("_")
    return name in _DETERMINANT_NAMES or "determinant" in name or "bareiss" in name


def determinant_uses(path):
    """(line, what) for each function defined, imported or called under a
    determinant's name, and each import of a linear-algebra module, in one
    module."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _names_a_determinant(node.name):
            out.append((node.lineno, f"def {node.name}"))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name for a in node.names]
            if isinstance(node, ast.ImportFrom) and node.module:
                names.append(node.module)
            out += [
                (node.lineno, f"import {name}") for name in names
                if _names_a_determinant(name) or set(name.split(".")) & _LINALG_MODULES
            ]
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", ""))
            if _names_a_determinant(name):
                out.append((node.lineno, f"call {name}"))
    return out


def test_no_determinant_on_a_program_path(tmp_path):
    # the walker sees each forbidden form
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from .linalg import solve\nimport numpy.linalg\nfrom . import det_laurent\n"
        "def freeness_determinant(m):\n    return bareiss(m)\n"
    )
    assert [what for _, what in determinant_uses(probe)] == [
        "import linalg", "import numpy.linalg", "import det_laurent",
        "def freeness_determinant", "call bareiss",
    ]
    found = {path.stem: determinant_uses(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert {stem: hits for stem, hits in found.items() if hits} == {}
    # linalg stays a docstring while the benchmark's tracer still imports it
    linalg = PACKAGE / "linalg.py"
    if linalg.exists():
        assert [type(node) for node in ast.parse(linalg.read_text()).body] == [ast.Expr]


def test_every_traced_layer_imports():
    # the benchmark's tracer imports glhecke.<layer> for every layer it
    # lists, so deleting a layer module before the tracer drops it must fail
    # here, not in the benchmark; the tracer is loaded by path, unchanged
    path = PACKAGE.parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert "springer" in tracer.LAYERS
    for layer in tracer.LAYERS:
        importlib.import_module(f"glhecke.{layer}")


def _is_empty_dict(node):
    if isinstance(node, ast.Dict):
        return not node.keys
    return (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "dict"
        and not node.args and not node.keywords
    )


def test_functools_cache_is_the_one_memo_idiom():
    # derived values are memoised by functools.cache, and by no plain dict
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                if _is_empty_dict(node.value):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    found += [(path.stem, ast.unparse(t)) for t in targets]
    assert found == []


_NOT_INTEGER_NAMES = {"float", "Fraction", "Decimal"}
_NOT_INTEGER_MODULES = {"fractions", "decimal"}


def non_integer_arithmetic(path):
    """(line, what) for each true division, float constant, float/Fraction/
    Decimal name and fractions/decimal import in one module."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            out.append((node.lineno, "true division"))
        elif isinstance(node, ast.Constant) and isinstance(node.value, float):
            out.append((node.lineno, f"float constant {node.value!r}"))
        elif isinstance(node, ast.Name) and node.id in _NOT_INTEGER_NAMES:
            out.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr in _NOT_INTEGER_NAMES:
            out.append((node.lineno, node.attr))
        elif isinstance(node, ast.Import):
            out += [(node.lineno, a.name) for a in node.names if a.name.split(".")[0] in _NOT_INTEGER_MODULES]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] in _NOT_INTEGER_MODULES:
            out.append((node.lineno, node.module))
    return out


def test_package_arithmetic_is_integer_only(tmp_path):
    # the walker sees each forbidden form
    probe = tmp_path / "probe.py"
    probe.write_text("import decimal\nfrom fractions import Fraction\nx = 1 / 2\nx /= 2\ny = 0.5\nz = float(x)\n")
    assert [what for _, what in non_integer_arithmetic(probe)] == [
        "decimal", "fractions", "true division", "true division", "float constant 0.5", "float"
    ]
    found = {path.stem: non_integer_arithmetic(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert {stem: hits for stem, hits in found.items() if hits} == {}


# -- orbits ------------------------------------------------------------------------


@given(st.lists(st.integers(-2, 2), max_size=6))
@settings(max_examples=200)
def test_orbit_lists_each_permutation_once(lam):
    got = list(orbit(lam))
    assert len(got) == len(set(got))
    assert set(got) == set(permutations(lam))


# -- coefficient sum -----------------------------------------------------------------


@settings(max_examples=300)
@given(polys(X3))
def test_coefficient_sum_is_the_value_at_one(p):
    # sending every variable to the monomial 1 evaluates p at 1
    assert p.monomial_map(S_PROFILE, [(0,)] * len(X3)) == LaurentPoly.const(S_PROFILE, p.coefficient_sum())


# -- grammar -------------------------------------------------------------------------


def test_parse_print_round_trip_examples():
    for text in ("3*s^-2*x1^2 - x2", "0", "1", "-x1 + 5", "x1*x2^-3 + 2*s"):
        p = parse_poly(X2, text)
        assert parse_poly(X2, str(p)) == p


def test_round_trip_random():
    rng = random.Random(99)
    for _ in range(400):
        profile = random.Random(rng.random()).choice([S_PROFILE, GS_PROFILE, X3])
        p = _random_poly(profile, rng)
        assert parse_poly(profile, str(p)) == p


def test_parse_rejects_unknown_variable():
    with pytest.raises(ValueError):
        parse_poly(S_PROFILE, "x1 + 1")


def test_div_exact():
    x1 = LaurentPoly.variable(X2, "x1")
    x2 = LaurentPoly.variable(X2, "x2")
    s = LaurentPoly.variable(X2, "s")
    p = (x1 + s) * (x1 - x2)
    assert p.div_exact(x1 + s) == x1 - x2
    assert p.div_exact(x1 + x2) is None
    assert (x1 * x1 - s * s).div_exact(x1 - s) == x1 + s


def test_div_exact_holds_the_quotient_to_the_term_cap(monkeypatch):
    num, den = parse_poly(S_PROFILE, "s^3 - 1"), parse_poly(S_PROFILE, "s - 1")
    monkeypatch.setattr(laurent, "_MAX_TERMS", 2)
    with pytest.raises(TermBudgetError):
        num.div_exact(den)
    monkeypatch.setattr(laurent, "_MAX_TERMS", 3)
    assert num.div_exact(den) == parse_poly(S_PROFILE, "s^2 + s + 1")


# -- the GLHECKE_MAX_TERMS cap --------------------------------------------------------

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

BUDGET_SCRIPT = """
from glhecke.laurent import LaurentPoly, TermBudgetError, x_profile
# x1 + x2 + s + 1, built without a sum, which a cap of 3 would stop
keys = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)]
a = LaurentPoly.from_terms(x_profile(2), ((k, 1) for k in keys))
try:
    print(len((a ** 2).terms))
except TermBudgetError:
    print("TermBudgetError")
"""


def test_term_budget(monkeypatch):
    a = parse_poly(X2, "x1 + x2 + s + 1")
    monkeypatch.setattr(laurent, "_MAX_TERMS", 3)
    with pytest.raises(TermBudgetError):
        a**2
    monkeypatch.undo()
    assert len((a**2).terms) == 10


def test_term_budget_read_from_environment():
    # the cap is parsed once, at import, so only a fresh interpreter sees it
    outputs = []
    for cap in ("3", ""):
        env = {**os.environ, "PYTHONPATH": SRC, "GLHECKE_MAX_TERMS": cap}
        proc = subprocess.run(
            [sys.executable, "-c", BUDGET_SCRIPT], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout.strip())
    assert outputs == ["TermBudgetError", "10"]


X_PAIR = [(1, 0, 0), (0, 1, 0)], [(0, 0, 0), (0, 0, 1)]


@pytest.mark.parametrize(
    "profile, keys_a, keys_b, op",
    [
        pytest.param(X2, [(1, 0, 0)], [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)], operator.mul,
                     id="mul-single-term"),
        pytest.param(S_PROFILE, [(1,)], [(0,), (1,), (2,), (-3,)], operator.mul,
                     id="mul-one-variable-single-term"),
        pytest.param(S_PROFILE, [(0,), (1,)], [(0,), (2,)], operator.mul, id="mul-one-variable"),
        pytest.param(X2, *X_PAIR, operator.mul, id="mul-generic"),
        pytest.param(S_PROFILE, [(0,)], [(0,), (1,), (2,), (-3,)], operator.mul,
                     id="mul-by-one-one-variable"),
        pytest.param(X2, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)], [(0, 0, 0)], operator.mul,
                     id="mul-by-one"),
        pytest.param(X2, *X_PAIR, operator.add, id="add"),
        pytest.param(X2, *X_PAIR, operator.sub, id="sub"),
    ],
)
def test_term_budget_on_every_path(monkeypatch, profile, keys_a, keys_b, op):
    # each operation makes exactly 4 terms: a cap of 4 lets it through, 3 does not
    a = LaurentPoly.from_terms(profile, ((k, 1) for k in keys_a))
    b = LaurentPoly.from_terms(profile, ((k, 1) for k in keys_b))
    monkeypatch.setattr(laurent, "_MAX_TERMS", 4)
    assert len(op(a, b).terms) == 4
    monkeypatch.setattr(laurent, "_MAX_TERMS", 3)
    with pytest.raises(TermBudgetError):
        op(a, b)
