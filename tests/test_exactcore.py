"""Exact arithmetic layer: field elements, polynomials, parsing, gcd, roots."""

import math
import random
import signal
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from folindex.exactcore import (
    QQ,
    DescriptorMismatchError,
    ExtensionRequiredError,
    FieldDescriptor,
    FieldElem,
    MultiPoly,
    ParseError,
    PreconditionError,
    ResourceCapError,
    divexact,
    factor_univariate,
    gcd,
    parse_poly,
    resultant,
    squarefree_at,
    substitute,
    translate_to_origin,
    try_divide,
    univariate_roots,
    _DENSE_WIDTH_CAP,
    _below,
    _composite,
    _coprime_mod_p,
    _join,
    _resultant_sympy,
    _sympy_ring,
    _univariate_coeffs,
)

from folindex import exactcore

from conftest import P2, P3, V2, V3, subprocess_env
from test_cli import _cap_address_space

SQRT2 = FieldDescriptor.simple_extension("r", [Fraction(-2), Fraction(0), Fraction(1)])
SQRT3 = FieldDescriptor.simple_extension("s", [Fraction(-3), Fraction(0), Fraction(1)])


def fe(v, desc=QQ):
    return FieldElem.of(v, desc)


# ---------------------------------------------------------------- field elems

def test_sqrt2_arithmetic():
    r = FieldElem.generator(SQRT2)
    one = fe(1, SQRT2)
    assert (one + r) * (one - r) == fe(-1, SQRT2)
    assert r * r == fe(2, SQRT2)
    assert r.inverse() * r == one
    assert r ** 3 == fe(2, SQRT2) * r
    assert (one / r) * r == one


def test_field_elem_rational_bridge():
    a = fe(Fraction(3, 4))
    assert a.is_rational
    assert a.as_fraction() == Fraction(3, 4)
    lifted = a.lift(SQRT2)
    assert lifted.descriptor is SQRT2
    assert lifted.as_fraction() == Fraction(3, 4)
    r = FieldElem.generator(SQRT2)
    assert not r.is_rational
    with pytest.raises(DescriptorMismatchError):
        r.as_fraction()


def _elem(desc):
    return FieldElem.generator(desc) if desc.is_extension else fe(3)


def _poly(desc):
    return P2("x") + _elem(desc)


JOIN_OPS = {
    "FieldElem +": lambda d1, d2: _elem(d1) + _elem(d2),
    "MultiPoly *": lambda d1, d2: _poly(d1) * _poly(d2),
    "scalar * MultiPoly": lambda d1, d2: _elem(d1) * _poly(d2),
    "substitute": lambda d1, d2: substitute(_poly(d1), {"x": _poly(d2), "y": _poly(d2)}),
    "translate_to_origin": lambda d1, d2: translate_to_origin(_poly(d1), (_elem(d2), _elem(d2))),
}


@pytest.mark.parametrize("op", JOIN_OPS)
def test_fields_join_the_same_way_everywhere(op):
    with pytest.raises(DescriptorMismatchError):
        JOIN_OPS[op](SQRT2, SQRT3)
    assert JOIN_OPS[op](QQ, SQRT2).descriptor == SQRT2
    assert JOIN_OPS[op](SQRT2, QQ).descriptor == SQRT2


def test_scalars_combine_with_series_and_polynomials_on_either_side():
    x = P2("x")
    assert fe(2) * x == x * 2
    assert fe(2) - x == -(x - 2)


def test_factor_refuses_a_coefficient_from_another_extension():
    # the coordinates of s in Q(s) must not be read as those of r in Q(r)
    with pytest.raises(DescriptorMismatchError):
        factor_univariate([FieldElem.generator(SQRT3), 1], SQRT2)


def test_equality_across_two_extensions_compares_instead_of_raising():
    assert fe(2, SQRT2) == fe(2, SQRT3)
    assert hash(fe(2, SQRT2)) == hash(fe(2, SQRT3))
    assert fe(2, SQRT2) != fe(3, SQRT3)
    assert FieldElem.generator(SQRT2) != FieldElem.generator(SQRT3)
    assert FieldElem.generator(SQRT2) != fe(2, SQRT3)
    assert parse_poly("x + 2", V2, SQRT2) == parse_poly("x + 2", V2, SQRT3)
    assert parse_poly("x + r", V2, SQRT2) != parse_poly("x + s", V2, SQRT3)


def test_polynomial_hash_ignores_the_field_as_equality_does():
    a = parse_poly("x + y", V2)
    b = a.lift(SQRT2)
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert len({a, parse_poly("x + r*y", V2, SQRT2)}) == 2


def test_zero_inverse_rejected():
    with pytest.raises(ZeroDivisionError):
        fe(0).inverse()


def test_extension_constructor_guards():
    # reducible over Q: has the rational root 1
    with pytest.raises(PreconditionError):
        FieldDescriptor.simple_extension("s", [Fraction(-1), Fraction(0), Fraction(1)])
    # not squarefree
    with pytest.raises(PreconditionError):
        FieldDescriptor.simple_extension("s", [Fraction(0), Fraction(0), Fraction(1)])
    # degree below 2 never defines a proper extension
    with pytest.raises(PreconditionError):
        FieldDescriptor.simple_extension("s", [Fraction(-2), Fraction(1)])
    # (s^2 - 2)(s^2 - 3): square-free, no rational root, still reducible
    with pytest.raises(PreconditionError):
        FieldDescriptor.simple_extension("s", [6, 0, -5, 0, 1])


def test_no_towers():
    # y^2 - 3 stays irreducible over Q(sqrt 2); a second extension is refused
    coeffs = [fe(-3, SQRT2), fe(0, SQRT2), fe(1, SQRT2)]
    with pytest.raises(ExtensionRequiredError):
        univariate_roots(coeffs, SQRT2)


def test_univariate_roots_quadratic():
    coeffs = [fe(-2), fe(0), fe(1)]
    roots = univariate_roots(coeffs, QQ)
    assert len(roots) == 1
    root, mult, desc, conj = roots[0]
    assert mult == 1 and conj == 2 and desc.degree == 2
    assert root * root == fe(2, desc)


def test_univariate_roots_multiplicities():
    # (t - 1)^2 (t + 3)
    coeffs = [fe(3), fe(-5), fe(1), fe(1)]
    roots = sorted(univariate_roots(coeffs, QQ), key=lambda r: r[0].as_fraction())
    assert [(r[0].as_fraction(), r[1], r[3]) for r in roots] == [
        (Fraction(-3), 1, 1), (Fraction(1), 2, 1)]


def test_factor_univariate_degrees():
    # (t^2 - 2)(t - 1)^2  ->  one quadratic factor, one linear with mult 2
    coeffs = [fe(-2), fe(4), fe(-1), fe(-2), fe(1)]
    unit, factors = factor_univariate(coeffs, QQ)
    assert unit == fe(1)
    shapes = sorted((len(f) - 1, m) for f, m in factors)
    assert shapes == [(1, 2), (2, 1)]
    # every factor comes back monic
    assert all(f[-1] == fe(1) for f, _ in factors)


def test_factor_univariate_over_extension():
    # t^2 - 2 splits once the square root is adjoined
    r = FieldElem.generator(SQRT2)
    unit, factors = factor_univariate([fe(-2, SQRT2), fe(0, SQRT2), fe(1, SQRT2)], SQRT2)
    assert sorted(len(f) - 1 for f, _ in factors) == [1, 1]
    roots = sorted((-f[0] / f[1] for f, _ in factors), key=lambda e: e.coefficients)
    assert roots == [-r, r]


def test_factor_over_extension_has_no_numeric_step(monkeypatch):
    # field_isomorphism is sympy's PSLQ/evalf route between number fields
    import sympy.polys.numberfields.subfield as subfield

    def numeric(*args, **kwargs):
        raise AssertionError("numeric field isomorphism on the factoring path")

    monkeypatch.setattr(subfield, "field_isomorphism", numeric)
    k = FieldDescriptor.simple_extension("t", [1, 1, 0, 0, 0, 0, 1])
    t = FieldElem.generator(k)
    unit, factors = factor_univariate([-(t * t), fe(0, k), fe(1, k)], k)
    assert unit == fe(1, k)
    assert factors == [([-t, fe(1, k)], 1), ([t, fe(1, k)], 1)]


@pytest.mark.parametrize("desc", [QQ, SQRT2], ids=["QQ", "QQ(r)"])
def test_factor_univariate_refuses_only_when_sympy_cannot_factor(monkeypatch, desc):
    from sympy.polys.polyerrors import DomainError
    from sympy.polys.rings import PolyElement

    # x^4 + 1: reducible mod every prime, so over QQ no certificate decides it
    coeffs = [fe(1, desc), fe(0, desc), fe(0, desc), fe(0, desc), fe(1, desc)]
    for raised, seen in ((DomainError, ExtensionRequiredError), (TypeError, TypeError)):
        def failing(self, raised=raised):
            raise raised("from factor_list")

        monkeypatch.setattr(PolyElement, "factor_list", failing)
        with pytest.raises(seen):
            factor_univariate(coeffs, desc)


def test_factor_univariate_matches_sympy_on_random_products(monkeypatch):
    # 300 seeded products of 1-3 random integer factors of degree 1-4 with
    # coefficients in [-4, 4], a factor sometimes repeated: the factors, their
    # multiplicities and their order are sympy's factor_list over QQ, whether
    # the certificate settles the product or sympy decides it
    from sympy import Poly, Symbol

    z = Symbol("z")
    settled = []
    certify = exactcore._factor_qq
    monkeypatch.setattr(exactcore, "_factor_qq",
                        lambda coeffs: settled.append(certify(coeffs)) or settled[-1])
    rng = random.Random(22)
    for _ in range(300):
        factors = []
        for _ in range(rng.randint(1, 3)):
            if factors and rng.random() < 0.25:
                factors.append(rng.choice(factors))
                continue
            lead = rng.choice([-4, -3, -2, -1, 1, 2, 3, 4])
            factors.append(Poly([lead] + [rng.randint(-4, 4) for _ in range(rng.randint(1, 4))],
                                z, domain="QQ"))
        product = math.prod(factors[1:], start=factors[0])
        coeffs = [Fraction(int(c.numerator), int(c.denominator)) for c in reversed(product.all_coeffs())]
        unit, got = factor_univariate(coeffs, QQ)
        _, expected = product.factor_list()
        assert unit == fe(coeffs[-1])
        assert got == [([fe(Fraction(int(c.numerator), int(c.denominator)))
                         for c in reversed(f.monic().all_coeffs())], m) for f, m in expected], coeffs
    # sympy decided some products, and a mod-p certificate settled others
    assert None in settled
    assert any(len(fac) >= 5 for r in settled if r for fac, _ in r)
    assert any(m > 1 for r in settled if r for _, m in r)


def test_simple_extension_certifies_without_sympy():
    # x^3 - 2 has no rational root; Phi_7 is irreducible mod 3
    check = ("import sys\n"
             "from folindex.exactcore import FieldDescriptor\n"
             "assert FieldDescriptor.simple_extension('t', [-2, 0, 0, 1]).degree == 3\n"
             "assert FieldDescriptor.simple_extension('t', [1] * 7).degree == 6\n"
             "assert 'sympy' not in sys.modules, 'sympy was imported'\n")
    proc = subprocess.run([sys.executable, "-c", check], env=subprocess_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    # (x^2 + 1)(x^2 + 2) has no rational root and is reducible mod every
    # prime, so sympy decides it, and refuses it
    assert exactcore._factor_qq([Fraction(c) for c in (2, 0, 3, 0, 1)]) is None
    with pytest.raises(PreconditionError, match="not irreducible"):
        FieldDescriptor.simple_extension("t", [2, 0, 3, 0, 1])


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
nonzero_rationals = rationals.filter(bool)


@st.composite
def low_degree_qq(draw):
    """Coefficients (constant first) of a degree 1 or 2 polynomial over Q:
    arbitrary, with two rational roots, or with a double root."""
    lead = draw(nonzero_rationals)
    kind = draw(st.sampled_from(["linear", "quadratic", "split", "double"]))
    if kind == "linear":
        return [draw(rationals), lead]
    if kind == "quadratic":
        return [draw(rationals), draw(rationals), lead]
    a = draw(rationals)
    b = a if kind == "double" else draw(rationals)
    return [lead * a * b, -lead * (a + b), lead]


def _sympy_factors(coeffs):
    R, to_sympy, from_sympy = _sympy_ring(QQ, "_z")
    _, factors = R.from_list([to_sympy(fe(c)) for c in reversed(coeffs)]).factor_list()
    return [([from_sympy(a) for a in reversed(f.monic().to_dense())], m) for f, m in factors]


@settings(max_examples=60, deadline=None)
@given(low_degree_qq())
def test_closed_form_factors_match_sympy_in_order(coeffs):
    unit, factors = factor_univariate(coeffs, QQ)
    assert unit == fe(coeffs[-1])
    assert factors == _sympy_factors(coeffs)


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.tuples(rationals, rationals),
                 st.tuples(rationals, rationals).map(lambda ab: (ab[0] * ab[1], -ab[0] - ab[1]))))
def test_quadratic_extension_refused_exactly_when_reducible(low):
    minpoly = [low[0], low[1], Fraction(1)]
    R, to_sympy, _ = _sympy_ring(QQ, "_g")
    if R.from_list([to_sympy(fe(c)) for c in reversed(minpoly)]).is_irreducible:
        assert FieldDescriptor.simple_extension("t", minpoly).degree == 2
    else:
        with pytest.raises(PreconditionError):
            FieldDescriptor.simple_extension("t", minpoly)


# ----------------------------------------------------------------- poly ring

coeff_st = st.integers(min_value=-4, max_value=4)


@st.composite
def polys(draw, max_degree=3):
    terms = {}
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        i = draw(st.integers(min_value=0, max_value=max_degree))
        j = draw(st.integers(min_value=0, max_value=max_degree - i))
        c = draw(coeff_st)
        if c:
            terms[(i, j)] = fe(c)
    return MultiPoly(V2, QQ, terms)


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a + (-a) == MultiPoly.zero(V2)


@settings(max_examples=60, deadline=None)
@given(polys(), polys())
def test_derivation_product_rule(a, b):
    for v in V2:
        assert (a * b).diff(v) == a.diff(v) * b + a * b.diff(v)


@settings(max_examples=60, deadline=None)
@given(polys())
def test_parse_round_trip(p):
    assert parse_poly(p.to_str(), V2) == p


def test_parse_syntax():
    assert P2("x**2 - y") == P2("x^2 - y")
    assert P2("-(x - y)^2") == -(P2("x") - P2("y")) ** 2
    # a minus sign binds looser than ^ after an operator too
    assert P2("x*-y^2") == -P2("x*y^2")
    assert P2("y^3+-x^2") == P2("y^3 - x^2")
    assert P2("y--x^2") == P2("y + x^2")
    assert P2("(-y)^2") == P2("y^2")
    assert P2("--x") == P2("x")
    assert P2("+-x") == -P2("x")
    with pytest.raises(ParseError):
        parse_poly("x + z", V2)
    with pytest.raises(ParseError):
        parse_poly("x^-1", V2)
    with pytest.raises(ParseError):
        parse_poly("x + ", V2)
    with pytest.raises(ParseError):
        parse_poly("x y", V2)


def test_poly_queries():
    f = P2("y^2 - x^3 + x*y^2")
    assert f.total_degree() == 3
    assert f.degree_in("x") == 3
    assert f.order_at_origin() == 2
    assert f.homogeneous_part(2) == P2("y^2")
    assert f.evaluate({"x": Fraction(1), "y": Fraction(2)}) == fe(7)


def test_evaluate_at_the_origin_reads_the_constant_term():
    f = P2("y^2 - x^3 + 5")
    for zero in (0, Fraction(0), fe(0)):
        value = f.evaluate({"x": zero, "y": zero})
        assert value == fe(5) and value.descriptor is QQ
    # zero values over Q(r) move the rational constant term into Q(r)
    value = f.evaluate({"x": fe(0, SQRT2), "y": 0})
    assert value.descriptor is SQRT2 and value == fe(5, SQRT2)
    # no constant term: zero in the joined field
    for at, desc in (({"x": 0, "y": 0}, QQ), ({"x": 0, "y": fe(0, SQRT2)}, SQRT2)):
        value = P2("x*y - y^3").evaluate(at)
        assert value.is_zero and value.descriptor is desc
    # the values are still read and their fields joined first
    with pytest.raises(DescriptorMismatchError):
        f.evaluate({"x": fe(0, SQRT2), "y": fe(0, SQRT3)})
    with pytest.raises(KeyError):
        f.evaluate({"x": 0})


def test_evaluate_at_the_origin_multiplies_nothing(monkeypatch):
    r = FieldElem.generator(SQRT2)
    f = MultiPoly(V2, SQRT2, {(0, 0): r + 1, (1, 0): r, (3, 2): fe(7, SQRT2)})
    g, expected = P2("x - 1"), r + 1

    def refuse(self, other):
        raise AssertionError("a product while evaluating at the origin")

    monkeypatch.setattr(FieldElem, "__mul__", refuse)
    assert f.evaluate({"x": 0, "y": fe(0, SQRT2)}) == expected
    assert g.evaluate({"x": 0, "y": 0}) == fe(-1)
    with pytest.raises(AssertionError):
        f.evaluate({"x": 1, "y": 0})


def test_coeffs_round_trip():
    f = P2("y^2 - x^3 + 2*x*y")
    coeffs = f.coeffs_in("y")
    assert coeffs == [P2("-x^3"), P2("2*x"), P2("1")]
    assert sum((c * P2("y") ** e for e, c in enumerate(coeffs)), P2("0")) == f


def test_substitute_swap_involution():
    f = P2("y^2 - x^3 + 2*x*y")
    swap = {"x": P2("y"), "y": P2("x")}
    assert substitute(substitute(f, swap), swap) == f
    assert substitute(f, swap) == P2("x^2 - y^3 + 2*x*y")


def test_substitute_builds_only_the_powers_it_uses():
    # a one-term target's power is c^e m^e, built once: the powers up to
    # 10^8 of -x would not fit in the child's 1 GiB
    check = ("from folindex.exactcore import parse_poly, substitute\n"
             "V = ('x', 'y')\n"
             "f = parse_poly('x^100000000*y', V)\n"
             "print(substitute(f, {'x': parse_poly('-x', V), 'y': parse_poly('y', V)}))\n")
    proc = subprocess.run([sys.executable, "-c", check], env=subprocess_env(),
                          capture_output=True, text=True, timeout=20,
                          preexec_fn=_cap_address_space)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "x^100000000*y\n"


def test_translate_to_origin():
    f = P2("y^2 - x^3")
    g = translate_to_origin(f, (Fraction(1), Fraction(1)))
    zero = {"x": Fraction(0), "y": Fraction(0)}
    assert g.evaluate(zero) == f.evaluate({"x": Fraction(1), "y": Fraction(1)})
    assert g == P2("(y + 1)^2 - (x + 1)^3")


def _translated_by_substitution(f, point):
    coords = [FieldElem.of(c) for c in point]
    desc = _join(f.descriptor, *(c.descriptor for c in coords))
    return substitute(f, {v: MultiPoly.variable(v, f.variables, desc) + c
                          for v, c in zip(f.variables, coords)})


@pytest.mark.parametrize("text, desc, point", [
    ("y^2 - x^3 + 2*x*y - 5", QQ, (Fraction(0), Fraction(0))),
    ("y^2 - x^3 + 2*x*y - 5", QQ, (0, 0)),
    ("y^2 - x^3 + 2*x*y - 5", QQ, (fe(0, SQRT2), fe(0, SQRT2))),
    ("x^2*y - r*y + 1", SQRT2, (fe(0), fe(0))),
], ids=["Q-fractions", "Q-ints", "Q-poly-Q(r)-point", "Q(r)-poly"])
def test_translate_to_origin_by_zero_matches_substitution(text, desc, point):
    f = parse_poly(text, V2, desc)
    got = translate_to_origin(f, point)
    want = _translated_by_substitution(f, point)
    assert got.descriptor == want.descriptor
    assert list(got.terms.items()) == list(want.terms.items())
    assert all(c.descriptor == want.descriptor for c in got.terms.values())


def test_translate_to_origin_by_zero_keeps_the_arity_check():
    with pytest.raises(PreconditionError, match="arity"):
        translate_to_origin(P2("x + y"), (0,))
    with pytest.raises(PreconditionError, match="arity"):
        translate_to_origin(P2("x + y"), (0, 0, 0))


def test_divisibility():
    f = P2("x^2 - y^2")
    g = P2("x - y")
    assert try_divide(f, g) is not None
    assert divexact(f, g) == P2("x + y")
    assert try_divide(f, P2("x + 2*y")) is None
    with pytest.raises(PreconditionError):
        divexact(g, f)


@pytest.mark.parametrize("desc", [QQ, SQRT2], ids=["QQ", "QQ(r)"])
def test_try_divide_quotient_order_and_refusals(desc):
    def P(text):
        return parse_poly(text, V2, desc)

    g = P("(x + y^2 - 1)*(x*y - 2) + 3*x^3")
    for divisor in (P("3*x^2*y"), P("2"), P("x - y + 1"), P("y^2 - 2*x*y + 5")):
        q = try_divide(g * divisor, divisor)
        assert q == g
        assert list(q.terms) == q.monomials_sorted()
    assert try_divide(g, P("x - y + 1")) is None
    assert try_divide(P("x^2 + y"), P("x")) is None
    # a monomial whose exponent exceeds every term of the dividend
    assert try_divide(P("x^2*y + x*y^3"), P("x^3")) is None
    assert try_divide(P("x^2*y"), P("y^2")) is None
    for f in (g, MultiPoly.zero(V2, desc)):
        with pytest.raises(ZeroDivisionError):
            try_divide(f, MultiPoly.zero(V2, desc))


def test_gcd_bivariate():
    f = P2("x^2 - y^2")
    g = P2("x^2 + 2*x*y + y^2")
    d = gcd(f, g)
    assert d.total_degree() == 1
    assert try_divide(f, d) is not None and try_divide(g, d) is not None
    assert gcd(P2("x"), P2("y")).is_constant


def test_gcd_univariate():
    # single-variable gcd inside the two-variable ring
    f = P2("(y - 1)^2 * (y + 2)")
    g = P2("(y - 1) * y")
    d = gcd(f, g)
    assert d.total_degree() == 1
    assert try_divide(f, d) is not None and try_divide(g, d) is not None
    assert gcd(P2("y + 1"), P2("y - 1")).is_constant


small = st.fractions(min_value=-4, max_value=4, max_denominator=3)
# (exponents, (a, b)) for the term (a + b*r) x^i y^j; b is dropped over Q
term_lists = st.lists(st.tuples(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                                st.tuples(small, small)), max_size=4)

# (exponents, (a, b)) terms in up to three variables; a two-variable draw
# drops the z exponents
term_lists3 = st.lists(st.tuples(st.tuples(*[st.integers(0, 3)] * 3),
                                 st.tuples(small, small)), max_size=4)


def _poly_from_terms(terms, variables, desc):
    p = MultiPoly.zero(variables, desc)
    for exps, (a, b) in terms:
        c = FieldElem(desc, [a, b]) if desc.is_extension else FieldElem.of(a)
        p = p + MultiPoly(variables, desc, {exps[:len(variables)]: c})
    return p


ZERO, ONE, X = [], [((0, 0), (1, 0))], [((1, 0), (1, 0))]


@settings(max_examples=150, deadline=None, print_blob=True)
@given(st.sampled_from([QQ, SQRT2]), st.sampled_from([("x",), V2]),
       term_lists, term_lists, term_lists)
@example(QQ, V2, ZERO, X, X)                      # a zero side
@example(SQRT2, V2, ZERO, ZERO, X)                # two zeros
@example(QQ, ("x",), ZERO, ZERO, ONE)             # two zeros in one variable
@example(SQRT2, V2, ONE, [((2, 1), (0, 1))], X)   # a constant side
@example(QQ, V2, [((0, 2), (1, 0))], [((3, 0), (1, 0))], ONE)   # a side free of y
def test_gcd_matches_the_sympy_gcd(desc, variables, f, g, h):
    f, g, h = (_poly_from_terms(t, variables, desc) for t in (f, g, h))
    F, G = f * h, g * h
    _assert_sympy_gcd(gcd(F, G), F, G)


def _assert_sympy_gcd(d, F, G):
    # sympy's sparse ring is an independent gcd; it makes the result monic in
    # lex order and folindex in graded-lex order, so they agree up to a constant
    R, to_sympy, from_sympy = _sympy_ring(F.descriptor, f"_v:{len(F.variables)}")
    s = R.from_dict({k: to_sympy(c) for k, c in F.terms.items()}).gcd(
        R.from_dict({k: to_sympy(c) for k, c in G.terms.items()}))
    expected = MultiPoly(F.variables, F.descriptor, {k: from_sympy(c) for k, c in s.items()})
    if expected.is_zero:
        assert d.is_zero
    else:
        assert d.leading()[1] == 1
        assert d * expected.leading()[1] == expected


# (exponents, (a, b)) for one nonzero term (a + b*r) x^i y^j z^k
monomials3 = st.tuples(st.tuples(*[st.integers(0, 3)] * 3), st.tuples(small.filter(bool), small))


def _refused(*args):
    raise AssertionError("a gcd with a one-term side ran the general algorithm")


@settings(max_examples=150, deadline=None, print_blob=True)
@given(st.sampled_from([QQ, SQRT2]), st.sampled_from([V2, V3]), monomials3, term_lists3)
@example(QQ, V2, ((0, 0, 0), (3, 0)), [((1, 2, 0), (1, 0)), ((0, 1, 0), (2, 0))])  # a constant
@example(SQRT2, V3, ((2, 1, 1), (1, 1)),                                            # x*z shared
         [((3, 0, 2), (1, 0)), ((1, 2, 1), (0, 1))])
@example(QQ, V3, ((1, 0, 0), (1, 0)), [((0, 1, 0), (1, 0)), ((2, 0, 0), (1, 0))])   # coprime
def test_a_monomial_side_gives_the_sympy_gcd(desc, variables, m, f):
    """A one-term side is answered from the exponents alone, and that is
    sympy's gcd, on either side, over Q and Q(r), in two and three
    variables."""
    m, f = _poly_from_terms([m], variables, desc), _poly_from_terms(f, variables, desc)
    with pytest.MonkeyPatch.context() as mp:
        for name in ("_coprime_mod_p", "_prem", "_univariate_coeffs"):
            mp.setattr(exactcore, name, _refused)
        left, right = gcd(m, f), gcd(f, m)
    assert left == right
    _assert_sympy_gcd(left, m, f)


# (variables, free, vanishing): h, the common factor, has every exponent in
# the variables of the indices in ``free`` zeroed (all but one at most), and
# f is multiplied by _VANISHING[variables][vanishing] (None: by nothing)
_CERTIFICATE_CASES = st.sampled_from([V2, V3]).flatmap(lambda vs: st.tuples(
    st.just(vs), st.frozensets(st.sampled_from(range(len(vs))), max_size=len(vs) - 1),
    st.sampled_from([None, *range(len(vs))])))
# _VANISHING[variables][i] is free of the i-th variable and zero at every
# point the certificate reads it at: the first other variable takes 2, 3
# or 5 there, so f's leading coefficient in the i-th variable vanishes
_VANISHING = {
    V2: [P2("(y - 2)*(y - 3)*(y - 5)"), P2("(x - 2)*(x - 3)*(x - 5)")],
    V3: [P3("(y - 2)*(y - 3)*(y - 5)"), P3("(x - 2)*(x - 3)*(x - 5)"),
         P3("(x - 2)*(x - 3)*(x - 5)")],
}


def _sympy_gcd_is_constant(F, G):
    R, to_sympy, _ = _sympy_ring(QQ, f"_v:{len(F.variables)}")
    return R.from_dict({k: to_sympy(c) for k, c in F.terms.items()}).gcd(
        R.from_dict({k: to_sympy(c) for k, c in G.terms.items()})).is_ground


ONE3 = [((0, 0, 0), (1, 0))]


@settings(max_examples=200, deadline=None, print_blob=True)
@given(term_lists3, term_lists3, term_lists3, _CERTIFICATE_CASES)
@example([((1, 0, 0), (1, 0))], [((0, 1, 0), (1, 0))],          # x*h, y*h
         [((1, 1, 0), (1, 0)), ((0, 0, 0), (1, 0))], (V2, frozenset(), None))
@example([((0, 1, 0), (1, 0))], [((0, 1, 0), (1, 0)), ((0, 0, 0), (1, 0))], ONE3,
         (V2, frozenset(), 1))
@example([((0, 1, 0), (1, 0))], [((1, 0, 0), (1, 0))],          # h = (x - 2)*(y - 2) + 1
         [((1, 1, 0), (1, 0)), ((1, 0, 0), (-2, 0)), ((0, 1, 0), (-2, 0)),
          ((0, 0, 0), (5, 0))], (V2, frozenset(), None))        # is 1 at x = 2 or y = 2
@example([((0, 1, 0), (1, 0)), ((0, 0, 0), (1, 0))],            # (y + 1)*(x + z),
         [((0, 1, 0), (1, 0)), ((0, 0, 0), (-1, 0))],           # (y - 1)*(x + z)
         [((1, 0, 0), (1, 0)), ((0, 0, 1), (1, 0))], (V3, frozenset({1}), None))
@example([((0, 0, 1), (1, 0))], [((0, 0, 1), (1, 0)), ((0, 0, 0), (1, 0))], ONE3,
         (V3, frozenset(), 2))
def test_the_coprime_certificate_never_certifies_a_common_factor(f, g, h, case):
    """The certificate's True means sympy's gcd is a constant, in two and
    three variables: with a common factor free of some variables or in
    all of them, with rational coefficients, and where a leading coefficient
    vanishes at every point tried, where it must not hold at all."""
    variables, free, vanishing = case
    f, g = (_poly_from_terms(t, variables, QQ) for t in (f, g))
    h = _poly_from_terms([(tuple(0 if i in free else e for i, e in enumerate(k)), c)
                          for k, c in h], variables, QQ)
    if vanishing is not None:
        f = f * _VANISHING[variables][vanishing]
    F, G = f * h, g * h
    if F.is_constant or G.is_constant or not any(map(any, (*F.terms, *G.terms))):
        return
    certified = _coprime_mod_p(F, G)
    if certified:
        assert _sympy_gcd_is_constant(F, G)
    if vanishing is not None and F.degree_in(variables[vanishing]) > 0 \
            and G.degree_in(variables[vanishing]) > 0:
        assert not certified


def test_the_coprime_certificate_settles_the_partials_of_a_germ_tangent_to_both_axes():
    # gcd(D_x, D_y): a primitive pseudo-remainder sequence took 9 s here
    d = P2("(y^3 - x^4)*(y^3 - x^4 - x^10)*(x^2 - y^5)")
    fx, fy = d.diff("x"), d.diff("y")
    assert _coprime_mod_p(fx, fy)
    assert gcd(fx, fy) == P2("1")
    assert squarefree_at(d, (Fraction(0), Fraction(0)))


def test_the_coprime_certificate_declines_what_it_cannot_settle():
    # y's leading coefficient in f vanishes at x = 2, 3, 5: no image keeps
    # the degree, so the exact gcd decides, and finds the pair coprime
    f, g = P2("(x - 2)*(x - 3)*(x - 5)*y + 1"), P2("y + x")
    assert not _coprime_mod_p(f, g)
    assert gcd(f, g) == P2("1")
    # a coefficient divisible by the prime vanishes in every image
    assert not _coprime_mod_p(P2("1000003*y + x + 1"), P2("y + x"))
    # an exponent at the dense width cap: no dense image is built
    big = P2(f"x^{_DENSE_WIDTH_CAP}*y + 1")
    assert not _coprime_mod_p(big, P2("y + x"))
    # three variables: each is read with the other two set to distinct
    # values a and a + 1, so x*y + z and x + y*z, symmetric in x and z, get
    # distinct images (a*y + a + 1 and (a + 1)*y + a in y) and are settled,
    # and a common factor is never certified away
    for f, g in (("x*y + z", "x + y*z"), ("x*y + z + 1", "x + y*z^2")):
        assert _coprime_mod_p(P3(f), P3(g))
        assert gcd(P3(f), P3(g)) == P3("1")
    assert not _coprime_mod_p(P3("(x + z)*(y + 1)"), P3("(x + z)*(y - 1)"))
    assert gcd(P3("(x + z)*(y + 1)"), P3("(x + z)*(y - 1)")) == P3("x + z")


def test_resultant():
    assert resultant(P2("x - y"), P2("x + y"), "x") == P2("2*y")
    assert resultant(P2("x^2 - y^2"), P2("x - y"), "x").is_zero
    # common-root detection: the resultant in x vanishes exactly on projections
    r = resultant(P2("x^2 + y^2 - 1"), P2("x - y"), "x")
    assert r == P2("2*y^2 - 1")
    with pytest.raises(PreconditionError):
        resultant(P2("y"), P2("y^2"), "x")
    # a side free of the eliminated variable enters as a power
    assert resultant(P2("y^2"), P2("x^3 + y"), "x") == P2("y^6")
    assert resultant(P2("x^2 - y"), P2("x - 1"), "y") == P2("x - 1")
    # over Q(r): r^2 = 2, so x - r and x + r meet where 2r = 0, nowhere
    xr = parse_poly("x - r", V2, SQRT2)
    assert resultant(xr, parse_poly("x + r", V2, SQRT2), "x") == \
        parse_poly("2*r", V2, SQRT2)
    assert resultant(xr, parse_poly("x^2 - y", V2, SQRT2), "x") == \
        parse_poly("2 - y", V2, SQRT2)
    # one variable: the resultant is a constant
    assert resultant(parse_poly("x^2 - 2", ("x",)), parse_poly("x - 1", ("x",)), "x") == \
        parse_poly("-1", ("x",))
    # sympy's sign: the higher-degree side goes first, with no (-1)^(mn);
    # the Sylvester determinant of (3 - 2y, y^3 + x) is -8x - 27
    assert resultant(P2("3 - 2*y"), P2("y^3 + x"), "y") == P2("8*x + 27")
    # both sides of degree 2 or more: sympy's ring
    assert resultant(P2("x^2 + y^2 - 1"), P2("x^2 - y"), "x") == P2("(y^2 + y - 1)^2")
    assert resultant(parse_poly("x^2 - r*y", V2, SQRT2), parse_poly("x^2 + y^2", V2, SQRT2),
                     "x") == parse_poly("(y^2 + r*y)^2", V2, SQRT2)


@st.composite
def elim_polys(draw, desc, variables, i, degree):
    """A polynomial in ``variables`` of degree exactly ``degree`` in the i-th."""
    def exps(e):
        k = [draw(st.integers(min_value=0, max_value=2)) for _ in variables]
        k[i] = e
        return tuple(k)

    terms = {exps(draw(st.integers(min_value=0, max_value=degree))): draw(field_elems(desc))
             for _ in range(draw(st.integers(min_value=0, max_value=4)))}
    terms[exps(degree)] = draw(field_elems(desc).filter(lambda c: not c.is_zero))
    return MultiPoly(variables, desc, terms)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([QQ, SQRT2]), st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=1), st.data())
def test_closed_form_resultant_matches_sympy(desc, nv, high, low, data):
    variables = ("x", "y", "z")[:nv]
    i = data.draw(st.integers(min_value=0, max_value=nv - 1))
    f = data.draw(elim_polys(desc, variables, i, high))
    g = data.draw(elim_polys(desc, variables, i, low))
    if high == low == 0:
        return
    for a, b in ((f, g), (g, f)):
        assert resultant(a, b, variables[i]) == _resultant_sympy(a, b, variables[i])


def test_squarefree_at():
    assert squarefree_at(P2("y^2 - x^3"))
    assert not squarefree_at(P2("y^2"))
    # repeated factor away from the origin is fine at the origin
    f = P2("y * (x - 1)^2")
    assert not squarefree_at(f)
    assert squarefree_at(f, (Fraction(0), Fraction(0)))
    assert not squarefree_at(f, (Fraction(1), Fraction(0)))


def _out_of_time(signum, frame):
    raise TimeoutError("the pseudo-remainder scaled every zero entry")


def test_squarefree_check_scales_only_nonzero_entries():
    # the gcd's pseudo-remainders in y are dense lists of width about 3000
    # with a few nonzero entries; scaling the zero entries too made this
    # check quadratic in the width
    f = P2("x*y - x^3000 - y^3000")
    previous = signal.signal(signal.SIGALRM, _out_of_time)
    signal.alarm(3)
    try:
        assert squarefree_at(f, (Fraction(0), Fraction(0)))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_dense_lists_stop_at_the_width_cap():
    top = _DENSE_WIDTH_CAP - 1
    assert len(_univariate_coeffs(P2(f"x^{top} + 1"), "x")) == _DENSE_WIDTH_CAP
    assert len(P2(f"x*y^{top} + x").coeffs_in("y")) == _DENSE_WIDTH_CAP
    over = P2(f"x^{top + 1} + 1")
    with pytest.raises(ResourceCapError):
        _univariate_coeffs(over, "x")
    with pytest.raises(ResourceCapError):
        over.coeffs_in("x")
    # the y-contents x^(top + 1) + 1 and gcd(x, x^(top + 1)) = x: a one-term
    # side is read off the exponents, so no list is built
    assert gcd(over * P2("y"), P2(f"x^{top + 1}*y^2 + x")) == P2("1")
    # the y-contents of the second side, x + 1 and x^(top + 1) + x, have
    # more than one term each, so their gcd needs a dense list
    with pytest.raises(ResourceCapError):
        gcd(over * P2("y"), P2(f"(x^{top + 1} + x)*y^2 + x + 1"))
    with pytest.raises(ResourceCapError):
        gcd(over, P2(f"x^{top + 1} + x"))


# ------------------------------------------------ invariants of every result

def _assert_sealed(value):
    """``value`` refuses every assignment, as a public instance does."""
    for name in (*type(value).__slots__, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)


def _assert_clean_elem(e, desc):
    """The checked FieldElem constructor's invariants, over ``desc``:
    exactly the public type, sealed, reduced."""
    assert type(e) is FieldElem and e.descriptor == desc
    _assert_sealed(e)
    nums, den = e.nums, e.den
    # exact types: a stray / would leave a float here
    assert type(nums) is tuple and all(type(n) is int for n in nums)
    assert type(den) is int and den > 0
    assert math.gcd(den, *nums) == 1
    assert not nums or nums[-1] != 0
    assert len(nums) <= desc.degree
    cs = e.coefficients
    assert cs == tuple(Fraction(n, den) for n in nums)
    rebuilt = FieldElem(desc, cs)
    assert rebuilt == e and (rebuilt.nums, rebuilt.den) == (nums, den)


def _assert_clean_poly(p, desc):
    assert type(p) is MultiPoly and p.descriptor == desc
    _assert_sealed(p)
    assert type(p.variables) is tuple
    for k, c in p.terms.items():
        assert type(k) is tuple and len(k) == len(p.variables)
        assert all(type(e) is int and e >= 0 for e in k)
        assert not c.is_zero
        _assert_clean_elem(c, desc)
    rebuilt = MultiPoly(p.variables, desc, p.terms)
    assert rebuilt == p and list(rebuilt.terms) == list(p.terms)


@st.composite
def field_elems(draw, desc):
    a = draw(coeff_st)
    b = draw(coeff_st) if desc.is_extension else 0
    return FieldElem(desc, [a, b])


@st.composite
def field_polys(draw, desc, max_degree=3):
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        i = draw(st.integers(min_value=0, max_value=max_degree))
        j = draw(st.integers(min_value=0, max_value=max_degree - i))
        terms[(i, j)] = draw(field_elems(desc))
    return MultiPoly(V2, desc, terms)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([QQ, SQRT2]), st.sampled_from([QQ, SQRT2]), st.data())
def test_every_result_meets_the_checked_invariants(d1, d2, data):
    desc = SQRT2 if SQRT2 in (d1, d2) else QQ
    a, b = data.draw(field_polys(d1)), data.draw(field_polys(d2))
    c, e = data.draw(field_elems(d1)), data.draw(field_elems(d2))
    for value in (c + e, c - e, c * e):
        _assert_clean_elem(value, desc)
    _assert_clean_elem(-c, d1)
    _assert_clean_elem(c ** 3, d1)
    if not e.is_zero:
        _assert_clean_elem(c / e, desc)
        _assert_clean_elem(e ** -2, d2)
    for value in (a + b, a - b, a * b, (a + b) * (a - b), b * c, a + e,
                  substitute(a, {"x": b, "y": a * b}),
                  substitute(a, {"x": e, "y": b}),
                  translate_to_origin(a, (c, e))):
        _assert_clean_poly(value, desc)
    _assert_clean_poly(-a, d1)
    _assert_clean_poly(a ** 3, d1)
    _assert_clean_elem(a.evaluate({"x": c, "y": e}), desc)
    assert a + b - b == a.lift(desc)
    if not b.is_zero:
        mono = MultiPoly(V2, d2, {(1, 2): e}) if not e.is_zero else b
        for divisor in (b, mono):
            q = try_divide(a * divisor, divisor)
            _assert_clean_poly(q, desc)
            assert q == a and list(q.terms) == q.monomials_sorted()
        q = try_divide(a, b)
        if q is not None:
            _assert_clean_poly(q, desc)
            assert q * b == a


@st.composite
def fraction_polys(draw, desc):
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        k = (draw(st.integers(min_value=0, max_value=3)), draw(st.integers(min_value=0, max_value=3)))
        terms[k] = FieldElem(desc, [draw(rationals) for _ in range(desc.degree)])
    return MultiPoly(V2, desc, terms)


def _schoolbook(a, b):
    """The terms of a*b, summed in first-occurrence order, zeros dropped last."""
    out = {}
    for ka, ca in a.terms.items():
        for kb, cb in b.terms.items():
            k = (ka[0] + kb[0], ka[1] + kb[1])
            out[k] = out[k] + ca * cb if k in out else ca * cb
    return [(k, c) for k, c in out.items() if not c.is_zero]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([QQ, SQRT2]), st.data())
def test_products_powers_and_derivatives_match_the_termwise_model(desc, data):
    """Each product path (a one-term side, integer numerators over Q, the
    field kernel over Q(sqrt 2)) gives the schoolbook terms in their
    first-occurrence order, on coefficients with denominators."""
    a, b = data.draw(fraction_polys(desc)), data.draw(fraction_polys(desc))
    mono = MultiPoly(V2, desc, dict(list(b.terms.items())[:1]))
    for p, q in ((a, b), (b, a), (a, a), (a, mono), (mono, a)):
        product = p * q
        _assert_clean_poly(product, desc)
        assert list(product.terms.items()) == _schoolbook(p, q)
    _assert_clean_poly(mono ** 3, desc)
    assert list((mono ** 3).terms.items()) == list((mono * mono * mono).terms.items())
    for i, v in enumerate(V2):
        d = a.diff(v)
        _assert_clean_poly(d, desc)
        assert list(d.terms.items()) == [
            (tuple(e - (j == i) for j, e in enumerate(k)), c * k[i])
            for k, c in a.terms.items() if k[i]]


@st.composite
def t_polys(draw, desc):
    """A polynomial in t: zero, one term, or dense (two to six terms)."""
    size = draw(st.sampled_from([0, 1, draw(st.integers(min_value=2, max_value=6))]))
    exps = draw(st.sets(st.integers(min_value=0, max_value=6), min_size=size, max_size=size))
    nonzero = field_elems(desc).filter(lambda c: not c.is_zero)
    return MultiPoly(("t",), desc, {(e,): draw(nonzero) for e in exps})


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([QQ, SQRT2]), st.sampled_from([QQ, SQRT2]), st.data())
def test_a_cut_composition_is_the_exact_one_cut(d1, d2, data):
    """The composition kernel with a cut, which truncates every power and
    product as it goes, keeps exactly the terms of the exact composite
    below t^cut, for every cut up to past its degree; the exact composite
    is the sum of the termwise products."""
    desc = SQRT2 if SQRT2 in (d1, d2) else QQ
    f = data.draw(field_polys(d1, max_degree=5))
    xt, yt = data.draw(t_polys(d2)), data.draw(t_polys(d2))
    exact = _composite(f, (xt, yt))
    _assert_clean_poly(exact, desc)
    assert exact == sum((c * xt ** i * yt ** j for (i, j), c in f.terms.items()),
                        MultiPoly.zero(("t",), desc))
    for cut in range(1, max((k[0] for k in exact.terms), default=0) + 2):
        cut_composite = _composite(f, (xt, yt), cut)
        _assert_clean_poly(cut_composite, desc)
        assert cut_composite == _below(exact, cut), cut


# ------------------------------------- integer kernels against a Fraction model

# degrees 2 to 7, integral and not
DIFFERENTIAL_FIELDS = [
    FieldDescriptor.simple_extension("a", [Fraction(-1, 3), Fraction(-1, 2), 1]),
    FieldDescriptor.simple_extension("b", [-2, 0, 0, 1]),
    FieldDescriptor.simple_extension("c", [-3, 0, 0, Fraction(1, 2), 1]),
    FieldDescriptor.simple_extension("d", [Fraction(1, 5), Fraction(-2, 3), 0, 0, 0, 1]),
    FieldDescriptor.simple_extension("e", [1] * 7),   # the 7th cyclotomic polynomial
    FieldDescriptor.simple_extension("f", [1, -3, 0, 0, 0, 0, 0, 1]),
]
rationals = st.fractions(min_value=-30, max_value=30, max_denominator=15)


def _poly_divmod(a, b):
    # long division of Fraction lists (constant term first), b's top entry nonzero
    r, q = list(a), [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while len(r) >= len(b):
        c = r.pop() / b[-1]
        shift = len(r) - len(b) + 1
        q[shift] = c
        for i in range(len(b) - 1):
            r[shift + i] -= c * b[i]
    while r and r[-1] == 0:
        r.pop()
    return q, r


def _ref_reduce(coeffs, desc):
    return _poly_divmod(coeffs, list(desc.minimal_polynomial))[1]


def _ref_mul(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _ref_sub(a, b):
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n)]


def _ref_inverse(a, desc):
    # extended Euclid over Q: s * a = g modulo the minimal polynomial
    r0, r1 = list(desc.minimal_polynomial), list(a)
    s0, s1 = [], [Fraction(1)]
    while any(r1):
        q, r = _poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _ref_sub(s0, _ref_mul(q, s1))
    assert len(r0) == 1
    return _ref_reduce([c / r0[0] for c in s0], desc)


def _ref_pow(a, n, desc):
    out = [Fraction(1)]
    for _ in range(n):
        out = _ref_reduce(_ref_mul(out, a), desc)
    return out


def _coords(e):
    return list(e.coefficients)


@st.composite
def coordinate_lists(draw, desc):
    # up to twice the degree, so the constructor reduces some of them
    return draw(st.lists(rationals, max_size=2 * desc.degree))


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(DIFFERENTIAL_FIELDS), st.data())
def test_integer_kernels_match_the_fraction_model(desc, data):
    ca, cb = data.draw(coordinate_lists(desc)), data.draw(coordinate_lists(desc))
    a, b = FieldElem(desc, ca), FieldElem(desc, cb)
    ra, rb = _ref_reduce(ca, desc), _ref_reduce(cb, desc)
    assert _coords(a) == ra and _coords(b) == rb
    assert _coords(a + b) == _ref_reduce(_ref_sub(ra, [-c for c in rb]), desc)
    assert _coords(a - b) == _ref_reduce(_ref_sub(ra, rb), desc)
    assert _coords(a * b) == _ref_reduce(_ref_mul(ra, rb), desc)
    n = data.draw(st.integers(min_value=0, max_value=5))
    assert _coords(a ** n) == _ref_pow(ra, n, desc)
    q = data.draw(rationals)
    assert _coords(a * q) == _coords(q * a) == _ref_reduce([c * q for c in ra], desc)
    assert _coords(a + q) == _ref_reduce(_ref_sub(ra, [-q]), desc)
    for e in (a, b, a * b, a + b, a ** n):
        _assert_clean_elem(e, desc)
    if not a.is_zero:
        inv = a.inverse()
        _assert_clean_elem(inv, desc)
        assert _coords(inv) == _ref_inverse(ra, desc)
        assert a * inv == 1
        assert _coords(a ** -n) == _ref_pow(_ref_inverse(ra, desc), n, desc)
        assert b / a * a == b


@settings(max_examples=100, deadline=None)
@given(rationals, st.integers(min_value=-10 ** 30, max_value=10 ** 30),
       st.sampled_from([QQ, SQRT2, DIFFERENTIAL_FIELDS[0]]))
def test_rational_equality_and_hash_match_int_and_fraction(q, n, desc):
    for value in (q, n):
        e = FieldElem.of(value).lift(desc)
        _assert_clean_elem(e, desc)
        assert e == value and value == e
        assert hash(e) == hash(value)
        assert e.as_fraction() == value
        assert (e != value + 1) and not (e == Fraction(1, 7) + value)
    e = FieldElem.of(q, desc)
    assert e == FieldElem.of(q) and hash(e) == hash(FieldElem.of(q))
    assert (e * e) == q * q and (e + n) == q + n and (e - n) == q - n
    if q:
        assert e.inverse() == 1 / q and (n / e) == n / q


class _Half(Fraction):
    pass


def test_bools_and_fraction_subclasses_still_take_the_scalar_path():
    # operations test the exact class before isinstance; a bool, a Fraction
    # subclass and an unrelated type must still take the paths they took
    x = P2("x")
    assert x + True == P2("x + 1") and True + x == P2("x + 1")
    assert (x + True).descriptor == QQ
    assert x * True == x and x != True and P2("1") == True
    half = fe(Fraction(3, 2))
    assert half - True == fe(Fraction(1, 2)) and True - half == fe(Fraction(-1, 2))
    assert half == Fraction(3, 2) and half != True and fe(1) == True
    assert x + _Half(1, 2) == P2("x + 1/2")
    assert half == _Half(3, 2) and half - _Half(1, 2) == 1
    for value in (x, half):
        for op in ("__add__", "__sub__", "__mul__", "__eq__"):
            assert getattr(value, op)("a") is NotImplemented
    assert x.__eq__(1.5) is NotImplemented and half.__eq__(1.5) is NotImplemented


@pytest.mark.parametrize("build", [
    lambda: FieldElem.of(0.1),
    lambda: FieldElem.of(2.0, SQRT2),
    lambda: FieldElem(QQ, [0.5]),
    lambda: FieldElem(SQRT2, [1, 0.25]),
    lambda: FieldDescriptor.simple_extension("s", [-2.0, 0, 1]),
    lambda: MultiPoly(V2, QQ, {(1, 0): 0.5}),
    lambda: fe(1) + 0.5,
    lambda: fe(1) * 0.5,
], ids=["of", "of-extension", "init", "init-extension", "simple-extension",
        "multipoly", "add", "mul"])
def test_floats_are_refused(build):
    # 0.1 is 3602879701896397/36028797018963968 in binary: no exact answer
    # may rest on it, so no public constructor turns it into a rational
    with pytest.raises(TypeError):
        build()
