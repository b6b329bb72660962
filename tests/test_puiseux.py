"""Branch expansions: certificates, orders, Nash lift orders, conjugacy."""

import hashlib
import json
import pathlib
import signal
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from folindex import puiseux
from folindex.exactcore import (
    QQ,
    ExtensionRequiredError,
    FieldDescriptor,
    FieldElem,
    MultiPoly,
    NonReducedError,
    PreconditionError,
    divexact,
    parse_poly,
    substitute,
)
from folindex.puiseux import (
    ZERO_UP_TO_TRUNCATION,
    Branch,
    InsufficientPrecisionError,
    _below,
    _newton_step,
    branches,
    nash_lift_order,
    ord_along_branch,
    series_text,
)
from folindex.localmult import curve_multiplicity

from conftest import ORIGIN, P2, V2, dual_oracle_pairs

SQRT2 = FieldDescriptor.simple_extension("r", [Fraction(-2), Fraction(0), Fraction(1)])
CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus" / "problems"


def expand(text, precision=16):
    return branches(P2(text), ORIGIN, precision)


def test_cusp_single_branch():
    bs = expand("y^2 - x^3")
    assert len(bs) == 1
    b = bs[0]
    assert b.exact
    assert b.multiplicity == 2
    assert b.conjugacy_size == 1
    # the parametrization satisfies the equation exactly
    assert ord_along_branch(b, P2("y^2 - x^3")) is ZERO_UP_TO_TRUNCATION
    assert ord_along_branch(b, P2("y")) == 3
    assert ord_along_branch(b, P2("x")) == 2


def test_node_two_branches():
    bs = expand("x*y")
    assert sorted(b.multiplicity for b in bs) == [1, 1]
    assert all(b.exact and b.conjugacy_size == 1 for b in bs)
    orders = sorted(ord_along_branch(b, P2("x + y")) for b in bs)
    assert orders == [1, 1]


def test_conjugate_pair_counts_once():
    # y^2 - 2 x^2 has two branches swapped by the square-root conjugation
    bs = expand("y^2 - 2*x^2")
    assert len(bs) == 1
    b = bs[0]
    assert b.conjugacy_size == 2
    assert b.descriptor.degree == 2
    assert ord_along_branch(b, P2("y^2 - 2*x^2")) is ZERO_UP_TO_TRUNCATION


def test_tacnode_tangential_pair():
    bs = expand("y^2 - x^4")
    assert len(bs) == 2
    for b in bs:
        assert b.multiplicity == 1
        assert ord_along_branch(b, P2("y")) == 2


def test_completeness_certificate():
    # branch multiplicities weighted by conjugacy add up to the germ order
    for text in ("y^2 - x^3", "x*y", "y^2 - x^4", "y^3 - x^5",
                 "(y^2 - x^3) * (x - y)", "y^2 - 2*x^2", "x*y*(x + y)"):
        f = P2(text)
        bs = branches(f, ORIGIN, 16)
        total = sum(b.conjugacy_size * b.multiplicity for b in bs)
        assert total == curve_multiplicity(f, ORIGIN), text


def test_point_must_lie_on_curve():
    with pytest.raises(PreconditionError):
        branches(P2("y^2 - x^3 + 1"), ORIGIN, 8)


def test_reduced_input_required():
    with pytest.raises(NonReducedError):
        expand("y^2")
    with pytest.raises(NonReducedError):
        expand("x^2 * y - x^3")


def test_non_exact_branch():
    bs = branches(P2("y^2 - x^3 - x^4"), ORIGIN, 32)
    assert len(bs) == 1
    b = bs[0]
    assert not b.exact
    assert b.multiplicity == 2
    assert ord_along_branch(b, P2("y^2 - x^3 - x^4")) is ZERO_UP_TO_TRUNCATION
    assert ord_along_branch(b, P2("y")) == 3
    assert nash_lift_order(b, (P2("2*y"), P2("3*x^2 + 4*x^3"))) == 3


def test_low_truncation_is_flagged_not_wrong():
    # at tiny truncation the lift order cannot be separated from zero and
    # the answer is a structured demand for more precision, never a guess
    b = branches(P2("y^2 - x^3 - x^4"), ORIGIN, 2)[0]
    with pytest.raises(InsufficientPrecisionError):
        nash_lift_order(b, (P2("2*y"), P2("3*x^2 + 4*x^3")))


def test_expansion_off_origin():
    # node of the cubic y^2 = x^2 (x + 1) sits at the origin; move it
    f = P2("(y - 1)^2 - (x - 1)^2 * (x)")
    pt = (Fraction(1), Fraction(1))
    bs = branches(f, pt, 16)
    assert sum(b.conjugacy_size for b in bs) == 2
    assert all(b.point == pt for b in bs)


def test_nash_lift_orders():
    cusp = expand("y^2 - x^3")[0]
    # x d/dx scaled along the weights, and the Hamiltonian field
    assert nash_lift_order(cusp, (P2("2*x"), P2("3*y"))) == 2
    assert nash_lift_order(cusp, (P2("2*y"), P2("3*x^2"))) == 3
    # a field transverse to the branch is refused
    from folindex.exactcore import NonTangentError
    with pytest.raises(NonTangentError):
        nash_lift_order(cusp, (P2("x"), P2("y")))
    # a field vanishing identically on the branch is refused
    with pytest.raises(PreconditionError):
        nash_lift_order(cusp, (P2("(y^2 - x^3) * x"), P2("(y^2 - x^3) * y")))


def test_nash_lift_on_node_branches():
    bs = expand("x*y")
    got = sorted(nash_lift_order(b, (P2("x"), P2("-y"))) for b in bs)
    assert got == [1, 1]


def test_order_invariant_under_reparametrization():
    for curve, precision, field in (
            ("y^2 - x^3", 24, ("2*y", "3*x^2")),
            # an inexact branch: its polynomials hold only the terms below t^32
            ("y^2 - x^3 - x^4", 32, ("2*y", "3*x^2 + 4*x^3"))):
        b = expand(curve, precision=precision)[0]
        # traverse the branch through t -> t + t^2; terms of degree >= n
        # stay there under a map of order 1, so cut before and after
        n = b.precision
        inner = MultiPoly(("t",), QQ, {(1,): 1, (2,): 1})
        xp, yp = (_below(substitute(_below(p, n), {"t": inner}), n)
                  for p in (b.x_poly, b.y_poly))
        rb = Branch(descriptor=xp.descriptor, x_poly=xp, y_poly=yp, precision=n,
                    multiplicity=b.multiplicity, conjugacy_size=b.conjugacy_size,
                    exact=False, point=b.point, variables=b.variables)
        for text in ("y", "x", "x + y", "y^2 + x^3", curve):
            assert ord_along_branch(rb, P2(text)) == ord_along_branch(b, P2(text)), curve
        assert nash_lift_order(rb, (P2(field[0]), P2(field[1]))) == 3, curve


# ------------------------------------------------------- the direct step

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@st.composite
def step_inputs(draw):
    """(f, q, p, c): f over Q or Q(r) without a constant term, q and p
    coprime, and c a nonzero element of Q or Q(r)."""
    desc = draw(st.sampled_from([QQ, SQRT2]))
    terms = {}
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        i = draw(st.integers(min_value=0, max_value=5))
        j = draw(st.integers(min_value=0 if i else 1, max_value=4))
        terms[(i, j)] = FieldElem(desc, [draw(rationals), draw(rationals) if desc.is_extension else 0])
    f = MultiPoly(V2, desc, terms)
    q, p = draw(st.tuples(st.integers(min_value=1, max_value=4),
                          st.integers(min_value=1, max_value=5)).filter(lambda qp: gcd(*qp) == 1))
    c_desc = draw(st.sampled_from([QQ, SQRT2]))
    c = FieldElem(c_desc, [draw(rationals), draw(rationals) if c_desc.is_extension else 0])
    return f, q, p, c


def _step_by_substitution(f, q, p, d, c):
    desc = c.descriptor if c.descriptor.is_extension else f.descriptor
    x, y = (MultiPoly.variable(v, V2, desc) for v in V2)
    return divexact(substitute(f, {"x": x ** q, "y": x ** p * (c + y)}), x ** d)


@settings(max_examples=150, deadline=None)
@given(step_inputs())
def test_newton_step_equals_substitution_and_division(inputs):
    f, q, p, c = inputs
    if f.is_zero or c.is_zero:
        return
    d = min(q * i + p * j for i, j in f.terms)
    got, want = _newton_step(f, q, p, d, c), _step_by_substitution(f, q, p, d, c)
    assert got.terms == want.terms
    assert got.descriptor == want.descriptor
    assert all(got.terms[k].descriptor == want.terms[k].descriptor for k in got.terms)
    assert got.variables == want.variables
    # a d above the polygon minimum leaves a negative power of x
    with pytest.raises(PreconditionError):
        _step_by_substitution(f, q, p, d + 1, c)
    with pytest.raises(PreconditionError):
        _newton_step(f, q, p, d + 1, c)


# ------------------------------------------- branch records, pinned

# sha256 of _branch_records() computed with the per-term walk, which
# transforms the polynomial once for every term of a separated branch: the
# one-scan finish must give the same records
BRANCH_RECORDS_SHA256 = "673bfd0b50d7edb6541c6615f66fdb9829beadeb99c5780f6e523c10a5ab0b43"


def _branch_records(precisions=(8, 32), count=25):
    """One line per branch of every corpus germ divisor and of the first
    ``count`` f of the dual-oracle sample, at each precision: the series,
    multiplicity, conjugacy size, exact flag, field, and the order along the
    branch of the corpus vector field's components or of the sample's g."""
    # the hash also pins the radial field on the cusp, which no corpus problem
    # carries; it sorts in among them under its own file name
    germs = {"cusp_radial.json": {"divisor": "y^2 - x^3", "vector_field": ["x", "y"]}}
    germs.update((p.name, json.loads(p.read_text()).get("germ", {}))
                 for p in CORPUS.glob("*.json"))
    cases = []
    for germ in (germs[name] for name in sorted(germs)):
        if "divisor" in germ:
            cases.append((P2(germ["divisor"]), [P2(t) for t in germ["vector_field"]]))
    cases += [(f, [g]) for f, g, _, _ in dual_oracle_pairs(count)]
    lines = []
    for f, gs in cases:
        for n in precisions:
            for b in branches(f, ORIGIN, n):
                lines.append("|".join([
                    f.to_str(), str(n), series_text(b.x_poly, n), series_text(b.y_poly, n),
                    str(b.multiplicity), str(b.conjugacy_size), str(b.exact),
                    repr(b.descriptor), ",".join(repr(ord_along_branch(b, g)) for g in gs)]))
    return lines


def test_branch_records_are_pinned():
    digest = hashlib.sha256("\n".join(_branch_records()).encode()).hexdigest()
    assert digest == BRANCH_RECORDS_SHA256


@pytest.mark.parametrize("text, desc, want", [
    ("t^3 - t^2 + 1/2*t + 1", QQ, "1 + 1/2*t + -1*t^2 + t^3 + O(t^8)"),
    ("r*t + (1 + r)*t^2 - 2 - t^9", SQRT2, "-2 + (r)*t + (1 + r)*t^2 + O(t^8)"),
    ("r", SQRT2, "(r) + O(t^8)"),
    ("0", QQ, "0 + O(t^8)"),
    # y_poly of the exact branch of y - x - x^10: cut all the same
    ("t + t^10", QQ, "t + O(t^8)"),
])
def test_series_text_formats_a_polynomial_in_t(text, desc, want):
    # the texts the series type printed before series_text replaced it
    assert series_text(parse_poly(text, ("t",), desc), 8) == want


# -------------------------------------------------- separated branches

@pytest.mark.parametrize("curve, precision, exact, y_poly", [
    # the last term lies past the truncation, yet the root ends there
    ("y - x - x^10", 8, True, "t + t^10"),
    # the term past the truncation is not the last one
    ("y - x - x^10 - x^20", 8, False, "t"),
    ("y - x - x^10 - x^20", 16, True, "t + t^10 + t^20"),
    # the root ends below the truncation
    ("y - x^3", 8, True, "t^3"),
    # y = x / (1 - x^2): every odd power
    ("y - x - x^2*y", 8, False, "t + t^3 + t^5 + t^7"),
    # y = x / (1 - x^20): the next term, x^21, lies past the x-degree of f
    ("y - x - x^20*y", 8, False, "t"),
])
def test_separated_branch_ends_where_the_walk_ends(curve, precision, exact, y_poly):
    (b,) = expand(curve, precision)
    assert b.exact == exact
    assert b.y_poly == parse_poly(y_poly, ("t",))
    assert ord_along_branch(b, P2(curve)) is ZERO_UP_TO_TRUNCATION


def _out_of_time(signum, frame):
    raise TimeoutError("the separated scan walked through the gap")


def test_separated_root_crosses_a_gap_without_scanning_it():
    # y = x + x^100000000: the scan stops after a window past x, and the next
    # window starts at the far term instead of at every exponent in between
    previous = signal.signal(signal.SIGALRM, _out_of_time)
    signal.alarm(20)
    try:
        paths = puiseux._expand(P2("y - x - x^100000000"), 10 ** 9, {"fresh": 0})
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert [(p.steps, p.exact) for p in paths] == [([(1, 1, 1), (1, 99999999, 1)], True)]


def _edge_walk(f, budget):
    """The steps and exact flag of the walk below the separated f taken with
    ``_edge_children`` alone: one polynomial transform per term of the root,
    the reference the scan and its gap crossings must reproduce."""
    steps = []
    while not puiseux._divisible_by(f, 1):
        if budget <= 0:
            return steps, False
        ((f, budget, steps, _),) = puiseux._edge_children(f, budget, steps, 1, {"fresh": 0})
    return steps, True


@pytest.mark.parametrize("curve, budget", [
    # y = x / (1 - x^1500): gaps of 1500, each wider than the scan's window
    ("y - x - x^1500*y", 5000),
    # y^2 fills the root in behind each gap
    ("y - x - x^1100*y - x^2200*y^2", 4000),
    ("y - x - x^2 - x^1500*y", 1600),
    ("y - x^3 - x^2000 - x^1100*y^2", 5000),
    # one far term, reached past and short of the budget
    ("y - x - x^1200", 3000),
    ("y - x - x^1200", 1000),
])
def test_gaps_in_a_separated_root_are_crossed_as_the_walk_crosses_them(curve, budget):
    f = P2(curve)
    paths = puiseux._expand(f, budget, {"fresh": 0})
    assert [(p.steps, p.exact) for p in paths] == [_edge_walk(f, budget)]


@pytest.mark.parametrize("curve, polynomial", [
    # a q-th root of r: c^2 - r and c^3 - r
    ("y^2 - r*x^3", "c^2 - r"),
    ("y^3 - r*x^2", "c^3 - r"),
    # an edge solution: sqrt(3) is not in Q(sqrt(2))
    ("y^2 - 3*x^2", "c^2 - 3"),
])
def test_a_second_extension_is_refused_with_the_polynomial_sought(curve, polynomial):
    with pytest.raises(ExtensionRequiredError) as info:
        branches(parse_poly(curve, V2, SQRT2), ORIGIN, 16)
    err = info.value
    want = parse_poly(polynomial, ("c",), SQRT2)
    degree = max(k[0] for k in want.terms)
    zero = FieldElem.of(0, SQRT2)
    assert err.polynomial == [tuple(want.terms.get((i,), zero).coefficients)
                              for i in range(degree + 1)]
    assert err.descriptor == SQRT2
