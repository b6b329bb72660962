"""Branch expansions: certificates, orders, Nash lift orders, conjugacy."""

from fractions import Fraction

import pytest

from folindex.exactcore import DescriptorMismatchError, NonReducedError, PreconditionError
from folindex.puiseux import (
    ZERO_UP_TO_TRUNCATION,
    InsufficientPrecisionError,
    branches,
    nash_lift_order,
    ord_along_branch,
    reparametrize,
)
from folindex.exactcore import PowerSeries
from folindex.localmult import curve_multiplicity

from conftest import ORIGIN, P2


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
    with pytest.raises(InsufficientPrecisionError) as info:
        nash_lift_order(b, (P2("2*y"), P2("3*x^2 + 4*x^3")))
    assert info.value.suggested_precision > 2


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
        inner = PowerSeries.from_dict("t", b.x_series.truncation_order,
                                      {1: Fraction(1), 2: Fraction(1)})
        rb = reparametrize(b, inner)
        assert not rb.exact
        for text in ("y", "x", "x + y", "y^2 + x^3", curve):
            assert ord_along_branch(rb, P2(text)) == ord_along_branch(b, P2(text)), curve
        assert nash_lift_order(rb, (P2(field[0]), P2(field[1]))) == 3, curve


def test_reparametrization_needs_the_same_series_shape():
    b = expand("y^2 - x^3")[0]
    n = b.x_series.truncation_order
    for inner in (PowerSeries.from_dict("t", n + 1, {1: Fraction(1)}),
                  PowerSeries.from_dict("s", n, {1: Fraction(1)})):
        with pytest.raises(DescriptorMismatchError):
            reparametrize(b, inner)


def test_reparametrization_needs_unit():
    b = expand("y^2 - x^3")[0]
    inner = PowerSeries.from_dict("t", b.x_series.truncation_order, {2: Fraction(1)})
    with pytest.raises(PreconditionError):
        reparametrize(b, inner)
