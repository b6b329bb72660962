"""Global fields on the plane: chart gluing, singular loci, invariant
divisors, localization back to germs."""

from fractions import Fraction

import pytest

from folindex.exactcore import NotSaturatedError, PreconditionError
from folindex.foliation import (
    divisor_in_charts,
    from_affine,
    is_log_along,
    localize,
    singular_points,
)
from folindex.indices import ph_index

from conftest import P2, P3


def _points(F):
    """The singular locus, checked complete by its Poincare-Hopf sum d^2 + d + 1."""
    pts = singular_points(F)
    d = F.degree
    assert sum(p.conjugacy_size * ph_index(localize(F, p)).value
               for p in pts) == d * d + d + 1
    return pts


RAD = from_affine(P2("x"), P2("y"))
DIAG = from_affine(P2("x"), P2("2*y"))
NOD = from_affine(P2("2*y"), P2("2*x + 3*x^2"))
CUS = from_affine(P2("2*y"), P2("3*x^2"))
JOU = from_affine(P2("y^2 - x^3"), P2("1 - x^2*y"))


def test_radial_degree_and_locus():
    assert RAD.degree == 0
    assert RAD.tangent_line_bundle_twist == 1
    assert not RAD.line_at_infinity_invariant
    pts = _points(RAD)
    assert len(pts) == 1 and pts[0].chart == 0


def test_diagonal_three_points():
    assert DIAG.degree == 1
    assert DIAG.line_at_infinity_invariant
    pts = _points(DIAG)
    assert {p.projective_string() for p in pts} == {"[0:0:1]", "[1:0:0]", "[0:1:0]"}
    for p in pts:
        assert ph_index(localize(DIAG, p)).value == 1


def test_diagonal_chart_transition():
    a, b = DIAG.charts[1].components
    assert a.to_str() == "u" and b.to_str() == "-v"


def test_nodal_hamiltonian_point_counts():
    assert NOD.degree == 2
    phs = sorted(p.conjugacy_size * ph_index(localize(NOD, p)).value
                 for p in _points(NOD))
    assert phs == [1, 1, 5]


def test_cuspidal_hamiltonian_point_counts():
    assert CUS.degree == 2
    phs = sorted(p.conjugacy_size * ph_index(localize(CUS, p)).value
                 for p in _points(CUS))
    assert phs == [2, 5]


def test_jouanolou_conjugate_orbit():
    assert JOU.degree == 2
    assert not JOU.line_at_infinity_invariant
    pts = _points(JOU)
    assert sorted(p.conjugacy_size for p in pts) == [1, 6]
    assert sum(p.conjugacy_size for p in pts) == 7
    for p in pts:
        assert ph_index(localize(JOU, p)).value == 1


def test_constant_field_corner_point():
    hor = from_affine(P2("0"), P2("1"))
    assert hor.degree == 0
    pts = _points(hor)
    assert len(pts) == 1 and pts[0].chart == 2


def test_saturation_required():
    with pytest.raises(NotSaturatedError):
        from_affine(P2("x*y"), P2("x^2"))


def test_is_log_along():
    assert is_log_along(DIAG, P3("x*y*z"))
    assert is_log_along(DIAG, P3("z"))
    assert is_log_along(DIAG, P3("x*y"))
    assert not is_log_along(RAD, P3("z"))
    assert is_log_along(NOD, P3("y^2*z - x^2*z - x^3"))
    assert is_log_along(CUS, P3("y^2*z - x^3"))
    assert not is_log_along(DIAG, P3("x + y + z"))


def test_divisor_chart_traces():
    h0, h1, h2 = divisor_in_charts(NOD, P3("y^2*z - x^2*z - x^3"))
    assert h0.to_str() == "-x^3 - x^2 + y^2"
    assert not h1.is_constant and not h2.is_constant


def test_divisor_guards():
    with pytest.raises(PreconditionError):
        divisor_in_charts(DIAG, P3("x*y + z"))
    with pytest.raises(PreconditionError):
        divisor_in_charts(DIAG, P3("x^2*y"))


def _cocycle_check(F):
    """The three chart fields glue projectively at a generic rational point."""
    a, b = F.charts[0].components
    x0, y0 = Fraction(3, 2), Fraction(-5, 7)
    A = a.evaluate({"x": x0, "y": y0}).as_fraction()
    B = b.evaluate({"x": x0, "y": y0}).as_fraction()
    u0, v0 = y0 / x0, 1 / x0
    du = (B * x0 - y0 * A) / x0 ** 2
    dv = -A / x0 ** 2
    p1, q1 = F.charts[1].components
    Pv = p1.evaluate({"u": u0, "v": v0}).as_fraction()
    Qv = q1.evaluate({"u": u0, "v": v0}).as_fraction()
    assert Pv * dv - Qv * du == 0
    assert (Pv != 0 or Qv != 0) == (du != 0 or dv != 0)
    s0, w0 = x0 / y0, 1 / y0
    ds = (A * y0 - x0 * B) / y0 ** 2
    dw = -B / y0 ** 2
    p2, q2 = F.charts[2].components
    Sv = p2.evaluate({"s": s0, "w": w0}).as_fraction()
    Wv = q2.evaluate({"s": s0, "w": w0}).as_fraction()
    assert Sv * dw - Wv * ds == 0


def test_chart_cocycle_consistency():
    for F in (RAD, DIAG, NOD, CUS, JOU):
        _cocycle_check(F)
