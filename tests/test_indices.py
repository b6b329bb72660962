"""Local indices of tangent field germs: the worked table, identities,
coordinate invariance, Saito bases."""

import random
from fractions import Fraction

import pytest

from folindex.exactcore import (
    MissingInputError,
    MultiPoly,
    NonIsolatedError,
    NonReducedError,
    NonTangentError,
    NotLogarithmicError,
    PreconditionError,
    SaitoCheckError,
    substitute,
    translate_to_origin,
)
from folindex.indices import (
    LogBasis,
    VectorFieldGerm,
    auto_saito_basis,
    chi_number,
    euler_obstruction_field,
    gsv_index,
    is_logarithmic,
    log_index,
    mu_along_curve,
    ph_index,
    polar_intersection,
    saito_check,
    schwartz_index,
    weighted_homogeneous_weights,
)
from folindex.localmult import curve_multiplicity, milnor_number

from conftest import ORIGIN, P2, V2, germ

CUSP = P2("y^2 - x^3")
NODE = P2("x*y")
TACNODE = P2("y^2 - x^4")

RADIAL = germ("x", "y")

# tangent (field, curve) pairs with (mu, mult, euler obstruction, gsv, schwartz)
TABLE = [
    (germ("x", "y"), NODE, 1, 2, 2, 0, 1),
    (germ("x", "-y"), NODE, 1, 2, 2, 0, 1),
    (germ("2*x", "3*y"), CUSP, 2, 2, 2, -1, 1),
    (germ("2*y", "3*x^2"), CUSP, 2, 2, 3, 0, 2),
    (germ("x", "2*y"), TACNODE, 3, 2, 2, -2, 1),
    (germ("2*y", "4*x^3"), TACNODE, 3, 2, 4, 0, 3),
]


def test_index_table():
    for v, f, mu, m, eu, gsv, sch in TABLE:
        assert milnor_number(f, ORIGIN) == mu
        assert curve_multiplicity(f, ORIGIN) == m
        assert euler_obstruction_field(v, f).value == eu
        assert gsv_index(v, f).value == gsv
        assert schwartz_index(v, f).value == sch


def test_gsv_schwartz_milnor_identity():
    for v, f, mu, _, _, gsv, sch in TABLE:
        assert gsv - sch == -mu
        report = gsv_index(v, f)
        assert report.ingredients["milnor"] == mu
        assert report.value - schwartz_index(v, f).value == -mu


@pytest.mark.parametrize("v, f, value", [
    (germ("2*x*y", "x*(3*x^2 + 4*x^3)"), P2("y^2 - x^3 - x^4"), 5),
    (germ("2*x*y", "3*x^3"), CUSP, 5),
    (germ("(y - x^2)*2*y", "(y - x^2)*(3*x^2 + 4*x^3)"), P2("y^2 - x^3 - x^4"), 6),
], ids=["x-times-hamiltonian", "x-times-cusp-hamiltonian", "parabola-times-hamiltonian"])
def test_field_vanishing_off_the_curve_answers(v, f, value):
    # each field vanishes on a curve through the origin that shares no
    # component with f, so it is not refused as vanishing along a branch
    assert euler_obstruction_field(v, f).value == value


def test_tangency_is_enforced():
    with pytest.raises(NonTangentError):
        euler_obstruction_field(RADIAL, CUSP)
    with pytest.raises(NonTangentError):
        gsv_index(RADIAL, TACNODE)
    assert is_logarithmic(RADIAL, NODE)
    assert not is_logarithmic(RADIAL, CUSP)


def test_error_precedence_is_kept():
    # reducible and not tangent: the irreducibility test comes first
    with pytest.raises(PreconditionError, match="curve germ is not irreducible"):
        mu_along_curve(germ("y", "x"), NODE)
    # not reduced and not tangent: the tangency test comes first
    with pytest.raises(NonTangentError):
        gsv_index(germ("y", "x"), P2("y^2"))
    # tangent but not reduced: the branch expansion still checks reducedness
    for index in (gsv_index, schwartz_index, euler_obstruction_field):
        with pytest.raises(NonReducedError):
            index(RADIAL, P2("y^2"))
    with pytest.raises(PreconditionError, match="point is not on the curve"):
        gsv_index(germ("x", "0"), P2("y - 1"))
    # mu_along_curve counts branches before it computes mu, and refuses a
    # germ not reduced or off the curve with the texts mu would
    with pytest.raises(NonReducedError, match="curve is not reduced at the point"):
        mu_along_curve(RADIAL, P2("y^2"))
    with pytest.raises(PreconditionError, match="point is not on the curve"):
        mu_along_curve(germ("x", "0"), P2("y - 1"))


def test_ph_values():
    assert ph_index(RADIAL).value == 1
    assert ph_index(germ("y", "x^2")).value == 2
    assert ph_index(germ("2*y", "3*x^2")).value == 2
    with pytest.raises(PreconditionError):
        ph_index(germ("1 + x", "y"))
    with pytest.raises(NonIsolatedError):
        ph_index(germ("x", "x*y"))


# ------------------------------------------------------------ change of frame

def _linear(c1, c2):
    return (MultiPoly.constant(c1, V2) * MultiPoly.variable("x", V2)
            + MultiPoly.constant(c2, V2) * MultiPoly.variable("y", V2))


def _transform(v, f, A):
    """Pull the pair back through the linear substitution x -> A x."""
    (a, b), (c, d) = A
    det = a * d - b * c
    sub = {"x": _linear(a, b), "y": _linear(c, d)}
    ca = substitute(v.components[0], sub)
    cb = substitute(v.components[1], sub)
    na = ca * Fraction(d, det) + cb * Fraction(-b, det)
    nb = ca * Fraction(-c, det) + cb * Fraction(a, det)
    return VectorFieldGerm(na, nb), substitute(f, sub)


def test_indices_invariant_under_linear_frames():
    rng = random.Random(7)
    mats = []
    while len(mats) < 4:
        A = ((Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))),
             (Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))))
        if A[0][0] * A[1][1] - A[0][1] * A[1][0] != 0:
            mats.append(A)
    cases = [(germ("2*y", "3*x^2"), CUSP), (germ("x", "-y"), NODE),
             (germ("x", "2*y"), TACNODE)]
    for v, f in cases:
        eu = euler_obstruction_field(v, f).value
        gsv = gsv_index(v, f).value
        sch = schwartz_index(v, f).value
        ph = ph_index(v).value
        for A in mats:
            w, g = _transform(v, f, A)
            assert ph_index(w).value == ph
            assert euler_obstruction_field(w, g).value == eu
            assert gsv_index(w, g).value == gsv
            assert schwartz_index(w, g).value == sch


# -------------------------------------------------------------- saito bases

def test_auto_basis_weighted_homogeneous():
    basis = auto_saito_basis(CUSP)
    u = saito_check(basis.chi1, basis.chi2, CUSP)
    assert u.is_constant and not u.is_zero
    assert weighted_homogeneous_weights(CUSP) == (2, 3, 6)
    assert weighted_homogeneous_weights(TACNODE) == (1, 2, 4)
    assert weighted_homogeneous_weights(P2("y^2 - x^3 - x^4")) is None


def test_auto_basis_smooth_point():
    basis = auto_saito_basis(P2("y"))
    saito_check(basis.chi1, basis.chi2, P2("y"))


def test_auto_basis_refuses_hard_germs():
    # not weighted homogeneous in any frame we detect: caller must supply one
    with pytest.raises(MissingInputError):
        auto_saito_basis(P2("y^2 - x^3 - x^4"))


def test_saito_check_failures():
    euler = germ("2*x", "3*y")
    ham = germ("2*y", "3*x^2")
    assert saito_check(euler, ham, CUSP).is_constant
    with pytest.raises(NotLogarithmicError):
        saito_check(euler, germ("y", "x"), CUSP)
    # determinant a non-unit multiple of the divisor
    scaled = germ("2*x*y", "3*y^2")
    with pytest.raises((SaitoCheckError, NotLogarithmicError)):
        saito_check(euler, scaled, CUSP)


def test_log_index_zero_at_nondegenerate_singularities():
    for v in (germ("x", "-y"), germ("x", "2*y")):
        basis = auto_saito_basis(NODE)
        assert log_index(v, basis).value == 0


def test_log_vs_gsv_at_smooth_points():
    # on a smooth divisor: ambient count minus basis count equals the gsv
    line = P2("y")
    basis = auto_saito_basis(line)
    for a, b in (("x", "2*y"), ("x^2", "2*y"), ("x + y", "(x - y)*y")):
        v = germ(a, b)
        assert is_logarithmic(v, line)
        lg = log_index(v, basis).value
        ph = ph_index(v).value
        assert gsv_index(v, line).value == ph - lg


def test_log_index_requires_span():
    basis = auto_saito_basis(NODE)
    with pytest.raises(NotLogarithmicError):
        log_index(germ("y", "x"), basis)


def test_log_index_explicit_basis():
    basis = LogBasis(germ("2*x", "3*y"), germ("2*y", "3*x^2"), CUSP)
    assert log_index(germ("2*y", "3*x^2"), basis).value == 0
    assert log_index(germ("2*x", "3*y"), basis).value == 0
    # x times the Euler field: coefficients (x, 0), colength 0 is impossible
    v = germ("2*x^2", "3*x*y")
    with pytest.raises(NonIsolatedError):
        log_index(v, basis)


# ------------------------------------------------ curve multiplicity / polar

def test_mu_along_curve():
    assert mu_along_curve(germ("2*y", "3*x^2"), CUSP).value == 2
    assert mu_along_curve(germ("2*x", "3*y"), CUSP).value == 1
    with pytest.raises(PreconditionError):
        mu_along_curve(germ("x", "-y"), NODE)
    with pytest.raises(PreconditionError):
        mu_along_curve(germ("x", "y"), P2("y^2 - 2*x^2"))


def test_polar_intersection():
    assert polar_intersection(germ("2*y", "3*x^2"), CUSP).value == 3
    assert polar_intersection(germ("2*x", "3*y"), CUSP).value == 2


# ------------------------------------------------------------------ chi

def test_chi_balanced_examples():
    assert chi_number(germ("x", "-y"), [(P2("x"), 1), (P2("y"), 1)]).value == 0
    assert chi_number(germ("2*y", "3*x^2"), [(CUSP, 1)]).value == 0
    assert chi_number(germ("2*x", "3*y"), [(CUSP, 1)]).value == 0


def test_chi_matches_formula():
    v = germ("x", "-y")
    curves = [(P2("x"), 2), (P2("y"), 1)]
    report = chi_number(v, curves)
    ph = ph_index(v).value
    schs = [schwartz_index(v, c).value for c, _ in curves]
    expected = ph - (2 * schs[0] + 1 * schs[1]) + (3 - 1)
    assert report.value == expected
    assert report.ingredients["degree"] == 3


def test_chi_guards():
    with pytest.raises(NotLogarithmicError):
        chi_number(germ("x", "y"), [(CUSP, 1)])
    with pytest.raises(PreconditionError):
        chi_number(germ("x", "-y"), [(P2("x"), 0)])


def test_chi_equals_log_for_weighted_homogeneous_pair():
    basis = LogBasis(germ("2*x", "3*y"), germ("2*y", "3*x^2"), CUSP)
    v = germ("2*y", "3*x^2")
    assert chi_number(v, [(CUSP, 1)]).value == log_index(v, basis).value


# ----------------------------------------------------------------- basepoint

def test_germ_at_moved_basepoint():
    # a germ at (1, 0) is translated once, where it is made; every index
    # then sees the Hamiltonian field of the cusp at the origin
    point = (Fraction(1), Fraction(0))
    f = translate_to_origin(P2("y^2 - (x - 1)^3"), point)
    v = VectorFieldGerm(*(translate_to_origin(P2(c), point) for c in ("2*y", "3*(x - 1)^2")))
    ham = germ("2*y", "3*x^2")

    def reports(v, f):
        return [ph_index(v), euler_obstruction_field(v, f), gsv_index(v, f),
                schwartz_index(v, f), log_index(v, auto_saito_basis(f)),
                mu_along_curve(v, f), polar_intersection(v, f), chi_number(v, [(f, 1)])]

    moved, at_origin = reports(v, f), reports(ham, CUSP)
    assert [r.kind for r in moved] == ["PH", "EU_OBSTRUCTION", "GSV", "SCHWARTZ", "LOG",
                                       "MU_ALONG_CURVE", "POLAR", "CHI_NUMBER"]
    assert moved == at_origin
    assert [r.value for r in moved][1:4] == [3, 0, 2]
