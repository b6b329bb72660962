"""The GSV index read off two colengths, against the branch pairing."""

import pytest
from hypothesis import example, given, settings, strategies as st

import folindex.indices as indices
import folindex.localmult as localmult
from folindex.exactcore import (
    QQ,
    ExtensionRequiredError,
    FieldDescriptor,
    FieldElem,
    PreconditionError,
    ResourceCapError,
    parse_poly,
)
from folindex.indices import VectorFieldGerm, gsv_index
from folindex.localmult import INFINITE, curve_multiplicity

from conftest import ORIGIN, V2
from test_exactcore import polys

SQRT2 = FieldDescriptor.simple_extension("r", [-2, 0, 1])

# irreducible germs at the origin: lines, smooth branches and cusps, the
# axes and branches tangent to each axis among them
BRANCHES = ["x", "y", "y - x", "x + 2*y", "y - x^2", "x - y^2", "y - x^2 - x^3", "x + y^3",
            "y^2 - x^3", "x^2 - y^3", "(y - x)^2 - x^3"]
SQRT2_BRANCHES = BRANCHES + ["y - r*x", "x - r*y^2"]


def _tangent_field(factors, h, w=("0", "0"), descriptor=QQ):
    """(v, f) with f the product of ``factors`` and v = h*X_f + f*w, where
    X_f = (-f_y, f_x): tangent to f = 0, and equal to h*X_f along it."""
    f, h, w1, w2 = (parse_poly(t, V2, descriptor) if isinstance(t, str) else t
                    for t in ("*".join(f"({b})" for b in factors), h, *w))
    fx, fy = f.diff("x"), f.diff("y")
    return VectorFieldGerm(h * -fy + f * w1, h * fx + f * w2), f


@st.composite
def tangent_fields(draw):
    descriptor = draw(st.sampled_from([QQ, SQRT2]))
    pool = BRANCHES if descriptor is QQ else SQRT2_BRANCHES
    factors = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True))
    h, w1, w2 = (draw(polys(max_degree=2)) for _ in range(3))
    if descriptor is SQRT2:
        h = h * FieldElem(SQRT2, [draw(st.integers(-2, 2)), 1])
        w1 = w1 * FieldElem(SQRT2, [0, 1])
    return _tangent_field(factors, h, (w1, w2), descriptor)


@st.composite
def euler_fields(draw):
    """The Euler field (a*x, b*y) of a reduced germ of weights (a, b):
    up to two curves y^a = c*x^b, times x or y or both."""
    a, b = draw(st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 3), (3, 2), (3, 4), (2, 5)]))
    cs = draw(st.lists(st.sampled_from([1, -1, 2, 3]), min_size=0, max_size=2, unique=True))
    axes = draw(st.sampled_from([[], ["x"], ["y"], ["x", "y"]]))
    factors = [f"y^{a} - {c}*x^{b}" for c in cs] + axes
    if not factors:
        factors = ["x"]
    f = parse_poly("*".join(f"({t})" for t in factors), V2)
    return VectorFieldGerm(parse_poly(f"{a}*x", V2), parse_poly(f"{b}*y", V2)), f


def _branch_gsv(v, curve):
    """The GSV index through the Euler obstruction's branch pairing, on a
    ``_LocalCurve``, which keeps its Milnor number and expansions."""
    fl = indices._tangent_equation(v, curve)
    mu = curve.milnor()
    eu = indices._pairing(v, curve, fl).value
    return eu + 1 - mu - curve_multiplicity(curve.poly, ORIGIN)


# two smooth branches with contact 5, and a unit times the Hamiltonian
# field: the first colength needs more than the budget in both axis orders
BUDGET = _tangent_field(["y - x^2", "y - x^2 - x^5"], "1 + x")
# the field vanishes along the branch x = 0, and each linear form is a
# multiple of x: every colength against the monomial curve x*y is infinite
ALL_INFINITE = _tangent_field(["x", "y"], "x")


@settings(max_examples=100, deadline=None)
@given(tangent_fields() | euler_fields())
@example(BUDGET)
@example(ALL_INFINITE)
@example(_tangent_field(["y^2 - x^3", "x^2 - y^3"], "2", descriptor=SQRT2))  # 2*X_f
def test_the_colength_gsv_is_the_branch_gsv(case):
    v, f = case
    got = indices._colength_gsv(v, f._pair(v.components[0])[0])
    curve = indices._LocalCurve(f)
    try:
        want = _branch_gsv(v, curve)
    except (ExtensionRequiredError, ResourceCapError):
        return
    except PreconditionError as exc:
        # every linear form vanishes on that branch, so no direction answers
        assert str(exc) == "vector field vanishes along the branch"
        assert got is None
        return
    assert got is None or got == want
    # the whole index, with the Milnor number already computed
    assert indices._gsv(v, curve).value == want


# fields that are not constant multiples of X_f, with their GSV indices:
# the route answers each of them by two finite colengths
ANSWERED = {
    "unit-times-hamiltonian": (_tangent_field(["y - x", "y + x"], "1 + x"), 0),
    "three-lines": (_tangent_field(["y - x", "x + 2*y", "y"], "x + y"), 3),
    "cusp-euler": ((VectorFieldGerm(parse_poly("2*x", V2), parse_poly("3*y", V2)),
                    parse_poly("y^2 - x^3", V2)), -1),
    "sqrt2-lines": (_tangent_field(["y - r*x", "y"], "x + y", descriptor=SQRT2), 2),
}


@pytest.mark.parametrize("name", ANSWERED)
def test_fields_off_the_hamiltonian_line_take_the_colength_route(name):
    (v, f), value = ANSWERED[name]
    a, b = v.components
    assert not indices._constant_multiple(a, b, -f.diff("y"), f.diff("x"))
    assert indices._colength_gsv(v, f) == value
    assert _branch_gsv(v, indices._LocalCurve(f)) == value


def test_each_direction_pairs_a_form_with_its_hamiltonian_form():
    # up to sign: (lambda*a + mu*b, mu*f_x - lambda*f_y)
    a, b, fx, fy = (parse_poly(t, V2) for t in ("x", "y", "x^2", "y^3"))
    forms = list(indices._direction_forms(a, b, fx, fy))
    assert len(forms) == 5
    for (lam, mu), (num, den) in zip([(1, 0), (0, 1), (1, 1), (1, -1), (1, 2)], forms):
        assert num == a * lam + b * mu
        assert den in (fx * mu - fy * lam, fy * lam - fx * mu)


def _recorded_colengths(monkeypatch):
    found = []
    real = indices._colength

    def recorded(*args, **kwargs):
        found.append(real(*args, **kwargs))
        return found[-1]

    monkeypatch.setattr(indices, "_colength", recorded)
    return found


def test_the_budget_example_hands_over_at_the_budget(monkeypatch):
    v, f = BUDGET
    found = _recorded_colengths(monkeypatch)
    assert indices._colength_gsv(v, f) is None
    assert found == [None]
    assert gsv_index(v, f).value == 0


def test_the_infinite_example_tries_every_direction(monkeypatch):
    v, f = ALL_INFINITE
    found = _recorded_colengths(monkeypatch)
    assert indices._colength_gsv(v, f) is None
    assert found == [INFINITE] * 5
    with pytest.raises(PreconditionError, match="vector field vanishes along the branch"):
        gsv_index(v, f)


def test_a_constant_multiple_of_the_hamiltonian_field_runs_no_recursion(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("a colength ran")

    monkeypatch.setattr(indices, "_colength", refused)
    r = FieldElem(SQRT2, [1, 1])
    v, f = _tangent_field(["y^2 - x^3", "x - r*y^2"], parse_poly("1", V2, SQRT2) * r,
                          descriptor=SQRT2)
    assert indices._colength_gsv(v, f) == 0
    # one constant for every term of both components
    P = lambda text: parse_poly(text, V2)
    assert indices._constant_multiple(P("2*x - 2*y"), P("2*y"), P("x - y"), P("y"))
    for a, b in (("x + 2*y", "y"), ("2*x", "3*y"), ("x", "y + x")):
        assert not indices._constant_multiple(P(a), P(b), P("x + y"), P("y"))


def test_the_colength_route_stops_at_the_budget_on_a_germ_tangent_to_both_axes(monkeypatch):
    # (y^3 - x^4)*(x^2 - y^5): one branch tangent to the x-axis, one to the
    # y-axis, so both axis orders of Fulton's recursion meet high contact
    v, f = _tangent_field(["y^3 - x^4", "x^2 - y^5"], "1 + x", ("y", "x"))
    steps = []
    real = localmult._fulton

    def counted(f, g):
        steps.append(0)
        run = len(steps) - 1
        for item in real(f, g):
            steps[run] += item is None
            yield item

    monkeypatch.setattr(localmult, "_fulton", counted)
    assert indices._colength_gsv(v, f) is None
    # one colength, both axis orders run to the budget and no further
    assert steps == [localmult._LOCKSTEP_STEPS] * 2
    monkeypatch.undo()
    assert gsv_index(v, f).value == _branch_gsv(v, indices._LocalCurve(f)) == 0
