"""Paths of the branch expansion that the corpus does not reach: precision
doubling, truncations too short to certify, nodes divisible by y, and
edge roots that are rational q-th roots; and the reducedness proof an
expansion starts from."""

import time
from fractions import Fraction

import pytest

from folindex import exactcore, indices, puiseux
from folindex.exactcore import QQ, FieldElem
from folindex.indices import (
    VectorFieldGerm,
    _LocalCurve,
    euler_obstruction_field,
    gsv_index,
    polar_intersection,
)
from folindex.puiseux import InsufficientPrecisionError, branches, nash_lift_order

from conftest import ORIGIN, P2


# ---------------------------------------------------------- precision

def test_euler_obstruction_doubles_precision_until_certified(localization_counts):
    # the two branches part at x^25: the first precision, twice the
    # degree, cannot certify the lift orders, and its double can
    _, expanded = localization_counts
    f = P2("(y - x^5 - y^2)*(y - x^5 - y^2 + y^5)")
    v = VectorFieldGerm(f.diff("y"), -f.diff("x"))
    assert euler_obstruction_field(v, f).value == 50
    assert sorted(budget for _, budget in expanded) == [20, 40]
    direct = sum(b.conjugacy_size * nash_lift_order(b, v.components)
                 for b in branches(f, ORIGIN, 80))
    assert direct == 50
    g = gsv_index(v, f)
    assert (g.value, g.ingredients["milnor"]) == (0, 49)


def test_branches_sharing_terms_past_the_truncation_are_not_certified():
    # the two branches part at x^30: at 24 the walk runs out of budget on
    # one inexact path of multiplicity 1, and 32 separates them
    f = P2("(y - x^2 - y^2)*(y - x^2 - y^2 - x^30)")
    with pytest.raises(InsufficientPrecisionError, match="cover multiplicity 1 of 2"):
        branches(f, ORIGIN, 24)
    bs = branches(f, ORIGIN, 32)
    assert [(b.multiplicity, b.conjugacy_size) for b in bs] == [(1, 1), (1, 1)]


def test_a_precision_that_failed_fails_again_without_expanding(localization_counts):
    _, expanded = localization_counts
    # the two branches part at x^8, past a truncation at t^6
    curve = _LocalCurve(P2("(y - x^2 - y^2)*(y - x^2 - y^2 - x^8)"))
    for _ in range(2):
        with pytest.raises(InsufficientPrecisionError, match="cover multiplicity 1 of 2"):
            curve.branches(6)
    assert list(expanded.values()) == [1]
    assert len(curve.branches(8)) == 2


@pytest.mark.parametrize("k", [18, 30])
def test_euler_obstruction_proves_reducedness_without_a_milnor_number(k, monkeypatch):
    # the Euler obstruction needs no mu = 2k - 1: its expansion proves the
    # curve reduced by the square-free test alone
    def no_milnor(f, p):
        raise AssertionError("the Euler obstruction computed a Milnor number")

    monkeypatch.setattr(indices, "milnor_number", no_milnor)
    f = P2(f"(y - x^2 - y^2)*(y - x^2 - y^2 - x^{k})")
    v = VectorFieldGerm(f.diff("y"), -f.diff("x"))
    start = time.perf_counter()
    assert euler_obstruction_field(v, f).value == 2 * k
    assert polar_intersection(v, f).value == 2 * k
    assert time.perf_counter() - start < 5


def test_a_node_divisible_by_y_ends_an_exact_branch():
    bs = branches(P2("(y - x)*(y - x - x^2)"), ORIGIN, 16)
    assert [(b.exact, b.x_poly.to_str(), b.y_poly.to_str()) for b in bs] == [
        (True, "t", "t"), (True, "t", "t^2 + t")]


# ---------------------------------------------------- rational edge roots

@pytest.mark.parametrize("w, q, rational", [
    (8, 3, True),
    (-8, 3, True),
    (Fraction(16, 81), 4, True),
    (Fraction(-1, 32), 5, True),
    (1, 7, True),
    (4, 2, True),
    (Fraction(9, 4), 2, True),
    # no rational root: factoring decides, and may extend the field
    (-1, 2, False),
    (2, 2, False),
    (4, 3, False),
])
def test_a_rational_qth_root_is_the_root_factoring_picks(monkeypatch, w, q, rational):
    h = [FieldElem.of(-Fraction(w)), FieldElem.of(1)]
    assert (exactcore._rational_root(Fraction(w), q) is not None) == rational
    if rational:
        monkeypatch.setattr(puiseux, "factor_univariate", None)   # must not be reached
    quick = puiseux._edge_root_choices(h, q, QQ, {"fresh": 0})
    monkeypatch.undo()
    monkeypatch.setattr(puiseux, "_rational_root", lambda w, q: None)
    factored = puiseux._edge_root_choices(h, q, QQ, {"fresh": 0})
    assert quick == factored


def test_integer_root_is_the_floor_of_the_real_root():
    for q in (2, 3, 5, 1999):
        for n in list(range(300)) + [3 ** 200 - 1, 3 ** 200, 3 ** 200 + 1]:
            r = exactcore._integer_root(n, q)
            assert r ** q <= n < (r + 1) ** q, (n, q)
    assert exactcore._rational_root(Fraction(3 ** 200, 7 ** 100), 100) == Fraction(9, 7)
    assert exactcore._rational_root(Fraction(-(3 ** 201), 2 ** 67), 67) == Fraction(-27, 2)
