"""Local intersection numbers: axioms, known germs, and a dual oracle."""

import json
import pathlib
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import folindex.cli as cli
import folindex.localmult as localmult
from folindex.exactcore import (
    QQ,
    FieldDescriptor,
    FieldElem,
    MultiPoly,
    NonReducedError,
    PreconditionError,
    substitute,
    try_divide,
)
from folindex.indices import VectorFieldGerm, euler_obstruction_field
from folindex.localmult import (
    INFINITE,
    curve_multiplicity,
    intersection_multiplicity,
    milnor_number,
)

from conftest import ORIGIN, P2, V2, branch_order_sum, dual_oracle_pairs
from test_exactcore import polys

CUSP = P2("y^2 - x^3")
NODE = P2("x*y")
TACNODE = P2("y^2 - x^4")
INF = INFINITE
SQRT2 = FieldElem(FieldDescriptor.simple_extension("r", [-2, 0, 1]), [0, 1])


def I0(f, g):
    return intersection_multiplicity(f, g, ORIGIN).value


# -------------------------------------------------------------------- axioms

def test_known_values():
    assert I0(P2("x"), P2("y")) == 1
    assert I0(CUSP, P2("y")) == 3
    assert I0(CUSP, P2("x")) == 2
    assert I0(CUSP, P2("y^2 + x^3")) == 6
    assert I0(NODE, P2("x + y")) == 2
    assert I0(TACNODE, P2("y")) == 4
    # nonvanishing factor contributes nothing
    assert I0(CUSP, P2("1 + x")) == 0
    # common component
    assert I0(P2("x"), NODE) == INF
    assert I0(CUSP, CUSP * P2("y")) == INF
    assert not intersection_multiplicity(P2("x"), NODE, ORIGIN).is_finite
    # y^2 = 2x through (1, sqrt 2), tangent to no axis there: neither order
    # of the recursion finishes, and the gcd fallback decides
    assert intersection_multiplicity(P2("(y^2 - 2*x)*(x + y)"), P2("(y^2 - 2*x)*(x - y)"),
                                     (1, SQRT2)).value == INF


@settings(max_examples=40, deadline=None)
@given(polys(), polys())
def test_symmetry(f, g):
    if f.is_zero or g.is_zero:
        return
    assert I0(f, g) == I0(g, f)


@settings(max_examples=40, deadline=None)
@given(polys(), polys(), polys())
def test_multiplicativity(f, g, h):
    if f.is_zero or g.is_zero or h.is_zero:
        return
    left = I0(f, g * h)
    a, b = I0(f, g), I0(f, h)
    if INF in (a, b):
        assert left == INF
    else:
        assert left == a + b


@settings(max_examples=40, deadline=None)
@given(polys(), polys(), polys())
def test_invariance_under_combination(f, g, h):
    # adding a multiple of f to g never changes the number against f
    if f.is_zero or g.is_zero or (g + h * f).is_zero:
        return
    assert I0(f, g + h * f) == I0(f, g)


@settings(max_examples=40, deadline=None)
@given(polys())
def test_vanishing_dichotomy(f):
    g = P2("x + y^2")
    if f.is_zero:
        return
    v = I0(f, g)
    if v == INF:
        return
    zero = {"x": Fraction(0), "y": Fraction(0)}
    if f.evaluate(zero).is_zero:
        assert v >= 1
    else:
        assert v == 0


def _swapped(f):
    return MultiPoly(f.variables, f.descriptor, {(j, i): c for (i, j), c in f.terms.items()})


@settings(max_examples=40, deadline=None)
@given(polys(), polys())
def test_swapping_the_axes_keeps_the_number(f, g):
    if f.is_zero or g.is_zero:
        return
    assert I0(_swapped(f), _swapped(g)) == I0(f, g)


def _refused(*args):
    raise AssertionError("a pair with a one-term side ran the recursion")


def _drained(f, g):
    """The values that both axis orders of Fulton's recursion give on
    (f, g), each run on its own to its end (an order that meets a shared
    component other than its axis gives none)."""
    runs = (localmult._fulton(f, g), localmult._fulton(_swapped(f), _swapped(g)))
    return {value for run in runs for value in run if value is not None}


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.sampled_from([1, 2, -1 + SQRT2]), polys(),
       st.sampled_from(["1", "x", "y", "x*y"]))
@example(1, 0, 1, P2("y - x^2"), "1")      # I(x, g) = 1 but I(y, g) = 2
@example(0, 2, 1, P2("x^3 + y"), "1")      # 2*I(y, g) = 6
@example(1, 1, 2, P2("y + 1"), "x")        # x divides both: INFINITE
@example(0, 0, 1, P2("x + y"), "x*y")      # a unit: 0
def test_a_monomial_side_gives_the_drained_recursion(a, b, c, g, factor):
    """c*x^a*y^b against g, times x, y or x*y so that an axis can divide
    both: the colength read off g's terms is the value that Fulton's
    recursion reaches when both axis orders run to their end."""
    m = MultiPoly(V2, QQ, {(a, b): 1}) * c
    g = g * P2(factor)
    if g.is_zero:
        return
    m, g = m._pair(g)
    expected, = _drained(m, g)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(localmult, "_fulton", _refused)
        mp.setattr(localmult, "gcd", _refused)
        assert localmult._colength(m, g, ORIGIN) == expected
        assert localmult._colength(g, m, ORIGIN) == expected


# ------------------------------------------------------ finiteness decision

@pytest.mark.parametrize("f, g", [
    # y divides both: this pair raised an "internal" error before
    ("y*(x - y^2)", "y*(x + y)"),
    ("(y - x^2)*(x + y)", "(y - x^2)*(x - y)"),
    ("x*(x - y^3)", "x*(x + y^5)"),
])
def test_a_shared_component_through_the_origin_is_infinite(f, g):
    assert I0(P2(f), P2(g)) == INF


def test_a_shared_component_away_from_the_origin_is_not():
    assert I0(P2("(y - 1)*x"), P2("(y - 1)*(y - x^2)")) == 1
    # contact 17 along the diagonal at (sqrt 2, sqrt 2), and x + y shared
    # but nonzero there: both axis orders pass the gcd fallback (324 and 18
    # steps) and go on to the finite value
    f, g = P2("(y - x)*(x + y)"), P2("(y - x - (x^2 - 2)^17)*(x + y)")
    assert intersection_multiplicity(f, g, (SQRT2, SQRT2)).value == 17


@pytest.mark.parametrize("text", ["(y^2 - x^3)^2", "x*(y - x^2)^2", "(y - x^2)^2*(x + y)"])
def test_milnor_number_refuses_a_repeated_component_quickly(text):
    start = time.perf_counter()
    with pytest.raises(NonReducedError, match="curve is not reduced at the point"):
        milnor_number(P2(text), ORIGIN)
    assert time.perf_counter() - start < 1


CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"
RECURSION_ENTRIES = [e for e in json.loads((CORPUS / "manifest.json").read_text())["entries"]
                     if e["argv"][0] in ("index", "verify", "confun")]


def test_the_corpus_never_reaches_the_gcd_fallback(monkeypatch, tmp_path):
    """Every corpus colength is decided by the recursion itself: with the
    fallback's gcd refused, each index, verify and confun report is still
    reproduced byte for byte."""
    def refused(*args):
        raise AssertionError("the gcd fallback ran")

    monkeypatch.setattr(localmult, "gcd", refused)
    out = tmp_path / "report.json"
    for entry in RECURSION_ENTRIES:
        code = cli.main([*entry["argv"], "--input", str(CORPUS / entry["problem"]),
                         "--json", str(out)])
        assert code == 0, entry["name"]
        assert out.read_bytes() == (CORPUS / entry["report"]).read_bytes(), entry["name"]
    assert len(RECURSION_ENTRIES) == 46


# ------------------------------------------------------------- milnor / mult

@pytest.mark.parametrize("k, j, mu", [(5, 7, 38), (10, 14, 78), (20, 28, 158), (50, 70, 398)])
def test_three_branch_milnor_number_matches_the_euler_obstruction(k, j, mu):
    """(y - x^k)(y - x^k - x^2k)(y + x^j): Fulton's steps work in the field,
    so their coefficients stay small over the hundreds of steps it takes.
    The Euler obstruction of the Hamiltonian field, read off the branches,
    is mu + m - 1 (m the multiplicity), an oracle independent of Fulton's
    recursion."""
    f = P2(f"(y - x^{k})*(y - x^{k} - x^{2 * k})*(y + x^{j})")
    start = time.perf_counter()
    assert milnor_number(f, ORIGIN) == mu
    assert time.perf_counter() - start < 5
    eu = euler_obstruction_field(VectorFieldGerm(f.diff("y"), -f.diff("x")), f).value
    assert eu - curve_multiplicity(f, ORIGIN) + 1 == mu


def test_milnor_numbers():
    assert milnor_number(P2("x^2 + y^2"), ORIGIN) == 1
    assert milnor_number(NODE, ORIGIN) == 1
    assert milnor_number(CUSP, ORIGIN) == 2
    assert milnor_number(TACNODE, ORIGIN) == 3
    assert milnor_number(P2("x^3 + y^3"), ORIGIN) == 4
    assert milnor_number(P2("x^3 + y^5"), ORIGIN) == 8
    assert milnor_number(P2("x + y^7"), ORIGIN) == 0
    # two cusps meeting with contact 4:  2 + 2 + 2*4 - 1
    assert milnor_number(P2("(y^2 - x^3) * (x^2 - y^3)"), ORIGIN) == 11


def test_milnor_away_from_origin():
    f = P2("y^2 - (x - 1)^3")
    assert milnor_number(f, (Fraction(1), Fraction(0))) == 2
    # smooth point of the same curve
    assert milnor_number(f, (Fraction(2), Fraction(1))) == 0
    # the origin is not on the curve at all
    with pytest.raises(PreconditionError):
        milnor_number(f, ORIGIN)


def test_milnor_number_refuses_a_non_reduced_curve_as_branches_does():
    # y^2 (x - y): the component y = 0 is doubled
    f = P2("y^2*(x - y)")
    with pytest.raises(NonReducedError):
        milnor_number(f, ORIGIN)


def test_curve_multiplicity():
    assert curve_multiplicity(CUSP, ORIGIN) == 2
    assert curve_multiplicity(NODE, ORIGIN) == 2
    assert curve_multiplicity(P2("x^3 + y^3"), ORIGIN) == 3
    assert curve_multiplicity(P2("x + y^2"), ORIGIN) == 1
    assert curve_multiplicity(CUSP, (Fraction(1), Fraction(1))) == 1


def test_milnor_plus_mult_bound():
    # for an irreducible germ, I(f, f_y) = mu + m - 1 once y^m is in the cone
    for text in ("y^2 - x^3", "y^2 - x^5", "y^3 - x^4", "y^3 - x^5"):
        f = P2(text)
        mu = milnor_number(f, ORIGIN)
        m = curve_multiplicity(f, ORIGIN)
        assert I0(f, f.diff("y")) == mu + m - 1


# --------------------------------------------------------------- dual oracle

def test_branch_expansion_agrees_with_recursion():
    """Two independent computations of the same number on 100 random pairs."""
    pairs = dual_oracle_pairs(count=100, seed=20260822)
    assert len(pairs) == 100
    for f, g, fulton, total in pairs:
        assert total == fulton, f"disagreement on f={f!r} g={g!r}"


# The curves the polar identity is checked on beside the sampled ones:
# classical germs, then three random germs of degree <= 4
POLAR_GERMS = ("x*y", "y^2 - x^3", "y^2 - x^4", "y^2 - 2*x^2", "y^2 - x^5",
               "x*y*(x + y)", "(y - x^2)*(y + x^2)", "y^3 - x^2",
               "(y^2 - x^3)*(y + x)",
               "x^4 + 2*x*y^3 - 3*x", "y^4 - 2*x^3", "-3*y^4 + x^2")


def test_polar_identity_matches_the_milnor_number():
    """Teissier's polar identity mu(f) = I(f, f_y) - I(f, x) + 1 for reduced
    f without the component x = 0 (B. Teissier, Cycles evanescents,
    sections planes et conditions de Whitney, Asterisque 7-8, 1973).  Its
    right side is read from branch orders alone, so it checks Fulton's
    recursion in milnor_number against an independent computation.  A germ
    with the component x = 0 is sheared first, x -> x + c*y for c = 1, 2,
    ... until x no longer divides it; a linear change keeps mu, so no germ
    is skipped."""
    x, y = P2("x"), P2("y")
    germs = [f for f, _, _, _ in dual_oracle_pairs(count=25, seed=20260822)]
    germs += [P2(text) for text in POLAR_GERMS]
    sheared = 0
    for f in germs:
        g, c = f, 0
        while try_divide(g, x) is not None:
            c += 1
            g = substitute(f, {"x": x + c * y, "y": y})
        sheared += c > 0
        polar, transversal = branch_order_sum(g, g.diff("y")), branch_order_sum(g, x)
        assert polar is not None and transversal is not None, f"no order on f={f!r}, c={c}"
        assert milnor_number(f, ORIGIN) == polar - transversal + 1, f"disagreement on f={f!r}, c={c}"
    # 8 sampled germs, x*y, x*y*(x + y) and x^4 + 2*x*y^3 - 3*x are sheared
    assert (len(germs), sheared) == (37, 11)
