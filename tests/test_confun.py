"""Constructible functions on the germ: indicators, cycle functions,
characteristic cycles, and the pairing with tangent fields."""

import json
import pathlib

import pytest

import folindex.cli as cli
from folindex.confun import (
    ConstructibleFn,
    cc,
    complement_of_divisor,
    indicator_curve,
    index_pairing,
    nearby_cycles,
    vanishing_cycles,
)
from folindex.exactcore import NonReducedError, PreconditionError
from folindex.indices import (
    auto_saito_basis,
    chi_number,
    gsv_index,
    log_index,
    ph_index,
    schwartz_index,
)

from conftest import P2, germ

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"

CUSP = P2("y^2 - x^3")
NODE = P2("x*y")
LINE = P2("y")

HAM = germ("2*y", "3*x^2")
EULER = germ("2*x", "3*y")
RADIAL = germ("x", "y")
SQUARES = germ("x^2", "y^2")


def test_indicator_coefficients():
    ic = indicator_curve(CUSP)
    assert ic.point_coeff == -1
    assert ic.curve_terms[0][1] == 1
    assert indicator_curve(LINE).point_coeff == 0
    assert indicator_curve(NODE).point_coeff == -1


def test_indicator_values():
    ic = indicator_curve(CUSP)
    assert ic.value_at_origin() == 1
    assert ic.value_at_smooth_point(ic.curve_terms[0][0]) == 1
    assert indicator_curve(NODE).value_at_origin() == 1


def test_nearby_cycle_values():
    assert nearby_cycles(LINE).point_coeff == 0
    # the origin value is 1 - mu
    assert nearby_cycles(NODE).value_at_origin() == 0
    assert nearby_cycles(CUSP).value_at_origin() == -1


def test_nearby_equals_vanishing_plus_indicator():
    for f in (CUSP, NODE, LINE):
        assert nearby_cycles(f) == vanishing_cycles(f) + indicator_curve(f)


def test_complement_indicator():
    comp = complement_of_divisor([(P2("x"), 1), (P2("y"), 1)])
    amb, terms, pt = comp.indicator_coefficients()
    assert (amb, pt) == (1, 1)
    assert sorted(c for _, c in terms) == [-1, -1]
    assert complement_of_divisor([(LINE, 1)]).indicator_coefficients()[2] == 0


def test_complement_guards():
    with pytest.raises(PreconditionError):
        complement_of_divisor([])
    # two branches, and one orbit of two conjugate branches over Q(sqrt 2)
    for f in (NODE, P2("y^2 - 2*x^2")):
        with pytest.raises(PreconditionError, match="not an irreducible germ"):
            complement_of_divisor([(f, 1)])


def test_complement_expands_each_component_once(localization_counts):
    # the irreducibility test reads the expansions the record already made
    checked, expanded = localization_counts
    complement_of_divisor([(CUSP, 1), (LINE, 2)])
    assert expanded and max(expanded.values()) == 1, expanded
    assert max(checked.values()) == 1, checked


def test_indicator_basis_round_trip():
    comp = complement_of_divisor([(P2("x"), 1), (P2("y"), 1)])
    samples = (indicator_curve(CUSP), nearby_cycles(NODE), comp,
               vanishing_cycles(CUSP) + 3 * indicator_curve(NODE))
    for g in samples:
        back = ConstructibleFn.from_indicator(*g.indicator_coefficients(), g.registry)
        assert back == g


def test_characteristic_cycle_signs():
    assert cc(ConstructibleFn.point_mass()).terms == (("point-fiber", 1),)
    assert cc(ConstructibleFn.whole_space()).terms == (("zero-section", 1),)
    il = indicator_curve(LINE)
    key = il.curve_terms[0][0]
    assert cc(il).terms == ((f"conormal[{key}]", -1),)


def test_pairing_point_mass_is_one():
    assert index_pairing(ConstructibleFn.point_mass(), HAM) == 1


def test_pairing_indicator_is_schwartz():
    for v in (HAM, EULER):
        assert index_pairing(indicator_curve(CUSP), v) == schwartz_index(v, CUSP).value
    assert index_pairing(indicator_curve(CUSP), HAM) == 2
    assert index_pairing(indicator_curve(NODE), SQUARES) == \
        schwartz_index(SQUARES, NODE).value


def test_pairing_nearby_is_gsv():
    for v in (HAM, EULER):
        assert index_pairing(nearby_cycles(CUSP), v) == gsv_index(v, CUSP).value
    assert index_pairing(nearby_cycles(NODE), RADIAL) == 0


def test_pairing_complement_chi_log_agree():
    comp = complement_of_divisor([(P2("x"), 1), (P2("y"), 1)])
    compv = index_pairing(comp, SQUARES)
    chiv = chi_number(SQUARES, [(P2("x"), 1), (P2("y"), 1)]).value
    logv = log_index(SQUARES, auto_saito_basis(NODE)).value
    assert compv == chiv == logv


def test_pairing_linearity():
    g1, g2 = indicator_curve(CUSP), nearby_cycles(CUSP)
    lhs = index_pairing(2 * g1 - 3 * g2, HAM)
    rhs = 2 * index_pairing(g1, HAM) - 3 * index_pairing(g2, HAM)
    assert lhs == rhs


@pytest.mark.parametrize("name", ["cusp_hamiltonian.pairing_eu", "node_radial.pairing_indicator",
                                  "node_radial.pairing_psi",
                                  "saddle_balanced.pairing_complement"])
def test_pairing_checks_and_expands_each_curve_once(name, localization_counts, tmp_path):
    """One ``confun`` command pairs through the curves its records already
    localized: no (polynomial, point) is checked for reducedness twice and
    no (polynomial, precision) is expanded twice."""
    checked, expanded = localization_counts
    entry = next(e for e in json.loads((CORPUS / "manifest.json").read_text())["entries"]
                 if e["name"] == name)
    out = tmp_path / "report.json"
    assert cli.main([*entry["argv"], "--input", str(CORPUS / entry["problem"]),
                     "--json", str(out)]) == 0
    assert out.read_bytes() == (CORPUS / entry["report"]).read_bytes()
    assert checked
    assert max(checked.values()) == 1, checked
    assert max(expanded.values(), default=1) == 1, expanded


def test_pairing_whole_space_is_ph():
    assert index_pairing(ConstructibleFn.whole_space(), HAM) == ph_index(HAM).value


def test_non_reduced_rejected():
    with pytest.raises(NonReducedError):
        indicator_curve(P2("y^2"))
