"""Global count checks on the plane: every verifier must close exactly."""

import pathlib

import pytest

import folindex.cli as cli
from folindex.exactcore import NotLogarithmicError, PreconditionError
from folindex.foliation import from_affine
from folindex.verify import (
    verify_baum_bott,
    verify_isolated,
    verify_log_seh,
    verify_total_gsv,
)

from conftest import P2, P3

RAD = from_affine(P2("x"), P2("y"))
DIAG = from_affine(P2("x"), P2("2*y"))
NOD = from_affine(P2("2*y"), P2("2*x + 3*x^2"))
CUS = from_affine(P2("2*y"), P2("3*x^2"))
JOU = from_affine(P2("y^2 - x^3"), P2("1 - x^2*y"))
# no affine zero: the resultant in y is -x, and at x = 0 both components
# are nonzero constants, so its one root matches no common zero
HYP = from_affine(P2("x*y - 1"), P2("x*y - 2"))


def _closed(report):
    assert report.passed
    assert report.lhs == report.rhs
    assert report.rhs == sum(w for *_, w in report.per_point)
    assert report.assumptions


# ------------------------------------------------------------- degree counts

def test_count_radial():
    r = verify_baum_bott(RAD)
    assert (r.lhs, r.rhs, r.passed) == (1, 1, True)
    _closed(r)


def test_count_diagonal():
    r = verify_baum_bott(DIAG)
    assert (r.lhs, r.rhs, r.passed) == (3, 3, True)
    assert len(r.per_point) == 3
    _closed(r)


def test_count_degree_two():
    for F in (JOU, NOD, CUS, HYP):
        r = verify_baum_bott(F)
        assert (r.lhs, r.rhs, r.passed) == (7, 7, True)
        _closed(r)
    assert r.theorem == "BAUM_BOTT"


def test_count_weights_conjugate_orbits():
    r = verify_baum_bott(JOU)
    # six of the seven points enter through one conjugacy class
    weights = sorted(w for *_, w in r.per_point)
    assert weights == [1, 6]


# -------------------------------------------------------- log complement sum

def test_log_complement_triangle():
    r = verify_log_seh(DIAG, P3("x*y*z"))
    assert (r.lhs, r.rhs, r.passed) == (0, 0, True)
    assert r.theorem == "COR_SEH"
    assert r.details["divisor_degree"] == 3
    _closed(r)


def test_log_complement_single_line():
    r = verify_log_seh(DIAG, P3("z"))
    assert (r.lhs, r.rhs, r.passed) == (1, 1, True)
    _closed(r)


def test_log_complement_two_lines():
    r = verify_log_seh(DIAG, P3("x*y"))
    assert (r.lhs, r.rhs, r.passed) == (0, 0, True)
    _closed(r)


def test_log_complement_mixed_point_kinds():
    # the affine point sits off the line at infinity, the other two on it
    r = verify_log_seh(DIAG, P3("z"))
    kinds = sorted(kind for _, kind, _ in r.per_point)
    assert kinds == ["LOG", "LOG", "PH"]
    # on the triangle every singular point lies on the divisor
    r = verify_log_seh(DIAG, P3("x*y*z"))
    assert all(kind == "LOG" for _, kind, _ in r.per_point)


# -------------------------------------------------- isolated divisor singularities

def test_isolated_nodal_cubic():
    r = verify_isolated(NOD, P3("y^2*z - x^3 - x^2*z"))
    assert (r.lhs, r.rhs, r.passed) == (4, 4, True)
    assert r.details["rhs_schwartz_form"] == 4
    assert r.theorem == "COR_ISO"
    assert r.details["divisor_milnor_total"] == 1
    _closed(r)


def test_isolated_cuspidal_cubic():
    r = verify_isolated(CUS, P3("y^2*z - x^3"))
    assert (r.lhs, r.rhs, r.passed) == (4, 4, True)
    assert r.details["rhs_schwartz_form"] == 4
    assert r.details["divisor_milnor_total"] == 2
    _closed(r)


def test_isolated_smooth_divisor():
    r = verify_isolated(DIAG, P3("z"))
    assert r.passed and r.lhs == r.rhs
    assert r.details["divisor_milnor_total"] == 0
    _closed(r)


def test_isolated_gsv_correction_entries():
    r = verify_isolated(NOD, P3("y^2*z - x^3 - x^2*z"))
    kinds = [kind for _, kind, _ in r.per_point]
    # the divisor singularity contributes an ambient count and a correction
    assert "GSV" in kinds and "PH" in kinds


def test_isolated_check_and_expand_each_germ_once(localization_counts, tmp_path):
    """One ``verify --theorem iso`` localizes each divisor germ once: no
    (polynomial, point) is checked for reducedness twice, and no branch is
    expanded, since the GSV index there is read off two colengths."""
    checked, expanded = localization_counts
    problem = pathlib.Path(__file__).resolve().parent.parent / "corpus" / "problems" / "nodal_hamiltonian.json"
    argv = ["verify", "--theorem", "iso", "--input", str(problem),
            "--json", str(tmp_path / "report.json")]
    assert cli.main(argv) == 0
    assert checked and not expanded, expanded
    assert max(checked.values()) == 1, checked


# -------------------------------------------------------------- gsv on divisor

def test_total_gsv_line():
    r = verify_total_gsv(DIAG, P3("z"))
    assert (r.lhs, r.rhs, r.passed) == (2, 2, True)
    assert r.theorem == "TOTAL_GSV"
    _closed(r)


def test_total_gsv_cubics():
    for F, H in ((NOD, P3("y^2*z - x^3 - x^2*z")), (CUS, P3("y^2*z - x^3"))):
        r = verify_total_gsv(F, H)
        assert (r.lhs, r.rhs, r.passed) == (3, 3, True)
        _closed(r)


def test_divisor_with_a_shared_partial_factor():
    # in the chart z = 1 both partials of H share the factor
    # 2*(x^2 + y^2) - 1, a circle off the curve, which the search for the
    # divisor's singularities divides out
    rot = from_affine(P2("-y"), P2("x"))
    H = P3("(x^2 + y^2)*(x^2 + y^2 - z^2)")
    r = verify_total_gsv(rot, H)
    assert (r.lhs, r.rhs, r.passed) == (-4, -4, True)
    _closed(r)
    r = verify_isolated(rot, H)
    assert (r.lhs, r.rhs, r.passed) == (7, 7, True)
    _closed(r)


# ------------------------------------------------------------------- guards

def test_non_reduced_divisor_rejected():
    with pytest.raises(PreconditionError):
        verify_log_seh(DIAG, P3("x^2*y"))


def test_non_invariant_divisor_rejected():
    with pytest.raises(NotLogarithmicError):
        verify_log_seh(JOU, P3("x*y*z"))
    with pytest.raises(NotLogarithmicError):
        verify_total_gsv(RAD, P3("z"))


def test_inhomogeneous_divisor_rejected():
    with pytest.raises(PreconditionError):
        verify_log_seh(DIAG, P3("x*y + z"))
