"""Chow arithmetic on the plane: virtual quotients, twists, CSM classes,
and the topological cross-checks behind the global verifiers."""

import pytest
from hypothesis import given, settings, strategies as st

from folindex.chern import (
    ChowClass,
    CSMClass,
    chern_virtual_quotient,
    chow_integral,
    chow_mul,
    csm_complement,
    csm_curve,
    log_chern_snc,
    top_chern_twist,
    twisted_index_sum,
)
from folindex.exactcore import PreconditionError


def test_tangent_class():
    T = ChowClass.tangent(2)
    assert T.coefficients == (1, 3, 3)
    assert chow_integral(T) == 3


def test_ring_arithmetic():
    a = ChowClass(2, (1, 1, 0))
    b = ChowClass(2, (1, -1, 0))
    assert chow_mul(a, b).coefficients == (1, 0, -1)
    assert chow_integral(ChowClass(2, (5, 0, 0))) == 0
    with pytest.raises(PreconditionError):
        chow_mul(a, ChowClass(3, (1, 0, 0, 0)))


def test_virtual_quotient_degree_counts():
    T = ChowClass.tangent(2)
    for d in range(0, 7):
        q = chern_virtual_quotient(T, ChowClass.hyperplane_bundle(2, 1 - d))
        assert chow_integral(q) == d * d + d + 1, d
    assert chern_virtual_quotient(T, ChowClass.hyperplane_bundle(2, 0)) == T


def test_double_quotient_closed_form():
    T = ChowClass.tangent(2)
    for k in range(-3, 4):
        for l0 in range(-3, 4):
            q = chern_virtual_quotient(
                chern_virtual_quotient(T, ChowClass.hyperplane_bundle(2, k)),
                ChowClass.hyperplane_bundle(2, l0))
            want = 3 - 3 * k - 3 * l0 + k * k + k * l0 + l0 * l0
            assert chow_integral(q) == want, (k, l0)


def test_quotient_denominator_shape():
    with pytest.raises(PreconditionError):
        chern_virtual_quotient(ChowClass.tangent(2), ChowClass(2, (1, 1, 1)))


small_int = st.integers(min_value=-9, max_value=9)


@settings(max_examples=80, deadline=None)
@given(small_int, small_int, small_int, st.integers(min_value=-6, max_value=6))
def test_twist_route_equals_quotient_route(c0, c1, c2, ell):
    e = ChowClass(2, (c0, c1, c2))
    assert top_chern_twist(e, ell) == chow_integral(
        chern_virtual_quotient(e, ChowClass.hyperplane_bundle(2, ell)))


def test_twist_edge_values():
    T = ChowClass.tangent(2)
    assert top_chern_twist(ChowClass.one(2), 0) == 0
    assert top_chern_twist(T, 0) == 3
    with pytest.raises(PreconditionError):
        top_chern_twist(T, True)


def test_csm_curve_components():
    assert csm_curve(2).components == (2, 2, 0)             # smooth conic
    assert csm_curve(3, (2,)).components == (2, 3, 0)       # cuspidal cubic
    assert csm_curve(3, (1,)).components == (1, 3, 0)       # nodal cubic
    assert csm_curve(3, (1, 1, 1)).components == (3, 3, 0)  # triangle


def test_csm_complement_components():
    assert csm_complement(1).components == (1, 2, 1)
    assert csm_complement(3, (1, 1, 1)).components == (0, 0, 1)
    assert csm_complement(3, (2,)).components == (1, 0, 1)


def test_ill_posed_curve_data_is_refused():
    for bad in ((-5,), (1, -1)):
        with pytest.raises(PreconditionError):
            csm_curve(3, bad)
        with pytest.raises(PreconditionError):
            csm_complement(3, bad)
    for bad in ([0, -2], [1, 0], [-1]):
        with pytest.raises(PreconditionError):
            log_chern_snc(bad)


def test_log_chern_snc():
    assert log_chern_snc([1, 1, 1]).coefficients == (1, 0, 0)
    assert log_chern_snc([1]).coefficients == (1, 2, 1)
    assert log_chern_snc([1, 2]).coefficients == (1, 0, 1)
    # log classes and complement classes carry the same numbers componentwise
    assert log_chern_snc([1]).coefficients == csm_complement(1).components
    assert log_chern_snc([2]).coefficients == csm_complement(2).components


def test_twisted_index_sum():
    for d in range(0, 7):
        assert twisted_index_sum(CSMClass.projective_plane(), 1 - d) == d * d + d + 1
    assert twisted_index_sum(csm_complement(3, (1, 1, 1)), 0) == 0
    assert twisted_index_sum(csm_complement(1), 0) == 1


# ------------------------------------------------- normalization cross-check

def chi_by_normalization(degrees, points):
    """Topological Euler number of a plane curve through its normalization.

    ``points``: per singular point, a list of (component index, local
    milnor number, branch count) for each component through the point.
    """
    genus = [(k - 1) * (k - 2) // 2 for k in degrees]
    chi = 0
    for pt in points:
        for idx, mu, r in pt:
            delta2 = mu + r - 1
            assert delta2 % 2 == 0
            genus[idx] -= delta2 // 2
        total_branches = sum(r for _, _, r in pt)
        chi -= total_branches - 1
    chi += sum(2 - 2 * g for g in genus)
    return chi


def test_csm_degree_matches_normalization():
    # triangle of lines, three ordinary crossings
    assert chi_by_normalization(
        [1, 1, 1],
        [[(0, 0, 1), (1, 0, 1)], [(0, 0, 1), (2, 0, 1)], [(1, 0, 1), (2, 0, 1)]],
    ) == 3 == csm_curve(3, (1, 1, 1)).components[0]
    # nodal cubic
    assert chi_by_normalization([3], [[(0, 1, 2)]]) == 1 == csm_curve(3, (1,)).components[0]
    # cuspidal cubic
    assert chi_by_normalization([3], [[(0, 2, 1)]]) == 2 == csm_curve(3, (2,)).components[0]
    # smooth conic
    assert chi_by_normalization([2], []) == 2 == csm_curve(2).components[0]
    # line meeting a conic transversally twice
    assert chi_by_normalization(
        [1, 2], [[(0, 0, 1), (1, 0, 1)], [(0, 0, 1), (1, 0, 1)]],
    ) == 2 == csm_curve(3, (1, 1)).components[0]
