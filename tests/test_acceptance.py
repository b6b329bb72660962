"""The acceptance gate: ten numbered criteria, every comparison exact.

Each test prints a single PASS/FAIL line on the terminal (bypassing
capture) so a plain ``pytest -v`` run shows the verdict per criterion.
"""

import hashlib
import random
from contextlib import contextmanager

import pytest

from folindex.chern import (
    ChowClass,
    CSMClass,
    chern_virtual_quotient,
    chow_integral,
    csm_complement,
    csm_curve,
    log_chern_snc,
    top_chern_twist,
    twisted_index_sum,
)
from folindex.confun import (
    complement_of_divisor,
    index_pairing,
    indicator_curve,
    nearby_cycles,
)
from folindex.exactcore import NonTangentError
from folindex.foliation import from_affine
from folindex.indices import (
    auto_saito_basis,
    chi_number,
    euler_obstruction_field,
    gsv_index,
    log_index,
    ph_index,
    schwartz_index,
)
from folindex.localmult import curve_multiplicity, milnor_number
from folindex.verify import (
    verify_baum_bott,
    verify_isolated,
    verify_log_seh,
    verify_total_gsv,
)

from conftest import ORIGIN, P2, P3, dual_oracle_pairs, germ
from test_chern import chi_by_normalization

NODE = P2("x*y")
CUSP = P2("y^2 - x^3")
TACNODE = P2("y^2 - x^4")

# (divisor, tangent field, mu, mult, euler obstruction, gsv, schwartz)
TABLE = [
    (NODE, germ("x", "y"), 1, 2, 2, 0, 1),
    (NODE, germ("x", "-y"), 1, 2, 2, 0, 1),
    (CUSP, germ("2*x", "3*y"), 2, 2, 2, -1, 1),
    (CUSP, germ("2*y", "3*x^2"), 2, 2, 3, 0, 2),
    (TACNODE, germ("x", "2*y"), 3, 2, 2, -2, 1),
    (TACNODE, germ("2*y", "4*x^3"), 3, 2, 4, 0, 3),
]

COMPONENTS = {
    id(NODE): [(P2("x"), 1), (P2("y"), 1)],
    id(CUSP): [(CUSP, 1)],
    id(TACNODE): [(P2("y - x^2"), 1), (P2("y + x^2"), 1)],
}


@pytest.fixture
def announce(capsys):
    @contextmanager
    def _criterion(num, label):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"\nACCEPTANCE {num:2d} FAIL  {label}", flush=True)
            raise
        with capsys.disabled():
            print(f"\nACCEPTANCE {num:2d} PASS  {label}", flush=True)

    return _criterion


def test_criterion_01_local_index_table(announce):
    with announce(1, "local index table on node, cusp, tacnode"):
        for f, v, mu, m, eu, gsv, sch in TABLE:
            assert milnor_number(f, ORIGIN) == mu
            assert curve_multiplicity(f, ORIGIN) == m
            assert euler_obstruction_field(v, f).value == eu
            assert gsv_index(v, f).value == gsv
            assert schwartz_index(v, f).value == sch
        # scaling the tangent field does not move any of the indices
        assert euler_obstruction_field(germ("2*x", "4*y"), TACNODE).value == 2
        assert gsv_index(germ("2*x", "4*y"), TACNODE).value == -2
        # the radial field is tangent to the node only; elsewhere it is refused
        for f in (CUSP, TACNODE):
            with pytest.raises(NonTangentError):
                euler_obstruction_field(germ("x", "y"), f)


def test_criterion_02_identity_suite(announce):
    with announce(2, "index identities and microlocal pairings"):
        # difference of the two corrected indices is minus the milnor number
        for f, v, mu, *_ in TABLE:
            assert gsv_index(v, f).value - schwartz_index(v, f).value == -mu
        # basis-coefficient count vanishes at nondegenerate zeros
        node_basis = auto_saito_basis(NODE)
        for v in (germ("x", "-y"), germ("x", "2*y")):
            assert log_index(v, node_basis).value == 0
        assert log_index(germ("2*x", "3*y"), auto_saito_basis(CUSP)).value == 0
        # at smooth divisor points the three counts are linked
        line = P2("y")
        line_basis = auto_saito_basis(line)
        for a, b in (("x", "2*y"), ("x^2", "2*y"), ("x + y", "(x - y)*y")):
            v = germ(a, b)
            assert gsv_index(v, line).value == \
                ph_index(v).value - log_index(v, line_basis).value
        # pairings against the three constructible functions of the divisor
        for f, v, *_ in TABLE:
            assert index_pairing(indicator_curve(f), v) == schwartz_index(v, f).value
            assert index_pairing(nearby_cycles(f), v) == gsv_index(v, f).value
            comp = complement_of_divisor(COMPONENTS[id(f)])
            assert index_pairing(comp, v) == log_index(v, auto_saito_basis(f)).value


# sha256 of the 100 sampled triples, one line "f|g|fulton|total" per pair
# (f.to_str(), g.to_str() and the two integers), joined by "\n", UTF-8
DUAL_ORACLE_SHA256 = "f5d23432c1305333aa95ab9d55cab21e6170cc930db359b19b15ee3828a71123"


def test_criterion_03_dual_oracle(announce):
    with announce(3, "recursion vs branch expansion on 100 random pairs"):
        pairs = dual_oracle_pairs(count=100, seed=20260822)
        assert len(pairs) == 100
        for f, g, fulton, total in pairs:
            assert total == fulton, (f.to_str(), g.to_str())
        lines = (f"{f.to_str()}|{g.to_str()}|{fulton}|{total}" for f, g, fulton, total in pairs)
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == DUAL_ORACLE_SHA256


def test_criterion_04_degree_count(announce):
    with announce(4, "global index sum d^2 + d + 1 for d = 0, 1, 2"):
        r = verify_baum_bott(from_affine(P2("x"), P2("y")))
        assert (r.lhs, r.rhs, r.passed) == (1, 1, True)
        r = verify_baum_bott(from_affine(P2("x"), P2("2*y")))
        assert (r.lhs, r.rhs, r.passed) == (3, 3, True)
        r = verify_baum_bott(from_affine(P2("y^2 - x^3"), P2("1 - x^2*y")))
        assert (r.lhs, r.rhs, r.passed) == (7, 7, True)
        assert sorted(w for *_, w in r.per_point) == [1, 6]


def test_criterion_05_log_complement(announce):
    with announce(5, "twisted complement count on line, two lines, triangle"):
        diag = from_affine(P2("x"), P2("2*y"))
        r = verify_log_seh(diag, P3("x*y*z"))
        assert (r.lhs, r.rhs, r.passed) == (0, 0, True)
        r = verify_log_seh(diag, P3("z"))
        assert (r.lhs, r.rhs, r.passed) == (1, 1, True)
        r = verify_log_seh(diag, P3("x*y"))
        assert r.passed and r.lhs == r.rhs


def test_criterion_06_isolated_divisor(announce):
    with announce(6, "three-way count at isolated divisor singularities"):
        nod = from_affine(P2("2*y"), P2("2*x + 3*x^2"))
        r = verify_isolated(nod, P3("y^2*z - x^3 - x^2*z"))
        assert (r.lhs, r.rhs, r.passed) == (4, 4, True)
        assert r.details["rhs_schwartz_form"] == 4
        cus = from_affine(P2("2*y"), P2("3*x^2"))
        r = verify_isolated(cus, P3("y^2*z - x^3"))
        assert (r.lhs, r.rhs, r.passed) == (4, 4, True)
        assert r.details["rhs_schwartz_form"] == 4


def test_criterion_07_total_gsv(announce):
    with announce(7, "gsv sum k(2 + d - k) on invariant curves"):
        diag = from_affine(P2("x"), P2("2*y"))
        r = verify_total_gsv(diag, P3("z"))
        assert (r.lhs, r.rhs, r.passed) == (2, 2, True)
        for a, b, H in (("2*y", "2*x + 3*x^2", "y^2*z - x^3 - x^2*z"),
                        ("2*y", "3*x^2", "y^2*z - x^3")):
            F = from_affine(P2(a), P2(b))
            r = verify_total_gsv(F, P3(H))
            k = r.details["divisor_degree"]
            assert r.passed
            assert r.lhs == k * (2 + F.degree - k) == r.rhs


def test_criterion_08_chi_number(announce):
    with announce(8, "complement pairing nonnegative, zero on balanced germs"):
        balanced = [
            (germ("x", "-y"), [(P2("x"), 1), (P2("y"), 1)]),
            (germ("2*y", "3*x^2"), [(CUSP, 1)]),
            (germ("2*x", "3*y"), [(CUSP, 1)]),
        ]
        for v, curves in balanced:
            value = chi_number(v, curves).value
            assert value >= 0
            assert value == 0
        # for the weighted-homogeneous divisor the two counts coincide
        ham = germ("2*y", "3*x^2")
        assert chi_number(ham, [(CUSP, 1)]).value == \
            log_index(ham, auto_saito_basis(CUSP)).value


def test_criterion_09_csm_euler(announce):
    with announce(9, "curve class degrees match the normalization count"):
        assert csm_curve(3, (1, 1, 1)).components[0] == 3 == chi_by_normalization(
            [1, 1, 1],
            [[(0, 0, 1), (1, 0, 1)], [(0, 0, 1), (2, 0, 1)], [(1, 0, 1), (2, 0, 1)]])
        assert csm_curve(3, (1,)).components[0] == 1 == chi_by_normalization(
            [3], [[(0, 1, 2)]])
        assert csm_curve(3, (2,)).components[0] == 2 == chi_by_normalization(
            [3], [[(0, 2, 1)]])
        # smooth-curve complements against the log classes, matched by dimension
        for k in (1, 2):
            assert log_chern_snc([k]).coefficients == csm_complement(k).components
        for k in (1, 2, 3, 4):
            assert log_chern_snc([k]).coefficients == \
                tuple(reversed(csm_complement(k).components))


def test_criterion_10_chern_identity(announce):
    with announce(10, "twist route equals quotient route, degree polynomial"):
        rng = random.Random(99)
        for _ in range(50):
            e = ChowClass(2, (rng.randint(-9, 9), rng.randint(-9, 9),
                              rng.randint(-9, 9)))
            for ell in range(-5, 6):
                assert top_chern_twist(e, ell) == chow_integral(
                    chern_virtual_quotient(e, ChowClass.hyperplane_bundle(2, ell)))
        for d in range(0, 7):
            assert twisted_index_sum(CSMClass.projective_plane(), 1 - d) == d * d + d + 1
