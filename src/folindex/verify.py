"""Global index theorems on the projective plane as executable equalities.

Each verifier computes a Chern-class left-hand side from degree data
alone and a right-hand side as a conjugacy-weighted sum of local indices
at the singular points of the foliation, through entirely separate code
paths, and compares the two integers exactly.  The right-hand side is
always assembled from the per-point entries of the report, so the stored
breakdown and the verdict cannot drift apart.

Hypotheses that are not machine-decidable (holonomicity, strong Euler
homogeneity, the regularity of the stratification at infinity) are
recorded as assumptions inside the report; what can be checked is
checked: the divisor is reduced and homogeneous, the foliation is
logarithmic along it, every divisor singularity is a foliation
singularity (the flow-box argument makes that a consequence of
logarithmicity at isolated divisor singularities, so a violation means
inconsistent input), and each logarithmic index certifies its own Saito
determinant unit.  The singular points of the foliation and of the
divisor both come from the chart-ownership search of folindex.foliation;
each divisor singularity's germ is built once, and its Milnor number
serves both the left-hand side and the GSV index there.
"""

from __future__ import annotations

from .chern import (
    ChowClass,
    CSMClass,
    chern_virtual_quotient,
    chow_integral,
    csm_complement,
    twisted_index_sum,
)
from .exactcore import (
    MissingInputError,
    NotLogarithmicError,
    PreconditionError,
    divexact,
    gcd,
    translate_to_origin,
)
from .foliation import (
    _chart_zeros,
    _log_along_charts,
    _vanishes_at,
    divisor_in_charts,
    localize,
    singular_points,
)
from .indices import (_gsv, _LocalCurve, _log_index, _schwartz_of, auto_saito_basis, log_index,
                      ph_index)


class GlobalReport:
    """One verified global identity with its per-point breakdown.

    ``per_point`` holds (projective point, index kind, contribution)
    with contributions already conjugacy-weighted and signed, so their
    plain sum is ``rhs``; ``passed`` records the exact comparison.
    """

    __slots__ = ("theorem", "lhs", "rhs", "per_point", "passed", "assumptions", "details")

    def __init__(self, theorem, lhs, rhs, per_point, passed, assumptions=(), details=None):
        self.theorem = theorem
        self.lhs = lhs
        self.rhs = rhs
        self.per_point = per_point
        self.passed = passed
        self.assumptions = assumptions
        self.details = {} if details is None else details


def _local_divisor(chart_eqs, point):
    """The divisor's equation in the point's chart, translated so the point is the origin."""
    return translate_to_origin(chart_eqs[point.chart], point.coordinates)


def _divisor_germ_at(chart_eqs, point, dsing):
    """The divisor germ at a point on the divisor, reusing the germ (and Milnor
    number) of a divisor singularity, matched by chart and coordinates."""
    key = (point.chart, point.coordinates)
    return dsing[key][1] if key in dsing else _LocalCurve(_local_divisor(chart_eqs, point))


def _on_divisor(chart_eqs, point):
    return _vanishes_at((chart_eqs[point.chart],), point)


def _divisor_singular_at(chart_eqs, point):
    h = chart_eqs[point.chart]
    return _vanishes_at([h.diff(v) for v in h.variables], point)


def _divisor_singularities(chart_eqs):
    """{(chart, coordinates): (point, divisor germ)} per orbit of divisor singularities."""
    h0, h1, h2 = chart_eqs
    a, b = (h0.diff(v) for v in h0.variables)
    g = gcd(a, b)
    if not g.is_constant:
        # a shared partial factor cannot meet a reduced curve, so
        # removing it loses no curve singularities
        a, b = divexact(a, g), divexact(b, g)
    chart_polys = [(a, b, h0)] + [(h, *(h.diff(v) for v in h.variables))
                                  for h in (h1, h2)]
    return {(q.chart, q.coordinates): (q, _LocalCurve(_local_divisor(chart_eqs, q)))
            for q in _chart_zeros(chart_polys)}


def _checked_divisor(foliation, H):
    chart_eqs = divisor_in_charts(foliation, H)
    if not _log_along_charts(foliation, chart_eqs):
        raise NotLogarithmicError(
            "foliation is not logarithmic along the divisor")
    return chart_eqs


def _checked_divisor_singularities(foliation, chart_eqs):
    dsing = _divisor_singularities(chart_eqs)
    for q, _ in dsing.values():
        if not _vanishes_at(foliation.charts[q.chart].components, q):
            raise PreconditionError(
                f"divisor singularity at {q.projective_string()} is not a "
                "foliation singularity; logarithmicity at an isolated "
                "divisor singularity forbids that")
    return dsing


def _divisor_degree(H):
    return sum(next(iter(H.terms)))


def _saito_basis_at(h, point):
    try:
        return auto_saito_basis(h)
    except PreconditionError as exc:
        raise MissingInputError(
            f"no automatic Saito basis at {point.projective_string()}: {exc}") from exc


def verify_baum_bott(foliation):
    """Total Poincare-Hopf count against the degree polynomial d^2 + d + 1."""
    d = foliation.degree
    lhs = twisted_index_sum(CSMClass.projective_plane(), 1 - d)
    per = []
    for p in singular_points(foliation):
        v = localize(foliation, p)
        per.append((p.projective_string(), "PH",
                    p.conjugacy_size * ph_index(v).value))
    rhs = sum(val for _, _, val in per)
    return GlobalReport(
        "BAUM_BOTT", lhs, rhs, tuple(per), lhs == rhs,
        assumptions=("foliation singularities are isolated (checked pointwise)",))


def verify_log_seh(foliation, H):
    """Twisted complement count against Poincare-Hopf and logarithmic indices.

    The left-hand side integrates the twisted CSM class of the divisor
    complement; the right-hand side takes the Poincare-Hopf index at
    singular points off the divisor and the logarithmic index on it.
    """
    chart_eqs = _checked_divisor(foliation, H)
    dsing = _checked_divisor_singularities(foliation, chart_eqs)
    k = _divisor_degree(H)
    mus = tuple(germ.milnor() for q, germ in dsing.values() for _ in range(q.conjugacy_size))
    d = foliation.degree
    lhs = twisted_index_sum(csm_complement(k, mus), 1 - d)
    per = []
    for p in singular_points(foliation):
        v = localize(foliation, p)
        if _on_divisor(chart_eqs, p):
            basis = _saito_basis_at(_local_divisor(chart_eqs, p), p)
            per.append((p.projective_string(), "LOG",
                        p.conjugacy_size * log_index(v, basis).value))
        else:
            per.append((p.projective_string(), "PH",
                        p.conjugacy_size * ph_index(v).value))
    rhs = sum(val for _, _, val in per)
    return GlobalReport(
        "COR_SEH", lhs, rhs, tuple(per), lhs == rhs,
        assumptions=(
            "divisor asserted holonomic and strongly Euler homogeneous",
            "divisor freeness evidenced pointwise by Saito determinant units",
            "foliation logarithmic along the divisor (checked)"),
        details={"divisor_degree": k, "divisor_milnor_numbers": mus})


def verify_isolated(foliation, H):
    """Virtual-bundle count against two index sums for an isolated-singular divisor.

    The left-hand side integrates the Chern class of the tangent bundle
    minus the divisor bundle minus the twist.  The right-hand side is
    computed two ways: with Poincare-Hopf off the smooth divisor,
    logarithmic indices on it and GSV corrections at divisor
    singularities; and with Schwartz indices on the divisor plus the
    divisor Milnor numbers.  All three integers must agree.
    """
    chart_eqs = _checked_divisor(foliation, H)
    dsing = _checked_divisor_singularities(foliation, chart_eqs)
    k = _divisor_degree(H)
    d = foliation.degree
    virt = chern_virtual_quotient(
        chern_virtual_quotient(ChowClass.tangent(2),
                               ChowClass.hyperplane_bundle(2, k)),
        ChowClass.hyperplane_bundle(2, 1 - d))
    lhs = chow_integral(virt)
    per = []
    rhs_schwartz = 0
    mu_total = 0
    for p in singular_points(foliation):
        v = localize(foliation, p)
        w = p.conjugacy_size
        name = p.projective_string()
        ph = ph_index(v).value
        if not _on_divisor(chart_eqs, p):
            per.append((name, "PH", w * ph))
            rhs_schwartz += w * ph
            continue
        germ = _divisor_germ_at(chart_eqs, p, dsing)
        gsv = _gsv(v, germ)
        rhs_schwartz += w * (ph - _schwartz_of(gsv).value)
        if _divisor_singular_at(chart_eqs, p):
            per.append((name, "PH", w * ph))
            per.append((name, "GSV", -w * gsv.value))
        else:
            basis = _saito_basis_at(germ.poly, p)
            per.append((name, "LOG", w * _log_index(v, basis, ph).value))
    for q, germ in dsing.values():
        mu_total += q.conjugacy_size * germ.milnor()
    rhs_schwartz += mu_total
    rhs = sum(val for _, _, val in per)
    passed = lhs == rhs == rhs_schwartz
    return GlobalReport(
        "COR_ISO", lhs, rhs, tuple(per), passed,
        assumptions=(
            "divisor reduced with isolated singularities (checked)",
            "foliation logarithmic along the divisor (checked)",
            "regularity of the pair at infinity asserted"),
        details={"divisor_degree": k,
                 "rhs_schwartz_form": rhs_schwartz,
                 "divisor_milnor_total": mu_total})


def verify_total_gsv(foliation, H):
    """Degree count k(2 + d - k) against the GSV indices on the divisor."""
    chart_eqs = _checked_divisor(foliation, H)
    dsing = _checked_divisor_singularities(foliation, chart_eqs)
    k = _divisor_degree(H)
    d = foliation.degree
    lhs = k * (2 + d - k)
    per = []
    for p in singular_points(foliation):
        if not _on_divisor(chart_eqs, p):
            continue
        v = localize(foliation, p)
        per.append((p.projective_string(), "GSV",
                    p.conjugacy_size * _gsv(v, _divisor_germ_at(chart_eqs, p, dsing)).value))
    rhs = sum(val for _, _, val in per)
    return GlobalReport(
        "TOTAL_GSV", lhs, rhs, tuple(per), lhs == rhs,
        assumptions=(
            "divisor reduced with isolated singularities (checked)",
            "foliation logarithmic along the divisor (checked)"),
        details={"divisor_degree": k})
