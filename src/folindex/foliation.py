"""One-dimensional foliations on the projective plane.

A foliation is presented by a saturated polynomial vector field
A d/dx + B d/dy in the affine chart where the last homogeneous
coordinate is nonzero.  The other two standard charts carry transformed
representatives obtained from the coordinate changes (u, v) = (y/x, 1/x)
and (s, w) = (x/y, 1/y) by clearing denominators and removing the at
most one power of the infinity coordinate the components can share, so
every chart holds a saturated polynomial field again.

Writing k for the top degree of (A, B) and a_k, b_k for the top
homogeneous parts, the polynomial x*b_k - y*a_k decides the geometry at
infinity: when it is nonzero the line at infinity is invariant and the
foliation degree is k; when it vanishes identically the line at infinity
is generically transverse to the leaves and the degree is k - 1.  The
line bundle twist recorded for global index counts is 1 - degree; the
convention is fixed by requiring the global Poincare-Hopf count to be
degree^2 + degree + 1.

Singular points are computed chart by chart over the rationals and
simple extensions of any degree: resultant elimination in the affine
chart, univariate root isolation on the line at infinity, a membership
check at the one remaining corner point.  Each Galois orbit of points is
listed once, tagged with its size; points needing a tower of extensions
raise ExtensionRequiredError.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactcore import (
    QQ,
    FieldElem,
    MultiPoly,
    NotSaturatedError,
    PreconditionError,
    _univariate_coeffs,
    dehomogenize,
    divexact,
    divides,
    gcd_bivariate,
    gcd_univariate,
    resultant,
    squarefree_at,
    substitute,
    univariate_roots,
)
from .indices import VectorFieldGerm, ph_index

_CHART_VARS = {1: ("u", "v"), 2: ("s", "w")}


@dataclass(frozen=True)
class SingularPoint:
    """One Galois orbit of singular points, owned by a single chart.

    ``coordinates`` is a pair of field elements in the chart named by
    ``chart`` (0 is the defining affine chart, 1 covers the rest of the
    line at infinity, 2 the remaining corner); ``conjugacy_size`` counts
    the points of the orbit.
    """

    chart: int
    coordinates: tuple
    conjugacy_size: int
    on_divisor: object = None

    @property
    def descriptor(self):
        return self.coordinates[0].descriptor

    def projective_string(self):
        c1, c2 = (c.to_str() for c in self.coordinates)
        if self.chart == 0:
            return f"[{c1}:{c2}:1]"
        if self.chart == 1:
            return f"[1:{c1}:{c2}]"
        return f"[{c1}:1:{c2}]"

    def sort_key(self):
        return (self.chart, self.projective_string())


@dataclass(frozen=True)
class ProjFoliation:
    """A foliation given by compatible vector fields in the three charts."""

    charts: tuple   # VectorFieldGerm per chart, in (x, y), (u, v), (s, w)
    degree: int
    tangent_line_bundle_twist: int
    line_at_infinity_invariant: bool


def _move_to_chart(p, k, which):
    """p scaled by the k-th power of the infinity coordinate of the chart."""
    uu, vv = _CHART_VARS[which]
    variables = (uu, vv)
    terms = {}
    for (i, j), c in p.terms.items():
        key = (j, k - i - j) if which == 1 else (i, k - i - j)
        terms[key] = terms[key] + c if key in terms else c
    return MultiPoly(variables, p.descriptor, terms)


def _chart_fields(a, b, k, invariant):
    x, y = a.variables
    out = []
    for which in (1, 2):
        uu, vv = _CHART_VARS[which]
        U = MultiPoly.variable(uu, (uu, vv), a.descriptor)
        V = MultiPoly.variable(vv, (uu, vv), a.descriptor)
        if which == 1:
            am, bm = _move_to_chart(a, k, 1), _move_to_chart(b, k, 1)
            first, second = bm - U * am, -(V * am)
        else:
            am, bm = _move_to_chart(a, k, 2), _move_to_chart(b, k, 2)
            first, second = am - U * bm, -(V * bm)
        if not invariant:
            # x*b_k - y*a_k = 0 makes the infinity coordinate divide both
            # components once, and saturation forbids a second power
            first = divexact(first, V)
            second = divexact(second, V)
        out.append(VectorFieldGerm(first, second))
    return out


def from_affine(a, b):
    """Build the foliation defined by the affine field a d/dx + b d/dy.

    The input must be saturated (no common polynomial factor) and is
    taken over the rationals; charts, degree, twist and the invariance
    of the line at infinity are all derived here.
    """
    a, b = a._pair(b)
    if len(a.variables) != 2:
        raise PreconditionError("the affine field needs exactly two variables")
    if a.descriptor.is_extension:
        raise PreconditionError("foliations are defined over the rationals")
    if a.is_zero and b.is_zero:
        raise PreconditionError("the zero field defines no foliation")
    g = gcd_bivariate(a, b)
    if not g.is_constant:
        raise NotSaturatedError(
            f"components share the factor {g.to_str()}; divide it out first")
    x, y = a.variables
    k = max(a.total_degree(), b.total_degree())
    ak, bk = a.homogeneous_part(k), b.homogeneous_part(k)
    tangent = (MultiPoly.variable(x, a.variables, a.descriptor) * bk
               - MultiPoly.variable(y, a.variables, a.descriptor) * ak)
    invariant = not tangent.is_zero
    degree = k if invariant else k - 1
    chart1, chart2 = _chart_fields(a, b, k, invariant)
    charts = (VectorFieldGerm(a, b), chart1, chart2)
    return ProjFoliation(charts, degree, 1 - degree, invariant)


# -- singular locus ---------------------------------------------------------

def _restrict_second_to_zero(p):
    """p(t, 0) as a polynomial in the first variable alone."""
    t, _ = p.variables
    tv = MultiPoly.variable(t, (t,), p.descriptor)
    zero = MultiPoly.zero((t,), p.descriptor)
    return substitute(p, {p.variables[0]: tv, p.variables[1]: zero})


def _affine_points(A, B, chart):
    x, y = A.variables
    out = []
    if A.is_zero or B.is_zero:
        return out              # the other component is a nonzero constant
    if A.degree_in(y) <= 0 and B.degree_in(y) <= 0:
        return out              # coprime in x alone: no common zero
    R = resultant(A, B, y)
    if R.is_constant:
        return out
    for xr, _, desc, cx in univariate_roots(_univariate_coeffs(R, x), QQ):
        al, bl = A.lift(desc), B.lift(desc)
        yv = MultiPoly.variable(y, (y,), desc)
        xc = MultiPoly.constant(xr, (y,), desc)
        ay = substitute(al, {x: xc, y: yv})
        by = substitute(bl, {x: xc, y: yv})
        if ay.is_zero:
            g = by
        elif by.is_zero:
            g = ay
        else:
            g = gcd_univariate(ay, by, y)
        if g.is_constant:
            continue            # resultant root with no matching zero
        for yr, _, ydesc, cy in univariate_roots(_univariate_coeffs(g, y), desc):
            coords = (xr.lift(ydesc), yr)
            out.append(SingularPoint(chart, coords, cx * cy))
    return out


def _infinity_line_points(P, Q):
    u, v = P.variables
    out = []
    pu, qu = _restrict_second_to_zero(P), _restrict_second_to_zero(Q)
    if pu.is_zero and qu.is_zero:
        raise PreconditionError("chart field vanishes along the line at infinity")
    if pu.is_zero:
        g = qu
    elif qu.is_zero:
        g = pu
    else:
        g = gcd_univariate(pu, qu, u)
    if g.is_constant:
        return out
    for ur, _, desc, c in univariate_roots(_univariate_coeffs(g, u), QQ):
        coords = (ur, FieldElem.of(0, desc))
        out.append(SingularPoint(1, coords, c))
    return out


def singular_points(foliation, certify=False):
    """All singular points as one representative per Galois orbit.

    Every projective point is owned by the first chart containing it, so
    the affine chart is searched fully, the second chart only along its
    copy of the line at infinity and the third chart only at its origin.
    With ``certify`` the conjugacy-weighted Poincare-Hopf indices are
    summed and checked against degree^2 + degree + 1; a mismatch raises
    instead of returning a silently incomplete list.
    """
    a0, b0 = foliation.charts[0].components
    points = _affine_points(a0, b0, 0)
    p1, q1 = foliation.charts[1].components
    points += _infinity_line_points(p1, q1)
    a2, b2 = foliation.charts[2].components
    corner = {var: 0 for var in a2.variables}
    if a2.evaluate(corner).is_zero and b2.evaluate(corner).is_zero:
        zero = FieldElem.of(0, QQ)
        points.append(SingularPoint(2, (zero, zero), 1))
    points.sort(key=SingularPoint.sort_key)
    if certify:
        d = foliation.degree
        total = sum(p.conjugacy_size * ph_index(localize(foliation, p)).value
                    for p in points)
        if total != d * d + d + 1:
            raise PreconditionError(
                f"singular locus incomplete: Poincare-Hopf sum {total} "
                f"differs from {d * d + d + 1}")
    return points


def localize(foliation, point):
    """The chart field of the owning chart as a germ at the point."""
    a, b = foliation.charts[point.chart].components
    desc = point.descriptor
    return VectorFieldGerm(a.lift(desc), b.lift(desc), basepoint=point.coordinates)


# -- divisors ---------------------------------------------------------------

def _chart_trace(H, which):
    """H with the chart's unit coordinate set to 1, in that chart's variables."""
    uu, vv = _CHART_VARS[which]
    terms = {}
    for (i, j, l), c in H.terms.items():
        key = (j, l) if which == 1 else (i, l)
        terms[key] = terms[key] + c if key in terms else c
    return MultiPoly((uu, vv), H.descriptor, terms)


def divisor_in_charts(foliation, H):
    """Chart equations (h0, h1, h2) of a reduced homogeneous divisor.

    H must be homogeneous in three variables whose first two name the
    defining chart's coordinates; the third is the infinity coordinate.
    """
    x, y = foliation.charts[0].components[0].variables
    if len(H.variables) != 3 or H.variables[:2] != (x, y):
        raise PreconditionError(
            f"divisor needs variables ({x}, {y}, infinity-coordinate)")
    if H.is_zero or H.is_constant:
        raise PreconditionError("divisor equation must be nonconstant")
    if H.descriptor.is_extension:
        raise PreconditionError("divisors are defined over the rationals")
    degrees = {sum(k) for k in H.terms}
    if len(degrees) != 1:
        raise PreconditionError("divisor equation must be homogeneous")
    z = H.variables[2]
    h0 = dehomogenize(H, z)
    h1 = _chart_trace(H, 1)
    h2 = _chart_trace(H, 2)
    for h in (h0, h1):
        if not h.is_constant and not squarefree_at(h):
            raise PreconditionError("divisor equation has a repeated factor")
    return (h0, h1, h2)


def is_log_along(foliation, H):
    """True when every chart equation of the divisor divides its derivative.

    The derivative is taken along the chart field; invariance of each
    component of the divisor in every chart is exactly this divisibility.
    """
    for germ, h in zip(foliation.charts, divisor_in_charts(foliation, H)):
        if h.is_constant:
            continue
        a, b = germ.components
        x, y = a.variables
        vh = a * h.diff(x) + b * h.diff(y)
        if not divides(h, vh):
            return False
    return True
