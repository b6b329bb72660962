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

Chart ownership.  Every projective point [x:y:z] belongs to the first
chart containing it: chart 0 (z = 1) owns the whole affine plane, chart
1 (x = 1) owns only its copy of the line at infinity (v = 0), and chart
2 (y = 1) owns only its origin [0:1:0].  A homogeneous polynomial reads
in a chart by setting that chart's unit coordinate to 1 (``_in_chart``).
The singular points of the foliation and those of an invariant divisor
are found by one search under this rule (``_chart_zeros``): resultant
elimination in the affine chart, univariate root isolation on the line
at infinity, a membership check at the corner.  It works over the
rationals and simple extensions of any degree; each Galois orbit of
points is listed once, tagged with its size, and points needing a tower
of extensions raise ExtensionRequiredError.
"""

from __future__ import annotations

import functools

from .exactcore import (
    QQ,
    FieldElem,
    MultiPoly,
    NotSaturatedError,
    PreconditionError,
    _univariate_coeffs,
    divexact,
    gcd,
    resultant,
    squarefree_at,
    substitute,
    translate_to_origin,
    univariate_roots,
)
from .indices import VectorFieldGerm, is_logarithmic

_CHART_VARS = {1: ("u", "v"), 2: ("s", "w")}
_KEPT = ((0, 1), (1, 2), (0, 2))    # exponents of (x, y, z) each chart keeps


class SingularPoint:
    """One Galois orbit of singular points, owned by a single chart.

    ``coordinates`` is a pair of field elements in the chart named by
    ``chart`` (0 is the defining affine chart, 1 covers the rest of the
    line at infinity, 2 the remaining corner); ``conjugacy_size`` counts
    the points of the orbit.
    """

    __slots__ = ("chart", "coordinates", "conjugacy_size")

    def __init__(self, chart, coordinates, conjugacy_size):
        self.chart, self.coordinates, self.conjugacy_size = chart, coordinates, conjugacy_size

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


class ProjFoliation:
    """A foliation given by compatible vector fields in the three charts."""

    __slots__ = ("charts", "degree", "tangent_line_bundle_twist", "line_at_infinity_invariant")

    def __init__(self, charts, degree, tangent_line_bundle_twist, line_at_infinity_invariant):
        self.charts = charts   # VectorFieldGerm per chart, in (x, y), (u, v), (s, w)
        self.degree = degree
        self.tangent_line_bundle_twist = tangent_line_bundle_twist
        self.line_at_infinity_invariant = line_at_infinity_invariant


def _in_chart(triples, which, variables, descriptor):
    """Homogeneous terms {(i, j, l): c} in (x, y, z) read in chart ``which``.

    The chart's unit coordinate is set to 1 and the two kept exponents
    go to ``variables``; the map works on exponents alone, so no
    variable name is reserved.
    """
    p, q = _KEPT[which]
    return MultiPoly(variables, descriptor,
                     {(e[p], e[q]): c for e, c in triples.items()})


def _chart_fields(a, b, k, invariant):
    """The fields of charts 1 and 2: one formula, with a and b swapped for chart 2."""
    out = []
    for which, (p, q) in ((1, (a, b)), (2, (b, a))):
        names = _CHART_VARS[which]
        U, V = (MultiPoly.variable(n, names, a.descriptor) for n in names)
        pm, qm = (_in_chart({(i, j, k - i - j): c for (i, j), c in f.terms.items()},
                            which, names, a.descriptor) for f in (p, q))
        first, second = qm - U * pm, -(V * pm)
        if not invariant:
            # x*b_k - y*a_k = 0 makes the infinity coordinate divide both
            # components once, and saturation forbids a second power
            first, second = divexact(first, V), divexact(second, V)
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
    g = gcd(a, b)
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


# -- chart-owned zeros ------------------------------------------------------

def _vanishes_at(polys, point):
    """True when every polynomial, in the point's chart, vanishes at it."""
    return all(p.evaluate(dict(zip(p.variables, point.coordinates))).is_zero
               for p in polys)


def _affine_points(A, B):
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
        g = gcd(ay, by)
        if g.is_constant:
            continue            # resultant root with no matching zero
        for yr, _, ydesc, cy in univariate_roots(_univariate_coeffs(g, y), desc):
            coords = (xr.lift(ydesc), yr)
            out.append(SingularPoint(0, coords, cx * cy))
    return out


def _chart_zeros(chart_polys):
    """Common zeros of a polynomial list per chart, one SingularPoint per orbit.

    The search follows the ownership rule of the module docstring.  Chart
    0 eliminates its first two polynomials and the rest only filter;
    chart 1 takes the ``gcd`` of its polynomials on the line v = 0; chart
    2 tests its origin.  Points come in chart order, unsorted.
    """
    first, second, *rest = chart_polys[0]
    points = [q for q in _affine_points(first, second) if _vanishes_at(rest, q)]
    u, _ = chart_polys[1][0].variables
    slices = [MultiPoly((u,), p.descriptor,
                        {(i,): c for (i, j), c in p.terms.items() if j == 0})
              for p in chart_polys[1]]
    g = functools.reduce(gcd, slices)
    if g.is_zero:
        raise PreconditionError("chart field vanishes along the line at infinity")
    if not g.is_constant:
        for ur, _, desc, c in univariate_roots(_univariate_coeffs(g, u), QQ):
            points.append(SingularPoint(1, (ur, FieldElem.of(0, desc)), c))
    zero = FieldElem.of(0, QQ)
    corner = SingularPoint(2, (zero, zero), 1)
    if _vanishes_at(chart_polys[2], corner):
        points.append(corner)
    return points


def singular_points(foliation):
    """All singular points as one representative per Galois orbit, sorted."""
    points = _chart_zeros([germ.components for germ in foliation.charts])
    points.sort(key=SingularPoint.sort_key)
    return points


def localize(foliation, point):
    """The chart field of the owning chart, translated so the point is the origin."""
    return VectorFieldGerm(*(translate_to_origin(c, point.coordinates)
                             for c in foliation.charts[point.chart].components))


# -- divisors ---------------------------------------------------------------

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
    h0, h1, h2 = (_in_chart(H.terms, which, names, H.descriptor) for which, names
                  in enumerate(((x, y), _CHART_VARS[1], _CHART_VARS[2])))
    for h in (h0, h1):
        if not h.is_constant and not squarefree_at(h):
            raise PreconditionError("divisor equation has a repeated factor")
    return (h0, h1, h2)


def is_log_along(foliation, H):
    """True when every chart equation of the divisor divides its derivative.

    The derivative is taken along the chart field; invariance of each
    component of the divisor in every chart is exactly this divisibility.
    """
    return _log_along_charts(foliation, divisor_in_charts(foliation, H))


def _log_along_charts(foliation, chart_eqs):
    """:func:`is_log_along` on chart equations already built by
    :func:`divisor_in_charts`."""
    return all(h.is_constant or is_logarithmic(germ, h)
               for germ, h in zip(foliation.charts, chart_eqs))
