"""Local indices of a vector field germ at a plane singular point.

Every germ here lives at the origin: the field and the curves it
interacts with are polynomials already translated there, once, by
whoever made the germ (``foliation.localize`` and the divisor germs of
``verify``; a caller with a germ elsewhere applies ``translate_to_origin``
to each polynomial).  Each curve is prepared once per computation: it
becomes a ``_LocalCurve`` that carries its reducedness proof, its Milnor
number and its branch expansions, so the Euler obstruction, the GSV
fallback and the irreducibility test of one computation share them
instead of checking and expanding again.  Branch computations double
their truncation order up to ``_PRECISION_CAP``; a field that vanishes
along a branch, which no precision certifies, is refused at once.

The computable surface is: the Poincare-Hopf index as a colength, the
Euler obstruction pairing of the field with an invariant curve through
branch lifts, the GSV index as a difference of two colengths (through
the Euler obstruction when those do not settle it) and the Schwartz
index derived from it, the
logarithmic index with respect to a free-divisor basis, and the derived
multiplicity / polar / chi quantities.  n = 2 is baked into every sign;
the reports carry their ingredients so each value can be recomputed from
its defining formula.
"""

from fractions import Fraction

from .exactcore import (
    MissingInputError,
    MultiPoly,
    NonIsolatedError,
    NonTangentError,
    NotLogarithmicError,
    PreconditionError,
    ResourceCapError,
    SaitoCheckError,
    _origin_coeff,
    gcd,
    try_divide,
)
from .localmult import (INFINITE, _colength, curve_multiplicity, intersection_multiplicity,
                        milnor_number)
from .puiseux import (InsufficientPrecisionError, _checked_germ, _germ_branches,
                      _polygon_edges, nash_lift_order)

_ORIGIN = (Fraction(0), Fraction(0))
_PRECISION_CAP = 512


class VectorFieldGerm:
    """A polynomial vector field germ a*d/dx + b*d/dy at the origin."""

    def __init__(self, a, b):
        a, b = a._pair(b)
        if len(a.variables) != 2:
            raise PreconditionError("vector field germs need exactly two variables")
        self.components = (a, b)
        self.variables = a.variables
        self.descriptor = a.descriptor

    def __repr__(self):
        a, b = self.components
        return f"VectorFieldGerm({a.to_str()}, {b.to_str()})"


class LogBasis:
    """A free basis (chi1, chi2) of the fields tangent to V(divisor)."""

    __slots__ = ("chi1", "chi2", "divisor")

    def __init__(self, chi1, chi2, divisor):
        self.chi1, self.chi2, self.divisor = chi1, chi2, divisor


class IndexReport:
    __slots__ = ("kind", "value", "ingredients")

    def __init__(self, kind, value, ingredients):
        self.kind, self.value, self.ingredients = kind, value, ingredients

    def __eq__(self, other):
        return type(other) is IndexReport and (self.kind, self.value, self.ingredients) == (
            other.kind, other.value, other.ingredients)


def _curve_over(v, f):
    """The curve equation f over the field of the germ v."""
    if f.is_zero:
        raise PreconditionError("the zero polynomial does not define a curve")
    return f._pair(v.components[0])[0]


class _LocalCurve:
    """A curve germ at the origin, for the length of one computation.

    The first expansion needs a proof that the curve passes through the
    origin and is reduced there.  Computing the Milnor number ``mu`` (at
    most once; a lift to a larger field keeps it) gives that proof, since
    ``milnor_number`` is finite only on a reduced germ; else the first
    expansion runs the square-free gcd test, as ``puiseux.branches`` does.
    Each precision is expanded at most once, and one that failed to
    certify fails again without being expanded again.
    """

    def __init__(self, poly, mu=None):
        self.poly = poly
        self._mu = mu
        self._expansions = {}

    def milnor(self):
        if self._mu is None:
            self._mu = milnor_number(self.poly, _ORIGIN)
        return self._mu

    def branches(self, precision):
        if self._mu is None and not self._expansions:
            _checked_germ(self.poly, _ORIGIN)
        if precision not in self._expansions:
            try:
                self._expansions[precision] = _germ_branches(
                    self.poly, precision, _ORIGIN, self.poly.variables)
            except InsufficientPrecisionError as exc:
                self._expansions[precision] = exc
        found = self._expansions[precision]
        if isinstance(found, InsufficientPrecisionError):
            raise found
        return found


def ph_index(v):
    """Colength of the component ideal: the Poincare-Hopf index at the point."""
    a, b = v.components
    if _origin_coeff(a) is not None or _origin_coeff(b) is not None:
        raise PreconditionError("vector field does not vanish at the origin")
    im = intersection_multiplicity(a, b, _ORIGIN)
    if im.value is INFINITE:
        raise NonIsolatedError("vector field has a non-isolated zero")
    return IndexReport("PH", im.value, {"colength": im.value})


def _derivation_applied(v, f_local):
    a, b = v.components
    fl, a = f_local._pair(a)
    fl, b = fl._pair(b)
    x, y = fl.variables
    return a * fl.diff(x) + b * fl.diff(y), fl


def is_logarithmic(v, f):
    """True when the field preserves the ideal of the curve: f | v(f)."""
    fl = _curve_over(v, f)
    vf, fl = _derivation_applied(v, fl)
    return try_divide(vf, fl) is not None


def _adaptive(curve, work):
    """Run ``work(branches)`` on a ``_LocalCurve`` with doubling precision
    until it certifies: on a reduced germ, only the cap can stop that."""
    prec = min(max(8, 2 * max(curve.poly.total_degree(), 1)), _PRECISION_CAP)
    while True:
        try:
            return work(curve.branches(prec))
        except InsufficientPrecisionError:
            if prec >= _PRECISION_CAP:
                raise ResourceCapError(f"precision cap {_PRECISION_CAP} reached "
                                       "before the computation was certified")
            prec = min(2 * prec, _PRECISION_CAP)


def euler_obstruction_field(v, f):
    """Sum of Nash lift orders of the field over the branches of V(f).

    Requires the field tangent to V(f) at the origin; the divisibility
    test f | v(f) and the branchwise tangency test must agree, and either
    failing is an error.
    """
    return _euler_obstruction_local(v, _LocalCurve(_curve_over(v, f)))


def _euler_obstruction_local(v, curve):
    return _pairing(v, curve, _tangent_equation(v, curve))


def _tangent_equation(v, curve):
    """The curve's equation over the field of ``v``, once v preserves its ideal."""
    vf, fl = _derivation_applied(v, curve.poly)
    if try_divide(vf, fl) is None:
        raise NonTangentError("field does not preserve the curve ideal: f does not divide v(f)")
    return fl


def _pairing(v, curve, fl):
    """Euler obstruction of ``v`` along ``curve``, whose equation over v's field is ``fl``."""
    if fl is not curve.poly:
        # the field lives over a larger field, where the branches may split
        curve = _LocalCurve(fl, curve._mu)
    a, b = v.components
    checked = False

    def lift_orders(bs):
        nonlocal checked
        try:
            return [(br, nash_lift_order(br, (a, b))) for br in bs]
        except InsufficientPrecisionError:
            # a*y' = b*x' along a tangent branch, so the component read
            # vanishes on it iff a and b both do: iff fl and gcd(a, b) share
            # a component through the origin, which no precision certifies
            # (gcd(fl, a) first: it is usually constant, and then b is free)
            if not checked:
                checked = True
                if _origin_coeff(gcd(gcd(fl, a), b)) is None:
                    raise PreconditionError("vector field vanishes along the branch")
            raise

    pairs = _adaptive(curve, lift_orders)
    orders = tuple(o for _, o in pairs)
    conj = tuple(br.conjugacy_size for br, _ in pairs)
    value = sum(o * c for o, c in zip(orders, conj))
    return IndexReport("EU_OBSTRUCTION", value, {
        "branch_orders": orders,
        "branch_conjugacy": conj,
    })


def gsv_index(v, f):
    """The order along V(f) of v / X_f: Euler obstruction + 1 - mu - m."""
    return _gsv(v, _LocalCurve(_curve_over(v, f)))


def _gsv(v, curve):
    """The GSV index of ``v`` along ``curve``: the order along the curve of
    v / X_f, where X_f = (-f_y, f_x), read off two colengths by
    ``_colength_gsv``, or else Eu + 1 - mu - m from the Euler
    obstruction's branch pairing, with its refusals.  The report's
    ``euler_obstruction`` is GSV - 1 + mu + m either way: on the colength
    route it is derived from the index, not computed, so it is no
    independent check of it, and ``euobs`` may refuse a germ whose
    ``gsv`` report carries it."""
    fl = _tangent_equation(v, curve)
    # mu before any expansion: a finite mu proves the curve reduced, so
    # I(f, h) is the sum of h's orders along the branches, and a fallback
    # expansion runs no gcd test
    mu = curve.milnor()
    m = curve_multiplicity(curve.poly, _ORIGIN)
    value = _colength_gsv(v, fl)
    if value is None:
        value = _pairing(v, curve, fl).value + 1 - mu - m
    return IndexReport("GSV", value, {
        "euler_obstruction": value - 1 + mu + m,
        "milnor": mu,
        "multiplicity": m,
        "mu_sign": -1,  # (-1)^(n-1) with n = 2
    })


def _colength_gsv(v, fl):
    """GSV = I(f, lambda*a + mu*b) - I(f, mu*f_x - lambda*f_y) for v = (a, b)
    tangent to the reduced curve f = 0, or None when undecided.

    Along each branch both v and X_f are multiples of the branch's
    tangent, so lambda*a + mu*b is v / X_f times mu*f_x - lambda*f_y
    there, and I(f, h) sums h's orders along the branches (Gomez-Mont,
    J. Algebraic Geom. 7, 1998; Brunella, Publ. Mat. 41, 1997).  Two
    finite colengths prove that neither form vanishes on a branch, so the
    first direction giving them answers.  A constant multiple of X_f has
    index 0 with no recursion.  None when a colength needs more than
    ``localmult._LOCKSTEP_STEPS`` steps per axis order, or when every
    direction meets an infinite one."""
    a, b = v.components
    fl, a = fl._pair(a)
    fl, b = fl._pair(b)
    x, y = fl.variables
    fx, fy = fl.diff(x), fl.diff(y)
    if _constant_multiple(a, b, -fy, fx):
        return 0
    for num, den in _direction_forms(a, b, fx, fy):
        if num.is_zero or den.is_zero:
            continue
        top = _colength(fl, num, _ORIGIN, bounded=True)
        if top is None:
            return None
        if top is INFINITE:
            continue
        bottom = _colength(fl, den, _ORIGIN, bounded=True)
        if bottom is None:
            return None
        if bottom is not INFINITE:
            return top - bottom
    return None


def _direction_forms(a, b, fx, fy):
    """(lambda*a + mu*b, mu*f_x - lambda*f_y) up to sign, for (lambda, mu) =
    (1, 0), (0, 1), (1, 1), (1, -1), (1, 2) in turn; colengths ignore the
    sign, so the first two need no arithmetic."""
    yield a, fy
    yield b, fx
    yield a + b, fx - fy
    yield a - b, fx + fy
    yield a + b * 2, fx * 2 - fy


def _constant_multiple(a, b, p, q):
    """True when (a, b) = c*(p, q) for a nonzero constant c; (p, q) is nonzero."""
    c = None
    for s, t in ((a, p), (b, q)):
        if s.terms.keys() != t.terms.keys():
            return False
        for k, coeff in t.terms.items():
            r = s.terms[k] / coeff
            if c is None:
                c = r
            elif r != c:
                return False
    return True


def schwartz_index(v, f):
    """GSV index shifted back by the Milnor number (n = 2 sign)."""
    return _schwartz_of(gsv_index(v, f))


def _schwartz_of(g):
    """The Schwartz report derived from a GSV report."""
    mu = g.ingredients["milnor"]
    value = g.value + mu
    ing = dict(g.ingredients)
    ing["gsv"] = g.value
    return IndexReport("SCHWARTZ", value, ing)


def _det(p, q, r, s):
    return p * s - q * r


def saito_check(chi1, chi2, f):
    """Unit u with det(chi1, chi2) = u * f; structured failure otherwise."""
    for chi in (chi1, chi2):
        if not is_logarithmic(chi, f):
            raise NotLogarithmicError("a basis field does not preserve the curve ideal")
    fl = _curve_over(chi1, f)
    a1, b1 = chi1.components
    a2, b2 = chi2.components
    det = _det(a1, a2, b1, b2)
    u = try_divide(det, fl)
    if u is None:
        raise SaitoCheckError("determinant of the basis is not a multiple of the divisor")
    if _origin_coeff(u) is None:
        raise SaitoCheckError("determinant unit factor vanishes at the origin")
    return u


def log_index(v, basis):
    """Colength of the coefficient ideal of the field in the Saito basis.

    The coefficients alpha with v = alpha1*chi1 + alpha2*chi2 are computed
    by Cramer's rule; the determinant is a unit times the divisor, and the
    unit is dropped since it does not change the ideal.
    """
    return _log_index(v, basis)


def _log_index(v, basis, ambient_ph=None):
    """``log_index``, given the Poincare-Hopf index when the caller has it."""
    chi1, chi2, f = basis.chi1, basis.chi2, basis.divisor
    saito_check(chi1, chi2, f)
    fl = _curve_over(v, f)
    if ambient_ph is None:
        ambient_ph = ph_index(v).value
    a, b = v.components
    a1, b1 = chi1.components
    a2, b2 = chi2.components
    num1 = _det(a, a2, b, b2)
    num2 = _det(a1, a, b1, b)
    alpha1 = try_divide(num1, fl)
    alpha2 = try_divide(num2, fl)
    if alpha1 is None or alpha2 is None:
        raise NotLogarithmicError("field is not in the span of the basis")
    if alpha1.is_zero and alpha2.is_zero:
        raise PreconditionError("field is identically zero in the basis")
    if alpha1.is_zero or alpha2.is_zero:
        nz = alpha2 if alpha1.is_zero else alpha1
        if _origin_coeff(nz) is None:
            raise NonIsolatedError("coefficient ideal is not zero-dimensional")
        value = 0
    else:
        im = intersection_multiplicity(alpha1, alpha2, _ORIGIN)
        if im.value is INFINITE:
            raise NonIsolatedError("coefficient ideal is not zero-dimensional")
        value = im.value
    return IndexReport("LOG", value, {"alpha_colength": value, "ambient_ph": ambient_ph})


def _one_branch(bs):
    # a single orbit of conjugate branches is still reducible when the
    # orbit has more than one member
    return len(bs) == 1 and bs[0].conjugacy_size == 1


def mu_along_curve(v, curve):
    """Multiplicity of the field along an irreducible invariant curve germ."""
    local = _LocalCurve(_curve_over(v, curve))
    # the branches come first, after the gcd test, which refuses a germ off
    # the curve or not reduced with the texts mu would; a reducible germ is
    # then refused before its Milnor number, which can take far longer
    if not _adaptive(local, _one_branch):
        raise PreconditionError("curve germ is not irreducible")
    # the GSV index computes mu; its branch fallback starts from the
    # branches just expanded
    s = _schwartz_of(_gsv(v, local))
    ing = dict(s.ingredients)
    ing["schwartz"] = s.value
    return IndexReport("MU_ALONG_CURVE", s.value, ing)


def polar_intersection(v, curve):
    """Intersection of the polar object of the field with the curve germ."""
    eu = euler_obstruction_field(v, curve)
    ing = dict(eu.ingredients)
    ing["euler_obstruction"] = eu.value
    return IndexReport("POLAR", eu.value, ing)


def chi_number(v, weighted_curves):
    """Index pairing against the complement of a balanced invariant divisor.

    ``weighted_curves`` lists (curve, coefficient) with positive integer
    coefficients; each curve must be an irreducible invariant germ.
    """
    ph = ph_index(v)
    total = 0
    schs = []
    degree = 0
    for curve, coeff in weighted_curves:
        if not isinstance(coeff, int) or coeff < 1:
            raise PreconditionError("curve coefficients must be positive integers")
        if not is_logarithmic(v, curve):
            raise NotLogarithmicError("a listed curve is not invariant under the field")
        s = mu_along_curve(v, curve)
        schs.append(s.value)
        total += coeff * s.value
        degree += coeff
    value = ph.value - total + (degree - 1)
    return IndexReport("CHI_NUMBER", value, {
        "ph": ph.value,
        "schwartz_each": tuple(schs),
        "degree": degree,
    })


# -- automatic bases ---------------------------------------------------------

def weighted_homogeneous_weights(f):
    """Positive coprime weights making f weighted homogeneous, or None.

    Returns (w1, w2, total) with w1*i + w2*j = total on every term: f
    qualifies exactly when its Newton polygon is one edge holding every
    term, and a monomial gets (1, 1, its degree).
    """
    if len(f.terms) == 1:
        return (1, 1, f.total_degree())
    edges = _polygon_edges(f)
    return edges[0][:3] if len(edges) == 1 and len(edges[0][3]) == len(f.terms) else None


def auto_saito_basis(f):
    """A Saito basis for V(f) at the origin, for the shapes we can write down.

    Smooth points get the Hamiltonian field paired with a multiple of the
    curve equation; weighted-homogeneous germs get the Euler and
    Hamiltonian fields.  Anything else must be supplied by the caller.
    """
    if f.is_zero:
        raise PreconditionError("the zero polynomial does not define a curve")
    if _origin_coeff(f) is not None:
        raise PreconditionError("point is not on the curve")
    x, y = f.variables
    fx = f.diff(x)
    fy = f.diff(y)
    hamiltonian = VectorFieldGerm(fy, -fx)
    zero = MultiPoly.zero(f.variables, f.descriptor)
    if _origin_coeff(fy) is not None:
        return LogBasis(hamiltonian, VectorFieldGerm(zero, f), f)
    if _origin_coeff(fx) is not None:
        return LogBasis(hamiltonian, VectorFieldGerm(f, zero), f)
    w = weighted_homogeneous_weights(f)
    if w is not None:
        w1, w2, _ = w
        X, Y = (MultiPoly.variable(z, f.variables, f.descriptor) for z in (x, y))
        return LogBasis(VectorFieldGerm(X * w1, Y * w2), hamiltonian, f)
    raise MissingInputError(
        "no automatic basis for this germ; supply chi1 and chi2 explicitly")
