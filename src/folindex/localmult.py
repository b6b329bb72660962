"""Local intersection numbers of plane curves, Milnor numbers, multiplicities.

The central routine is an exact recursion on the defining equations that
evaluates the colength of the ideal (f, g) in the local ring at a point.
It is field-agnostic and independent of the series-expansion machinery,
which lets the two act as oracles for each other in the test suite.

When one side is a monomial c*x^a*y^b at the point, no recursion runs:
Fulton's properties give I(c*x^a*y^b, g) = a*I(x, g) + b*I(y, g), and
I(x, g) is the order in y of g(0, y) (W. Fulton, Algebraic Curves,
sec. 3.3), so the colength is read off g's terms.  The corpus's divisors
(x*y*z), fields ((x, 2*y)) and chart partials (u^2, 2*u*v) make this the
common case.

Otherwise one step function restricts to the second axis; the other
axis order is the same function on the pair with each term's exponents
swapped, and the two run in lockstep, since high contact along one axis
can cost thousands of steps in one order and a few in the other.  A finite
colength proves that f and g share no component through the point (for
a Milnor number, that the curve is reduced there).  When neither order
has finished after a few steps, one gcd of the untranslated pair,
evaluated at the point, decides.
"""

from .exactcore import (
    MultiPoly,
    NonReducedError,
    PreconditionError,
    ResourceCapError,
    translate_to_origin,
    gcd,
    _Sentinel,
)


INFINITE = _Sentinel("INFINITE")

# Steps allowed to each axis order of Fulton's recursion, and the steps
# per order after which the gcd fallback runs, or a bounded colength
# stops unfinished (every corpus call finishes within 7).
_DEPTH_CAP = 10 ** 4
_LOCKSTEP_STEPS = 16


class LocalMultiplicity:
    """Colength of (f, g) at a point."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value  # int >= 0, or INFINITE

    @property
    def is_finite(self):
        return self.value is not INFINITE


def _fulton(f, g):
    """Fulton's recursion (Algebraic Curves, sec. 3.3) on germs at the
    origin, restricting to y = 0 for variables (x, y): a generator of at
    most _DEPTH_CAP + 1 items, None after each step and last the colength
    of (f, g), INFINITE when y divides both.  Another shared component
    keeps it going.  A step changes g alone, so only g is restricted
    again."""
    total = 0
    f0, g0 = ({i: c for (i, j), c in h.terms.items() if not j} for h in (f, g))
    for _ in range(_DEPTH_CAP + 1):
        if 0 in f0 or 0 in g0:
            # a unit: (f, g) is the whole local ring from here on
            yield total
            return
        if not f0 and not g0:
            # y divides f and g: a common component through the origin
            yield INFINITE
            return
        if not f0:
            f, g, f0, g0 = g, f, g0, f0
        if not g0:
            # g = y * q, and I(y, f) is the x-order of f on the y = 0 axis
            total += min(f0)
            g = MultiPoly._make(g.variables, g.descriptor,
                                {(i, j - 1): c for (i, j), c in g.terms.items()})
        else:
            r, s = max(f0), max(g0)
            if r > s:
                f, g, f0, g0, r, s = g, f, g0, f0, s, r
            # kill the top x-coefficient of g's restriction by adding
            # -(g0[s] / f0[r]) x^(s - r) f, which leaves the colength fixed;
            # the division keeps the coefficients small where scaling g by
            # f0[r] would let them grow at every step, and negating the one
            # scalar spares a subtraction that negates every term of f
            g = g + f * MultiPoly._make(f.variables, f.descriptor, {(s - r, 0): -g0[s] / f0[r]})
        g0 = {i: c for (i, j), c in g.terms.items() if not j}
        yield None


def _colength(f, g, p, bounded=False):
    """The colength of (f, g) at p.  When either side, translated to the
    origin, is one term c*x^a*y^b, it is a*I(x, h) + b*I(y, h) for the
    other side h, where I(x, h) is the least y-exponent of h's terms free
    of x, INFINITE when there is none (x divides h), and I(y, h) the same
    with the axes swapped (Fulton, Algebraic Curves, sec. 3.3).  Otherwise
    it comes from whichever axis order of Fulton's recursion finishes
    first: the translated pair runs in lockstep with its mirror, each
    term's two exponents swapped.  When neither has finished after
    _LOCKSTEP_STEPS steps, a gcd of the untranslated pair vanishing at p
    (a component through p) means INFINITE; when ``bounded``, no gcd runs
    and the answer is None, unfinished, for a caller with another route."""
    ft, gt = (translate_to_origin(h, p) for h in (f, g))
    for m, h in ((ft, gt), (gt, ft)):
        if len(m.terms) == 1:
            (a, b), = m.terms
            total = 0
            for e, axis in ((a, 0), (b, 1)):
                if e:
                    order = min((k[1 - axis] for k in h.terms if not k[axis]), default=None)
                    if order is None:
                        return INFINITE
                    total += e * order
            return total
    runs = (_fulton(ft, gt), _fulton(*(
        MultiPoly._make(h.variables, h.descriptor, {(j, i): c for (i, j), c in h.terms.items()})
        for h in (ft, gt))))
    for step in range(_DEPTH_CAP + 1):
        if step == _LOCKSTEP_STEPS:
            if bounded:
                return None
            if gcd(f, g).evaluate(dict(zip(f.variables, p))).is_zero:
                return INFINITE
        for run in runs:
            value = next(run)
            if value is not None:
                return value
    raise ResourceCapError(
        f"intersection-multiplicity recursion exceeded {_DEPTH_CAP} steps")


def intersection_multiplicity(f, g, p):
    """Colength of (f, g) in the local ring at p; INFINITE on shared components.

    Symmetric in f and g.  The value is 0 exactly when one of the curves
    misses p, and INFINITE exactly when gcd(f, g) vanishes at p.  A finite
    value is its own proof of no shared component through p; the gcd is
    only the fallback of ``_colength``.
    """
    if f.is_zero or g.is_zero:
        raise PreconditionError("intersection multiplicity of the zero polynomial")
    f, g = f._pair(g)
    if len(f.variables) != 2:
        raise PreconditionError("intersection multiplicity needs two variables")
    return LocalMultiplicity(_colength(f, g, p))


def milnor_number(f, p):
    """Colength of the Jacobian ideal of f at the point p on V(f).

    0 exactly at smooth points.  At a singular point it is finite exactly
    when f is reduced there (Milnor 1968), so a value proves the curve
    passes through p and is reduced there, and INFINITE raises
    NonReducedError.  The fallback of ``_colength``, gcd(f_x, f_y)
    vanishing at p, is then the square-free test of ``squarefree_at``.
    """
    point = {v: c for v, c in zip(f.variables, p)}
    if not f.evaluate(point).is_zero:
        raise PreconditionError("point is not on the curve")
    fx, fy = (f.diff(v) for v in f.variables)
    if any(not d.evaluate(point).is_zero for d in (fx, fy)):
        return 0
    mu = _colength(fx, fy, p)
    if mu is INFINITE:
        raise NonReducedError("curve is not reduced at the point")
    return mu


def curve_multiplicity(f, p):
    """Order of vanishing of f at p; 0 when p is off the curve."""
    if f.is_zero:
        raise PreconditionError("multiplicity of the zero polynomial")
    ft = translate_to_origin(f, p)
    return ft.order_at_origin()
