"""Local intersection numbers of plane curves, Milnor numbers, multiplicities.

The central routine is an exact recursion on the defining equations that
evaluates the colength of the ideal (f, g) in the local ring at a point.
It is field-agnostic and independent of the series-expansion machinery,
which lets the two act as oracles for each other in the test suite.

The recursion runs on both axis orders in lockstep, since high contact
along one axis can cost thousands of steps in one order and a few in the
other.  A finite colength proves that f and g share no component through
the point (for a Milnor number, that the curve is reduced there); one gcd
is the fallback, when neither order has finished after a few steps.
"""

from .exactcore import (
    MultiPoly,
    NonReducedError,
    PreconditionError,
    ResourceCapError,
    squarefree_at,
    translate_to_origin,
    gcd,
    _Sentinel,
    _origin_coeff,
)


INFINITE = _Sentinel("INFINITE")

# Steps allowed to each axis order of Fulton's recursion, and the steps
# per order after which the gcd fallback runs (every corpus call finishes
# within 7).
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


def _restriction(f, main, aux):
    """f with ``aux`` set to 0, as a dict exponent -> FieldElem in ``main``."""
    im = f.variables.index(main)
    ia = f.variables.index(aux)
    out = {}
    for k, c in f.terms.items():
        if k[ia] == 0:
            out[k[im]] = c
    return out


def _ord(univ):
    return min(univ) if univ else None


def _lead(univ):
    d = max(univ)
    return d, univ[d]


def _fulton(f, g, x, y):
    """Fulton's recursion (Algebraic Curves, sec. 3.3) on germs at the
    origin, restricting to y = 0: a generator of at most _DEPTH_CAP + 1
    items, None after each step and last the colength of (f, g), INFINITE
    when y divides both.  Another shared component keeps it going."""
    total = 0
    for _ in range(_DEPTH_CAP + 1):
        if _origin_coeff(f) is not None or _origin_coeff(g) is not None:
            yield total
            return
        f0 = _restriction(f, x, y)
        g0 = _restriction(g, x, y)
        if not f0 and not g0:
            # y divides f and g: a common component through the origin
            yield INFINITE
            return
        if not f0:
            f, g = g, f
            f0, g0 = g0, f0
        if not g0:
            # g = y * q, and I(y, f) is the x-order of f on the y = 0 axis;
            # every term of g has a factor y, so q is an exponent shift
            total += _ord(f0)
            di, dj = (0, 1) if g.variables[1] == y else (1, 0)
            g = MultiPoly._make(g.variables, g.descriptor,
                                {(i - di, j - dj): c for (i, j), c in g.terms.items()})
        else:
            r, fr = _lead(f0)
            s, gs = _lead(g0)
            if r > s:
                f, g = g, f
                (r, fr), (s, gs) = (s, gs), (r, fr)
            # kill the top x-coefficient of g's restriction by subtracting
            # (gs / fr) x^(s - r) f, which leaves the colength fixed; the
            # division keeps the coefficients small where scaling g by fr
            # would let them grow at every step
            shift = (s - r, 0) if f.variables[0] == x else (0, s - r)
            g = g - f * MultiPoly._make(f.variables, f.descriptor, {shift: gs / fr})
        yield None


def _colength(f, g, shared):
    """The colength of (f, g) at the origin from whichever axis order of
    Fulton's recursion finishes first, the two run in lockstep.  When
    neither has finished after _LOCKSTEP_STEPS steps, ``shared()`` runs
    once and a True (a component through the origin) means INFINITE."""
    x, y = f.variables
    runs = (_fulton(f, g, x, y), _fulton(f, g, y, x))
    for step in range(_DEPTH_CAP + 1):
        if step == _LOCKSTEP_STEPS and shared():
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
    ft = translate_to_origin(f, p)
    gt = translate_to_origin(g, p)
    ft, gt = ft._pair(gt)
    # gcd(ft, gt) is never 0, and a nonzero constant has a constant term
    return LocalMultiplicity(_colength(ft, gt, lambda: _origin_coeff(gcd(ft, gt)) is None))


def milnor_number(f, p):
    """Colength of the Jacobian ideal of f at the point p on V(f).

    0 exactly at smooth points.  At a singular point it is finite exactly
    when f is reduced there (Milnor 1968), so a value proves the curve
    passes through p and is reduced there, and INFINITE raises
    NonReducedError.  The gcd of ``squarefree_at`` is only the fallback of
    ``_colength``.
    """
    point = {v: c for v, c in zip(f.variables, p)}
    if not f.evaluate(point).is_zero:
        raise PreconditionError("point is not on the curve")
    fx, fy = (f.diff(v) for v in f.variables)
    if any(not d.evaluate(point).is_zero for d in (fx, fy)):
        return 0
    mu = _colength(*(translate_to_origin(d, p) for d in (fx, fy)),
                   lambda: not squarefree_at(f, p))
    if mu is INFINITE:
        raise NonReducedError("curve is not reduced at the point")
    return mu


def curve_multiplicity(f, p):
    """Order of vanishing of f at p; 0 when p is off the curve."""
    if f.is_zero:
        raise PreconditionError("multiplicity of the zero polynomial")
    ft = translate_to_origin(f, p)
    return ft.order_at_origin()
