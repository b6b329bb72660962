"""Local intersection numbers of plane curves, Milnor numbers, multiplicities.

The central routine is an exact recursion on the defining equations that
evaluates the colength of the ideal (f, g) in the local ring at a point.
It is field-agnostic and independent of the series-expansion machinery,
which lets the two act as oracles for each other in the test suite.
"""

from .exactcore import (
    MultiPoly,
    NonReducedError,
    PreconditionError,
    ResourceCapError,
    squarefree_at,
    translate_to_origin,
    gcd,
    divexact,
    _Sentinel,
)


INFINITE = _Sentinel("INFINITE")

_DEPTH_CAP = 10 ** 4


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


def _origin_value(f):
    return f.terms.get((0,) * len(f.variables))


def _fulton(f, g, x, y):
    total = 0
    for _ in range(_DEPTH_CAP + 1):
        if _origin_value(f) is not None or _origin_value(g) is not None:
            return total
        f0 = _restriction(f, x, y)
        g0 = _restriction(g, x, y)
        if not f0 and not g0:
            # both divisible by y: a common component through the origin, which
            # the up-front gcd test already excluded
            raise PreconditionError("internal: common factor survived the gcd test")
        if not f0:
            f, g = g, f
            f0, g0 = g0, f0
        if not g0:
            # g = y * q, and I(y, f) is the x-order of f on the y = 0 axis
            total += _ord(f0)
            g = divexact(g, MultiPoly.variable(y, f.variables, f.descriptor))
            continue
        r, fr = _lead(f0)
        s, gs = _lead(g0)
        if r > s:
            f, g = g, f
            (r, fr), (s, gs) = (s, gs), (r, fr)
        # kill the top x-coefficient of g's restriction; scaling by the nonzero
        # constant fr and adding a multiple of f both leave the colength fixed
        shift = MultiPoly.variable(x, f.variables, f.descriptor) ** (s - r)
        g = g * fr - f * shift * gs
    raise ResourceCapError(
        f"intersection-multiplicity recursion exceeded {_DEPTH_CAP} steps")


def intersection_multiplicity(f, g, p):
    """Colength of (f, g) in the local ring at p; INFINITE on shared components.

    Symmetric in f and g.  The value is 0 exactly when one of the curves
    misses p, and INFINITE exactly when gcd(f, g) vanishes at p.
    """
    if f.is_zero or g.is_zero:
        raise PreconditionError("intersection multiplicity of the zero polynomial")
    f, g = f._pair(g)
    if len(f.variables) != 2:
        raise PreconditionError("intersection multiplicity needs two variables")
    ft = translate_to_origin(f, p)
    gt = translate_to_origin(g, p)
    ft, gt = ft._pair(gt)
    common = gcd(ft, gt)
    if not common.is_constant and _origin_value(common) is None:
        return LocalMultiplicity(INFINITE)
    x, y = ft.variables
    value = _fulton(ft, gt, x, y)
    return LocalMultiplicity(value)


def milnor_number(f, p):
    """Colength of the Jacobian ideal of f at the point p on V(f).

    0 exactly at smooth points.  At a singular point the one ``gcd`` of
    ``squarefree_at`` proves f reduced there (else NonReducedError); then
    f_x and f_y share no component through p (Milnor 1968), and Fulton's
    recursion runs on them directly.  So a value proves the curve passes
    through p and is reduced there.
    """
    point = {v: c for v, c in zip(f.variables, p)}
    if not f.evaluate(point).is_zero:
        raise PreconditionError("point is not on the curve")
    fx, fy = (f.diff(v) for v in f.variables)
    if any(not d.evaluate(point).is_zero for d in (fx, fy)):
        return 0
    if not squarefree_at(f, p):
        raise NonReducedError("curve is not reduced at the point")
    return _fulton(*(translate_to_origin(d, p) for d in (fx, fy)), *f.variables)


def curve_multiplicity(f, p):
    """Order of vanishing of f at p; 0 when p is off the curve."""
    if f.is_zero:
        raise PreconditionError("multiplicity of the zero polynomial")
    ft = translate_to_origin(f, p)
    return ft.order_at_origin()
