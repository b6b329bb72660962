"""Chow-ring arithmetic on projective space and CSM classes of plane curves.

A class in the Chow ring of P^n is an integer polynomial in the hyperplane
class h truncated above h^n; products and integrals are exact integer
operations.  Chern classes of virtual bundles E - L with L a line bundle
come from the alternating geometric expansion of 1/c(L), and the top Chern
class of a twist E (x) L^dual comes from the standard substitution formula,
so the two routes to the same number double as a consistency check.

CSM classes of plane curves and their complements are stored by homology
dimension.  For a reduced curve of degree k with isolated singularities the
dimension-0 component is the topological Euler characteristic

    chi(D) = 3k - k^2 + sum of the Milnor numbers,

and the complement class is the difference from the class of the plane.
The twisted sum of a CSM class against a line-bundle degree turns these
classes into the global counts that the verification module compares with
sums of local indices; the alternating sign per dimension lives only
there, so it cannot be applied twice.
"""

from __future__ import annotations

from math import comb

from .exactcore import PreconditionError


def _check_int_tuple(values, what):
    values = tuple(values)
    for v in values:
        if not isinstance(v, int) or isinstance(v, bool):
            raise PreconditionError(f"{what} must be integers, got {v!r}")
    return values


class ChowClass:
    """c0 + c1*h + ... + cn*h^n modulo h^(n+1) on projective n-space."""

    __slots__ = ("ambient_dim", "coefficients")

    def __init__(self, ambient_dim, coefficients):
        coeffs = _check_int_tuple(coefficients, "Chow coefficients")
        if not isinstance(ambient_dim, int) or ambient_dim < 1:
            raise PreconditionError("ambient dimension must be a positive integer")
        if len(coeffs) != ambient_dim + 1:
            raise PreconditionError(
                f"a class on P^{ambient_dim} needs exactly "
                f"{ambient_dim + 1} coefficients, got {len(coeffs)}")
        self.ambient_dim = ambient_dim
        self.coefficients = coeffs

    def __eq__(self, other):
        return type(other) is ChowClass and (self.ambient_dim, self.coefficients) == (
            other.ambient_dim, other.coefficients)

    @classmethod
    def one(cls, n):
        return cls(n, (1,) + (0,) * n)

    @classmethod
    def hyperplane_bundle(cls, n, ell):
        """Total Chern class 1 + ell*h of the line bundle O(ell)."""
        return cls(n, (1, ell) + (0,) * (n - 1))

    @classmethod
    def tangent(cls, n):
        """Total Chern class of the tangent bundle, (1 + h)^(n+1) truncated."""
        return cls(n, tuple(comb(n + 1, i) for i in range(n + 1)))

    def __str__(self):
        parts = []
        for i, c in enumerate(self.coefficients):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                head = "" if c == 1 else "-" if c == -1 else f"{c}*"
                parts.append(f"{head}h" + (f"^{i}" if i > 1 else ""))
        return " + ".join(parts).replace("+ -", "- ") if parts else "0"


def _same_dim(a, b):
    if a.ambient_dim != b.ambient_dim:
        raise PreconditionError("Chow classes live on different projective spaces")
    return a.ambient_dim


def chow_mul(a, b):
    """Product in the Chow ring, truncated above h^n."""
    n = _same_dim(a, b)
    out = [0] * (n + 1)
    for i, ci in enumerate(a.coefficients):
        if ci == 0:
            continue
        for j, cj in enumerate(b.coefficients):
            if i + j > n:
                break
            out[i + j] += ci * cj
    return ChowClass(n, tuple(out))


def chow_integral(c):
    """Degree of the dimension-0 part: the coefficient of h^n."""
    return c.coefficients[-1]


def chern_virtual_quotient(cE, cL):
    """Total Chern class of the virtual bundle E - L for a line bundle L.

    c(E)/c(L) with c(L) = 1 + ell*h expands to c(E) * (1 - ell*h +
    ell^2*h^2 - ...), which truncates after n terms.
    """
    n = _same_dim(cE, cL)
    coeffs = cL.coefficients
    if coeffs[0] != 1 or any(c != 0 for c in coeffs[2:]):
        raise PreconditionError("the denominator must be a line bundle class 1 + ell*h")
    ell = coeffs[1]
    inverse = ChowClass(n, tuple((-ell) ** i for i in range(n + 1)))
    return chow_mul(cE, inverse)


def top_chern_twist(cE, ell):
    """Integral of the top Chern class of E (x) O(-ell), for E of rank n.

    Substituting the twist into each Chern class and keeping the top piece
    gives sum_i c_i(E) * (-ell)^(n-i); the i-th summand already carries
    its h^n weight, so the result is the integer degree.
    """
    n = cE.ambient_dim
    if not isinstance(ell, int) or isinstance(ell, bool):
        raise PreconditionError("the twist degree must be an integer")
    return sum(ci * (-ell) ** (n - i) for i, ci in enumerate(cE.coefficients))


class CSMClass:
    """Integer homology components (alpha_0, ..., alpha_n) by dimension."""

    __slots__ = ("components",)

    def __init__(self, components):
        comps = _check_int_tuple(components, "CSM components")
        if len(comps) != 3:
            raise PreconditionError("CSM classes are supported on the projective plane only")
        self.components = comps

    @classmethod
    def projective_plane(cls):
        """The class of the constant function 1 on the plane: (3, 3, 1)."""
        return cls((3, 3, 1))

    def __sub__(self, other):
        if not isinstance(other, CSMClass):
            return NotImplemented
        return CSMClass(tuple(a - b for a, b in zip(self.components, other.components)))

    def __add__(self, other):
        if not isinstance(other, CSMClass):
            return NotImplemented
        return CSMClass(tuple(a + b for a, b in zip(self.components, other.components)))


def _check_curve_input(k, sing):
    if not isinstance(k, int) or k < 1:
        raise PreconditionError("the curve degree must be a positive integer")
    sing = _check_int_tuple(sing, "Milnor numbers")
    if any(mu < 0 for mu in sing):
        raise PreconditionError("Milnor numbers must be nonnegative")
    return sing


def csm_curve(k, sing=()):
    """CSM class of a reduced degree-k plane curve with the given Milnor numbers.

    The dimension-1 component is the degree and the dimension-0 component
    is the Euler characteristic 3k - k^2 + sum(mu).
    """
    sing = _check_curve_input(k, sing)
    chi = 3 * k - k * k + sum(sing)
    return CSMClass((chi, k, 0))


def csm_complement(k, sing=()):
    """CSM class of the complement of the curve: the difference from the plane."""
    return CSMClass.projective_plane() - csm_curve(k, sing)


def log_chern_snc(degrees):
    """Chern class of the log tangent bundle for a simple normal crossing divisor.

    For smooth components of the given degrees meeting transversally the
    class is (1 + h)^3 / prod(1 + d_i h); the transversality is the
    caller's assertion and is not checked here.
    """
    degrees = _check_int_tuple(degrees, "component degrees")
    if any(d < 1 for d in degrees):
        raise PreconditionError("component degrees must be positive")
    out = ChowClass.tangent(2)
    for d in degrees:
        out = chern_virtual_quotient(out, ChowClass.hyperplane_bundle(2, d))
    return out


def twisted_index_sum(csm, ell):
    """Global index count from a CSM class twisted by O(ell).

    The shadow of the characteristic cycle has components
    (-1)^j * alpha_j, and pairing it with powers of the twist integrates
    to sum_j (-1)^j ell^j alpha_j.  The per-dimension sign is applied
    here and nowhere else.
    """
    if not isinstance(ell, int) or isinstance(ell, bool):
        raise PreconditionError("the twist degree must be an integer")
    return sum((-1) ** j * ell ** j * a for j, a in enumerate(csm.components))
