"""Constructible functions on a plane germ and their index pairing.

The germ sits at the origin: curve equations and vector fields come
already translated there (``translate_to_origin`` moves a germ from any
other point).  Every function in scope is supported on the ambient
surface germ, on finitely many reduced curve germs through the origin,
and on the origin itself.  Such a function is stored by its coordinates in the
basis

    1[W]      the ambient germ (its Euler obstruction is 1),
    Eu[C]     the Euler obstruction of a tracked curve germ C,
    1[0]      the origin.

Two facts make this basis convenient.  A curve germ of multiplicity m
satisfies 1_C = Eu_C - (m - 1) 1_0, so indicator functions convert to
the stored basis by an integer shift of the point coefficient.  And the
characteristic cycle of the Euler obstruction of a subvariety is plus or
minus a single conormal cycle, so :func:`cc` is sign bookkeeping.

Pairing a function with a vector field germ vanishing at the origin
evaluates the ambient coefficient against the Poincare-Hopf index, each
curve coefficient against the branchwise Nash-lift order sum over that
curve, and the point coefficient against 1.  The local index formulas
realized elsewhere (Schwartz, GSV, logarithmic) are pairings of this
kind, which the test suite checks identity by identity.
"""

from __future__ import annotations

from .exactcore import PreconditionError
from .indices import _adaptive, _euler_obstruction_local, _LocalCurve, _one_branch, ph_index


class CurveRecord:
    """One reduced curve germ tracked by a constructible function."""

    __slots__ = ("key", "mult", "mu", "branch_summary", "curve")

    def __init__(self, key, mult, mu, branch_summary, curve):
        self.key = key
        self.mult = mult
        self.mu = mu
        self.branch_summary = branch_summary  # (parametrization order, conjugates) per branch
        self.curve = curve  # the germ, its Milnor number and expansions, for the pairing

    def __eq__(self, other):
        # without the germ: two parses of one curve make one record
        return type(other) is CurveRecord and (
            self.key, self.mult, self.mu, self.branch_summary) == (
            other.key, other.mult, other.mu, other.branch_summary)


def _make_record(f):
    if f.is_zero or f.is_constant:
        raise PreconditionError("a curve germ needs a nonconstant equation")
    if len(f.variables) != 2:
        raise PreconditionError("curve germs live in exactly two variables")
    m = f.order_at_origin()
    if m == 0:
        raise PreconditionError("curve does not pass through the origin")
    curve = _LocalCurve(f)
    mu = curve.milnor()   # a finite mu proves the curve reduced at the origin
    summary = _adaptive(
        curve, lambda bs: tuple((b.multiplicity, b.conjugacy_size) for b in bs))
    return CurveRecord(key=f.to_str(), mult=m, mu=mu, branch_summary=summary, curve=curve)


def _merged_registry(r1, r2):
    out = dict(r1)
    for k, rec in r2.items():
        if k in out and out[k] != rec:
            raise PreconditionError(f"conflicting curve records under the key {k!r}")
        out[k] = rec
    return out


def _format_term(coeff, label):
    if coeff == 1:
        return "+ " + label
    if coeff == -1:
        return "- " + label
    sign = "-" if coeff < 0 else "+"
    return f"{sign} {abs(coeff)}*{label}"


class ConstructibleFn:
    """Integer combination  a*1[W] + sum_i c_i*Eu[C_i] + p*1[0].

    ``curve_terms`` holds (curve key, coefficient) pairs sorted by key
    with every coefficient nonzero; ``registry`` maps each key to its
    :class:`CurveRecord`.  Values are never changed in place; arithmetic
    returns new functions with merged registries.
    """

    __slots__ = ("ambient_coeff", "curve_terms", "point_coeff", "registry")

    def __init__(self, ambient_coeff, curve_terms, point_coeff, registry=None):
        self.ambient_coeff = ambient_coeff
        self.curve_terms = curve_terms
        self.point_coeff = point_coeff
        self.registry = {} if registry is None else registry

    def __eq__(self, other):
        return type(other) is ConstructibleFn and (
            self.ambient_coeff, self.curve_terms, self.point_coeff, self.registry) == (
            other.ambient_coeff, other.curve_terms, other.point_coeff, other.registry)

    @classmethod
    def whole_space(cls):
        return cls(1, (), 0, {})

    @classmethod
    def point_mass(cls):
        return cls(0, (), 1, {})

    # -- algebra -------------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, ConstructibleFn):
            return NotImplemented
        terms = dict(self.curve_terms)
        for k, c in other.curve_terms:
            terms[k] = terms.get(k, 0) + c
        registry = _merged_registry(self.registry, other.registry)
        return _canonical(self.ambient_coeff + other.ambient_coeff, terms,
                          self.point_coeff + other.point_coeff, registry)

    def __sub__(self, other):
        if not isinstance(other, ConstructibleFn):
            return NotImplemented
        return self + (-other)

    def __mul__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        terms = {k: n * c for k, c in self.curve_terms}
        return _canonical(n * self.ambient_coeff, terms,
                          n * self.point_coeff, dict(self.registry))

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1

    # -- evaluation (for tests and reports) ----------------------------------

    def value_at_origin(self):
        """Value at the origin, where Eu[C] takes the multiplicity of C."""
        curves = sum(c * self.registry[k].mult for k, c in self.curve_terms)
        return self.ambient_coeff + curves + self.point_coeff

    def value_at_smooth_point(self, key):
        """Value at a generic smooth point of the named curve."""
        if key not in self.registry:
            raise PreconditionError(f"no tracked curve under the key {key!r}")
        coeff = dict(self.curve_terms).get(key, 0)
        return self.ambient_coeff + coeff

    # -- basis conversion ----------------------------------------------------

    def indicator_coefficients(self):
        """Coordinates on (1_W, 1_C, 1_0) instead of (1_W, Eu_C, 1_0)."""
        shift = sum(c * (self.registry[k].mult - 1) for k, c in self.curve_terms)
        return (self.ambient_coeff, self.curve_terms, self.point_coeff + shift)

    @classmethod
    def from_indicator(cls, ambient, terms, point_coeff, registry):
        """Inverse of :meth:`indicator_coefficients` over the same registry."""
        terms = dict(terms)
        shift = sum(c * (registry[k].mult - 1) for k, c in terms.items())
        return _canonical(ambient, terms, point_coeff - shift, dict(registry))

    def __str__(self):
        parts = []
        if self.ambient_coeff:
            parts.append(_format_term(self.ambient_coeff, "1[W]"))
        for k, c in self.curve_terms:
            parts.append(_format_term(c, f"Eu[{k}]"))
        if self.point_coeff:
            parts.append(_format_term(self.point_coeff, "1[0]"))
        if not parts:
            return "0"
        out = " ".join(parts)
        return out[2:] if out.startswith("+ ") else out[0] + out[2:]


def _canonical(ambient, terms, point_coeff, registry):
    kept = tuple(sorted((k, c) for k, c in terms.items() if c != 0))
    reg = {k: registry[k] for k, _ in kept}
    return ConstructibleFn(ambient, kept, point_coeff, reg)


class LagrangianCycle:
    """Signed formal sum of conormal supports in the cotangent space."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = terms  # (support label, integer multiplicity)


# -- constructors -----------------------------------------------------------

def indicator_curve(f):
    """Indicator function of the reduced curve V(f) in the stored basis.

    The result is Eu[C] - (m - 1)*1[0] for the multiplicity m of the germ
    at the origin, so it evaluates to 1 on the curve and 0 elsewhere.  A
    reducible equation is kept as a single record.
    """
    rec = _make_record(f)
    return ConstructibleFn(0, ((rec.key, 1),), -(rec.mult - 1), {rec.key: rec})


def nearby_cycles(f):
    """Euler characteristic function of the local Milnor fibers of f.

    Stored as Eu[C] - (m - 1 + mu)*1[0]; the value at the origin is
    1 - mu and the value at a nearby curve point is 1.  Requires f
    reduced with an isolated singularity.
    """
    rec = _make_record(f)
    return ConstructibleFn(0, ((rec.key, 1),),
                           -(rec.mult - 1 + rec.mu), {rec.key: rec})


def vanishing_cycles(f):
    """Difference of the nearby cycles and the curve indicator: -mu*1[0]."""
    rec = _make_record(f)
    return ConstructibleFn(0, (), -rec.mu, {})


def complement_of_divisor(curves):
    """Indicator of the complement of a weighted divisor, in the basis.

    ``curves`` lists (equation, weight) with positive integer weights and
    equations that are irreducible germs at the origin, pairwise distinct.
    Writing B = sum a_i C_i and deg B = sum a_i, the result is

        1[W] - sum a_i 1[C_i] + (deg B - 1) 1[0]

    expanded over the Euler-obstruction basis.  The empty divisor is
    rejected: the defining shift deg B - 1 has no sensible value there.
    """
    if not curves:
        raise PreconditionError("the divisor must have at least one component")
    terms = {}
    registry = {}
    degree = 0
    point_coeff = 0
    for f, a in curves:
        if not isinstance(a, int) or a < 1:
            raise PreconditionError("component weights must be positive integers")
        rec = _make_record(f)
        if rec.key in registry:
            raise PreconditionError("divisor components must be pairwise distinct")
        if not _adaptive(rec.curve, _one_branch):
            raise PreconditionError("a divisor component is not an irreducible germ")
        registry[rec.key] = rec
        terms[rec.key] = -a
        point_coeff += a * (rec.mult - 1)
        degree += a
    point_coeff += degree - 1
    return _canonical(1, terms, point_coeff, registry)


# -- pairing and characteristic cycles --------------------------------------

def index_pairing(gamma, v):
    """Pair a constructible function with a vector field germ at its zero.

    The ambient coefficient weighs the Poincare-Hopf index of the field,
    each curve coefficient the Nash-lift order sum over that curve, and
    the point coefficient a transversal count of 1.  Tangency or
    isolated-zero failures from those computations propagate unchanged.
    Terms with coefficient zero are skipped, so the pairing against a
    pure point mass needs nothing from the field.
    """
    total = gamma.point_coeff
    for key, c in gamma.curve_terms:
        total += c * _euler_obstruction_local(v, gamma.registry[key].curve).value
    if gamma.ambient_coeff:
        total += gamma.ambient_coeff * ph_index(v).value
    return total


def cc(gamma):
    """Characteristic cycle of a constructible function.

    Each basis support contributes its coefficient times (-1)^dim, so the
    ambient and point supports keep their signs and curve supports flip.
    Supports with coefficient zero are omitted.
    """
    terms = []
    if gamma.ambient_coeff:
        terms.append(("zero-section", gamma.ambient_coeff))
    for key, c in gamma.curve_terms:
        terms.append((f"conormal[{key}]", -c))
    if gamma.point_coeff:
        terms.append(("point-fiber", gamma.point_coeff))
    return LagrangianCycle(tuple(terms))
