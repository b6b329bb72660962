"""Branch expansions of plane curve germs and vanishing orders along them.

The expansion engine follows the classical lower-polygon iteration: pick
an edge, solve the edge equation for the leading coefficient, ramify,
translate, repeat.  Leading coefficients are resolved through the edge
polynomial written in c^q, so each analytic branch is produced exactly
once: the q different q-th roots of the same edge solution parametrize
one branch and are never enumerated separately.  Galois-conjugate
branches are likewise represented by a single member, with the orbit
size recorded on the branch; at most one algebraic extension of the
ground field is permitted per branch, and inputs that would need a
second one fail with a structured error instead of an approximation.

A branch whose expansion terminates (the tail is identically zero) is
marked exact, and later order computations on it run on polynomials
rather than truncated series, so their answers carry no truncation
caveat.
"""

from dataclasses import dataclass, field
from math import gcd

from .exactcore import (
    DescriptorMismatchError,
    ExtensionRequiredError,
    FieldDescriptor,
    FieldElem,
    MultiPoly,
    NonReducedError,
    NonTangentError,
    PowerSeries,
    PreconditionError,
    ResourceCapError,
    _fresh_field,
    _join,
    divexact,
    factor_univariate,
    squarefree_at,
    substitute,
    translate_to_origin,
)

_DEPTH_CAP = 1000


class _ZeroUpToTruncation:
    """Sentinel: the composed series vanished at every computed order."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "ZERO_UP_TO_TRUNCATION"


ZERO_UP_TO_TRUNCATION = _ZeroUpToTruncation()


class InsufficientPrecisionError(PreconditionError):
    """The requested truncation cannot certify the reported data."""

    def __init__(self, message, suggested_precision=None):
        super().__init__(message)
        self.suggested_precision = suggested_precision


@dataclass(frozen=True)
class Branch:
    """One analytic branch of a plane curve germ, up to Galois conjugacy.

    ``x_series`` and ``y_series`` parametrize the branch in the local
    coordinates centered at ``point``; ``multiplicity`` is the smaller
    of their vanishing orders, and ``conjugacy_size`` the number of
    distinct branches the representative stands for.  When ``exact`` is
    set the two series are the whole truth: every coefficient beyond the
    truncation is zero.
    """

    descriptor: FieldDescriptor
    x_series: PowerSeries
    y_series: PowerSeries
    multiplicity: int
    conjugacy_size: int
    exact: bool
    point: tuple
    variables: tuple
    x_poly: MultiPoly = field(default=None, repr=False, compare=False)
    y_poly: MultiPoly = field(default=None, repr=False, compare=False)


@dataclass
class _Path:
    steps: list          # [(q, p, c)] outermost first
    conjugacy: int
    exact: bool


def _origin_coeff(f):
    return f.terms.get((0,) * len(f.variables))


def _divisible_by(f, axis_index):
    return all(k[axis_index] >= 1 for k in f.terms)


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _polygon_edges(f):
    """Edges of the lower boundary of the support, steepest first.

    Each edge is (q, p, D, levels) with q, p coprime positive, D the
    minimum of q*i + p*j over the support, and levels the on-edge terms
    keyed by (j - j_low)/q.
    """
    pts = sorted({(k[0], k[1]) for k in f.terms})
    hull = []
    for pt in pts:
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], pt) <= 0:
            hull.pop()
        hull.append(pt)
    edges = []
    for v0, v1 in zip(hull, hull[1:]):
        if v0[1] <= v1[1]:
            break
        di, dj = v1[0] - v0[0], v0[1] - v1[1]
        g = gcd(di, dj)
        q, p = dj // g, di // g
        d = q * v0[0] + p * v0[1]
        levels = {}
        for k, c in f.terms.items():
            if q * k[0] + p * k[1] == d:
                levels[(k[1] - v1[1]) // q] = c
        edges.append((q, p, d, levels))
        if v1[1] == 0:
            break
    return edges


def _sort_key_poly(coeffs):
    return (len(coeffs), tuple(tuple(c.coefficients) for c in coeffs))


def _root_of_linear(fac):
    return -fac[0]


def _pick_root(candidates):
    # deterministic representative: largest by coefficient tuple, so the
    # cusp expands through +1 rather than -1
    return max(candidates, key=lambda c: tuple(c.coefficients))


def _edge_root_choices(h, q, descriptor, ctx):
    """Leading coefficients c for one irreducible edge factor h (in c^q).

    Returns (c, field of c, conjugacy multiplier).  The multiplier is the
    number of conjugate edge solutions c stands for; the q-th-root
    ambiguity within one solution is a reparametrization, not a new
    branch, and never multiplies.
    """
    e = len(h) - 1
    if e == 1:
        w = _root_of_linear(h)
        if q == 1:
            return w, descriptor, 1
        pow_poly = [-w] + [FieldElem.of(0, descriptor)] * (q - 1) + [FieldElem.of(1, descriptor)]
        _, facs = factor_univariate(pow_poly, descriptor)
        linear = [_root_of_linear(fac) for fac, _ in facs if len(fac) == 2]
        if linear:
            return _pick_root(linear), descriptor, 1
        if descriptor.is_extension:
            raise ExtensionRequiredError(
                "branch needs a second field extension (a q-th root)",
                polynomial=[tuple(c.coefficients) for c in pow_poly],
                descriptor=descriptor)
        best = min((fac for fac, _ in facs if len(fac) > 2), key=_sort_key_poly)
        ext = _fresh_extension(best, ctx)
        return FieldElem.generator(ext), ext, 1
    if descriptor.is_extension:
        raise ExtensionRequiredError(
            "branch needs a second field extension (an edge solution)",
            polynomial=[tuple(c.coefficients) for c in h],
            descriptor=descriptor)
    if q == 1:
        ext = _fresh_extension(h, ctx)
        return FieldElem.generator(ext), ext, e
    spread = [FieldElem.of(0, descriptor)] * (e * q + 1)
    for i, c in enumerate(h):
        spread[i * q] = c
    _, facs = factor_univariate(spread, descriptor)
    best = min((fac for fac, _ in facs), key=_sort_key_poly)
    ext = _fresh_extension(best, ctx)
    return FieldElem.generator(ext), ext, e


def _fresh_extension(monic, ctx):
    ctx["fresh"] += 1
    return _fresh_field(ctx["fresh"] - 1, monic)


def _expand(f, budget, ctx):
    """All expansion paths of f through the origin with y -> 0 as x -> 0.

    Depth first, with an explicit stack instead of Python recursion: entry k
    holds the pending children of a node at depth k, and edge children are
    computed only when reached, so paths, fresh field names and errors come
    in the order of a recursive depth-first walk.
    """
    out = []
    stack = [iter([(f, budget, [], 1)])]
    while stack:
        node = next(stack[-1], None)
        if node is None:
            stack.pop()
            continue
        if len(stack) > _DEPTH_CAP + 1:
            raise ResourceCapError("branch expansion exceeded the recursion cap")
        f, budget, steps, conj = node
        if _origin_coeff(f) is not None:
            continue
        if _divisible_by(f, 1):
            h = divexact(f, MultiPoly.variable(f.variables[1], f.variables, f.descriptor))
            if _divisible_by(h, 1):
                raise NonReducedError("repeated branch met during expansion")
            out.append(_Path(steps, conj, True))
            if _origin_coeff(h) is None:
                stack.append(iter([(h, budget, steps, conj)]))
        elif budget <= 0:
            out.append(_Path(steps, conj, False))
        else:
            stack.append(_edge_children(f, budget, steps, conj, ctx))
    return out


def _edge_children(f, budget, steps, conj, ctx):
    """The nodes one Newton-polygon step below f, one per edge factor."""
    x, y = f.variables
    for q, p, d, levels in _polygon_edges(f):
        m_deg = max(levels)
        psi = [levels.get(i, FieldElem.of(0, f.descriptor)) for i in range(m_deg + 1)]
        _, facs = factor_univariate(psi, f.descriptor)
        for fac, _mult in sorted(facs, key=lambda fm: _sort_key_poly(fm[0])):
            if len(fac) < 2:
                continue
            c, ext, cj = _edge_root_choices(fac, q, f.descriptor, ctx)
            fl = f.lift(ext)
            xq = MultiPoly.variable(x, fl.variables, ext) ** q
            image_y = (MultiPoly.variable(x, fl.variables, ext) ** p) * \
                (MultiPoly.variable(y, fl.variables, ext) + MultiPoly.constant(c, fl.variables, ext))
            g = substitute(fl, {x: xq, y: image_y})
            g = divexact(g, MultiPoly.variable(x, fl.variables, ext) ** d)
            yield g, budget * q - p, steps + [(q, p, c)], conj * cj


def _monomial_series(exp, n, desc):
    return PowerSeries.from_dict("t", n, {exp: FieldElem.of(1, desc)}, desc)


def _assemble(path, precision, point, variables):
    desc = _join(*(c.descriptor for _, _, c in path.steps))
    k = len(path.steps)
    suffix = [1] * (k + 1)
    for i in range(k - 1, -1, -1):
        suffix[i] = suffix[i + 1] * path.steps[i][0]
    ramification = suffix[0]
    tvars = ("t",)
    tv = MultiPoly.variable("t", tvars, desc)
    y_poly = MultiPoly.zero(tvars, desc)
    for i in range(k - 1, -1, -1):
        _, p, c = path.steps[i]
        shift = tv ** (p * suffix[i + 1])
        y_poly = shift * (y_poly + MultiPoly.constant(c.lift(desc), tvars, desc))
    x_poly = tv ** ramification
    x_series = _monomial_series(ramification, precision, desc)
    y_series = PowerSeries.from_dict(
        "t", precision,
        {key[0]: c for key, c in y_poly.terms.items()}, desc)
    q1, p1, _ = path.steps[0]
    mult = min(ramification, p1 * suffix[1])
    return Branch(
        descriptor=desc, x_series=x_series, y_series=y_series,
        multiplicity=mult, conjugacy_size=path.conjugacy, exact=path.exact,
        point=point, variables=variables,
        x_poly=x_poly if path.exact else None,
        y_poly=y_poly if path.exact else None)


def _axis_branch(which, precision, desc, point, variables):
    tvars = ("t",)
    tv = MultiPoly.variable("t", tvars, desc)
    zero_s = PowerSeries.zero("t", precision, desc)
    t_s = _monomial_series(1, precision, desc)
    if which == "x-axis":      # the component y = 0
        xs, ys, xp, yp = t_s, zero_s, tv, MultiPoly.zero(tvars, desc)
    else:                      # the component x = 0
        xs, ys, xp, yp = zero_s, t_s, MultiPoly.zero(tvars, desc), tv
    return Branch(descriptor=desc, x_series=xs, y_series=ys,
                  multiplicity=1, conjugacy_size=1, exact=True,
                  point=point, variables=variables, x_poly=xp, y_poly=yp)


def _verify_on_curve(branch, f_local):
    fl = f_local.lift(branch.descriptor) if f_local.descriptor != branch.descriptor else f_local
    x, y = branch.variables
    if branch.exact:
        value = substitute(fl, {x: branch.x_poly, y: branch.y_poly})
        return value.is_zero
    value = substitute(fl, {x: branch.x_series, y: branch.y_series})
    return value.is_zero_up_to_truncation


def branches(f, p, precision):
    """Branch representatives of the germ of V(f) at p, to order t^precision.

    Requires f reduced at p and vanishing at p.  The branch multiplicities,
    weighted by conjugacy size, sum to the multiplicity of the curve; a
    truncation too small to reach that certificate raises
    InsufficientPrecisionError.
    """
    if precision < 1:
        raise PreconditionError("precision must be at least 1")
    if f.is_zero:
        raise PreconditionError("branch expansion of the zero polynomial")
    if len(f.variables) != 2:
        raise PreconditionError("branch expansion needs exactly two variables")
    ft = translate_to_origin(f, p)
    if _origin_coeff(ft) is not None:
        raise PreconditionError("point is not on the curve")
    if not squarefree_at(f, p):
        raise NonReducedError("curve is not reduced at the point")
    total_mult = ft.order_at_origin()
    x, y = ft.variables
    work = ft
    out = []
    if _divisible_by(work, 0):
        work = divexact(work, MultiPoly.variable(x, work.variables, work.descriptor))
        out.append(_axis_branch("y-axis", precision, work.descriptor, p, f.variables))
    if _divisible_by(work, 1):
        work = divexact(work, MultiPoly.variable(y, work.variables, work.descriptor))
        out.append(_axis_branch("x-axis", precision, work.descriptor, p, f.variables))
    if _origin_coeff(work) is None:
        ctx = {"fresh": 0}
        for path in _expand(work, precision, ctx):
            out.append(_assemble(path, precision, p, f.variables))
    for b in out:
        if not _verify_on_curve(b, ft):
            raise InsufficientPrecisionError(
                "a computed parametrization fails to satisfy the equation",
                suggested_precision=2 * precision)
    covered = sum(b.multiplicity * b.conjugacy_size for b in out)
    if covered != total_mult:
        raise InsufficientPrecisionError(
            f"branches cover multiplicity {covered} of {total_mult}",
            suggested_precision=2 * precision)
    return out


def _localized(g, branch):
    gt = translate_to_origin(g, branch.point)
    try:
        return gt.lift(_join(gt.descriptor, branch.descriptor))
    except DescriptorMismatchError:
        raise ExtensionRequiredError(
            "polynomial and branch live in different extensions",
            polynomial=None, descriptor=branch.descriptor)


def ord_along_branch(branch, g):
    """Vanishing order of g composed with the branch parametrization."""
    if tuple(g.variables) != tuple(branch.variables):
        raise PreconditionError("polynomial variables do not match the branch")
    gt = _localized(g, branch)
    x, y = branch.variables
    if branch.exact:
        value = substitute(gt, {x: branch.x_poly, y: branch.y_poly})
        if value.is_zero:
            return ZERO_UP_TO_TRUNCATION
        return min(k[0] for k in value.terms)
    value = substitute(gt, {x: branch.x_series, y: branch.y_series})
    o = value.order()
    return ZERO_UP_TO_TRUNCATION if o is None else o


def nash_lift_order(branch, v):
    """Vanishing order of a tangent vector field against the lifted frame.

    The comparison frame is the derivative of the parametrization divided
    by t^(m-1), whose leading component is a unit; the order of the field
    along the branch relative to that frame is the order of the matching
    component of the composed field.  Fields that are not tangent to the
    branch, or vanish identically along it, are rejected.
    """
    a, b = v
    if tuple(a.variables) != tuple(branch.variables) or tuple(b.variables) != tuple(branch.variables):
        raise PreconditionError("vector field variables do not match the branch")
    at = _localized(a, branch)
    bt = _localized(b, branch)
    x, y = branch.variables
    m = branch.multiplicity
    if branch.exact:
        xd = branch.x_poly.diff("t")
        yd = branch.y_poly.diff("t")
        av = substitute(at, {x: branch.x_poly, y: branch.y_poly})
        bv = substitute(bt, {x: branch.x_poly, y: branch.y_poly})
        cross = av * yd - bv * xd
        if not cross.is_zero:
            raise NonTangentError("vector field is not tangent to the branch")
        def t_ord(poly):
            return None if poly.is_zero else min(k[0] for k in poly.terms)
        comp = av if t_ord(xd) == m - 1 else bv
        o = t_ord(comp)
        if o is None:
            raise PreconditionError("vector field vanishes along the branch")
        return o
    if branch.x_series.truncation_order < 2:
        raise PreconditionError("precision too small to differentiate the branch")
    xd = branch.x_series.derivative()
    yd = branch.y_series.derivative()
    av = substitute(at, {x: branch.x_series, y: branch.y_series}).truncate(xd.truncation_order)
    bv = substitute(bt, {x: branch.x_series, y: branch.y_series}).truncate(xd.truncation_order)
    cross = av * yd - bv * xd
    if not cross.is_zero_up_to_truncation:
        raise NonTangentError("vector field is not tangent to the branch")
    comp = av if xd.order() == m - 1 else bv
    o = comp.order()
    if o is None:
        # indistinguishable from a field vanishing on the whole branch;
        # a larger truncation may still separate the two
        raise InsufficientPrecisionError(
            "vector field vanishes along the branch up to the truncation",
            suggested_precision=2 * branch.x_series.truncation_order)
    return o


def _compose_series(outer, inner):
    n = outer.truncation_order
    desc = _join(outer.descriptor, inner.descriptor)
    outer, inner = outer.lift(desc), inner.lift(desc)
    acc = PowerSeries.zero(outer.variable, n, desc)
    for k in range(n - 1, -1, -1):
        acc = acc * inner + outer.coefficients[k]
    return acc


def reparametrize(branch, inner):
    """The same branch traversed through t -> inner(t) (inner a unit times t).

    Exactness is dropped: the composed series are only known to the
    truncation.  Used to exercise reparametrization invariance.
    """
    if inner.order() != 1:
        raise PreconditionError("reparametrization must vanish to order exactly 1")
    xs = _compose_series(branch.x_series, inner)
    ys = _compose_series(branch.y_series, inner)
    desc = xs.descriptor
    return Branch(descriptor=desc, x_series=xs, y_series=ys,
                  multiplicity=branch.multiplicity,
                  conjugacy_size=branch.conjugacy_size, exact=False,
                  point=branch.point, variables=branch.variables)
