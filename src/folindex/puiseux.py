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

Each step f(x^q, x^p (c + y)) / x^d is computed directly as the monomial
map (i, j) -> (q i + p j - d, k) with weights binom(j, k) c^(j-k), with no
general substitution.  Once a node's polygon is one edge of height 1 (a
term a*y is present) the branch is separated: the rest of it is the root
y = phi(x) of the node's polynomial, and every later step strips one term
of phi.  A dense stretch of phi is read off one scan of its coefficients,
the regular stage of D. Duval's rational Puiseux algorithm (Compositio
Math. 70, 1989), instead of transforming the polynomial once per term.
The scan emits the same (1, p, c) steps the walk would, each counting
against the depth cap, and decides exactness with one exact remainder of
the separated polynomial by y - phi.  When its window runs out at a gap
in phi, ordinary walk steps move past the terms found, and the next scan
starts at the far side of the gap.

A branch is two polynomials in t and a truncation order N.  A branch
whose expansion terminates (the tail is identically zero) is marked
exact and its polynomials are the whole parametrization; an inexact one
keeps only the terms below t^N.  Every order along a branch comes from
one composition with the two polynomials, which drops the terms of
degree >= N as it goes unless the branch is exact, so exact answers carry
no truncation caveat.
"""

from math import comb, gcd

from .exactcore import (
    DescriptorMismatchError,
    ExtensionRequiredError,
    FieldElem,
    MultiPoly,
    NonReducedError,
    NonTangentError,
    PreconditionError,
    QQ,
    ResourceCapError,
    _Sentinel,
    _below,
    _composite,
    _fresh_field,
    _join,
    _origin_coeff,
    _rational_root,
    divexact,
    factor_univariate,
    squarefree_at,
    translate_to_origin,
)

_DEPTH_CAP = 1000


ZERO_UP_TO_TRUNCATION = _Sentinel("ZERO_UP_TO_TRUNCATION")

# a*b - c*d, composed with (a(t), y'(t), b(t), x'(t)) in nash_lift_order:
# zero exactly when the field (a, b) is tangent to the branch
_CROSS = MultiPoly(("a", "b", "c", "d"), QQ, {(1, 1, 0, 0): 1, (0, 0, 1, 1): -1})


class InsufficientPrecisionError(PreconditionError):
    """The requested truncation cannot certify the reported data."""


class Branch:
    """One analytic branch of a plane curve germ, up to Galois conjugacy.

    ``x_poly`` and ``y_poly`` (polynomials in t) parametrize the branch
    in the local coordinates centered at ``point``; ``multiplicity`` is
    the smaller of their vanishing orders, and ``conjugacy_size`` the
    number of distinct branches the representative stands for.  When
    ``exact`` is set the two polynomials are the whole truth; otherwise
    they hold the terms below t^``precision`` and nothing is known
    beyond.  ``series_text(poly, precision)`` prints either polynomial
    truncated at t^``precision``.
    """

    __slots__ = ("descriptor", "x_poly", "y_poly", "precision", "multiplicity",
                 "conjugacy_size", "exact", "point", "variables")

    def __init__(self, descriptor, x_poly, y_poly, precision, multiplicity,
                 conjugacy_size, exact, point, variables):
        self.descriptor = descriptor
        self.x_poly = x_poly
        self.y_poly = y_poly
        self.precision = precision
        self.multiplicity = multiplicity
        self.conjugacy_size = conjugacy_size
        self.exact = exact
        self.point = point
        self.variables = variables


def series_text(poly, n):
    """A polynomial in t as the series text of the ``puiseux`` report.

    Terms of degree >= n are dropped, even on an exact branch.  The rest
    come in ascending order, joined by " + "; a coefficient 1 before a
    power of t is left out, -1 is not (``-1*t^3``), and a Q(theta)
    coefficient goes in parentheses (``(r)*t``).  The text ends in
    ``O(t^n)``, and is ``0 + O(t^n)`` when no term is left.
    """
    parts = []
    for (e,), c in sorted(poly.terms.items()):
        if e >= n:
            break
        cs = c.to_str() if c.is_rational else f"({c.to_str()})"
        mono = "t" if e == 1 else f"t^{e}"
        parts.append(cs if e == 0 else mono if cs == "1" else f"{cs}*{mono}")
    return f"{' + '.join(parts) or '0'} + O(t^{n})"


def _t_order(poly):
    return None if poly.is_zero else min(k[0] for k in poly.terms)


class _Path:
    __slots__ = ("steps", "conjugacy", "exact")

    def __init__(self, steps, conjugacy, exact):
        # steps: [(q, p, c)] outermost first
        self.steps, self.conjugacy, self.exact = steps, conjugacy, exact


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


def _edge_root_choices(h, q, descriptor, ctx):
    """A leading coefficient c for one irreducible edge factor h (in c^q):
    a root of h(c^q).

    Returns (c, field of c, conjugacy multiplier).  The multiplier deg h is
    the number of conjugate edge solutions c stands for; the q-th-root
    ambiguity within one solution is a reparametrization, not a new
    branch, and never multiplies.  Over Q a linear h = c - w whose w has
    a rational q-th root takes the largest one, the root factoring would
    pick, without factoring.
    """
    if q > 1 and len(h) == 2 and not descriptor.is_extension:
        r = _rational_root((-h[0]).as_fraction(), q)   # h is monic
        if r is not None:
            return FieldElem.of(r, descriptor), descriptor, 1
    hq = [FieldElem.of(0, descriptor)] * ((len(h) - 1) * q + 1)
    hq[::q] = h
    facs = [h] if q == 1 else [fac for fac, _ in factor_univariate(hq, descriptor)[1]]
    roots = [-fac[0] for fac in facs if len(fac) == 2]
    if roots:
        # deterministic representative: largest by coefficient tuple, so
        # the cusp expands through +1 rather than -1
        return max(roots, key=lambda c: tuple(c.coefficients)), descriptor, len(h) - 1
    if descriptor.is_extension:
        raise ExtensionRequiredError(
            "branch needs a second field extension",
            polynomial=[tuple(c.coefficients) for c in hq], descriptor=descriptor)
    ext = _fresh_field(ctx["fresh"], min(facs, key=_sort_key_poly))
    ctx["fresh"] += 1
    return FieldElem.generator(ext), ext, len(h) - 1


def _expand(f, budget, ctx):
    """All expansion paths of f through the origin with y -> 0 as x -> 0.

    Depth first, with an explicit stack instead of Python recursion: entry k
    holds the pending children of a node at depth k, and edge children are
    computed only when reached, so paths, fresh field names and errors come
    in the order of a recursive depth-first walk.  A separated node's chain
    of steps comes from one scan of its root (:func:`_root_terms`); when
    the scan stops at a gap, the node past the terms found is pushed like
    any child, and its own scan starts at the far side of the gap.
    """
    out = []
    stack = [iter([(f, budget, [], 1)])]
    while stack:
        node = next(stack[-1], None)
        if node is None:
            stack.pop()
            continue
        _check_room(len(stack), _DEPTH_CAP + 1)
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
        elif (0, 1) in f.terms:
            # separated: the walk below is one chain, read off one scan
            terms, exact = _root_terms(f, budget, _DEPTH_CAP - len(steps))
            more = [(1, e - prev, c) for prev, (e, c) in zip([0] + [e for e, _ in terms], terms)]
            if exact is not None:
                out.append(_Path(steps + more, conj, exact))
                continue
            # the scan ran out at a gap: walk past the terms found
            for _, p, c in more:
                f = _newton_step(f, 1, p, p, c)
            stack.append(iter([(f, budget - terms[-1][0], steps + more, conj)]))
        else:
            stack.append(_edge_children(f, budget, steps, conj, ctx))
    return out


def _edge_children(f, budget, steps, conj, ctx):
    """The nodes one Newton-polygon step below f, one per edge factor."""
    for q, p, d, levels in _polygon_edges(f):
        m_deg = max(levels)
        psi = [levels.get(i, FieldElem.of(0, f.descriptor)) for i in range(m_deg + 1)]
        _, facs = factor_univariate(psi, f.descriptor)
        for fac, _mult in sorted(facs, key=lambda fm: _sort_key_poly(fm[0])):
            if len(fac) < 2:
                continue
            c, ext, cj = _edge_root_choices(fac, q, f.descriptor, ctx)
            yield _newton_step(f, q, p, d, c), budget * q - p, steps + [(q, p, c)], conj * cj


def _newton_step(f, q, p, d, c):
    """f(x^q, x^p (c + y)) / x^d, over the field joining f's and c's.

    The map is monomial: a x^i y^j goes to binom(j, k) c^(j-k) a
    x^(q i + p j - d) y^k for k = 0..j, so no polynomial product is formed.
    d must be the least q i + p j on the support (the edge's weight); a
    smaller d leaves a negative power of x and is refused as an inexact
    division.
    """
    desc = _join(f.descriptor, c.descriptor)
    c = c.lift(desc)
    cpow = [FieldElem.of(1, desc)]
    for _ in range(max(k[1] for k in f.terms)):
        cpow.append(cpow[-1] * c)
    rows = {}
    out = {}
    for (i, j), a in f.terms.items():
        e = q * i + p * j - d
        if e < 0:
            raise PreconditionError("inexact polynomial division")
        if j not in rows:
            rows[j] = [cpow[j - k] * comb(j, k) for k in range(j + 1)]
        a = a.lift(desc)
        for k, w in enumerate(rows[j]):
            v = a * w
            key = (e, k)
            out[key] = out[key] + v if key in out else v
    return MultiPoly._make(f.variables, desc, {k: v for k, v in out.items() if v.nums})


def _root_terms(f, budget, room):
    """The terms (e, c) of the root phi of the separated f that the walk
    strips, in order, and its exact flag.

    f is separated when it has the term a*y: its polygon is one edge of
    height 1 and stays so, and what is left of the branch is the root
    y = phi(x) of f with phi(0) = 0.  Each walk step strips the lowest
    term c x^e of phi; the walk stops exact when phi is used up, and
    inexact after the first term with e >= budget.  Passing ``room``
    terms is the depth cap.

    The coefficients of phi come one by one from f(x, phi) = 0: the one at
    x^m is a linear equation in phi_m over the lower ones, through the
    powers phi^j kept as sparse coefficient maps.  The scan stops at the
    first term with e >= budget, and otherwise at max(2 budget, D + 1),
    with D the x-degree of f: a polynomial root has degree at most D, so
    phi is then exact exactly when f(x, psi) = 0 for the terms psi found,
    the remainder of f divided by y - psi.  The scan covers room + 1
    exponents from the order of f(x, 0), enough to see the cap on a dense
    root; when they run out first, at a gap in phi, the flag is None and
    the walk crosses the gap.
    """
    neg_inv = -f.terms[(0, 1)].inverse()
    rows, top = {}, 0
    for (i, j), a in f.terms.items():
        if (i, j) != (0, 1):
            rows.setdefault(j, []).append((i, a))
        top = max(top, i)
    for row in rows.values():
        row.sort(key=lambda t: t[0])
    p = rows[0][0][0]
    n = max(rows)
    phi = {}
    powers = [{0: FieldElem.of(1, f.descriptor)}, phi] + [{} for _ in range(n - 1)]
    scan_end = max(2 * budget, top + 1)
    end = min(scan_end, p + room + 1)
    for m in range(p, end):
        # phi^j has order j p; its x^m coefficient needs phi below x^m only
        for j in range(2, min(n, m // p) + 1):
            s = _convolved(phi.items(), powers[j - 1], m, m - (j - 1) * p)
            if s is not None and s.nums:
                powers[j][m] = s
        s = None
        for j, row in rows.items():
            v = _convolved(row, powers[j], m, m - j * p)
            if v is not None:
                s = v if s is None else s + v
        if s is None or not s.nums:
            continue
        phi[m] = s * neg_inv
        _check_room(len(phi), room)
        if m >= budget:
            # the walk's last step; it is exact only on a polynomial root
            return list(phi.items()), m <= top and _residual(f, phi).is_zero
    terms = list(phi.items())
    if end < scan_end:
        return terms, None
    r = _residual(f, phi)
    if r.is_zero:
        return terms, True
    e = _t_order(r)
    _check_room(len(terms) + 1, room)
    return terms + [(e, r.terms[(e,)] * neg_inv)], False


def _convolved(terms, other, m, last):
    """The sum of c * other[m - e] over the (e, c) of ``terms`` (ascending
    in e) with e <= last, or None when no such product exists."""
    s = None
    for e, c in terms:
        if e > last:
            break
        v = other.get(m - e)
        if v is not None:
            s = c * v if s is None else s + c * v
    return s


def _check_room(steps, room):
    if steps > room:
        raise ResourceCapError("branch expansion exceeded the recursion cap")


def _residual(f, phi):
    """f(t, psi(t)) for the polynomial psi with the terms ``phi`` (exponent
    to coefficient): the remainder of f divided by y - psi, zero exactly
    when psi is the root."""
    psi = MultiPoly._make(("t",), f.descriptor, {(e,): c for e, c in phi.items()})
    return _composite(f, (MultiPoly.variable("t", ("t",), f.descriptor), psi))


def _assemble(path, precision, point, variables):
    desc = _join(*(c.descriptor for _, _, c in path.steps))
    k = len(path.steps)
    suffix = [1] * (k + 1)
    for i in range(k - 1, -1, -1):
        suffix[i] = suffix[i + 1] * path.steps[i][0]
    ramification = suffix[0]
    tvars = ("t",)
    # step i contributes c_i t^(p_0 suffix[1] + ... + p_i suffix[i+1]);
    # edge roots are nonzero and the exponents increase
    y_terms, e = {}, 0
    for (_, p, c), s in zip(path.steps, suffix[1:]):
        e += p * s
        y_terms[(e,)] = c.lift(desc)
    y_poly = MultiPoly._make(tvars, desc, y_terms)
    x_poly = MultiPoly.variable("t", tvars, desc) ** ramification
    if not path.exact:
        x_poly, y_poly = _below(x_poly, precision), _below(y_poly, precision)
    q1, p1, _ = path.steps[0]
    mult = min(ramification, p1 * suffix[1])
    return Branch(
        descriptor=desc, x_poly=x_poly, y_poly=y_poly, precision=precision,
        multiplicity=mult, conjugacy_size=path.conjugacy, exact=path.exact,
        point=point, variables=variables)


def _axis_branch(which, precision, desc, point, variables):
    tvars = ("t",)
    tv, zero = MultiPoly.variable("t", tvars, desc), MultiPoly.zero(tvars, desc)
    # the component y = 0 is the x-axis, x = 0 the y-axis
    xp, yp = (tv, zero) if which == "x-axis" else (zero, tv)
    return Branch(descriptor=desc, x_poly=xp, y_poly=yp, precision=precision,
                  multiplicity=1, conjugacy_size=1, exact=True,
                  point=point, variables=variables)


def _compose(g, branch, n):
    """g along the branch: g(x_poly, y_poly), without the terms of degree
    >= n unless the branch is exact.  g is in the branch's variables and
    over a field that joins with the branch's."""
    return _composite(g, (branch.x_poly, branch.y_poly), None if branch.exact else n)


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
    return _germ_branches(_checked_germ(f, p), precision, p, f.variables)


def _checked_germ(f, p):
    """f translated to the origin, once it is known to vanish and be reduced at p."""
    ft = translate_to_origin(f, p)
    if _origin_coeff(ft) is not None:
        raise PreconditionError("point is not on the curve")
    if not squarefree_at(f, p):
        raise NonReducedError("curve is not reduced at the point")
    return ft


def _germ_branches(ft, precision, p, variables):
    """The expansion half of :func:`branches`: ft is the checked germ
    translated from p to the origin, and the branches record p and
    ``variables``."""
    total_mult = ft.order_at_origin()
    x, y = ft.variables
    work = ft
    out = []
    if _divisible_by(work, 0):
        work = divexact(work, MultiPoly.variable(x, work.variables, work.descriptor))
        out.append(_axis_branch("y-axis", precision, work.descriptor, p, variables))
    if _divisible_by(work, 1):
        work = divexact(work, MultiPoly.variable(y, work.variables, work.descriptor))
        out.append(_axis_branch("x-axis", precision, work.descriptor, p, variables))
    if _origin_coeff(work) is None:
        ctx = {"fresh": 0}
        for path in _expand(work, precision, ctx):
            out.append(_assemble(path, precision, p, variables))
    for b in out:
        if not _compose(ft, b, b.precision).is_zero:
            raise InsufficientPrecisionError(
                "a computed parametrization fails to satisfy the equation")
    covered = sum(b.multiplicity * b.conjugacy_size for b in out)
    if covered != total_mult:
        raise InsufficientPrecisionError(
            f"branches cover multiplicity {covered} of {total_mult}")
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
    o = _t_order(_compose(_localized(g, branch), branch, branch.precision))
    return ZERO_UP_TO_TRUNCATION if o is None else o


def nash_lift_order(branch, v):
    """Vanishing order of a tangent vector field against the lifted frame.

    The comparison frame is the derivative of the parametrization divided
    by t^(m-1), whose leading component is a unit; the order of the field
    along the branch relative to that frame is the order of the matching
    component of the composed field.  Fields that are not tangent to the
    branch, or vanish identically along it, are rejected.  On an inexact
    branch the derivative, and so every product below, is known only
    below t^(N-1).
    """
    a, b = v
    if tuple(a.variables) != tuple(branch.variables) or tuple(b.variables) != tuple(branch.variables):
        raise PreconditionError("vector field variables do not match the branch")
    n = branch.precision - 1
    if n < 1 and not branch.exact:
        raise PreconditionError("precision too small to differentiate the branch")
    xd = branch.x_poly.diff("t")
    yd = branch.y_poly.diff("t")
    av = _compose(_localized(a, branch), branch, n)
    bv = _compose(_localized(b, branch), branch, n)
    cut = None if branch.exact else n
    if not _composite(_CROSS, (av, yd, bv, xd), cut).is_zero:
        raise NonTangentError("vector field is not tangent to the branch")
    o = _t_order(av if _t_order(xd) == branch.multiplicity - 1 else bv)
    if o is None:
        if branch.exact:
            raise PreconditionError("vector field vanishes along the branch")
        # indistinguishable from a field vanishing on the whole branch;
        # a larger truncation may still separate the two
        raise InsufficientPrecisionError(
            "vector field vanishes along the branch up to the truncation")
    return o

