"""A finite Milnor number and the gcd test ``squarefree_at`` prove the
same germs reduced.

A finite ``milnor_number`` is its own proof, with ``squarefree_at`` as
its fallback: a component through the point shared by f_x and f_y is one
along which f is constant, hence zero, and singular, hence repeated, so
the colength is infinite exactly when the curve is not reduced there.
An index that needs mu takes it as the proof, and one that does not runs
the gcd test alone, so the two must agree on every germ.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

from folindex.exactcore import (
    QQ,
    FieldDescriptor,
    FieldElem,
    MultiPoly,
    NonReducedError,
    squarefree_at,
    translate_to_origin,
)
from folindex.localmult import milnor_number

from conftest import ORIGIN, P2, V2


def _germ_sample(rng, desc):
    """A random polynomial over ``desc`` vanishing at the origin."""
    terms = {}
    for _ in range(rng.randint(1, 4)):
        i = rng.randint(0, 3)
        j = rng.randint(0, 3 - i)
        c = FieldElem(desc, [rng.randint(-2, 2) for _ in range(desc.degree)])
        if i + j and not c.is_zero:
            terms[(i, j)] = c
    return MultiPoly(V2, desc, terms)


def test_milnor_number_refuses_exactly_the_germs_squarefree_at_refuses():
    """milnor_number raises NonReducedError exactly when squarefree_at
    finds a repeated factor through the point, on random germs g, g*h,
    g^2*h, g*k^2 and g*(k + 1)^2 (repeated away from the point), moved to
    points off the origin, over Q and over Q(sqrt 2)."""
    sqrt2 = FieldDescriptor.simple_extension("r", [Fraction(-2), Fraction(0), Fraction(1)])
    rng = random.Random(20261019)
    outcomes = Counter()
    for n in range(200):
        desc = sqrt2 if n % 4 == 0 else QQ
        g, h, k = (_germ_sample(rng, desc) for _ in range(3))
        if g.is_zero or h.is_zero or k.is_zero:
            continue
        one = MultiPoly.constant(1, V2, desc)
        f = (g, g * h, g * g * h, g * k * k, g * (k + one) ** 2)[n % 5]
        p = tuple(FieldElem(desc, [rng.randint(-1, 1) for _ in range(desc.degree)])
                  for _ in V2)
        f = translate_to_origin(f, tuple(-c for c in p))   # f(x - p): zero at p
        reduced = squarefree_at(f, p)
        try:
            mu = milnor_number(f, p)
        except NonReducedError:
            assert not reduced, f"NonReducedError on a reduced germ {f!r} at {p}"
            outcomes["refused", desc.is_extension] += 1
            continue
        assert reduced, f"mu = {mu} on a non-reduced germ {f!r} at {p}"
        outcomes["finite", desc.is_extension] += 1
    assert len(outcomes) == 4 and min(outcomes.values()) >= 10, outcomes


def test_a_partial_identically_zero_is_refused_at_a_singular_point():
    # y^2 (y - 1): f_x = 0 and f_y vanishes at the origin
    with pytest.raises(NonReducedError):
        milnor_number(P2("y^2*(y - 1)"), ORIGIN)
    assert milnor_number(P2("y*(y - 1)"), ORIGIN) == 0
