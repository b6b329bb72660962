"""Shared helpers for the test suite: parsers, germs, random samplers."""

import itertools
import os
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

import folindex
from folindex import (
    ExtensionRequiredError,
    InsufficientPrecisionError,
    MultiPoly,
    NonReducedError,
    VectorFieldGerm,
    branches,
    intersection_multiplicity,
    ord_along_branch,
    parse_poly,
)
from folindex import exactcore, localmult, puiseux
from folindex.puiseux import ZERO_UP_TO_TRUNCATION
from folindex.exactcore import QQ, FieldElem
from folindex.localmult import INFINITE

V2 = ("x", "y")
V3 = ("x", "y", "z")
ORIGIN = (Fraction(0), Fraction(0))


def subprocess_env():
    """The environment with this package's source on PYTHONPATH, for subprocesses."""
    src = os.path.dirname(os.path.dirname(folindex.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def P2(text):
    return parse_poly(text, V2)


def P3(text):
    return parse_poly(text, V3)


def germ(a, b):
    return VectorFieldGerm(P2(a), P2(b))


@pytest.fixture
def p2():
    return P2


@pytest.fixture
def p3():
    return P3


@pytest.fixture
def localization_counts(monkeypatch):
    """(checked, expanded): Counters of the reducedness proofs (square-free
    tests and Milnor numbers) per (polynomial, point) and of the branch
    expansions per (polynomial, precision) made by every folindex module
    while the test runs."""
    checked, expanded = Counter(), Counter()
    real_expand = puiseux._expand

    def counted(real):
        def check(f, point=None):
            key = None if point is None else tuple(FieldElem.of(c) for c in point)
            checked[(f, key)] += 1
            return real(f, point)
        return check

    def expand(f, budget, ctx):
        expanded[(f, budget)] += 1
        return real_expand(f, budget, ctx)

    # a Milnor number is counted as a reducedness proof too
    for real in (exactcore.squarefree_at, localmult.milnor_number):
        check = counted(real)
        for name, module in list(sys.modules.items()):
            if name.startswith("folindex") and getattr(module, real.__name__, None) is real:
                monkeypatch.setattr(module, real.__name__, check)
    monkeypatch.setattr(puiseux, "_expand", expand)
    return checked, expanded


def random_poly(rng, max_degree=4, max_coeff=2, origin_zero=True):
    """A random small polynomial; with origin_zero the constant term is 0."""
    terms = {}
    for _ in range(rng.randint(2, 6)):
        i = rng.randint(0, max_degree)
        j = rng.randint(0, max_degree - i)
        if origin_zero and i + j == 0:
            continue
        c = rng.randint(-max_coeff, max_coeff)
        if c:
            terms[(i, j)] = FieldElem.of(c, QQ)
    return MultiPoly(V2, QQ, terms)


def branch_order_sum(f, g, precision=32, ceiling=512):
    """Conjugacy-weighted order of g along every branch of f, or None when
    g vanishes identically on a branch or precision runs out."""
    while True:
        try:
            pairs = [(b, ord_along_branch(b, g))
                     for b in branches(f, ORIGIN, precision)]
        except InsufficientPrecisionError:
            precision *= 2
            continue
        if all(isinstance(o, int) for _, o in pairs):
            return sum(b.conjugacy_size * o for b, o in pairs)
        if any(b.exact and o is ZERO_UP_TO_TRUNCATION for b, o in pairs):
            return None
        if precision >= ceiling:
            return None
        precision *= 2


def dual_oracle_sample(count, seed):
    """Yield (f, g, fulton, branch total) for reduced pairs with finite
    intersection; draws that need unreachable extensions are resampled.
    ``count`` None draws without end."""
    rng = random.Random(seed)
    produced = 0
    while count is None or produced < count:
        f = random_poly(rng)
        g = random_poly(rng)
        if f.is_zero or g.is_zero:
            continue
        fulton = intersection_multiplicity(f, g, ORIGIN)
        if not fulton.is_finite or fulton.value == 0:
            continue
        fulton = fulton.value
        try:
            total = branch_order_sum(f, g)
        except (ExtensionRequiredError, NonReducedError):
            continue
        if total is None:
            continue
        yield f, g, fulton, total
        produced += 1


_DUAL_ORACLE_CACHE = {}


def dual_oracle_pairs(count=100, seed=20260822):
    """The first ``count`` pairs of the sample above, each drawn once per
    session: a shorter prefix reuses a longer draw."""
    drawn, rest = _DUAL_ORACLE_CACHE.setdefault(seed, ([], dual_oracle_sample(None, seed)))
    drawn.extend(itertools.islice(rest, max(count - len(drawn), 0)))
    return drawn[:count]
