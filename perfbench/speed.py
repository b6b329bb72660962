"""The machine's speed, measured with a fixed computation, and timings
scaled to one reference speed.

The benchmark's machine is a share of a busy host: its speed drifts by up
to 1.8x over stretches of seconds to a minute, and a 30 s run can fall
wholly in a slow or a fast stretch, which no statistic of its own wall
times can undo.  So every timed item is bracketed by runs of
``reference()``, which uses the standard library only (no change to
folindex or sympy can move it), and the item's time is scaled by
``REFERENCE_S / (the reference's time around it)``: the time the item
would take on a machine where ``reference()`` takes ``REFERENCE_S``.
REFERENCE_S is about what the reference takes on the 2-vCPU VM the
benchmark was built on, so scaled times there read close to wall times.
perfbench/predictions.md gives the spreads with and without scaling.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

REFERENCE_S = 0.005


def reference():
    """Products of polynomials with rational coefficients, the kind of
    exact arithmetic folindex spends its time on."""
    p = [Fraction(i + 1, i + 2) for i in range(12)]
    q = [Fraction(2 * i - 3, i + 5) for i in range(12)]
    for _ in range(6):
        r = [Fraction(0)] * 23
        for i, a in enumerate(p):
            for j, b in enumerate(q):
                r[i + j] += a * b
        p = [c / (k + 1) for k, c in enumerate(r[:12])]
    return p


def reference_time():
    """Wall time of one ``reference()``, with the garbage collector off so
    that the heap the measured program leaves behind does not slow it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(times, refs):
    """``times[i]`` at reference speed, where ``times[i]`` was measured
    between the reference runs ``refs[i]`` and ``refs[i + 1]``: the
    machine's speed during the item is taken as their mean."""
    if len(refs) != len(times) + 1:
        raise ValueError(f"{len(times)} times need {len(times) + 1} reference runs")
    return [2 * t * REFERENCE_S / (refs[i] + refs[i + 1]) for i, t in enumerate(times)]
