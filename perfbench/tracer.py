"""Per-layer tracing of folindex from outside the library.

``install`` wraps every public module-level function of the traced
folindex modules and rebinds each wrapped name in every loaded
``folindex`` namespace that holds it, so calls made from one module into
another (and within a module) pass through the wrapper.  ``src/`` is
never edited; the function ``install`` returns restores the bindings.

Each wrapper records a span in a ``Recorder``.  A span's self time is its
duration minus the time covered by the spans it directly contains, so
the self times of all spans add up to the time spent inside top-level
spans and never exceed the wall time they cover.

This module is imported only by traced runs: untraced runs never load it.
"""

from __future__ import annotations

import builtins
import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

# Modules whose public functions are wrapped, in layer order.
MODULES = ("cli", "exactcore", "localmult", "puiseux", "indices",
           "foliation", "verify", "confun", "chern")

# Functions whose calls and self time are reported as per-layer metrics
# (every public function is wrapped, so unlisted ones still take their own
# time out of their callers' self time).
REPORTED = {
    "cli": ("main",),
    "exactcore": ("substitute", "divexact", "try_divide", "gcd_univariate",
                  "gcd_bivariate", "resultant", "squarefree_at", "parse_poly"),
    "localmult": ("intersection_multiplicity", "milnor_number",
                  "curve_multiplicity"),
    "puiseux": ("branches", "ord_along_branch", "nash_lift_order"),
    "indices": ("ph_index", "euler_obstruction_field", "gsv_index",
                "schwartz_index", "log_index", "mu_along_curve",
                "polar_intersection", "chi_number", "auto_saito_basis"),
    "foliation": ("from_affine", "singular_points", "localize",
                  "divisor_in_charts", "is_log_along"),
    "verify": ("verify_baum_bott", "verify_log_seh", "verify_isolated",
               "verify_total_gsv"),
    "confun": ("index_pairing",),
    "chern": ("twisted_index_sum",),
}

FACTOR = "exactcore.factor_univariate"
SYMPY_IMPORT = "startup.import_sympy"


def per_layer_units():
    """Every per-layer metric name with its unit, in reporting order."""
    units = {}
    for module, names in REPORTED.items():
        for name in names:
            units[f"{module}.{name}.calls"] = "count"
            units[f"{module}.{name}.self_s"] = "s"
    units.update({
        f"{FACTOR}.ext.calls": "count",
        f"{FACTOR}.ext.self_s": "s",
        f"{FACTOR}.ext.max_field_degree": "count",
        f"{FACTOR}.qq.calls": "count",
        f"{FACTOR}.qq.self_s": "s",
        "exactcore.fields_created": "count",
        "exactcore.extension_refusals": "count",
        "startup.import_folindex_s": "s",
        "startup.import_sympy_s": "s",
        "cli.sympy_loaded_ratio": "ratio",
        "puiseux.branches.insufficient": "count",
        "puiseux.certified_ratio": "ratio",
        "foliation.orbits": "count",
        "trace.overhead_ratio": "ratio",
    })
    return units


class Recorder:
    """Aggregates nested spans into per-name call counts and self times."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.max_field_degree = 0
        self._stack = []          # [name, start, time covered by children]
        self._last_error = None

    def enter(self, name):
        self._stack.append([name, self.clock(), 0.0])

    def exit(self):
        """Close the innermost span; return its duration."""
        name, start, covered = self._stack.pop()
        elapsed = self.clock() - start
        self.calls[name] += 1
        self.self_s[name] += elapsed - covered
        if self._stack:
            self._stack[-1][2] += elapsed
        return elapsed

    def error(self, exc):
        """Count an exception once, however many spans it leaves."""
        if exc is not self._last_error:
            self._last_error = exc
            self.counts[f"raised.{type(exc).__name__}"] += 1

    def merge(self, data):
        """Add an aggregate produced by ``as_dict`` (e.g. from a child process)."""
        self.calls.update(data["calls"])
        for name, value in data["self_s"].items():
            self.self_s[name] += value
        self.counts.update(data["counts"])
        self.max_field_degree = max(self.max_field_degree, data["max_field_degree"])

    def as_dict(self):
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counts": dict(self.counts),
                "max_field_degree": self.max_field_degree}


def _wrap(fn, name, rec):
    """A transparent wrapper that records ``fn``'s calls as spans named ``name``."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = name
        if name == FACTOR:
            descriptor = args[1] if len(args) > 1 else kwargs["descriptor"]
            span = f"{FACTOR}.{'ext' if descriptor.is_extension else 'qq'}"
            rec.max_field_degree = max(rec.max_field_degree, descriptor.degree)
        rec.enter(span)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            rec.exit()
            rec.error(exc)
            if name == "puiseux.branches" and type(exc).__name__ == "InsufficientPrecisionError":
                rec.counts["puiseux.branches.insufficient"] += 1
            raise
        rec.exit()
        if name == "puiseux.branches":
            rec.counts["puiseux.branches.certified"] += 1
        elif name == "foliation.singular_points":
            rec.counts["foliation.orbits"] += len(result)
        elif name == "exactcore.FieldDescriptor.simple_extension":
            rec.counts["exactcore.fields_created"] += 1
        return result

    return traced


def _folindex_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "folindex" or n.startswith("folindex."))]


def install(rec):
    """Wrap the public functions of every traced folindex module.

    Also times the first ``import sympy`` as its own span, and counts
    extension fields created through ``FieldDescriptor.simple_extension``.
    Returns a function that restores the original bindings.
    """
    import folindex.cli  # noqa: F401  (loads every traced module)
    from folindex.exactcore import FieldDescriptor

    undo = []
    wrappers = {}
    for short in MODULES:
        module = sys.modules[f"folindex.{short}"]
        for attr, value in vars(module).items():
            if (inspect.isfunction(value) and not attr.startswith("_")
                    and value.__module__ == module.__name__):
                wrappers[value] = _wrap(value, f"{short}.{attr}", rec)
    for module in _folindex_modules():
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrappers:
                undo.append((module, attr, value))
                setattr(module, attr, wrappers[value])

    original = FieldDescriptor.__dict__["simple_extension"]
    undo.append((FieldDescriptor, "simple_extension", original))
    FieldDescriptor.simple_extension = staticmethod(
        _wrap(original.__func__, "exactcore.FieldDescriptor.simple_extension", rec))

    real_import = builtins.__import__

    def timed_import(name, globals=None, locals=None, fromlist=(), level=0):
        if name == "sympy" and level == 0 and "sympy" not in sys.modules:
            rec.enter(SYMPY_IMPORT)
            try:
                return real_import(name, globals, locals, fromlist, level)
            finally:
                rec.exit()
        return real_import(name, globals, locals, fromlist, level)

    undo.append((builtins, "__import__", real_import))
    builtins.__import__ = timed_import

    def uninstall():
        for target, attr, value in reversed(undo):
            setattr(target, attr, value)

    return uninstall


def layer_metrics(rec, runs):
    """Per-layer metrics from ``rec``, averaged over ``runs`` identical passes.

    Startup figures and the overhead ratio are filled in by the caller.
    """
    out = {}
    for module, names in REPORTED.items():
        for name in names:
            key = f"{module}.{name}"
            out[f"{key}.calls"] = rec.calls[key] / runs
            out[f"{key}.self_s"] = rec.self_s[key] / runs
    for kind in ("ext", "qq"):
        out[f"{FACTOR}.{kind}.calls"] = rec.calls[f"{FACTOR}.{kind}"] / runs
        out[f"{FACTOR}.{kind}.self_s"] = rec.self_s[f"{FACTOR}.{kind}"] / runs
    out[f"{FACTOR}.ext.max_field_degree"] = rec.max_field_degree
    out["exactcore.fields_created"] = rec.counts["exactcore.fields_created"] / runs
    out["exactcore.extension_refusals"] = rec.counts["raised.ExtensionRequiredError"] / runs
    out["puiseux.branches.insufficient"] = rec.counts["puiseux.branches.insufficient"] / runs
    calls = rec.calls["puiseux.branches"]
    out["puiseux.certified_ratio"] = (
        rec.counts["puiseux.branches.certified"] / calls if calls else 0.0)
    out["foliation.orbits"] = rec.counts["foliation.orbits"] / runs
    return out
