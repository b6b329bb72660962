"""The three benchmark workloads: what one item is, how it runs, how it is judged.

Each workload offers
  ``setup()``        imports, input generation and warm-up in this process;
  ``items``          the inputs of one pass, in a fixed base order;
  ``prepare(item)``  untimed work before an item;
  ``run(item)``      the timed call into folindex, returning its raw result;
  ``judge(item, raw)`` an untimed ``Outcome`` (answer, answered, failure);
  ``setup_command(seed)`` a fresh process whose wall time is one ``setup_s`` sample;
  ``min_passes``     the fewest passes an untraced run makes;
  ``label(item)``    how the item is named in the tail listing.
Traced runs call ``run_traced(item, rec)`` instead of ``run``.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CORPUS = ROOT / "corpus"

# A child process that runs longer than this is killed (and, for a cold CLI
# run, counted as failed), so one hang cannot stall the whole run.
ITEM_TIMEOUT_S = 60


@dataclass(frozen=True)
class Outcome:
    answer: object          # compared between traced and untraced passes
    answered: bool          # an exact answer, not a typed refusal
    failure: str | None     # why the item counts as failed, if it does


def timed_imports():
    """Import folindex's CLI, then sympy, in this process; return their times."""
    start = time.perf_counter()
    import folindex.cli  # noqa: F401
    mid = time.perf_counter()
    import sympy  # noqa: F401
    return {"import_folindex_s": mid - start, "import_sympy_s": time.perf_counter() - mid,
            "sympy_loaded": True}


@dataclass(frozen=True)
class Entry:
    name: str
    argv: tuple
    problem: Path
    report: Path


def corpus_entries():
    manifest = json.loads((CORPUS / "manifest.json").read_text())
    return [Entry(e["name"], tuple(e["argv"]), CORPUS / e["problem"], CORPUS / e["report"])
            for e in manifest["entries"]]


class _CorpusWorkload:
    """Shared by the two corpus workloads: items are manifest entries, and a
    report is correct when it is byte-identical to the stored one."""

    min_passes = 1

    def __init__(self, tmpdir):
        self.tmpdir = Path(tmpdir)
        self.out = self.tmpdir / "report.json"
        self.items = []
        self.expected = {}
        self.startup = []   # per measuring process: import times, sympy loaded

    def _load(self):
        self.items = corpus_entries()
        self.expected = {e.name: e.report.read_bytes() for e in self.items}

    def label(self, entry):
        return entry.name

    def prepare(self, entry):
        self.out.unlink(missing_ok=True)

    def _cli_args(self, entry):
        return [*entry.argv, "--input", str(entry.problem), "--json", str(self.out)]

    def judge(self, entry, raw):
        code, error = raw
        report = self.out.read_bytes() if self.out.exists() else None
        if error is not None:
            return Outcome((code, report), False, error)
        if code != 0:
            return Outcome((code, report), False, f"exit code {code}")
        if report != self.expected[entry.name]:
            return Outcome((code, report), False, "report differs from the stored report")
        return Outcome((code, report), True, None)


class CliCold(_CorpusWorkload):
    """Each corpus entry as a fresh ``python -m folindex.cli ... --json`` process."""

    name = "cli_cold"
    # A pass takes about 30 s.  Two runs per entry are steadier than one.
    min_passes = 2

    def setup(self):
        self._load()

    def setup_command(self, seed):
        return [sys.executable, "-m", "folindex.cli", "--help"]

    def _spawn(self, cmd):
        code, stderr, _ = run_child(cmd)
        if code == -signal.SIGKILL:
            return None, f"killed: no exit within {ITEM_TIMEOUT_S} s"
        if code != 0:
            tail = stderr.decode(errors="replace").strip().splitlines()[-1:]
            return code, f"exit code {code}: {' '.join(tail)}"
        return 0, None

    def run(self, entry):
        return self._spawn([sys.executable, "-m", "folindex.cli", *self._cli_args(entry)])

    def run_traced(self, entry, rec):
        spans = self.tmpdir / "spans.json"
        spans.unlink(missing_ok=True)
        raw = self._spawn([sys.executable, str(BENCH_DIR / "traced_cli.py"), str(spans),
                           *self._cli_args(entry)])
        if spans.exists():
            data = json.loads(spans.read_text())
            rec.merge(data["trace"])
            self.startup.append(data["startup"])
        return raw


class CorpusWarm(_CorpusWorkload):
    """The corpus replayed through ``folindex.cli.main`` in this process."""

    name = "corpus_warm"

    def setup(self):
        self.startup = [timed_imports()]
        import folindex.cli
        self.cli = folindex.cli
        self._load()
        for entry in self.items:  # warm-up pass: sympy's caches and lazy imports
            self.run(entry)

    def setup_command(self, seed):
        return [sys.executable, str(BENCH_DIR / "run.py"), "--workload", self.name,
                "--seed", str(seed), "--setup-only"]

    def run(self, entry):
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                return self.cli.main(self._cli_args(entry)), None
        except Exception as exc:  # an untyped exception is a failed item, not a crash
            return None, f"{type(exc).__name__}: {exc}"

    def run_traced(self, entry, rec):
        return self.run(entry)


# -- dual oracle --------------------------------------------------------------

# The criterion-3 sampler at degree 3 (see random_terms), drawn from this seed.
POOL_SEED = 20260822
POOL_SIZE = 16
MAX_DEGREE = 3
MAX_COEFF = 2


def random_terms(rng, max_degree=MAX_DEGREE, max_coeff=MAX_COEFF):
    """The acceptance suite's ``random_poly`` as {(i, j): coefficient}:
    2-6 random terms, no constant term."""
    terms = {}
    for _ in range(rng.randint(2, 6)):
        i = rng.randint(0, max_degree)
        j = rng.randint(0, max_degree - i)
        if i + j == 0:
            continue
        c = rng.randint(-max_coeff, max_coeff)
        if c:
            terms[(i, j)] = c
    return terms


class DualOracle:
    """Fulton's recursion against the conjugacy-weighted branch-order sum."""

    name = "dual_oracle"
    # One pass is one run of each pair; with one pass the 1.6x swings in this
    # machine's speed moved p90 by a third between runs.  Two runs per pair
    # are steadier, and 16 pairs (about 13 s) keep two passes within a run.
    min_passes = 2

    def __init__(self, tmpdir):
        self.items = []
        self.startup = []

    def setup(self):
        # sympy is imported here, not by whichever timed draw factors first
        self.startup = [timed_imports()]
        import folindex
        from folindex.exactcore import QQ, FieldElem
        from folindex.puiseux import ZERO_UP_TO_TRUNCATION

        from sympy.core.cache import clear_cache

        self.clear_cache = clear_cache
        self.fi = folindex
        self.zero_up_to_truncation = ZERO_UP_TO_TRUNCATION
        self.origin = (Fraction(0), Fraction(0))

        def draw():
            return folindex.MultiPoly(("x", "y"), QQ, {
                k: FieldElem.of(c, QQ) for k, c in random_terms(rng).items()})

        rng = random.Random(POOL_SEED)
        self.items = []
        while len(self.items) < POOL_SIZE:
            f, g = draw(), draw()
            if not (f.is_zero or g.is_zero):  # the sampler redraws zero polynomials
                self.items.append((len(self.items), f, g))

    def setup_command(self, seed):
        return [sys.executable, str(BENCH_DIR / "run.py"), "--workload", self.name,
                "--seed", str(seed), "--setup-only"]

    def prepare(self, item):
        # A draw reuses whatever sympy cached for the draws before it: the
        # slowest pair took 10.5 s after a cleared cache and 6.7 s right
        # after itself.  Clearing makes each draw's time independent of the
        # seed's order.
        self.clear_cache()

    def label(self, item):
        return f"#{item[0]} f = {item[1]!r}, g = {item[2]!r}"

    def _branch_order_sum(self, f, g, precision=32, ceiling=512):
        """Conjugacy-weighted order of g along the branches of f, doubling the
        precision until certified; None when it cannot be certified."""
        fi = self.fi
        while True:
            try:
                pairs = [(b, fi.ord_along_branch(b, g))
                         for b in fi.branches(f, self.origin, precision)]
            except fi.InsufficientPrecisionError:
                precision *= 2
                continue
            if all(isinstance(o, int) for _, o in pairs):
                return sum(b.conjugacy_size * o for b, o in pairs)
            if any(b.exact and o is self.zero_up_to_truncation for b, o in pairs):
                return None
            if precision >= ceiling:
                return None
            precision *= 2

    def run(self, item):
        _, f, g = item
        fi = self.fi
        try:
            fulton = fi.intersection_multiplicity(f, g, self.origin)
            if not fulton.is_finite or fulton.value == 0:
                return ("fulton only", str(fulton.value))
            try:
                total = self._branch_order_sum(f, g)
            except (fi.ExtensionRequiredError, fi.NonReducedError) as exc:
                return ("refused", type(exc).__name__)
            if total is None:
                return ("uncertified", fulton.value)
            return ("both", fulton.value, total)
        except Exception as exc:  # an untyped exception is a failed item, not a crash
            return ("error", f"{type(exc).__name__}: {exc}")

    def run_traced(self, item, rec):
        return self.run(item)

    def judge(self, item, raw):
        kind = raw[0]
        if kind == "error":
            return Outcome(raw, False, raw[1])
        if kind == "both" and raw[1] != raw[2]:
            return Outcome(raw, False, f"Fulton gives {raw[1]}, branches give {raw[2]}")
        return Outcome(raw, kind in ("fulton only", "both"), None)


WORKLOADS = {w.name: w for w in (CliCold, CorpusWarm, DualOracle)}


def run_child(cmd):
    """Run a child process to its end: (exit code, stderr, wall seconds).

    A child still running after ITEM_TIMEOUT_S is killed by a watchdog.  The
    wait blocks in waitpid instead of polling (as ``subprocess.run`` with a
    timeout does, in steps of up to 50 ms), so the wall time is not rounded.
    """
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE) as proc:
        watchdog = threading.Timer(ITEM_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            stderr = proc.stderr.read()
            code = proc.wait()
        finally:
            watchdog.cancel()
    return code, stderr, time.perf_counter() - start


def time_command(cmd):
    """Wall time of one fresh process; raises if it fails."""
    code, stderr, elapsed = run_child(cmd)
    if code != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {code}: "
                           f"{stderr.decode(errors='replace').strip()}")
    return elapsed
