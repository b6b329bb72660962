"""folindex benchmark: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload {cli_cold,corpus_warm,dual_oracle,all}
                             --seed N --seconds S --trace {0,1}

Run from anywhere; the repository is the parent of this directory.  The
workloads, their metrics and the predictions they test are described in
BENCHMARK.json and perfbench/predictions.md.

With ``--trace 0`` the run measures the end-to-end metrics with no
tracing code loaded.  With ``--trace 1`` it runs the same passes untraced
and then traced, checks that both give the same outputs, and reports the
per-layer metrics of the traced passes.  End-to-end times are scaled to
a reference speed of the machine (see speed.py).  Every run checks its outputs;
the last line of standard output is the JSON result, and the exit code is
1 when any item failed.  ``all`` runs the three workloads one after
another, each in its own process.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time

import speed
from workloads import ROOT, SRC, WORKLOADS, time_command

SETUP_SAMPLES = {"cli_cold": 5, "corpus_warm": 3, "dual_oracle": 3}
# Settings that change what folindex or sympy compute or cache; the benchmark
# runs with the library defaults, so they are recorded and then removed.
DEFAULTED_ENV = ("FOLINDEX_PRECISION_CAP", "SYMPY_USE_CACHE", "SYMPY_GROUND_TYPES")
END_TO_END_UNITS = {"setup_s": "s", "items_per_s": "1/s", "latency_p50_ms": "ms",
                    "latency_p90_ms": "ms", "answered_ratio": "ratio",
                    "peak_rss_mb": "MB"}
TAIL = 5


class Pass:
    """Results of running every item once, in one order."""

    def __init__(self, order):
        self.order = order
        self.latencies = []
        self.outcomes = []
        self.refs = [speed.reference_time()]  # one before each item, one after the last

    def scaled(self):
        """The latencies at the reference speed."""
        return speed.scale(self.latencies, self.refs)


def run_passes(workload, order_of, seconds=None, min_passes=1, count=None, rec=None):
    """Run whole passes, each in the order ``order_of(index)``: ``count`` of
    them, or else as many as fit in ``seconds`` judging by the passes so far
    (at least ``min_passes``).  Return the passes and their wall time."""
    done = []
    start = time.perf_counter()
    while True:
        p = Pass(order_of(len(done)))
        for item in p.order:
            workload.prepare(item)
            t0 = time.perf_counter()
            raw = workload.run(item) if rec is None else workload.run_traced(item, rec)
            p.latencies.append(time.perf_counter() - t0)
            p.outcomes.append(workload.judge(item, raw))
            p.refs.append(speed.reference_time())
        done.append(p)
        elapsed = time.perf_counter() - start
        if count is None:
            if len(done) >= min_passes and elapsed * (1 + 1 / len(done)) > seconds:
                return done, elapsed
        elif len(done) == count:
            return done, elapsed


def shuffled(rng, items):
    return rng.sample(items, len(items))


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def item_latencies(workload, passes, scaled=True):
    """Each item's median latency over the passes, keyed by its label: at
    the reference speed, or as the wall clock read it."""
    runs = {}
    for p in passes:
        for item, t in zip(p.order, p.scaled() if scaled else p.latencies):
            runs.setdefault(workload.label(item), []).append(t)
    return {label: statistics.median(ts) for label, ts in runs.items()}


def end_to_end(workload, passes, setup_samples):
    """The end-to-end metrics and their printed lines.  Times are at the
    reference speed; each item counts with its median over the passes."""
    typical = list(item_latencies(workload, passes).values())
    wall = list(item_latencies(workload, passes, scaled=False).values())
    refs = [r for p in passes for r in p.refs]
    outcomes = [o for p in passes for o in p.outcomes]
    n = len(outcomes)
    answered = sum(o.answered for o in outcomes)
    failed = sum(o.failure is not None for o in outcomes)
    values = {
        "setup_s": statistics.median(setup_samples),
        "items_per_s": len(typical) / sum(typical),
        "latency_p50_ms": 1000 * statistics.median(typical),
        "latency_p90_ms": 1000 * statistics.quantiles(typical, n=10)[8],
        "answered_ratio": answered / n,
        "peak_rss_mb": peak_rss_mb(children=workload.name == "cli_cold"),
    }
    samples = f"n={len(typical)} items, median of {len(passes)} run(s) each"
    notes = {"setup_s": f"median of {len(setup_samples)} fresh processes",
             "items_per_s": f"{samples}; {len(wall) / sum(wall):.4g} by the wall clock",
             "latency_p50_ms": f"{samples}; {1000 * statistics.median(wall):.4g} by the wall clock",
             "latency_p90_ms": samples, "answered_ratio": f"{answered} of {n}"}
    lines = [f"  {k:<16}{v:>14.6g} {END_TO_END_UNITS[k]:<6}{notes.get(k, '')}"
             for k, v in values.items()]
    lines.insert(5, f"  {'fail_ratio':<16}{failed / n:>14.6g} {'ratio':<6}{failed} of {n}")
    lines.insert(0, f"  machine speed: reference() took {1000 * statistics.median(refs):.3f} ms "
                    f"(median of {len(refs)}); times are scaled to "
                    f"{1000 * speed.REFERENCE_S:g} ms")
    return values, lines


def tail(workload, passes):
    """The slowest items by their median run, with their outcomes."""
    typical = item_latencies(workload, passes)
    outcome = {workload.label(i): o for i, o in zip(passes[0].order, passes[0].outcomes)}
    lines = []
    for label, t in sorted(typical.items(), key=lambda kv: -kv[1])[:TAIL]:
        o = outcome[label]
        result = f"failed: {o.failure}" if o.failure else _short(o.answer)
        lines.append(f"  {1000 * t:10.1f} ms  {label}  -> {result}")
    return lines


def _short(answer):
    if isinstance(answer, tuple) and len(answer) == 2 and isinstance(answer[1], bytes):
        return f"exit {answer[0]}, report {len(answer[1])} bytes"
    return repr(answer)


def environment(removed):
    """The machine and library settings of the run.  ``removed`` holds the
    caller's settings of DEFAULTED_ENV, which the run does not use."""
    import sympy
    from sympy.external.gmpy import GROUND_TYPES
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "sympy": sympy.__version__, "sympy_ground_types": GROUND_TYPES,
            "SYMPY_USE_CACHE": "unset (sympy default: cache on)",
            "FOLINDEX_PRECISION_CAP": "unset (folindex default)",
            "removed_from_caller_env": removed}


def setup_time(workload, seed):
    """One fresh set-up process's time at the reference speed."""
    before = speed.reference_time()
    elapsed = time_command(workload.setup_command(seed))
    return speed.scale([elapsed], [before, speed.reference_time()])[0]


def measure(workload, args):
    """Untraced run: end-to-end metrics."""
    setup_samples = [setup_time(workload, args.seed)
                     for _ in range(SETUP_SAMPLES[workload.name])]
    workload.setup()
    rng = random.Random(args.seed)
    passes, elapsed = run_passes(workload, lambda _: shuffled(rng, workload.items), args.seconds,
                                 workload.min_passes)
    values, lines = end_to_end(workload, passes, setup_samples)
    outcomes = [o for p in passes for o in p.outcomes]
    header = (f"{workload.name}: seed {args.seed}, {len(passes)} pass(es) of "
              f"{len(workload.items)} items in {elapsed:.2f} s, closed loop, 1 client")
    failures = [f"  FAILED {workload.label(i)}: {o.failure}" for p in passes
                for i, o in zip(p.order, p.outcomes) if o.failure]
    return values, len(outcomes), len(failures), [header, *lines, *failures]


def measure_traced(workload, args):
    """Traced run: the same passes untraced and traced, per-layer metrics."""
    workload.setup()
    rng = random.Random(args.seed)
    plain, plain_s = run_passes(workload, lambda _: shuffled(rng, workload.items),
                                args.seconds / 2)
    import tracer  # only traced runs load the wrappers
    rec = tracer.Recorder()
    # cold CLI children install the wrappers themselves (traced_cli.py)
    uninstall = tracer.install(rec) if workload.name != "cli_cold" else (lambda: None)
    try:
        traced, traced_s = run_passes(workload, lambda i: plain[i].order, count=len(plain),
                                      rec=rec)
    finally:
        uninstall()

    values = tracer.layer_metrics(rec, len(traced))
    startup = workload.startup or [{"import_folindex_s": 0.0, "sympy_loaded": False}]
    loaded = [s for s in startup if s["sympy_loaded"]]
    values["startup.import_folindex_s"] = statistics.median(
        s["import_folindex_s"] for s in startup)
    values["startup.import_sympy_s"] = (
        statistics.median(s["import_sympy_s"] for s in loaded) if loaded else 0.0)
    values["cli.sympy_loaded_ratio"] = len(loaded) / len(startup)
    values["trace.overhead_ratio"] = (sum(sum(p.scaled()) for p in plain)
                                      / sum(sum(p.scaled()) for p in traced) - 1)

    lines = [f"{workload.name}: seed {args.seed}, {len(plain)} untraced and "
             f"{len(traced)} traced pass(es) of {len(workload.items)} items "
             f"({plain_s:.2f} s untraced, {traced_s:.2f} s traced)"]
    problems = []
    for p, t in zip(plain, traced):
        for item, a, b in zip(p.order, p.outcomes, t.outcomes):
            for o in (a, b):
                if o.failure:
                    problems.append(f"  FAILED {workload.label(item)}: {o.failure}")
            if a.answer != b.answer:
                problems.append(f"  TRACED OUTPUT DIFFERS {workload.label(item)}: "
                                f"{_short(a.answer)} vs {_short(b.answer)}")
    units = tracer.per_layer_units()
    lines += [f"  {k:<52}{values[k]:>14.6g} {units[k]}" for k in units]
    lines.append("slowest items (untraced, ms at the reference speed):")
    lines += tail(workload, plain)
    lines.append("all wrapped functions (calls, self s per pass):")
    lines += [f"  {name:<52}{rec.calls[name] / len(traced):>10.1f} "
              f"{rec.self_s[name] / len(traced):>12.6f}"
              for name in sorted(rec.calls, key=lambda k: -rec.self_s[k])]
    attempted = sum(len(p.outcomes) for p in plain + traced)
    return values, attempted, len(problems), lines + problems


def result(values, units, attempted, failed):
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}


def run_all(args):
    """Each workload in its own process, so memory and imports do not mix."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if not lines:
            raise SystemExit(f"{name}: no result (exit code {proc.returncode})")
        print("\n".join(lines[:-1]), flush=True)
        res = json.loads(lines[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    return total


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "folindex" / "cli.py").is_file():
        print(f"error: no folindex sources under {SRC}", file=sys.stderr)
        return 2
    removed = {k: os.environ.pop(k) for k in DEFAULTED_ENV if k in os.environ}
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])
    sys.path.insert(0, str(SRC))
    origin = importlib.util.find_spec("folindex").origin
    if os.path.dirname(origin) != str(SRC / "folindex"):
        print(f"error: folindex would be imported from {origin}", file=sys.stderr)
        return 2

    if args.workload == "all":
        res = run_all(args)
        print(json.dumps(res))
        return 0 if res["correct"] else 1

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmpdir:
        workload = WORKLOADS[args.workload](tmpdir)
        if args.setup_only:
            workload.setup()
            return 0
        if args.trace:
            import tracer
            values, attempted, failed, lines = measure_traced(workload, args)
            units = tracer.per_layer_units()
        else:
            values, attempted, failed, lines = measure(workload, args)
            units = END_TO_END_UNITS
    print("\n".join(lines))
    print("env " + json.dumps(environment(removed)))
    res = result(values, units, attempted, failed)
    print(json.dumps(res))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
