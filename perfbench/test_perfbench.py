"""Tests of the benchmark itself: span arithmetic, speed scaling, transparent
tracing, and that wrong answers are counted and fail the command.

    python3 -m pytest perfbench -q
"""

import json
import sys
import time

import pytest

import run
import speed
import tracer
import workloads

sys.path.insert(0, str(workloads.SRC))


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_nested_self_times():
    clock = FakeClock()
    rec = tracer.Recorder(clock)
    rec.enter("a")            # a: 0..10
    clock.now = 2
    rec.enter("b")            # b: 2..5, contains c
    clock.now = 3
    rec.enter("c")            # c: 3..4
    clock.now = 4
    assert rec.exit() == 1
    clock.now = 5
    assert rec.exit() == 3
    clock.now = 6
    rec.enter("d")            # d: 6..8
    clock.now = 8
    rec.exit()
    clock.now = 10
    assert rec.exit() == 10
    assert dict(rec.self_s) == {"a": 5, "b": 2, "c": 1, "d": 2}
    assert sum(rec.self_s.values()) == 10
    assert dict(rec.calls) == {"a": 1, "b": 1, "c": 1, "d": 1}


def test_recursive_spans_share_a_name():
    clock = FakeClock()
    rec = tracer.Recorder(clock)
    rec.enter("f")            # outer f: 0..4, inner f: 1..3
    clock.now = 1
    rec.enter("f")
    clock.now = 3
    rec.exit()
    clock.now = 4
    rec.exit()
    assert rec.calls["f"] == 2
    assert rec.self_s["f"] == 4


def test_exception_closes_spans_and_counts_once():
    rec = tracer.Recorder()

    def inner():
        raise ValueError("refused")

    wrapped_inner = tracer._wrap(inner, "m.inner", rec)
    wrapped_outer = tracer._wrap(lambda: wrapped_inner(), "m.outer", rec)
    with pytest.raises(ValueError):
        wrapped_outer()
    assert rec.calls["m.inner"] == rec.calls["m.outer"] == 1
    assert rec.counts["raised.ValueError"] == 1
    assert not rec._stack


def test_times_scale_to_the_reference_speed():
    r = speed.REFERENCE_S
    # at half the reference speed the reference takes twice as long
    assert speed.scale([0.2, 0.4], [2 * r] * 3) == pytest.approx([0.1, 0.2])
    # an item's speed is the mean of the reference runs around it
    assert speed.scale([1.0, 1.0], [r, 3 * r, r]) == pytest.approx([0.5, 0.5])
    with pytest.raises(ValueError):
        speed.scale([1.0], [r])


def test_reference_time_leaves_the_collector_as_it_was():
    import gc
    assert gc.isenabled()
    assert speed.reference_time() > 0
    assert gc.isenabled()


@pytest.fixture
def installed():
    import folindex.cli
    original = folindex.cli.main
    rec = tracer.Recorder()
    uninstall = tracer.install(rec)
    yield rec
    uninstall()
    assert folindex.cli.main is original


def _replay(entries, out):
    import folindex.cli
    reports = []
    for e in entries:
        code = folindex.cli.main([*e.argv, "--input", str(e.problem), "--json", str(out)])
        reports.append((code, out.read_bytes()))
    return reports


def test_tracing_is_transparent_and_self_time_fits_wall_time(installed, tmp_path, capsys):
    entries = [e for e in workloads.corpus_entries()
               if e.name in ("cusp_hamiltonian.gsv", "diagonal_line.seh", "tacnode_radial.puiseux")]
    start = time.perf_counter()
    traced = _replay(entries, tmp_path / "r.json")
    wall = time.perf_counter() - start
    rec = installed
    assert rec.calls["cli.main"] == 3
    assert rec.calls["puiseux.branches"] > 0 and rec.calls["foliation.singular_points"] > 0
    assert all(v >= 0 for v in rec.self_s.values())
    assert sum(rec.self_s.values()) <= wall
    assert traced == [(0, e.report.read_bytes()) for e in entries]


def _output(capsys):
    """The JSON result line and the printed fail_ratio of a run."""
    lines = capsys.readouterr().out.strip().splitlines()
    fail_ratio = next(float(line.split()[1]) for line in lines
                      if line.split()[:1] == ["fail_ratio"])
    return json.loads(lines[-1]), fail_ratio


def _main(monkeypatch, workload, cls):
    monkeypatch.setenv("PYTHONPATH", "")
    monkeypatch.setitem(run.WORKLOADS, workload, cls)
    monkeypatch.setitem(run.SETUP_SAMPLES, workload, 1)
    return run.main(["--workload", workload, "--seed", "7", "--seconds", "0"])


class CorruptedReport(workloads.CorpusWarm):
    def _load(self):
        super()._load()
        name = self.items[0].name
        self.expected[name] = self.expected[name].replace(b'"value"', b'"valve"')


def test_corrupted_report_fails_the_command(monkeypatch, capsys):
    assert _main(monkeypatch, "corpus_warm", CorruptedReport) == 1
    out, fail_ratio = _output(capsys)
    assert out["correct"] is False
    assert out["failed"] == 1 and out["attempted"] == 57
    assert fail_ratio == pytest.approx(1 / 57, rel=1e-5)


class Disagreeing(workloads.DualOracle):
    def _branch_order_sum(self, f, g, precision=32, ceiling=512):
        total = super()._branch_order_sum(f, g, precision, ceiling)
        return None if total is None else total + 1


def test_forced_disagreement_fails_the_command(monkeypatch, capsys):
    monkeypatch.setattr(workloads, "POOL_SIZE", 6)
    monkeypatch.delitem(sys.modules, "tracer")
    assert _main(monkeypatch, "dual_oracle", Disagreeing) == 1
    assert "tracer" not in sys.modules  # untraced runs never load the wrappers
    out, fail_ratio = _output(capsys)
    assert out["correct"] is False
    assert 0 < out["failed"] <= out["attempted"] == 6 * Disagreeing.min_passes
    assert fail_ratio == pytest.approx(out["failed"] / out["attempted"], rel=1e-5)


def test_benchmark_json_names_match_the_reported_metrics():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.per_layer_units()
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)


def test_a_hanging_child_is_killed_and_fails(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "ITEM_TIMEOUT_S", 0.5)
    code, error = workloads.CliCold(tmp_path)._spawn(
        [sys.executable, "-c", "import time; time.sleep(30)"])
    assert code is None and error.startswith("killed")
