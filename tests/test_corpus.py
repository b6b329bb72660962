"""Golden corpus replay: every stored report must be reproduced byte for byte."""

import json
import pathlib
import subprocess
import sys

import pytest

import folindex.cli as cli

from conftest import subprocess_env

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"


def _manifest():
    return json.loads((CORPUS / "manifest.json").read_text())


ENTRIES = _manifest()["entries"]


def test_manifest_shape():
    # the problems and manifest are edited by hand, so the manifest must name
    # every stored file, and every file it names must exist
    m = _manifest()
    assert m["schema_version"] == "1"
    assert len(m["entries"]) >= 50
    names = [e["name"] for e in m["entries"]]
    assert names == sorted(set(names))
    assert [e["report"] for e in m["entries"]] == [f"reports/{n}.json" for n in names]
    named = {e[k] for e in m["entries"] for k in ("problem", "report")}
    stored = {p.relative_to(CORPUS).as_posix()
              for d in ("problems", "reports") for p in (CORPUS / d).iterdir()}
    assert sorted(stored - named) == []
    assert sorted(named - stored) == []


@pytest.mark.parametrize("entry", ENTRIES, ids=[e["name"] for e in ENTRIES])
def test_replay(entry, tmp_path):
    problem = CORPUS / entry["problem"]
    expected = json.loads((CORPUS / entry["report"]).read_text())
    out = tmp_path / "report.json"
    code = cli.main(list(entry["argv"]) + ["--input", str(problem), "--json", str(out)])
    assert code == 0
    assert json.loads(out.read_text()) == expected
    assert out.read_bytes() == (CORPUS / entry["report"]).read_bytes()


# Entries whose cold runs need no sympy, so they must not pay for importing it.
SYMPY_FREE = ["node_radial.ph", "saddle_balanced.chi", "plane_twist_1.chern",
              "cusp_hamiltonian.puiseux", "tacnode_radial.puiseux",
              "conjugate_node.schwartz", "rotation_sqrt2.ph",
              # verify runs: every resultant has a side of degree <= 1 in y
              "diagonal_line.iso", "nodal_hamiltonian.total-gsv",
              "radial_foliation.baum-bott", "diagonal_triangle.seh",
              "cuspidal_hamiltonian.iso",
              # x^7 - 1 = (x - 1) Phi_7 over Q: a rational root and Phi_7
              # certified irreducible mod 3; then Q(theta) has a linear factor
              "jouanolou.baum-bott"]

_MAIN_THEN_CHECK = (
    "import sys\n"
    "from folindex.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "assert 'sympy' not in sys.modules, 'sympy was imported'\n"
    "sys.exit(code)\n")


@pytest.mark.parametrize("name", SYMPY_FREE)
def test_cold_run_stays_sympy_free(name):
    entry = next(e for e in ENTRIES if e["name"] == name)
    proc = subprocess.run(
        [sys.executable, "-c", _MAIN_THEN_CHECK, *entry["argv"],
         "--input", str(CORPUS / entry["problem"])],
        env=subprocess_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


# Modules a cold run must not import: the dataclass machinery and what it
# pulls in at startup.
DATACLASS_MACHINERY = ("dataclasses", "inspect")


def test_one_process_replays_every_sympy_free_entry_without_sympy():
    # every cold run stays off sympy; one child process replays them all, so a
    # sympy import by any of them is still in sys.modules at the end.  sympy
    # itself imports inspect, so only these runs can show that folindex does not.
    runs = [list(e["argv"]) + ["--input", str(CORPUS / e["problem"])] for e in ENTRIES]
    check = ("import json, sys\n"
             "from folindex.cli import main\n"
             "for argv in json.loads(sys.argv[1]):\n"
             "    assert main(argv) == 0, argv\n"
             "assert 'sympy' not in sys.modules, 'sympy was imported'\n"
             f"loaded = [m for m in {DATACLASS_MACHINERY!r} if m in sys.modules]\n"
             "assert not loaded, f'{loaded} imported'\n")
    proc = subprocess.run([sys.executable, "-c", check, json.dumps(runs)],
                          env=subprocess_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_cold_help_imports_no_dataclass_machinery():
    # -X importtime lists every module the run imports, one per stderr line
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "folindex.cli", "--help"],
                          env=subprocess_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
    assert "folindex.exactcore" in imported
    assert not imported & set(DATACLASS_MACHINERY)
