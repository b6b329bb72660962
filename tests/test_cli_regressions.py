"""Command-line runs in a fresh process: deep polynomial text and the
sympy-free path of a rational edge root."""

import subprocess
import sys

import pytest

from conftest import subprocess_env
from test_cli import write_problem


def _run(argv):
    return subprocess.run([sys.executable, *argv], env=subprocess_env(),
                          capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("text", ["(" * 3000 + "x" + ")" * 3000, "x*" + "-" * 5000 + "x"],
                         ids=["nested-parentheses", "repeated-minus"])
def test_deeply_nested_polynomial_text_is_exit_1(tmp_path, text):
    doc = {"variables": ["x", "y"], "germ": {"vector_field": [text, "y"]}}
    proc = _run(["-m", "folindex.cli", "index", "--kind", "ph",
                 "--input", write_problem(tmp_path, doc)])
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == "error: polynomial text nests too deeply to read\n"


def test_puiseux_with_a_rational_edge_root_stays_sympy_free(tmp_path):
    # the edge of y^3 - x^7 asks for c^3 = 1, whose rational root needs
    # no factoring of c^3 - 1
    doc = {"variables": ["x", "y"],
           "germ": {"vector_field": ["x", "y"], "divisor": "y^3 - x^7"}}
    check = ("import sys\n"
             "from folindex.cli import main\n"
             "code = main(sys.argv[1:])\n"
             "assert 'sympy' not in sys.modules, 'sympy was imported'\n"
             "sys.exit(code)\n")
    proc = _run(["-c", check, "puiseux", "--input", write_problem(tmp_path, doc)])
    assert proc.returncode == 0, proc.stderr
    assert '"y": "t^7 + O(t^16)"' in proc.stdout
