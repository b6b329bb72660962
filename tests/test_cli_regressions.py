"""Command-line runs in a fresh process: deep polynomial text, numbers
int() cannot read, powers past the term and coefficient caps and the
sympy-free path of a rational edge root."""

import subprocess
import sys

import pytest

from conftest import subprocess_env
from test_cli import _cap_address_space, write_problem


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


LONG = "1" + "0" * 5000   # past the 4300 digits int() reads from text


@pytest.mark.parametrize("text, argv", [
    ('{"variables": ["x", "y"], "germ": {"vector_field": ["%s*x", "y"]}}' % LONG, ["index", "--kind", "ph"]),
    ('{"variables": ["x", "y"], "germ": {"vector_field": ["x\u00b2", "y"]}}', ["index", "--kind", "ph"]),
    ('{"variables": [], "chern": {"kind": "plane", "twist": %s}}' % LONG, ["chern"]),
    ('{"variables": ["x", "y"], "germ": {"vector_field": ["x", "y"], "divisor": "y^2 - x^3"}}',
     ["confun", "--expr", LONG + "*Eu[y^2 - x^3]"]),
], ids=["long-literal", "superscript-digit", "long-json-integer", "long-confun-coefficient"])
def test_unreadable_number_is_exit_1(tmp_path, text, argv):
    # str.isdigit() holds for x², whose digit int() cannot read
    path = tmp_path / "problem.json"
    path.write_text(text)
    proc = _run(["-m", "folindex.cli", *argv, "--input", str(path)])
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr


SQRT2 = {"generator": "r", "minpoly": "r^2 - 2"}


@pytest.mark.parametrize("component, code, stderr, field", [
    ("(x+1)^100000", 4, "error: power 100000 of a 2-term polynomial exceeds the term cap 500\n", None),
    ("x^100000000", 0, "", None),
    ("3^100000000*x", 4, "error: power 100000000 of a 1-term polynomial exceeds the term cap 500\n", None),
    ("(r+1)^10000000*x", 4, "error: power 10000000 of a 1-term polynomial exceeds the term cap 500\n",
     SQRT2),
    ("(-x)^100000001", 0, "", None),
    ("0^100000001*x + x", 0, "", None),
    ("(12345*x+67891)^499", 4, "error: power 499 of a 2-term polynomial exceeds the coefficient cap 2000 bits\n",
     None),
    ("(x+1)^499 - 1", 0, "", None),
    ("(r*x+1)^499 - 1", 0, "", SQRT2),
], ids=["sum", "monomial", "integer-power", "sqrt2-power", "negated-monomial", "zero-power",
        "wide-coefficients", "sum-below-caps", "sqrt2-sum-below-caps"])
def test_term_cap_stops_a_power_of_a_sum_not_a_monomial(tmp_path, component, code, stderr, field):
    # (x+1)^100000 has 100001 terms; a monomial power has one at any
    # exponent, but only a coefficient of 0 or +-1 keeps that term small.
    # (12345*x+67891)^499 has 500 terms but 8,126-bit coefficients
    doc = {"variables": ["x", "y"], "germ": {"vector_field": [component, "y"]}}
    if field:
        doc["field"] = field
    proc = subprocess.run([sys.executable, "-m", "folindex.cli", "index", "--kind", "ph",
                           "--input", write_problem(tmp_path, doc)],
                          env=subprocess_env(), capture_output=True, text=True, timeout=20,
                          preexec_fn=_cap_address_space)
    assert proc.returncode == code, proc.stderr
    assert proc.stderr == stderr
