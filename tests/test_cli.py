"""Command-line driver: problem files in, reports out, exit codes honest."""

import json
import pathlib
import resource
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import folindex.cli as cli
from folindex.exactcore import QQ, FieldDescriptor, FieldElem
from folindex.verify import GlobalReport

from conftest import subprocess_env


def write_problem(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(tmp_path, argv, doc, name="problem.json", report="report.json"):
    inp = write_problem(tmp_path, doc, name)
    out = str(tmp_path / report)
    code = cli.main(argv + ["--input", inp, "--json", out])
    payload = json.loads((tmp_path / report).read_text()) if (tmp_path / report).exists() else None
    return code, payload


def _timed_main(tmp_path, argv, doc):
    start = time.perf_counter()
    code = cli.main(argv + ["--input", write_problem(tmp_path, doc)])
    return code, time.perf_counter() - start


CUSP_HAM = {
    "variables": ["x", "y"],
    "germ": {"vector_field": ["2*y", "3*x^2"], "divisor": "y^2 - x^3"},
}

DIAG_FOL = {
    "variables": ["x", "y", "z"],
    "foliation": {"affine_field": ["x", "2*y"], "divisor": "z"},
}


# ----------------------------------------------------------------- exit 0

def test_index_gsv_report(tmp_path):
    code, payload = run(tmp_path, ["index", "--kind", "gsv"], CUSP_HAM)
    assert code == 0
    assert payload["schema_version"] == "1"
    assert payload["kind"] == "GSV"
    assert payload["value"] == "0"
    assert payload["pass"] is True
    assert payload["problem"] == CUSP_HAM
    assert payload["ingredients"]["milnor"] == "2"


def test_verify_seh_report(tmp_path):
    code, payload = run(tmp_path, ["verify", "--theorem", "seh"], DIAG_FOL)
    assert code == 0
    assert payload["kind"] == "COR_SEH"
    assert payload["value"] == "1"
    assert payload["ingredients"]["lhs"] == payload["ingredients"]["rhs"] == "1"
    kinds = sorted(kind for _, kind, _ in payload["per_point"])
    assert kinds == ["LOG", "LOG", "PH"]


def test_verify_baum_bott_ignores_missing_divisor(tmp_path):
    doc = {"variables": ["x", "y", "z"],
           "foliation": {"affine_field": ["x", "2*y"]}}
    code, payload = run(tmp_path, ["verify", "--theorem", "baum-bott"], doc)
    assert code == 0
    assert payload["value"] == "3"


def test_deep_fulton_recursion_answers(tmp_path):
    # 1200 reduction steps: above Python's recursion limit, below the step cap
    doc = {"variables": ["x", "y"], "germ": {"vector_field": ["x^1200", "y^1200"]}}
    code, payload = run(tmp_path, ["index", "--kind", "ph"], doc)
    assert code == 0
    assert payload["value"] == "1440000"


def _deep_contact(a, da, k, x):
    """(f_x, f_y) as text for f = A*(A - x^k), where A is the text ``a``
    with derivatives ``da`` = (A_x, A_y) and ``x`` one of the variables."""
    b = f"({a} - {x}^{k})"
    db = [f"({d} - {k}*{x}^{k - 1})" if v == x else f"({d})" for v, d in zip("xy", da)]
    return [f"({d})*{b} + ({a})*{e}" for d, e in zip(da, db)]


DEEP_X30 = ("(y - x^2 - y^2)", ("-2*x", "1 - 2*y"), 30, "x")
DIAG_X12 = ("(y - x - x^2)", ("-1 - 2*x", "1"), 12, "x")
DIAG_Y12 = ("(x - y - y^2)", ("1", "-1 - 2*y"), 12, "y")


@pytest.mark.parametrize("kind, germ, field, value", [
    ("gsv", DEEP_X30, "hamiltonian", "0"),
    ("schwartz", DEEP_X30, "hamiltonian", "59"),
    ("ph", DIAG_X12, "gradient", "23"),
    ("ph", DIAG_Y12, "gradient", "23"),
], ids=["gsv-x30", "schwartz-x30", "ph-diagonal-x12", "ph-mirror-y12"])
def test_deep_contact_germs_answer_within_seconds(tmp_path, kind, germ, field, value):
    # f = A*(A - x^k), two smooth branches with contact k: a Fulton recursion
    # that only restricts to y = 0 takes minutes on some of these
    a, da, k, x = germ
    fx, fy = _deep_contact(a, da, k, x)
    components = [fy, f"-({fx})"] if field == "hamiltonian" else [fx, fy]
    doc = {"variables": ["x", "y"],
           "germ": {"vector_field": components, "divisor": f"{a}*({a} - {x}^{k})"}}
    start = time.perf_counter()
    proc = _run_cli(["index", "--kind", kind, "--input", write_problem(tmp_path, doc)])
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(f"{kind.upper()} = {value}\n"), proc.stdout
    assert elapsed < 5, f"{elapsed:.1f} s"


# (y - x^5)*(y - x^5 - x^10)*(y + x^7): three smooth branches, two of them
# with contact 10; its Hamiltonian field (f_y, -f_x)
THREE_BRANCH_FY = ("(y - x^5 - x^10)*(y + x^7) + (y - x^5)*(y + x^7)"
                   " + (y - x^5)*(y - x^5 - x^10)")
THREE_BRANCH_FX = ("(-5*x^4)*(y - x^5 - x^10)*(y + x^7) + (y - x^5)*(-5*x^4 - 10*x^9)*(y + x^7)"
                   " + (y - x^5)*(y - x^5 - x^10)*(7*x^6)")


class _FractionSubclass(Fraction):
    pass


def test_report_values_serialize_to_fixed_strings():
    # bools stay JSON booleans; numbers, field elements and unknown objects
    # become strings; tuples become lists; keys become strings
    r = FieldDescriptor.simple_extension("r", [-2, 0, 1])
    value = {"yes": True, "no": False, "n": -3, "q": Fraction(3, 2), "whole": Fraction(4, 2),
             "sub": _FractionSubclass(1, 2), "e": FieldElem(r, [1, -1]),
             "q_elem": FieldElem.of(Fraction(-5, 3), QQ), 7: ((1, Fraction(1, 3)), [True, "x"]),
             "nested": {"k": (FieldElem(r, [0, 1]), [[0]])}, "none": None}
    assert cli._jsonable(value) == {
        "yes": True, "no": False, "n": "-3", "q": "3/2", "whole": "2", "sub": "1/2",
        "e": "1 - r", "q_elem": "-5/3", "7": [["1", "1/3"], [True, "x"]],
        "nested": {"k": ["r", [["0"]]]}, "none": "None"}


@pytest.mark.parametrize("kind, value", [("ph", "38"), ("gsv", "0")])
def test_three_branch_germ_answers_within_seconds(tmp_path, kind, value):
    # a Fulton step that scales g by the leading coefficient of f, instead
    # of dividing by it, lets the coefficients grow at each of its 118 steps
    # here, and no answer comes within a minute
    doc = {"variables": ["x", "y"],
           "germ": {"vector_field": [THREE_BRANCH_FY, f"-({THREE_BRANCH_FX})"],
                    "divisor": "(y - x^5)*(y - x^5 - x^10)*(y + x^7)"}}
    start = time.perf_counter()
    proc = _run_cli(["index", "--kind", kind, "--input", write_problem(tmp_path, doc)])
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(f"{kind.upper()} = {value}\n"), proc.stdout
    assert elapsed < 5, f"{elapsed:.1f} s"


# D = (y^3 - x^4)*(y^3 - x^4 - x^10)*(x^2 - y^5): three branches, the last
# tangent to the y-axis and the others to the x-axis; its Hamiltonian field
TANGENT_BOTH_D = "(y^3 - x^4)*(y^3 - x^4 - x^10)*(x^2 - y^5)"
TANGENT_BOTH_DOC = {"variables": ["x", "y"], "germ": {"vector_field": [
    "(3*y^2)*(y^3 - x^4 - x^10)*(x^2 - y^5) + (y^3 - x^4)*(3*y^2)*(x^2 - y^5)"
    " + (y^3 - x^4)*(y^3 - x^4 - x^10)*(-5*y^4)",
    "-((-4*x^3)*(y^3 - x^4 - x^10)*(x^2 - y^5) + (y^3 - x^4)*(-4*x^3 - 10*x^9)*(x^2 - y^5)"
    " + (y^3 - x^4)*(y^3 - x^4 - x^10)*(2*x))"], "divisor": TANGENT_BOTH_D}}


def test_germ_tangent_to_both_axes_euobs_within_seconds(tmp_path):
    # the branch expansion is proved reduced by gcd(D_x, D_y); a primitive
    # pseudo-remainder sequence took 9 s on it, the coprime certificate
    # well under a millisecond
    start = time.perf_counter()
    proc = _run_cli(["index", "--kind", "euobs", "--input",
                     write_problem(tmp_path, TANGENT_BOTH_DOC)])
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("EU_OBSTRUCTION = 105\n"), proc.stdout
    assert elapsed < 2, f"{elapsed:.1f} s"


def test_reducible_germ_mu_curve_is_refused_within_seconds(tmp_path):
    # the branches are counted before the Milnor number, which took 20 s here
    start = time.perf_counter()
    proc = _run_cli(["index", "--kind", "mu-curve", "--input",
                     write_problem(tmp_path, TANGENT_BOTH_DOC)])
    elapsed = time.perf_counter() - start
    assert proc.returncode == 2, proc.stdout
    assert proc.stderr == "error: curve germ is not irreducible\n"
    assert elapsed < 2, f"{elapsed:.1f} s"


def test_puiseux_report(tmp_path):
    code, payload = run(tmp_path, ["puiseux"], CUSP_HAM)
    assert code == 0
    assert payload["value"] == "1"
    branches = payload["ingredients"]["branches"]
    assert len(branches) == 1
    assert branches[0]["exact"] is True
    assert payload["ingredients"]["curve_multiplicity"] == "2"


def test_confun_expression(tmp_path):
    code, payload = run(tmp_path, ["confun", "--expr", "1[y^2 - x^3]"], CUSP_HAM)
    assert code == 0
    assert payload["value"] == "2"
    # complement of the two axes: saddle gives 0, the squares field gives 1
    for field, want in ((["x", "-y"], "0"), (["x^2", "y^2"], "1")):
        code, payload = run(tmp_path, ["confun", "--expr", "1[W] - 1[x] - 1[y] + 1[0]"],
                            {"variables": ["x", "y"],
                             "germ": {"vector_field": field}})
        assert code == 0
        assert payload["value"] == want


def test_confun_euler_atom(tmp_path):
    code, payload = run(tmp_path, ["confun", "--expr", "Eu[y^2 - x^3]"], CUSP_HAM)
    assert code == 0
    assert payload["value"] == "3"
    code, payload = run(tmp_path, ["confun", "--expr", "2*Eu[y^2 - x^3] - Psi[y^2 - x^3]"],
                        CUSP_HAM)
    assert code == 0
    assert payload["value"] == "6"


def test_chern_plane(tmp_path):
    doc = {"variables": [], "chern": {"kind": "plane", "twist": -1}}
    code, payload = run(tmp_path, ["chern"], doc)
    assert code == 0
    assert payload["value"] == "7"


def test_chern_snc(tmp_path):
    doc = {"variables": [], "chern": {"kind": "snc", "degrees": [1, 1, 1]}}
    code, payload = run(tmp_path, ["chern"], doc)
    assert code == 0
    assert payload["value"] == "0"


def test_field_extension_problem(tmp_path):
    doc = {
        "variables": ["x", "y"],
        "field": {"generator": "r", "minpoly": "r^2 - 2"},
        "germ": {"vector_field": ["x - r*y", "y + r*x"]},
    }
    code, payload = run(tmp_path, ["index", "--kind", "ph"], doc)
    assert code == 0
    assert payload["value"] == "1"


def test_log_with_explicit_basis(tmp_path):
    doc = {
        "variables": ["x", "y"],
        "germ": {"vector_field": ["2*y", "3*x^2"], "divisor": "y^2 - x^3",
                 "log_basis": [["2*x", "3*y"], ["2*y", "3*x^2"]]},
    }
    code, payload = run(tmp_path, ["index", "--kind", "log"], doc)
    assert code == 0
    assert payload["value"] == "0"


@pytest.mark.parametrize("theorem", ["seh", "iso"])
def test_chart_coordinate_names_do_not_leak(tmp_path, theorem):
    # the chart coordinates are named u, v and s, w; reusing those names in
    # another order for x, y, z must not change the answer
    reports = []
    for names in (["x", "y", "z"], ["v", "u", "s"]):
        x, y, z = names
        doc = {"variables": names,
               "foliation": {"affine_field": [x, f"2*{y}"], "divisor": f"{x}*{y}*{z}"}}
        code, payload = run(tmp_path, ["verify", "--theorem", theorem], doc)
        assert code == 0
        reports.append((payload["value"], payload["per_point"], payload["ingredients"]))
    assert reports[0] == reports[1]


# -------------------------------------------------------------- determinism

def test_reports_are_deterministic(tmp_path):
    inp = write_problem(tmp_path, CUSP_HAM)
    out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert cli.main(["index", "--kind", "schwartz", "--input", inp, "--json", out1]) == 0
    assert cli.main(["index", "--kind", "schwartz", "--input", inp, "--json", out2]) == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_report_echo_reproduces_itself(tmp_path):
    code, payload = run(tmp_path, ["index", "--kind", "euobs"], CUSP_HAM)
    assert code == 0
    code2, payload2 = run(tmp_path, ["index", "--kind", "euobs"], payload["problem"],
                          name="echo.json", report="echo_report.json")
    assert code2 == 0
    assert payload2 == payload


# ------------------------------------------------------------------ exit 1

def test_unknown_top_level_key(tmp_path):
    doc = dict(CUSP_HAM)
    doc["extra"] = 1
    code, _ = run(tmp_path, ["index", "--kind", "gsv"], doc)
    assert code == 1


def test_unknown_germ_key(tmp_path):
    doc = {"variables": ["x", "y"],
           "germ": {"vector_field": ["x", "y"], "divisorr": "x*y"}}
    code, _ = run(tmp_path, ["index", "--kind", "ph"], doc)
    assert code == 1


def test_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli.main(["index", "--kind", "ph", "--input", str(path)]) == 1


def _run_cli(argv):
    return subprocess.run([sys.executable, "-m", "folindex.cli", *argv],
                          env=subprocess_env(), capture_output=True, text=True,
                          timeout=30)


@pytest.mark.parametrize("content", [b"\xff\xfe", b"[" * 200000],
                         ids=["not-utf8", "deeply-nested"])
def test_unreadable_problem_file_is_exit_1(tmp_path, content):
    path = tmp_path / "problem.json"
    path.write_bytes(content)
    proc = _run_cli(["index", "--kind", "ph", "--input", str(path)])
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")


def test_unwritable_report_path_is_exit_1(tmp_path):
    report = tmp_path / "missing" / "report.json"
    proc = _run_cli(["verify", "--theorem", "seh", "--json", str(report),
                     "--input", write_problem(tmp_path, DIAG_FOL)])
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"error: cannot write {report}: ")


def test_two_sections_rejected(tmp_path):
    doc = {"variables": ["x", "y"],
           "germ": {"vector_field": ["x", "y"]},
           "chern": {"kind": "plane"}}
    code, _ = run(tmp_path, ["index", "--kind", "ph"], doc)
    assert code == 1


def test_usage_errors_are_exit_1(tmp_path):
    assert cli.main(["index"]) == 1
    assert cli.main(["nonsense"]) == 1
    inp = write_problem(tmp_path, CUSP_HAM)
    assert cli.main(["index", "--kind", "wrong", "--input", inp]) == 1


def test_bad_expressions(tmp_path):
    for expr in ("", "1[x", "1]x[", "Foo[x]", "1[W] + + 1[0]", "1[W] 1[0]"):
        code, _ = run(tmp_path, ["confun", "--expr", expr], CUSP_HAM,
                      report=f"r{hash(expr) % 97}.json")
        assert code == 1, expr


def test_wrong_section_for_command(tmp_path):
    code, _ = run(tmp_path, ["verify", "--theorem", "baum-bott"], CUSP_HAM)
    assert code == 1


# ------------------------------------------------------------------ exit 2

def test_log_without_basis(tmp_path):
    code, _ = run(tmp_path, ["index", "--kind", "log"], CUSP_HAM)
    assert code == 2


def test_missing_divisor(tmp_path):
    doc = {"variables": ["x", "y"], "germ": {"vector_field": ["2*y", "3*x^2"]}}
    code, _ = run(tmp_path, ["index", "--kind", "gsv"], doc)
    assert code == 2


def test_non_tangent_field(tmp_path):
    doc = {"variables": ["x", "y"],
           "germ": {"vector_field": ["x", "y"], "divisor": "y^2 - x^3"}}
    code, _ = run(tmp_path, ["index", "--kind", "euobs"], doc)
    assert code == 2


def test_non_invariant_divisor(tmp_path):
    doc = {"variables": ["x", "y", "z"],
           "foliation": {"affine_field": ["y^2 - x^3", "1 - x^2*y"],
                         "divisor": "x*y*z"}}
    code, _ = run(tmp_path, ["verify", "--theorem", "seh"], doc)
    assert code == 2


@pytest.mark.parametrize("argv, doc, message", [
    (["index", "--kind", "ph"], {"variables": ["x", "y"], "germ": {"vector_field": ["x + 1", "y"]}},
     "vector field does not vanish at the origin"),
    (["confun", "--expr", "1[y - 1]"], CUSP_HAM, "curve does not pass through the origin"),
], ids=["ph", "confun"])
def test_germ_off_the_origin_is_exit_2(tmp_path, capsys, argv, doc, message):
    code, payload = run(tmp_path, argv, doc)
    assert (code, payload) == (2, None)
    assert capsys.readouterr().err == f"error: {message}\n"


CUSP_X4 = "y^2 - x^3 - x^4"
VANISHES_ON_BRANCH = "vector field vanishes along the branch"
ON_CUSP = {"variables": ["x", "y"],
           "germ": {"vector_field": [CUSP_X4, "0"], "divisor": CUSP_X4}}
RADIAL_ON_CUSP = {"variables": ["x", "y"],
                  "germ": {"vector_field": [f"({CUSP_X4})*x", f"({CUSP_X4})*y"],
                           "divisor": f"({CUSP_X4})*(y - x)"}}


@pytest.mark.parametrize("argv", [["index", "--kind", kind]
                                  for kind in ("euobs", "gsv", "schwartz", "polar", "mu-curve")]
                         + [["confun", "--expr", f"Eu[{CUSP_X4}]"]],
                         ids=["euobs", "gsv", "schwartz", "polar", "mu-curve", "confun"])
@pytest.mark.parametrize("doc", [ON_CUSP, RADIAL_ON_CUSP], ids=["f-zero", "f-radial"])
def test_field_vanishing_along_a_branch_is_exit_2(tmp_path, capsys, argv, doc):
    # no truncation tells such a field from zero along the branch, so it is
    # refused at once instead of doubling the precision up to the cap
    code, elapsed = _timed_main(tmp_path, argv, doc)
    message = VANISHES_ON_BRANCH
    if doc is RADIAL_ON_CUSP and argv[-1] == "mu-curve":
        message = "curve germ is not irreducible"   # f*(y - x) has two branches
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert elapsed < 2, f"{elapsed:.1f} s"


@pytest.mark.parametrize("chern", [
    {"kind": "curve", "degree": 3, "milnor_numbers": [-5]},
    {"kind": "complement", "degree": 3, "milnor_numbers": [-5]},
    {"kind": "snc", "degrees": [0, -2]},
])
def test_ill_posed_chern_data_is_exit_2(tmp_path, chern):
    code, payload = run(tmp_path, ["chern"], {"variables": [], "chern": chern})
    assert code == 2
    assert payload is None


def test_reducible_minpoly_is_refused(tmp_path):
    # over r^2 - 2 the index is 1, over r^2 - 3 it is 2: not a field, no answer
    doc = {"variables": ["x", "y"],
           "field": {"generator": "r", "minpoly": "r^4 - 5*r^2 + 6"},
           "germ": {"vector_field": ["(r^2-2)*x + y", "(r^2-3)*x + y^2"]}}
    code, _ = run(tmp_path, ["index", "--kind", "ph"], doc)
    assert code == 2


def test_minpoly_with_large_constant_term_finishes(tmp_path):
    # a rational-root search by trial division up to sqrt(|a0|) never ends here
    doc = {"variables": ["x", "y"],
           "field": {"generator": "r", "minpoly": "r^2 - 1000000000000000000000000000057"},
           "germ": {"vector_field": ["x - r*y", "y + r*x"]}}
    proc = subprocess.run(
        [sys.executable, "-m", "folindex.cli", "index", "--kind", "ph",
         "--input", write_problem(tmp_path, doc)],
        env=subprocess_env(), capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("PH = 1")


def _cap_address_space():
    # a child that tries to allocate per truncation slot fails fast (exit 1)
    # instead of pushing the machine into swap
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_huge_truncation_order_answers_without_exhausting_memory():
    cusp = pathlib.Path(__file__).resolve().parent.parent / "corpus" / "problems" / "cusp_hamiltonian.json"
    proc = subprocess.run(
        [sys.executable, "-m", "folindex.cli", "puiseux", "--precision", "1000000000",
         "--input", str(cusp)],
        env=subprocess_env(), capture_output=True, text=True, timeout=30,
        preexec_fn=_cap_address_space)
    assert proc.returncode == 0, proc.stderr
    assert "t^2 + O(t^1000000000)" in proc.stdout


# ------------------------------------------------------------------ exit 3

def test_failed_identity_is_exit_3(tmp_path, monkeypatch):
    def broken(foliation):
        return GlobalReport(theorem="BAUM_BOTT", lhs=3, rhs=4,
                            per_point=(), passed=False)

    monkeypatch.setattr(cli, "verify_baum_bott", broken)
    doc = {"variables": ["x", "y", "z"],
           "foliation": {"affine_field": ["x", "2*y"]}}
    code, payload = run(tmp_path, ["verify", "--theorem", "baum-bott"], doc)
    assert code == 3
    assert payload["pass"] is False
    assert payload["ingredients"]["lhs"] == "3"
    assert payload["ingredients"]["rhs"] == "4"


# ------------------------------------------------------------------ exit 4

NONEXACT = {
    "variables": ["x", "y"],
    "germ": {"vector_field": ["2*y", "3*x^2 + 4*x^3"],
             "divisor": "y^2 - x^3 - x^4"},
}


def _deep_contact_hamiltonian(k):
    """The Hamiltonian field of (y - x^2 - y^2)*(y - x^2 - y^2 - x^k), two
    smooth branches with contact k."""
    a, da, _, x = DEEP_X30
    fx, fy = _deep_contact(a, da, k, x)
    return {"variables": ["x", "y"],
            "germ": {"vector_field": [fy, f"-({fx})"], "divisor": f"{a}*({a} - {x}^{k})"}}


def test_precision_cap_is_exit_4(tmp_path, capsys):
    # the branch orders are 600, which no truncation up to the cap reaches
    code, elapsed = _timed_main(tmp_path, ["index", "--kind", "euobs"],
                                _deep_contact_hamiltonian(600))
    assert code == 4
    assert capsys.readouterr().err == (
        "error: precision cap 512 reached before the computation was certified\n")
    assert elapsed < 5, f"{elapsed:.1f} s"


def test_gsv_past_the_precision_cap_answers(tmp_path, capsys):
    # the same germ: the GSV index of a Hamiltonian field is 0 with no
    # branch expansion, so it answers where the Euler obstruction cannot
    code, elapsed = _timed_main(tmp_path, ["index", "--kind", "gsv"],
                                _deep_contact_hamiltonian(600))
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("GSV = 0\n")
    assert 'euler_obstruction: "1200"' in out and 'milnor: "1199"' in out
    assert elapsed < 5, f"{elapsed:.1f} s"


# the Hamiltonian field of y^2 - 3*x^2 over Q(sqrt 2): its branches
# y = +-sqrt(3)*x need a second extension
NODE_SQRT3_OVER_SQRT2 = {
    "variables": ["x", "y"],
    "field": {"generator": "r", "minpoly": "r^2 - 2"},
    "germ": {"vector_field": ["2*y", "6*x"], "divisor": "y^2 - 3*x^2"},
}


def test_gsv_needs_no_branches_over_a_field_without_them(tmp_path, capsys):
    code, payload = run(tmp_path, ["index", "--kind", "gsv"], NODE_SQRT3_OVER_SQRT2)
    assert code == 0
    assert payload["value"] == "0"
    assert payload["ingredients"] == {"euler_obstruction": "2", "milnor": "1",
                                      "multiplicity": "2", "mu_sign": "-1"}
    code, _ = run(tmp_path, ["index", "--kind", "euobs"], NODE_SQRT3_OVER_SQRT2)
    assert code == 2
    assert capsys.readouterr().err == "error: branch needs a second field extension\n"


def test_contact_below_the_cap_certifies(tmp_path, capsys):
    code, _ = _timed_main(tmp_path, ["index", "--kind", "euobs"],
                          _deep_contact_hamiltonian(400))
    assert code == 0
    assert capsys.readouterr().out.startswith("EU_OBSTRUCTION = 800\n")


def test_default_cap_clears_the_same_problem(tmp_path):
    code, payload = run(tmp_path, ["index", "--kind", "euobs"], NONEXACT)
    assert code == 0
    assert payload["value"] == "3"


def test_deep_branch_expansion_hits_the_depth_cap(tmp_path):
    # one Newton-polygon step per order: 1100 steps pass the cap of 1000
    doc = {"variables": ["x", "y"],
           "germ": {"vector_field": ["x", "y"], "divisor": "y - x - x*y"}}
    proc = subprocess.run(
        [sys.executable, "-m", "folindex.cli", "puiseux", "--precision", "1100",
         "--input", write_problem(tmp_path, doc)],
        env=subprocess_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr == "error: branch expansion exceeded the recursion cap\n"


def test_huge_precision_on_a_separated_branch_hits_the_depth_cap(tmp_path):
    # the curve is separated at the origin, so its terms come from one scan;
    # each still counts against the cap, and the scan stops there instead of
    # running to the truncation order
    doc = {"variables": ["x", "y"],
           "germ": {"vector_field": ["x", "y"], "divisor": "y - x - x*y"}}
    proc = subprocess.run(
        [sys.executable, "-m", "folindex.cli", "puiseux", "--precision", "1000000000",
         "--input", write_problem(tmp_path, doc)],
        env=subprocess_env(), capture_output=True, text=True, timeout=30,
        preexec_fn=_cap_address_space)
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr == "error: branch expansion exceeded the recursion cap\n"


@pytest.mark.parametrize("divisor", ["y - x - x^100000000", "y^2 - x^3 - x^100000001",
                                     "y - x - x^1000000000000"])
def test_squarefree_check_costs_terms_not_degree(tmp_path, divisor):
    # a unit coefficient in y ends the gcd of the x-contents, so no dense
    # list as long as the x-degree is built; the last divisor's list alone
    # would need terabytes
    doc = {"variables": ["x", "y"],
           "germ": {"vector_field": ["x", "y"], "divisor": divisor}}
    proc = subprocess.run(
        [sys.executable, "-m", "folindex.cli", "puiseux",
         "--input", write_problem(tmp_path, doc)],
        env=subprocess_env(), capture_output=True, text=True, timeout=20,
        preexec_fn=_cap_address_space)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("PUISEUX_BRANCHES = 1")


@pytest.mark.parametrize("divisor, code, out", [
    # x^(10^8)*(y - x): f_y = x^(10^8) is a monomial, so gcd(f_x, f_y) is
    # x^(10^8 - 1) in closed form, which vanishes at the origin
    pytest.param("x^100000000*y - x^100000001", 2,
                 "error: curve is not reduced at the point\n", id="x^100000000*y - x^100000001"),
    # the y-contents of f_x, -3*x^2 and -10^8*x^(10^8 - 1), are monomials;
    # the Newton polygon's one edge, y^3 - x^3, has three simple roots
    pytest.param("y^3 - x^100000000*y - x^3", 0, "PUISEUX_BRANCHES = 3\n",
                 id="y^3 - x^100000000*y - x^3"),
])
def test_a_monomial_gcd_needs_no_dense_list(tmp_path, divisor, code, out):
    # degree 10^8 in x, but each gcd the square-free check needs has a
    # one-term side, so it is read off the exponents with no dense list
    doc = {"variables": ["x", "y"],
           "germ": {"vector_field": ["x", "y"], "divisor": divisor}}
    proc = subprocess.run(
        [sys.executable, "-m", "folindex.cli", "puiseux",
         "--input", write_problem(tmp_path, doc)],
        env=subprocess_env(), capture_output=True, text=True, timeout=20,
        preexec_fn=_cap_address_space)
    assert proc.returncode == code, proc.stderr
    if code:
        assert proc.stderr == out
    else:
        assert proc.stdout.startswith(out)


@pytest.mark.parametrize("divisor", ["x^100000000*y - x^100000001 + x^2*y - x^3",
                                     "(x^100000000 + x)*y^2 + (x^100000000 - x)*y",
                                     "x*y - x^100000000 - y^100000000"])
def test_dense_list_past_the_width_cap_is_exit_4(tmp_path, divisor):
    # no y-coefficient is a unit, and the square-free check needs a gcd of
    # two polynomials of more than one term and degree about 10^8 (of the
    # y-contents of a partial in the first two, in _univariate_coeffs; of
    # the partials in the last, in coeffs_in): the width cap refuses it
    doc = {"variables": ["x", "y"],
           "germ": {"vector_field": ["x", "y"], "divisor": divisor}}
    proc = subprocess.run(
        [sys.executable, "-m", "folindex.cli", "puiseux",
         "--input", write_problem(tmp_path, doc)],
        env=subprocess_env(), capture_output=True, text=True, timeout=20,
        preexec_fn=_cap_address_space)
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr.startswith("error: dense coefficient list of degree ")
    assert proc.stderr.endswith("exceeds the width cap 10000\n")
    assert proc.stderr.count("\n") == 1
