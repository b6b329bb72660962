"""Never a traceback: generated and mutated problem files through the CLI.

Every problem, well formed or not, must end in one of the documented exit
codes 0 to 4 within a time bound.  Any other exception, or a hang, fails.
"""

import json
import pathlib
import signal

import pytest
from hypothesis import given, settings, strategies as st

import folindex.cli as cli

SECONDS_PER_EXAMPLE = 30

# irreducible ones, reducible ones and ones the parser or the field check refuses
MINPOLYS = ["r^2 - 2", "r^2 + 1", "r^3 - 2", "2*r^2 - 3", "r^2 - 1",
            "r^4 - 5*r^2 + 6", "r^2", "r"]
COEFFS = ["1", "-1", "2", "-3", "1/2", "0"]
FIELD_COEFFS = COEFFS + ["r", "(r + 1)", "r^2/3"]
KINDS = ["ph", "euobs", "gsv", "schwartz", "log", "mu-curve", "polar", "chi"]
THEOREMS = ["baum-bott", "seh", "iso", "total-gsv"]
EXPRS = ["1[W]", "1[0]", "Eu[{f}]", "Psi[{f}]", "Phi[{f}]", "1[{f}]",
         "2*Eu[{f}] - 1[0]", "1[W] - Psi[{f}] + 3*Phi[{f}]", "Eu[", "-", "x"]
MUTATION_CHARS = '{}[]",:^*()+-/0123456789 xyzrW'
# inserted after a '*' of a polynomial: digits that str.isdigit() accepts but
# int() cannot read or that are not ASCII, a run past the 4300 digits int()
# reads, a power of a sum past the term cap, and a minus sign before a power
MUTATION_SNIPPETS = ["-x^2*", "9" * 5000 + "*", "²", "(x + y)^100000*", "٣*", "-y^3*",
                     "3^100000000*"]
CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"
ENTRIES = json.loads((CORPUS / "manifest.json").read_text())["entries"]


def _poly(names, degree, coeffs, low=0):
    """Polynomial text in ``names``: a few terms of total degree low..degree."""
    exps = st.tuples(*(st.integers(0, degree) for _ in names)).filter(
        lambda e: low <= sum(e) <= degree)
    term = st.tuples(st.sampled_from(coeffs), exps)

    def text(terms):
        parts = []
        for c, e in terms:
            mono = "*".join(f"{v}^{k}" for v, k in zip(names, e) if k)
            parts.append(f"{c}*{mono}" if mono else c)
        return " + ".join(parts) or "0"

    return st.lists(term, min_size=1, max_size=4).map(text)


def _homogeneous(names, degree, coeffs):
    """Homogeneous polynomial text of the given degree in three variables."""
    exps = st.tuples(st.integers(0, degree), st.integers(0, degree)).filter(
        lambda e: sum(e) <= degree).map(lambda e: e + (degree - sum(e),))
    term = st.tuples(st.sampled_from([c for c in coeffs if c != "0"]), exps)
    return st.lists(term, min_size=1, max_size=3).map(lambda terms: " + ".join(
        f"{c}*" + "*".join(f"{v}^{k}" for v, k in zip(names, e)) for c, e in terms))


@st.composite
def germ_problems(draw, coeffs):
    names = draw(st.sampled_from([["x", "y"]] * 5 + [["y", "x"], ["u", "v"], ["x"], ["x", "x"]]))
    # no constant terms, so that most fields are singular at the origin
    pair = st.lists(_poly(names, 3, coeffs, low=1), min_size=2, max_size=2)
    g = {"vector_field": draw(pair)}
    if draw(st.booleans()):
        g["divisor"] = draw(_poly(names, 3, coeffs, low=1))
    if draw(st.integers(0, 3)) == 0:
        g["log_basis"] = draw(st.lists(pair, min_size=2, max_size=2))
    if draw(st.integers(0, 3)) == 0:
        g["balanced_divisor"] = [{"curve": draw(_poly(names, 2, coeffs)), "coeff": draw(st.integers(-2, 2))}]
    argv = draw(st.sampled_from(["index"] * 3 + ["puiseux", "confun", "verify"]).flatmap(
        lambda command: {
            "index": st.sampled_from(KINDS).map(lambda k: ["index", "--kind", k]),
            "puiseux": st.integers(-1, 24).map(lambda n: ["puiseux", "--precision", str(n)]),
            "confun": st.sampled_from(EXPRS).map(
                lambda e: ["confun", "--expr", e.format(f="*".join(names))]),
            "verify": st.just(["verify", "--theorem", "seh"]),
        }[command]))
    return {"variables": names, "germ": g}, argv


@st.composite
def foliation_problems(draw, coeffs):
    names = draw(st.sampled_from([["x", "y", "z"]] * 5 + [["v", "u", "s"], ["x", "y"]]))
    fol = {"affine_field": draw(st.lists(_poly(names[:2], 3, coeffs), min_size=2, max_size=2))}
    if draw(st.integers(0, 3)):
        fol["divisor"] = draw(st.one_of(
            st.integers(1, 3).flatmap(lambda d: _homogeneous(names, d, coeffs)),
            _poly(names, 2, coeffs)))
    argv = ["verify", "--theorem", draw(st.sampled_from(THEOREMS))]
    return {"variables": names, "foliation": fol}, argv


@st.composite
def chern_problems(draw, coeffs):
    small = st.integers(-3, 5)
    optional = {"degree": small, "milnor_numbers": st.lists(small, max_size=3),
                "degrees": st.lists(small, max_size=3), "twist": small}
    ch = {"kind": draw(st.sampled_from(["plane", "curve", "complement", "snc", "cone"]))}
    for key, values in optional.items():
        if draw(st.booleans()):
            ch[key] = draw(values)
    return {"variables": [], "chern": ch}, ["chern"]


@st.composite
def corpus_problems(draw, coeffs):
    """The text of a corpus problem with one digit changed, or as it is."""
    entry = draw(st.sampled_from(ENTRIES))
    text = (CORPUS / entry["problem"]).read_text()
    digits = [i for i, ch in enumerate(text) if ch.isdigit()]
    if digits and draw(st.booleans()):
        i = draw(st.sampled_from(digits))
        text = text[:i] + draw(st.sampled_from("0123456789")) + text[i + 1:]
    return text, list(entry["argv"])


@st.composite
def problems(draw):
    # foliations over a declared field are refused, so most problems declare none
    minpoly = draw(st.sampled_from([None] * 2 * len(MINPOLYS) + MINPOLYS))
    coeffs = COEFFS if minpoly is None else FIELD_COEFFS
    section = st.sampled_from([germ_problems] * 2 + [foliation_problems] * 2
                              + [chern_problems, corpus_problems])
    doc, argv = draw(section.flatmap(lambda s: s(coeffs)))
    if isinstance(doc, str):
        text = doc
    else:
        if minpoly is not None:
            doc["field"] = {"generator": "r", "minpoly": minpoly}
        text = json.dumps(doc)
    for _ in range(draw(st.sampled_from([0] * 6 + [1, 2]))):
        i = draw(st.integers(0, len(text)))
        how = draw(st.sampled_from(["insert", "delete", "duplicate", "truncate"] + ["snippet"] * 4))
        if how == "insert":
            text = text[:i] + draw(st.sampled_from(MUTATION_CHARS)) + text[i:]
        elif how == "snippet":
            stars = [j + 1 for j, ch in enumerate(text) if ch == "*"]
            i = draw(st.sampled_from(stars)) if stars else i
            text = text[:i] + draw(st.sampled_from(MUTATION_SNIPPETS)) + text[i:]
        elif how == "delete":
            text = text[:i] + text[i + 1:]
        elif how == "duplicate":
            text = text[:i] + text[i:i + 4] + text[i:]
        else:
            text = text[:i]
    return text, argv


class _Hang(Exception):
    pass


def _out_of_time(signum, frame):
    raise _Hang(f"no answer within {SECONDS_PER_EXAMPLE} s")


@pytest.fixture(scope="module")
def problem_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz") / "problem.json")


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=problems())
def test_cli_never_escapes_its_exit_codes(problem_path, case):
    text, argv = case
    with open(problem_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    previous = signal.signal(signal.SIGALRM, _out_of_time)
    signal.alarm(SECONDS_PER_EXAMPLE)
    try:
        code = cli.main(argv + ["--input", problem_path])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code in (0, 1, 2, 3, 4)
