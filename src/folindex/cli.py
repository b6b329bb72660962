"""Command-line front end: JSON problems in, JSON reports out.

A problem file is a JSON document with "variables", an optional "field"
extension declaration, and exactly one of a "germ", "foliation" or
"chern" section; unknown keys anywhere are rejected so that typos fail
loudly instead of silently changing the problem.  Reports mirror the
library's IndexReport/GlobalReport with every integer serialized as a
decimal string, and echo the problem so a report alone reproduces its
own computation.

Exit codes: 0 success (and, for verify, theorem holds), 1 malformed or
unreadable input or an unwritable report, 2 mathematical precondition
failure, 3 verified identity fails, 4 resource cap reached.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

from .chern import (
    CSMClass,
    chow_integral,
    csm_complement,
    csm_curve,
    log_chern_snc,
    twisted_index_sum,
)
from .confun import (
    ConstructibleFn,
    cc,
    indicator_curve,
    index_pairing,
    nearby_cycles,
    vanishing_cycles,
)
from .exactcore import (
    QQ,
    FieldDescriptor,
    FieldElem,
    MissingInputError,
    ParseError,
    PreconditionError,
    ResourceCapError,
    _NAME,
    _univariate_coeffs,
    parse_poly,
)
from .foliation import from_affine
from .indices import (
    LogBasis,
    VectorFieldGerm,
    chi_number,
    euler_obstruction_field,
    gsv_index,
    log_index,
    mu_along_curve,
    ph_index,
    polar_intersection,
    schwartz_index,
)
from .puiseux import branches, series_text
from .verify import (
    verify_baum_bott,
    verify_isolated,
    verify_log_seh,
    verify_total_gsv,
)

SCHEMA_VERSION = "1"

_NAME_RE = re.compile(_NAME + r"\Z")


# -- problem parsing ---------------------------------------------------------

def _check_keys(obj, where, required, optional=()):
    if not isinstance(obj, dict):
        raise ParseError(f"{where} must be a JSON object")
    unknown = sorted(set(obj) - set(required) - set(optional))
    if unknown:
        raise ParseError(f"unknown keys in {where}: {', '.join(unknown)}")
    missing = [k for k in required if k not in obj]
    if missing:
        raise ParseError(f"missing keys in {where}: {', '.join(missing)}")


def _check_string_pair(val, where):
    if (not isinstance(val, list) or len(val) != 2
            or not all(isinstance(s, str) for s in val)):
        raise ParseError(f"{where} must be a pair of polynomial strings")
    return val


def _check_int(val, where):
    if isinstance(val, bool) or not isinstance(val, int):
        raise ParseError(f"{where} must be an integer")
    return val


def _load_document(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}")
    except ValueError as exc:  # a JSONDecodeError, or an integer past int()'s digit limit
        raise ParseError(f"{path} is not valid JSON: {exc}")
    except RecursionError:
        raise ParseError(f"{path} nests too deeply to read")
    _check_keys(doc, "the problem file", ("variables",),
                ("field", "germ", "foliation", "chern", "schema_version"))
    if "schema_version" in doc and str(doc["schema_version"]) != SCHEMA_VERSION:
        raise ParseError(f"unsupported schema_version {doc['schema_version']!r}")
    sections = [k for k in ("germ", "foliation", "chern") if k in doc]
    if len(sections) != 1:
        raise ParseError(
            "the problem file needs exactly one of the germ, foliation "
            "and chern sections")
    return doc, sections[0]


def _parse_field(doc):
    if "field" not in doc:
        return QQ
    f = doc["field"]
    _check_keys(f, "field", ("generator", "minpoly"))
    gen = f["generator"]
    if not isinstance(gen, str) or not _NAME_RE.match(gen):
        raise ParseError("field generator must be an identifier")
    minpoly = parse_poly(f["minpoly"], (gen,))
    coeffs = [c.as_fraction() for c in _univariate_coeffs(minpoly, gen)]
    if len(coeffs) < 3:
        raise ParseError("minimal polynomial must have degree at least 2")
    lead = coeffs[-1]
    return FieldDescriptor.simple_extension(gen, [c / lead for c in coeffs])


def _parse_variables(doc, descriptor, count):
    vs = doc["variables"]
    if (not isinstance(vs, list) or not all(isinstance(v, str) for v in vs)
            or len(set(vs)) != len(vs)
            or not all(_NAME_RE.match(v) for v in vs)):
        raise ParseError("variables must be a list of distinct identifiers")
    if len(vs) != count:
        raise ParseError(f"this problem needs exactly {count} variables")
    if descriptor.is_extension and descriptor.generator_name in vs:
        raise ParseError("field generator collides with a variable")
    return tuple(vs)


class _Germ:
    """The parsed germ section: a field at the origin with optional extras."""

    def __init__(self, doc, descriptor):
        g = doc["germ"]
        _check_keys(g, "germ", ("vector_field",),
                    ("divisor", "log_basis", "balanced_divisor"))
        vs = _parse_variables(doc, descriptor, 2)
        a, b = (_parse(p, vs, descriptor) for p in
                _check_string_pair(g["vector_field"], "germ.vector_field"))
        self.field = VectorFieldGerm(a, b)
        self.divisor = (_parse(g["divisor"], vs, descriptor)
                        if "divisor" in g else None)
        self.log_basis = None
        if "log_basis" in g:
            if self.divisor is None:
                raise MissingInputError("log_basis needs the divisor it bounds")
            lb = g["log_basis"]
            if not isinstance(lb, list) or len(lb) != 2:
                raise ParseError("log_basis must list two vector fields")
            rows = [_check_string_pair(r, "log_basis entry") for r in lb]
            chis = [VectorFieldGerm(_parse(r[0], vs, descriptor),
                                    _parse(r[1], vs, descriptor)) for r in rows]
            self.log_basis = LogBasis(chis[0], chis[1], self.divisor)
        self.balanced = None
        if "balanced_divisor" in g:
            bd = g["balanced_divisor"]
            if not isinstance(bd, list) or not bd:
                raise ParseError("balanced_divisor must be a nonempty list")
            self.balanced = []
            for entry in bd:
                _check_keys(entry, "balanced_divisor entry", ("curve", "coeff"))
                self.balanced.append(
                    (_parse(entry["curve"], vs, descriptor),
                     _check_int(entry["coeff"], "balanced_divisor coeff")))

    def need_divisor(self):
        if self.divisor is None:
            raise MissingInputError("this index needs a divisor in the germ")
        return self.divisor


def _load_germ(path, command):
    """The problem file's field and parsed germ section, for ``command``."""
    doc, section = _load_document(path)
    if section != "germ":
        raise ParseError(f"the {command} command needs a germ section")
    desc = _parse_field(doc)
    return doc, desc, _Germ(doc, desc)


def _parse(text, variables, descriptor):
    if not isinstance(text, str):
        raise ParseError("expected a polynomial string")
    return parse_poly(text, variables, descriptor)


# -- report serialization ----------------------------------------------------

def _jsonable(value):
    # a Fraction takes the final str(value) untested: isinstance against
    # Fraction, an ABC, is slow, and every value of a report passes here
    if isinstance(value, (str, bool)):
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, FieldElem):
        return value.to_str()
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return str(value)


def _payload(problem, kind, value, ingredients, assumptions=(), per_point=(),
             passed=True):
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "value": str(value),
        "ingredients": _jsonable(ingredients),
        "assumptions": list(assumptions),
        "per_point": _jsonable([list(e) for e in per_point]),
        "pass": passed,
        "problem": problem,
    }


def _human(payload):
    lines = [f"{payload['kind']} = {payload['value']}"
             + ("" if payload["pass"] else "  [FAIL]")]
    for pt in payload["per_point"]:
        lines.append("  " + " ".join(str(p) for p in pt))
    for key in sorted(payload["ingredients"]):
        lines.append(f"  {key}: {json.dumps(payload['ingredients'][key])}")
    for a in payload["assumptions"]:
        lines.append(f"  assuming: {a}")
    return lines


# -- commands ----------------------------------------------------------------

def _cmd_index(args):
    doc, _, germ = _load_germ(args.input, "index")
    v = germ.field
    kind = args.kind
    if kind == "ph":
        report = ph_index(v)
    elif kind == "euobs":
        report = euler_obstruction_field(v, germ.need_divisor())
    elif kind == "gsv":
        report = gsv_index(v, germ.need_divisor())
    elif kind == "schwartz":
        report = schwartz_index(v, germ.need_divisor())
    elif kind == "log":
        if germ.log_basis is None:
            raise MissingInputError("the logarithmic index needs a log_basis")
        report = log_index(v, germ.log_basis)
    elif kind == "mu-curve":
        report = mu_along_curve(v, germ.need_divisor())
    elif kind == "polar":
        report = polar_intersection(v, germ.need_divisor())
    else:
        if germ.balanced is None:
            raise MissingInputError("the chi number needs a balanced_divisor")
        report = chi_number(v, germ.balanced)
    return _payload(doc, report.kind, report.value, report.ingredients), 0


def _cmd_verify(args):
    doc, section = _load_document(args.input)
    if section != "foliation":
        raise ParseError("the verify command needs a foliation section")
    desc = _parse_field(doc)
    fol = doc["foliation"]
    _check_keys(fol, "foliation", ("affine_field",), ("divisor",))
    vs = _parse_variables(doc, desc, 3)
    a, b = (_parse(p, vs[:2], desc) for p in
            _check_string_pair(fol["affine_field"], "foliation.affine_field"))
    foliation = from_affine(a, b)
    divisor = _parse(fol["divisor"], vs, desc) if "divisor" in fol else None
    if args.theorem == "baum-bott":
        report = verify_baum_bott(foliation)
    else:
        if divisor is None:
            raise MissingInputError(f"{args.theorem} needs a divisor")
        runner = {"seh": verify_log_seh, "iso": verify_isolated,
                  "total-gsv": verify_total_gsv}[args.theorem]
        report = runner(foliation, divisor)
    ingredients = {"lhs": report.lhs, "rhs": report.rhs,
                   "degree": foliation.degree, **report.details}
    payload = _payload(doc, report.theorem, report.lhs, ingredients,
                       report.assumptions, report.per_point, report.passed)
    return payload, 0 if report.passed else 3


def _cmd_puiseux(args):
    doc, desc, germ = _load_germ(args.input, "puiseux")
    curve = germ.need_divisor()
    origin = (FieldElem.of(0, desc), FieldElem.of(0, desc))
    found = branches(curve, origin, args.precision)
    listing = [{
        "x": series_text(b.x_poly, b.precision),
        "y": series_text(b.y_poly, b.precision),
        "multiplicity": b.multiplicity,
        "conjugacy": b.conjugacy_size,
        "exact": b.exact,
        "field": repr(b.descriptor),
    } for b in found]
    count = sum(b.conjugacy_size for b in found)
    ingredients = {"branches": listing,
                   "curve_multiplicity":
                       sum(b.multiplicity * b.conjugacy_size for b in found)}
    return _payload(doc, "PUISEUX_BRANCHES", count, ingredients), 0


# One term of a --expr text: [sign][coefficient[*]]head[argument].  The sign
# is optional only on the first term.
_TERM_RE = re.compile(
    r"\s*([+-]?)\s*(?:([0-9]+)\s*\*?\s*)?(1|Eu|Psi|Phi)\s*\[\s*([^][]*?)\s*\]\s*")


def _confun_atom(head, arg, variables, descriptor):
    if head == "1" and arg == "W":
        return ConstructibleFn.whole_space()
    if head == "1" and arg == "0":
        return ConstructibleFn.point_mass()
    poly = _parse(arg, variables, descriptor)
    if head == "1":
        return indicator_curve(poly)
    if head == "Psi":
        return nearby_cycles(poly)
    if head == "Phi":
        return vanishing_cycles(poly)
    ind = indicator_curve(poly)
    key = ind.curve_terms[0][0]
    return ind + (ind.registry[key].mult - 1) * ConstructibleFn.point_mass()


def _parse_confun_expr(expr, variables, descriptor):
    terms, pos = [], 0
    # every term is read before any is built, so malformed text exits 1 even
    # when an earlier term's curve would fail a precondition (exit 2)
    while not terms or pos < len(expr):
        m = _TERM_RE.match(expr, pos)
        if not m or (terms and not m[1]):
            raise ParseError(f"cannot parse constructible term at {expr[pos:].strip()!r}")
        sign, coeff, head, arg = m.groups()
        try:
            terms.append((int(sign + (coeff or "1")), head, arg))
        except ValueError:  # past the digit limit of int()
            raise ParseError("coefficient too long to read") from None
        pos = m.end()
    return functools.reduce(lambda a, b: a + b, (
        scale * _confun_atom(head, arg, variables, descriptor) for scale, head, arg in terms))


def _cmd_confun(args):
    doc, desc, germ = _load_germ(args.input, "confun")
    vs = germ.field.variables
    gamma = _parse_confun_expr(args.expr, vs, desc)
    value = index_pairing(gamma, germ.field)
    ingredients = {
        "function": str(gamma),
        "characteristic_cycle": [[name, c] for name, c in cc(gamma).terms],
        "value_at_origin": gamma.value_at_origin(),
    }
    return _payload(doc, "CONFUN_PAIRING", value, ingredients), 0


def _cmd_chern(args):
    doc, section = _load_document(args.input)
    if section != "chern":
        raise ParseError("the chern command needs a chern section")
    ch = doc["chern"]
    _check_keys(ch, "chern", ("kind",),
                ("degree", "milnor_numbers", "degrees", "twist"))
    kind = ch.get("kind")
    if kind not in ("plane", "curve", "complement", "snc"):
        raise ParseError("chern kind must be plane, curve, complement or snc")
    twist = _check_int(ch.get("twist", 0), "chern twist")
    mus = ch.get("milnor_numbers", [])
    if not isinstance(mus, list):
        raise ParseError("milnor_numbers must be a list")
    mus = tuple(_check_int(m, "milnor number") for m in mus)
    if kind == "snc":
        if "twist" in ch or "milnor_numbers" in ch or "degree" in ch:
            raise ParseError("snc takes only the degrees list")
        degrees = ch.get("degrees")
        if not isinstance(degrees, list) or not degrees:
            raise ParseError("snc needs a nonempty degrees list")
        cls = log_chern_snc([_check_int(d, "snc degree") for d in degrees])
        ingredients = {"class": list(cls.coefficients)}
        return _payload(doc, "CHERN_LOG_SNC", chow_integral(cls),
                        ingredients), 0
    if kind == "plane":
        if "degree" in ch or "milnor_numbers" in ch or "degrees" in ch:
            raise ParseError("plane takes only the twist")
        cls = CSMClass.projective_plane()
    else:
        if "degrees" in ch:
            raise ParseError("degrees is only for snc")
        if "degree" not in ch:
            raise ParseError(f"{kind} needs the curve degree")
        k = _check_int(ch["degree"], "curve degree")
        cls = csm_curve(k, mus) if kind == "curve" else csm_complement(k, mus)
    value = twisted_index_sum(cls, twist)
    ingredients = {"csm_components": list(cls.components), "twist": twist}
    return _payload(doc, f"CHERN_{kind.upper()}", value, ingredients), 0


# -- entry point -------------------------------------------------------------

class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise ParseError(message)


@functools.lru_cache(maxsize=None)  # built once per process, reused by every main()
def _build_parser():
    parser = _ArgumentParser(
        prog="folindex",
        description="Exact local indices and global index theorems for "
                    "singular holomorphic foliations on the plane.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--input", required=True, help="problem file (JSON)")
        p.add_argument("--json", help="write the report here as JSON")

    p = sub.add_parser("index", help="local index of a vector field germ")
    common(p)
    p.add_argument("--kind", required=True,
                   choices=["ph", "euobs", "gsv", "schwartz", "log",
                            "mu-curve", "polar", "chi"])
    p.set_defaults(run=_cmd_index)

    p = sub.add_parser("verify", help="check a global index theorem on P^2")
    common(p)
    p.add_argument("--theorem", required=True,
                   choices=["baum-bott", "seh", "iso", "total-gsv"])
    p.set_defaults(run=_cmd_verify)

    p = sub.add_parser("puiseux", help="branch expansions of the germ divisor")
    common(p)
    p.add_argument("--precision", type=int, default=16,
                   help="series truncation order (default 16)")
    p.set_defaults(run=_cmd_puiseux)

    p = sub.add_parser("confun", help="pair a constructible function with the germ")
    common(p)
    p.add_argument("--expr", required=True,
                   help="e.g. \"1[W] - 2*Eu[x*y] + Psi[y^2 - x^3] + 1[0]\"")
    p.set_defaults(run=_cmd_confun)

    p = sub.add_parser("chern", help="characteristic class computations")
    common(p)
    p.set_defaults(run=_cmd_chern)

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        payload, code = args.run(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ResourceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        try:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        except OSError as exc:
            print(f"error: cannot write {args.json}: {exc}", file=sys.stderr)
            return 1
    for line in _human(payload):
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
