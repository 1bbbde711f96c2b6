"""Command-line interface.

Commands take algebra references: ``catalog:NAME`` (``catalog:pauli(3,1)``),
``file:PATH``, or an inline combinator expression such as
``matrix(D=trivial(Z2), H=[e], tuple=[(0),(1)])``.

Exit codes: 0 for success / a true verdict, 1 for a false verdict, 2 for
parse errors, 3 for mathematical precondition failures, 4 for internal
invariant violations (including a structural/brute disagreement under
``equiv --mode both``).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import time

from .algebras import (GradedAlgebra, TripleSpec, catalog_names,
                       matrix_over_division, validate)
from .cache import cached_identity_space, default_cache_dir
from .errors import (GradedPIError, InvariantViolation, PolynomialSyntaxError,
                     PreconditionError, SpecFormatError)
from .identities import (identity_space, is_identity, parse_polynomial,
                         same_identities_up_to)
from .specfile import (format_element, format_scalar, load_algebra_file,
                       parse_algebra, parse_degree_tuple, parse_triple,
                       serialize_algebra)
from .structure import (BicharTable, ClassificationReport, classify,
                        equiv_matrix_over_division, normalize_triple)

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_INVARIANT = 4


# -- reference loading ---------------------------------------------------------


def load_ref(text: str) -> GradedAlgebra:
    if text.startswith("catalog:"):
        return parse_algebra(f"catalog({text[len('catalog:'):]})")
    if text.startswith("file:"):
        a = load_algebra_file(text[len("file:"):])
        _validate_loaded(a, text)
        return a
    a = parse_algebra(text)
    if text.lstrip().startswith(("group", "basis")):
        _validate_loaded(a, "<inline>")
    return a


def _validate_loaded(a: GradedAlgebra, ref: str):
    rep = validate(a)
    if not rep.ok:
        raise PreconditionError(
            f"{ref}: algebra table is inconsistent: {rep.failures[0]}")


def load_triple_ref(text: str) -> TripleSpec:
    """A matrix(...) reference as its triple; other algebras as (supp, A, (e))."""
    body, base_dir = text, "."
    if text.startswith("file:"):
        path = text[len("file:"):]
        with open(path, "r", encoding="utf-8") as fh:
            body = fh.read()
        base_dir = os.path.dirname(path) or "."
    if body.lstrip().startswith("matrix"):
        return parse_triple(body, base_dir=base_dir)
    a = load_ref(text)
    return TripleSpec(a.support_subgroup(), a, (a.group.identity,))


# -- document building ---------------------------------------------------------


def element_text(x) -> str:
    parts = []
    for i in sorted(x.coeffs):
        c = format_scalar(x.coeffs[i])
        label = x.parent.labels[i]
        parts.append(f"({c})*{label}" if " + " in c else f"{c}*{label}")
    return " + ".join(parts) if parts else "0"


def table_doc(t: BicharTable) -> dict:
    return {
        "domain": [format_element(g) for g in t.domain],
        "flavor": t.flavor,
        "matrix": [[format_scalar(v) for v in row] for row in t.as_matrix()],
    }


def classification_doc(rep: ClassificationReport) -> dict:
    doc = {
        "type": rep.type_tag,
        "support": [format_element(g) for g in rep.supp.elements],
        "central_support": ([format_element(g) for g in
                             rep.central_support.elements]
                            if rep.central_support is not None else None),
        "supp_R": ([format_element(g) for g in rep.supp_r.elements]
                   if rep.supp_r is not None else None),
        "bicharacter": table_doc(rep.bichar) if rep.bichar else None,
        "complex_unit": element_text(rep.complex_unit)
        if rep.complex_unit is not None else None,
        "notes": list(rep.notes),
    }
    if rep.quotient is not None:
        doc["quotient"] = {
            "group": repr(rep.quotient.theta.codomain),
            "supp_R": [format_element(g) for g in rep.quotient.supp_r.elements],
            "bicharacter": table_doc(rep.quotient.bichar),
        }
    else:
        doc["quotient"] = None
    return doc


def brute_doc(rep) -> dict:
    doc = {
        "equal": rep.equal,
        "max_degree": rep.max_degree,
        "detail": rep.detail,
    }
    if not rep.equal:
        doc["witness"] = repr(rep.witness) if rep.witness is not None else None
        doc["holds_in"] = rep.holds_in
        doc["fails_in"] = rep.fails_in
        if rep.witness_substitution:
            doc["witness_substitution"] = {
                repr(v): lab for v, lab in rep.witness_substitution.items()}
    return doc


# -- emission -------------------------------------------------------------------


def emit(doc: dict, fmt: str) -> str:
    """Deterministic rendering; 'structured' is a single JSON document."""
    if fmt == "structured":
        return json.dumps(doc, sort_keys=True, indent=2)
    lines = []
    _table_lines(doc, lines, "")
    return "\n".join(lines)


def _table_lines(value, lines: list, indent: str, key: str | None = None):
    prefix = f"{indent}{key}: " if key is not None else indent
    if isinstance(value, dict):
        if key is not None:
            lines.append(f"{indent}{key}:")
            indent += "  "
        for k in value:
            _table_lines(value[k], lines, indent, k)
    elif isinstance(value, list) and value and isinstance(value[0], list):
        lines.append(f"{indent}{key}:" if key is not None else indent)
        width = max((len(str(x)) for row in value for x in row), default=1)
        for row in value:
            lines.append(indent + "  " + "  ".join(str(x).rjust(width)
                                                   for x in row))
    elif isinstance(value, list):
        if all(isinstance(x, (str, int, bool)) or x is None for x in value):
            lines.append(prefix + ", ".join(str(x) for x in value))
        else:
            lines.append(f"{indent}{key}:" if key is not None else indent)
            for x in value:
                _table_lines(x, lines, indent + "  ")
    else:
        lines.append(prefix + str(value))


# -- commands -------------------------------------------------------------------


def cmd_classify(args) -> tuple[dict, int]:
    a = load_ref(args.algebra)
    rep = classify(a)
    return {"command": "classify", "input": args.algebra,
            "report": classification_doc(rep)}, EXIT_TRUE


def cmd_bichar(args) -> tuple[dict, int]:
    a = load_ref(args.algebra)
    rep = classify(a)
    if rep.bichar is not None:
        table = rep.bichar
        where = "support" if rep.type_tag in ("I", "III", "IV") else "supp_R"
    elif rep.quotient is not None:
        table = rep.quotient.bichar
        where = f"supp_R of the quotient by squares " \
                f"({rep.quotient.theta.codomain!r})"
    else:
        raise InvariantViolation("classification carries no table")
    return {"command": "bichar", "input": args.algebra, "type": rep.type_tag,
            "domain_of": where, **table_doc(table)}, EXIT_TRUE


def cmd_idspace(args, use_cache: bool, cache_dir) -> tuple[dict, int]:
    a = load_ref(args.algebra)
    degrees = parse_degree_tuple(args.tuple, a.group)
    space = (cached_identity_space(a, degrees, directory=cache_dir)
             if use_cache else identity_space(a, degrees))
    return {"command": "idspace", "input": args.algebra,
            "degrees": [format_element(g) for g in degrees],
            "monomials": len(space.monomials()),
            "dimension": space.dimension,
            "basis": [repr(f) for f in space.polynomials()]}, EXIT_TRUE


def cmd_check(args) -> tuple[dict, int]:
    a = load_ref(args.algebra)
    f = parse_polynomial(args.poly, a.group)
    verdict = is_identity(f, a)
    return {"command": "check", "input": args.algebra, "poly": args.poly,
            "verdict": verdict}, EXIT_TRUE if verdict else EXIT_FALSE


def _structural_equiv(args) -> dict:
    ta = load_triple_ref(args.left)
    tb = load_triple_ref(args.right)
    try:
        na = normalize_triple(ta)
        nb = normalize_triple(tb)
        rep = equiv_matrix_over_division(na, nb)
    except PreconditionError as err:
        raise PreconditionError(
            f"structural mode needs graded division algebras or matrix "
            f"triples over them ({err}); try --mode brute") from err
    doc = {
        "verdict": rep.verdict,
        "reason": rep.reason,
        "normalized_left_type": classify(na.division).type_tag,
        "normalized_right_type": classify(nb.division).type_tag,
    }
    if rep.shift is not None:
        doc["coset_shift"] = format_element(rep.shift)
    return doc


def _prewarm_spaces(a: GradedAlgebra, b: GradedAlgebra, max_degree: int,
                    cache_dir):
    if set(a.support()) != set(b.support()):
        return
    supp = sorted(a.support())
    for n in range(1, max_degree + 1):
        for degrees in itertools.combinations_with_replacement(supp, n):
            cached_identity_space(a, degrees, directory=cache_dir)
            cached_identity_space(b, degrees, directory=cache_dir)


def cmd_equiv(args, use_cache: bool, cache_dir) -> tuple[dict, int]:
    doc = {"command": "equiv", "mode": args.mode,
           "inputs": [args.left, args.right]}
    structural = brute = None
    if args.mode in ("structural", "both"):
        structural = _structural_equiv(args)
        doc["structural"] = structural
    if args.mode in ("brute", "both"):
        a = load_ref(args.left)
        b = load_ref(args.right)
        if a.group != b.group:
            raise PreconditionError("algebras graded by different groups")
        if use_cache:
            _prewarm_spaces(a, b, args.max_degree, cache_dir)
        rep = same_identities_up_to(a, b, args.max_degree,
                                    names=(args.left, args.right))
        brute = brute_doc(rep)
        doc["max_degree"] = args.max_degree
        doc["brute"] = brute
    if args.mode == "both":
        agree = structural["verdict"] == brute["equal"]
        doc["agreement"] = agree
        if not agree:
            doc["error"] = ("structural and brute-force verdicts disagree; "
                            "this is an internal invariant violation")
            return doc, EXIT_INVARIANT
        doc["verdict"] = structural["verdict"]
    elif args.mode == "structural":
        doc["verdict"] = structural["verdict"]
    else:
        doc["verdict"] = brute["equal"]
    return doc, EXIT_TRUE if doc["verdict"] else EXIT_FALSE


def cmd_normalize(args) -> tuple[dict, int]:
    spec = load_triple_ref(args.triple)
    rep = classify(spec.division)
    out = normalize_triple(spec)
    doc = {
        "command": "normalize",
        "input": args.triple,
        "type_before": rep.type_tag,
        "changed": out is not spec,
        "H": [format_element(g) for g in out.subgroup.elements],
        "tuple": [format_element(g) for g in out.g_tuple],
        "division": serialize_algebra(out.division),
        "division_type": classify(out.division).type_tag,
    }
    return doc, EXIT_TRUE


def cmd_catalog(args) -> tuple[dict, int]:
    if args.action != "list":
        raise PreconditionError(f"unknown catalog action {args.action!r}")
    return {"command": "catalog", "names": list(catalog_names())}, EXIT_TRUE


def cmd_selftest(args, json_mode: bool) -> tuple[dict, int]:
    from .selftest import run_selftest
    log = None if json_mode else lambda msg: print(msg, flush=True)
    rep = run_selftest(max_degree=args.max_degree, log=log)
    doc = {
        "command": "selftest",
        "ok": rep["ok"],
        "max_degree": rep["max_degree"],
        "sections": [
            {"name": s.name, "ok": s.ok, "detail": s.detail,
             "checks": s.checks, "failures": list(s.failures),
             "pairs": [{"name": n, "seconds": round(t, 3)}
                       for n, t in s.pairs]}
            for s in rep["sections"]
        ],
    }
    if not json_mode:
        for s in rep["sections"]:
            mark = "ok  " if s.ok else "FAIL"
            print(f"{mark} {s.name}: {s.detail} ({s.seconds:.1f}s)")
            for f in s.failures:
                print(f"     ! {f}")
        print(f"selftest {'passed' if rep['ok'] else 'FAILED'} "
              f"in {rep['seconds']:.1f}s")
    return doc, EXIT_TRUE if rep["ok"] else EXIT_INVARIANT


# -- entry point ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gradedpi",
        description="Graded polynomial identities of real graded division "
                    "algebras: classification, identity spaces, equivalence.")
    ap.add_argument("--json", action="store_true",
                    help="emit one structured JSON document on stdout")
    ap.add_argument("--no-cache", action="store_true",
                    help="disable the persistent identity-space cache")
    ap.add_argument("--cache-dir", default=None,
                    help=f"cache directory (default {default_cache_dir()})")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("classify", help="Type I-IV report for a division grading")
    p.add_argument("algebra")

    p = sub.add_parser("bichar", help="bicharacter table of a division grading")
    p.add_argument("algebra")

    p = sub.add_parser("idspace", help="multilinear identity space at a tuple")
    p.add_argument("algebra")
    p.add_argument("--tuple", required=True,
                   help="degree tuple, e.g. \"(0,0),(1,0)\"")

    p = sub.add_parser("check", help="is the polynomial a graded identity?")
    p.add_argument("algebra")
    p.add_argument("--poly", required=True)

    p = sub.add_parser("equiv", help="decide equality of graded identities")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--mode", choices=("structural", "brute", "both"),
                   default="both")
    p.add_argument("--max-degree", type=int, default=4)

    p = sub.add_parser("normalize",
                       help="rewrite a matrix triple to Type I/IV form")
    p.add_argument("triple")

    p = sub.add_parser("catalog", help="catalog operations")
    p.add_argument("action", choices=("list",))

    p = sub.add_parser("selftest", help="oracle-agreement suite")
    p.add_argument("--max-degree", type=int, default=4)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cache_dir = args.cache_dir
    use_cache = not args.no_cache
    t0 = time.time()
    try:
        if args.cmd == "classify":
            doc, code = cmd_classify(args)
        elif args.cmd == "bichar":
            doc, code = cmd_bichar(args)
        elif args.cmd == "idspace":
            doc, code = cmd_idspace(args, use_cache, cache_dir)
        elif args.cmd == "check":
            doc, code = cmd_check(args)
        elif args.cmd == "equiv":
            doc, code = cmd_equiv(args, use_cache, cache_dir)
        elif args.cmd == "normalize":
            doc, code = cmd_normalize(args)
        elif args.cmd == "catalog":
            doc, code = cmd_catalog(args)
        else:
            doc, code = cmd_selftest(args, args.json)
    except (SpecFormatError, PolynomialSyntaxError) as err:
        print(f"gradedpi: parse error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except PreconditionError as err:
        print(f"gradedpi: {err}", file=sys.stderr)
        return EXIT_PRECONDITION
    except InvariantViolation as err:
        print(f"gradedpi: invariant violation: {err}", file=sys.stderr)
        return EXIT_INVARIANT
    except GradedPIError as err:  # pragma: no cover - defensive
        print(f"gradedpi: {err}", file=sys.stderr)
        return EXIT_INVARIANT
    except OSError as err:
        print(f"gradedpi: {err}", file=sys.stderr)
        return EXIT_PRECONDITION
    except Exception as err:  # pragma: no cover - no panic without exit 4
        print(f"gradedpi: internal error: {err!r}", file=sys.stderr)
        return EXIT_INVARIANT
    if args.json:
        print(emit(doc, "structured"))
    elif args.cmd != "selftest":
        print(emit(doc, "table"))
        print(f"time: {time.time() - t0:.2f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
