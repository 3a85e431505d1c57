"""Command-line front end and the JSON algebra document format.

Exit codes: 0 on success / verified, 1 on a verification failure, 2 on a
usage error.  All numeric output is exact (fraction strings); documents are
UTF-8 JSON with sorted keys so identical invocations are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from fractions import Fraction

from qflab import catalog
from qflab.derivations import certify, derivation_space, rank_in_basis, verify_claimed_weights
from qflab.exact import QflabError, parse_poly, rat, rat_str
from qflab.gradation import NonNilpotentError, gr, lower_central_series, type_of
from qflab.isomorphy import classify_gr, cn_to_qn_transform
from qflab.liealg import Algebra, jacobi_check


class UsageError(QflabError):
    pass


# ---------------------------------------------------------------------------
# Algebra documents
# ---------------------------------------------------------------------------


def algebra_to_doc(algebra: Algebra, family: str | None = None) -> dict:
    brackets = []
    for i, j, targets in algebra.brackets():
        terms = [{"k": k, "coeff": str(poly)} for k, poly in sorted(targets.items())]
        brackets.append({"i": i, "j": j, "terms": terms})
    doc = {"dim": algebra.dim, "params": list(algebra.params), "brackets": brackets}
    if family is not None:
        doc["metadata"] = {"family": family}
    return doc


# Largest dim a document may declare.  `jacobi` costs in proportion to the
# nonzero terms and checks sparse documents of a few thousand dimensions; the
# numeric commands build dim-long vectors and dim x dim systems, so an
# unbounded dim would only exhaust memory.
MAX_DIM = 4096


def _integer(value) -> int:
    # int() would truncate 2.7 to 2 and read true as 1
    if isinstance(value, (bool, float)):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def doc_to_algebra(doc: dict) -> Algebra:
    try:
        dim = _integer(doc["dim"])
        if dim > MAX_DIM:
            raise ValueError(f"dim {dim} is above the largest supported dim {MAX_DIM}")
        params = doc.get("params", [])
        if not isinstance(params, list) or len(set(map(str, params))) != len(params):
            raise ValueError(f"params must be a list of distinct names, got {params!r}")
        params = tuple(str(p) for p in params)
        table = {}
        parsed = {}  # text -> Poly; a Poly is immutable, so targets may share one
        for entry in doc.get("brackets", []):
            i, j = _integer(entry["i"]), _integer(entry["j"])
            if (i, j) in table:
                raise ValueError(f"bracket ({i},{j}) is given twice")
            targets = {}
            for term in entry["terms"]:
                k = _integer(term["k"])
                if k in targets:
                    raise ValueError(f"bracket ({i},{j}) gives target {k} twice")
                text = str(term["coeff"])
                if text not in parsed:
                    parsed[text] = parse_poly(text, params)
                targets[k] = parsed[text]
            table[(i, j)] = targets
        return Algebra(dim, table, params=params)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"malformed algebra document: {exc}") from exc


def dump_doc(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _write_output(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _load_algebra(path: str) -> Algebra:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise UsageError(f"{path} is not valid JSON: {exc}") from exc
    return doc_to_algebra(doc)


def _require_concrete(algebra: Algebra, what: str) -> Algebra:
    if algebra.params:
        raise UsageError(
            f"{what} needs concrete structure constants; regenerate the file "
            f"with --alpha to substitute values for {', '.join(algebra.params)}"
        )
    return algebra


# ---------------------------------------------------------------------------
# Argument handling
# ---------------------------------------------------------------------------


def _parse_alphas(text: str) -> tuple[Fraction, ...]:
    try:
        return tuple(rat(chunk) for chunk in text.split(",") if chunk.strip() != "")
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise UsageError(f"cannot parse alpha list {text!r}: {exc}") from exc


def _dim_arg(n: int) -> int:
    # a larger --n would write a document that every other command refuses
    if n > MAX_DIM:
        raise UsageError(f"--n {n} is above the largest supported dim {MAX_DIM}")
    return n


def _spec_from_args(args) -> catalog.FamilySpec:
    alpha = getattr(args, "alpha", None)
    alphas = _parse_alphas(alpha) if alpha is not None else None
    spec = replace(catalog.spec_for(args.family, _dim_arg(args.n), r=args.r, k=args.k, l=args.l,
                                    alphas=alphas),
                   misprint=getattr(args, "misprint", False))
    catalog.validate_spec(spec)
    return spec


def _add_family_arguments(parser: argparse.ArgumentParser, with_alpha: bool = True) -> None:
    parser.add_argument("family", choices=sorted(catalog.all_family_tokens()),
                        help="family token")
    parser.add_argument("--n", type=int, required=True, help="algebra dimension")
    parser.add_argument("--r", type=int, default=None)
    parser.add_argument("--k", type=int, default=None)
    parser.add_argument("--l", type=int, default=None)
    if with_alpha:
        parser.add_argument("--alpha", default=None,
                            help="comma separated rationals, e.g. 1,1/2")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qflab",
        description="Exact computations with filiform and quasi-filiform "
                    "nilpotent Lie algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a catalog algebra as a JSON document")
    _add_family_arguments(p)
    p.add_argument("-o", "--output", default=None, help="output file (default stdout)")

    p = sub.add_parser("jacobi", help="verify the Jacobi identity of a document")
    p.add_argument("file")

    p = sub.add_parser("series", help="lower central series, type and predicates")
    p.add_argument("file")

    p = sub.add_parser("gr", help="associated graded algebra of a document")
    p.add_argument("file")
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("derivations", help="basis of the derivation algebra")
    p.add_argument("file")

    p = sub.add_parser("rank", help="diagonal-derivation dimension in the given basis")
    p.add_argument("file")

    p = sub.add_parser("classify", help="identify gr(A) among the naturally graded models")
    p.add_argument("file")

    p = sub.add_parser("constraints", help="Jacobi constraints of a parametric family")
    _add_family_arguments(p, with_alpha=False)

    p = sub.add_parser("iso-cn", help="transform Cn(alpha) onto Qn and print the stages")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", default="", help="comma separated rationals")

    p = sub.add_parser("sweep", help="run the verification matrix over the catalog")
    p.add_argument("--families", default="all", help="comma separated tokens or 'all'")
    p.add_argument("--n-max", type=int, default=11)

    p = sub.add_parser("weights", help="audit the claimed diagonal of a family")
    _add_family_arguments(p, with_alpha=False)
    p.add_argument("--misprint", action="store_true",
                   help="audit the documented known-bad variant as the source prints it; a table "
                   "misprint that keeps every weight (Gnrk's) shows only in 'qflab audit'")

    sub.add_parser("audit", help="re-check the certificate of every documented discrepancy")

    return parser


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------


def _cmd_gen(args) -> int:
    spec = _spec_from_args(args)
    algebra = catalog.generate(spec)
    _write_output(dump_doc(algebra_to_doc(algebra, family=spec.canonical())), args.output)
    return 0


def _cmd_jacobi(args) -> int:
    report = jacobi_check(_load_algebra(args.file))
    if report.ok:
        print("JACOBI OK")
        return 0
    print(f"JACOBI FAIL ({len(report)} bad triples)")
    for line in report.lines():
        print("  " + line)
    return 1


def _cmd_series(args) -> int:
    algebra = _require_concrete(_load_algebra(args.file), "series")
    try:
        filtration = lower_central_series(algebra)
    except NonNilpotentError as exc:
        print(f"NOT NILPOTENT (series stabilizes at dimension {exc.stabilized_dim})")
        return 1
    info = type_of(algebra)
    print("dims " + " ".join(str(d) for d in filtration.dims))
    print(f"type {info.type_vector}")
    print(f"nilindex {info.nilindex}")
    print(f"filiform {'yes' if info.filiform else 'no'}")
    print(f"quasifiliform {'yes' if info.quasifiliform else 'no'}"
          + (f" (r={info.r_index})" if info.quasifiliform else ""))
    return 0


def _cmd_gr(args) -> int:
    algebra = _require_concrete(_load_algebra(args.file), "gr")
    graded = gr(algebra)
    doc = algebra_to_doc(graded.algebra)
    doc["metadata"] = {"weights": list(graded.weights)}
    _write_output(dump_doc(doc), args.output)
    return 0


def _cmd_derivations(args) -> int:
    algebra = _require_concrete(_load_algebra(args.file), "derivations")
    basis, dim = derivation_space(algebra)
    print(f"dimension {dim}")
    for idx, matrix in enumerate(basis):
        print(f"D{idx}:")
        for row in matrix:
            print("  " + " ".join(rat_str(x) for x in row))
    return 0


def _cmd_rank(args) -> int:
    algebra = _require_concrete(_load_algebra(args.file), "rank")
    print(rank_in_basis(algebra))
    return 0


def _cmd_classify(args) -> int:
    algebra = _require_concrete(_load_algebra(args.file), "classify")
    result = classify_gr(algebra)
    if result.classified:
        print(result.match.canonical())
        return 0
    print("UNCLASSIFIED" + (f" (near: {', '.join(result.candidates)})" if result.candidates else ""))
    return 1


def _cmd_constraints(args) -> int:
    spec = _spec_from_args(args)
    constraints = catalog.extract_constraints(spec)
    if not constraints.generators:
        print("(none)")
        return 0
    for g in constraints.generators:
        print(str(g))
    return 0


def _cmd_iso_cn(args) -> int:
    result = cn_to_qn_transform(_dim_arg(args.n), _parse_alphas(args.alpha))
    for idx, stage in enumerate(result.stages):
        print(f"stage {idx}:")
        for row in stage:
            print("  " + " ".join(rat_str(x) for x in row))
    equal = result.matches_qn()
    print(f"EQUAL Q_{args.n}" if equal else f"DIFFERS FROM Q_{args.n}")
    return 0 if equal else 1


def _cmd_weights(args) -> int:
    spec = _spec_from_args(args)
    audit = verify_claimed_weights(spec)
    if audit.ok:
        print("WEIGHTS OK")
        return 0
    print(f"WEIGHTS FAIL ({len(audit.violations)} brackets)")
    for line in audit.lines():
        print("  " + line)
    return 1


def _cmd_sweep(args) -> int:
    if args.families == "all":
        tokens = list(catalog.all_family_tokens())
    else:
        tokens = [t.strip() for t in args.families.split(",") if t.strip()]
        for t in tokens:
            catalog.family_def(t)  # raises UnknownFamilyError on bad tokens
    if not any(next(catalog.sound_tuples(t, args.n_max), None) for t in tokens):
        raise UsageError(f"nothing to sweep: no sound tuple of {args.families!r} has n <= {args.n_max}")
    failures = 0
    print(f"sweep n_max={args.n_max}")
    print(f"{'spec':40s} {'jacobi':8s} {'rank':12s} {'weights':8s} {'gr-class':24s}")
    for token in tokens:
        specs = catalog.sample_specs(token, args.n_max)
        for spec in specs:
            algebra = catalog.generate(spec)
            ok_j = jacobi_check(algebra).ok
            rank = rank_in_basis(algebra)
            expected_rank = catalog.expected_rank(spec)
            ok_r = rank == expected_rank
            try:
                ok_w = verify_claimed_weights(spec).ok
                weights_cell = "OK" if ok_w else "FAIL"
            except catalog.UnknownFamilyError:
                ok_w = True
                weights_cell = "-"
            target = catalog.natural_gr_class(spec)
            result = classify_gr(algebra)
            got = result.match.canonical() if result.classified else "UNCLASSIFIED"
            ok_g = got == target.canonical()
            gr_cell = got if ok_g else f"{got}!={target.canonical()}"
            ok = ok_j and ok_r and ok_w and ok_g
            failures += 0 if ok else 1
            print(f"{spec.canonical():40s} {'OK' if ok_j else 'FAIL':8s} "
                  f"{f'{rank}({expected_rank})':12s} {weights_cell:8s} {gr_cell:24s}")
    print(f"SWEEP {'OK' if failures == 0 else f'FAIL ({failures} rows)'}")
    return 0 if failures == 0 else 1


def _cmd_audit(args) -> int:
    failures = 0
    for entry in catalog.DISCREPANCIES:
        checks = [certify(entry, spec) for spec in entry.tuples]
        holds = bool(checks) and all(ok for _, ok in checks)
        failures += not holds
        print(f"{entry.kind} {', '.join(entry.families)}: {'OK' if holds else 'FAIL'}",
              f"published: {entry.claim}", *(line for line, _ in checks), sep="\n  ")
    print(f"AUDIT {'OK' if failures == 0 else f'FAIL ({failures} entries)'}")
    return 0 if failures == 0 else 1


_COMMANDS = {
    "gen": _cmd_gen,
    "jacobi": _cmd_jacobi,
    "series": _cmd_series,
    "gr": _cmd_gr,
    "derivations": _cmd_derivations,
    "rank": _cmd_rank,
    "classify": _cmd_classify,
    "constraints": _cmd_constraints,
    "iso-cn": _cmd_iso_cn,
    "sweep": _cmd_sweep,
    "weights": _cmd_weights,
    "audit": _cmd_audit,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return _COMMANDS[args.command](args)
    except (UsageError, catalog.InvalidParametersError, catalog.UnknownFamilyError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except QflabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
