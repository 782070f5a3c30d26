"""Command-line frontend.

Subcommands cover every construction: coset tables, classical code
parameters with optional exhaustive certification, generator matrix
export and re-checking, quantum parameter derivation, frontier search,
and the bundled known-answer suite.  Output formats: text (default),
json, csv.

Exit codes: 0 success, 1 verification or fixture failure (including
non-self-orthogonal family rejection), 2 usage errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from . import fixtures
from .cosets import check_hermitian, compute_cosets
from .codes import (check_field_size, classical_params, generator_matrix,
                    load_matrix_json, truncated_family)
from .duality import VerificationError
from .linalg import DEFAULT_BUDGET, BudgetExceededError, min_distance_exhaustive
from .quantum import NotSelfOrthogonalError, certify_dual, derive_quantum, search

BUDGET_ENV = "COSETCODES_BUDGET"


def _budget(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r} "
                                         f"(from --budget, or {BUDGET_ENV} when set)")
    return value


def _parse_reps(text: str) -> list[int]:
    try:
        return [int(x) for x in text.replace(" ", "").split(",") if x != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad family spec {text!r}; expected e.g. 0,1,2")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cosetcodes",
        description="Evaluation codes from q-cyclotomic cosets, their duals, "
                    "and derived quantum code parameters.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")

    def add_budget(p):
        # argparse converts a string default with type, so a bad env value is a usage error
        p.add_argument("--budget", type=_budget,
                       default=os.environ.get(BUDGET_ENV) or str(DEFAULT_BUDGET),
                       help="enumeration budget for exhaustive certification "
                            f"(default {DEFAULT_BUDGET}, env {BUDGET_ENV})")

    p = sub.add_parser("cosets", help="print the q-cyclotomic coset table mod n")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("classical", help="parameters of the code C_r or C_S")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--r", type=int, help="truncation degree")
    group.add_argument("--family", type=_parse_reps,
                       help="comma-separated coset representatives")
    p.add_argument("--certify", action="store_true",
                   help="certify the exact minimum distance exhaustively")
    add_format(p)
    add_budget(p)

    p = sub.add_parser("matrix", help="export a generator matrix")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--r", type=int)
    group.add_argument("--family", type=_parse_reps)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--output", "-o", help="write to a file instead of stdout")

    p = sub.add_parser("recheck", help="re-verify an exported generator matrix")
    p.add_argument("file", help="path to a matrix JSON export")

    p = sub.add_parser("quantum", help="derive [[n+1, n+1-2k, >=d]] for a family "
                                       "(q = ell^2 fixes ell)")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--family", type=_parse_reps, required=True)
    p.add_argument("--certify-dual", action="store_true",
                   help="attach an exhaustive distance certificate for the dual code")
    add_format(p)
    add_budget(p)

    p = sub.add_parser("search", help="search families for the (quantum_k, d) frontier "
                                      "(q = ell^2 fixes ell)")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--min-quantum-k", type=int, default=0,
                   help="do not explore families below this quantum dimension")
    p.add_argument("--min-d", type=int, default=0,
                   help="drop the families whose degree bound is below this distance")
    add_format(p)

    p = sub.add_parser("verify", help="run the bundled known-answer suite")
    p.add_argument("--skip-certify", action="store_true",
                   help="skip the exhaustive distance certifications")
    add_budget(p)

    return parser


def _family_for(args, table):
    if getattr(args, "r", None) is not None:
        return truncated_family(table, args.r)
    return table.family(args.family)


def _csv_output(rows) -> str:
    """One line per (q, ell, n, block_length, k, d_lower, d_exact, reps);
    the csv module writes None as an empty field."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["q", "ell", "n", "block_length", "k_or_quantum_k",
                     "d_lower", "d_exact", "S_representatives"])
    for *fields, reps in rows:
        writer.writerow([*fields, " ".join(map(str, reps))])
    return buf.getvalue().rstrip("\n")


def _certify(wanted: bool, certifier):
    """(certificate, refusal): the certificate, or past the budget the
    refusal's message; (None, None) when no certificate is wanted."""
    if not wanted:
        return None, None
    try:
        return certifier(), None
    except BudgetExceededError as exc:
        return None, str(exc)


def _with_certificate(obj: dict, cert, budget_note: str | None) -> dict:
    """The JSON object with the certificate, or the refusal, added."""
    if cert:
        obj["distance_certificate"] = cert.as_dict()
    if budget_note:
        obj["certification_skipped"] = budget_note
    return obj


def _csv_refusal(budget_note: str | None) -> None:
    """Say on stderr why ``d_exact`` is empty; the CSV has no column for it."""
    if budget_note:
        print(f"bound only: {budget_note}", file=sys.stderr)


def cmd_cosets(args) -> int:
    table = compute_cosets(args.q, args.n)
    if args.format == "json":
        print(json.dumps(table.to_json_obj()))
    else:
        print(table.to_text())
    return 0


def cmd_classical(args) -> int:
    check_field_size(args.q, args.n)
    table = compute_cosets(args.q, args.n)
    family = _family_for(args, table)
    g = generator_matrix(family)
    length, k, d_bound = classical_params(family)
    cert, budget_note = _certify(
        args.certify, lambda: min_distance_exhaustive(g.mat, budget=args.budget))
    d_exact = cert.value if cert else None
    if args.format == "json":
        obj = {"q": args.q, "n": args.n, "length": length, "k": k,
               "d_lower": d_bound, "family": family.to_json_obj(),
               "field": g.parent.describe()}
        if getattr(args, "r", None) is not None:
            obj["r"] = args.r
        print(json.dumps(_with_certificate(obj, cert, budget_note)))
    elif args.format == "csv":
        print(_csv_output([(args.q, None, args.n, length, k, d_bound, d_exact,
                            family.reps())]))
        _csv_refusal(budget_note)
    else:
        exact = f", exact d = {d_exact} ({cert.enumerated} codewords enumerated)" if cert else ""
        print(f"[{length}, {k}, >={d_bound}] over GF({args.q}), "
              f"S reps {list(family.reps())}{exact}")
        if budget_note:
            print(f"bound only: {budget_note}")
    return 0


def cmd_matrix(args) -> int:
    check_field_size(args.q, args.n)
    table = compute_cosets(args.q, args.n)
    family = _family_for(args, table)
    g = generator_matrix(family)
    out = g.to_json() if args.format == "json" else g.to_text_grid()
    if args.output:
        with open(args.output, "w") as f:
            f.write(out + "\n")
    else:
        print(out)
    return 0


def cmd_recheck(args) -> int:
    with open(args.file) as f:
        text = f.read()
    g = load_matrix_json(text)
    length, k, d_bound = classical_params(g.family)
    print(f"ok: matrix verified, [{length}, {k}, >={d_bound}] over "
          f"GF({g.family.table.q})")
    return 0


def cmd_quantum(args) -> int:
    check_field_size(args.q, args.n)
    check_hermitian(args.q)
    table = compute_cosets(args.q, args.n)
    family = table.family(args.family)
    report = derive_quantum(family)
    cert, budget_note = _certify(
        args.certify_dual, lambda: certify_dual(report, budget=args.budget))
    if args.format == "json":
        print(json.dumps(_with_certificate(report.to_json_obj(), cert, budget_note)))
    elif args.format == "csv":
        print(_csv_output([(args.q, report.ell, args.n, report.block_length,
                            report.quantum_k, report.d_lower,
                            cert.value if cert else None,
                            report.family_s.reps())]))
        _csv_refusal(budget_note)
    else:
        print(f"[[{report.block_length}, {report.quantum_k}, >={report.d_lower}]] "
              f"over GF({report.ell}), S reps {list(report.family_s.reps())}, "
              f"self_orthogonal={report.self_orthogonal}")
        if cert:
            print(f"dual code exact distance: {cert.value} "
                  f"({cert.enumerated} codewords enumerated)")
        if budget_note:
            print(f"dual code distance not certified ({budget_note}); "
                  "reported value is the degree bound only")
    return 0


def cmd_search(args) -> int:
    check_field_size(args.q, args.n)
    check_hermitian(args.q)
    table = compute_cosets(args.q, args.n)
    result = search(table, min_quantum_k=args.min_quantum_k, min_d=args.min_d)
    if args.format == "json":
        print(json.dumps({"reports": [r.to_json_obj() for r in result.reports]}))
    elif args.format == "csv":
        print(_csv_output([(args.q, r.ell, args.n, r.block_length, r.quantum_k,
                            r.d_lower, None, r.family_s.reps())
                           for r in result.reports]))
    else:
        print(f"frontier for GF({table.ell}) length {args.n + 1}:")
        for r in result.reports:
            print(f"  [[{r.block_length}, {r.quantum_k}, >={r.d_lower}]]  "
                  f"S reps {list(r.family_s.reps())}")
    return 0


def cmd_verify(args) -> int:
    results = fixtures.run_all(certify=not args.skip_certify, budget=args.budget)
    for r in results:
        print(r.line())
    failed = fixtures.failures(results)
    passed = sum(1 for r in results if r.status == "pass")
    info = sum(1 for r in results if r.status == "info")
    print(f"{passed} passed, {len(failed)} failed, {info} informational")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "cosets": cmd_cosets,
        "classical": cmd_classical,
        "matrix": cmd_matrix,
        "recheck": cmd_recheck,
        "quantum": cmd_quantum,
        "search": cmd_search,
        "verify": cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except NotSelfOrthogonalError as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return 1
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
