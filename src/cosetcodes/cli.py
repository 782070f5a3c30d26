"""Command-line frontend.

Subcommands cover every construction: coset tables, classical code
parameters with optional exhaustive certification, generator matrix
export and re-checking, quantum parameter derivation, frontier search,
and the bundled known-answer suite.  Output formats: text (default),
json, csv.  The three report commands (classical, quantum, search) each
build their JSON object, CSV rows and text lines, and ``_emit`` prints
the one asked for.  Certification runs through ``linalg.within_budget``,
as in ``verify``; a refusal is a JSON key, a line on stderr beside the
CSV, or a text line.  ``verify`` prints each check as
``fixtures.run_all`` yields it, then the count of each status.

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
from collections import Counter

from . import fixtures
from .cosets import check_hermitian, compute_cosets
from .codes import (check_field_size, classical_params, generator_matrix,
                    load_matrix_json, truncated_family)
from .duality import VerificationError
from .linalg import DEFAULT_BUDGET, min_distance_exhaustive, within_budget
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


def _table(args, hermitian: bool = False):
    """The coset table of (q, n), after the field-size check and, for the
    quantum commands, the q = ell^2 check, so bad input fails before O(n) work."""
    check_field_size(args.q, args.n)
    if hermitian:
        check_hermitian(args.q)
    return compute_cosets(args.q, args.n)


def _family_for(args, table):
    if getattr(args, "r", None) is not None:
        return truncated_family(table, args.r)
    return table.family(args.family)


def _emit(fmt: str, obj: dict, rows, lines: list[str], cert=None, refusal=None) -> int:
    """Print one report as JSON, CSV or text.

    JSON is ``obj`` with the certificate or the refusal added.  CSV has one
    line per (q, ell, n, block_length, k, d_lower, d_exact, reps), None
    written as an empty field, and names a refusal on stderr, since it has
    no column for it.  Text is ``lines``, which word their own refusal.
    """
    if fmt == "json":
        if cert:
            obj["distance_certificate"] = cert.as_dict()
        if refusal:
            obj["certification_skipped"] = refusal
        out = json.dumps(obj)
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["q", "ell", "n", "block_length", "k_or_quantum_k",
                         "d_lower", "d_exact", "S_representatives"])
        writer.writerows([*fields, " ".join(map(str, reps))] for *fields, reps in rows)
        out = buf.getvalue().rstrip("\n")
    else:
        out = "\n".join(lines)
    print(out)
    if fmt == "csv" and refusal:
        print(f"bound only: {refusal}", file=sys.stderr)
    return 0


def cmd_cosets(args) -> int:
    table = compute_cosets(args.q, args.n)
    if args.format == "json":
        print(json.dumps(table.to_json_obj()))
    else:
        print(table.to_text())
    return 0


def cmd_classical(args) -> int:
    family = _family_for(args, _table(args))
    g = generator_matrix(family)
    length, k, d_bound = classical_params(family)
    cert, refusal = (within_budget(lambda: min_distance_exhaustive(g.mat, budget=args.budget))
                     if args.certify else (None, None))
    obj = {"q": args.q, "n": args.n, "length": length, "k": k, "d_lower": d_bound,
           "family": family.to_json_obj(), "field": g.parent.describe()}
    if getattr(args, "r", None) is not None:
        obj["r"] = args.r
    lines = [f"[{length}, {k}, >={d_bound}] over GF({args.q}), S reps {list(family.reps())}"]
    if cert:
        lines[0] += f", exact d = {cert.value} ({cert.enumerated} codewords enumerated)"
    if refusal:
        lines.append(f"bound only: {refusal}")
    row = (args.q, None, args.n, length, k, d_bound, cert.value if cert else None,
           family.reps())
    return _emit(args.format, obj, [row], lines, cert, refusal)


def cmd_matrix(args) -> int:
    family = _family_for(args, _table(args))
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
    report = derive_quantum(_table(args, hermitian=True).family(args.family))
    cert, refusal = (within_budget(lambda: certify_dual(report, budget=args.budget))
                     if args.certify_dual else (None, None))
    lines = [f"[[{report.block_length}, {report.quantum_k}, >={report.d_lower}]] "
             f"over GF({report.ell}), S reps {list(report.family_s.reps())}, "
             f"self_orthogonal={report.self_orthogonal}"]
    if cert:
        lines.append(f"dual code exact distance: {cert.value} "
                     f"({cert.enumerated} codewords enumerated)")
    if refusal:
        lines.append(f"dual code distance not certified ({refusal}); "
                     "reported value is the degree bound only")
    row = (args.q, report.ell, args.n, report.block_length, report.quantum_k,
           report.d_lower, cert.value if cert else None, report.family_s.reps())
    return _emit(args.format, report.to_json_obj(), [row], lines, cert, refusal)


def cmd_search(args) -> int:
    table = _table(args, hermitian=True)
    reports = search(table, min_quantum_k=args.min_quantum_k, min_d=args.min_d).reports
    rows = [(args.q, r.ell, args.n, r.block_length, r.quantum_k, r.d_lower, None,
             r.family_s.reps()) for r in reports]
    lines = [f"frontier for GF({table.ell}) length {args.n + 1}:"]
    lines += [f"  [[{r.block_length}, {r.quantum_k}, >={r.d_lower}]]  "
              f"S reps {list(r.family_s.reps())}" for r in reports]
    return _emit(args.format, {"reports": [r.to_json_obj() for r in reports]}, rows, lines)


def cmd_verify(args) -> int:
    counts = Counter()
    for r in fixtures.run_all(certify=not args.skip_certify, budget=args.budget):
        print(r.line())
        counts[r.status] += 1
    print(f"{counts['pass']} passed, {counts['fail']} failed, {counts['info']} informational")
    return 1 if counts["fail"] else 0


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
