"""Command line interface.

Subcommands: pack, tables, witness, certify, verify-cert, oracle, bound.
All machine output is UTF-8 JSON on stdout; ``--out FILE`` writes the same
bytes atomically (temp file plus rename). Exit codes: 0 success, 2 a claim
was falsified (failed certificate validation or a found witness), 3 budget
exhausted, 64 usage errors, 65 precondition violations.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from . import certificates, oracle, packing, witnesses
from .errors import (
    BudgetExceeded,
    Error,
    MalformedInput,
    PreconditionViolated,
    ValidationFailed,
)
from .fields import Field
from .matrices import Matrix
from .polynomials import RingCtx

EXIT_OK = 0
EXIT_FALSIFIED = 2
EXIT_BUDGET = 3
EXIT_USAGE = 64
EXIT_PRECONDITION = 65


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _emit(payload: str, out_path: str | None):
    if out_path is None:
        print(payload)
        return
    tmp = out_path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(payload)
        if not payload.endswith("\n"):
            fh.write("\n")
    os.replace(tmp, out_path)


def _emit_json(obj, out_path: str | None):
    _emit(json.dumps(obj, sort_keys=True, separators=(",", ":")), out_path)


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise MalformedInput(f"cannot read {path}: {exc}") from None
    except ValueError as exc:  # bytes that are not UTF-8
        raise MalformedInput(f"{path} is not UTF-8 text: {exc}") from None


def _read_json(path: str):
    try:
        return json.loads(_read_text(path))
    except ValueError as exc:  # JSONDecodeError, or an int past the digit limit
        raise MalformedInput(f"{path} is not valid JSON: {exc}") from None


def _parse_field(text: str) -> Field:
    t = text.strip()
    if t.upper() == "Q":
        return Field.rationals()
    # 20 digits is far past any modulus below 2^31 and far below int()'s limit
    match = re.fullmatch(r"(?:[Ff]p?)?([0-9]{1,20})", t)
    if match is None:
        raise MalformedInput(f"cannot parse field {text!r}; use Q, F<p>, or a prime")
    return Field.prime(int(match.group(1)))


# -- pack ---------------------------------------------------------------------


def cmd_pack(args) -> int:
    if args.construction == "quadratic" or (
        args.construction == "auto" and packing.quadratic_applies(args.m, args.d)
    ):
        sep = packing.quadratic_construction(args.m, args.d)
        optimal = False
    else:
        sep, optimal = packing.best_separated_set(args.m, args.d, args.budget)
    _emit_json(
        {
            "m": args.m,
            "d": args.d,
            "size": sep.size,
            "optimal": optimal,
            "points": [list(p) for p in sep.points],
        },
        args.out,
    )
    return EXIT_OK


# -- tables -------------------------------------------------------------------


def _table_cells(m_values, d_values, budget):
    cells = []
    for m in m_values:
        for d in d_values:
            sep, optimal = packing.best_separated_set(m, d, budget)
            cells.append({"m": m, "d": d, "size": sep.size, "optimal": optimal,
                          "n": packing.matrix_size_from_set(sep)})
    return cells


def _render_table(cells, key, m_values, d_values, caption):
    lines = [caption]
    header = "m\\d |" + "".join(f" {d:>4}" for d in d_values)
    lines.append(header)
    lines.append("-" * len(header))
    by_md = {(c["m"], c["d"]): c for c in cells}
    for m in m_values:
        row = [f"{m:>3} |"]
        for d in d_values:
            c = by_md[(m, d)]
            mark = "" if c["optimal"] else "*"
            row.append(f" {c[key]}{mark:<1}".rjust(5))
        lines.append("".join(row))
    lines.append("(* = best found within budget, not proven optimal)")
    return "\n".join(lines)


def cmd_tables(args) -> int:
    m_values = list(range(3, args.max_m + 1))
    d_values = list(range(1, args.max_d + 1))
    cells = _table_cells(m_values, d_values, args.budget)
    if args.json:
        _emit_json({"cells": cells}, args.out)
        return EXIT_OK
    out = [
        _render_table(cells, "size", m_values, d_values,
                      "Largest separated set sizes"),
        "",
        _render_table(cells, "n", m_values, d_values,
                      "Largest matrix sizes (n = floor((size+1)/2))"),
    ]
    _emit("\n".join(out), args.out)
    return EXIT_OK


# -- witness ------------------------------------------------------------------


def cmd_witness(args) -> int:
    if args.verify:
        pair = witnesses.witness_from_json(_read_json(args.verify))
        _emit_json({"verified": True, "n": pair.target.n}, args.out)
        return EXIT_OK
    if not args.matrix or not args.mode:
        raise MalformedInput("witness needs --mode and --matrix (or --verify FILE)")
    a = Matrix.from_json(_read_json(args.matrix))
    if args.mode == "triangular":
        pair = witnesses.triangular_witness(a)
    elif args.mode == "hollow":
        if not args.clique:
            raise MalformedInput("hollow mode needs --clique r1,r2,...")
        elements = [a.ctx.field.from_str(tok) for tok in args.clique.split(",")]
        clique = witnesses.verify_clique(elements, a.ctx)
        pair = witnesses.hollow_witness(a, clique)
    else:
        pair = witnesses.nilpotent_witness(a)
    _emit_json(witnesses.witness_to_json(pair), args.out)
    return EXIT_OK


# -- certify / verify-cert ----------------------------------------------------


def cmd_certify(args) -> int:
    field = _parse_field(args.field)
    if args.set:
        obj = _read_json(args.set)
        raw = obj["points"] if isinstance(obj, dict) and "points" in obj else obj
        if not isinstance(raw, list) or not all(isinstance(p, list) for p in raw):
            raise MalformedInput(f"{args.set} does not hold a point list")
        points = [tuple(p) for p in raw]
    elif args.auto:
        if packing.quadratic_applies(args.m, args.d):
            points = list(packing.quadratic_construction(args.m, args.d).points)
        else:
            sep, _optimal = packing.best_separated_set(args.m, args.d, args.budget)
            points = list(sep.points)
    else:
        raise MalformedInput("certify needs --set FILE or --auto")
    cert = certificates.build_noncommutator(args.m, args.d, points, args.n, field)
    _emit(certificates.certificate_to_json(cert), args.out)
    return EXIT_OK


def cmd_verify_cert(args) -> int:
    cert = certificates.certificate_from_json(_read_text(args.certificate),
                                              validate=False)
    report = certificates.validate_certificate(cert)
    _emit_json(report.to_json(), args.out)
    return EXIT_OK if report.ok else EXIT_FALSIFIED


# -- oracle -------------------------------------------------------------------


def cmd_oracle(args) -> int:
    cert = certificates.certificate_from_json(_read_text(args.cert))
    p = args.p
    if p is None:
        if cert.field.kind != "Fp":
            raise MalformedInput("certificate is over Q; pass --p explicitly")
        p = cert.field.p
    result = oracle.exhaustive_noncommutator_check(cert, p, budget=args.budget)
    if isinstance(result, oracle.NoWitness):
        _emit_json(
            {
                "result": "no-witness",
                "pairs_checked": result.pairs_checked,
                "ring_elements": result.ring_elements,
                "prime": result.prime,
                "n": result.matrix_size,
            },
            args.out,
        )
        return EXIT_OK
    _emit_json(
        {
            "result": "found-witness",
            "pair_index": result.pair_index,
            "pairs_checked": result.pairs_checked,
            "B": result.b.to_json(),
            "C": result.c.to_json(),
        },
        args.out,
    )
    return EXIT_FALSIFIED


# -- bound --------------------------------------------------------------------


def cmd_bound(args) -> int:
    # 4^(m-1) = 2^(2m-2) prints only below 10^limit, Python's int-to-str
    # digit cap; 10^limit is no power of two, so compare bit lengths
    limit = sys.get_int_max_str_digits()
    if limit and 2 * (args.m - 1) >= (10 ** limit).bit_length():
        raise PreconditionViolated(
            f"4^(m-1) for m={args.m} has more than {limit} decimal digits")
    set_bound, matrix_bound = packing.upper_bounds(args.m)
    _emit_json(
        {"m": args.m, "set_bound": set_bound, "matrix_bound": matrix_bound},
        args.out,
    )
    return EXIT_OK


# -- parser -------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="tracezero",
                     description="Exact separated-set packing, commutator "
                                 "witnesses, and non-commutator certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(p):
        p.add_argument("--out", help="write output atomically to this file")

    p = sub.add_parser("pack", help="largest separated set for one (m, d) cell")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--budget", type=float, default=300.0,
                   help="seconds for the exact search (default 300)")
    p.add_argument("--construction", choices=["mis", "quadratic", "auto"],
                   default="mis")
    add_out(p)
    p.set_defaults(func=cmd_pack)

    p = sub.add_parser("tables", help="recompute the separated-set and matrix-size tables")
    p.add_argument("--budget", type=float, default=10.0,
                   help="seconds per cell (default 10)")
    p.add_argument("--max-m", type=int, default=8)
    p.add_argument("--max-d", type=int, default=4)
    p.add_argument("--json", action="store_true")
    add_out(p)
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("witness", help="build or verify a commutator witness pair")
    p.add_argument("--mode", choices=["triangular", "hollow", "nilpotent"])
    p.add_argument("--matrix", help="JSON file holding the target matrix")
    p.add_argument("--clique", help="comma-separated clique scalars (hollow mode)")
    p.add_argument("--verify", help="re-verify a serialized witness instead")
    add_out(p)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("certify", help="build a non-commutator certificate")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--field", default="F2", help="Q or a prime (default F2)")
    p.add_argument("--set", help="JSON file with the point list")
    p.add_argument("--auto", action="store_true",
                   help="pick the point set by packing")
    p.add_argument("--budget", type=float, default=300.0,
                   help="seconds for packing with --auto")
    add_out(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("verify-cert", help="validate a certificate file")
    p.add_argument("certificate")
    add_out(p)
    p.set_defaults(func=cmd_verify_cert)

    p = sub.add_parser("oracle", help="exhaustive search against a certificate")
    p.add_argument("--cert", required=True)
    p.add_argument("--p", type=int, help="prime (default: the certificate's)")
    p.add_argument("--budget", type=int, default=oracle.DEFAULT_PAIR_BUDGET,
                   help="pair budget (default 2^34)")
    add_out(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("bound", help="print the size ceilings for m variables")
    p.add_argument("--m", type=int, required=True)
    add_out(p)
    p.set_defaults(func=cmd_bound)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Error as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return (EXIT_BUDGET if isinstance(exc, BudgetExceeded)
                else EXIT_FALSIFIED if isinstance(exc, ValidationFailed)
                else EXIT_PRECONDITION)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
