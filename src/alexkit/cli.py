"""Command-line front end: invariants, twisted Betti reports, Seifert links.

All results go to stdout as JSON with sorted keys; diagnostics go to
stderr.  Exit codes: 0 success, 2 input/validation error, 3 a
computation cap was exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import AlexkitError, ComputationCapError
from .alexander import alexander_poly, fox_matrix, load_matrix
from .cyclofield import parse_character
from .jumploci import almost_principal_status, bounds_report, twisted_betti
from .laurent import FactoredPoly, default_names, factor_poly
from .obstruct import qp_verdict
from .presentation import parse_presentation
from .seifert import (SpliceData, seifert_delta, seifert_divisor,
                      seifert_twisted_betti)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CAPPED = 3


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise AlexkitError(f"cannot read {path}: {exc}") from exc


def _load_input(path: str, matrix_mode: bool):
    """Returns (AlexanderMatrix, character names, echo dict)."""
    text = _read(path)
    if matrix_mode:
        try:
            data = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise AlexkitError(f"bad matrix JSON: {exc}") from exc
        if not isinstance(data, dict) or "vars" not in data \
                or "rows" not in data:
            raise AlexkitError('matrix JSON needs "vars" and "rows"')
        names, rows = data["vars"], data["rows"]
        if not isinstance(names, list) \
                or not all(isinstance(x, str) for x in names):
            raise AlexkitError('matrix JSON "vars" must be a list of strings')
        if not isinstance(rows, list) or not all(
                isinstance(row, list) and all(isinstance(x, str) for x in row)
                for row in rows):
            raise AlexkitError(
                'matrix JSON "rows" must be a list of lists of strings')
        mat = load_matrix(names, rows)
        echo = {"vars": list(mat.var_names),
                "rows": [[e.render(mat.var_names) for e in row]
                         for row in mat.entries]}
        return mat, list(mat.var_names), echo
    pres = parse_presentation(text)
    mat = fox_matrix(pres)
    echo = {"generators": list(pres.generator_names),
            "num_relators": pres.num_relators}
    return mat, list(pres.generator_names), echo


def _factored_dict(fp: FactoredPoly, names) -> dict:
    return {
        "constant": fp.constant,
        "factors": [{"poly": f.render(names), "multiplicity": mu}
                    for f, mu in fp.factors],
    }


def _character_report(mat, chi, factored, ap) -> dict:
    """The entry for one character: full rank when it is trivial, its
    rank alone when Δ (`factored`) is zero, else its bounds report."""
    if chi.is_trivial():
        return {"b1": mat.num_vars, "note": "trivial character: full rank"}
    if factored is None:
        return {"b1": twisted_betti(mat, chi),
                "note": "zero delta: bounds unavailable"}
    return bounds_report(mat, factored, chi, almost_principal=ap).as_dict()


def _emit(report: dict, pretty: bool) -> None:
    indent = 2 if pretty else None
    sys.stdout.write(json.dumps(report, sort_keys=True, indent=indent))
    sys.stdout.write("\n")


def cmd_invariants(args) -> int:
    mat, char_names, echo = _load_input(args.input, args.matrix)
    names = mat.var_names
    report: dict = {"input": echo, "b1": mat.num_vars, "warnings": []}
    if mat.presentation is not None:
        report["torsion"] = list(mat.abelian.torsion)
    else:
        report["torsion"] = None
        report["warnings"].append(
            "matrix-mode input: Fox identity not verified")
    ap = almost_principal_status(mat, args.assert_almost_principal)
    delta = alexander_poly(mat, 1)
    if delta.is_zero():
        factored = report["delta"] = report["factored"] = None
    else:
        report["delta"] = delta.render(names)
        factored = factor_poly(delta)
        report["factored"] = _factored_dict(factored, names)
    verdict = qp_verdict(factored, mat.num_vars, projective=args.projective)
    report["qp"] = verdict.as_dict()
    chars = {spec: _character_report(
        mat, parse_character(spec, char_names), factored, ap)
        for spec in args.char or []}
    if chars:
        report["characters"] = chars
    _emit(report, args.pretty)
    return EXIT_OK


def cmd_betti(args) -> int:
    if args.depth is not None and args.depth < 1:
        raise AlexkitError("depth must be a positive integer")
    mat, char_names, echo = _load_input(args.input, args.matrix)
    chi = parse_character(args.char, char_names)
    factored = ap = None
    if not chi.is_trivial():  # a trivial character needs no Δ
        delta = alexander_poly(mat, 1)
        if not delta.is_zero():
            factored = factor_poly(delta)
            ap = almost_principal_status(mat, args.assert_almost_principal)
    report: dict = {"input": echo, "char": args.char,
                    **_character_report(mat, chi, factored, ap)}
    if args.depth is not None:
        report["depth"] = args.depth
        report["member"] = report["b1"] >= args.depth
    _emit(report, args.pretty)
    return EXIT_OK


def cmd_seifert(args) -> int:
    try:
        weights = tuple(int(x) for x in args.weights.split(","))
    except ValueError as exc:
        raise AlexkitError(f"bad weights {args.weights!r}") from exc
    data = SpliceData(weights, args.q)
    delta = seifert_delta(data)
    names = default_names(data.q)
    report: dict = {
        "weights": list(data.weights),
        "q": data.q,
        "delta": delta.render(names),
        "divisor": [{"root_order": c.root_order,
                     "multiplicity": c.multiplicity}
                    for c in seifert_divisor(data)],
    }
    if args.char:
        chi = parse_character(args.char, names)
        report["char"] = args.char
        report["b1"] = seifert_twisted_betti(data, chi)
    _emit(report, args.pretty)
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first `main` call."""
    parser = argparse.ArgumentParser(
        prog="alexkit",
        description="Exact Alexander-polynomial and jump-locus toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    inv = sub.add_parser("invariants",
                         help="Alexander polynomial, factorization, "
                         "obstruction verdict")
    inv.add_argument("input", help="presentation file, or matrix JSON "
                     "with --matrix")
    inv.add_argument("--matrix", action="store_true",
                     help="input is a matrix JSON file")
    inv.add_argument("--char", action="append",
                     help="character to evaluate (repeatable)")
    inv.add_argument("--projective", action="store_true",
                     help="apply the projective-group test")
    inv.add_argument("--assert-almost-principal", metavar="TAG",
                     help="assert the almost-principal hypothesis")
    inv.add_argument("--pretty", action="store_true")
    inv.set_defaults(func=cmd_invariants)

    bet = sub.add_parser("betti", help="twisted Betti rank at a character")
    bet.add_argument("input")
    bet.add_argument("--matrix", action="store_true")
    bet.add_argument("--char", required=True)
    bet.add_argument("--depth", type=int,
                     help="also test jump-locus membership at this depth")
    bet.add_argument("--assert-almost-principal", metavar="TAG")
    bet.add_argument("--pretty", action="store_true")
    bet.set_defaults(func=cmd_betti)

    sei = sub.add_parser("seifert", help="Seifert link invariants")
    sei.add_argument("--weights", required=True,
                     help="comma-separated fiber multiplicities")
    sei.add_argument("--q", type=int, required=True,
                     help="number of link components")
    sei.add_argument("--char",
                     help="character values for t1..tq")
    sei.add_argument("--pretty", action="store_true")
    sei.set_defaults(func=cmd_seifert)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ComputationCapError as exc:
        print(f"alexkit: cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAPPED
    except AlexkitError as exc:
        print(f"alexkit: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
