"""Command-line front end: invariants, twisted Betti reports, Seifert links.

All results go to stdout as JSON with sorted keys; diagnostics go to
stderr.  Exit codes: 0 success, 2 input/validation error, 3 a
computation cap was exceeded.
"""

from __future__ import annotations

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


def cmd_invariants(file, matrix=False, char=(), projective=False,
                   assert_almost_principal=None, pretty=False) -> int:
    mat, char_names, echo = _load_input(file, matrix)
    names = mat.var_names
    report: dict = {"input": echo, "b1": mat.num_vars, "warnings": []}
    if mat.presentation is not None:
        report["torsion"] = list(mat.abelian.torsion)
    else:
        report["torsion"] = None
        report["warnings"].append(
            "matrix-mode input: Fox identity not verified")
    ap = almost_principal_status(mat, assert_almost_principal)
    delta = alexander_poly(mat, 1)
    if delta.is_zero():
        factored = report["delta"] = report["factored"] = None
    else:
        report["delta"] = delta.render(names)
        factored = factor_poly(delta)
        report["factored"] = _factored_dict(factored, names)
    verdict = qp_verdict(factored, mat.num_vars, projective=projective)
    report["qp"] = verdict.as_dict()
    chars = {spec: _character_report(
        mat, parse_character(spec, char_names), factored, ap)
        for spec in char}
    if chars:
        report["characters"] = chars
    _emit(report, pretty)
    return EXIT_OK


def cmd_betti(file, char, matrix=False, depth=None,
              assert_almost_principal=None, pretty=False) -> int:
    if depth is not None and depth < 1:
        raise AlexkitError("depth must be a positive integer")
    mat, char_names, echo = _load_input(file, matrix)
    chi = parse_character(char, char_names)
    factored = ap = None
    if not chi.is_trivial():  # a trivial character needs no Δ
        delta = alexander_poly(mat, 1)
        if not delta.is_zero():
            factored = factor_poly(delta)
            ap = almost_principal_status(mat, assert_almost_principal)
    report: dict = {"input": echo, "char": char,
                    **_character_report(mat, chi, factored, ap)}
    if depth is not None:
        report["depth"] = depth
        report["member"] = report["b1"] >= depth
    _emit(report, pretty)
    return EXIT_OK


def cmd_seifert(weights, q, char=None, pretty=False) -> int:
    try:
        weights = tuple(int(x) for x in weights.split(","))
    except ValueError as exc:
        raise AlexkitError(f"bad weights {weights!r}") from exc
    data = SpliceData(weights, q)
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
    if char:
        chi = parse_character(char, names)
        report["char"] = char
        report["b1"] = seifert_twisted_betti(data, chi)
    _emit(report, pretty)
    return EXIT_OK


def _commands() -> dict:
    """Per command: its function, positionals, required options and the
    kind of each option (`bool` a flag, `list` repeatable, `str` or `int`
    one value, the last one given winning).  Built per call, so that a
    `cmd_` function patched on this module is the one called."""
    return {
        "invariants": (cmd_invariants, ("file",), (), {
            "matrix": bool, "char": list, "projective": bool,
            "assert-almost-principal": str, "pretty": bool}),
        "betti": (cmd_betti, ("file",), ("char",), {
            "matrix": bool, "char": str, "depth": int,
            "assert-almost-principal": str, "pretty": bool}),
        "seifert": (cmd_seifert, (), ("weights", "q"), {
            "weights": str, "q": int, "char": str, "pretty": bool})}


def _help() -> int:
    """Usage, one line per command, read off `_commands`."""
    print("usage:")
    for cmd, (_, positional, required, options) in _commands().items():
        words = ["  alexkit", cmd, *map(str.upper, positional)]
        for name, kind in options.items():
            word = f"--{name}" if kind is bool else \
                f"--{name} {'INT' if kind is int else 'TEXT'}"
            words.append(word if name in required else
                         f"[{word}]" + "..." * (kind is list))
        print(*words)
    return EXIT_OK


def _parse(argv):
    """The function that answers argv and its keyword arguments (`_help`
    for `-h` or `--help`).  A long option may be shortened to any unique
    prefix; its value follows `=` in the same item, or else is the next
    item, whatever it is.  Every item after `--` is positional."""
    func, positional, required, options = _commands().get(
        argv[0] if argv else "", (None, (), (), {}))
    kwargs, free, items = {}, [], iter(argv[func is not None:])
    for item in items:
        if item == "--":
            free += items
        elif not item.startswith("--") and item != "-h":
            free.append(item)
        else:
            name, eq, value = item.lstrip("-").partition("=")
            if name not in options:
                found = [n for n in (*options, "help")
                         if name and n.startswith(name)]
                if found == ["help"]:
                    return _help, {}
                if len(found) != 1:
                    raise AlexkitError(f"{'ambiguous' if found else 'unknown'}"
                                       f" option --{name}")
                name = found[0]
            kind, key = options[name], name.replace("-", "_")
            if kind is bool and eq:
                raise AlexkitError(f"--{name} takes no value")
            try:
                value = True if kind is bool else value if eq else next(items)
                kwargs[key] = [*kwargs.get(key, ()), value] \
                    if kind is list else kind(value)
            except (StopIteration, ValueError):
                raise AlexkitError(f"--{name} needs " + (
                    "an integer" if kind is int else "a value")) from None
    if func is None:
        raise AlexkitError("expected a command, one of " + ", ".join(
            _commands()) + (f", not {free[0]!r}" if free else ""))
    missing = [p.upper() for p in positional[len(free):]] + [
        f"--{n}" for n in required if n.replace("-", "_") not in kwargs]
    if missing or free[len(positional):]:
        raise AlexkitError("missing " + " and ".join(missing) if missing else
                           f"unexpected argument {free[len(positional)]!r}")
    return func, dict(zip(positional, free), **kwargs)


def main(argv=None) -> int:
    try:
        func, kwargs = _parse(sys.argv[1:] if argv is None else list(argv))
        return func(**kwargs)
    except ComputationCapError as exc:
        print(f"alexkit: cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAPPED
    except AlexkitError as exc:
        print(f"alexkit: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
