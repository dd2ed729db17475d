"""Source checks on the alexkit package, by reading its syntax trees."""

import ast
import itertools
from pathlib import Path

import alexkit

PACKAGE = Path(alexkit.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
# sympy's polynomial entry points; alexkit reaches them only via laurent.py
POLY_NAMES = {"Poly", "PurePoly", "div", "rem", "quo", "gcd", "gcdex",
              "invert", "expand", "sqf_list", "factor_list",
              "cyclotomic_poly", "ring", "PolyRing"}


def _modules(directory=PACKAGE):
    for path in sorted(directory.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def _imported_names(tree):
    """(bound name, line) of every import, except `from __future__`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def test_no_unused_imports():
    """In the package and in these tests."""
    unused = []
    for name, tree in itertools.chain(_modules(), _modules(TESTS)):
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused += [f"{name}:{line} {bound}"
                   for bound, line in _imported_names(tree)
                   if bound not in used]
    assert unused == []


def _sympy_poly_references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and (
                node.module.startswith("sympy.polys")
                or node.module == "sympy" and any(
                    alias.name in POLY_NAMES for alias in node.names)):
            yield node.lineno
        elif isinstance(node, ast.Import) and any(
                alias.name.startswith("sympy.polys") for alias in node.names):
            yield node.lineno
        elif isinstance(node, ast.Attribute) and node.attr in POLY_NAMES \
                and isinstance(node.value, ast.Name) \
                and node.value.id == "sympy":
            yield node.lineno


def test_sympy_polynomials_only_in_laurent():
    found = [f"{name}:{line}" for name, tree in _modules()
             if name != "laurent.py"
             for line in _sympy_poly_references(tree)]
    assert found == []
    laurent = dict(_modules())["laurent.py"]
    assert list(_sympy_poly_references(laurent))


def test_cyclonumber_only_in_cyclofield():
    """Points are Characters: no other module handles field elements."""
    found = [f"{name}:{node.lineno}" for name, tree in _modules()
             if name != "cyclofield.py"
             for node in ast.walk(tree)
             if isinstance(node, ast.Name) and node.id == "CycloNumber"
             or isinstance(node, ast.alias) and node.name == "CycloNumber"]
    assert found == []


def _unused_locals(func):
    """Names that `func` binds in its own body but never reads; parameters
    and `_` are exempt.  Reads in nested functions count."""
    nested = [node for node in ast.walk(func)
              if node is not func and isinstance(
                  node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))]
    inner = {id(node) for scope in nested for node in ast.walk(scope)}
    args = func.args
    params = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    params |= {a.arg for a in (args.vararg, args.kwarg) if a is not None}
    bound, read = set(), set()
    for node in ast.walk(func):
        if not isinstance(node, ast.Name):
            continue
        if isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif id(node) not in inner:
            bound.add(node.id)
    return sorted(bound - read - params - {"_"})


def test_no_unused_locals():
    unused = [f"{name}:{node.name} {local}"
              for name, tree in _modules()
              for node in ast.walk(tree)
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              for local in _unused_locals(node)]
    assert unused == []


def test_cyclotomic_list_only_in_laurent():
    """The one list of the Φ_m of each degree: no second enumeration."""
    found = sorted(f"{name}:{node.name}" for name, tree in _modules()
                   for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef)
                   and node.name in {"_totient_preimages", "_phi_coeffs"})
    assert found == ["laurent.py:_phi_coeffs", "laurent.py:_totient_preimages"]


def test_factor_list_only_in_factor_poly():
    """sympy's factoring runs in laurent.factor_poly alone: on the rest of
    the collinear branch and on the non-collinear path."""
    found = [f"{name}:{getattr(top, 'name', '<module>')}"
             for name, tree in _modules()
             for top in tree.body
             for node in ast.walk(top)
             if isinstance(node, ast.Attribute) and "factor_list" in node.attr
             or isinstance(node, ast.Name) and "factor_list" in node.id]
    assert found == ["laurent.py:factor_poly"] * 2
