"""Source checks on the alexkit package, by reading its syntax trees."""

import ast
import itertools
from pathlib import Path

import alexkit

PACKAGE = Path(alexkit.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent


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


def _sympy_references(tree):
    """Lines that import sympy or one of its modules, or read a name
    `sympy` (which a module could bind without an import statement)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(
                alias.name.split(".")[0] == "sympy" for alias in node.names):
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.split(".")[0] == "sympy":
            yield node.lineno
        elif isinstance(node, ast.Name) and node.id == "sympy":
            yield node.lineno


def test_sympy_only_in_laurent():
    """laurent.py is the one bridge to sympy: no other module imports it,
    so every polynomial algorithm and every exact rank is alexkit's own
    or goes through that bridge.  Each module is reported at its first
    reference."""
    found = [f"{name}:{min(lines)}" for name, tree in _modules()
             if name != "laurent.py"
             and (lines := list(_sympy_references(tree)))]
    assert found == []
    laurent = dict(_modules())["laurent.py"]
    assert list(_sympy_references(laurent))


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


def _unused_parameters(func):
    """Parameters of `func` (a def or a lambda) that its body, nested
    functions included, never reads; `self`, `cls` and `_` are exempt."""
    args = func.args
    params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
    read = {node.id for node in ast.walk(func)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [p for p in params
            if p not in read and p not in {"self", "cls", "_"}]


def test_no_unused_parameters():
    unused = [f"{name}:{getattr(node, 'name', '<lambda>')} {param}"
              for name, tree in _modules()
              for node in ast.walk(tree)
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.Lambda))
              for param in _unused_parameters(node)]
    assert unused == []


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
