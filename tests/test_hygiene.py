"""Source checks on the alexkit package, by reading its syntax trees, and
checks that a fresh interpreter loads sympy only when the answer needs it."""

import ast
import builtins
import graphlib
import itertools
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
import sympy

import alexkit
from alexkit.laurent import LaurentPoly

from conftest import data_path

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
    """Nodes that import sympy or one of its modules, or read a name
    `sympy` (which a module could bind without an import statement)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(
                alias.name.split(".")[0] == "sympy" for alias in node.names):
            yield node
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.split(".")[0] == "sympy":
            yield node
        elif isinstance(node, ast.Name) and node.id == "sympy":
            yield node


def test_sympy_only_in_laurent():
    """laurent.py is the one bridge to sympy, a backend for multivariate
    gcd and factoring and for factoring a non-cyclotomic rest: no other
    module imports it, so every other polynomial
    algorithm and every exact rank is alexkit's own.  Each module is
    reported at its first reference."""
    found = [f"{name}:{min(node.lineno for node in nodes)}"
             for name, tree in _modules()
             if name != "laurent.py" and (nodes := list(_sympy_references(tree)))]
    assert found == []
    laurent = dict(_modules())["laurent.py"]
    assert list(_sympy_references(laurent))


def test_ring_bridge_named_only_in_laurent():
    """sympy's ring elements never leave `laurent`: no other module names
    the bridge `_ring`, `_to_ring` or `_from_ring`, so each conversion to
    a ring element and back happens inside one `laurent` call."""
    bridge = {"_ring", "_to_ring", "_from_ring"}
    found = sorted(f"{name}:{node.lineno}" for name, tree in _modules()
                   if name != "laurent.py"
                   for node in ast.walk(tree)
                   if isinstance(node, ast.Name) and node.id in bridge
                   or isinstance(node, ast.Attribute) and node.attr in bridge
                   or isinstance(node, ast.alias) and node.name in bridge)
    assert found == []


def test_ring_is_over_the_integers():
    """Every polynomial is held over Z, so the bridge has one ring per
    variable count: `laurent._ring` takes the count alone, and no module
    names the rationals' domain."""
    laurent = dict(_modules())["laurent.py"]
    (ring,) = [node for node in laurent.body
               if isinstance(node, ast.FunctionDef) and node.name == "_ring"]
    assert [a.arg for a in ring.args.args] == ["nvars"]
    found = [path.name for path in sorted(PACKAGE.glob("*.py"))
             if "QQ" in path.read_text(encoding="utf-8")]
    assert found == []


def test_sympy_imported_only_in_ring():
    """Every sympy import statement in the package sits in laurent._ring:
    every call into sympy goes through its ring.  Each import is named by
    the innermost function that holds it."""
    owner = {}
    for name, tree in _modules():
        for scope in ast.walk(tree):
            if isinstance(scope, (ast.Module, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                for node in _sympy_references(scope):
                    if isinstance(node, (ast.Import, ast.ImportFrom)):
                        owner[name, node.lineno] = \
                            f"{name}:{getattr(scope, 'name', '<module>')}"
    assert sorted(set(owner.values())) == ["laurent.py:_ring"]


def test_sympy_imported_only_inside_functions():
    """No module imports sympy when it is itself imported: laurent imports
    it inside the functions that need it, so a run that needs none of them
    never loads it."""
    found = []
    for name, tree in _modules():
        inside = {id(node) for func in ast.walk(tree)
                  if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                  for node in ast.walk(func)}
        found += [f"{name}:{node.lineno}" for node in _sympy_references(tree)
                  if id(node) not in inside]
    assert found == []


# Φ_143 = Δ(T(11,13)) from sympy, written as alexkit renders it
PHI143 = LaurentPoly(1, {monom: int(c) for monom, c in sympy.Poly(
    sympy.cyclotomic_poly(143, sympy.Symbol("t"))).terms()}).render()

# cyclotomic Δ, characters, exact ranks and Seifert forms: runs that the
# one-variable layer in laurent answers without sympy
FRESH_RUNS = {
    "pencil3": (["invariants", "pencil3.grp"], {
        "b1": 3, "delta": "t1*t2*t3 - 1",
        "factored": {"constant": 1, "factors": [
            {"multiplicity": 1, "poly": "t1*t2*t3 - 1"}]},
        "input": {"generators": ["x1", "x2", "x3"], "num_relators": 2},
        "qp": {"certificate": {"c": 1, "cyclotomic_orders": [[1, 1]],
                               "e": [1, 1, 1]},
               "reason": "single essential variable with cyclotomic "
                         "univariate image",
               "verdict": "CONSISTENT"},
        "torsion": [], "warnings": []}),
    # every nontrivial character of T(11,13) meets Φ_143, whose degree 120
    # is over the vanishing-order cap, so the character here is trivial
    "torus11-13": (["invariants", "torus11-13.grp", "--char", "x=1,y=1"], {
        "b1": 1,
        "characters": {"x=1,y=1": {"b1": 1,
                                   "note": "trivial character: full rank"}},
        "delta": PHI143,
        "factored": {"constant": 1, "factors": [
            {"multiplicity": 1, "poly": PHI143}]},
        "input": {"generators": ["x", "y"], "num_relators": 1},
        "qp": {"reason": "no obstruction below b1 = 2",
               "verdict": "CONSISTENT"},
        "torsion": [], "warnings": []}),
    "betti-pencil3": (["betti", "pencil3.grp", "--char",
                       "x1=zeta3,x2=zeta3,x3=zeta3", "--depth", "1"], {
        "almost_principal": "Yes (deficiency>0)", "attained": True,
        "b1": 1, "bound_generic": 1, "bound_pointwise": 1,
        "char": "x1=zeta3,x2=zeta3,x3=zeta3", "depth": 1,
        "input": {"generators": ["x1", "x2", "x3"], "num_relators": 2},
        "member": True}),
    "seifert": (["seifert", "--weights", "1,1,1,2,3", "--q", "3"], {
        "delta": "t1^13*t2^13*t3^13 + t1^11*t2^11*t3^11 + t1^10*t2^10*t3^10"
                 " + t1^9*t2^9*t3^9 + t1^8*t2^8*t3^8 - t1^7*t2^7*t3^7"
                 " + t1^6*t2^6*t3^6 - t1^5*t2^5*t3^5 - t1^4*t2^4*t3^4"
                 " - t1^3*t2^3*t3^3 - t1^2*t2^2*t3^2 - 1",
        "divisor": [{"multiplicity": 1, "root_order": 1},
                    {"multiplicity": 2, "root_order": 2},
                    {"multiplicity": 2, "root_order": 3},
                    {"multiplicity": 3, "root_order": 6}],
        "q": 3, "weights": [1, 1, 1, 3, 2]}),
    # a residual of degree one in t2, whose two coefficients in t2
    # `_coprime` proves coprime by one-variable gcds
    "random5": (["invariants", "random5.grp"], {
        "b1": 5,
        "delta": "t2^3*t4^2*t5 - t2^3*t5 - 3*t2^2*t4^2*t5 + t2^2*t4^2"
                 " - t2^2*t4*t5 + t2^2*t4 + 2*t2^2*t5 + 3*t2*t4^2*t5"
                 " - 2*t2*t4^2 + 2*t2*t4*t5 - 2*t2*t4 - t2*t5 - t4^2*t5"
                 " + t4^2 - t4*t5 + t4",
        "factored": {"constant": 1, "factors": [
            {"multiplicity": 1, "poly": "t4 + 1"},
            {"multiplicity": 2, "poly": "t2 - 1"},
            {"multiplicity": 1, "poly": "t2*t4*t5 - t2*t5 - t4*t5 + t4"}]},
        "input": {"generators": ["x1", "x2", "x3", "x4", "x5"],
                  "num_relators": 4},
        "qp": {"reason": "support is not collinear: more than one "
                         "essential variable",
               "verdict": "OBSTRUCTED"},
        "torsion": [], "warnings": []}),
    # the gcd of one nonzero minor, and of none (Δ₁ = 1 of a 1 × 1
    # matrix), is that minor made canonical, with no ring built
    "matrix-one-minor": (["invariants", "--matrix", "one-minor.json"], {
        "b1": 2, "delta": "x*y + x + 1",
        "factored": {"constant": 1, "factors": [
            {"multiplicity": 1, "poly": "x*y + x + 1"}]},
        "input": {"rows": [["x*y + x + 1", "0"]], "vars": ["x", "y"]},
        "qp": {"reason": "b1=2 groups are exempt",
               "verdict": "NO-OBSTRUCTION-APPLICABLE"},
        "torsion": None,
        "warnings": ["matrix-mode input: Fox identity not verified"]}),
    "matrix-delta-one": (["invariants", "--matrix", "delta-one.json"], {
        "b1": 2, "delta": "1", "factored": {"constant": 1, "factors": []},
        "input": {"rows": [["x*y + x + 1"]], "vars": ["x", "y"]},
        "qp": {"reason": "b1=2 groups are exempt",
               "verdict": "NO-OBSTRUCTION-APPLICABLE"},
        "torsion": None,
        "warnings": ["matrix-mode input: Fox identity not verified"]}),
}

# random_relators(random.Random(1), 5) of bench/workloads.py
RANDOM5 = ("gens: x1 x2 x3 x4 x5\n"
           "rel: x2^-1 x1 x2 x1^-1 x4^-1 x5^-1 x4 x5\n"
           "rel: x2^-1 x1 x2 x1^-1 x4 x5^-1 x4^-1 x5\n"
           "rel: x3 x2^-1 x3^-1 x2 x1 x5 x1^-1 x5^-1\n"
           "rel: x4^-1 x2 x4 x2^-1 x5^-1 x2^-1 x5 x2\n")

_FRESH = ("import sys\n"
          "from alexkit.cli import main\n"
          "code = main(sys.argv[1:])\n"
          "print('sympy' in sys.modules, file=sys.stderr)\n"
          "sys.exit(code)\n")


@pytest.mark.parametrize("name", FRESH_RUNS)
def test_fresh_run_never_loads_sympy(tmp_path, name):
    """A fresh interpreter answers these runs with sympy never imported,
    and prints the expected report."""
    argv, expected = FRESH_RUNS[name]
    shutil.copy(data_path("pencil3.grp"), tmp_path)
    (tmp_path / "torus11-13.grp").write_text("gens: x y\nrel: x^11 y^-13\n")
    (tmp_path / "random5.grp").write_text(RANDOM5)
    for name, row in (("one-minor", ["x*y + x + 1", "0"]),
                      ("delta-one", ["x*y + x + 1"])):
        (tmp_path / f"{name}.json").write_text(
            json.dumps({"vars": ["x", "y"], "rows": [row]}))
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH, *argv], cwd=tmp_path,
        capture_output=True, text=True, timeout=20,
        env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "False\n"
    assert proc.stdout == json.dumps(expected, sort_keys=True) + "\n"


def _package_imports(tree, stems):
    """(module, line, inside a function) for each import of an alexkit
    module: `from . import x` imports module x when there is one, else
    alexkit itself, `__init__`."""
    inside = {id(node) for func in ast.walk(tree)
              if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
              for node in ast.walk(func)}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or node.module.split(".")[0] == "alexkit"):
            module = node.module if node.level \
                else node.module.partition(".")[2]
            targets = [module] if module else [
                a.name if a.name in stems else "__init__" for a in node.names]
        elif isinstance(node, ast.Import):
            targets = [a.name.partition(".")[2] or "__init__"
                       for a in node.names
                       if a.name.split(".")[0] == "alexkit"]
        else:
            continue
        for target in targets:
            yield target, node.lineno, id(node) in inside


def test_package_imports_at_module_level_and_acyclic():
    """Every import of one alexkit module by another sits at module level,
    so that importing a module loads all it needs, and the graph of these
    imports is acyclic; `laurent`, on which the other layers build,
    imports only from alexkit itself."""
    modules = dict(_modules())
    stems = {name[:-3] for name in modules}
    graph, inside = {}, []
    for name, tree in modules.items():
        graph[name[:-3]] = set()
        for target, line, nested in _package_imports(tree, stems):
            graph[name[:-3]].add(target)
            if nested:
                inside.append(f"{name}:{line}")
    assert inside == []
    assert graph["laurent"] == {"__init__"}
    # raises graphlib.CycleError, naming the cycle, on a cyclic graph
    list(graphlib.TopologicalSorter(graph).static_order())


def _definitions(tree):
    """(name, node) of each top-level function and class, and of each name
    that a top-level assignment binds."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id, node
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                           ast.Name):
            yield node.target.id, node


def test_public_names_unused_in_the_package():
    """The public top-level functions and classes, and the private
    top-level functions, classes and constants, that no code in the
    package loads outside their own definition: the library functions
    without a CLI entry that the README lists, and no private helper."""
    modules = dict(_modules())
    imported = {(node.module or "__init__", alias.name)
                for tree in modules.values() for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names}
    unused = set()
    for name, tree in modules.items():
        stem = name[:-3]
        for defined, definition in _definitions(tree):
            if defined.startswith("__") or not defined.startswith("_") \
                    and isinstance(definition, (ast.Assign, ast.AnnAssign)):
                continue
            inside = {id(node) for node in ast.walk(definition)}
            loaded = any(isinstance(node, ast.Name) and node.id == defined
                         and isinstance(node.ctx, ast.Load)
                         and id(node) not in inside
                         for node in ast.walk(tree))
            if not loaded and (stem, defined) not in imported:
                unused.add(f"{stem}.{defined}")
    assert unused == {
        "alexander.generic_rank_mod", "cyclofield.cyclotomic_poly",
        "jumploci.monodromy_analysis", "jumploci.semisimple_equality_report"}


def test_no_module_imports_dataclasses():
    """The records are `NamedTuple`s or `Frozen` slotted classes: the
    `dataclasses` module, with the `inspect` and `ast` it loads, and the
    code each decoration generates, would cost every fresh run about
    16 ms."""
    found = [f"{name}:{node.lineno}" for name, tree in _modules()
             for node in ast.walk(tree)
             if isinstance(node, ast.Import) and any(
                 alias.name == "dataclasses" for alias in node.names)
             or isinstance(node, ast.ImportFrom)
             and node.module == "dataclasses"]
    assert found == []


def test_fresh_import_loads_no_dataclasses_or_inspect():
    """What `import alexkit.cli` adds to a fresh interpreter's modules."""
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import alexkit.cli\n"
            "print(sorted({'dataclasses', 'inspect'} & "
            "(set(sys.modules) - before)))\n")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=20, env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


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
    """One construction of Φ_m and one recognizer of products of them,
    and no list of the Φ_m of each degree: the recognizer reads orders
    off the exponent sequence, so only the tests enumerate orders."""
    found = sorted(f"{name}:{node.name}" for name, tree in _modules()
                   for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef)
                   and node.name in {"_totient_preimages", "_phi_coeffs",
                                     "_cyclotomic_exponents"})
    assert found == ["laurent.py:_cyclotomic_exponents",
                     "laurent.py:_phi_coeffs"]


def test_factor_list_only_in_factor_poly():
    """sympy's factoring runs in laurent.factor_poly alone, through one
    call for the rest of the collinear branch and the non-collinear path
    alike."""
    found = [f"{name}:{getattr(top, 'name', '<module>')}"
             for name, tree in _modules()
             for top in tree.body
             for node in ast.walk(top)
             if isinstance(node, ast.Attribute) and "factor_list" in node.attr
             or isinstance(node, ast.Name) and "factor_list" in node.id]
    assert found == ["laurent.py:factor_poly"]


def test_factored_poly_built_only_in_factor_poly():
    """Only laurent.factor_poly builds a FactoredPoly, so every one carries
    the `essential` record of its factors, classified where they are
    built."""
    found = [f"{name}:{getattr(top, 'name', '<module>')}"
             for name, tree in _modules()
             for top in tree.body
             for node in ast.walk(top)
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name)
             and node.func.id == "FactoredPoly"]
    assert found == ["laurent.py:factor_poly"] * 2


def test_no_true_division():
    """`/` on two ints is a float, so no module divides with it: an exact
    quotient is a `Fraction(a, b)` or a floor division `//`."""
    found = [f"{name}:{node.lineno}" for name, tree in _modules()
             for node in ast.walk(tree)
             if isinstance(node, (ast.BinOp, ast.AugAssign))
             and isinstance(node.op, ast.Div)]
    assert found == []


def test_laurent_poly_has_one_constructor():
    """`LaurentPoly.__init__` builds every polynomial: nothing calls a
    `__new__` or defines a second constructor that skips its checks."""
    found = [f"{name}:{node.lineno}" for name, tree in _modules()
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "__new__"
             or isinstance(node, ast.FunctionDef) and node.name == "__new__"]
    assert found == []


def _names(node):
    """The names and attribute names that `node` reads or binds."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def test_caps_held_in_alexkit_init():
    """alexkit/__init__.py holds every cap: only it raises
    ComputationCapError (through `check` and `check_printable`), and no
    other module binds a name ending in `_CAP`; the others import the
    constants they check against."""
    raisers = sorted({name for name, tree in _modules()
                      for node in ast.walk(tree)
                      if isinstance(node, ast.Raise) and node.exc is not None
                      and "ComputationCapError" in _names(node.exc)})
    assert raisers == ["__init__.py"]
    bound = [f"{name}:{node.lineno} {node.id}" for name, tree in _modules()
             if name != "__init__.py"
             for node in ast.walk(tree)
             if isinstance(node, ast.Name) and node.id.endswith("_CAP")
             and isinstance(node.ctx, (ast.Store, ast.Del))]
    assert bound == []


def test_product_work_cap_read_only_by_the_meter():
    """Only alexkit/__init__.py names PRODUCT_WORK_CAP, and there only
    `ProductMeter` reads it: every product charge goes through the one
    meter, in the one unit `product_work`."""
    def naming(tree):
        return "PRODUCT_WORK_CAP" in _names(tree) or any(
            alias.name == "PRODUCT_WORK_CAP" for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) for alias in node.names)
    assert [name for name, tree in _modules() if naming(tree)] == [
        "__init__.py"]
    init = dict(_modules())["__init__.py"]
    meter = next(node for node in init.body
                 if isinstance(node, ast.ClassDef)
                 and node.name == "ProductMeter")
    reads = [node for node in ast.walk(init) if isinstance(node, ast.Name)
             and node.id == "PRODUCT_WORK_CAP"
             and isinstance(node.ctx, ast.Load)]
    assert reads and all(node in set(ast.walk(meter)) for node in reads)


def _is_builtin_exception(name):
    cls = getattr(builtins, name, None)
    return isinstance(cls, type) and issubclass(cls, BaseException)


def test_one_error_class_per_exit_code():
    """alexkit/__init__.py holds the two errors the CLI tells apart,
    AlexkitError (exit 2) and ComputationCapError (exit 3).  The only other
    exception classes are PresentationError, which carries the line and
    column of a refusal, and BoundInconsistencyError, a proven bound
    exceeded under an asserted hypothesis; no module imports an exception
    class from a sibling module."""
    bases = {(name, node.name): [ast.unparse(b).rpartition(".")[2]
                                 for b in node.bases]
             for name, tree in _modules() for node in ast.walk(tree)
             if isinstance(node, ast.ClassDef)}
    errors = set()
    while True:  # a class is an exception when one of its bases is
        found = {key for key, names in bases.items() if any(
            _is_builtin_exception(b) or b in {c for _, c in errors}
            for b in names)}
        if found == errors:
            break
        errors = found
    assert sorted(f"{name}:{cls}" for name, cls in errors) == [
        "__init__.py:AlexkitError", "__init__.py:ComputationCapError",
        "jumploci.py:BoundInconsistencyError",
        "presentation.py:PresentationError"]
    sibling = [f"{name}:{node.lineno} {alias.name}"
               for name, tree in _modules() for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level
               and node.module is not None
               for alias in node.names
               if alias.name in {cls for _, cls in errors}]
    assert sibling == []


def test_readme_limits_table_states_every_cap():
    """Every `*_CAP` constant of alexkit/__init__.py has one row in
    README's Limits table, and that row's value column states the
    constant's current value; the table names no other cap."""
    readme = (PACKAGE.parent.parent / "README.md").read_text(encoding="utf-8")
    table = readme.split("### Limits", 1)[1].split("\n\n| cap |", 1)[1]
    rows = {}
    for line in table.split("\n\n", 1)[0].splitlines()[2:]:
        name, value = [cell.strip() for cell in line.split(" | ")[:2]]
        rows[name.strip("| `")] = re.findall(r"\d+", value)
    caps = {name: value for name, value in vars(alexkit).items()
            if name.endswith("_CAP")}
    assert sorted(rows) == sorted(caps)
    assert [name for name, value in caps.items()
            if str(value) not in rows[name]] == []
