import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import alexkit
from alexkit import AlexkitError, ProductMeter
from alexkit.alexander import alexander_poly, load_matrix
from alexkit.cli import main
from alexkit.cyclofield import Character, cyclotomic_poly, vanishing_order
from alexkit.intlinalg import validate_character
from alexkit.jumploci import (bounds_report, monodromy_analysis,
                              semisimple_equality_report, twisted_betti)
from alexkit.laurent import (FactoredPoly, LaurentPoly, default_names,
                             divides, exact_div_binomial, factor_poly,
                             gcd_many, normalize)
from alexkit.seifert import SpliceData, seifert_twisted_betti

from conftest import DATA, data_path, load_presentation, poly


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def test_invariants_pencil3(capsys):
    code, report = run(capsys, "invariants", data_path("pencil3.grp"))
    assert code == 0
    assert report["b1"] == 3
    assert report["delta"] == "t1*t2*t3 - 1"
    assert report["qp"]["verdict"] == "CONSISTENT"
    assert report["torsion"] == []


def test_invariants_torusbundle(capsys):
    code, report = run(capsys, "invariants", data_path("torusbundle.grp"))
    assert code == 0
    assert report["b1"] == 1
    assert report["torsion"] == [4]
    assert report["delta"] == "t^2 + 2*t + 1"
    assert report["factored"] == {
        "constant": 1, "factors": [{"multiplicity": 2, "poly": "t + 1"}]}


def test_invariants_matrix_mode(capsys):
    code, report = run(capsys, "invariants", "--matrix",
                       data_path("ex52-g1.json"))
    assert code == 0
    assert report["b1"] == 3
    assert report["qp"]["verdict"] == "OBSTRUCTED"
    polys = sorted(f["poly"] for f in report["factored"]["factors"])
    assert polys == ["x1*x2 + 1", "x2 - 1", "x2*x3 + 1"]
    assert any("matrix-mode" in w for w in report["warnings"])


def test_invariants_with_character(capsys):
    code, report = run(capsys, "invariants", "--matrix",
                       data_path("ex66.json"),
                       "--char", "x1=1,x2=-1,x3=1")
    assert code == 0
    entry = report["characters"]["x1=1,x2=-1,x3=1"]
    assert entry["b1"] == 2
    assert entry["bound_pointwise"] == 1
    assert entry["almost_principal"] == "Unknown"


def test_betti_example_56(capsys):
    code, report = run(capsys, "betti", "--matrix",
                       data_path("ex52-g1.json"),
                       "--char", "x1=-1,x2=1,x3=-1")
    assert code == 0
    assert report["b1"] == 2


def test_betti_trivial_character(capsys):
    code, report = run(capsys, "betti", data_path("pencil3.grp"),
                       "--char", "x1=1,x2=1,x3=1", "--depth", "2")
    assert code == 0
    assert report["b1"] == 3
    assert report["member"] is True
    assert "trivial character" in report["note"]


def test_seifert_example_73(capsys):
    code, report = run(capsys, "seifert", "--weights", "1,1,1,2,3",
                       "--q", "3")
    assert code == 0
    table = {c["root_order"]: c["multiplicity"] for c in report["divisor"]}
    assert table == {1: 1, 2: 2, 3: 2, 6: 3}


def test_seifert_pencil(capsys):
    code, report = run(capsys, "seifert", "--weights", "1,1,1", "--q", "3")
    assert code == 0
    assert report["delta"] == "t1*t2*t3 - 1"


def test_seifert_with_character(capsys):
    code, report = run(capsys, "seifert", "--weights", "1,1,1,2,3",
                       "--q", "3", "--char", "t1=-1,t2=1,t3=1")
    assert code == 0
    assert report["b1"] == 2


def test_exit_code_bad_weights(capsys):
    code = main(["seifert", "--weights", "2,4,5", "--q", "2"])
    err = capsys.readouterr().err
    assert code == 2
    assert "coprime" in err


@pytest.mark.parametrize("command", ["betti", "invariants"])
def test_exit_code_matrix_of_full_rank_at_a_character(tmp_path, capsys,
                                                      command):
    """A matrix whose rank at a nontrivial character is its column count m
    is no Alexander matrix, whose rank there is at most m − 1: refused,
    not reported with b1 = −1."""
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"vars": ["t"], "rows": [["t"], ["1"]]}))
    code = main([command, "--matrix", str(path), "--char", "t=zeta5"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert "full rank" in captured.err


def test_exit_code_missing_file(capsys):
    code = main(["invariants", "no-such-file.grp"])
    assert code == 2


def test_exit_code_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.grp"
    bad.write_text("gens: a\nrel: b\n")
    code = main(["invariants", str(bad)])
    assert code == 2


# (input kind, text, the one stderr line): presentation files, matrix
# entries given to `parse_poly`, a matrix JSON and Seifert weights
PARSER_REFUSALS = {
    "rel-before-gens": ("grp", "rel: a\ngens: a\n",
                        "line 1, column 1: rel: before gens:"),
    "missing-gens": ("grp", "# nothing\n",
                     "line 1, column 1: missing gens: line"),
    "second-gens": ("grp", "gens: a\ngens: b\n",
                    "line 2, column 1: duplicate gens: line"),
    "bad-generator-name": ("grp", "gens: 1a\n",
                           "line 1, column 7: bad generator name '1a'"),
    "bad-letter": ("grp", "gens: a\nrel: a^\n",
                   "line 2, column 6: bad letter 'a^'"),
    "zero-exponent": ("grp", "gens: a\nrel: a^0\n",
                      "line 2, column 6: zero exponent on 'a'"),
    # each column is that of the token itself, not of the first place its
    # text occurs in the line
    "duplicate-generator": ("grp", "gens: a a\n",
                            "line 1, column 9: duplicate generator 'a'"),
    "duplicate-generator-in-keyword": (
        "grp", "gens: e e\n", "line 1, column 9: duplicate generator 'e'"),
    "undeclared-generator-in-keyword": (
        "grp", "gens: a\nrel: e\n",
        "line 2, column 6: undeclared generator 'e'"),
    "unrecognized-line": ("grp", "gens: a\nrelator: a\n",
                          "line 2, column 1: unrecognized line 'relator: a'"),
    "bad-token": ("entry", "t $ 1", "bad token at position 1: ' $ 1'"),
    "exponent-not-integer": ("entry", "t^x", "expected integer exponent"),
    "missing-parenthesis": ("entry", "(t+1", "missing closing parenthesis"),
    "unexpected-end": ("entry", "t+", "unexpected end of expression"),
    "nested-too-deeply": ("entry", "(" * 5000 + "t" + ")" * 5000,
                          "expression nested too deeply"),
    "trailing-tokens": ("entry", "t )", "trailing tokens: [')']"),
    "matrix-without-rows": ("json", '{"vars": ["t"]}',
                            'matrix JSON needs "vars" and "rows"'),
    "bad-weights": ("weights", "2,x,5", "bad weights '2,x,5'"),
}


@pytest.mark.parametrize("name", PARSER_REFUSALS)
def test_exit_code_parser_refusals(tmp_path, capsys, name):
    """Each refusal of the presentation, polynomial, matrix JSON and
    weights parsers exits 2 with one line on stderr."""
    kind, text, message = PARSER_REFUSALS[name]
    path = tmp_path / "input"
    path.write_text(json.dumps({"vars": ["t"], "rows": [[text]]})
                    if kind == "entry" else text)
    argv = {"grp": ["invariants", str(path)],
            "weights": ["seifert", "--weights", text, "--q", "1"]}.get(
                kind, ["invariants", "--matrix", str(path)])
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"alexkit: {message}\n"


T = LaurentPoly.var(1, 0)
UNIVARIATE = load_matrix(("t",), [["t - 1"]])
BIVARIATE = load_matrix(("x", "y"), [["x - 1", "y - 1"]])
SPLICE = SpliceData((1, 1, 1, 2, 3), 3)
NO_FACTORS = FactoredPoly(0, (), ())

# the refusals of library entry points that no command reaches: each is a
# thunk and the message of the AlexkitError it raises
LIBRARY_REFUSALS = {
    "delta-index-0": (lambda: alexander_poly(UNIVARIATE, 0),
                      "alexander_poly index must be >= 1"),
    "identity-of-matrix-mode": (UNIVARIATE.fox_identity_holds,
                                "identity check applies to Fox matrices"),
    "gcd-of-nothing": (lambda: gcd_many([]), "gcd of empty list"),
    "normalize-0": (lambda: normalize(LaurentPoly.zero(1)),
                    "cannot normalize the zero polynomial"),
    "factor-0": (lambda: factor_poly(LaurentPoly.zero(1)),
                 "cannot factor the zero polynomial"),
    "divides-by-0": (lambda: divides(LaurentPoly.zero(1), T), "zero divisor"),
    "binomial-of-wrong-length": (lambda: exact_div_binomial(T - 1, (1, 0)),
                                 "exponent vector has wrong length"),
    "binomial-of-zero-vector": (lambda: exact_div_binomial(T - 1, (0,)),
                                "division by zero polynomial"),
    "vanishing-order-of-0": (
        lambda: vanishing_order(LaurentPoly.zero(1), Character(2, (1,), (1,)),
                                ProductMeter()),
        "vanishing order of the zero polynomial"),
    "vanishing-order-at-wrong-length": (
        lambda: vanishing_order(T - 1, Character(2, (1, 1), (1, 1)),
                                ProductMeter()),
        "point has wrong number of coordinates"),
    "conductor-0": (lambda: Character(0, (), ()),
                    "conductor must be positive"),
    "one-scale-two-exponents": (lambda: Character(2, (1,), (0, 1)),
                                "character needs one scale per exponent"),
    "cyclotomic-0": (lambda: cyclotomic_poly(0), "conductor must be positive"),
    "character-of-wrong-length": (
        lambda: validate_character(load_presentation("pencil3.grp"),
                                   Character(2, (1,), (1,))),
        "character length does not match generator count"),
    "matrix-mode-betti-of-wrong-length": (
        lambda: twisted_betti(UNIVARIATE, Character(2, (1, 1), (1, 1))),
        "character has 2 values, matrix has 1 variables"),
    "bounds-of-zero-delta": (
        lambda: bounds_report(UNIVARIATE, NO_FACTORS,
                              Character(2, (1,), (1,))),
        "bounds undefined for zero Alexander polynomial"),
    "semisimple-in-two-variables": (
        lambda: semisimple_equality_report(BIVARIATE, NO_FACTORS),
        "semisimple analysis requires one variable"),
    "semisimple-of-constant-delta": (
        lambda: semisimple_equality_report(
            UNIVARIATE, factor_poly(LaurentPoly.one(1))),
        "constant Alexander polynomial: no roots"),
    "monodromy-not-square": (lambda: monodromy_analysis([[1, 2]]),
                             "monodromy matrix must be square"),
    "seifert-betti-of-wrong-length": (
        lambda: seifert_twisted_betti(SPLICE, Character(2, (1,), (1,))),
        "expected 3 character values"),
    "variable-count-mismatch": (lambda: T + LaurentPoly.one(2),
                                "variable count mismatch"),
    "negative-power-of-binomial": (lambda: (T + 1) ** -1,
                                   "negative powers only for monomials"),
    "exponent-of-wrong-length": (
        lambda: LaurentPoly(2, {(1,): 1}),
        "exponent vector (1,) is not a tuple of length 2"),
}


@pytest.mark.parametrize("name", LIBRARY_REFUSALS)
def test_library_refusals(name):
    """Each is an AlexkitError, the class that `main` reports with exit 2,
    with its own message."""
    thunk, message = LIBRARY_REFUSALS[name]
    with pytest.raises(AlexkitError) as info:
        thunk()
    assert str(info.value) == message


def test_unary_minus_after_times(tmp_path, capsys):
    """`2*-t` is −2t: the one input that reaches the unary minus of an
    atom."""
    assert poly("2*-t", ("t",)) == LaurentPoly(1, {(1,): -2})
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"vars": ["t"], "rows": [["2*-t"]]}))
    code, report = run(capsys, "invariants", "--matrix", str(path))
    assert code == 0
    assert report["input"]["rows"] == [["-2*t"]]


@pytest.mark.parametrize("chars", [[], ["a=-1,b=1", "a=1,b=1"]],
                         ids=["plain", "characters"])
def test_invariants_zero_delta(tmp_path, capsys, chars):
    """A free group has Δ = 0: no polynomial, no factors, a consistent
    verdict, and per character only its rank."""
    free = tmp_path / "free.grp"
    free.write_text("gens: a b\n")
    code, report = run(capsys, "invariants", str(free),
                       *(arg for c in chars for arg in ("--char", c)))
    assert code == 0
    assert report["delta"] is None and report["factored"] is None
    assert report["qp"] == {"verdict": "CONSISTENT",
                            "reason": "zero polynomial imposes no condition"}
    if chars:
        assert report["characters"] == {
            "a=-1,b=1": {"b1": 1, "note": "zero delta: bounds unavailable"},
            "a=1,b=1": {"b1": 2, "note": "trivial character: full rank"}}
    else:
        assert "characters" not in report


def test_exit_code_cap_exceeded(tmp_path, capsys):
    grid = {"vars": ["t"], "rows": [["t"] * 12 for _ in range(30)]}
    big = tmp_path / "big.json"
    big.write_text(json.dumps(grid))
    code = main(["invariants", "--matrix", str(big)])
    assert code == 3
    assert "cap" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["betti", data_path("pencil3.grp"), "--char", "x1=1/0,x2=1,x3=1"],
    ["seifert", "--weights", "1,1,1", "--q", "3",
     "--char", "t1=1/0*zeta3,t2=1,t3=1"],
])
def test_exit_code_zero_denominator_in_character(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "bad character value" in captured.err


@pytest.mark.parametrize("argv", [
    ["betti", data_path("pencil3.grp"), "--char", "x1=zeta4,x1=1,x2=1,x3=1"],
    ["seifert", "--weights", "1,1,1", "--q", "3",
     "--char", "t1=-1,t2=1,t1=1,t3=1"],
], ids=["betti", "seifert"])
def test_exit_code_character_assigns_a_name_twice(capsys, argv):
    """A name given two values is refused, as duplicate generators and
    duplicate matrix variables are, not settled by its last value."""
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    name = argv[-1][:2]
    assert captured.err == f"alexkit: duplicate name {name!r} in character\n"


@pytest.mark.parametrize("argv", [
    ["invariants"], ["invariants", "--matrix"], ["betti", "--char", "a=1"],
], ids=["invariants", "matrix", "betti"])
def test_exit_code_input_not_utf8(tmp_path, capsys, argv):
    """A file that is not UTF-8 text exits 2 with one line on stderr,
    not a UnicodeDecodeError traceback."""
    path = tmp_path / "input"
    path.write_bytes(b"gens: a\n\xff\n")
    code = main(argv + [str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith(f"alexkit: cannot read {path}: ")
    assert captured.err.count("\n") == 1


LONG = "7" * 5000  # past Python's 4300-digit limit on int conversion


@pytest.mark.parametrize("route", ["presentation", "matrix", "zeta order",
                                   "rational"])
def test_exit_code_number_over_int_conversion_limit(tmp_path, capsys, route):
    """Each parser refuses the digit string before `int` raises a bare
    ValueError: exit 2 with a one-line message, not a traceback."""
    grp = tmp_path / "long.grp"
    grp.write_text(f"gens: a b\nrel: a^{LONG} b\n")
    grid = tmp_path / "long.json"
    grid.write_text(json.dumps({"vars": ["t"], "rows": [[f"{LONG}*t - 1"]]}))
    argv = {
        "presentation": ["invariants", str(grp)],
        "matrix": ["invariants", "--matrix", str(grid)],
        "zeta order": ["betti", data_path("pencil3.grp"),
                       "--char", f"x1=zeta{LONG},x2=1,x3=1"],
        "rational": ["betti", data_path("pencil3.grp"),
                     "--char", f"x1={LONG},x2=1,x3=1"],
    }[route]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("alexkit: ")
    assert captured.err.count("\n") == 1
    assert "more than 4300 digits" in captured.err


@pytest.mark.parametrize("rows", [
    [["3^9100*(t-1)", "3^9100*(t+1)"]],
    # the entries print, with 2171 digits each, but Δ = 3^9100 does not
    [["3^4550*(t-1)", "3^4550*(t+1)", "0"], ["0", "3^4550", "3^4550*t"]],
], ids=["entries", "delta"])
def test_exit_code_computed_coefficient_over_print_limit(tmp_path, capsys,
                                                         rows):
    """A computed coefficient of more than 4300 digits, which `str` refuses
    to print, is a cap error: exit 3 with a one-line message."""
    grid = tmp_path / "huge.json"
    grid.write_text(json.dumps({"vars": ["t"], "rows": rows}))
    code = main(["invariants", "--matrix", str(grid)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("alexkit: cap exceeded: ")
    assert captured.err.count("\n") == 1
    assert "more than 4300 digits" in captured.err


def test_json_output_is_stable(capsys):
    """Calls with other options, and an argv error, leave no trace in the
    next report of the same process."""
    argv = ["invariants", data_path("pencil4.grp")]
    assert main(argv) == 0
    raw1 = capsys.readouterr().out
    code, report = run(capsys, *argv, "--char", "x1=-1,x2=1,x3=1,x4=1",
                       "--char", "x1=zeta3,x2=zeta3,x3=zeta3,x4=zeta3")
    assert code == 0
    assert len(report["characters"]) == 2
    assert main([*argv, "--pretty"]) == 0
    assert capsys.readouterr().out.startswith("{\n  ")
    assert main(["seifert", "--weights", "1,1,1"]) == 2
    assert "--q" in capsys.readouterr().err
    assert main(argv) == 0
    raw2 = capsys.readouterr().out
    assert raw1 == raw2
    report = json.loads(raw1)
    assert "characters" not in report
    assert raw1 == json.dumps(report, sort_keys=True) + "\n"


_FRESH_IMPORT = (
    "import sys\n"
    "import alexkit.cli\n"
    "print(sorted({'argparse', 'gettext'} & set(sys.modules)))\n"
    "for _ in range(2):\n"
    "    assert alexkit.cli.main(sys.argv[1:]) == 0\n")


def test_fresh_import_loads_no_argparse_or_gettext():
    """`import alexkit.cli` loads neither `argparse` nor the `gettext` it
    brings; argv is read off a table, and two `main` calls in one process
    both answer."""
    src = str(Path(alexkit.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_IMPORT,
         "seifert", "--weights", "1,1,1", "--q", "3"],
        capture_output=True, text=True, timeout=20,
        env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "[]"


PENCIL3 = data_path("pencil3.grp")


@pytest.mark.parametrize("argv", [
    [],
    ["frobnicate", PENCIL3],
    ["invariants", PENCIL3, "--frobnicate"],
    ["invariants", PENCIL3, "--p"],
    ["invariants", PENCIL3, "--pretty=yes"],
    ["seifert", "--weights", "1,1,1"],
    ["betti", PENCIL3],
    ["betti", PENCIL3, "--char", "x1=-1,x2=1,x3=1", "--depth", "x"],
    ["betti", PENCIL3, "--char", "x1=-1,x2=1,x3=1", "--depth"],
    ["invariants"],
    ["invariants", PENCIL3, PENCIL3],
    ["seifert", "--weights", "1,1,1", "--q", "3", "extra"],
], ids=["no-command", "unknown-command", "unknown-option", "ambiguous-prefix",
        "flag-with-value", "seifert-without-q", "betti-without-char",
        "depth-not-int", "depth-without-value", "missing-positional",
        "extra-positional", "seifert-positional"])
def test_argv_errors_exit_2_on_one_line(capsys, argv):
    """Every argv error is an input error: `main` returns 2 (it raises
    nothing) and writes one `alexkit:` line to stderr and nothing to
    stdout."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("alexkit: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["--help"], ["-h"], ["invariants", "--help"], ["betti", PENCIL3, "-h"],
    ["seifert", "--he"]])
def test_help_prints_usage(capsys, argv):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    head, *lines = captured.out.splitlines()
    assert head == "usage:"
    assert [line.split()[:2] for line in lines] == [
        ["alexkit", "invariants"], ["alexkit", "betti"],
        ["alexkit", "seifert"]]
    assert " FILE " in lines[0] and "[--char TEXT]..." in lines[0]
    assert " --char TEXT " in lines[1] and "[--depth INT]" in lines[1]
    assert "seifert --weights TEXT --q INT [--char TEXT]" in lines[2]


def _same_output(capsys, argv, plain):
    code = main(argv)
    captured = capsys.readouterr()
    assert main(plain) == code
    assert capsys.readouterr() == captured
    return code, captured


def test_value_may_begin_with_a_minus(capsys):
    """An option's value is the next argv item even when it begins with
    `-`, as it is when written after `=`: `--char -zeta4` is the same bad
    character as `--char=-zeta4`, and a tag may begin with `-`."""
    code, captured = _same_output(
        capsys, ["invariants", PENCIL3, "--char", "-zeta4"],
        ["invariants", PENCIL3, "--char=-zeta4"])
    assert code == 2 and "'-zeta4'" in captured.err
    ex66 = data_path("ex66.json")
    code, captured = _same_output(
        capsys, ["betti", "--matrix", ex66, "--char", "x1=zeta5,x2=1,x3=1",
                 "--assert-almost-principal", "-ref"],
        ["betti", "--matrix", ex66, "--char", "x1=zeta5,x2=1,x3=1",
         "--assert-almost-principal=-ref"])
    assert code == 0
    report = json.loads(captured.out)
    assert report["almost_principal"] == "Yes (user-asserted: -ref)"


_CHAR = "x1=zeta3,x2=zeta3,x3=zeta3"


@pytest.mark.parametrize("argv,plain", [
    (["invariants", "--pretty", PENCIL3], ["invariants", PENCIL3, "--pretty"]),
    (["invariants", PENCIL3, f"--char={_CHAR}"],
     ["invariants", PENCIL3, "--char", _CHAR]),
    (["invariants", PENCIL3, "--proj"],
     ["invariants", PENCIL3, "--projective"]),
    (["invariants", PENCIL3, "--assert-almost-principal=TAG"],
     ["invariants", PENCIL3, "--assert-almost-principal", "TAG"]),
    (["betti", PENCIL3, "--char", "x1=-1,x2=1,x3=1", "--char", _CHAR],
     ["betti", PENCIL3, "--char", _CHAR]),
    (["seifert", "--q", "2", "--weights", "1,1,1", "--q=3"],
     ["seifert", "--weights", "1,1,1", "--q", "3"]),
    (["invariants", "--pretty", "--", PENCIL3],
     ["invariants", PENCIL3, "--pretty"]),
    (["betti", "--dep", "1", "--char", _CHAR, PENCIL3],
     ["betti", PENCIL3, "--char", _CHAR, "--depth", "1"]),
], ids=["option-first", "char-equals", "prefix", "tag-equals",
        "last-char-wins", "last-q-wins", "double-dash", "depth-prefix"])
def test_argv_spellings_answer_as_their_plain_form(capsys, argv, plain):
    code, captured = _same_output(capsys, argv, plain)
    assert code == 0 and captured.out and captured.err == ""


def test_readme_command_lines_exit_0(capsys, monkeypatch):
    """Every `alexkit ...` line of README's Command line block answers."""
    root = Path(__file__).resolve().parent.parent
    readme = (root / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1]
    lines = [line for line in block.split("```", 1)[0].splitlines()
             if line.startswith("alexkit ")]
    assert len(lines) == 4
    monkeypatch.chdir(root)
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line
        assert capsys.readouterr().out


@pytest.fixture
def rank_calls(monkeypatch):
    """Count jumploci.twisted_betti calls, from cli and from jumploci."""
    from alexkit import cli, jumploci
    calls = []
    original = jumploci.twisted_betti

    def counted(mat, rho):
        calls.append(rho)
        return original(mat, rho)

    monkeypatch.setattr(jumploci, "twisted_betti", counted)
    monkeypatch.setattr(cli, "twisted_betti", counted)
    return calls


@pytest.mark.parametrize("char,depth,member", [
    ("x1=zeta3,x2=zeta3,x3=zeta3", "1", True),
    ("x1=zeta3,x2=zeta3,x3=zeta3", "2", False),
    ("x1=-1,x2=1,x3=1", "1", False),
])
def test_betti_depth_computes_rank_once(rank_calls, capsys, char, depth,
                                        member):
    code, report = run(capsys, "betti", data_path("pencil3.grp"),
                       "--char", char, "--depth", depth)
    assert code == 0
    assert report["member"] is member
    assert len(rank_calls) == 1


def test_betti_depth_zero_delta_computes_rank_once(rank_calls, tmp_path,
                                                   capsys):
    free = tmp_path / "free.grp"
    free.write_text("gens: a b\n")
    code, report = run(capsys, "betti", str(free), "--char", "a=-1,b=1",
                       "--depth", "1")
    assert code == 0
    assert report["b1"] == 1 and report["member"] is True
    assert len(rank_calls) == 1


@pytest.mark.parametrize("argv", [
    ["invariants", data_path("torusbundle.grp"), "--char",
     "x1=1,x2=-1,x3=zeta3"],
    ["betti", data_path("pencil3.grp"), "--char",
     "x1=zeta3,x2=zeta3,x3=zeta3"],
], ids=["invariants", "betti"])
def test_one_abelianization_per_run(monkeypatch, capsys, argv):
    """The Smith form of the exponent matrix is taken once, by
    `fox_matrix`; the almost-principal status reads its rank off the
    matrix."""
    from alexkit import alexander, intlinalg
    calls = []

    def counted(p):
        calls.append(p)
        return intlinalg.abelianization(p)

    monkeypatch.setattr(alexander, "abelianization", counted)
    code, report = run(capsys, *argv)
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize("char,depth", [
    ("x1=-1,x2=-1,x3=1", "0"),
    ("x1=-1,x2=-1,x3=1", "-2"),
    # the conductor 478 is over the cap: the cheap depth check comes first
    ("x1=zeta239,x2=zeta2,x3=1", "0"),
], ids=["0", "-2", "0-conductor-over-cap"])
def test_betti_rejects_nonpositive_depth(capsys, char, depth):
    code = main(["betti", data_path("pencil3.grp"),
                 "--char", char, "--depth", depth])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "depth" in captured.err


@pytest.mark.parametrize("grid", [
    {"vars": ["x"], "rows": [[1, "x"]]},
    {"vars": ["x"], "rows": [["x", None]]},
    {"vars": "xy", "rows": [["x", "y"]]},
    {"vars": ["x", "x"], "rows": [["x", "x"]]},
    {"vars": [1], "rows": [["1"]]},
    {"vars": ["t", "2"], "rows": [["t-2", "2"]]},
    {"vars": ["x"], "rows": "x"},
    {"vars": ["x"], "rows": ["x"]},
    {"vars": ["x"], "rows": [["x"], ["x", "1"]]},
    {"vars": ["x"], "rows": [[]]},
    {"vars": ["x"], "rows": []},
    {"vars": ["x"], "rows": [["(" * 3000 + "x" + ")" * 3000]]},
    '{"vars": ["x"], "rows": ' + "[" * 100000 + "]" * 100000 + "}",
])
def test_matrix_json_schema_errors(tmp_path, capsys, grid):
    """`grid` is a JSON value to dump, or raw text for the file."""
    bad = tmp_path / "bad.json"
    bad.write_text(grid if isinstance(grid, str) else json.dumps(grid))
    for command in (["invariants"], ["betti", "--char", "x=-1"]):
        code = main(command[:1] + ["--matrix", str(bad)] + command[1:])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("alexkit: ")
        assert "Traceback" not in captured.err


def _pencil_text(n):
    gens = [f"x{i + 1}" for i in range(n)]
    inverse = " ".join(f"{g}^-1" for g in reversed(gens))
    return "gens: " + " ".join(gens) + "\n" + "".join(
        f"rel: {' '.join(gens)} {g} {inverse} {g}^-1\n" for g in gens[:-1])


def _cyclotomic_along_t1(d, nvars):
    return LaurentPoly(nvars, {(k,) + (0,) * (nvars - 1): c for (k,), c
                               in cyclotomic_poly(d).terms.items()})


# inputs that took 55 s, 4.2 s and 1.55 s when sympy factored the whole Δ,
# with the factors (polynomial, multiplicity) that Δ must have
SLOW_BEFORE = [
    ("gens: a b\nrel: a^160 b a^-160 b^-1\n",
     [(_cyclotomic_along_t1(d, 2), 1) for d in range(2, 161) if 160 % d == 0]),
    (_pencil_text(8), [(poly("t1*t2*t3*t4*t5*t6*t7*t8 - 1",
                                   default_names(8)), 6)]),
    ("gens: x y\nrel: x^7 y^-13\n",
     [(cyclotomic_poly(d), 1) for d in range(2, 92)
      if 91 % d == 0 and 7 % d and 13 % d]),
]


@pytest.mark.parametrize("text,factors", SLOW_BEFORE,
                         ids=["power160", "pencil8", "torus7-13"])
def test_invariants_collinear_delta_in_bounded_time(tmp_path, text, factors):
    path = tmp_path / "g.grp"
    path.write_text(text)
    src = str(Path(alexkit.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "alexkit.cli", "invariants", str(path)],
        capture_output=True, text=True, timeout=20,
        env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    names = default_names(report["b1"])
    got = {poly(f["poly"], names): f["multiplicity"]
           for f in report["factored"]["factors"]}
    assert report["factored"]["constant"] == 1
    assert got == dict(factors)


def test_betti_at_conductor_211_in_bounded_time(tmp_path):
    """Each pivot inverted over Q(ζ_211) took minutes; Bareiss in
    Z[ζ_211] inverts nothing over Q."""
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"vars": ["x", "y"], "rows": [
        ["x + y^5 - 2", "x^3 - y + 1", "y^2 + x*y - 3"],
        ["x^2*y - 1 + y^7", "2*x - y^3", "x^5 + y - 1"]]}))
    src = str(Path(alexkit.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "alexkit.cli", "betti", "--matrix", str(path),
         "--char", "x=zeta211,y=zeta211^17"],
        capture_output=True, text=True, timeout=20,
        env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["b1"] == 0


def _run_cli(*argv):
    """`python -m alexkit.cli` in a fresh interpreter, 20 s at most."""
    src = str(Path(alexkit.__file__).resolve().parent.parent)
    return subprocess.run(
        [sys.executable, "-m", "alexkit.cli", *argv],
        capture_output=True, text=True, timeout=20,
        env=dict(os.environ, PYTHONPATH=src))


def test_non_collinear_product_in_bounded_time(tmp_path):
    """Handed whole to sympy's multivariate factor_list, this Δ ran for
    over 60 s; its factors in one essential variable split off by
    univariate gcds."""
    names = ["t1", "t2", "t3", "t4"]
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"vars": names, "rows": [[
        "((t1*t2*t3*t4)^20 + (t1*t2*t3*t4)^19 - 1)"
        "*(t1*t2*t3*t4 + 1)^3*(t1 - 2)", "0"]]}))
    proc = _run_cli("invariants", "--matrix", str(path))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    got = {poly(f["poly"], names): f["multiplicity"]
           for f in report["factored"]["factors"]}
    assert got == {poly(text, names): mult for text, mult in (
        ("t1 - 2", 1), ("t1*t2*t3*t4 + 1", 3),
        ("(t1*t2*t3*t4)^20 + (t1*t2*t3*t4)^19 - 1", 1))}
    assert report["factored"]["constant"] == 1


def test_torus_11_13_at_a_point_of_its_jump_locus(tmp_path):
    """Φ_143 has total degree 120; its vanishing order at a root needs
    one evaluation of 121 terms, well inside the work cap."""
    path = tmp_path / "t.grp"
    path.write_text("gens: x y\nrel: x^11 y^-13\n")
    spec = "x=zeta143^13,y=zeta143^11"
    proc = _run_cli("invariants", str(path), "--char", spec)
    assert proc.returncode == 0, proc.stderr
    entry = json.loads(proc.stdout)["characters"][spec]
    assert (entry["b1"], entry["bound_pointwise"], entry["attained"]) == \
        (1, 1, True)


GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_RUNS = [
    (f"invariants-{name}", ["invariants", "--matrix", data_path(name)]
     if name.endswith(".json") else ["invariants", data_path(name)])
    for name in sorted(os.listdir(DATA))] + [
    ("betti-pencil3.grp-depth1",
     ["betti", data_path("pencil3.grp"),
      "--char", "x1=zeta3,x2=zeta3,x3=zeta3", "--depth", "1"])]


@pytest.mark.parametrize("name,argv", GOLDEN_RUNS,
                         ids=[name for name, _ in GOLDEN_RUNS])
def test_stdout_matches_golden(capsys, name, argv):
    """stdout byte for byte on every fixture, as recorded in tests/golden
    before factoring took one path for every Δ."""
    assert main(argv) == 0
    assert capsys.readouterr().out == \
        (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
