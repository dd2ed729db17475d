"""Fuzz of the four input readers: a presentation, a polynomial, a
character and a matrix JSON file each end in an answer or in one of the
two refusals, AlexkitError (exit 2) or ComputationCapError (exit 3), and
never in another exception.  The examples are derandomized, so every run
reads the same inputs."""

import contextlib
import io
import json

import pytest

from alexkit import AlexkitError, ComputationCapError, cli
from alexkit.cyclofield import parse_character
from alexkit.presentation import parse_presentation

from conftest import poly

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

FUZZ = hypothesis.settings(derandomize=True, database=None, deadline=None,
                           max_examples=300)


def _joined(pieces, max_size):
    return st.lists(st.sampled_from(pieces), max_size=max_size).map("".join)


# a gens: line, then lines of the presentation format or of loose tokens
LETTERS = _joined([" a", " b", " a^-1", " b^2", " b^-10", " a^99", " e",
                   " a^0", " a^", " 1a", " a a", "\t", " #", "\u3000"], 6)
LINES = st.one_of(
    st.tuples(st.sampled_from(["rel:", "rel:", "rel:", " rel:\t", "gens:",
                               "#", "relator:", ""]), LETTERS).map("".join),
    _joined(["gens", "rel", ":", "a", "b", "^", "-", "0", "1", " "], 8))
PRESENTATIONS = st.tuples(
    st.sampled_from(["gens: a b", "gens: a b", " gens:\ta", "gens: a a",
                     "gens: e e", "gens:", "# none", ""]),
    st.lists(LINES, max_size=4)).map(lambda p: "\n".join([p[0], *p[1]]))

# expressions of the polynomial grammar, and strings of its characters
EXPRESSIONS = st.recursive(
    st.sampled_from(["t", "u", "1", "2", "0", "-t", "10"]),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", "*", " * "]),
                  inner).map("".join),
        st.tuples(inner, st.sampled_from(
            ["^2", "^3", "^-1", "^-2", "^0", "^12"])).map(
                lambda p: f"({p[0]}){p[1]}")),
    max_leaves=6)
POLYS = st.one_of(EXPRESSIONS,
                  st.text(alphabet="tux012+-*^() $", max_size=12))

# the character grammar: a value for each name, or loose assignments
VALUES = ["1", "-1", "2", "1/2", "-2/3", "zeta3", "zeta6^5", "-zeta4",
          "2*zeta3^2", "1/2*zeta4", "zeta12^-1", "zeta240^7", "zeta2",
          "0", "1/0", "zeta0", "zeta241", "", "zeta", "z3"]


def _characters(names):
    full = st.lists(st.sampled_from(VALUES), min_size=len(names),
                    max_size=len(names)).map(lambda values: ",".join(
                        f"{n}={v}" for n, v in zip(names, values)))
    loose = st.tuples(st.sampled_from([*names, "", "w"]),
                      st.sampled_from(["=", "", "=="]),
                      st.sampled_from(VALUES)).map("".join)
    return st.one_of(full, full, st.lists(loose, max_size=3).map(",".join))


CHARACTERS = st.one_of(_characters(("x", "y")),
                       st.text(alphabet="xy=,-12/0*zeta^ ", max_size=12))

# matrix JSON: well formed with rows of one width, and arbitrary JSON
WELL_FORMED = st.fixed_dictionaries({
    "vars": st.sampled_from([["t"], ["t", "u"], ["t", "u"], ["t", "t"],
                             ["1t"], [], ["t", "u", "x"]]),
    "rows": st.integers(1, 3).flatmap(lambda width: st.lists(
        st.lists(EXPRESSIONS, min_size=width, max_size=width),
        min_size=1, max_size=3))}).map(json.dumps)
MATRICES = st.one_of(WELL_FORMED, st.one_of(
    st.recursive(st.none() | st.booleans() | st.integers(-2, 2)
                 | st.sampled_from(["t", "vars", "rows"]),
                 lambda inner: st.lists(inner, max_size=3)
                 | st.dictionaries(st.sampled_from(["vars", "rows"]), inner),
                 max_leaves=6).map(json.dumps),
    st.text(alphabet='{}[]",: varsowt1+', max_size=24)))


def _reads_or_refuses(read, *args):
    try:
        read(*args)
    except (AlexkitError, ComputationCapError):
        pass


@FUZZ
@hypothesis.given(PRESENTATIONS)
def test_presentation_reader(text):
    _reads_or_refuses(parse_presentation, text)


@FUZZ
@hypothesis.given(POLYS)
def test_poly_reader(text):
    _reads_or_refuses(poly, text, ("t", "u"))


@FUZZ
@hypothesis.given(CHARACTERS)
def test_character_reader(text):
    _reads_or_refuses(parse_character, text, ("x", "y"))


def test_matrix_json_reader(tmp_path):
    """`invariants --matrix`, with characters on t and u, run in-process:
    exit 0 with one JSON report, or exit 2 or 3 with one line on stderr."""
    path = tmp_path / "matrix.json"

    @FUZZ
    @hypothesis.given(MATRICES, st.lists(_characters(("t", "u")),
                                         max_size=2))
    def run(text, chars):
        path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["invariants", "--matrix", str(path),
                             *(f"--char={c}" for c in chars)])
        if code == 0:
            assert err.getvalue() == ""
            json.loads(out.getvalue())
        else:
            assert code in (2, 3)
            assert out.getvalue() == ""
            assert err.getvalue().count("\n") == 1
            assert err.getvalue().endswith("\n")

    run()
