import glob
import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import sympy
from sympy.matrices.normalforms import smith_normal_decomp

import alexkit
from alexkit.cyclofield import Character
from alexkit.intlinalg import (AbelianStructure, abelianization,
                               induced_torus_point,
                               validate_character)
from alexkit.presentation import parse_presentation

from conftest import DATA, character, check_smith_form, load_presentation


def test_snf_diagonal_oracle():
    d, _, _ = check_smith_form([[2, 0], [0, 3]])
    assert [d[0][0], d[1][1]] == [1, 6]


def test_snf_transforms_are_unimodular():
    check_smith_form([[4, 6, 2], [2, 8, 6]])


def test_snf_divisibility_chain():
    d, _, _ = check_smith_form([[6, 4], [4, 6]])
    assert d[1][1] % d[0][0] == 0


def test_snf_zero_matrix():
    d, v, w = check_smith_form([[0, 0], [0, 0]])
    assert d == [[0, 0], [0, 0]] and v == w == [[1, 0], [0, 1]]


TORUSBUNDLE = ("gens: x1 x2 x3\n"
               "rel: x1 x2 x1^-1 x2^-1\n"
               "rel: x3^-1 x1 x3 x1\n"
               "rel: x3^-1 x2 x3 x2 x1^-1\n")


def test_abelianization_torusbundle():
    p = parse_presentation(TORUSBUNDLE)
    ab = abelianization(p)
    assert ab.rank == 1
    assert ab.torsion == (4,)
    # x3 maps onto the free quotient, x1 and x2 are torsion
    assert [abs(x) for (x,) in ab.images] == [0, 0, 1]


def test_abelianization_free_group():
    p = parse_presentation("gens: a b\n")
    ab = abelianization(p)
    assert ab.rank == 2
    assert ab.torsion == ()


def test_validate_character():
    p = parse_presentation(TORUSBUNDLE)
    good = character(1, 1, -1)
    bad = character(-1, 1, 1)
    assert validate_character(p, good)
    assert not validate_character(p, bad)


def test_induced_torus_point():
    p = parse_presentation(TORUSBUNDLE)
    ab = abelianization(p)
    chi = character(1, 1, -1)
    assert induced_torus_point(ab, chi) == character(-1)


def test_induced_torus_point_rejects_torsion_character():
    p = parse_presentation("gens: a b\nrel: a^2\n")
    ab = abelianization(p)
    chi = character(-1, 1)
    assert validate_character(p, chi)
    assert induced_torus_point(ab, chi) is None


def _induced_torus_point_oracle(ab, chi):
    """The per-character solve that `induced_torus_point` replaced, on
    sympy's Smith form D = S·A·T of the projection A: chi factors through A
    iff chi^(column i of T) = 1 for i past n = rank, and then the point is
    z^(S column k) with z_i = chi^(column i of T) / D_ii, D_ii = ±1."""
    n = ab.rank
    m = len(chi)
    if n == 0:
        return chi.pull([]) if chi.is_trivial() else None
    a = sympy.Matrix([list(row) for row in ab.images]).T
    d, s, t = smith_normal_decomp(a, domain=sympy.ZZ)
    signs = [int(d[i, i]) for i in range(n)]
    if any(abs(x) != 1 for x in signs):
        return None
    columns = [[int(t[j, i]) * (signs[i] if i < n else 1) for j in range(m)]
               for i in range(m)]
    if not chi.pull(columns[n:]).is_trivial():
        return None
    z = chi.pull(columns[:n])
    return z.pull([[int(s[i, k]) for i in range(n)] for k in range(n)])


def _pencil(n):
    names = [f"x{i}" for i in range(1, n + 1)]
    prod = " ".join(names)
    inv = " ".join(f"{x}^-1" for x in reversed(names))
    return parse_presentation(
        f"gens: {' '.join(names)}\n" + "".join(
            f"rel: {prod} {x} {inv} {x}^-1\n" for x in names[:-1]))


def test_torus_section_matches_per_character_solve():
    """On every character with values in μ_1..μ_4 of each presentation in
    tests/data, of a group with no generators and of one of rank 0, and on
    random characters, with rational scales too, of pencils, torus knots
    and a group with torsion, the point read off the abelianization's
    Smith form is the point the per-character solve gives."""
    groups = [load_presentation(os.path.basename(path))
              for path in sorted(glob.glob(os.path.join(DATA, "*.grp")))]
    groups += [parse_presentation("gens:\n"),
               parse_presentation("gens: a\nrel: a^2\n")]
    checked = 0
    for p in groups:
        ab = abelianization(p)
        m = p.num_generators
        for n in (1, 2, 3, 4):
            for exps in itertools.product(range(n), repeat=m):
                chi = Character(n, (1,) * m, exps)
                assert induced_torus_point(ab, chi) == \
                    _induced_torus_point_oracle(ab, chi), (p, chi)
                checked += 1
    rng = random.Random(20261019)
    randoms = [_pencil(n) for n in range(2, 8)] + [
        parse_presentation(f"gens: x y\nrel: x^{a} y^-{b}\n")
        for a, b in ((2, 3), (3, 4), (3, 5), (5, 7), (4, 9), (7, 11))] + [
        parse_presentation("gens: a b c\nrel: a^2\nrel: b c b^-1 c^-1\n")]
    points = 0
    for p in randoms:
        ab = abelianization(p)
        m = p.num_generators
        for _ in range(60):
            n = rng.randint(1, 30)
            scales = tuple(rng.choice([1, 1, 1, -1, 2, Fraction(1, 3)])
                           for _ in range(m))
            chi = Character(n, scales,
                            tuple(rng.randrange(n) for _ in range(m)))
            expected = _induced_torus_point_oracle(ab, chi)
            assert induced_torus_point(ab, chi) == expected, (p, chi)
            points += expected is not None
    assert checked > 1000 and points > 100


_COUNT_SMITH_FORMS = (
    "import sys\n"
    "from alexkit import cli, intlinalg\n"
    "calls = []\n"
    "smith = intlinalg.smith_normal_form\n"
    "def counted(matrix):\n"
    "    calls.append(matrix)\n"
    "    return smith(matrix)\n"
    "intlinalg.smith_normal_form = counted\n"
    "assert cli.main(sys.argv[1:]) == 0\n"
    "print(len(calls), file=sys.stderr)\n")


def test_one_smith_form_per_presentation():
    """`invariants` on pencil4 at 16 characters, each off the trivial one
    and each read as a torus point, takes the Smith form of the exponent
    matrix and of nothing else, in a fresh interpreter."""
    chars = [",".join(f"x{i + 1}={v}" for i, v in enumerate(values))
             for values in itertools.product(("-1", "zeta3"), repeat=4)]
    argv = ["invariants", os.path.join(DATA, "pencil4.grp")]
    for spec in chars:
        argv += ["--char", spec]
    src = str(Path(alexkit.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", _COUNT_SMITH_FORMS, *argv],
        capture_output=True, text=True, timeout=20,
        env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert len(json.loads(proc.stdout)["characters"]) == 16
    assert proc.stderr.split() == ["1"]


def test_abelianization_of_no_generators():
    """`gens:` alone, and with two empty relators, presents the trivial
    group: the Smith form of its k × 0 exponent matrix gives rank 0, no
    torsion and empty projection and change of basis."""
    for text in ("gens:\n", "gens:\nrel:\nrel:\n"):
        assert abelianization(parse_presentation(text)) == \
            AbelianStructure(0, (), (), ())
