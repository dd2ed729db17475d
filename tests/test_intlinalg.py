import glob
import itertools
import os
import random
from fractions import Fraction

from alexkit.cyclofield import Character
from alexkit.intlinalg import (abelianization, induced_torus_point,
                               smith_normal_form, validate_character)
from alexkit.presentation import parse_presentation

from conftest import DATA, character, load_presentation


def _matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def _det(m):
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** i * m[i][0] *
               _det([row[1:] for j, row in enumerate(m) if j != i])
               for i in range(len(m)))


def test_snf_diagonal_oracle():
    u, d, v = smith_normal_form([[2, 0], [0, 3]])
    assert [d[0][0], d[1][1]] == [1, 6]


def test_snf_transforms_are_unimodular():
    m = [[4, 6, 2], [2, 8, 6]]
    u, d, v = smith_normal_form(m)
    assert abs(_det(u)) == 1
    assert abs(_det(v)) == 1
    assert _matmul(_matmul(u, m), v) == d


def test_snf_divisibility_chain():
    _, d, _ = smith_normal_form([[6, 4], [4, 6]])
    assert d[1][1] % d[0][0] == 0


def test_snf_zero_matrix():
    _, d, _ = smith_normal_form([[0, 0], [0, 0]])
    assert d == [[0, 0], [0, 0]]


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
    assert [abs(x) for x in ab.abf_projection[0]] == [0, 0, 1]


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
    """The per-character solve that `induced_torus_point` replaced: the
    Smith form of the projection A is taken anew for every chi."""
    a = [list(row) for row in ab.abf_projection]
    n = len(a)
    m = len(chi)
    if n == 0:
        return chi.pull([]) if chi.is_trivial() else None
    u, d, v = smith_normal_form(a)
    for i in range(n):
        if d[i][i] != 1:
            return None
    columns = [[row[i] for row in v] for i in range(m)]
    if not chi.pull(columns[n:]).is_trivial():
        return None
    z = chi.pull(columns[:n])
    return z.pull([[row[i] for row in u] for i in range(n)])


def _pencil(n):
    names = [f"x{i}" for i in range(1, n + 1)]
    prod = " ".join(names)
    inv = " ".join(f"{x}^-1" for x in reversed(names))
    return parse_presentation(
        f"gens: {' '.join(names)}\n" + "".join(
            f"rel: {prod} {x} {inv} {x}^-1\n" for x in names[:-1]))


def test_torus_section_matches_per_character_solve():
    """On every character with values in μ_1..μ_4 of each presentation in
    tests/data, and on random characters, with rational scales too, of
    pencils, torus knots and a group with torsion, the section computed
    once per projection gives the point the per-character solve gives."""
    groups = [load_presentation(os.path.basename(path))
              for path in sorted(glob.glob(os.path.join(DATA, "*.grp")))]
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
