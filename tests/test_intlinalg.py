from alexkit.intlinalg import (abelianization, induced_torus_point,
                               smith_normal_form, validate_character)
from alexkit.presentation import parse_presentation

from conftest import character


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
