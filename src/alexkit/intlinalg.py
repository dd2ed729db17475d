"""Integer matrix normal forms and abelianization structure.

Smith normal form with a unimodular change of basis and its inverse is
the workhorse: it yields the abelianization (rank, torsion invariants) of
a presentation, the projection matrix onto the maximal torsion-free
abelian quotient, and the point a character induces on that quotient.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Tuple

from . import SMITH_BASIS_CAP, AlexkitError, check
from .cyclofield import Character
from .presentation import GroupPresentation


def _identity(n: int) -> List[List[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(matrix: Sequence[Sequence[int]]):
    """(D, V, W) with V unimodular, W = V⁻¹ and D = U·M·V in Smith form for
    some unimodular U, which is not kept.

    D is diagonal with nonnegative entries d_1 | d_2 | ...; zero rows/columns
    are allowed (D has the same shape as M).  Each column operation on V is
    the inverse row operation on W.
    """
    m = [list(map(int, row)) for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    v = _identity(cols)
    w = _identity(cols)

    def row_op(i, j, c):  # row_i += c * row_j
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]

    def col_op(i, j, c):  # col_i += c * col_j, so row_j of W -= c * row_i
        for r in range(rows):
            m[r][i] += c * m[r][j]
        for r in range(cols):
            v[r][i] += c * v[r][j]
        w[j] = [a - c * b for a, b in zip(w[j], w[i])]

    def row_swap(i, j):
        m[i], m[j] = m[j], m[i]

    def col_swap(i, j):
        for r in range(rows):
            m[r][i], m[r][j] = m[r][j], m[r][i]
        for r in range(cols):
            v[r][i], v[r][j] = v[r][j], v[r][i]
        w[i], w[j] = w[j], w[i]

    def row_negate(i):
        m[i] = [-a for a in m[i]]

    t = 0
    while t < min(rows, cols):
        # locate a pivot: smallest nonzero entry in the remaining block
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                if m[i][j] != 0 and (pivot is None or
                                     abs(m[i][j]) < abs(m[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        row_swap(t, pivot[0])
        col_swap(t, pivot[1])
        if m[t][t] < 0:
            row_negate(t)
        while True:
            # reduce column t; a nonzero remainder becomes the new pivot
            changed = False
            for i in range(t + 1, rows):
                if m[i][t] != 0:
                    row_op(i, t, -(m[i][t] // m[t][t]))
                    if m[i][t] != 0:
                        row_swap(t, i)
                        changed = True
            for j in range(t + 1, cols):
                if m[t][j] != 0:
                    col_op(j, t, -(m[t][j] // m[t][t]))
                    if m[t][j] != 0:
                        col_swap(t, j)
                        changed = True
            if changed:
                # the new pivot, a remainder of `//` by a positive one, is > 0
                continue
            # divisibility: d_t must divide the remaining block
            bad = next(((i, j) for i in range(t + 1, rows)
                        for j in range(t + 1, cols)
                        if m[i][j] % m[t][t] != 0), None)
            if bad is None:
                break
            row_op(t, bad[0], 1)
        t += 1
    return m, v, w


class AbelianStructure(NamedTuple):
    """Abelianization data: rank, torsion invariants, the projection matrix
    sending generator j to its image in Z^rank, and the inverse W of the
    change of basis V that puts the exponent matrix in Smith form."""

    rank: int
    torsion: Tuple[int, ...]
    abf_projection: Tuple[Tuple[int, ...], ...]  # rank x m
    abf_inverse: Tuple[Tuple[int, ...], ...]  # m x m


def abelianization(p: GroupPresentation) -> AbelianStructure:
    """Structure of G_ab and the projection onto G_ab/Tors; m generators
    need m² within SMITH_BASIS_CAP."""
    m = p.num_generators
    check("generators² (entries of the Smith change of basis)", m * m,
          SMITH_BASIS_CAP)
    d, v, w = smith_normal_form(p.exponent_matrix() or [[0] * m])
    diag = [d[i][i] for i in range(min(len(d), m))]
    r = sum(1 for x in diag if x != 0)
    torsion = tuple(x for x in diag if x >= 2)
    # generators map through columns r..m-1 of V
    projection = tuple(tuple(v[j][k] for j in range(m))
                       for k in range(r, m))
    return AbelianStructure(m - r, torsion, projection,
                            tuple(map(tuple, w)))


def validate_character(p: GroupPresentation, chi: Character) -> bool:
    """True iff chi respects every relator (factors through G_ab)."""
    if len(chi) != p.num_generators:
        raise AlexkitError("character length does not match generator count")
    return chi.trivial_on(p.exponent_matrix())


def induced_torus_point(ab: AbelianStructure,
                        chi: Character) -> Optional[Character]:
    """The point y with y^(A column j) = chi_j for all j, if chi factors
    through the torsion-free quotient; None otherwise.

    Generator j maps to row j of V, so chi takes the value chi^(row k of W)
    on basis vector k of the Smith basis.  The first m − rank of these span
    the torsion part, where chi must be trivial, and the rest give y, the
    only such point since A is onto Z^rank.
    """
    split = len(ab.abf_inverse) - ab.rank
    if not chi.trivial_on(ab.abf_inverse[:split]):
        return None
    return chi.pull(ab.abf_inverse[split:])
