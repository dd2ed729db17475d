"""Integer matrix normal forms and abelianization structure.

Smith normal form with a unimodular change of basis and its inverse is
the workhorse: it yields the abelianization (rank, torsion invariants) of
a presentation, the image of each generator in the maximal torsion-free
abelian quotient, and the point a character induces on that quotient.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence, Tuple

from . import AlexkitError
from .cyclofield import Character
from .presentation import GroupPresentation


def smith_normal_form(matrix: Sequence[Sequence[int]]):
    """(D, V, W) with V unimodular, W = V⁻¹ and D = U·M·V in Smith form for
    some unimodular U, which is not kept.

    D is diagonal with nonnegative entries d_1 | d_2 | ...; zero rows/columns
    are allowed (D has the same shape as M).  Each column operation on V is
    the inverse row operation on W.

    Stage t makes d_t in rounds on the block of rows and columns ≥ t.  A
    round moves the block's least nonzero |entry| (the first in row order)
    to (t, t) as a positive pivot and reduces column t, then row t, by it
    with floor quotients.  A remainder there, or a block entry that a pivot
    above 1 does not divide (its row added to row t), starts another round
    with a lesser pivot, so the stage ends.  Reducing only row and column t
    keeps the rest of the block from growing (Kannan and Bachem, 1979).
    """
    m = [list(map(int, row)) for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]
    w = [row[:] for row in v]

    def row_op(i, j, c):  # row_i += c * row_j
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]

    def col_op(i, j, c):  # col_i += c * col_j, so row_j of W -= c * row_i
        for r in range(rows):
            m[r][i] += c * m[r][j]
        for r in range(cols):
            v[r][i] += c * v[r][j]
        w[j] = [a - c * b for a, b in zip(w[j], w[i])]

    def col_swap(i, j):
        for r in range(rows):
            m[r][i], m[r][j] = m[r][j], m[r][i]
        for r in range(cols):
            v[r][i], v[r][j] = v[r][j], v[r][i]
        w[i], w[j] = w[j], w[i]

    t = 0
    while t < min(rows, cols):
        least = None  # (|entry|, row, column), the scan stops at a unit
        for entry in ((abs(m[i][j]), i, j) for i in range(t, rows)
                      for j in range(t, cols) if m[i][j]):
            if least is None or entry < least:
                least = entry
                if entry[0] == 1:
                    break
        if least is None:
            break
        pivot, i, j = least
        m[t], m[i] = m[i], m[t]
        col_swap(t, j)
        if m[t][t] < 0:
            m[t] = [-a for a in m[t]]
        for i in range(t + 1, rows):
            if m[i][t]:
                row_op(i, t, -(m[i][t] // pivot))
        for j in range(t + 1, cols):
            if m[t][j]:
                col_op(j, t, -(m[t][j] // pivot))
        if any(m[i][t] for i in range(t + 1, rows)) or any(m[t][t + 1:]):
            continue
        if pivot > 1:
            bad = next((i for i in range(t + 1, rows)
                        if any(a % pivot for a in m[i][t + 1:])), None)
            if bad is not None:
                row_op(t, bad, 1)
                continue
        t += 1
    return m, v, w


class AbelianStructure(NamedTuple):
    """Abelianization data: rank, torsion invariants, the image in Z^rank
    of each generator (row j is generator j's: row j of V from column
    m − rank on), and the inverse W of the change of basis V that puts the
    exponent matrix in Smith form."""

    rank: int
    torsion: Tuple[int, ...]
    images: Tuple[Tuple[int, ...], ...]  # m x rank
    abf_inverse: Tuple[Tuple[int, ...], ...]  # m x m


def abelianization(p: GroupPresentation) -> AbelianStructure:
    """Structure of G_ab and each generator's image in G_ab/Tors."""
    m = p.num_generators
    d, v, w = smith_normal_form(p.exponent_matrix() or [[0] * m])
    diag = [d[i][i] for i in range(min(len(d), m))]
    r = sum(1 for x in diag if x != 0)
    torsion = tuple(x for x in diag if x >= 2)
    # generator j maps to row j of V, columns r..m-1
    return AbelianStructure(m - r, torsion, tuple(tuple(row[r:]) for row in v),
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
