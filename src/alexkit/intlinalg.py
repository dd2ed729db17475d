"""Integer matrix normal forms and abelianization structure.

Smith normal form with unimodular transforms is the workhorse: it yields
the abelianization (rank, torsion invariants) of a presentation and the
projection matrix onto the maximal torsion-free abelian quotient.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .cyclofield import Character, CycloError
from .presentation import GroupPresentation


def _identity(n: int) -> List[List[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(matrix: Sequence[Sequence[int]]):
    """(U, D, V) with U, V unimodular and D = U·M·V in Smith form.

    D is diagonal with nonnegative entries d_1 | d_2 | ...; zero rows/columns
    are allowed (D has the same shape as M).
    """
    m = [list(map(int, row)) for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    u = _identity(rows)
    v = _identity(cols)

    def row_op(i, j, c):  # row_i += c * row_j
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]

    def col_op(i, j, c):  # col_i += c * col_j
        for r in range(rows):
            m[r][i] += c * m[r][j]
        for r in range(cols):
            v[r][i] += c * v[r][j]

    def row_swap(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i, j):
        for r in range(rows):
            m[r][i], m[r][j] = m[r][j], m[r][i]
        for r in range(cols):
            v[r][i], v[r][j] = v[r][j], v[r][i]

    def row_negate(i):
        m[i] = [-a for a in m[i]]
        u[i] = [-a for a in u[i]]

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
    return u, m, v


class AbelianStructure(NamedTuple):
    """Abelianization data: rank, torsion invariants, and the projection
    matrix sending generator j to its image in Z^rank."""

    rank: int
    torsion: Tuple[int, ...]
    abf_projection: Tuple[Tuple[int, ...], ...]  # rank x m


def abelianization(p: GroupPresentation) -> AbelianStructure:
    """Structure of G_ab and the projection onto G_ab/Tors."""
    m = p.num_generators
    exponent = p.exponent_matrix()
    if not exponent:
        exponent = [[0] * m] if m else []
    if m == 0:
        return AbelianStructure(0, (), ())
    _, d, v = smith_normal_form(exponent)
    diag = [d[i][i] for i in range(min(len(d), m))] if d else []
    r = sum(1 for x in diag if x != 0)
    torsion = tuple(x for x in diag if x >= 2)
    # generators map through columns r..m-1 of V
    projection = tuple(tuple(v[j][k] for j in range(m))
                       for k in range(r, m))
    return AbelianStructure(m - r, torsion, projection)


def validate_character(p: GroupPresentation, chi: Character) -> bool:
    """True iff chi respects every relator (factors through G_ab)."""
    if len(chi) != p.num_generators:
        raise CycloError("character length does not match generator count")
    return chi.trivial_on(p.exponent_matrix())


@lru_cache(maxsize=64)
def _torus_section(projection: Tuple[Tuple[int, ...], ...]
                   ) -> Optional[tuple]:
    """(kernel, section) for a projection A onto Z^n, n ≥ 1, or None when
    A is not onto: chi factors through A iff chi^kernel is trivial, and
    then y = chi^section.  With D = U·A·V in Smith form, the columns of V
    past n span ker A, and the section is V's first n columns times U.
    """
    n = len(projection)
    u, d, v = smith_normal_form(projection)
    if any(d[i][i] != 1 for i in range(n)):
        return None
    kernel = tuple(tuple(row[i] for row in v) for i in range(n, len(v)))
    section = tuple(tuple(sum(row[i] * u[i][k] for i in range(n))
                          for row in v) for k in range(n))
    return kernel, section


def induced_torus_point(ab: AbelianStructure,
                        chi: Character) -> Optional[Character]:
    """The point y with y^(A column j) = chi_j for all j, if chi factors
    through the torsion-free quotient; None otherwise."""
    if not ab.abf_projection:
        return chi.pull([]) if chi.is_trivial() else None
    found = _torus_section(ab.abf_projection)
    if found is None or not chi.trivial_on(found[0]):
        return None
    return chi.pull(found[1])
