"""Fox calculus, Alexander matrices, elementary ideals, and polynomials.

The matrix of abelianized Fox derivatives of the relators presents the
Alexander module; its minor ideals give the elementary ideals and their
gcds the Alexander polynomials.  Matrices may also be loaded directly
(matrix mode) for groups specified by an Alexander matrix alone.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import sympy

from .cyclofield import Character, CycloNumber, evaluate
from .intlinalg import AbelianStructure, abelianization
from .laurent import (ComputationCapError, LaurentPoly, _symbols, divides,
                      exact_div_binomial, gcd_many, normalize, parse_poly,
                      vanishing_order)
from .presentation import GroupPresentation, Word

MINOR_MATRIX_CAP = 8


class AlexanderError(ValueError):
    pass


@dataclass
class AlexanderMatrix:
    """h x m matrix over the Laurent ring, with provenance.

    `entries` live in the torsion-free quotient variables (num_vars of them).
    For matrices built from a presentation, `generator_entries` additionally
    hold the Fox derivatives abelianized only by generator exponents (one
    variable per generator), which is what character evaluation uses.
    """

    num_vars: int
    var_names: Tuple[str, ...]
    entries: List[List[LaurentPoly]]
    origin: str  # "presentation" | "matrix"
    presentation: Optional[GroupPresentation] = None
    abelian: Optional[AbelianStructure] = None
    generator_entries: Optional[List[List[LaurentPoly]]] = field(
        default=None, repr=False)

    @property
    def num_rows(self) -> int:
        return len(self.entries)

    @property
    def num_cols(self) -> int:
        return len(self.entries[0]) if self.entries else (
            self.presentation.num_generators if self.presentation else 0)

    def fox_identity_holds(self) -> bool:
        """Check sum_j entry(i,j)·(t^{phi(x_j)} − 1) = 0 for every row."""
        if self.origin != "presentation":
            raise AlexanderError("identity check applies to Fox matrices")
        n = self.num_vars
        cols = [LaurentPoly.monomial([row[j] for row in self.abelian.abf_projection])
                - LaurentPoly.one(n)
                for j in range(self.presentation.num_generators)]
        for row in self.entries:
            acc = LaurentPoly.zero(n)
            for entry, c in zip(row, cols):
                acc = acc + entry * c
            if not acc.is_zero():
                return False
        return True


# -- Fox derivatives --------------------------------------------------------


def _fox_row(r: Word, m: int) -> List[LaurentPoly]:
    """Abelianized Fox derivatives of one relator, in m generator variables."""
    out = [LaurentPoly.zero(m) for _ in range(m)]
    prefix = [0] * m  # exponent vector of the prefix, abelianized
    for g, e in r.letters:
        if e > 0:
            for k in range(e):
                exp = list(prefix)
                exp[g] += k
                out[g] = out[g] + LaurentPoly.monomial(exp)
        else:
            for k in range(1, -e + 1):
                exp = list(prefix)
                exp[g] -= k
                out[g] = out[g] - LaurentPoly.monomial(exp)
        prefix[g] += e
    return out


def _substitute_monomials(f: LaurentPoly,
                          projection: Sequence[Sequence[int]]) -> LaurentPoly:
    """Push exponent vectors through an integer matrix (variable change)."""
    n = len(projection)
    out = {}
    for exp, c in f.terms.items():
        new = tuple(sum(row[j] * exp[j] for j in range(len(exp)))
                    for row in projection)
        out[new] = out.get(new, Fraction(0)) + c
    return LaurentPoly(n, out)


def fox_matrix(p: GroupPresentation) -> AlexanderMatrix:
    """The Alexander matrix of a presentation over the torsion-free quotient."""
    ab = abelianization(p)
    m = p.num_generators
    gen_rows = [_fox_row(r, m) for r in p.relators]
    rows = [[_substitute_monomials(e, ab.abf_projection) for e in row]
            for row in gen_rows]
    from .laurent import default_names
    mat = AlexanderMatrix(
        num_vars=ab.rank,
        var_names=tuple(default_names(ab.rank)),
        entries=rows,
        origin="presentation",
        presentation=p,
        abelian=ab,
        generator_entries=gen_rows,
    )
    if not mat.fox_identity_holds():
        raise AlexanderError("Fox fundamental identity failed (internal bug)")
    return mat


def load_matrix(var_names: Sequence[str],
                rows: Sequence[Sequence[str]]) -> AlexanderMatrix:
    """Matrix-mode input: a grid of polynomial expressions.

    The Fox identity is not required (and not checked); the origin tag
    records the unverified provenance.
    """
    names = tuple(var_names)
    if len(set(names)) != len(names):
        raise AlexanderError(f"duplicate variable names in {list(names)}")
    for name in names:
        # the names parse_poly can read as a variable, not as a number
        if not re.fullmatch(r"[A-Za-z][A-Za-z0-9_]*", name):
            raise AlexanderError(f"bad variable name {name!r}")
    parsed: List[List[LaurentPoly]] = []
    width = None
    for row in rows:
        cur = [parse_poly(text, names) if isinstance(text, str) else text
               for text in row]
        if width is None:
            width = len(cur)
        elif len(cur) != width:
            raise AlexanderError("ragged rows in matrix input")
        parsed.append(cur)
    return AlexanderMatrix(
        num_vars=len(names),
        var_names=names,
        entries=parsed,
        origin="matrix",
        generator_entries=parsed,
    )


# -- minors and elementary ideals -------------------------------------------


def _row_minors(rows: List[List[LaurentPoly]], n: int) -> dict:
    """The nonzero maximal minors of a k x m matrix (1 <= k <= m), keyed by
    the bitmask of their columns.

    Laplace expansion along the rows, bottom up and memoized over column
    subsets: the minors on the last r rows are built from those on the
    last r - 1, so every sub-minor is computed once (2^m of them at most,
    not k!).  Products accumulate in plain term dicts, so each memo entry
    makes a single LaurentPoly.
    """
    level = {1 << c: e for c, e in enumerate(rows[-1]) if not e.is_zero()}
    for row in reversed(rows[:-1]):
        sums: dict = {}
        for c, entry in enumerate(row):
            if entry.is_zero():
                continue
            bit = 1 << c
            for mask, sub in level.items():
                if mask & bit:
                    continue
                # sign of column c's position within the subset mask|bit
                negative = bin(mask & (bit - 1)).count("1") & 1
                acc = sums.setdefault(mask | bit, {})
                for e1, c1 in entry.terms.items():
                    if negative:
                        c1 = -c1
                    for e2, c2 in sub.terms.items():
                        e = tuple(a + b for a, b in zip(e1, e2))
                        acc[e] = acc.get(e, 0) + c1 * c2
        level = {}
        for mask, acc in sums.items():
            minor = LaurentPoly(n, acc)
            if not minor.is_zero():
                level[mask] = minor
    return level


def _det(rows: List[List[LaurentPoly]], n: int) -> LaurentPoly:
    """Determinant of a square matrix with entries in n variables."""
    return _row_minors(rows, n).get((1 << len(rows)) - 1,
                                    LaurentPoly.zero(n))


def _check_minor_cap(mat: AlexanderMatrix) -> None:
    h, m = mat.num_rows, mat.num_cols
    if max(h, m) > MINOR_MATRIX_CAP:
        raise ComputationCapError(
            f"matrix size {h}x{m} exceeds minor cap {MINOR_MATRIX_CAP}")


def elementary_ideal_minors(mat: AlexanderMatrix, i: int) -> List[LaurentPoly]:
    """Generators (all minors of size m−i) of the i-th elementary ideal.

    Conventions: [1] when i ≥ m (ideal is the whole ring), [0] when the
    minor size exceeds the number of rows (zero ideal).
    """
    if i < 0:
        raise AlexanderError("elementary ideal index must be nonnegative")
    n = mat.num_vars
    size = mat.num_cols - i
    if size <= 0:
        return [LaurentPoly.one(n)]
    if size > mat.num_rows:
        return [LaurentPoly.zero(n)]
    _check_minor_cap(mat)
    zero = LaurentPoly.zero(n)
    out = []
    for rsel in itertools.combinations(range(mat.num_rows), size):
        minors = _row_minors([mat.entries[r] for r in rsel], n)
        for csel in itertools.combinations(range(mat.num_cols), size):
            out.append(minors.get(sum(1 << c for c in csel), zero))
    return out


def alexander_poly(mat: AlexanderMatrix, i: int = 1) -> LaurentPoly:
    """Δ_i: the gcd of the minors of the i-th elementary ideal, canonical.

    For Δ₁ of a presentation with b1 ≥ 1 only one maximal minor per row
    subset is computed.  Fox's fundamental identity
    D_j·(t^{φ(x_k)} − 1) = ±D_k·(t^{φ(x_j)} − 1), for the minors D_j with
    column j deleted, gives gcd_k D_k ≐ D_j·g / (t^{φ(x_j)} − 1) for any
    generator with φ(x_j) ≠ 0, where g = gcd_k (t^{φ(x_k)} − 1) is t − 1
    when b1 = 1 and 1 when b1 ≥ 2.  Matrix-mode input and Δ_i for i ≥ 2
    take the gcd of all minors.
    """
    if i < 1:
        raise AlexanderError("alexander_poly index must be >= 1")
    if i == 1 and mat.origin == "presentation" and mat.num_vars >= 1 \
            and 1 <= mat.num_cols - 1 <= mat.num_rows:
        return _fox_delta1(mat)
    return gcd_many(elementary_ideal_minors(mat, i))


def _fox_delta1(mat: AlexanderMatrix) -> LaurentPoly:
    """Δ₁ from one maximal minor per row subset (see alexander_poly)."""
    _check_minor_cap(mat)
    n, m = mat.num_vars, mat.num_cols
    phi = list(zip(*mat.abelian.abf_projection))
    j = next(k for k in range(m) if any(phi[k]))
    keep = [c for c in range(m) if c != j]
    quotients = []
    for rsel in itertools.combinations(range(mat.num_rows), m - 1):
        minor = _det([[mat.entries[r][c] for c in keep] for r in rsel], n)
        if n == 1:
            minor = minor * (LaurentPoly.var(1, 0) - 1)
        q = exact_div_binomial(minor, phi[j])
        if q is None:
            raise AlexanderError(
                "Fox identity division was not exact (internal bug)")
        quotients.append(q)
    if len(quotients) > 1:
        return gcd_many(quotients)
    q = quotients[0]
    return q if q.is_zero() else normalize(q)


def delta_chain(mat: AlexanderMatrix, up_to: int) -> List[LaurentPoly]:
    return [alexander_poly(mat, i) for i in range(1, up_to + 1)]


# -- generic ranks ----------------------------------------------------------


def generic_rank_mod(mat: AlexanderMatrix, f: LaurentPoly) -> int:
    """Largest k such that some k x k minor of the matrix is not divisible
    by f (the rank at the generic point of V(f) for irreducible f).
    """
    if f.is_zero() or f.is_unit() or normalize(f).is_constant():
        raise AlexanderError("generic_rank_mod needs a nonzero non-unit f")
    h, m = mat.num_rows, mat.num_cols
    for k in range(min(h, m), 0, -1):
        for rsel in itertools.combinations(range(h), k):
            minors = _row_minors([mat.entries[r] for r in rsel], mat.num_vars)
            if any(not divides(f, minor) for minor in minors.values()):
                return k
    return 0


# -- evaluation at characters -----------------------------------------------


def evaluate_matrix(mat: AlexanderMatrix, chi: Character):
    """Evaluate at a character with one value per generator (or per variable
    in matrix mode); returns a CycloNumber matrix."""
    entries = mat.generator_entries if mat.generator_entries is not None \
        else mat.entries
    width = len(entries[0]) if entries else 0
    if entries and len(chi) != entries[0][0].nvars:
        raise AlexanderError(
            f"character has {len(chi)} values, expected {entries[0][0].nvars}")
    return [[evaluate(e, chi.values) for e in row] for row in entries]


# -- univariate invariant factors -------------------------------------------


def univariate_invariant_factors(mat: AlexanderMatrix) -> List[LaurentPoly]:
    """Nonzero Smith invariant factors over Q[t^±], ordered by divisibility."""
    if mat.num_vars != 1:
        raise AlexanderError("invariant factors require a univariate matrix")
    t = _symbols(1)[0]
    grid = []
    for row in mat.entries:
        grid.append([sympy.Poly(r._shifted()[1].to_sympy(), t, domain="QQ")
                     for r in row])
    factors = _poly_smith(grid, t)
    out = []
    for p in factors:
        lp = LaurentPoly.from_sympy(p.as_expr(), 1)
        if not lp.is_zero():
            out.append(normalize(lp))
    return out


def _poly_smith(grid, t):
    """Smith normal form diagonal over Q[t] (Euclidean by degree)."""
    rows = len(grid)
    cols = len(grid[0]) if rows else 0
    m = [[grid[i][j] for j in range(cols)] for i in range(rows)]
    diag = []
    top = 0
    while top < min(rows, cols):
        pivot = min(((i, j) for i in range(top, rows) for j in range(top, cols)
                     if not m[i][j].is_zero),
                    key=lambda ij: m[ij[0]][ij[1]].degree(), default=None)
        if pivot is None:
            break
        i0, j0 = pivot
        m[top], m[i0] = m[i0], m[top]
        for r in range(rows):
            m[r][top], m[r][j0] = m[r][j0], m[r][top]
        while True:
            changed = False
            for i in range(top + 1, rows):
                if not m[i][top].is_zero:
                    q, r = sympy.div(m[i][top], m[top][top], domain="QQ")
                    q = sympy.Poly(q, t, domain="QQ")
                    m[i] = [a - q * b for a, b in zip(m[i], m[top])]
                    if not m[i][top].is_zero:
                        m[top], m[i] = m[i], m[top]
                        changed = True
            for j in range(top + 1, cols):
                if not m[top][j].is_zero:
                    q, r = sympy.div(m[top][j], m[top][top], domain="QQ")
                    q = sympy.Poly(q, t, domain="QQ")
                    for rr in range(rows):
                        m[rr][j] = m[rr][j] - q * m[rr][top]
                    if not m[top][j].is_zero:
                        for rr in range(rows):
                            m[rr][top], m[rr][j] = m[rr][j], m[rr][top]
                        changed = True
            if changed:
                continue
            bad = next(((i, j) for i in range(top + 1, rows)
                        for j in range(top + 1, cols)
                        if not sympy.rem(m[i][j], m[top][top], domain="QQ")
                        .is_zero), None)
            if bad is None:
                break
            m[top] = [a + b for a, b in zip(m[top], m[bad[0]])]
        diag.append(m[top][top])
        top += 1
    return diag


def elementary_divisor_exponents(invariant_factors: List[LaurentPoly],
                                 root) -> dict:
    """e_k(z): number of invariant factors with (t−z)-multiplicity exactly k."""
    if not isinstance(root, CycloNumber):
        root = CycloNumber.from_rational(root)
    out: dict = {}
    for f in invariant_factors:
        if normalize(f).is_constant():
            continue
        nu = vanishing_order(f, (root,))
        if nu > 0:
            out[nu] = out.get(nu, 0) + 1
    return out
