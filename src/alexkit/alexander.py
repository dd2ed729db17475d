"""Fox calculus, Alexander matrices, elementary ideals, and polynomials.

The matrix of abelianized Fox derivatives of the relators presents the
Alexander module; its minor ideals give the elementary ideals and their
gcds the Alexander polynomials.  Matrices may also be loaded directly
(matrix mode) for groups specified by an Alexander matrix alone.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from typing import List, NamedTuple, Optional, Sequence, Tuple

from . import DEGREE_CAP, AlexkitError, ProductMeter, check
from .intlinalg import AbelianStructure, abelianization
from .laurent import (LaurentPoly, _dup_exquo, _from_dense, _to_dense,
                      default_names, divides, exact_div_binomial, gcd_many,
                      normalize, parse_poly)
from .presentation import GroupPresentation, Word


class AlexanderMatrix(NamedTuple):
    """h x m matrix over the Laurent ring, with provenance: `presentation`
    and `abelian` are None for a matrix given directly.

    `entries` live in the torsion-free quotient variables (num_vars of them).
    `generator_entries` are what character evaluation uses: for a
    presentation, the Fox derivatives abelianized only by generator
    exponents (one variable per generator); in matrix mode, `entries`.
    """

    num_vars: int
    var_names: Tuple[str, ...]
    entries: List[List[LaurentPoly]]
    generator_entries: List[List[LaurentPoly]]
    presentation: Optional[GroupPresentation] = None
    abelian: Optional[AbelianStructure] = None

    @property
    def num_rows(self) -> int:
        return len(self.entries)

    @property
    def num_cols(self) -> int:
        return len(self.entries[0]) if self.entries else \
            self.presentation.num_generators

    def fox_identity_holds(self) -> bool:
        """Check sum_j entry(i,j)·(t^{phi(x_j)} − 1) = 0 for every row."""
        if self.presentation is None:
            raise AlexkitError("identity check applies to Fox matrices")
        phi = [tuple(row[j] for row in self.abelian.abf_projection)
               for j in range(self.presentation.num_generators)]
        for row in self.entries:
            acc: dict = {}
            for entry, v in zip(row, phi):
                for exp, c in entry.terms.items():
                    up = tuple(map(operator.add, exp, v))
                    acc[up] = acc.get(up, 0) + c
                    acc[exp] = acc.get(exp, 0) - c
            if any(acc.values()):
                return False
        return True


# -- Fox derivatives --------------------------------------------------------


def _fox_row(r: Word, m: int) -> List[LaurentPoly]:
    """Abelianized Fox derivatives of one relator, in m generator variables."""
    terms: List[dict] = [{} for _ in range(m)]
    prefix = [0] * m  # exponent vector of the prefix, abelianized
    for g, e in r.letters:
        acc = terms[g]
        # x^e contributes 1 + x + ... + x^(e-1), x^-e contributes
        # -(x^-1 + ... + x^-e), each shifted by the prefix
        sign, ks = (1, range(e)) if e > 0 else (-1, range(-1, e - 1, -1))
        exp = list(prefix)
        for k in ks:
            exp[g] = prefix[g] + k
            key = tuple(exp)
            acc[key] = acc.get(key, 0) + sign
        prefix[g] += e
    return [LaurentPoly(m, t) for t in terms]


def _substitute_monomials(f: LaurentPoly,
                          projection: Sequence[Sequence[int]]) -> LaurentPoly:
    """Push exponent vectors through an integer matrix (variable change)."""
    n = len(projection)
    out = {}
    for exp, c in f.terms.items():
        new = tuple(sum(map(operator.mul, row, exp)) for row in projection)
        out[new] = out.get(new, 0) + c
    return LaurentPoly(n, out)


def fox_matrix(p: GroupPresentation) -> AlexanderMatrix:
    """The Alexander matrix of a presentation over the torsion-free quotient;
    when its projection is the identity, the generator rows are the
    entries.  The relators' word length, one Fox term per unit of
    exponent, must be within `DEGREE_CAP`."""
    check("Fox word length",
          sum(abs(e) for r in p.relators for _, e in r.letters), DEGREE_CAP)
    ab = abelianization(p)
    m = p.num_generators
    gen_rows = [_fox_row(r, m) for r in p.relators]
    identity = tuple(tuple(int(i == j) for j in range(m)) for i in range(m))
    rows = gen_rows if ab.abf_projection == identity else [
        [_substitute_monomials(e, ab.abf_projection) for e in row]
        for row in gen_rows]
    mat = AlexanderMatrix(
        num_vars=ab.rank,
        var_names=tuple(default_names(ab.rank)),
        entries=rows,
        presentation=p,
        abelian=ab,
        generator_entries=gen_rows,
    )
    if not mat.fox_identity_holds():
        raise AlexkitError("Fox fundamental identity failed (internal bug)")
    return mat


def load_matrix(var_names: Sequence[str],
                rows: Sequence[Sequence[str]]) -> AlexanderMatrix:
    """Matrix-mode input: a grid of polynomial expressions.

    The Fox identity is not required (and not checked); the missing
    presentation records the unverified provenance.
    """
    names = tuple(var_names)
    if len(set(names)) != len(names):
        raise AlexkitError(f"duplicate variable names in {list(names)}")
    for name in names:
        # the names parse_poly can read as a variable, not as a number
        if not re.fullmatch(r"[A-Za-z][A-Za-z0-9_]*", name):
            raise AlexkitError(f"bad variable name {name!r}")
    parsed: List[List[LaurentPoly]] = []
    width = None
    for row in rows:
        cur = [parse_poly(text, names) if isinstance(text, str) else text
               for text in row]
        if width is None:
            width = len(cur)
        elif len(cur) != width:
            raise AlexkitError("ragged rows in matrix input")
        parsed.append(cur)
    if not width:
        raise AlexkitError("matrix input needs at least one row and column")
    return AlexanderMatrix(
        num_vars=len(names),
        var_names=names,
        entries=parsed,
        generator_entries=parsed,
    )


# -- minors and elementary ideals -------------------------------------------


def _row_minors(rows: List[List[LaurentPoly]], n: int,
                meter: ProductMeter) -> dict:
    """The nonzero maximal minors of a k x m matrix (1 <= k <= m), keyed by
    the bitmask of their columns.

    Laplace expansion along the rows, bottom up and memoized over column
    subsets: the minors on the last r rows, plain term dicts, are built
    from those on the last r - 1, each once (2^m at most, not k!).  Each
    level is first charged Σ_c terms(entry c) × Σ_mask terms(sub-minor),
    at the largest coefficients of the row and of the level below.
    """
    level = {1 << c: e.terms for c, e in enumerate(rows[-1]) if e.terms}
    values = [abs(c) for t in level.values() for c in t.values()]
    size, top = len(values), max(values, default=0)
    for row in reversed(rows[:-1]):
        live = [(1 << c, e.terms) for c, e in enumerate(row) if e.terms]
        values = [abs(c) for _, t in live for c in t.values()]
        meter.charge(len(values), size, max(values, default=0), top)
        sums: dict = {}
        for bit, entry in live:
            for mask, sub in level.items():
                if mask & bit:
                    continue
                # sign of the column bit's position within mask|bit
                negative = (mask & (bit - 1)).bit_count() & 1
                acc = sums.setdefault(mask | bit, {})
                for e1, c1 in entry.items():
                    if negative:
                        c1 = -c1
                    for e2, c2 in sub.items():
                        e = tuple(map(operator.add, e1, e2))
                        acc[e] = acc.get(e, 0) + c1 * c2
        level, size, top = {}, 0, 0
        for mask, acc in sums.items():
            acc = {e: c for e, c in acc.items() if c}
            if acc:
                level[mask] = acc
                size += len(acc)
                top = max(top, max(map(abs, acc.values())))
    return {mask: LaurentPoly(n, acc) for mask, acc in level.items()}


def elementary_ideal_minors(mat: AlexanderMatrix, i: int) -> List[LaurentPoly]:
    """Generators (all minors of size m−i) of the i-th elementary ideal.

    Conventions: [1] when i ≥ m (ideal is the whole ring), [0] when the
    minor size exceeds the number of rows (zero ideal).
    """
    if i < 0:
        raise AlexkitError("elementary ideal index must be nonnegative")
    n, h, m = mat.num_vars, mat.num_rows, mat.num_cols
    size = m - i
    if size <= 0:
        return [LaurentPoly.one(n)]
    if size > h:
        return [LaurentPoly.zero(n)]
    meter = ProductMeter()  # a term product per entry and minor a subset reads
    meter.charge(math.comb(h, size), size * m + math.comb(m, size))
    zero = LaurentPoly.zero(n)
    out = []
    for rsel in itertools.combinations(range(h), size):
        minors = _row_minors([mat.entries[r] for r in rsel], n, meter)
        for csel in itertools.combinations(range(m), size):
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
        raise AlexkitError("alexander_poly index must be >= 1")
    if i == 1 and mat.presentation is not None and mat.num_vars >= 1 \
            and 1 <= mat.num_cols - 1 <= mat.num_rows:
        return _fox_delta1(mat)
    return gcd_many(elementary_ideal_minors(mat, i))


def _fox_delta1(mat: AlexanderMatrix) -> LaurentPoly:
    """Δ₁ from one maximal minor per row subset (see alexander_poly)."""
    n, m = mat.num_vars, mat.num_cols
    phi = list(zip(*mat.abelian.abf_projection))
    j = next(k for k in range(m) if any(phi[k]))
    keep = [c for c in range(m) if c != j]
    meter = ProductMeter()  # a term product per entry a subset copies
    meter.charge(math.comb(mat.num_rows, m - 1), (m - 1) ** 2)
    quotients = []
    for rsel in itertools.combinations(range(mat.num_rows), m - 1):
        minor = _row_minors([[mat.entries[r][c] for c in keep] for r in rsel],
                            n, meter).get((1 << (m - 1)) - 1,
                                          LaurentPoly.zero(n))
        if n == 1:
            minor = minor * (LaurentPoly.var(1, 0) - 1)
        q = exact_div_binomial(minor, phi[j])
        if q is None:
            raise AlexkitError(
                "Fox identity division was not exact (internal bug)")
        quotients.append(q)
    return gcd_many(quotients)


# -- generic ranks ----------------------------------------------------------


def generic_rank_mod(mat: AlexanderMatrix, f: LaurentPoly) -> int:
    """Largest k such that some k x k minor of the matrix is not divisible
    by f (the rank at the generic point of V(f) for irreducible f).
    """
    if f.is_zero() or f.is_unit() or normalize(f).is_constant():
        raise AlexkitError("generic_rank_mod needs a nonzero non-unit f")
    m = mat.num_cols
    for k in range(min(mat.num_rows, m), 0, -1):
        if any(not divides(f, minor)
               for minor in elementary_ideal_minors(mat, m - k)):
            return k
    return 0


# -- univariate invariant factors -------------------------------------------


def univariate_invariant_factors(mat: AlexanderMatrix) -> List[LaurentPoly]:
    """Nonzero invariant factors over Q[t^±], ordered by divisibility.

    Over this PID the k-th invariant factor is d_k / d_(k−1), where the
    determinantal divisor d_k is the gcd of the k x k minors and d_0 = 1.
    Every k x k minor expands in (k−1) x (k−1) ones, so d_(k−1) divides
    d_k in Z[t^±]: each quotient has integer coefficients, and their
    product is d_r for the rank r, the last k with d_k ≠ 0.  Both are
    canonical, so the quotient is taken in Z[u] (`_dup_exquo`).
    """
    if mat.num_vars != 1:
        raise AlexkitError("invariant factors require a univariate matrix")
    m = mat.num_cols
    out: List[LaurentPoly] = []
    prev = (1,)
    for k in range(1, min(mat.num_rows, m) + 1):
        d = gcd_many(elementary_ideal_minors(mat, m - k))
        if d.is_zero():
            break
        d = _to_dense(d)
        out.append(_from_dense(_dup_exquo(d, prev), (1,)))
        prev = d
    return out


def elementary_divisor_exponents(invariant_factors: List[LaurentPoly],
                                 p: Tuple[int, ...]) -> dict:
    """e_k(p): the number of invariant factors in which p has exponent
    exactly k ≥ 1, for p in Z[u] dense, primitive and irreducible, as the
    `essential` record of a factor holds it.  Being primitive, p^k divides
    f in Q[u] exactly when it does in Z[u] (Gauss), so the exponent is the
    count of exact divisions (`_dup_exquo`); being irreducible, p is
    separable, so that exponent is the multiplicity of each root of p."""
    out: dict = {}
    for f in invariant_factors:
        q, k = _to_dense(f), 0
        while (q := _dup_exquo(q, p)) is not None:
            k += 1
        if k:
            out[k] = out.get(k, 0) + 1
    return out
