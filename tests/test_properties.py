"""Randomized property suites with fixed seeds."""

import itertools
import random
from fractions import Fraction

from alexkit.alexander import (_det, _row_minors, alexander_poly,
                               delta_chain, elementary_ideal_minors,
                               fox_matrix)
from alexkit.cyclofield import CycloNumber, cyclotomic_poly, rank_over_field
from alexkit.intlinalg import smith_normal_form
from alexkit.laurent import (LaurentPoly, associates, cyclotomic_factor,
                             divides, exact_div, exact_div_binomial, gcd,
                             gcd_many, multiplicity, newton_vertices,
                             normalize, parse_poly, sev_decompose,
                             vanishing_order)
from alexkit.presentation import (GroupPresentation, free_reduce_letters,
                                  word)


def random_word(rng, num_gens, max_len=6):
    letters = [(rng.randrange(num_gens), rng.choice([-2, -1, 1, 2]))
               for _ in range(rng.randrange(1, max_len + 1))]
    return free_reduce_letters(tuple(letters))


def random_presentation(rng):
    m = rng.randrange(1, 4)
    names = tuple(f"x{i + 1}" for i in range(m))
    relators = []
    for _ in range(rng.randrange(0, 4)):
        w = random_word(rng, m)
        if not w.is_empty():
            relators.append(w)
    return GroupPresentation(names, tuple(relators))


def test_fox_identity_random_presentations():
    rng = random.Random(20240901)
    for _ in range(200):
        p = random_presentation(rng)
        mat = fox_matrix(p)  # raises if the identity fails
        assert mat.fox_identity_holds()


def test_delta_chain_divisibility_random():
    rng = random.Random(20240902)
    checked = 0
    while checked < 30:
        p = random_presentation(rng)
        if p.num_relators == 0 or p.num_generators > 2:
            continue
        mat = fox_matrix(p)
        chain = delta_chain(mat, mat.num_cols)
        for a, b in zip(chain, chain[1:]):
            if not b.is_zero() and not a.is_zero():
                assert divides(b, a)
        checked += 1


def _conjugate_move(rng, p):
    i = rng.randrange(p.num_relators)
    w = random_word(rng, p.num_generators, 3)
    new = w * p.relators[i] * w.inverse()
    return GroupPresentation(p.generator_names, p.relators + (new,))


def _add_generator_move(rng, p):
    # the defining word is a commutator, so the abelianized basis is stable
    a = random_word(rng, p.num_generators, 2)
    b = random_word(rng, p.num_generators, 2)
    w = a * b * a.inverse() * b.inverse()
    g = p.num_generators
    new_rel = word(((g, 1),)) * w.inverse()
    relators = tuple(r for r in p.relators) + (new_rel,)
    return GroupPresentation(p.generator_names + (f"x{g + 1}",), relators)


def test_tietze_moves_preserve_delta():
    rng = random.Random(20240903)
    base = GroupPresentation(
        ("x1", "x2", "x3"),
        (word(((0, 1), (1, 1), (2, 1), (0, 1), (2, -1), (1, -1), (0, -2))),
         word(((0, 1), (1, 1), (2, 1), (1, 1), (2, -1), (1, -2), (0, -1)))))
    d0 = alexander_poly(fox_matrix(base))
    for _ in range(50):
        if rng.random() < 0.6:
            moved = _conjugate_move(rng, base)
        else:
            moved = _add_generator_move(rng, base)
        d1 = alexander_poly(fox_matrix(moved))
        # the abelianized basis is only defined up to a unimodular change;
        # our pipeline at most permutes the variables here
        assert any(associates(_permute_vars(d1, perm), d0)
                   for perm in itertools.permutations(range(3)))


def _permute_vars(f, perm):
    return LaurentPoly(f.nvars, {tuple(exp[perm[i]] for i in range(f.nvars)):
                                 c for exp, c in f.terms.items()})


def test_snf_random_matrices():
    rng = random.Random(20240904)

    def det(m):
        if len(m) == 1:
            return m[0][0]
        return sum((-1) ** i * m[i][0] *
                   det([r[1:] for j, r in enumerate(m) if j != i])
                   for i in range(len(m)))

    for _ in range(200):
        rows = rng.randrange(1, 6)
        cols = rng.randrange(1, 6)
        m = [[rng.randrange(-9, 10) for _ in range(cols)]
             for _ in range(rows)]
        u, d, v = smith_normal_form(m)
        assert abs(det(u)) == 1
        assert abs(det(v)) == 1
        prod = [[sum(u[i][k] * m[k][j] for k in range(rows))
                 for j in range(cols)] for i in range(rows)]
        prod = [[sum(prod[i][k] * v[k][j] for k in range(cols))
                 for j in range(cols)] for i in range(rows)]
        assert prod == d
        diag = [d[i][i] for i in range(min(rows, cols))]
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert d[i][j] == 0
        nonzero = [x for x in diag if x]
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0
        assert all(x >= 0 for x in diag)


def random_poly(rng, nvars, max_terms=4):
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        exp = tuple(rng.randrange(-2, 3) for _ in range(nvars))
        terms[exp] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
    return LaurentPoly(nvars, terms)


def test_gcd_axioms_random():
    rng = random.Random(20240905)
    for _ in range(200):
        nvars = rng.randrange(1, 3)
        f = random_poly(rng, nvars)
        g = random_poly(rng, nvars)
        h = random_poly(rng, nvars, 2)
        d = gcd(f, g)
        assert divides(d, f) and divides(d, g)
        lhs = gcd(f * h, g * h)
        rhs = normalize(d * h)
        assert associates(lhs, rhs)


def test_vanishing_order_additivity():
    rng = random.Random(20240906)
    roots = [CycloNumber.from_rational(1), CycloNumber.from_rational(-1),
             CycloNumber.root_of_unity(3, 1), CycloNumber.root_of_unity(4, 1),
             CycloNumber.root_of_unity(6, 1)]
    for _ in range(100):
        nvars = rng.randrange(1, 3)
        f = random_poly(rng, nvars, 3)
        g = random_poly(rng, nvars, 3)
        point = tuple(rng.choice(roots) for _ in range(nvars))
        assert vanishing_order(f * g, point) == \
            vanishing_order(f, point) + vanishing_order(g, point)


def test_multiplicity_random():
    rng = random.Random(20240907)
    checked = 0
    while checked < 50:
        f = random_poly(rng, 1, 2)
        g = random_poly(rng, 1, 2)
        if f.is_zero() or f.is_unit() or normalize(f).is_constant():
            continue
        if g.is_zero() or divides(f, g):
            continue
        k = rng.randrange(0, 4)
        assert multiplicity(f, f ** k * g) == k
        checked += 1


def test_sev_matches_collinearity_oracle():
    rng = random.Random(20240908)
    for _ in range(100):
        nvars = rng.randrange(2, 4)
        f = random_poly(rng, nvars, 3)
        if f.is_zero() or f.is_unit() or len(f.terms) == 1:
            continue
        support = list(f.terms)
        base = support[0]
        diffs = [tuple(a - b for a, b in zip(e, base)) for e in support[1:]]
        collinear = True
        for d1, d2 in itertools.combinations(diffs, 2):
            for i, j in itertools.combinations(range(nvars), 2):
                if d1[i] * d2[j] != d1[j] * d2[i]:
                    collinear = False
        result = sev_decompose(f)
        assert (result is not None) == collinear
        if result is not None:
            p, e = result
            # reassemble P(t^e) and compare up to units
            acc = LaurentPoly.zero(nvars)
            for (k,), c in p.terms.items():
                acc = acc + LaurentPoly.monomial(
                    tuple(k * x for x in e), c)
            assert associates(acc, f)


def test_cyclotomic_recognition():
    for m in range(1, 31):
        phi = cyclotomic_poly(m)
        c, cyclo, res = cyclotomic_factor(phi)
        assert c == 1
        assert cyclo == [(m, 1)]
        assert normalize(res).is_constant()
    for text in ("t-2", "t^2-3"):
        c, cyclo, res = cyclotomic_factor(parse_poly(text, ("t",)))
        assert cyclo == []
        assert associates(res, parse_poly(text, ("t",)))


def test_rank_over_field_matches_brute_minors():
    rng = random.Random(20240909)
    z12 = CycloNumber.root_of_unity(12, 1)
    pool = [CycloNumber.from_rational(0), CycloNumber.from_rational(1),
            CycloNumber.from_rational(-1), z12, z12 ** 5,
            z12 ** 4, z12 ** 3, CycloNumber.from_rational(2)]

    def det(mat):
        if len(mat) == 1:
            return mat[0][0]
        acc = CycloNumber.from_rational(0)
        sign = 1
        for i in range(len(mat)):
            minor = [r[1:] for j, r in enumerate(mat) if j != i]
            term = mat[i][0] * det(minor)
            acc = acc + term if sign > 0 else acc - term
            sign = -sign
        return acc

    def brute_rank(mat):
        rows, cols = len(mat), len(mat[0])
        for k in range(min(rows, cols), 0, -1):
            for rsel in itertools.combinations(range(rows), k):
                for csel in itertools.combinations(range(cols), k):
                    sub = [[mat[r][c] for c in csel] for r in rsel]
                    if not det(sub).is_zero():
                        return k
        return 0

    for _ in range(40):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        mat = [[rng.choice(pool) for _ in range(cols)] for _ in range(rows)]
        assert rank_over_field(mat) == brute_rank(mat)


def _fox_oracle_presentation(rng):
    """A presentation with m generators and m - 2 .. m + 1 relators, mixing
    commutators (which keep b1), random words and generator powers (which
    give torsion or a generator with phi = 0)."""
    m = rng.randrange(2, 5)
    h = max(0, m + rng.randrange(-2, 2))
    relators = []
    while len(relators) < h:
        kind = rng.random()
        if kind < 0.45:
            a = random_word(rng, m, 2)
            b = random_word(rng, m, 2)
            w = a * b * a.inverse() * b.inverse()
        elif kind < 0.85:
            w = random_word(rng, m, 5)
        else:
            w = word(((rng.randrange(m), rng.randrange(1, 4)),))
        if not w.is_empty():
            relators.append(w)
    names = tuple(f"x{i + 1}" for i in range(m))
    return GroupPresentation(names, tuple(relators))


def test_fox_delta1_matches_gcd_of_minors():
    rng = random.Random(20241001)
    seen = set()
    for _ in range(240):
        mat = fox_matrix(_fox_oracle_presentation(rng))
        ab = mat.abelian
        seen.add(("b1", min(mat.num_vars, 2)))
        seen.add(("h-m", mat.num_rows - mat.num_cols))
        if ab.torsion:
            seen.add("torsion")
        if mat.num_vars and any(not any(col) for col in
                                zip(*ab.abf_projection)):
            seen.add("phi=0")
        oracle = gcd_many(elementary_ideal_minors(mat, 1))
        assert alexander_poly(mat) == oracle
        if mat.num_vars and 1 <= mat.num_cols - 1 <= mat.num_rows \
                and not oracle.is_zero():
            seen.add(("fox path", mat.num_rows - mat.num_cols + 1))
    assert seen >= {("fox path", 0), ("fox path", 1), ("fox path", 2),
                    ("b1", 0), ("b1", 1), ("b1", 2), ("h-m", -2),
                    ("h-m", -1), ("h-m", 0), ("h-m", 1), "torsion", "phi=0"}


def test_binomial_division_matches_exact_div():
    rng = random.Random(20241002)
    vectors = [(2,), (-3,), (1, -1), (2, -2), (-2, 4), (0, 3), (1, -2, 2),
               (0, -2, 0)]
    inexact = 0
    for _ in range(200):
        v = rng.choice(vectors)
        n = len(v)
        f = random_poly(rng, n)
        binomial = LaurentPoly.monomial(v) - 1
        product = f * binomial
        assert exact_div_binomial(product, v) == exact_div(product, binomial)
        assert exact_div_binomial(product, v) == f
        g = product + random_poly(rng, n, 2)
        expected = exact_div(g, binomial)
        assert exact_div_binomial(g, v) == expected
        inexact += expected is None
    assert inexact > 100
    assert exact_div_binomial(LaurentPoly.zero(2), (1, 2)).is_zero()
    assert exact_div_binomial(parse_poly("t^4 - 1", ("t",)), (2,)) == \
        parse_poly("t^2 + 1", ("t",))
    assert exact_div_binomial(parse_poly("t^4 - 1", ("t",)), (3,)) is None


def _cofactor_det(rows):
    """Determinant by recursive cofactor expansion down the first column."""
    k = len(rows)
    n = rows[0][0].nvars
    if k == 1:
        return rows[0][0]
    acc = LaurentPoly.zero(n)
    for i in range(k):
        if rows[i][0].is_zero():
            continue
        minor = [r[1:] for j, r in enumerate(rows) if j != i]
        term = rows[i][0] * _cofactor_det(minor)
        acc = acc + term if i % 2 == 0 else acc - term
    return acc


def test_memoized_det_matches_cofactor_expansion():
    rng = random.Random(20241003)
    for _ in range(120):
        k = rng.randrange(1, 6)
        width = rng.randrange(k, 6)
        n = rng.randrange(1, 3)
        rows = [[random_poly(rng, n, 3) if rng.random() < 0.7
                 else LaurentPoly.zero(n) for _ in range(width)]
                for _ in range(k)]
        square = [r[:k] for r in rows]
        assert _det(square, n) == _cofactor_det(square)
        minors = _row_minors(rows, n)
        for csel in itertools.combinations(range(width), k):
            mask = sum(1 << c for c in csel)
            expected = _cofactor_det([[r[c] for c in csel] for r in rows])
            assert minors.get(mask, LaurentPoly.zero(n)) == expected
