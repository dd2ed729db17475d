"""Randomized property suites with fixed seeds."""

import functools
import itertools
import math
import operator
import os
import random
from fractions import Fraction

import pytest
import sympy

from alexkit import (CONDUCTOR_CAP, AlexkitError, ComputationCapError,
                     ProductMeter, alexander, laurent)
from alexkit.alexander import (_row_minors, alexander_poly,
                               elementary_divisor_exponents,
                               elementary_ideal_minors, fox_matrix,
                               univariate_invariant_factors)
from alexkit.cyclofield import (Character, cyclotomic_poly, parse_character,
                                rank, vanishing_order)
from alexkit.intlinalg import abelianization
from alexkit.jumploci import (MonodromyReport, RootEquality, _charpoly,
                              _factor_root, monodromy_analysis,
                              twisted_betti)
from alexkit.laurent import (FactoredPoly, LaurentPoly,
                             _coprime,
                             _cyclotomic_exponents, _cyclotomic_part,
                             _directions, _divisors, _dup_exquo, _dup_mul,
                             _from_dense,
                             _from_ring,
                             _ring, _isprime,
                             _fibers, _order_bound, _phi_coeffs,
                             _split_directions, _to_dense,
                             _to_ring, _unfibers,
                             associates, default_names, divides,
                             exact_div_binomial, factor_poly, gcd_many,
                             normalize, parse_poly)
from alexkit.obstruct import CONSISTENT, OBSTRUCTED, QPVerdict, qp_verdict
from alexkit.presentation import (GroupPresentation, free_reduce_letters,
                                  parse_presentation)
from alexkit.seifert import SpliceData, seifert_delta

from conftest import (DATA, character, check_smith_form, load_presentation,
                      mul_mod_phi, multiplicity, reduce_mod_phi, reduced,
                      value_at, vanishes, word)


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
        chain = [alexander_poly(mat, i)
                 for i in range(1, mat.num_cols + 1)]
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
    """Sympy's Smith form is the oracle for D, and V and W stay small: a
    reduction that swapped each remainder in place reached entries of
    90774 bits, and ran for seconds, on matrices of this size."""
    rng = random.Random(20240904)
    for _ in range(300):
        rows = rng.randrange(1, 8)
        cols = rng.randrange(1, 8)
        _, v, w = check_smith_form([[rng.randrange(-18, 19)
                                     for _ in range(cols)]
                                    for _ in range(rows)])
        assert all(abs(x).bit_length() <= 128 for row in v + w for x in row)


def random_poly(rng, nvars, max_terms=4):
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        exp = tuple(rng.randrange(-2, 3) for _ in range(nvars))
        terms[exp] = rng.choice([-3, -2, -1, 1, 2, 3])
    return LaurentPoly(nvars, terms)


@functools.lru_cache(maxsize=None)
def _q_ring(nvars):
    """sympy's sparse ring Q[x_0..x_(n−1)], lex order."""
    return sympy.polys.rings.PolyRing(f"x:{nvars}", sympy.QQ,
                                      sympy.polys.orderings.lex)


def _quotient_over_q(f, g):
    """The terms {exponent: Fraction} of f / g when g ≠ 0 divides f in
    Q[t^±], else None: the oracle of every exact division, by sympy's
    division over Q of f and g, each moved to nonnegative exponents with
    some exponent of each variable 0 (then g divides f in Q[t^±] iff it
    does so in Q[t])."""
    ring = _q_ring(f.nvars)

    def shifted(h):
        low = [min(col) for col in zip(*h.terms)] if h.terms \
            else [0] * h.nvars
        return low, ring.from_dict({tuple(map(operator.sub, e, low)): c
                                    for e, c in h.terms.items()})

    (low_f, pf), (low_g, pg) = shifted(f), shifted(g)
    q, r = pf.div(pg)
    if r:
        return None
    return {tuple(e + a - b for e, a, b in zip(monom, low_f, low_g)):
            Fraction(int(c.numerator), int(c.denominator))
            for monom, c in q.items()}


def test_gcd_axioms_random():
    rng = random.Random(20240905)
    for _ in range(200):
        nvars = rng.randrange(1, 3)
        f = random_poly(rng, nvars)
        g = random_poly(rng, nvars)
        h = random_poly(rng, nvars, 2)
        d = gcd_many([f, g])
        assert divides(d, f) and divides(d, g)
        lhs = gcd_many([f * h, g * h])
        rhs = normalize(d * h)
        assert associates(lhs, rhs)


def test_vanishing_order_additivity():
    rng = random.Random(20240906)
    roots = [1, -1, "zeta3", "zeta4", "zeta6"]
    for _ in range(100):
        nvars = rng.randrange(1, 3)
        f = random_poly(rng, nvars, 3)
        g = random_poly(rng, nvars, 3)
        point = character(*(rng.choice(roots) for _ in range(nvars)))
        assert vanishing_order(f * g, point) == \
            vanishing_order(f, point) + vanishing_order(g, point)


def _add(x: tuple, y: tuple) -> tuple:
    return tuple(a + b for a, b in zip(x, y))


def _sub(x: tuple, y: tuple) -> tuple:
    return tuple(a - b for a, b in zip(x, y))


def _values(chi: Character):
    """The values q·ζ_N^k of chi as coefficient tuples at its conductor N."""
    return [reduce_mod_phi([0] * k + [q], chi.conductor)
            for q, k in zip(chi.scales, chi.exps)]


def _powers(x: tuple, e: int, n: int):
    """[x^0, x^1, ..., x^e] in Q(ζ_n) by repeated multiplication."""
    out = [reduce_mod_phi([1], n)]
    for _ in range(e):
        out.append(mul_mod_phi(out[-1], x, n))
    return out


# the oracle's own guard: the expansion grows with the total degree
TOTAL_DEGREE_CAP = 64


def _expansion_order(f: LaurentPoly, point: Character) -> int:
    """ν_ρ(f) as the minimal total z-degree of f(ρ + z): the definition,
    kept as the oracle for `vanishing_order`."""
    if f.is_zero():
        raise AlexkitError("vanishing order of the zero polynomial")
    if f.total_degree() > TOTAL_DEGREE_CAP:
        raise ComputationCapError(
            f"total degree {f.total_degree()} exceeds cap {TOTAL_DEGREE_CAP}")
    if len(point) != f.nvars:
        raise AlexkitError("point has wrong number of coordinates")
    n = point.conductor
    vals = _values(point)

    def const(c):
        return reduce_mod_phi([c], n)

    # a unit times f, with nonnegative exponents: the order does not change
    fs = normalize(f)
    # expand f(rho + z) term by term; coefficients indexed by z-exponents
    out: dict = {}
    for exp, c in fs.terms.items():
        # product over i of (rho_i + z_i)^{exp_i}
        partial = {(0,) * f.nvars: const(c)}
        for i, e in enumerate(exp):
            if e == 0:
                continue
            powers = _powers(vals[i], e, n)[::-1]
            new: dict = {}
            for zexp, coeff in partial.items():
                for k in range(e + 1):
                    binom = math.comb(e, k)
                    ze = list(zexp)
                    ze[i] += k
                    key = tuple(ze)
                    add = mul_mod_phi(mul_mod_phi(powers[k], coeff, n),
                                      const(binom), n)
                    new[key] = _add(new[key], add) if key in new else add
            partial = new
        for key, v in partial.items():
            out[key] = _add(out[key], v) if key in out else v
    degrees = [sum(k) for k, v in out.items() if any(v)]
    if not degrees:
        raise AlexkitError("internal error: expansion vanished identically")
    return min(degrees)


def _rational_power(n, coords, e):
    """ρ^e when it is rational, else None, for ρ_i = q_i·ζ_n^{k_i} given as
    the pairs (q_i, k_i)."""
    j = sum(k * x for (_, k), x in zip(coords, e)) % n
    if 2 * j % n:
        return None
    return (-1 if j else 1) * math.prod(
        Fraction(q) ** x for (q, _), x in zip(coords, e))


def test_vanishing_order_matches_expansion_oracle():
    """Points of conductor 1, 2, 3, 4, 5 and 12, scaled by the rationals 2
    and −1/3; f is a product of binomials b·t^e − a with a/b = ρ^e, which
    vanish at ρ, with a generic factor, and has negative exponents."""
    rng = random.Random(20241018)
    small = {nvars: [e for e in itertools.product(range(-6, 7), repeat=nvars)
                     if 0 < sum(map(abs, e)) <= 6] for nvars in (1, 2, 3)}
    seen = set()
    for _ in range(300):
        nvars = rng.randrange(1, 4)
        n = rng.choice((1, 2, 3, 4, 5, 12))
        coords = [(rng.choice((1, 1, 2, Fraction(-1, 3))), rng.randrange(n))
                  for _ in range(nvars)]
        point = Character(n, tuple(q for q, _ in coords),
                          tuple(k for _, k in coords))
        binomials = [c.denominator * LaurentPoly.monomial(e) - c.numerator
                     for e in small[nvars]
                     if (c := _rational_power(n, coords, e)) is not None]
        f = random_poly(rng, nvars, 3)
        for _ in range(rng.randrange(4)):
            f = f * rng.choice(binomials)
        nu = vanishing_order(f, point)
        assert nu == _expansion_order(f, point)
        seen.add(nu)
    assert seen >= {0, 1, 2, 3}


def _product_evaluate(f: LaurentPoly, n, coords) -> tuple:
    """f(ρ) for ρ_i = q_i·ζ_n^{k_i}, given as the pairs (q_i, k_i), as
    Σ c·∏ ρ_i^{e_i} with one product in Q(ζ_n) per unit of each exponent
    and ρ_i^{-1} = q_i^{-1}·ζ_n^{-k_i} built directly: the definition,
    kept as the oracle for the values that `cyclofield.rank` reads."""
    rho = [reduce_mod_phi([0] * k + [q], n) for q, k in coords]
    rho_inv = [reduce_mod_phi([0] * (-k % n) + [1 / Fraction(q)], n)
               for q, k in coords]
    acc = reduce_mod_phi([], n)
    for exp, c in f.terms.items():
        term = reduce_mod_phi([c], n)
        for r, r_inv, e in zip(rho, rho_inv, exp):
            for _ in range(abs(e)):
                term = mul_mod_phi(term, r if e > 0 else r_inv, n)
        acc = _add(acc, term)
    return acc


def test_evaluate_matches_product_oracle():
    rng = random.Random(20261019)
    seen = set()
    for _ in range(300):
        nvars = rng.randrange(1, 4)
        n = rng.choice((1, 2, 12, 60, 211, 240))
        coords = [(rng.choice((1, -1, 2, Fraction(-1, 3))), rng.randrange(n))
                  for _ in range(nvars)]
        chi = Character(n, tuple(q for q, _ in coords),
                        tuple(k for _, k in coords))
        f = LaurentPoly(nvars, {
            tuple(rng.randrange(-5, 6) for _ in range(nvars)):
            rng.randrange(-6, 7)
            for _ in range(rng.randrange(1, 6))})
        want = _product_evaluate(f, n, coords)
        value = value_at(f, chi)
        assert vanishes(value, n) == (not any(want))
        assert vanishes(value + [(-c, i) for i, c in enumerate(want)], n)
        seen.add((n, not any(want)))
    assert {n for n, _ in seen} == {1, 2, 12, 60, 211, 240}
    assert any(zero for _, zero in seen)


def _pull_oracle(chi: Character, vectors) -> Character:
    """ρ^e for each exponent vector e, one scale at a time: the former
    `Character.pull`, kept as the oracle for `Character.residues`."""
    scales, exps = [], []
    for e in vectors:
        assert len(e) == len(chi.exps)
        scale = 1
        for q, x in zip(chi.scales, e):
            scale *= Fraction(q) ** x
        scales.append(scale)
        exps.append(sum(k * x for k, x in zip(chi.exps, e)))
    return Character(chi.conductor, tuple(scales), tuple(exps))


def _bucket_sum_oracle(coeffs, values: Character) -> tuple:
    """Σ_j c_j·q_j·ζ_N^(k_j) in N buckets reduced mod Φ_N once: the former
    `cyclofield._bucket_sum`, kept as the oracle for the zero test."""
    buckets = [0] * values.conductor
    for c, q, k in zip(coeffs, values.scales, values.exps):
        buckets[k] += c * q
    return tuple(map(laurent._rational,
                     reduce_mod_phi(buckets, values.conductor)))


def _bucket_vanishing_order(f: LaurentPoly, point: Character) -> int:
    """ν_ρ(f) from Euler derivatives, each one bucket sum over the pulled
    monomials: the former `vanishing_order`, kept as its oracle."""
    values = _pull_oracle(point, f.terms)
    for k in itertools.count():
        for idx in itertools.combinations_with_replacement(range(f.nvars), k):
            if any(_bucket_sum_oracle(
                    (c * math.prod(e[i] for i in idx)
                     for e, c in f.terms.items()), values)):
                return k


# scales of the kernel oracles: integral, negative, non-integral
_KERNEL_SCALES = (1, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3),
                  Fraction(5, 4))


def _random_character(rng, nvars, conductors):
    n = rng.choice(conductors)
    return Character(n, tuple(rng.choice(_KERNEL_SCALES)
                              for _ in range(nvars)),
                     tuple(rng.randrange(n) for _ in range(nvars)))


def test_residue_kernel_matches_pull_and_bucket_sum():
    """`Character.residues`, `pull`, `trivial_on` and the zero test against
    the former one-scale-at-a-time pull and N-bucket sum, on random
    integer polynomials and characters of odd and even conductor with
    rational scales."""
    rng = random.Random(20261024)
    conductors = (1, 2, 3, 4, 5, 6, 12, 15, 60, 211, 240)
    seen = set()
    for _ in range(400):
        nvars = rng.randrange(1, 4)
        chi = _random_character(rng, nvars, conductors)
        f = LaurentPoly(nvars, {
            tuple(rng.randrange(-4, 5) for _ in range(nvars)):
            rng.randrange(-6, 7)
            for _ in range(rng.randrange(1, 7))})
        pulled = _pull_oracle(chi, f.terms)
        assert chi.pull(f.terms) == pulled
        residues, scales = chi.residues(f.terms)
        assert residues == list(pulled.exps)
        assert (scales is None) == all(q == 1 for q in chi.scales)
        assert chi.trivial_on(f.terms) == pulled.is_trivial()
        want = _bucket_sum_oracle(f.terms.values(), pulled)
        value = value_at(f, chi)
        assert vanishes(value, chi.conductor) == (not any(want))
        assert vanishes(value + [(-c, i) for i, c in enumerate(want)],
                       chi.conductor)
        seen.add((chi.conductor % 2, scales is None, not any(want)))
    assert {(parity, plain) for parity, plain, _ in seen} == \
        {(0, False), (0, True), (1, False), (1, True)}
    assert any(zero for _, _, zero in seen)


def test_vanishing_order_matches_bucket_path():
    """`vanishing_order` against the former pull-and-bucket loop, on
    products of binomials b·t^e − a with a/b = ρ^e and a random factor,
    at points of odd and even conductor with rational, negative and
    non-integral scales."""
    rng = random.Random(20261025)
    small = {nvars: [e for e in itertools.product(range(-4, 5), repeat=nvars)
                     if 0 < sum(map(abs, e)) <= 4] for nvars in (1, 2, 3)}
    seen = set()
    for _ in range(300):
        nvars = rng.randrange(1, 4)
        point = _random_character(rng, nvars, (1, 2, 3, 4, 6, 12, 15))
        coords = list(zip(point.scales, point.exps))
        binomials = [c.denominator * LaurentPoly.monomial(e) - c.numerator
                     for e in small[nvars]
                     if (c := _rational_power(point.conductor, coords, e))
                     is not None]
        f = random_poly(rng, nvars, 3)
        for _ in range(rng.randrange(4) if binomials else 0):
            f = f * rng.choice(binomials)
        nu = vanishing_order(f, point)
        assert nu == _bucket_vanishing_order(f, point)
        seen.add(nu)
    assert seen >= {0, 1, 2, 3}


def test_elementary_divisor_exponents_match_vanishing_orders():
    """The exact divisions that `elementary_divisor_exponents` counts
    against the `vanishing_order` of each invariant factor at a root of
    p: Φ_m at ζ_m, 2u − 1 at 1/2 and u − 2 at 2, on random lists of
    products of Φ_m^a (m ≤ 60), (2u − 1)^b, (u − 2)^c and u² − 3u + 1,
    with a, b, c ≤ 3."""
    rng = random.Random(20261035)
    roots = {(-1, 2): Character(1, (Fraction(1, 2),), (0,)),
             (-2, 1): Character(1, (2,), (0,))}
    roots.update({_phi_coeffs(m): Character(m, (1,), (1,))
                  for m in range(1, 61)})
    seen = set()
    for _ in range(60):
        factors = []
        for _ in range(rng.randrange(1, 4)):
            f = (rng.randrange(1, 4),)
            for m in rng.sample(range(1, 61), rng.randrange(4)):
                for _ in range(rng.randrange(1, 4)):
                    f = _dup_mul(f, _phi_coeffs(m))
            for p in ((-1, 2), (-2, 1), (1, -3, 1)):
                for _ in range(rng.randrange(4)):
                    f = _dup_mul(f, p)
            factors.append(_from_dense(f, (1,)))
        for p in rng.sample(sorted(roots), 12) + [(-1, 2), (-2, 1)]:
            want: dict = {}
            for f in factors:
                nu = vanishing_order(f, roots[p])
                if nu:
                    want[nu] = want.get(nu, 0) + 1
            assert elementary_divisor_exponents(factors, p) == want, p
            seen.update(want)
    assert seen >= {1, 2, 3}


def _relator_characters(rng, p, count):
    """Characters of p that respect its relators: pulled from random
    points of the torsion-free quotient, and random ones of small
    conductor kept when they pass the relator check."""
    ab = abelianization(p)
    m, out = p.num_generators, []
    columns = [[row[j] for row in ab.abf_projection] for j in range(m)]
    for _ in range(count):
        n = rng.choice((1, 2, 3, 4, 6, 12))
        if ab.rank and rng.random() < 0.6:
            y = Character(n, tuple(rng.choice((1, 1, 1, 2, -1, Fraction(1, 3)))
                                   for _ in range(ab.rank)),
                          tuple(rng.randrange(n) for _ in range(ab.rank)))
            out.append(y.pull(columns))
        else:
            chi = Character(n, (1,) * m, tuple(rng.randrange(n)
                                               for _ in range(m)))
            if chi.trivial_on(p.exponent_matrix()):
                out.append(chi)
    return out


def _pencil(n):
    """pencil_n = F_(n−1) × Z: relators [x1···xn, x_i] for i < n."""
    prod = " ".join(f"x{j + 1}" for j in range(n))
    inv = " ".join(f"x{j + 1}^-1" for j in reversed(range(n)))
    return parse_presentation(
        f"gens: {prod}\n" + "".join(f"rel: {prod} x{i + 1} {inv} x{i + 1}^-1\n"
                                    for i in range(n - 1)))


def test_twisted_betti_dropped_column_matches_full_rank():
    """b1 with one column left out, by Fox's identity, against the rank of
    the whole evaluated matrix: every `tests/data` presentation, pencils,
    torus knots and random presentations, at random characters and at
    characters on their jump loci (a product of values 1 on a pencil, a
    primitive pq-th root on T(p, q))."""
    rng = random.Random(20261026)
    cases = []
    for name in sorted(os.listdir(DATA)):
        if name.endswith(".grp"):
            p = load_presentation(name)
            cases.append((p, _relator_characters(rng, p, 16)))
    for n in (3, 4, 5):
        on = []
        for cond in (2, 3, 4, 6):
            ks = [rng.randrange(cond) for _ in range(n - 1)]
            on.append(Character(cond, (1,) * n, (*ks, -sum(ks))))
        p = _pencil(n)
        cases.append((p, on + _relator_characters(rng, p, 8)))
    for a, b in ((2, 3), (2, 5), (3, 4), (3, 5)):
        p = parse_presentation(f"gens: x y\nrel: x^{a} y^-{b}\n")
        on = [Character(a * b, (1, 1), (k * b, k * a))
              for k in range(1, a * b) if math.gcd(k, a * b) == 1]
        cases.append((p, on + _relator_characters(rng, p, 8)))
    for _ in range(60):
        p = _fox_oracle_presentation(rng)
        cases.append((p, _relator_characters(rng, p, 8)))
    seen = set()
    for p, chars in cases:
        mat = fox_matrix(p)
        for rho in chars:
            if rho.is_trivial():
                continue
            full = rank([[value_at(f, rho) for f in row]
                         for row in mat.generator_entries], rho.conductor)
            b1 = twisted_betti(mat, rho)
            assert b1 == mat.num_cols - 1 - full, (p, rho)
            seen.add(min(b1, 2))
    assert seen == {0, 1, 2}


def test_seifert_order_matches_brute_powers():
    for n in range(1, 61):
        for k in range(n):
            for q in (1, -1, 2, Fraction(-1, 2)):
                alpha = Character(n, (q,), (k,))
                brute = next((d for d in range(1, 2 * n + 1)
                              if alpha.pull([[d]]).is_trivial()), None)
                assert alpha.order() == brute


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


def sev_decompose(f: LaurentPoly):
    """The former library classifier, kept as the oracle of the direction
    and the image that `factor_poly` records: (P, e) with f ≐ P(t^e), P a
    canonical univariate polynomial and e a primitive direction with first
    nonzero entry positive, when the support of f is collinear; else None.
    """
    if f.is_zero() or len(f.terms) == 1:
        raise AlexkitError("sev_decompose needs a nonzero non-unit input")
    pts = f.support()
    directions = _directions(pts[0], pts)
    if len(directions) != 1:
        return None
    (e,) = directions
    idx = next(i for i, x in enumerate(e) if x != 0)
    uni = {((exp[idx] - pts[0][idx]) // e[idx],): c
           for exp, c in f.terms.items()}
    return normalize(LaurentPoly(1, uni)), e


def _totient_preimages(d: int) -> tuple:
    """Every m with φ(m) = d ≥ 1, ascending: the orders of the Φ_m of
    degree d, and the former library list of them.

    φ(∏ q^k) = ∏ (q − 1)·q^(k−1), so each prime q dividing such an m has
    (q − 1) | d.  The search takes those primes in increasing order, each
    with every exponent that leaves an integral rest of d to account for.
    """
    primes = [k + 1 for k in _divisors(d) if _isprime(k + 1)]
    out = []

    def search(start: int, rest: int, m: int) -> None:
        if rest == 1:
            out.append(m)
        for i in range(start, len(primes)):
            q = primes[i]
            if rest % (q - 1):
                continue
            rest_q, m_q = rest // (q - 1), m * q
            while True:
                search(i + 1, rest_q, m_q)
                if rest_q % q:
                    break
                rest_q, m_q = rest_q // q, m_q * q

    search(0, d, 1)
    return tuple(sorted(out))


def cyclotomic_order(p: LaurentPoly):
    """The former library recognizer, kept as the oracle of the order that
    `factor_poly` records: the m with p = Φ_m for a canonical univariate p,
    compared with every Φ_m of its degree, or None."""
    coeffs = _to_dense(p)
    if len(coeffs) == 1:
        return None
    return next((m for m in _totient_preimages(len(coeffs) - 1)
                 if _phi_coeffs(m) == coeffs), None)


def essential_oracle(f: LaurentPoly):
    """The `essential` record of a factor f, from the two oracles above."""
    sev = sev_decompose(f)
    if sev is None:
        return None
    p, e = sev
    return e, _to_dense(p), cyclotomic_order(p)


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
    """factor_poly records Φ_m as itself, for every m ≤ 250, and no order
    for a non-cyclotomic irreducible."""
    for m in range(1, 251):
        phi = _phi_coeffs(m)
        assert factor_poly(cyclotomic_poly(m)).essential == (((1,), phi, m),)
    for text in ("t-2", "t^2-3", "t^2+t-1", "2*t+1", "t^4+t+1"):
        f = parse_poly(text, ("t",))
        assert factor_poly(f).essential == (((1,), _to_dense(f), None),)


def test_cyclotomic_order_every_order_to_1000():
    """The order oracle names every Φ_m, m ≤ 1000, and no non-cyclotomic
    polynomial, and a non-cyclotomic irreducible has no cyclotomic
    part."""
    for m in range(1, 1001):
        assert cyclotomic_order(cyclotomic_poly(m)) == m
    for text in ("t-2", "t^2-3", "t^2+t-1", "2*t+1", "t^4+t+1"):
        f = parse_poly(text, ("t",))
        assert cyclotomic_order(f) is None
        assert _cyclotomic_part(_to_dense(f)) == (1,)


def _euler_phi(m: int) -> int:
    out, n, p = 1, m, 2
    while p * p <= n:
        if n % p == 0:
            k = 0
            while n % p == 0:
                n //= p
                k += 1
            out *= (p - 1) * p ** (k - 1)
        p += 1
    if n > 1:
        out *= n - 1
    return out


def test_totient_preimages_match_brute_scan():
    phi = [None] + [_euler_phi(m) for m in range(1, 2 * 60 * 60 + 2)]
    for d in range(1, 61):
        assert _totient_preimages(d) == \
            tuple(m for m in range(1, 2 * d * d + 2) if phi[m] == d)


def _cyclotomic_factor(p):
    """The former library splitter, kept as the oracle: c · Π Φ_m^mult ·
    residual by trial division with every Φ_m, m ≤ 2·deg² + 1."""
    g = normalize(p)
    c = math.gcd(*(abs(x.numerator) for x in g.terms.values()))
    if c != 1:
        g = LaurentPoly(1, {e: x // c for e, x in g.terms.items()})
    deg = max(e[0] for e in g.terms)
    cyclo = []
    if deg > 0:
        bound = 2 * deg * deg + 1
        for m in range(1, bound + 1):
            if _euler_phi(m) > deg:
                continue
            phi = cyclotomic_poly(m)
            mult = 0
            while True:
                q = _quotient_over_q(g, phi)
                if q is None:
                    break
                g = normalize(LaurentPoly(1, q))
                mult += 1
            if mult:
                cyclo.append((m, mult))
            if g.is_constant():
                break
    if g.is_constant():
        c *= int(next(iter(g.terms.values())))
        g = LaurentPoly.one(1)
    return c, cyclo, g


def _qp_oracle(delta):
    """The former qp_verdict for a nonconstant delta and b1 >= 3: one
    essential variable by sev_decompose, then the trial-division splitter."""
    sev = sev_decompose(delta)
    if sev is None:
        return QPVerdict(OBSTRUCTED, "support is not collinear: more than "
                         "one essential variable")
    univ, e = sev
    c, cyclo, residual = _cyclotomic_factor(univ)
    if not normalize(residual).is_constant():
        return QPVerdict(OBSTRUCTED, "univariate image has a "
                         "non-cyclotomic factor",
                         {"e": list(e),
                          "residual": residual.render(("u",))})
    return QPVerdict(CONSISTENT, "single essential variable with "
                     "cyclotomic univariate image",
                     {"c": c, "e": list(e),
                      "cyclotomic_orders": [list(p) for p in cyclo]})


def _random_direction(rng, n):
    while True:
        e = tuple(rng.choice([-1, 0, 0, 1, 1]) for _ in range(n))
        if any(e) and math.gcd(*e) == 1:
            return e


def _along(e, coeffs):
    """Σ c_k t^{k·e} for {k: c_k}."""
    return LaurentPoly(len(e), {tuple(k * x for x in e): c
                                for k, c in coeffs.items()})


def _random_qp_delta(rng, n):
    """c · t^shift · Π P_j(t^e)^μ_j with each P_j a Φ_m, a u^k − c or a
    generic quadratic; a quarter of them times a binomial along a second
    random direction."""
    e = _random_direction(rng, n)
    delta = LaurentPoly.constant(n, rng.choice([1, 1, 2, 3, -1, -6]))
    for _ in range(rng.randint(1, 2)):
        kind = rng.randrange(3)
        if kind == 0:
            m = rng.choice([1, 2, 3, 4, 5, 6, 8, 10, 12])
            piece = _along(e, {k: c for (k,), c
                               in cyclotomic_poly(m).terms.items()})
        elif kind == 1:
            piece = _along(e, {rng.randint(1, 2): 1,
                               0: -rng.choice([-2, -1, 1, 1, 2, 3])})
        else:
            piece = _along(e, {2: rng.randint(1, 3), 1: rng.randint(-3, 3),
                               0: rng.choice([-3, -2, -1, 1, 2, 3])})
        delta = delta * piece ** rng.choice([1, 1, 1, 2])
    if rng.random() < 0.25:
        delta = delta * _along(_random_direction(rng, n),
                               {1: 1, 0: -rng.choice([1, 1, 2])})
    shift = tuple(rng.randint(-2, 2) for _ in range(n))
    return delta * LaurentPoly.monomial(shift)


def test_qp_verdict_matches_sev_cyclotomic_oracle():
    rng = random.Random(20261018)
    seen = set()
    for _ in range(300):
        n = rng.choice([3, 4])
        delta = _random_qp_delta(rng, n)
        got = qp_verdict(factor_poly(delta), n).as_dict()
        assert got == _qp_oracle(delta).as_dict(), delta
        seen.add(got["reason"])
    assert len(seen) == 3


def _factor_list_oracle(f):
    """The former factor_poly, kept as the oracle: sympy's factor_list on
    the whole polynomial, in all its variables, and each factor classified
    by `essential_oracle`."""
    g = normalize(f)
    c = math.gcd(*(abs(x.numerator) for x in g.terms.values()))
    _, parts = _to_ring(g).factor_list()
    factors = [(normalize(_from_ring(p, g.nvars)), mult)
               for p, mult in parts]
    factors = tuple(sorted(
        ((p, mult) for p, mult in factors if not p.is_constant()),
        key=lambda t: (sorted(t[0].terms), sorted(t[0].terms.items()))))
    return FactoredPoly(c, factors,
                        tuple(essential_oracle(p) for p, _ in factors))


# non-cyclotomic univariate factors: non-monic, a reciprocal pair
# (3u + 2, 2u + 3) and a self-reciprocal one (u^2 - 3u + 1), whose roots
# are closed under u ↦ 1/u as those of every Φ_m are
NON_CYCLOTOMIC = ("2*u^2 - 1", "u^3 - u - 1", "3*u + 2", "2*u + 3",
                  "u^2 - 3*u + 1")


def test_collinear_factoring_matches_factor_list_oracle():
    """factor_poly on c · ±t^a · Π P_j(t^e)^μ_j, e primitive, against
    sympy's factoring of the whole polynomial.  That oracle took 8 s to
    over 10 s on products of degree 41 along (1, 1, 1, 1), so products
    along a direction with two or more nonzero entries are kept to total
    degree 24."""
    rng = random.Random(20261019)
    checked = 0
    while checked < 300:
        p = LaurentPoly.constant(1, rng.choice([1, 1, 2, 3, 6]))
        for _ in range(rng.randint(1, 3)):
            kind = rng.randrange(3)
            if kind == 0:
                piece = cyclotomic_poly(rng.randint(1, 60))
            elif kind == 1:
                piece = parse_poly(rng.choice(["u - 1", "u + 1"]), ("u",))
            else:
                piece = parse_poly(rng.choice(NON_CYCLOTOMIC), ("u",))
            p = p * piece ** rng.randint(1, 3)
        n = rng.randint(1, 4)
        e = (0,) * n
        while math.gcd(*e) != 1:
            e = tuple(rng.randint(-3, 3) for _ in range(n))
        degree = max(k for (k,) in p.terms) * sum(map(abs, e))
        if sum(map(bool, e)) > 1 and degree > 24:
            continue
        checked += 1
        unit = LaurentPoly.monomial(
            tuple(rng.randint(-3, 3) for _ in range(n)), rng.choice([1, -1]))
        f = unit * _along(e, {k: c for (k,), c in p.terms.items()})
        assert factor_poly(f) == _factor_list_oracle(f), f


def test_directional_factoring_matches_factor_list_oracle():
    """factor_poly on c · ±t^a · Π P_j(t^e_j)^μ_j along one to three
    random primitive directions e_j, each P_j a Φ_m or non-cyclotomic and
    some repeated, half of them times one or two generic factors in every
    variable, against sympy's factoring of the whole polynomial, order
    included.  The oracle's cost grows fast with the degree, so the
    products are kept to total degree 14."""
    rng = random.Random(20261020)
    checked = generic = 0
    while checked < 150:
        n = rng.randint(2, 4)
        f = LaurentPoly.constant(n, rng.choice([1, 1, 2, 3]))
        for _ in range(rng.randint(1, 3)):
            e = _random_direction(rng, n)
            for _ in range(rng.randint(1, 2)):
                piece = cyclotomic_poly(rng.choice([1, 2, 3, 4, 6])) \
                    if rng.random() < 0.5 else \
                    parse_poly(rng.choice(NON_CYCLOTOMIC), ("u",))
                f = f * _along(e, {k: c for (k,), c in piece.terms.items()}
                               ) ** rng.randint(1, 2)
        others = rng.choice([0, 0, 1, 2])
        for _ in range(others):
            f = f * LaurentPoly(n, {
                tuple(int(i == j) for i in range(n)):
                    rng.choice([-3, -2, -1, 1, 2, 3]) for j in range(-1, n)})
        if normalize(f).total_degree() > 14:
            continue
        checked += 1
        generic += others > 0
        unit = LaurentPoly.monomial(
            tuple(rng.randint(-2, 2) for _ in range(n)), rng.choice([1, -1]))
        expected = _factor_list_oracle(unit * f)
        assert factor_poly(unit * f) == expected, f
        # the split leaves exactly the factors of more than one direction
        g = normalize(f)
        _, rest = _split_directions(
            {v: int(c) // expected.constant for v, c in g.terms.items()})
        residual = LaurentPoly.one(n)
        for p, mult in expected.factors:
            if sev_decompose(p) is None:
                residual = residual * p ** mult
        assert associates(LaurentPoly(n, rest), residual), f
    assert generic > 30


def _polynomial(rng, n, max_terms, free=()):
    """A random polynomial in n variables with no negative exponent, at
    most max_terms terms and degree at most 2 in each variable, none in
    the variables of `free`."""
    return LaurentPoly(n, {
        tuple(0 if i in free else rng.randrange(3) for i in range(n)):
            rng.choice([-3, -2, -1, 1, 2, 3])
        for _ in range(rng.randint(1, max_terms))})


def test_coprime_never_certifies_a_common_factor():
    """`_coprime` never returns True on a·c, b·c for a non-constant c, and
    returns True only where `gcd_many` finds a constant gcd; it leaves few
    coprime pairs to the fallback."""
    rng = random.Random(20261022)
    certified = missed = 0
    for trial in range(1500):
        n = rng.randint(1, 4)
        a, b = _polynomial(rng, n, 4), _polynomial(rng, n, 4)
        if trial % 2:
            c = _polynomial(rng, n, 3)
            if normalize(c).is_constant():
                continue
            assert not _coprime(normalize(a * c).terms,
                                normalize(b * c).terms), (a, b, c)
            continue
        got = _coprime(normalize(a).terms, normalize(b).terms)
        constant = gcd_many([a, b]).is_constant()
        assert constant or not got, (a, b)
        certified += got
        missed += constant and not got
    assert certified > 600 and missed < 20


def _linear_factor(rng, n, free=()):
    """(i, A·t_i + B) for a random i not in `free`, with A and B random
    polynomials in the variables other than t_i and those of `free`."""
    i = rng.choice([j for j in range(n) if j not in free])
    free = set(free) | {i}
    return i, (_polynomial(rng, n, 3, free) * LaurentPoly.var(n, i)
               + _polynomial(rng, n, 3, free))


def test_linear_split_matches_factor_list_oracle(monkeypatch):
    """factor_poly on c · ±t^a · Π f_j^μ_j, one to three generic factors
    f_j each of degree one in some variable, some repeated, against
    sympy's factoring of the whole polynomial.  Where f_1 is linear in
    t_i and the others are free of t_i, the gcd of f's two coefficients
    in t_i is the product of the others, which goes back on the worklist:
    some products here take two or three linear splits.  The oracle's
    cost grows fast with the degree, so the products are kept to total
    degree 12."""
    calls = []
    coprime = laurent._coprime

    def counted(a, b):
        calls.append(1)
        return coprime(a, b)

    monkeypatch.setattr(laurent, "_coprime", counted)
    rng = random.Random(20261023)
    checked = deep = 0
    while checked < 150:
        n = rng.randint(3, 5)
        f = LaurentPoly.constant(n, rng.choice([1, 1, 2, 3]))
        used = set()
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.8 and len(used) < n:
                # free of the variables the earlier factors are linear in
                i, piece = _linear_factor(rng, n, used)
                used.add(i)
            else:
                _, piece = _linear_factor(rng, n)
            f = f * piece ** rng.choice([1, 1, 1, 2])
        if f.is_zero() or normalize(f).total_degree() > 12:
            continue
        checked += 1
        unit = LaurentPoly.monomial(
            tuple(rng.randint(-2, 2) for _ in range(n)), rng.choice([1, -1]))
        del calls[:]
        assert factor_poly(unit * f) == _factor_list_oracle(unit * f), f
        deep += len(calls) > 1
    assert deep > 30


def _random_relators_text(rng, n):
    """The presentation `bench/workloads.random_relators(rng, n)` draws:
    n generators and n − 1 relators, each a product of two commutators
    [x_a^±1, x_b^±1] of distinct generators."""
    names = [f"x{i + 1}" for i in range(n)]
    lines = ["gens: " + " ".join(names)]
    for _ in range(n - 1):
        letters = []
        for _ in range(2):
            a, b = rng.sample(range(n), 2)
            ea, eb = rng.choice((1, -1)), rng.choice((1, -1))
            letters += [(a, ea), (b, eb), (a, -ea), (b, -eb)]
        lines.append("rel: " + " ".join(
            names[g] if e == 1 else f"{names[g]}^{e}" for g, e in letters))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n,seed", [(8, 308), (8, 408), (10, 5)])
def test_random_presentation_residuals_split_without_factoring(
        monkeypatch, n, seed):
    """The random presentations whose residuals (182 to 1946 terms) sympy's
    factor_list took 0.15 to 4 s on: the linear split gives the oracle's answer, and no
    sympy factoring runs."""
    import sympy.polys.factortools as factortools
    from sympy.polys.rings import PolyElement

    p = parse_presentation(_random_relators_text(random.Random(seed), n))
    delta = alexander_poly(fox_matrix(p), 1)
    expected = _factor_list_oracle(delta)

    def no_factoring(*args):
        raise AssertionError("a residual with a linear variable was factored")

    monkeypatch.setattr(factortools, "dup_factor_list", no_factoring)
    monkeypatch.setattr(PolyElement, "factor_list", no_factoring)
    assert factor_poly(delta) == expected


# self-reciprocal, like every Φ_m, and not cyclotomic: with φ the golden
# ratio, u^2 ∓ 3u + 1 has the roots ±φ^(±2), u^2 ∓ 7u + 1 the roots
# ±φ^(±4) and u^4 − 3u^2 + 1 the roots ±φ^(±1), so squaring (or minus
# squaring) maps some roots to others; Lehmer's polynomial has all roots
# but two on the unit circle
RECIPROCAL_NON_CYCLOTOMIC = (
    "u^2 - 3*u + 1", "u^2 + 3*u + 1", "u^2 - 7*u + 1", "u^2 + 7*u + 1",
    "u^4 - 3*u^2 + 1", "u^10 + u^9 - u^7 - u^6 - u^5 - u^4 - u^3 + u + 1")


def _phi_product(orders) -> tuple:
    """Π Φ_m over the orders, as a dense tuple."""
    out = (1,)
    for m in orders:
        out = tuple(_dup_mul(out, _phi_coeffs(m)))
    return out


def _split(q: tuple) -> tuple:
    """([(m, a_m)], rest) with q = Π Φ_m^(a_m) · rest, read as
    `factor_poly` reads it: the orders off `_cyclotomic_part`, the rest by
    exact division."""
    part = _cyclotomic_part(q)
    return _cyclotomic_exponents(part), _dup_exquo(q, part)


def test_cyclotomic_part_finds_exactly_the_cyclotomic_factors():
    """_cyclotomic_part on squarefree products of distinct Φ_m (m ≤ 90),
    with chains k, 2k, 4k, ... of orders, and self-reciprocal
    non-cyclotomic factors whose roots square into each other's: it is
    the product of the Φ_m put in, `_cyclotomic_exponents` reads exactly
    those orders off it, and it divides the input with the non-cyclotomic
    factors left.  The inputs are built as dense coefficient tuples in
    Z[u]."""
    rng = random.Random(20261018)
    for _ in range(300):
        orders = set(rng.sample(range(1, 91), rng.randint(0, 5)))
        if orders and rng.random() < 0.5:
            k = rng.choice(sorted(orders))
            orders |= {k << i for i in range(1, rng.randint(2, 4))
                       if k << i <= 90}
        others = rng.sample(RECIPROCAL_NON_CYCLOTOMIC, rng.randint(0, 3))
        if not orders and not others:
            continue
        rest = (1,)
        for text in others:
            rest = tuple(_dup_mul(rest, _to_dense(parse_poly(text, ("u",)))))
        q = tuple(_dup_mul(_phi_product(orders), rest))
        assert _cyclotomic_part(q) == _phi_product(sorted(orders)), \
            (orders, others)
        assert _split(q) == ([(m, 1) for m in sorted(orders)], rest)


def test_cyclotomic_part_counts_multiplicities():
    """_cyclotomic_part on products that are not squarefree: Φ_m^a
    (m ≤ 90, a ≤ 3), chains Φ_k^a·Φ_2k^b·Φ_4k^c with unequal exponents,
    and squares of self-reciprocal non-cyclotomic factors.  The orders
    and multiplicities read off it are those the product was built from,
    and it divides the input with the non-cyclotomic rest left.  Chains
    are where one Φ_m can fall into two of the divisors that
    `_cyclotomic_part` multiplies (Φ_2k^b with b > a ≥ 1, k odd), so the
    count checks that they are drawn.  The inputs are dense tuples in
    Z[u]."""
    rng = random.Random(20261027)
    chains = 0
    for _ in range(200):
        counts = {m: rng.randint(1, 3)
                  for m in rng.sample(range(1, 91), rng.randint(0, 3))}
        if rng.random() < 0.6:
            k = rng.randint(1, 22)
            chains += 1
            for m, a in zip((k, 2 * k, 4 * k), rng.sample(range(4), 3)):
                if a:
                    counts[m] = counts.get(m, 0) + a
        rest = (1,)
        for text in rng.sample(RECIPROCAL_NON_CYCLOTOMIC, rng.randint(0, 2)):
            r = _to_dense(parse_poly(text, ("u",)))
            for _ in range(rng.randint(1, 2)):
                rest = tuple(_dup_mul(rest, r))
        q = rest
        for m, a in counts.items():
            q = tuple(_dup_mul(q, _phi_product([m] * a)))
        assert _split(q) == (sorted(counts.items()), rest), (counts, rest)
    assert chains > 100


def _sympy_cyclotomic_exponents(p):
    """The oracle of `_cyclotomic_exponents`: [(m, a_m)] when sympy's
    factor_list of p has only factors that sympy's `is_cyclotomic` accepts
    and content 1, each named by `cyclotomic_order`; else None."""
    u = sympy.Symbol("u")
    content, factors = sympy.Poly(list(reversed(p)), u).factor_list()
    out = {}
    for f, k in factors:
        if not f.is_cyclotomic:
            return None
        m = cyclotomic_order(LaurentPoly(1, {
            (i,): int(c) for i, c in enumerate(reversed(f.all_coeffs()))}))
        out[m] = out.get(m, 0) + k
    return sorted(out.items()) if content == 1 else None


def test_cyclotomic_exponents_of_every_phi_to_1000():
    for m in range(1, 1001):
        assert _cyclotomic_exponents(_phi_coeffs(m)) == [(m, 1)], m


def test_cyclotomic_exponents_of_products():
    """Products of up to five Φ_m, m < 200, with multiplicities 1–3: the
    exponents are the orders put in, and the small ones agree with
    sympy's factoring."""
    rng = random.Random(20261019)
    checked = 0
    for _ in range(150):
        want = {m: rng.randint(1, 3)
                for m in rng.sample(range(1, 200), rng.randint(1, 5))}
        p = _phi_product(m for m, k in want.items() for _ in range(k))
        assert _cyclotomic_exponents(p) == sorted(want.items()), want
        if len(p) < 100:
            checked += 1
            assert _sympy_cyclotomic_exponents(p) == sorted(want.items())
    assert checked > 10


def test_cyclotomic_exponents_refuse_reciprocal_non_cyclotomic():
    """Palindromic polynomials with p(0) = ±1 that are no product of Φ_m,
    among them u² − 3u + 1 and Lehmer's polynomial, alone and times Φ_m
    of every class, some of high degree: None, as sympy's factoring
    says."""
    rng = random.Random(20261020)
    for text in RECIPROCAL_NON_CYCLOTOMIC:
        f = _to_dense(parse_poly(text, ("u",)))
        for orders in ([], [1], [2, 3], [1, 1, 12], [5, 30, 97], [2000],
                       rng.sample(range(1, 200), 4)):
            p = tuple(_dup_mul(f, _phi_product(orders)))
            assert _cyclotomic_exponents(p) is None, (text, orders)
            if len(p) < 100:
                assert _sympy_cyclotomic_exponents(p) is None


def test_cyclotomic_exponents_match_sympy_on_random_palindromes():
    """Random (anti)palindromic p with p(0) = ±1 and small coefficients,
    some of them times a Φ_m: the recognizer and sympy's factoring accept
    the same p, with the same exponents, and some are accepted."""
    rng = random.Random(20261021)
    accepted = 0
    for _ in range(400):
        half = [1] + [rng.randint(-2, 2) for _ in range(rng.randint(0, 6))]
        sign = rng.choice([1, -1])
        middle = [rng.randint(-2, 2)] if sign == 1 and rng.random() < 0.5 \
            else []
        p = tuple(half + middle + [sign * c for c in reversed(half)])
        if rng.random() < 0.3:
            p = tuple(_dup_mul(p, _phi_coeffs(rng.randint(1, 40))))
        if p[-1] < 0:
            p = tuple(-c for c in p)
        want = _sympy_cyclotomic_exponents(p)
        assert _cyclotomic_exponents(p) == want, p
        accepted += want is not None
    assert accepted > 40


def test_order_bound_covers_every_order():
    """`_order_bound(d)` ≥ every m with φ(m) ≤ d, for every d ≤ 1000, by a
    sieve of φ up to 1000²: φ(m) ≥ √m for m ≠ 2, 6, so no larger m has
    φ(m) ≤ 1000.  For d = 60 the bound is 262 and the largest m is 210."""
    top = 1000
    phi = list(range(top * top + 1))
    for q in range(2, len(phi)):
        if phi[q] == q:
            phi[q::q] = [x - x // q for x in phi[q::q]]
    largest = [0] * (top + 1)
    for m in range(1, len(phi)):
        if phi[m] <= top:
            largest[phi[m]] = max(largest[phi[m]], m)
    for d in range(1, top + 1):
        largest[d] = max(largest[d], largest[d - 1])
        assert largest[d] <= _order_bound(d) <= 6 * d, d
    assert (largest[60], _order_bound(60)) == (210, 262)


def _brute_rank(mat, n):
    """The largest k with a nonzero k×k minor over Q(ζ_n), each minor a
    Laplace expansion along its first row (memoized over row and column
    sets)."""
    memo = {}

    def det(rsel, csel):
        if not rsel:
            return reduce_mod_phi([1], n)
        if (rsel, csel) not in memo:
            acc = reduce_mod_phi([], n)
            for j, c in enumerate(csel):
                term = mul_mod_phi(mat[rsel[0]][c],
                            det(rsel[1:], csel[:j] + csel[j + 1:]), n)
                acc = _add(acc, term) if j % 2 == 0 else _sub(acc, term)
            memo[rsel, csel] = acc
        return memo[rsel, csel]

    rows, cols = len(mat), len(mat[0])
    for k in range(min(rows, cols), 0, -1):
        if any(any(det(rsel, csel))
               for rsel in itertools.combinations(range(rows), k)
               for csel in itertools.combinations(range(cols), k)):
            return k
    return 0


def _random_cyclo(rng, n, scales, terms=2):
    """A sum of up to `terms` values q·ζ_n^k, q drawn from `scales`, as
    the pairs (q, k)."""
    return [(rng.choice(scales), rng.randrange(n))
            for _ in range(rng.randrange(terms + 1))]


def _times(x, y, n):
    """x·y for values given as pairs (c, k)."""
    return [(a * b, (i + j) % n) for a, i in x for b, j in y]


def test_rank_over_field_matches_brute_minors():
    """`rank` against brute-force minors of the values reduced mod Φ_n:
    conductors 1, 2, 3, 4, 12 and (up to 3×3 and 4×5) 211 and 240,
    rational entries, shapes up to 5×6, a zero row or column, and a row
    that is a Z[ζ]-combination of the others."""
    rng = random.Random(20240909)
    scales = (1, -1, 2, 3, Fraction(1, 2), Fraction(-3, 4), Fraction(5, 3))
    conductors = (1, 2, 3, 4, 12, 211, 240)
    shapes = {211: (3, 3), 240: (4, 5)}
    for case in range(280):
        n = conductors[case % 7]
        max_rows, max_cols = shapes.get(n, (5, 6))
        rows, cols = rng.randint(1, max_rows), rng.randint(1, max_cols)
        mat = [[_random_cyclo(rng, n, scales) for _ in range(cols)]
               for _ in range(rows)]
        if case % 5 == 2:
            j = rng.randrange(cols)
            for row in mat:
                row[j] = []
        if case % 5 == 4:
            mat[rng.randrange(rows)] = [[] for _ in range(cols)]
        if case % 3 == 0 and rows > 1:
            i = rng.randrange(rows)
            combo = [[] for _ in range(cols)]
            for r in range(rows):
                if r != i:
                    c = _random_cyclo(rng, n, (1, -1, 2), 3)
                    combo = [x + _times(c, y, n)
                             for x, y in zip(combo, mat[r])]
            mat[i] = combo
        oracle = [[reduced(x, n) for x in row] for row in mat]
        assert rank(mat, n) == _brute_rank(oracle, n), (n, mat)


def test_rank_of_known_rank_products():
    """B·C over Z[ζ_3] at 24×24 with B = [I_r; random] and
    C = [I_r | random] has rank r; its minors grow with the size, and so
    does the number of primes the rank reads."""
    rng = random.Random(20261018)
    size = 24

    def entry():
        return [(rng.randint(-9, 9), 0), (rng.randint(-9, 9), 1)]

    def identity(i, j):
        return [(int(i == j), 0)]

    for r in (1, 7, 16, 23):
        b = [[identity(i, j) if i < r else entry() for j in range(r)]
             for i in range(size)]
        c = [[identity(i, j) if j < r else entry() for j in range(size)]
             for i in range(r)]
        product = [[[term for k in range(r) for term in
                     _times(b[i][k], c[k][j], 3)] for j in range(size)]
                   for i in range(size)]
        assert rank(product, 3) == r


def test_charpoly_matches_sympy():
    """Faddeev–LeVerrier against sympy's charpoly, sizes 1 to 8."""
    rng = random.Random(20261020)
    for case in range(200):
        size = case % 8 + 1
        bound = rng.choice((1, 3, 9))
        a = [[rng.randint(-bound, bound) for _ in range(size)]
             for _ in range(size)]
        expected = [int(c) for c in sympy.Matrix(a).charpoly().all_coeffs()]
        assert _charpoly(a) == expected, a


def _sympy_monodromy(h):
    """The former monodromy_analysis, kept as the oracle: sympy's charpoly,
    det(M − I) and the rank over Q of each g(M)."""
    m = sympy.Matrix([[int(x) for x in row] for row in h])
    size = m.rows
    if (m - sympy.eye(size)).det() == 0:
        raise AlexkitError("1 is an eigenvalue of the monodromy")
    coeffs = m.charpoly().all_coeffs()  # leading coefficient first
    delta = LaurentPoly(1, {(size - i,): int(c) for i, c in enumerate(coeffs)})
    factored = factor_poly(delta)
    equalities = []
    semisimple = True
    for (f, mu), record in zip(factored.factors, factored.essential):
        g = normalize(f)
        deg = max(e[0] for e in g.terms)
        pm = sympy.zeros(size, size)
        for e, c in g.terms.items():
            pm += sympy.Rational(c.numerator, c.denominator) * m ** e[0]
        geometric = (size - pm.rank()) // deg
        equality = (geometric == mu)
        if not equality:
            semisimple = False
        equalities.append(RootEquality(
            f.render(("t",)), _factor_root(record), mu, geometric, equality))
    return MonodromyReport(delta, factored, semisimple, equalities)


# diagonal blocks for monodromies with repeated factors: −1, 2, companions
# of Φ_3, Φ_4, Φ_6 and u^2 − u − 1, Jordan blocks at −1 and 2, and the
# companion of Φ_3^2, which has one Jordan block per root
MONODROMY_BLOCKS = (
    [[-1]], [[2]], [[0, -1], [1, -1]], [[0, -1], [1, 0]], [[0, -1], [1, 1]],
    [[0, 1], [1, 1]], [[-1, 1], [0, -1]], [[2, 1], [0, 2]],
    [[0, 0, 0, -1], [1, 0, 0, -2], [0, 1, 0, -3], [0, 0, 1, -2]])


def _random_monodromy(rng):
    """A dense matrix with entries in −2..2, or a block diagonal matrix
    from MONODROMY_BLOCKS, of size up to 6, conjugated by elementary
    unimodular matrices."""
    if rng.random() < 0.5:
        size = rng.randint(1, 5)
        return [[rng.randint(-2, 2) for _ in range(size)]
                for _ in range(size)]
    blocks = []
    while not blocks or rng.random() < 0.6:
        block = rng.choice(MONODROMY_BLOCKS)
        if sum(map(len, blocks)) + len(block) > 6:
            break
        blocks.append(block)
    size = sum(map(len, blocks))
    m = [[0] * size for _ in range(size)]
    start = 0
    for block in blocks:
        for i, row in enumerate(block):
            m[start + i][start:start + len(row)] = row
        start += len(block)
    for _ in range(rng.randint(0, 4) if size > 1 else 0):
        i, j = rng.sample(range(size), 2)
        c = rng.choice((1, -1))
        # M ↦ E·M·E⁻¹ with E = I + c·e_ij
        m[i] = [x + c * y for x, y in zip(m[i], m[j])]
        for row in m:
            row[j] -= c * row[i]
    return m


def test_monodromy_matches_sympy_oracle():
    rng = random.Random(20261021)
    seen = set()
    for _ in range(300):
        h = _random_monodromy(rng)
        try:
            expected = _sympy_monodromy(h)
        except AlexkitError:
            with pytest.raises(AlexkitError, match="eigenvalue"):
                monodromy_analysis(h)
            seen.add("rejected")
            continue
        assert monodromy_analysis(h) == expected, h
        seen.add(expected.semisimple)
    assert seen == {"rejected", True, False}


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


def _random_univariate_entry(rng):
    """Zero a quarter of the time; else one to three terms with
    coefficients in [-3, 3] and exponents in [-1, 3], sometimes times
    t + 1."""
    if rng.random() < 0.25:
        return LaurentPoly.zero(1)
    f = LaurentPoly(1, {(rng.randint(-1, 3),): rng.randint(-3, 3)
                        for _ in range(rng.randint(1, 3))})
    if rng.random() < 0.3:
        f = f * LaurentPoly(1, {(1,): 1, (0,): 1})
    return f


def _primitive(f: LaurentPoly) -> LaurentPoly:
    """The associate of f in Z[t] with content 1 and no factor t: a
    representative of f up to the units of Q[t^±]."""
    g = normalize(f)
    c = math.gcd(*g.terms.values())
    return LaurentPoly(1, {e: v // c for e, v in g.terms.items()})


def _smith_oracle(mat):
    """sympy's invariant factors over Q[t], of the matrix times t (a unit,
    which clears t^-1), as primitive representatives."""
    from sympy.matrices.normalforms import invariant_factors

    t = sympy.Symbol("t")
    ring = sympy.QQ[t]
    grid = sympy.Matrix([[sum((c * t ** (e + 1) for (e,), c
                               in f.terms.items()), sympy.Integer(0))
                          for f in row] for row in mat.entries])
    out = []
    for s in invariant_factors(grid, domain=ring):
        poly = sympy.Poly(ring.to_sympy(s), t)
        if not poly.is_zero:
            _, poly = poly.clear_denoms(convert=True)
            out.append(_primitive(LaurentPoly(1, {
                k: int(c) for k, c in poly.terms()})))
    return out


def test_invariant_factors_match_sympy_smith_oracle():
    """Ratios of determinantal divisors against sympy's Smith form over
    Q[t], compared as primitive parts (the rationals are units of
    Q[t^±]); their product is the last nonzero determinantal divisor,
    integer content included."""
    rng = random.Random(20261019)
    seen = set()
    for _ in range(200):
        h, m = rng.randint(1, 4), rng.randint(1, 4)
        mat = alexander.load_matrix(("t",), [
            [_random_univariate_entry(rng) for _ in range(m)]
            for _ in range(h)])
        inv = univariate_invariant_factors(mat)
        assert [_primitive(f) for f in inv] == _smith_oracle(mat)
        r = len(inv)
        seen.add("rank < min(h, m)" if r < min(h, m) else "full rank")
        if any(not f.is_constant() for f in inv[:-1]):
            seen.add("nonconstant before the last")
        if r:
            prod = LaurentPoly.one(1)
            for f in inv:
                prod = prod * f
            assert associates(prod, gcd_many(
                elementary_ideal_minors(mat, m - r)))
    assert seen == {"rank < min(h, m)", "full rank",
                    "nonconstant before the last"}


def test_binomial_division_matches_sympy_division():
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
        assert _quotient_over_q(product, binomial) == f.terms
        assert exact_div_binomial(product, v) == f
        g = product + random_poly(rng, n, 2)
        expected, got = _quotient_over_q(g, binomial), exact_div_binomial(g, v)
        assert expected == (got if got is None else got.terms)
        inexact += expected is None
    assert inexact > 100
    assert exact_div_binomial(LaurentPoly.zero(2), (1, 2)).is_zero()
    assert exact_div_binomial(parse_poly("t^4 - 1", ("t",)), (2,)) == \
        parse_poly("t^2 + 1", ("t",))
    assert exact_div_binomial(parse_poly("t^4 - 1", ("t",)), (3,)) is None


def test_fibers_round_trip():
    """`_fibers` cuts terms into lines along e, negative and non-primitive
    e too, each with nonzero ends and every term on base + Z·e, and
    `_unfibers` gives the terms back."""
    rng = random.Random(20261019)
    for _ in range(300):
        n = rng.randrange(1, 4)
        e = tuple(rng.randrange(-4, 5) for _ in range(n))
        if not any(e):
            continue
        terms = {tuple(rng.randrange(-6, 7) for _ in range(n)):
                 rng.choice([-3, -1, 1, 2, 5])
                 for _ in range(rng.randrange(1, 12))}
        fibers = _fibers(terms, e)
        assert _unfibers(fibers, e) == terms
        assert sum(map(len, fibers.values())) >= len(terms)
        for (base, low), line in fibers.items():
            assert line[0] and line[-1]
            for k, c in enumerate(line, low):
                v = tuple(b + k * x for b, x in zip(base, e))
                assert terms.get(v, 0) == c


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
        assert _row_minors(square, n, ProductMeter()).get(
            (1 << k) - 1, LaurentPoly.zero(n)) == _cofactor_det(square)
        minors = _row_minors(rows, n, ProductMeter())
        for csel in itertools.combinations(range(width), k):
            mask = sum(1 << c for c in csel)
            expected = _cofactor_det([[r[c] for c in csel] for r in rows])
            assert minors.get(mask, LaurentPoly.zero(n)) == expected


def _brute_term_products(rows):
    """The term products the bottom-up Laplace expansion of `_row_minors`
    does, counted from the nonzero minors of each trailing block, which
    `_cofactor_det` computes afresh: each nonzero entry of a row times each
    nonzero minor, on the rows below, of a column subset without its
    column."""
    k, width = len(rows), len(rows[0])
    count = 0
    for r in range(1, k):
        below = rows[k - r:]
        for csel in itertools.combinations(range(width), r):
            minor = _cofactor_det([[row[c] for c in csel] for row in below])
            count += len(minor.terms) * sum(
                len(entry.terms) for c, entry in enumerate(rows[k - r - 1])
                if c not in csel)
    return count


def test_minor_meter_covers_the_products_done():
    """On random matrices up to 6 x 6 in 1-3 variables, with negative
    exponents and zero rows and columns, the meter of `_row_minors` is
    charged at least 513 (`product_work` of two 1-digit terms) for each
    term product it does."""
    rng = random.Random(20261021)
    for _ in range(80):
        k = rng.randrange(1, 7)
        width = rng.randrange(k, 7)
        n = rng.randrange(1, 4)
        rows = [[random_laurent_poly(rng, n, 4) if rng.random() < 0.75
                 else LaurentPoly.zero(n) for _ in range(width)]
                for _ in range(k)]
        if rng.random() < 0.2:
            rows[rng.randrange(k)] = [LaurentPoly.zero(n)] * width
        if rng.random() < 0.2:
            c = rng.randrange(width)
            for row in rows:
                row[c] = LaurentPoly.zero(n)
        meter = ProductMeter()
        _row_minors(rows, n, meter)
        assert meter.spent >= 513 * _brute_term_products(rows)


def random_laurent_poly(rng, nvars, max_terms=5):
    """Negative exponents and integer coefficients that are often not
    primitive."""
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        exp = tuple(rng.randrange(-4, 4) for _ in range(nvars))
        terms[exp] = rng.choice([-5, -2, -1, 1, 3, 7]) * \
            rng.choice([1, 2, 3, 10])
    return LaurentPoly(nvars, terms)


def test_ring_bridge_round_trip():
    """A canonical integer polynomial goes into the ring Z[t] of its
    variable count and comes back unchanged, with `int` coefficients."""
    rng = random.Random(20241101)
    for _ in range(200):
        n = rng.randrange(1, 4)
        g = normalize(random_laurent_poly(rng, n))
        p = _to_ring(g)
        assert p.ring is _ring(n)
        assert all(e >= 0 for monom in p for e in monom)
        back = _from_ring(p, n)
        assert back == g
        assert all(type(c) is int for c in back.terms.values())
    assert _from_ring(_to_ring(LaurentPoly.zero(2)), 2).is_zero()


def test_divides_matches_sympy_division_over_q():
    """`divides` against sympy's division over Q, on random pairs in 1–3
    variables with negative exponents and divisors that are often not
    primitive; half the dividends are multiples of the divisor."""
    rng = random.Random(20241102)
    seen = set()
    for _ in range(200):
        n = rng.randrange(1, 4)
        f = rng.choice((1, 2, 6)) * random_laurent_poly(rng, n, 3)
        g = random_laurent_poly(rng, n)
        if rng.random() < 0.5:
            g = g * f * LaurentPoly.var(n, 0, rng.randrange(-5, 6))
        got = divides(f, g)
        assert got == (_quotient_over_q(g, f) is not None), (f, g)
        seen.add((got, math.gcd(*f.terms.values()) > 1))
    assert seen == {(True, True), (True, False), (False, True),
                    (False, False)}
    t = ("t",)
    assert divides(parse_poly("2*t - 2", t), parse_poly("t^2 - 1", t))


def _int_coeffs(f):
    """Ascending integer coefficient list of a univariate polynomial."""
    out = [0] * (max(f.terms)[0] + 1)
    for (e,), c in f.terms.items():
        out[e] = int(c)
    return out


def test_cyclotomic_polys_multiply_to_binomials():
    for n in range(1, CONDUCTOR_CAP + 1):
        prod = _int_coeffs(cyclotomic_poly(n))
        for d in range(1, n):
            if n % d:
                continue
            phi = _int_coeffs(cyclotomic_poly(d))
            out = [0] * (len(prod) + len(phi) - 1)
            for i, x in enumerate(prod):
                if x:
                    for j, y in enumerate(phi):
                        out[i + j] += x * y
            prod = out
        assert prod == [-1] + [0] * (n - 1) + [1]


def test_seifert_delta_times_divisors_is_binomial_power():
    ladder = ((2, 3), (2, 5), (3, 5), (3, 7), (5, 7), (7, 9), (5, 11),
              (7, 11), (9, 11), (11, 13))
    cases = [SpliceData((1, 1, 1, a, b), 3) for a, b in ladder]
    cases += [SpliceData((2, 3, 5, 7, 11), 2), SpliceData((2, 3, 5, 7), 3),
              SpliceData((1, 1, 3, 4, 5), 2)]
    for d in cases:
        u = LaurentPoly.monomial([d.n_j(j) for j in range(d.q)])
        lhs = seifert_delta(d)
        for j in range(d.q, d.q + d.s):
            lhs = lhs * (u ** d.n_prime_j(j) - 1)
        rhs = (u ** d.big_n_prime - 1) ** (d.q + d.s - 2)
        assert associates(lhs, rhs)


def _assert_rational(x):
    """x is held as alexkit holds a rational: an `int` exactly when it is
    integral, else a `Fraction` with denominator > 1; never a float or a
    bool."""
    assert type(x) is int or (type(x) is Fraction and x.denominator > 1), \
        (type(x), x)


def _assert_canonical(f: LaurentPoly):
    assert type(f) is LaurentPoly
    for exp, c in f.terms.items():
        assert type(exp) is tuple and len(exp) == f.nvars, exp
        assert all(type(e) is int for e in exp), exp
        assert type(c) is int, (type(c), c)


def test_coefficients_and_scales_are_int_or_proper_fraction():
    """Every polynomial coefficient is an `int`, and every character scale
    is an `int` when it is integral and a `Fraction` only when it is not,
    after each operation that builds one, on the random cases of the tests
    above (their generators and seeds), and on characters parsed from
    random values, each with integral and non-integral scales."""
    rng = random.Random(20241102)  # test_divides_matches_sympy_division_...
    for _ in range(100):
        n = rng.randrange(1, 4)
        f = random_laurent_poly(rng, n)
        g = random_laurent_poly(rng, n, 3)
        a, b = random_poly(rng, n), random_poly(rng, n, 3)
        for h in (f + g, f - g, f * g, f ** 2, -f, a + b, a - b, a * b,
                  b ** 3, a + 1, a * Fraction(4, 2), normalize(f),
                  normalize(a), gcd_many([a * b, a]), gcd_many([f, g]),
                  parse_poly(a.render(), default_names(n))):
            _assert_canonical(h)
        for p, _ in factor_poly(a).factors:
            _assert_canonical(p)
    rng = random.Random(20241002)  # test_binomial_division_matches_sympy_...
    for v in ((2,), (-3,), (1, -1), (2, -2), (0, 3), (1, -2, 2)):
        f = random_poly(rng, len(v))
        _assert_canonical(exact_div_binomial(
            f * (LaurentPoly.monomial(v) - 1), v))
    rng = random.Random(20261018)  # test_qp_verdict_matches_sev_...
    for _ in range(30):
        for p, _ in factor_poly(_random_qp_delta(rng, rng.choice([3, 4]))
                                ).factors:
            _assert_canonical(p)
    rng = random.Random(20241001)  # test_fox_delta1_matches_gcd_of_minors
    for _ in range(60):
        mat = fox_matrix(_fox_oracle_presentation(rng))
        for row in mat.entries:
            for entry in row:
                _assert_canonical(entry)
    for weights, q in (((1, 1, 1, 2, 3), 3), ((2, 3, 5, 7, 11), 2),
                       ((1, 1, 3, 4, 5), 2)):
        _assert_canonical(seifert_delta(SpliceData(weights, q)))
    rng = random.Random(20261021)
    for _ in range(100):
        values = [rng.choice(("1", "-1", "2", "4/2", "-1/3", "3/4", "zeta6",
                              "2*zeta4^3", "-1/2*zeta3", "-4/2*zeta12^5"))
                  for _ in range(rng.randrange(1, 4))]
        names = [f"x{i}" for i in range(len(values))]
        chi = parse_character(
            ",".join(f"{x}={v}" for x, v in zip(names, values)), names)
        vectors = [tuple(rng.randint(-4, 4) for _ in names)
                   for _ in range(5)]
        for rho in (chi, chi.pull(vectors)):
            for q in rho.scales:
                _assert_rational(q)
