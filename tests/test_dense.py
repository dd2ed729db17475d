"""The one-variable layer of alexkit.laurent against sympy, on random
inputs with fixed seeds.  Polynomials are ascending coefficient tuples;
sympy's dense functions take them descending."""

import random

import sympy
from sympy.polys.densearith import dup_div
from sympy.polys.domains import ZZ
from sympy.polys.euclidtools import dup_gcd
from sympy.polys.specialpolys import dup_zz_cyclotomic_poly

from alexkit import laurent
from alexkit.laurent import (_divisors, _dup_exquo, _dup_gcd, _dup_mul,
                             _dup_primitive, _dup_prs_gcd, _dup_strip,
                             _isprime, _nextprime, _phi_coeffs)


def _down(f):
    return [ZZ(c) for c in reversed(f)]


def _up(f):
    return tuple(int(c) for c in reversed(f))


def _random_poly(rng, degree, size):
    return _dup_strip([rng.randint(-size, size) for _ in range(degree + 1)])


def _product(*fs):
    out = (1,)
    for f in fs:
        out = _dup_strip(_dup_mul(out, f)) if f else ()
    return out


def _gcd_cases():
    """Pairs a·h, b·h: zero and constant inputs, integer contents, small
    and 40-digit coefficients, degrees up to 24."""
    rng = random.Random(20261101)
    cases = [((), (3, 0, 6)), ((-2, 4), ()), ((6,), (4, 2)), ((5,), (-10,))]
    for _ in range(400):
        size = rng.choice([1, 3, 100, 10 ** 40])
        h = _random_poly(rng, rng.randint(0, 8), size)
        a = _random_poly(rng, rng.randint(0, 16), size)
        b = _random_poly(rng, rng.randint(0, 16), size)
        if h and (a or b):
            cases.append((_product(a, h, (rng.choice([1, 2, -6]),)),
                          _product(b, h)))
    return cases


def test_gcd_matches_sympy():
    for f, g in _gcd_cases():
        assert _dup_gcd(f, g) == _up(dup_gcd(_down(f), _down(g), ZZ)), (f, g)


def test_gcd_fallback_matches_sympy(monkeypatch):
    """With the heuristic giving up at once, the primitive Euclidean
    remainder sequence answers every case."""
    monkeypatch.setattr(laurent, "_dup_heu_gcd", lambda f, g: None)
    for f, g in _gcd_cases():
        assert _dup_gcd(f, g) == _up(dup_gcd(_down(f), _down(g), ZZ)), (f, g)
        if len(f) > 1 and len(g) > 1:
            assert _dup_prs_gcd(_dup_primitive(f), _dup_primitive(g)) == \
                _dup_primitive(_dup_gcd(f, g))


def test_exact_division_matches_sympy_division():
    """_dup_exquo(f, g) is the quotient exactly when sympy's division in
    Z[u] leaves no remainder: products, products plus a remainder, and
    non-monic divisors."""
    rng = random.Random(20261103)
    for _ in range(600):
        g = _random_poly(rng, rng.randint(0, 6), rng.choice([1, 5, 10 ** 9]))
        q = _random_poly(rng, rng.randint(0, 10), 9)
        if not g:
            continue
        f = _product(q, g)
        if rng.random() < 0.5:
            r = _random_poly(rng, len(g) - 2, 3)
            f = _dup_strip([a + b for a, b in zip(
                f + (0,) * len(r), r + (0,) * len(f))])
        quo, rem = dup_div(_down(f), _down(g), ZZ)
        assert _dup_exquo(f, g) == (None if rem else _up(quo)), (f, g)


def test_phi_matches_sympy_to_1000():
    for n in range(1, 1001):
        assert _phi_coeffs(n) == _up(dup_zz_cyclotomic_poly(n, ZZ)), n


# strong pseudoprimes to every prime base up to 7, up to 31 and up to 37:
# only a larger base in the set of witnesses rejects them
PSEUDOPRIMES = (3215031751, 3825123056546413051, 318665857834031151167461)


def test_primes_and_divisors_match_sympy():
    near = range(2 ** 61 - 1 - 2000, 2 ** 61 - 1 + 2000)
    for n in [*range(-2, 5000), *near, *PSEUDOPRIMES]:
        assert _isprime(n) == sympy.isprime(n), n
    for n in [*range(0, 3000, 7), *near[::97], 2 ** 61 - 1]:
        assert _nextprime(n) == sympy.nextprime(n), n
    for n in range(1, 3000):
        assert _divisors(n) == sympy.divisors(n), n
