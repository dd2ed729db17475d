import itertools
from fractions import Fraction

import pytest

from alexkit.cyclofield import (Character, _images, cyclotomic_poly,
                                parse_character, rank, vanishing_order)
from alexkit import AlexkitError, ComputationCapError, cyclofield
from alexkit.laurent import LaurentPoly, _to_dense, parse_poly

from conftest import (character, mul_mod_phi, reduce_mod_phi, value_at,
                      vanishes)


def one(n):
    return reduce_mod_phi([1], n)


def zeta(n, k=1):
    return reduce_mod_phi([0] * k + [1], n)


def test_root_of_unity_reduces_order():
    chi = parse_character("a=zeta6^3, b=zeta4^-2, c=zeta5^5", "abc")
    assert chi == Character(2, (1, 1, 1), (1, 1, 0))


def test_primitive_root_power_cycle():
    z = zeta(5)
    acc = one(5)
    for _ in range(5):
        acc = mul_mod_phi(acc, z, 5)
    assert acc == one(5)
    assert vanishes([(1, 0), (1, 1), (1, 2), (1, 3), (1, 4)], 5)
    z5 = character("zeta5")
    assert z5.pull([[5]]).is_trivial()
    assert not z5.pull([[3]]).is_trivial()


def test_zeta3_sum_identity():
    z = zeta(3)
    assert not any(map(sum, zip(mul_mod_phi(z, z, 3), z, one(3))))
    assert vanishes([(1, 2), (1, 1), (1, 0)], 3)
    assert not vanishes([(1, 2), (1, 1)], 3)


def test_negative_powers():
    z = character("zeta8")
    assert z.pull([[-1]]) == z.pull([[7]])
    half = character("1/2*zeta8")
    assert half.pull([[-3]]) == Character(8, (8,), (5,))


def test_scales_and_values_are_exact():
    """A negative power of an integral scale is a Fraction, never the
    float that an int power would give, and an integral scale is an int."""
    (q,) = Character(1, (2,), (0,)).pull([(-3,)]).scales
    assert type(q) is Fraction and q == Fraction(1, 8)
    (q,) = Character(1, (3,), (0,)).pull([(-2,)]).scales
    assert type(q) is Fraction and q == Fraction(1, 9)
    (q,) = Character(1, (Fraction(1, 2),), (0,)).pull([(-3,)]).scales
    assert type(q) is int and q == 8
    for x in (2, 3):
        ((v, k),) = value_at(parse_poly("t^-1", ("t",)), character(x))
        assert type(v) is Fraction and (v, k) == (Fraction(1, x), 0)
        assert vanishes([(v, k), (Fraction(-1, x), 0)], 1)
        assert vanishing_order(parse_poly(f"{x}*t^-1 - 1", ("t",)),
                               character(x)) == 1
    (q,) = Character(4, (Fraction(-6, 3),), (1,)).scales
    assert type(q) is int and q == 2


def test_character_checks_values():
    assert Character(12, (2, 1), (13, -7)).exps == (1, 5)
    # −1 = ζ_12^6: the scale's sign moves into the exponent
    assert Character(12, (-2, -1), (0, 6)) == Character(12, (2, 1), (6, 0))
    assert Character(2, (-1,), (1,)).is_trivial()
    minus_one = Character(2, (-1,), (0,))
    assert (minus_one.scales, minus_one.exps) == ((1,), (1,))
    assert not Character(3, (-1,), (0,)).is_trivial()
    with pytest.raises(AlexkitError, match="must be nonzero"):
        Character(3, (1, 0), (1, 0))
    with pytest.raises(ComputationCapError):
        Character(241, (1,), (1,))


def test_pull_multiplies_scales_and_adds_residues():
    chi = Character(12, (2, -1), (1, 5))
    assert chi.pull([[2, -1], [0, 0]]) == \
        Character(12, (-4, 1), (2 - 5, 0))
    with pytest.raises(AlexkitError, match="wrong length"):
        chi.pull([[1]])


def test_parse_character():
    chi = parse_character("x1=-1, x2=zeta3^2, x3=1", ("x1", "x2", "x3"))
    assert chi == Character(3, (-1, 1, 1), (0, 2, 0))
    assert not chi.is_trivial()
    chi = parse_character("x1=-1*zeta3^2, x2=1/2*zeta4", ("x1", "x2"))
    assert chi == Character(12, (-1, Fraction(1, 2)), (8, 3))


def test_parse_character_rejects_bad_input():
    for text in ("x1=0", "x1=1/0", "x1=2/0*zeta3", "x1=zeta0", "x1=-zeta3",
                 "y=1"):
        with pytest.raises(AlexkitError):
            parse_character(text, ("x1",))
    with pytest.raises(AlexkitError, match="missing values"):
        parse_character("x1=1", ("x1", "x2"))
    with pytest.raises(ComputationCapError):
        parse_character("x1=zeta241", ("x1",))
    with pytest.raises(ComputationCapError):
        parse_character("x1=zeta239, x2=zeta2", ("x1", "x2"))
    assert parse_character("x1=zeta16, x2=zeta15",
                           ("x1", "x2")).conductor == 240


def test_evaluate_polynomial():
    f = parse_poly("t1*t2 - 1", ("t1", "t2"))
    assert vanishes(value_at(f, character("zeta4", "zeta4^3")), 4)
    # t^-1 + t is −2 at −1, held at conductor 1 and at 2 (−1 = ζ_2)
    g = parse_poly("t^-1 + t + 2", ("t",))
    for minus_one in (character(-1), Character(2, (1,), (1,))):
        assert vanishes(value_at(g, minus_one), minus_one.conductor)
        assert not vanishes(value_at(g - 4, minus_one), minus_one.conductor)
    # 2·(ζ/2)^2 + 1 = ζ^2/2 + 1 = 1/2 − ζ/2, with ζ^2 = −1 − ζ
    h = parse_poly("2*t^2 + 1", ("t",))
    value = value_at(h, character("1/2*zeta3"))
    assert vanishes(value + [(Fraction(-1, 2), 0), (Fraction(1, 2), 1)], 3)
    assert not vanishes(value, 3)


def test_cyclotomic_poly_values():
    assert cyclotomic_poly(1) == parse_poly("t-1", ("t",))
    assert cyclotomic_poly(6) == parse_poly("t^2-t+1", ("t",))
    assert cyclotomic_poly(8) == parse_poly("t^4+1", ("t",))


def test_cyclotomic_order_rejects_non_canonical_input():
    """_to_dense, which reads a univariate polynomial into Z[u], rejects a
    negative exponent and the zero polynomial; no coefficient reaches it
    that is not an integer, since `LaurentPoly` refuses one."""
    assert _to_dense(parse_poly("t^2+t+1", ("t",))) == (1, 1, 1)
    # t^-1 + 1 + t may not be read as 1 + t + t^2 = Φ_3
    for p in (parse_poly("t^-1 + 1 + t", ("t",)), LaurentPoly.zero(1)):
        with pytest.raises(AlexkitError, match="nonzero polynomial in Z"):
            _to_dense(p)


def test_rank_over_field():
    zero = []
    rows = [[[(1, 0)], [(1, 1)]], [[(1, 2)], [(1, 0)]]]
    # the second row is ζ_3^2 times the first
    assert rank(rows, 3) == 1
    assert rank([[[(1, 0)], zero], [zero, [(1, 1)]]], 3) == 2
    assert rank([[zero, zero]], 3) == 0
    assert rank([], 3) == rank([[], []], 3) == 0
    # at conductor 1 every value is a rational
    assert rank([[[(2, 0)], [(Fraction(1, 3), 0)]], [[(6, 0)], [(1, 0)]]],
                1) == 1


def test_first_prime_is_not_enough():
    """Values and minors divisible by the first prime p₁ of their
    conductor: each reads as zero there, and only a later prime shows
    that it is not.  At N = 1 the value p₁·p₂ is zero at both of the first
    two primes, whose product only reaches the bound p₁·p₂."""
    for n in (1, 2, 5, 12, 211, 240):
        (p1, _), (p2, _) = itertools.islice(_images(n), 2)
        assert not vanishes([(p1, 0)], n)
        assert not vanishes([(p1 * p2, n - 1)], n)
        assert vanishes([(p1, n - 1), (-p1, n - 1)], n)
        assert rank([[[(p1, 0)]]], n) == 1
        assert rank([[[(1, 0)], [(1, 0)]],
                     [[(1, 0)], [(1, 0), (p1, n - 1)]]], n) == 2
        assert rank([[[(p1 * p2, 0)], [(1, 0)]], [[], [(1, 0)]]], n) == 2
    (p1, _), = itertools.islice(_images(5), 1)
    assert not vanishes([(p1, 0), (-p1, 1)], 5)  # p₁·(1 − ζ_5)
    assert rank([[[(p1, 0), (-p1, 1)], [(1, 2)]], [[], [(3, 4)]]], 5) == 2
    assert rank([[[(Fraction(p1, 7), 0)]]], 1) == 1


def test_prime_images():
    """Each prime of `_images(n)` is ≡ 1 mod n, above 2^29 and above the
    one before, and ω^k is read at an ω of exact order n, a root of Φ_n
    mod p."""
    for n in (1, 2, 3, 4, 12, 143, 211, 239, 240):
        last = 2 ** 29
        for p, powers in itertools.islice(_images(n), 3):
            assert p > last and p % n == 1 % n
            last = p
            w = powers[1 % n]
            assert [pow(w, k, p) for k in range(n)] == list(powers)
            assert pow(w, n, p) == 1
            assert sorted(set(powers)) == sorted(powers)  # order exactly n
            phi = cyclotomic_poly(n)
            assert sum(c * pow(w, e, p) for (e,), c in phi.terms.items()) \
                % p == 0
    # every residue is one 30-bit CPython digit: the first 400 primes, more
    # than the 292 that the rank of the 8×8 matrix at ζ_240 in
    # `test_betti_at_high_conductor` reads, stay below 2^30
    for n in (1, 2, 211, 239, 240):
        assert all(p < 2 ** 30
                   for p, _ in itertools.islice(_images(n), 400))


def test_vanishing_order_skips_absent_variables(monkeypatch):
    """(v0 − 1)^2 declared among 50 variables vanishes to order 2 at the
    trivial point within a work cap of 100: only derivatives along v0 are
    taken, 9 units of work in all, where one along every declared
    variable would spend 102 by the first order."""
    monkeypatch.setattr(cyclofield, "VANISHING_WORK_CAP", 100)
    f = parse_poly("(v0 - 1)^2", [f"v{i}" for i in range(50)])
    assert vanishing_order(f, Character(1, [1] * 50, [0] * 50)) == 2
