from fractions import Fraction

import pytest

from alexkit.cyclofield import (Character, CycloError, _divider, _mul,
                                _reduce, cyclotomic_poly, evaluate,
                                parse_character, rank_over_field)
from alexkit import ComputationCapError
from alexkit.laurent import LaurentError, LaurentPoly, _to_dense, parse_poly

from conftest import character


def one(n):
    return _reduce([1], n)


def zeta(n, k=1):
    return _reduce([0] * k + [1], n)


def test_root_of_unity_reduces_order():
    chi = parse_character("a=zeta6^3, b=zeta4^-2, c=zeta5^5", "abc")
    assert chi == Character(2, (1, 1, 1), (1, 1, 0))


def test_primitive_root_power_cycle():
    z = zeta(5)
    acc = one(5)
    for _ in range(5):
        acc = _mul(acc, z, 5)
    assert acc == one(5)
    z5 = character("zeta5")
    assert z5.pull([[5]]).is_trivial()
    assert not z5.pull([[3]]).is_trivial()


def test_zeta3_sum_identity():
    z = zeta(3)
    assert not any(map(sum, zip(_mul(z, z, 3), z, one(3))))


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
        (v,) = evaluate(parse_poly("t^-1", ("t",)), character(x))
        assert type(v) is Fraction and v == Fraction(1, x)
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
    with pytest.raises(CycloError):
        Character(3, (1, 0), (1, 0))
    with pytest.raises(ComputationCapError):
        Character(241, (1,), (1,))


def test_pull_multiplies_scales_and_adds_residues():
    chi = Character(12, (2, -1), (1, 5))
    assert chi.pull([[2, -1], [0, 0]]) == \
        Character(12, (-4, 1), (2 - 5, 0))
    with pytest.raises(CycloError):
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
        with pytest.raises(CycloError):
            parse_character(text, ("x1",))
    with pytest.raises(CycloError):
        parse_character("x1=1", ("x1", "x2"))
    with pytest.raises(ComputationCapError):
        parse_character("x1=zeta241", ("x1",))
    with pytest.raises(ComputationCapError):
        parse_character("x1=zeta239, x2=zeta2", ("x1", "x2"))
    assert parse_character("x1=zeta16, x2=zeta15",
                           ("x1", "x2")).conductor == 240


def test_evaluate_polynomial():
    f = parse_poly("t1*t2 - 1", ("t1", "t2"))
    assert not any(evaluate(f, character("zeta4", "zeta4^3")))
    g = parse_poly("t^-1 + t", ("t",))
    assert evaluate(g, character(-1)) == (-2,)
    # 2·(ζ/2)^2 + 1 = ζ^2/2 + 1 = 1/2 − ζ/2, with ζ^2 = −1 − ζ
    h = parse_poly("2*t^2 + 1", ("t",))
    assert evaluate(h, character("1/2*zeta3")) == (Fraction(1, 2),
                                                   Fraction(-1, 2))


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
        with pytest.raises(LaurentError):
            _to_dense(p)


def test_rank_over_field():
    z = zeta(3)
    zero = _reduce([], 3)
    rows = [[one(3), z], [zeta(3, 2), one(3)]]
    # second row is a multiple of the first
    assert rank_over_field(rows, 3) == 1
    rows2 = [[one(3), zero], [zero, z]]
    assert rank_over_field(rows2, 3) == 2
    assert rank_over_field([[zero, zero]], 3) == 0
    # at conductor 1 the entries are 1-tuples of rationals
    assert rank_over_field([[(2,), (Fraction(1, 3),)], [(6,), (1,)]], 1) == 1


def test_inexact_division_raises():
    with pytest.raises(CycloError, match="internal bug"):
        _divider((2,), 1)((3,))
    with pytest.raises(CycloError, match="internal bug"):
        _divider((1, -1), 5)((1, 0, 0, 0))  # 1 − ζ_5 is no unit
