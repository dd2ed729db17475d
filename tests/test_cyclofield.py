from fractions import Fraction

import pytest

from alexkit.cyclofield import (CycloError, CycloNumber, cyclotomic_poly,
                                evaluate, parse_character, rank_over_field)
from alexkit.laurent import parse_poly

R = CycloNumber.from_rational


def test_root_of_unity_reduces_order():
    assert CycloNumber.root_of_unity(6, 3) == R(-1)
    assert CycloNumber.root_of_unity(4, 2) == R(-1)
    assert CycloNumber.root_of_unity(5, 5).is_one()


def test_primitive_root_power_cycle():
    z = CycloNumber.root_of_unity(5, 1)
    acc = R(1)
    for _ in range(5):
        acc = acc * z
    assert acc.is_one()
    assert not (z ** 3).is_one()


def test_mixed_conductor_arithmetic():
    z3 = CycloNumber.root_of_unity(3, 1)
    z4 = CycloNumber.root_of_unity(4, 1)
    w = z3 * z4
    assert w.conductor == 12
    assert (w ** 12).is_one()
    assert not (w ** 6).is_one()


def test_zeta3_sum_identity():
    z = CycloNumber.root_of_unity(3, 1)
    assert (z * z + z + R(1)).is_zero()


def test_inverse():
    z = CycloNumber.root_of_unity(7, 2)
    assert (z * z.inverse()).is_one()
    x = R(Fraction(3, 4))
    assert (x * x.inverse()).is_one()
    with pytest.raises(ZeroDivisionError):
        R(0).inverse()


def test_negative_powers():
    z = CycloNumber.root_of_unity(8, 1)
    assert z ** -1 == z ** 7


def test_as_rational():
    assert R(Fraction(5, 2)).as_rational() == Fraction(5, 2)
    z = CycloNumber.root_of_unity(3, 1)
    assert z.as_rational() is None


def test_multiplicative_order():
    z = CycloNumber.root_of_unity(6, 1)
    assert z.multiplicative_order(12) == 6
    assert R(2).multiplicative_order(10) is None


def test_parse_character():
    chi = parse_character("x1=-1, x2=zeta3^2, x3=1", ("x1", "x2", "x3"))
    assert chi[0] == R(-1)
    assert chi[1] == CycloNumber.root_of_unity(3, 2)
    assert chi[2].is_one()
    assert not chi.is_trivial()


def test_parse_character_rejects_bad_input():
    with pytest.raises(CycloError):
        parse_character("x1=0", ("x1",))
    with pytest.raises(CycloError):
        parse_character("x1=1", ("x1", "x2"))
    with pytest.raises(CycloError):
        parse_character("y=1", ("x1",))


def test_evaluate_polynomial():
    f = parse_poly("t1*t2 - 1", ("t1", "t2"))
    z = CycloNumber.root_of_unity(4, 1)
    assert evaluate(f, (z, z ** 3)).is_zero()
    g = parse_poly("t^-1 + t", ("t",))
    assert evaluate(g, (R(-1),)) == R(-2)


def test_cyclotomic_poly_values():
    assert cyclotomic_poly(1) == parse_poly("t-1", ("t",))
    assert cyclotomic_poly(6) == parse_poly("t^2-t+1", ("t",))
    assert cyclotomic_poly(8) == parse_poly("t^4+1", ("t",))


def test_rank_over_field():
    z = CycloNumber.root_of_unity(3, 1)
    rows = [[R(1), z], [z.inverse(), R(1)]]
    # second row is a multiple of the first
    assert rank_over_field(rows) == 1
    rows2 = [[R(1), R(0)], [R(0), z]]
    assert rank_over_field(rows2) == 2
    assert rank_over_field([[R(0), R(0)]]) == 0
