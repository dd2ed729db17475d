import pytest

from alexkit import AlexkitError
from alexkit.laurent import factor_poly, parse_poly
from alexkit.obstruct import (CONSISTENT, NOT_APPLICABLE, OBSTRUCTED,
                              qp_verdict)

X3 = ("x1", "x2", "x3")


def test_qp_verdict_pencil_consistent():
    delta = parse_poly("(t1*t2*t3*t4-1)^2", ("t1", "t2", "t3", "t4"))
    v = qp_verdict(factor_poly(delta), 4)
    assert v.verdict == CONSISTENT
    assert v.certificate["e"] == [1, 1, 1, 1]
    assert v.certificate["cyclotomic_orders"] == [[1, 2]]
    assert v.certificate["c"] == 1


def test_qp_verdict_example_52_obstructed():
    delta = parse_poly("(x2-1)*(x1*x2+1)^2*(x2*x3+1)^2", X3)
    assert qp_verdict(factor_poly(delta), 3).verdict == OBSTRUCTED


def test_qp_verdict_non_cyclotomic_image():
    delta = parse_poly("(x1*x2*x3-2)", X3)
    assert qp_verdict(factor_poly(delta), 3).verdict == OBSTRUCTED


def test_qp_verdict_projective():
    assert qp_verdict(factor_poly(parse_poly("3", X3)), 3,
                      projective=True).verdict == CONSISTENT
    assert qp_verdict(factor_poly(parse_poly("x1*x2*x3-1", X3)), 3,
                      projective=True).verdict == OBSTRUCTED
    assert qp_verdict(None, 5, projective=True).verdict == CONSISTENT


def test_qp_verdict_low_b1():
    assert qp_verdict(factor_poly(parse_poly("t-2", ("t",))),
                      1).verdict == CONSISTENT
    assert qp_verdict(factor_poly(parse_poly("(t1-1)*(t2-1)", ("t1", "t2"))),
                      2).verdict == NOT_APPLICABLE
    # None stands for the zero polynomial, which factor_poly rejects
    assert qp_verdict(None, 3).verdict == CONSISTENT


def test_qp_verdict_two_distinct_subtorus_factors():
    delta = parse_poly("(x1*x2-1)*(x2*x3-1)", X3)
    assert qp_verdict(factor_poly(delta), 3).verdict == OBSTRUCTED


def test_qp_verdict_transverse_subtori_obstructed():
    delta = parse_poly("(x2-1)*(x1*x3-1)", X3)
    assert qp_verdict(factor_poly(delta), 3).verdict == OBSTRUCTED


def test_qp_verdict_parallel_translated_subtori():
    delta = parse_poly("(x1*x2*x3-1)*(x1*x2*x3+1)", X3)
    v = qp_verdict(factor_poly(delta), 3)
    assert v.verdict == CONSISTENT
    assert v.certificate["e"] == [1, 1, 1]
    assert v.certificate["cyclotomic_orders"] == [[1, 1], [2, 1]]


def test_qp_verdict_transverse_subtori_b1_2_exempt():
    delta = parse_poly("(t1*t2-1)*(t1*t2^-1-1)", ("t1", "t2"))
    assert qp_verdict(factor_poly(delta), 2).verdict == NOT_APPLICABLE


def test_qp_verdict_nonzero_constant():
    v = qp_verdict(factor_poly(parse_poly("3", X3)), 3)
    assert v.verdict == CONSISTENT
    assert v.certificate == {"c": 3}


def test_qp_verdict_variable_mismatch():
    with pytest.raises(AlexkitError, match="variables but b1"):
        qp_verdict(factor_poly(parse_poly("t1*t2-1", ("t1", "t2"))), 3)
