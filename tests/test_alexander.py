import math
import time

import pytest

from alexkit.alexander import (alexander_poly, elementary_divisor_exponents,
                               elementary_ideal_minors, fox_matrix,
                               generic_rank_mod, load_matrix,
                               univariate_invariant_factors)
from alexkit import AlexkitError, ComputationCapError
from alexkit.laurent import LaurentPoly, associates, divides
from alexkit.presentation import parse_presentation

from conftest import load_matrix_fixture, poly

X3 = ("x1", "x2", "x3")


def test_fox_row_of_commutator():
    p = parse_presentation("gens: x y\nrel: x y x^-1 y^-1\n")
    mat = fox_matrix(p)
    t1, t2 = ("t1", "t2")
    row = [e.render((t1, t2)) for e in mat.entries[0]]
    assert associates(mat.entries[0][0],
                      poly("1 - t2", (t1, t2)))
    assert associates(mat.entries[0][1],
                      poly("t1 - 1", (t1, t2)))


def test_fox_identity_checked_on_presentations(pencil3):
    assert pencil3.fox_identity_holds()


def test_pencil_first_row(pencil3):
    names = ("t1", "t2", "t3")
    row = pencil3.entries[0]
    assert associates(row[1], poly("t1*(1 - t1)", names))
    assert associates(row[2], poly("t1*t2*(1 - t1)", names))
    assert pencil3.num_rows == 2
    assert pencil3.num_cols == 3


def test_torusbundle_matrix(torusbundle):
    rows = [[e.render(("t",)) for e in row] for row in torusbundle.entries]
    assert rows[0] == ["0", "0", "0"]
    assert associates(torusbundle.entries[1][0],
                      poly("t + 1", ("t",)))
    assert torusbundle.entries[1][1].is_zero()


def test_minor_conventions_free_group():
    p = parse_presentation("gens: a b\n")
    mat = fox_matrix(p)
    assert [f.is_zero() for f in elementary_ideal_minors(mat, 1)] == [True]
    assert elementary_ideal_minors(mat, 2) == [LaurentPoly.one(0)] or \
        elementary_ideal_minors(mat, 2)[0].is_unit()
    with pytest.raises(AlexkitError, match="nonnegative"):
        elementary_ideal_minors(mat, -1)


def test_minor_cap():
    """No shape cap: the all-ones 9 × 9 answers, and the product meter
    refuses the loop over the C(30, k) row subsets of a 30-row matrix
    before it starts, whether their minors are zero or not."""
    names = tuple(f"x{i}" for i in range(9))
    square = load_matrix(names, [["1"] * 9 for _ in range(9)])
    assert elementary_ideal_minors(square, 0) == [LaurentPoly.zero(9)]
    ones = load_matrix(("t",), [["1"] * 12 for _ in range(30)])
    with pytest.raises(ComputationCapError, match="^product work"):
        elementary_ideal_minors(ones, 0)
    # (t - 1)·I of size 30: its 2 x 2 minors pass, and its 3 x 3 are
    # refused before the C(30, 3)² of them are read
    wide = load_matrix(("t",), [["t - 1" if j == i else "0"
                                 for j in range(30)] for i in range(30)])
    with pytest.raises(ComputationCapError, match="^product work"):
        univariate_invariant_factors(wide)
    with pytest.raises(ComputationCapError, match="^product work"):
        generic_rank_mod(ones, poly("t + 1", ("t",)))


def test_alexander_poly_pencil(pencil3):
    names = ("t1", "t2", "t3")
    assert associates(alexander_poly(pencil3),
                      poly("t1*t2*t3 - 1", names))


def test_alexander_poly_example_52():
    mat = load_matrix_fixture("ex52-g1.json")
    want = poly("(x2-1)*(x1*x2+1)^2*(x2*x3+1)^2", X3)
    assert associates(alexander_poly(mat), want)
    mat2 = load_matrix_fixture("ex52-g2.json")
    assert associates(alexander_poly(mat2), want)


def test_alexander_poly_example_66():
    mat = load_matrix_fixture("ex66.json")
    assert associates(alexander_poly(mat), poly("x1*x3-1", X3))


def test_delta_chain_divisibility():
    mat = load_matrix_fixture("ex52-g1.json")
    chain = [alexander_poly(mat, i) for i in range(1, 4)]
    for a, b in zip(chain, chain[1:]):
        if b.is_zero():
            continue
        assert a.is_zero() or divides(b, a)


def test_generic_rank_mod_example_52():
    alpha = poly("x1*x2+1", X3)
    g1 = load_matrix_fixture("ex52-g1.json")
    g2 = load_matrix_fixture("ex52-g2.json")
    assert generic_rank_mod(g1, alpha) == 0
    assert generic_rank_mod(g2, alpha) == 1
    with pytest.raises(AlexkitError, match="non-unit"):
        generic_rank_mod(g1, LaurentPoly.one(3))


def test_invariant_factors_torusbundle(torusbundle):
    inv = univariate_invariant_factors(torusbundle)
    rendered = [f.render(("t",)) for f in inv]
    assert rendered == ["1", "t^2 + 2*t + 1"]
    ek = elementary_divisor_exponents(inv, (1, 1))
    assert ek == {2: 1}


def test_invariant_factors_diag_blocks():
    m = load_matrix(("t",), [["t+1", "0"], ["0", "t+1"]])
    inv = univariate_invariant_factors(m)
    assert [f.render(("t",)) for f in inv] == ["t + 1", "t + 1"]
    ek = elementary_divisor_exponents(inv, (1, 1))
    assert ek == {1: 2}
    m2 = load_matrix(("t",), [["(t-2)^2"]])
    ek2 = elementary_divisor_exponents(univariate_invariant_factors(m2),
                                       (-2, 1))
    assert ek2 == {2: 1}


def test_invariant_factors_with_negative_exponents():
    # det = t^-1 - 1 ≐ t - 1: one power of t shifts the whole matrix; a
    # shift per entry would make it [[1, 1], [1, 1]], of rank 1
    m = load_matrix(("t",), [["t^-1", "1"], ["1", "1"]])
    inv = univariate_invariant_factors(m)
    assert [f.render(("t",)) for f in inv] == ["1", "t - 1"]


def test_invariant_factors_of_matrix_whose_smith_elimination_blew_up():
    """A Smith elimination over Q[t] took 11 s here and left factors with
    integer contents of 175,092 bits; the ratios of determinantal divisors
    are the exact answer, in well under a second."""
    m = load_matrix(("t",), [
        ["t^-1", "0", "0", "t"],
        ["-2*t^2 - t^-1", "t^2*(t+1)", "-1", "(1 + 2*t^-1)*(t+1)"],
        ["-t^2 - 2 + 2*t", "1", "(t^-1 - 3*t^2)*(t+1)", "2*t^-1 - 3*t^3"],
        ["t^2 - t^3", "0", "0", "-3*t^-1"]])
    start = time.perf_counter()
    inv = univariate_invariant_factors(m)
    assert time.perf_counter() - start < 2
    assert [max(e for (e,) in f.terms) for f in inv] == [0, 0, 0, 12]
    assert inv[:3] == [LaurentPoly.one(1)] * 3
    assert math.gcd(*inv[3].terms.values()) == 1
    assert associates(inv[3], elementary_ideal_minors(m, 0)[0])


def test_invariant_factors_requires_univariate(pencil3):
    with pytest.raises(AlexkitError, match="univariate matrix"):
        univariate_invariant_factors(pencil3)


def test_product_of_invariant_factors_matches_delta(torusbundle):
    inv = univariate_invariant_factors(torusbundle)
    prod = LaurentPoly.one(1)
    for f in inv:
        prod = prod * f
    assert associates(prod, alexander_poly(torusbundle))


def test_load_matrix_rejects_ragged_rows():
    with pytest.raises(AlexkitError, match="ragged rows"):
        load_matrix(("t",), [["t", "1"], ["t"]])
