import pytest

from alexkit.alexander import alexander_poly
from alexkit.cyclofield import cyclotomic_poly
from alexkit.laurent import associates, multiplicity, parse_poly
from alexkit.seifert import (SeifertError, SpliceData, seifert_delta,
                             seifert_divisor, seifert_twisted_betti)

from conftest import character
from test_properties import sev_decompose

T3 = ("t1", "t2", "t3")


def ex73():
    return SpliceData((1, 1, 1, 2, 3), 3)


def test_splice_validation():
    with pytest.raises(SeifertError):
        SpliceData((2, 4, 5), 2)
    with pytest.raises(SeifertError):
        SpliceData((1, 1), 2)
    with pytest.raises(SeifertError):
        SpliceData((1, 1, 1), 1)
    with pytest.raises(SeifertError):
        SpliceData((1, 0, 3), 2)


def test_splice_derived_quantities():
    d = ex73()
    assert d.big_n == 1
    assert d.big_n_prime == 6
    assert d.s == 2
    assert sorted(d.n_prime_j(j) for j in range(3, 5)) == [2, 3]


def test_seifert_delta_pencil_matches_fox_pipeline(pencil3):
    d = SpliceData((1, 1, 1), 3)
    assert associates(seifert_delta(d), alexander_poly(pencil3))


def test_seifert_delta_trivial_exponent():
    d = SpliceData((1, 1, 5), 2)
    # q + s - 2 = 1 with one nontrivial fiber: (u^5-1)/(u^5/5 - 1)
    delta = seifert_delta(d)
    assert len(delta.terms) == 5


def test_seifert_divisor_example_73():
    comps = {c.root_order: c.multiplicity for c in seifert_divisor(ex73())}
    assert comps == {1: 1, 2: 2, 3: 2, 6: 3}


def test_seifert_divisor_matches_delta_multiplicities():
    d = ex73()
    delta = seifert_delta(d)
    for comp in seifert_divisor(d):
        phi_u = cyclotomic_poly(comp.root_order)
        sub = parse_poly(
            phi_u.render(("u",)).replace("u", "(t1*t2*t3)"), T3)
        assert multiplicity(sub, delta) == comp.multiplicity


def test_seifert_delta_is_sev():
    d = ex73()
    _, e = sev_decompose(seifert_delta(d))
    assert e == (1, 1, 1)


def test_seifert_twisted_betti_example_73():
    d = ex73()
    assert seifert_twisted_betti(d, character(-1, 1, 1)) == 2
    assert seifert_twisted_betti(d, character("zeta3", 1, 1)) == 2
    assert seifert_twisted_betti(d, character("zeta6", 1, 1)) == 3
    # alpha = 1 but rho nontrivial: the order-1 component
    assert seifert_twisted_betti(d, character(-1, -1, 1)) == 1
    assert seifert_twisted_betti(d, character(2, 1, 1)) == 0


def test_seifert_twisted_betti_pencil():
    d = SpliceData((1, 1, 1), 3)
    assert seifert_twisted_betti(
        d, character("zeta3", "zeta3", "zeta3")) == 1


def test_seifert_twisted_betti_rejects_trivial():
    with pytest.raises(SeifertError):
        seifert_twisted_betti(ex73(), character(1, 1, 1))
