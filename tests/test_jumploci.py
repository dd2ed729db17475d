import pytest

from alexkit import jumploci
from alexkit.alexander import alexander_poly, fox_matrix, load_matrix
from alexkit.jumploci import (BoundInconsistencyError, JumpLociError,
                              almost_principal_status, bounds_report,
                              monodromy_analysis,
                              semisimple_equality_report, twisted_betti)
from alexkit.intlinalg import validate_character
from alexkit.laurent import factor_poly, parse_poly
from alexkit.presentation import parse_presentation

from conftest import character as chi
from conftest import load_matrix_fixture, load_presentation


def test_twisted_betti_example_56():
    mat = load_matrix_fixture("ex52-g1.json")
    assert twisted_betti(mat, chi(-1, 1, -1)) == 2


def test_twisted_betti_example_66():
    mat = load_matrix_fixture("ex66.json")
    assert twisted_betti(mat, chi(1, -1, 1)) == 2


def test_twisted_betti_example_612(torusbundle):
    assert twisted_betti(torusbundle, chi(1, 1, -1)) == 1


def test_twisted_betti_trivial_character(pencil3):
    assert twisted_betti(pencil3, chi(1, 1, 1)) == 3


def test_twisted_betti_validates_characters(torusbundle):
    with pytest.raises(JumpLociError):
        twisted_betti(torusbundle, chi(-1, 1, 1))


def test_cv_membership_pencil(pencil3):
    """rho is in the depth-k jump locus when b1(G, rho) >= k."""
    rho = chi("zeta3", "zeta3", "zeta3")
    assert twisted_betti(pencil3, rho) >= 1
    assert not twisted_betti(pencil3, rho) >= 2
    assert twisted_betti(pencil3, chi(1, 1, 1)) >= 2


def test_almost_principal_status():
    tb = fox_matrix(load_presentation("torusbundle.grp"))
    assert almost_principal_status(tb) == ("Yes", "b1=1")
    pencil = fox_matrix(load_presentation("pencil3.grp"))
    assert almost_principal_status(pencil) == ("Yes", "deficiency>0")
    balanced = fox_matrix(parse_presentation(
        "gens: x y\nrel: x y x^-1 y^-1\nrel: x y x^-1 y^-1\n"))
    assert almost_principal_status(balanced)[0] == "Unknown"
    assert almost_principal_status(balanced, "link exterior") == \
        ("Yes", "user-asserted: link exterior")
    # a matrix given directly has only what is asserted for it
    direct = load_matrix_fixture("ex66.json")
    assert almost_principal_status(direct) == ("Unknown", None)
    assert almost_principal_status(direct, "fixture") == \
        ("Yes", "user-asserted: fixture")


def test_bounds_report_attained_pencil(pencil3):
    delta = alexander_poly(pencil3)
    rep = bounds_report(pencil3, factor_poly(delta),
                        chi("zeta3", "zeta3", "zeta3"))
    assert rep.b1 == 1
    assert rep.bound_pointwise == 1
    assert rep.attained
    assert rep.almost_principal == ("Yes", "deficiency>0")


def test_bounds_report_strict_example_67():
    mat = load_matrix_fixture("ex67-k2.json")
    delta = alexander_poly(mat)
    fp = factor_poly(delta)
    rho = chi("zeta4", "zeta4")  # (i)(i)+1 = 0: on V(x1*x2+1)
    rep = bounds_report(mat, fp, rho,
                        almost_principal=("Yes", "user-asserted: fixture"))
    assert rep.b1 == 1
    assert rep.bound_pointwise == 2
    assert not rep.attained


def test_bounds_report_no_inconsistency_when_unknown():
    mat = load_matrix_fixture("ex66.json")
    rep = bounds_report(mat, factor_poly(alexander_poly(mat)), chi(1, -1, 1))
    assert rep.b1 == 2
    assert rep.bound_pointwise == 1
    assert rep.almost_principal[0] == "Unknown"


def test_bounds_report_inconsistency_raises():
    mat = load_matrix_fixture("ex66.json")
    with pytest.raises(BoundInconsistencyError):
        bounds_report(mat, factor_poly(alexander_poly(mat)), chi(1, -1, 1),
                      almost_principal=("Yes", "user-asserted: wrong"))


def test_bounds_report_rejects_trivial_character(pencil3):
    with pytest.raises(JumpLociError):
        bounds_report(pencil3, factor_poly(alexander_poly(pencil3)),
                      chi(1, 1, 1))


def test_bounds_report_validates_the_character_once(pencil3, monkeypatch):
    calls = []

    def counted(p, rho):
        calls.append(rho)
        return validate_character(p, rho)

    monkeypatch.setattr(jumploci, "validate_character", counted)
    bounds_report(pencil3, factor_poly(alexander_poly(pencil3)),
                  chi("zeta3", "zeta3", "zeta3"))
    assert len(calls) == 1


def test_bounds_report_rejects_a_character_off_the_relators(torusbundle):
    with pytest.raises(JumpLociError, match="relators"):
        bounds_report(torusbundle, factor_poly(alexander_poly(torusbundle)),
                      chi(-1, 1, 1))


def test_semisimple_report_example_612(torusbundle):
    fp = factor_poly(alexander_poly(torusbundle))
    rep = semisimple_equality_report(torusbundle, fp)
    assert len(rep) == 1
    entry = rep[0]
    assert entry.mu == 2
    assert entry.b1 == 1
    assert not entry.equality


def test_semisimple_report_diagonal_blocks():
    m = load_matrix(("t",), [["t+1", "0"], ["0", "t+1"]])
    fp = factor_poly(parse_poly("(t+1)^2", ("t",)))
    entry = semisimple_equality_report(m, fp)[0]
    assert (entry.mu, entry.b1, entry.equality) == (2, 2, True)
    m2 = load_matrix(("t",), [["(t-2)^2"]])
    fp2 = factor_poly(parse_poly("(t-2)^2", ("t",)))
    entry2 = semisimple_equality_report(m2, fp2)[0]
    assert (entry2.mu, entry2.b1, entry2.equality) == (2, 1, False)


def test_semisimple_report_cyclotomic_roots():
    text = "(t^2+t+1)^2*(t^4+1)"
    m = load_matrix(("t",), [[text]])
    rep = semisimple_equality_report(m, factor_poly(parse_poly(text, ("t",))))
    assert [(e.root, e.mu, e.b1, e.equality) for e in rep] == [
        (chi("zeta3"), 2, 1, False), (chi("zeta8"), 1, 1, True)]


def test_monodromy_jordan_block():
    rep = monodromy_analysis([[-1, 1], [0, -1]])
    assert rep.delta.render(("t",)) == "t^2 + 2*t + 1"
    assert not rep.semisimple
    assert rep.equalities[0].mu == 2
    assert rep.equalities[0].b1 == 1


def test_monodromy_semisimple_cases():
    assert monodromy_analysis([[-1, 0], [0, -1]]).semisimple
    rep = monodromy_analysis([[0, -1], [1, -1]])
    assert rep.delta.render(("t",)) == "t^2 + t + 1"
    assert rep.semisimple


def test_monodromy_rejects_eigenvalue_one():
    with pytest.raises(JumpLociError):
        monodromy_analysis([[1, 5], [0, 2]])
