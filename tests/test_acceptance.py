"""Acceptance suite: one criterion per test, one printed pass line each."""

from alexkit.alexander import alexander_poly, fox_matrix, generic_rank_mod
from alexkit.intlinalg import abelianization
from alexkit.jumploci import (bounds_report, monodromy_analysis,
                              semisimple_equality_report, twisted_betti)
from alexkit.cyclofield import vanishing_order
from alexkit.laurent import associates, factor_poly, normalize, parse_poly
from alexkit.obstruct import CONSISTENT, OBSTRUCTED, qp_verdict
from alexkit.seifert import (SpliceData, seifert_delta, seifert_divisor,
                             seifert_twisted_betti)

import test_properties
from conftest import (character, load_matrix_fixture, load_presentation,
                      multiplicity)

X3 = ("x1", "x2", "x3")


def _report(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def test_criterion_01_pencil_delta():
    for n in (3, 4, 5):
        mat = fox_matrix(load_presentation(f"pencil{n}.grp"))
        names = tuple(f"t{i+1}" for i in range(n))
        u = "*".join(names)
        want = parse_poly(f"({u} - 1)^{n - 2}", names)
        assert normalize(alexander_poly(mat)) == normalize(want)
    _report(1, "pencil groups n=3,4,5 give delta = (t1...tn - 1)^(n-2)")


def test_criterion_02_generic_rank_bounds():
    want = parse_poly("(x2-1)*(x1*x2+1)^2*(x2*x3+1)^2", X3)
    alpha = parse_poly("x1*x2+1", X3)
    g1 = load_matrix_fixture("ex52-g1.json")
    g2 = load_matrix_fixture("ex52-g2.json")
    assert associates(alexander_poly(g1), want)
    assert associates(alexander_poly(g2), want)
    b1gen_g1 = 3 - 1 - generic_rank_mod(g1, alpha)
    b1gen_g2 = 3 - 1 - generic_rank_mod(g2, alpha)
    assert b1gen_g1 == 2
    assert b1gen_g2 == 1
    mu = multiplicity(alpha, want)
    assert b1gen_g1 <= mu and b1gen_g2 <= mu
    _report(2, "matrix-mode delta and generic ranks match, "
            "generic bound b1gen <= mu holds")


def test_criterion_03_nongeneric_point():
    g1 = load_matrix_fixture("ex52-g1.json")
    rho = character(-1, 1, -1)
    assert twisted_betti(g1, rho) == 2
    assert multiplicity(parse_poly("x2-1", X3),
                        alexander_poly(g1)) == 1
    _report(3, "b1 = 2 at a special character although mu(x2-1) = 1")


def test_criterion_04_bound_fails_without_hypothesis():
    mat = load_matrix_fixture("ex66.json")
    rho = character(1, -1, 1)
    assert twisted_betti(mat, rho) == 2
    rep = bounds_report(mat, factor_poly(alexander_poly(mat)), rho)
    assert rep.bound_pointwise == 1
    assert rep.b1 == 2
    assert rep.almost_principal[0] == "Unknown"
    _report(4, "b1 = 2 exceeds bound 1 without the almost-principal "
            "hypothesis; no inconsistency raised")


def test_criterion_05_strict_inequality_family():
    samples = [character("zeta4", "zeta4"), character("zeta8", "zeta8^3"),
               character(-1, 1)]
    for k in (2, 3):
        mat = load_matrix_fixture(f"ex67-k{k}.json")
        fp = factor_poly(alexander_poly(mat))
        for rho in samples:
            rep = bounds_report(mat, fp, rho,
                                almost_principal=("Yes",
                                                  "user-asserted: fixture"))
            nu = vanishing_order(parse_poly("x1*x2+1", ("x1", "x2")), rho)
            assert rep.b1 == 1
            assert rep.b1 < k * nu
    _report(5, "b1 = 1 < k*nu at sampled characters for the k=2,3 family")


def test_criterion_06_bound_attained_pencil():
    samples = {3: [character("zeta3", "zeta3", "zeta3"),
                   character(-1, -1, 1), character("zeta4", "zeta4^3", 1)],
               4: [character("zeta4", "zeta4", "zeta4", "zeta4"),
                   character(-1, -1, 1, 1),
                   character("zeta3", "zeta3^2", -1, -1)]}
    for n, rhos in samples.items():
        mat = fox_matrix(load_presentation(f"pencil{n}.grp"))
        fp = factor_poly(alexander_poly(mat))
        for rho in rhos:
            rep = bounds_report(mat, fp, rho)
            assert rep.b1 == n - 2
            assert rep.bound_pointwise == n - 2
            assert rep.attained
    _report(6, "pencil n=3,4: bound attained with b1 = n-2 at every "
            "sampled character")


def test_criterion_07_torus_bundle():
    pres = load_presentation("torusbundle.grp")
    ab = abelianization(pres)
    assert (ab.rank, list(ab.torsion)) == (1, [4])
    mat = fox_matrix(pres)
    delta = alexander_poly(mat)
    assert associates(delta, parse_poly("(t+1)^2", ("t",)))
    assert twisted_betti(mat, character(1, 1, -1)) == 1
    entry = semisimple_equality_report(mat, factor_poly(delta))[0]
    assert not entry.equality
    rep = monodromy_analysis([[-1, 1], [0, -1]])
    assert associates(rep.delta, delta)
    assert not rep.semisimple
    _report(7, "torsion [4], delta = (1+t)^2, b1(-1) = 1, equality and "
            "semisimplicity both fail")


def test_criterion_08_seifert_example():
    d = SpliceData((1, 1, 1, 2, 3), 3)
    delta = seifert_delta(d)
    roots = {2: -1, 3: "zeta3", 6: "zeta6"}
    comps = {c.root_order: c.multiplicity for c in seifert_divisor(d)}
    assert comps == {1: 1, 2: 2, 3: 2, 6: 3}
    from alexkit.cyclofield import cyclotomic_poly
    for order, mult in comps.items():
        phi = parse_poly(cyclotomic_poly(order).render(("u",))
                         .replace("u", "(t1*t2*t3)"), ("t1", "t2", "t3"))
        assert multiplicity(phi, delta) == mult
        if order == 1:
            # alpha = 1 through a nontrivial character
            got = seifert_twisted_betti(d, character(-1, -1, 1))
        else:
            got = seifert_twisted_betti(d, character(roots[order], 1, 1))
        assert got == mult
    pencil = fox_matrix(load_presentation("pencil3.grp"))
    assert associates(seifert_delta(SpliceData((1, 1, 1), 3)),
                      alexander_poly(pencil))
    _report(8, "divisor multiplicities, twisted ranks, and the pencil "
            "cross-check all agree")


def test_criterion_09_obstruction_suite():
    delta52 = parse_poly("(x2-1)*(x1*x2+1)^2*(x2*x3+1)^2", X3)
    assert qp_verdict(factor_poly(delta52), 3).verdict == OBSTRUCTED
    for n in (3, 4, 5):
        names = tuple(f"t{i+1}" for i in range(n))
        u = "*".join(names)
        delta = parse_poly(f"({u} - 1)^{n - 2}", names)
        v = qp_verdict(factor_poly(delta), n)
        assert v.verdict == CONSISTENT
        assert v.certificate["cyclotomic_orders"] == [[1, n - 2]]
    assert qp_verdict(factor_poly(parse_poly("5", X3)), 3,
                      projective=True).verdict == CONSISTENT
    assert qp_verdict(factor_poly(delta52), 3,
                      projective=True).verdict == OBSTRUCTED
    two_factors = parse_poly("(x1*x2-1)*(x2*x3-1)", X3)
    assert qp_verdict(factor_poly(two_factors), 3).verdict == OBSTRUCTED
    _report(9, "obstruction verdicts match on all required shapes")


def test_criterion_10_property_suites():
    test_properties.test_fox_identity_random_presentations()
    test_properties.test_delta_chain_divisibility_random()
    test_properties.test_tietze_moves_preserve_delta()
    test_properties.test_vanishing_order_additivity()
    test_properties.test_snf_random_matrices()
    test_properties.test_gcd_axioms_random()
    test_properties.test_cyclotomic_recognition()
    test_properties.test_rank_over_field_matches_brute_minors()
    _report(10, "all randomized property suites pass with fixed seeds")
