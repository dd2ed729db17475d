import itertools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import alexkit
from alexkit import AlexkitError, cyclofield, jumploci
from alexkit.alexander import alexander_poly, fox_matrix, load_matrix
from alexkit.cyclofield import Character, vanishing_order
from alexkit.jumploci import (BoundInconsistencyError, almost_principal_status,
                              bounds_report, monodromy_analysis,
                              semisimple_equality_report, twisted_betti)
from alexkit.intlinalg import induced_torus_point, validate_character
from alexkit.laurent import (LaurentPoly, _from_dense, _phi_coeffs,
                             factor_poly, parse_poly)
from alexkit.presentation import parse_presentation

from conftest import character as chi
from conftest import data_path, load_matrix_fixture, load_presentation
from test_properties import _random_character


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
    with pytest.raises(AlexkitError, match="relators"):
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
    with pytest.raises(AlexkitError, match="nontrivial character"):
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
    with pytest.raises(AlexkitError, match="relators"):
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


def test_semisimple_report_skips_trivial_and_irrational_roots():
    """Of (t − 1)(t + 1)(t² − 3t + 1) only t + 1 is reported: t − 1 has
    the trivial root and t² − 3t + 1 no root that is a character."""
    text = "(t - 1)*(t + 1)*(t^2 - 3*t + 1)"
    m = load_matrix(("t",), [[text, "0"]])
    rep = semisimple_equality_report(m, factor_poly(parse_poly(text, ("t",))))
    assert [(e.root_text, e.root, e.mu, e.b1, e.equality) for e in rep] == [
        ("t + 1", chi(-1), 1, 1, True)]


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
    with pytest.raises(AlexkitError, match="eigenvalue"):
        monodromy_analysis([[1, 5], [0, 2]])


def _oracle_bounds(factored, point):
    """(pointwise, generic) bounds at point, every vanishing order taken
    by the general `vanishing_order`."""
    nus = [(vanishing_order(f, point), mu) for f, mu in factored.factors]
    on = [mu for nu, mu in nus if nu]
    return sum(mu * nu for nu, mu in nus), on[0] if len(on) == 1 else None


def _random_direction(rng, n):
    """A primitive exponent vector with entries in [−3, 3], some negative
    whenever n > 1."""
    while True:
        e = [rng.randint(-3, 3) for _ in range(n)]
        if math.gcd(*e) == 1 and (n == 1 or min(e) < 0):
            return e


def _bezout(e):
    """An integer vector a with ⟨a, e⟩ = 1, for a primitive e with entries
    in [−3, 3]: one with entries in [−3, 3] exists."""
    return next(a for a in itertools.product(range(-3, 4), repeat=len(e))
                if sum(x * y for x, y in zip(a, e)) == 1)


def _on_locus(rng, e, m, conductor):
    """A point ρ of the given conductor, a multiple of m, with ρ^e of
    order m: every scale 1 and ⟨k, e⟩ = (conductor/m)·j, gcd(j, m) = 1."""
    k = [rng.randrange(conductor) for _ in e]
    j = rng.choice([j for j in range(1, m + 1) if math.gcd(j, m) == 1])
    shift = (conductor // m) * j - sum(x * y for x, y in zip(k, e))
    return Character(conductor, [1] * len(e),
                     [x + shift * y for x, y in zip(k, _bezout(e))])


def test_bounds_report_matches_vanishing_order_oracle():
    """The pointwise and generic bounds of `bounds_report`, which read the
    order of a factor Φ_m(t^e) off its record, equal the
    bounds from `vanishing_order` of every factor: on products of random
    Φ_m(t^e), 2t^e − 1 and t^2e − 3t^e + 1 (e with negative entries), and
    one factor in two essential variables, at random points of conductor
    up to 240, on and off each factor's zero set."""
    rng = random.Random(32)
    hits = misses = 0
    for _ in range(60):
        n = rng.randint(1, 3)
        factors = []
        for _ in range(rng.randint(1, 3)):
            # Φ_m, 2u − 1 or u² − 3u + 1, coefficients from u^0 up
            kind = rng.randrange(4)
            r = _phi_coeffs(rng.randint(1, 30)) if kind < 2 else \
                ((-1, 2), (1, -3, 1))[kind - 2]
            factors.append(_from_dense(r, _random_direction(rng, n)))
        if n > 1 and rng.random() < 0.3:
            factors.append(LaurentPoly.var(n, 0) + LaurentPoly.var(n, 1) + 1)
        delta = LaurentPoly.one(n)
        for f in factors:
            delta = delta * f ** rng.randint(1, 2)
        factored = factor_poly(delta)
        assert any(factored.essential)
        mat = load_matrix([f"t{i}" for i in range(n)], [["0"] * (n + 1)])
        for _ in range(12):
            e, _, m = rng.choice([x for x in factored.essential if x])
            if m is not None and rng.random() < 0.5:
                point = _on_locus(rng, e, m, m * rng.randint(1, 240 // m))
            else:
                point = _random_character(rng, n, range(1, 241))
            if point.is_trivial():
                continue
            report = bounds_report(mat, factored, point,
                                   almost_principal=("Unknown", None))
            expected = _oracle_bounds(factored, point)
            assert (report.bound_pointwise, report.bound_generic) == \
                expected, (delta, point)
            if expected[0]:
                hits += 1
            else:
                misses += 1
    assert hits > 100 and misses > 100


def test_bounds_report_on_the_linear_root():
    """2·t^e − 1 vanishes where ρ^e = 1/2, once: `bounds_report` gives
    order 1 there and 0 nearby, as the oracle does."""
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(1, 3)
        e = _random_direction(rng, n)
        factored = factor_poly(_from_dense([-1, 2], e) ** 2)
        mat = load_matrix([f"t{i}" for i in range(n)], [["0"] * (n + 1)])
        # scales 2^(−a_i) with ⟨a, e⟩ = 1 put ρ^e at 1/2
        scales = [Fraction(1, 2) ** x for x in _bezout(e)]
        conductor = rng.choice((1, 3, 7, 240))
        for k in ([0] * n, [rng.randrange(conductor) for _ in range(n)]):
            point = Character(conductor, scales, k)
            if point.is_trivial():
                continue
            report = bounds_report(mat, factored, point,
                                   almost_principal=("Unknown", None))
            assert (report.bound_pointwise, report.bound_generic) == \
                _oracle_bounds(factored, point)
            if not any(k):
                assert report.bound_pointwise == 2


def test_bounds_report_spends_no_work_on_absent_variables(monkeypatch):
    """v48 − 2 among 50 variables, at v48 = 2: its record has no order,
    so `vanishing_order` reads it, spending 4 units of work on the value
    and the one derivative along v48; the bound 1 comes within a cap of
    50, which a derivative along each declared variable would pass."""
    monkeypatch.setattr(cyclofield, "VANISHING_WORK_CAP", 50)
    mat = load_matrix([f"v{i}" for i in range(50)], [["v48 - 2", "0"]])
    factored = factor_poly(mat.entries[0][0])
    point = Character(1, [1] * 48 + [2, 1], [0] * 50)
    report = bounds_report(mat, factored, point,
                           almost_principal=("Unknown", None))
    assert (report.b1, report.bound_pointwise, report.bound_generic) == \
        (1, 1, 1)


def _fixture_character(rng, name, width):
    """A random character on the generators of a fixture; on
    torusbundle, whose relators give x1² = 1 and x2² = x1, x1 and x2 are
    drawn among the values that respect them."""
    rho = _random_character(rng, width,
                            (1, 2, 3, 4, 5, 6, 12, 60, 211, 240))
    if name != "torusbundle.grp":
        return rho
    conductor = rng.choice((4, 12, 60, 240))
    quarter = conductor // 4
    x1, x2 = rng.choice(((0, 0), (0, 2), (2, 1), (2, 3)))
    return Character(conductor, (1, 1, rho.scales[2]),
                     (x1 * quarter, x2 * quarter, rng.randrange(conductor)))


@pytest.mark.parametrize("name", ["pencil3.grp", "pencil4.grp",
                                  "pencil5.grp", "torusbundle.grp",
                                  "ex52-g1.json", "ex52-g2.json",
                                  "ex66.json", "ex67-k2.json",
                                  "ex67-k3.json"])
def test_bounds_report_matches_vanishing_order_on_fixtures(name):
    """On every fixture, the bounds of `bounds_report` at random
    characters equal those from `vanishing_order` of every factor of Δ at
    the same point of the character torus."""
    mat = (fox_matrix(load_presentation(name)) if name.endswith(".grp")
           else load_matrix_fixture(name))
    delta = alexander_poly(mat)
    if delta.is_zero():
        pytest.skip("zero Δ: no bounds")
    factored = factor_poly(delta)
    rng = random.Random(name)
    width = mat.num_vars if mat.presentation is None else \
        mat.presentation.num_generators
    checked = 0
    for _ in range(40):
        rho = _fixture_character(rng, name, width)
        if rho.is_trivial() or (mat.presentation is not None and
                                not validate_character(mat.presentation,
                                                       rho)):
            continue
        point = rho if mat.presentation is None else \
            induced_torus_point(mat.abelian, rho)
        report = bounds_report(mat, factored, rho,
                               almost_principal=("Unknown", None))
        if point is None:
            assert report.bound_pointwise is None
            continue
        assert (report.bound_pointwise, report.bound_generic) == \
            _oracle_bounds(factored, point), rho
        checked += 1
    assert checked >= 5


_COUNT_VANISHING_ORDERS = """
import sys
from alexkit import cli, jumploci
calls = []
oracle = jumploci.vanishing_order
jumploci.vanishing_order = lambda f, point: calls.append(f) or \
    oracle(f, point)
code = cli.main(sys.argv[1:])
print(code, len(calls), file=sys.stderr)
"""


def test_invariants_reads_essential_orders_off_records():
    """`invariants` on pencil4, whose Δ = (t1·t2·t3·t4 − 1)^2 is one
    factor in one essential variable, answers 16 characters in a fresh
    interpreter without one call of `vanishing_order`: the first 8 on its
    zero set, with bound 2, the last 8 off it, with bound 0."""
    chars = [
        "zeta2,zeta2,1,1", "zeta3,zeta3,zeta3,1",
        "zeta5,zeta5^2,zeta5^3,zeta5^4", "zeta12^5,zeta12^7,zeta4,zeta4^3",
        "zeta211^3,zeta211^-3,zeta211^5,zeta211^-5", "2,1/2,-1,-1",
        "-2/3,-3/2,zeta7,zeta7^6", "zeta60^7,zeta60^13,zeta60^40,1",
        "zeta2,1,1,1", "zeta3,zeta3,1,1", "zeta5,zeta5,zeta5,zeta5",
        "zeta12^5,zeta4,1,1", "zeta240^11,zeta240,1,1", "2,1,1,1",
        "-2/3,1/2,-1,zeta7", "zeta60^7,-1,1,1"]
    chars = [",".join(f"x{j}={v}" for j, v in enumerate(c.split(","), 1))
             for c in chars]
    argv = ["invariants", data_path("pencil4.grp")]
    for c in chars:
        argv += ["--char", c]
    proc = subprocess.run(
        [sys.executable, "-c", _COUNT_VANISHING_ORDERS, *argv],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(alexkit.__file__))))
    assert proc.stderr == "0 0\n", proc.stderr
    report = json.loads(proc.stdout)["characters"]
    assert [report[c]["bound_pointwise"] for c in chars] == [2] * 8 + [0] * 8
