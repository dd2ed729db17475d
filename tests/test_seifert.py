import itertools
import math
import random
import time

import pytest

from alexkit.alexander import alexander_poly, fox_matrix
from alexkit.cyclofield import Character, cyclotomic_poly
from alexkit.jumploci import bounds_report, twisted_betti
from alexkit.laurent import (LaurentPoly, _cyclotomic_exponents, _to_dense,
                             associates, exact_div_binomial, factor_poly,
                             normalize, parse_poly)
from alexkit.presentation import parse_presentation
from alexkit import AlexkitError
from alexkit.seifert import (DivisorComponent, SpliceData, _mult_at_order,
                             seifert_delta, seifert_divisor,
                             seifert_twisted_betti)

from conftest import character, multiplicity, seifert_link
from test_properties import sev_decompose

T3 = ("t1", "t2", "t3")


def ex73():
    return SpliceData((1, 1, 1, 2, 3), 3)


def test_splice_validation():
    with pytest.raises(AlexkitError, match="coprime"):
        SpliceData((2, 4, 5), 2)
    with pytest.raises(AlexkitError, match="three weights"):
        SpliceData((1, 1), 2)
    with pytest.raises(AlexkitError, match="q must satisfy"):
        SpliceData((1, 1, 1), 1)
    with pytest.raises(AlexkitError, match="positive integers"):
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


def _divisor_by_trial(d):
    """The old `seifert_divisor`: every order from 1 to N′ tried."""
    out = []
    np = d.big_n_prime
    for order in range(1, np + 1):
        if np % order == 0:
            m = _mult_at_order(d, order)
            if m > 0:
                out.append(DivisorComponent(order, m))
    return out


# the (k4, k5) pairs of the benchmark's Seifert calls, whose weights are
# (1, 1, 1, k4, k5) with q = 3 (bench/workloads.SEIFERT_LADDER)
SEIFERT_LADDER = ((2, 3), (2, 5), (3, 5), (3, 7), (5, 7), (7, 9), (5, 11),
                  (7, 11), (9, 11), (11, 13))


@pytest.mark.parametrize("d", [
    *(SpliceData((1, 1, 1, k4, k5), 3) for k4, k5 in SEIFERT_LADDER),
    SpliceData((2, 3, 5), 2), SpliceData((2, 3, 5, 7), 2),
    SpliceData((3, 5, 7, 11, 13), 3), SpliceData((4, 9, 5, 7, 11), 2),
    SpliceData((5, 7, 1, 1, 8), 2), SpliceData((2, 3, 5, 7), 4)])
def test_seifert_divisor_matches_trial_orders(d):
    assert seifert_divisor(d) == _divisor_by_trial(d)


def test_seifert_divisor_of_a_large_prime_weight():
    """N′ = 10⁸ + 7 is prime, so its orders are 1 and N′; trying every
    order up to N′ took seconds."""
    start = time.perf_counter()
    comps = seifert_divisor(SpliceData((1, 1, 100000007), 2))
    assert time.perf_counter() - start < 1
    assert comps == [DivisorComponent(100000007, 1)]


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
    with pytest.raises(AlexkitError, match="trivial character"):
        seifert_twisted_betti(ex73(), character(1, 1, 1))


def _u_forms(f):
    """The coefficient sequences of P, with f ≐ P(t^e), up to reversal and
    sign; {()} for a unit f."""
    if f.is_unit():
        return {()}
    p = _to_dense(sev_decompose(f)[0])
    return {s for s in (p, p[::-1]) for s in (s, tuple(-c for c in s))}


def _random_links(rng, count):
    """(weights, q) of Seifert links with pairwise coprime weights whose
    presentations have n + 1 ≤ 8 generators and 2n − q + 1 ≤ 8 relators.
    The product meter admits larger ones, but sympy's gcd of their row
    subset quotients is not metered, and it can take tens of seconds."""
    links = []
    while len(links) < count:
        n = rng.choice((3, 3, 4, 4, 5, 6, 7))
        weights = []
        for _ in range(n):
            weights.append(rng.choice([a for a in (1, 1, 2, 3, 4, 5, 7, 9, 11)
                                       if all(math.gcd(a, w) == 1
                                              for w in weights)]))
        links.append((tuple(weights), rng.randint(max(2, 2 * n - 7), n)))
    return links


def _link_ranks(weights, q, points):
    """The twisted ranks of the Seifert link (weights, q) through the
    general pipeline at each nontrivial point of `points`, a sequence of
    characters on the torsion-free quotient pulled back to the generators,
    checked against the closed forms: Δ equals the closed form as a
    polynomial in one monomial, and the rank equals the closed form at the
    values on the meridians and attains the bound under the almost-principal
    assertion, which these presentations, of deficiency q − n ≤ 0, do not
    meet alone."""
    d = SpliceData(weights, q)
    text, meridians = seifert_link(weights, q)
    mat = fox_matrix(parse_presentation(text))
    delta = alexander_poly(mat)
    assert _u_forms(delta) == _u_forms(seifert_delta(d))
    factored = factor_poly(delta)
    columns = list(zip(*mat.abelian.abf_projection))
    ranks = []
    for y in points(d):
        if y.is_trivial():
            continue
        chi = y.pull(columns)
        b1 = twisted_betti(mat, chi)
        assert b1 == seifert_twisted_betti(d, chi.pull(meridians))
        asserted = bounds_report(mat, factored, chi,
                                 almost_principal=("Yes", "user-asserted"))
        assert (asserted.b1, asserted.attained) == (b1, True)
        assert bounds_report(mat, factored, chi).almost_principal == \
            ("Unknown", None)
        ranks.append(b1)
    return ranks


LINKS = _random_links(random.Random(9), 24)


@pytest.mark.parametrize("weights,q", LINKS, ids=[
    f"{','.join(map(str, weights))}-q{q}" for weights, q in LINKS])
def test_seifert_link_through_fox_pipeline(weights, q):
    """At eight random points of conductor at most 240, most of them a
    divisor of N′, so that some lie on the zero set of Δ."""
    rng = random.Random(repr((weights, q)))

    def points(d):
        orders = [k for k in range(2, 241) if d.big_n_prime % k == 0]
        for _ in range(8):
            n = rng.choice(orders + [2, 3, 6, rng.randint(2, 240)])
            yield Character(n, (1,) * q,
                            tuple(rng.randrange(n) for _ in range(q)))

    _link_ranks(weights, q, points)


def test_seifert_link_at_every_sixth_root():
    """Weights 1, 1, 2, 3 with two components: Δ(u) is
    (u⁶ − 1)²/((u³ − 1)(u² − 1)), whose zero set has components of orders
    2, 3 and 6 with multiplicities 1, 1 and 2, so the points of order
    dividing 6 have ranks 0, 1 and 2."""
    ranks = _link_ranks((1, 1, 2, 3), 2, lambda d: (
        Character(6, (1, 1), k) for k in itertools.product(range(6),
                                                            repeat=2)))
    assert set(ranks) == {0, 1, 2}


def _sparse_seifert_u_delta(d):
    """The former construction, kept as the oracle: (u^N′ − 1)^(q+s−2) by
    sparse powers, divided by each u^N′_j − 1 of a nontrivial
    non-component fiber by `exact_div_binomial`, in Z[u]."""
    expo = d.q + d.s - 2
    num = (LaurentPoly.monomial([d.big_n_prime]) - 1) ** expo
    for j in range(d.q, d.q + d.s):
        num = exact_div_binomial(num, (d.n_prime_j(j),))
    return num


# the benchmark's q = 3 ladder, q = 2 cases, and trivial tail weights
SEIFERT_CASES = [
    *(SpliceData((1, 1, 1, k4, k5), 3) for k4, k5 in SEIFERT_LADDER),
    SpliceData((2, 3, 5), 2), SpliceData((2, 3, 5, 7), 2),
    SpliceData((4, 9, 5, 7, 11), 2), SpliceData((5, 7, 1, 1, 8), 2),
    SpliceData((1, 1, 10007), 2), SpliceData((1, 1, 1, 23, 29), 3),
    SpliceData((1, 1, 1), 3), SpliceData((1, 1, 1, 1), 2),
    SpliceData((3, 5, 1, 1), 2), SpliceData((2, 3, 5, 7), 4),
    SpliceData((3, 5, 7, 11, 13), 3)]


@pytest.mark.parametrize("d", SEIFERT_CASES, ids=repr)
def test_seifert_delta_matches_sparse_construction(d):
    """The dense build from the exponent sequence b_N′ = q+s−2,
    b_N′_j = −1 gives the former sparse Δ, and reading that sequence back
    off Δ(u) gives the divisor's orders and multiplicities."""
    num = _sparse_seifert_u_delta(d)
    exps = [d.n_j(j) for j in range(d.q)]
    want = normalize(LaurentPoly(d.q, {tuple(k * x for x in exps): c
                                       for (k,), c in num.terms.items()}))
    assert seifert_delta(d) == want
    assert _cyclotomic_exponents(_to_dense(normalize(num))) == \
        [(c.root_order, c.multiplicity) for c in seifert_divisor(d)]
