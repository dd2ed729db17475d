import math
import random
from fractions import Fraction

import pytest

from alexkit import (PRODUCT_WORK_CAP, AlexkitError, ComputationCapError,
                     ProductMeter, laurent, product_work)
from alexkit.alexander import alexander_poly, fox_matrix
from alexkit.cyclofield import vanishing_order
from alexkit.laurent import (LaurentPoly, associates, divides, factor_poly,
                             gcd_many, normalize)

from alexkit.presentation import parse_presentation

from conftest import character, meter_with_room, multiplicity, poly
from test_properties import cyclotomic_order

T3 = ("t1", "t2", "t3")
T1 = ("t",)


def P(text, names=T3):
    return poly(text, names)


def test_poly_equals_no_int():
    """A constant polynomial is not equal to its int, so that equal
    objects hash alike and set membership agrees with ==."""
    one = LaurentPoly.one(1)
    assert one != 1 and 1 != one
    assert one not in {1} and 1 not in {one}
    assert one == LaurentPoly.constant(1, 1)
    assert LaurentPoly.constant(1, 1) in {one}


def test_normalize_strips_units():
    f = P("-(t1^-1)*t2*(t1*t2-1)")
    assert normalize(f) == P("t1*t2 - 1")


def test_normalize_preserves_integer_content():
    g = normalize(P("6*t - 4", T1))
    assert g == P("6*t - 4", T1)
    assert math.gcd(*(int(c) for c in g.terms.values())) == 2


def test_normalize_idempotent():
    f = P("(t1*t2*t3-1)^2")
    assert normalize(f) == f
    assert normalize(normalize(f)) == normalize(f)


def _normalize_oracle(f):
    """The definition of `normalize`, which always builds a new
    polynomial: shift every column minimum to 0, then make the
    coefficient of the lex-greatest exponent positive."""
    mins = [min(exp[i] for exp in f.terms) for i in range(f.nvars)]
    out = {tuple(x - m for x, m in zip(exp, mins)): c
           for exp, c in f.terms.items()}
    if out[max(out)] < 0:
        out = {e: -c for e, c in out.items()}
    return LaurentPoly(f.nvars, out)


@pytest.mark.parametrize("nvars", [0, 1, 2, 3])
def test_normalize_matches_its_definition(nvars):
    """On random polynomials with negative exponents and negative leads,
    in zero to three variables, `normalize` equals its definition, and
    returns a polynomial already in canonical form as itself."""
    rng = random.Random(nvars)
    for _ in range(300):
        f = LaurentPoly(nvars, {
            tuple(rng.randint(-4, 4) for _ in range(nvars)):
                rng.choice([-7, -2, -1, 1, 3, 5])
            for _ in range(rng.randint(1, 6))})
        g = normalize(f)
        assert g == _normalize_oracle(f)
        assert g.terms == _normalize_oracle(f).terms
        assert normalize(g) is g
        assert (g is f) == (g.terms == f.terms)


def test_normalize_zero_errors():
    with pytest.raises(AlexkitError, match="zero polynomial"):
        normalize(LaurentPoly.zero(2))


def test_associates_and_scalar_associates():
    f = P("t1*t2 - 1")
    assert associates(f, f * LaurentPoly.monomial((-1, 2, 0), -1))
    assert not associates(f, f + f)


def test_divides_ignores_a_monomial_shift():
    f = P("t1^-1*t2*(t1*t2-1)")
    g = P("t1*t2-1")
    assert divides(g, f) and divides(f, g)
    assert divides(g * LaurentPoly.monomial((3, -2, 1)), f)


def test_divides_in_no_variables():
    """A nonzero constant divides every constant over Q."""
    assert divides(LaurentPoly.constant(0, 3), LaurentPoly.constant(0, 1))
    assert divides(LaurentPoly.constant(0, -3), LaurentPoly.zero(0))


def test_floats_are_refused():
    with pytest.raises(AlexkitError, match="inexact"):
        LaurentPoly(1, {(0,): 0.5})
    with pytest.raises(AlexkitError, match="inexact"):
        LaurentPoly.constant(2, 2.0)
    with pytest.raises(AlexkitError, match="inexact"):
        LaurentPoly.one(1) * 0.5


def test_coefficients_are_integers():
    """A non-integral coefficient is refused, however it is reached; an
    integral `Fraction` is stored as its `int`."""
    with pytest.raises(AlexkitError, match="not an integer"):
        LaurentPoly(1, {(0,): Fraction(1, 2)})
    with pytest.raises(AlexkitError, match="not an integer"):
        LaurentPoly.one(1) * Fraction(1, 2)
    with pytest.raises(AlexkitError, match="not an integer"):
        LaurentPoly.constant(0, Fraction(-7, 3))
    (c,) = LaurentPoly(1, {(1,): Fraction(4, 2)}).terms.values()
    assert type(c) is int and c == 2


@pytest.mark.parametrize("bad", [True, 0.5, Fraction(1, 2), Fraction(2, 1)])
def test_var_and_monomial_refuse_exponents_that_are_not_ints(bad):
    with pytest.raises(AlexkitError, match="not an int"):
        LaurentPoly.var(2, 1, bad)
    with pytest.raises(AlexkitError, match="not an int"):
        LaurentPoly.monomial((0, bad))
    assert LaurentPoly.var(2, 1, -3) == LaurentPoly.monomial([0, -3])


def test_divides():
    assert divides(P("t-1", T1), P("t^2-1", T1))
    assert divides(P("2*t-2", T1), P("t^2-1", T1))
    assert divides(P("t1*t2+1"), P("(t2-1)*(t1*t2+1)^2"))
    assert not divides(P("t-2", T1), P("t^2-1", T1))
    assert not divides(P("t^2-1", T1), P("2*t-2", T1))


def test_gcd_oracles():
    assert gcd_many([P("t^2-1", T1), P("t-1", T1)]) == P("t-1", T1)
    assert gcd_many([LaurentPoly.zero(1), P("2*t-2", T1)]) == P("2*t-2", T1)
    assert gcd_many([P("2*t", T1), P("4", T1)]) == P("2", T1)


def test_gcd_of_example_minor_generators():
    phi = P("x1*x2+1", ("x1", "x2", "x3"))
    psi = P("x2*x3+1", ("x1", "x2", "x3"))
    x1, x2, x3 = (P(v, ("x1", "x2", "x3")) for v in ("x1", "x2", "x3"))
    one = LaurentPoly.one(3)
    gens = [(x2 - one) * phi, (one - x1) * phi,
            (x3 - one) * psi, (one - x2) * psi]
    assert gcd_many(gens) == LaurentPoly.one(3)


def test_multiplicity():
    assert multiplicity(P("x2-1", ("x1", "x2", "x3")),
                        P("(x2-1)*(x1*x2+1)*(x2*x3+1)",
                          ("x1", "x2", "x3"))) == 1
    f = P("t1*t2*t3-1")
    assert multiplicity(f, f ** 3) == 3
    assert multiplicity(2 * f, 3 * f ** 2) == 2


def test_vanishing_order():
    z3 = character("zeta3", "zeta3", "zeta3")
    assert vanishing_order(P("t1*t2*t3-1"), z3, ProductMeter()) == 1
    assert vanishing_order(P("(t-1)^2", T1), character(1),
                           ProductMeter()) == 2
    assert vanishing_order(P("(x2-1)*(x1*x3-1)^2", ("x1", "x2", "x3")),
                           character(1, 1, 1), ProductMeter()) == 3


def test_vanishing_order_work_cap():
    """Each derivative read is charged one term product per term, and on
    a meter with room for 1000 the 1008th refuses, naming the product
    work reached and the cap."""
    f = P("(t1-1)^5*(t2-1)^5", ("t1", "t2"))
    spent = meter_with_room(1000).spent + product_work(1008, 1, 1, 1)
    with pytest.raises(ComputationCapError,
                       match=f"product work {spent} exceeds cap "
                             f"{PRODUCT_WORK_CAP}"):
        vanishing_order(f, character(1, 1), meter_with_room(1000))
    assert vanishing_order(f, character(-1, 1), meter_with_room(1000)) == 5


def test_sev_decompose():
    """factor_poly records each factor's direction e, its image P in Z[u]
    and the order m with P = Φ_m."""
    fp = factor_poly(P("(t1*t2*t3-1)^2"))
    assert fp.factors[0][1] == 2
    assert fp.essential == (((1, 1, 1), (-1, 1), 1),)
    fp = factor_poly(P("x1+x2", ("x1", "x2")))
    assert fp.essential == (((1, -1), (1, 1), 2),)
    fp = factor_poly(P("(x2-1)*(x1*x3-1)", ("x1", "x2", "x3")))
    assert fp.essential == (((0, 1, 0), (-1, 1), 1), ((1, 0, 1), (-1, 1), 1))


def _cyclotomic_orders(fp):
    """The recorded order of each factor with its multiplicity, checked
    against the recognizer oracle."""
    orders = [(m, mu) for (_, _, m), (_, mu) in zip(fp.essential, fp.factors)]
    assert orders == [(cyclotomic_order(f), mu) for f, mu in fp.factors]
    return orders


def test_cyclotomic_factor():
    fp = factor_poly(P("(t-1)^3", T1))
    assert (fp.constant, _cyclotomic_orders(fp)) == (1, [(1, 3)])
    assert _cyclotomic_orders(factor_poly(P("t^2-t+1", T1))) == [(6, 1)]
    fp = factor_poly(P("2*(t-2)*(t+1)", T1))
    assert fp.constant == 2
    assert _cyclotomic_orders(fp) == [(None, 1), (2, 1)]
    assert fp.factors[0][0] == P("t-2", T1)


def test_parse_render_roundtrip():
    f = P("(t1^-2*t2 + 3)*(t3 - 1)^2")
    again = poly(f.render(T3), T3)
    assert associates(f, again) or f == again


def test_parse_errors():
    with pytest.raises(AlexkitError, match="unknown variable"):
        poly("t1 +* t2", T3)
    with pytest.raises(AlexkitError, match="unknown variable"):
        poly("q1", T3)


@pytest.mark.parametrize("text,outcome", [
    ("(t+1)^-1", "negative exponent on a non-monomial"),
    ("(2*t)^-1", "negative powers only for unit monomials"),
    ("(-t)^-2", LaurentPoly.var(1, 0, -2)),
])
def test_parse_negative_powers(text, outcome):
    """A negative power of a non-monomial is refused by the parser, one of
    a monomial that is not a unit by the arithmetic (each with its own
    message), and one of a unit monomial is its inverse."""
    if isinstance(outcome, LaurentPoly):
        assert P(text, T1) == outcome
    else:
        with pytest.raises(AlexkitError, match=outcome):
            P(text, T1)


def test_factor_poly_reassembles():
    f = P("(x2-1)*(x1*x2+1)^2*(x2*x3+1)^2", ("x1", "x2", "x3"))
    fp = factor_poly(f)
    assert fp.constant == 1
    assert sorted(mu for _, mu in fp.factors) == [1, 2, 2]
    assert associates(fp.reassembled(3), f)


def test_factor_poly_repeated_residual_factors(monkeypatch):
    """A residual with repeated factors and no variable of degree one goes
    to sympy's multivariate factor_list alone: no one-variable polynomial
    is factored."""
    import sympy.polys.factortools as factortools

    def no_dense(*args):
        raise AssertionError("a one-variable polynomial was factored")

    monkeypatch.setattr(factortools, "dup_factor_list", no_dense)
    f = P("(t1*t2 + t3 - 2)^3*(t1 - t2*t3 + 3)^2")
    fp = factor_poly(f)
    assert fp.constant == 1
    assert fp.factors == ((P("t1*t2 + t3 - 2"), 3), (P("t1 - t2*t3 + 3"), 2))
    assert fp.essential == (None, None)
    assert associates(fp.reassembled(3), f)


def test_factor_poly_splits_linear_residual_without_factoring(monkeypatch):
    """A residual with a variable of degree one is split by one gcd of its
    two coefficients in that variable, and each piece is proved
    irreducible by `_coprime`: neither sympy's one-variable nor its
    multivariate factoring runs."""
    import sympy.polys.factortools as factortools
    from sympy.polys.rings import PolyElement

    def no_factoring(*args):
        raise AssertionError("a residual with a linear variable was factored")

    monkeypatch.setattr(factortools, "dup_factor_list", no_factoring)
    monkeypatch.setattr(PolyElement, "factor_list", no_factoring)
    a, b = P("t1*t2 + t3 - 2"), P("t2*t3^2 + 3*t2 - t3")
    fp = factor_poly(a * b)
    assert fp.constant == 1
    assert sorted(fp.factors, key=repr) == sorted(((a, 1), (b, 1)), key=repr)
    assert fp.essential == (None, None)
    assert associates(fp.reassembled(3), a * b)


# fox-width seed 1's g023.grp of the benchmark: Δ has 26 terms in five
# variables, and `_coprime` cannot show the first residual irreducible
LINEAR_SPLIT_GROUP = """gens: x1 x2 x3 x4 x5
rel: x4 x2 x4^-1 x2^-1 x4 x1^-1 x4^-1 x1
rel: x1^-1 x5^-1 x3^-1 x4^-1 x3 x4 x1 x5
rel: x5 x3 x5^-1 x4 x1^-1 x4^-1 x1 x3^-1
rel: x2^-1 x5^-1 x3^-1 x5 x3 x1 x2 x1^-1
"""


def test_linear_split_makes_one_ring_call(monkeypatch):
    """Where `_coprime` cannot show A and B coprime, the split of
    A·t_i + B takes c = gcd(A, B), A/c and B/c from one call to sympy's
    `cofactors`, and divides nothing.  Only the calls alexkit makes are
    counted, not those sympy makes inside them: its heuristic gcd divides
    to check its answer."""
    from sympy.polys.rings import PolyElement

    calls, depth = [], [0]

    def counted(name, method):
        def wrapper(*args):
            if not depth[0]:
                calls.append(name)
            depth[0] += 1
            try:
                return method(*args)
            finally:
                depth[0] -= 1
        return wrapper

    for name in ("gcd", "cofactors", "div"):
        monkeypatch.setattr(PolyElement, name,
                            counted(name, getattr(PolyElement, name)))
    coprime, shown = laurent._coprime, []
    monkeypatch.setattr(laurent, "_coprime",
                        lambda a, b: shown.append(coprime(a, b)) or shown[-1])
    delta = alexander_poly(fox_matrix(parse_presentation(LINEAR_SPLIT_GROUP)))
    fp = factor_poly(delta)
    assert shown == [False, True]
    assert calls == ["cofactors"]
    assert [mu for _, mu in fp.factors] == [1, 1]
    assert associates(fp.reassembled(5), delta)


def _no_split(*args):
    raise AssertionError("a product of cyclotomic polynomials was split")


def test_factor_poly_reads_cyclotomic_delta_off_its_exponents(monkeypatch):
    """Δ of the torus knot T(7, 11) is Φ_77, and (t^80 − 1)/(t − 1) is the
    product of the Φ_d, 1 < d | 80: both are read off their exponent
    sequences, with no factoring and no gcd closure."""
    from sympy.polys.rings import PolyElement

    monkeypatch.setattr(PolyElement, "factor_list", _no_split)
    monkeypatch.setattr(laurent, "_cyclotomic_part", _no_split)
    knot = parse_presentation("gens: x y\nrel: x^7 y^-11\n")
    fp = factor_poly(alexander_poly(fox_matrix(knot)))
    assert (fp.constant, _cyclotomic_orders(fp)) == (1, [(77, 1)])
    fp = factor_poly(P(" + ".join(f"t^{k}" for k in range(80)), T1))
    assert fp.constant == 1
    assert sorted(_cyclotomic_orders(fp)) == \
        [(d, 1) for d in (2, 4, 5, 8, 10, 16, 20, 40, 80)]


def test_factor_poly_reassembly_check_refuses_a_wrong_factorization(
        monkeypatch):
    """The reassembly check is not vacuous: with the multiplicity of Φ_3
    read off one too high, factor_poly raises, on a Δ in one variable
    and on one that fills its box of degrees (both packed) and on a
    sparse one (term dicts multiplied)."""
    right = laurent._cyclotomic_exponents
    monkeypatch.setattr(laurent, "_cyclotomic_exponents", lambda p: [
        (m, k + (m == 3)) for m, k in right(p) or ()] or None)
    for f in (P("(t^2 + t + 1)*(t - 1)^2", T1),
              P("(t1^2 + t1 + 1)*(t2 - 1)^2", ("t1", "t2")),
              P("(t1*t2)^10 + (t1*t2)^5 + 1", ("t1", "t2"))):
        with pytest.raises(AlexkitError, match="reassemble"):
            factor_poly(f)


def test_factor_poly_content():
    fp = factor_poly(P("2*(t-2)*(t+1)", T1))
    assert fp.constant == 2
    assert len(fp.factors) == 2
