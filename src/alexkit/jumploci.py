"""Twisted Betti ranks, jump-locus membership, and multiplicity bounds.

A rank-one local system is a character of the group; its first twisted
Betti number is computed from the Alexander matrix evaluated at the
character.  Bounds compare that rank with multiplicities and vanishing
orders of the factors of the Alexander polynomial.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, NamedTuple, Optional, Sequence, Tuple

from . import AlexkitError
from .alexander import (AlexanderMatrix, elementary_divisor_exponents,
                        univariate_invariant_factors)
from .cyclofield import Character, rank, vanishing_order
from .intlinalg import induced_torus_point, validate_character
from .laurent import FactoredPoly, LaurentPoly, factor_poly


class BoundInconsistencyError(AlexkitError):
    """A proven upper bound was exceeded: indicates bad input assertions."""


def twisted_betti(mat: AlexanderMatrix, rho: Character) -> int:
    """b1 of the group with coefficients twisted by the character rho,
    which must respect the relators (or, in matrix mode, have one value
    per variable): AlexkitError otherwise.

    The trivial character gives the untwisted rank n; otherwise the rank
    drops to m - 1 - rank of the Alexander matrix at rho: the exact
    `cyclofield.rank` of the values of `generator_entries`, each read
    through `Character.at`.  For a Fox matrix, one column j with
    rho(x_j) ≠ 1 is left out: Fox's identity
    Σ_j ∂r/∂x_j(rho)·(rho(x_j) − 1) = rho(r) − 1 = 0 makes it a
    combination of the others, so the rank does not change.  A matrix
    given in matrix mode whose rank there is m is no Alexander matrix:
    AlexkitError.
    """
    if mat.presentation is not None:
        if not validate_character(mat.presentation, rho):
            raise AlexkitError("character does not respect the relators")
    elif len(rho) != mat.num_vars:
        raise AlexkitError(f"character has {len(rho)} values, matrix has "
                           f"{mat.num_vars} variables")
    if rho.is_trivial():
        return mat.num_vars
    drop = None
    if mat.presentation is not None:
        drop = next(j for j, (q, k) in enumerate(zip(rho.scales, rho.exps))
                    if q != 1 or k)
    r = rank([[zip(*rho.at(f.terms)) for j, f in enumerate(row)
               if j != drop] for row in mat.generator_entries],
             rho.conductor)
    if r == mat.num_cols:
        raise AlexkitError(f"matrix has full rank {r} at a nontrivial "
                           f"character: an Alexander matrix has rank at "
                           f"most {r - 1} there")
    return mat.num_cols - 1 - r


APStatus = Tuple[str, Optional[str]]  # ("Yes"|"Unknown", reason)


def almost_principal_status(mat: AlexanderMatrix,
                            asserted: Optional[str] = None) -> APStatus:
    """Sufficient conditions for the first elementary ideal of mat to be
    almost principal: b1 = 1 or positive deficiency of its presentation,
    else what was asserted; Unknown when none applies."""
    p = mat.presentation
    if p is not None:
        if mat.abelian.rank == 1:
            return ("Yes", "b1=1")
        if p.num_generators - p.num_relators >= 1:
            return ("Yes", "deficiency>0")
    if asserted:
        return ("Yes", f"user-asserted: {asserted}")
    return ("Unknown", None)


class BettiReport(NamedTuple):
    rho: Character
    b1: int
    bound_pointwise: Optional[int]
    bound_generic: Optional[int]
    almost_principal: APStatus
    attained: bool

    def as_dict(self) -> dict:
        status, reason = self.almost_principal
        return {
            "b1": self.b1,
            "bound_pointwise": self.bound_pointwise,
            "bound_generic": self.bound_generic,
            "almost_principal": status if reason is None
            else f"{status} ({reason})",
            "attained": self.attained,
        }


def bounds_report(mat: AlexanderMatrix, factored: FactoredPoly,
                  rho: Character,
                  almost_principal: Optional[APStatus] = None) -> BettiReport:
    """Compare b1(G, rho) with the multiplicity-weighted vanishing orders
    of the Alexander polynomial factors at rho.

    When the first elementary ideal is known almost principal and rho is a
    nontrivial point of the identity component, the pointwise sum is a
    proven upper bound; a violation raises BoundInconsistencyError.

    ν_rho is read in two ways.  A factor f ≐ Φ_m(t^e), whose `essential`
    record (e, r, m) names its order m, vanishes at rho to order 0 or 1,
    1 exactly when rho^e has order m (`Character.order`): Φ_m is
    irreducible in Z[u], so separable, and with Φ_m(0) ≠ 0 the derivative
    θ_j f = e_j·u·Φ_m′(u) at u = t^e is nonzero at a root for any
    e_j ≠ 0, e being primitive.  Every other factor, in one essential
    variable or more, takes `vanishing_order`, which spends no work on
    the variables f does not hold; for f ≐ r(t^e) it reads at most the
    value and one first derivative, by the same argument.
    """
    if rho.is_trivial():
        raise AlexkitError("bounds require a nontrivial character")
    if factored.constant == 0:
        raise AlexkitError("bounds undefined for zero Alexander polynomial")
    b1 = twisted_betti(mat, rho)  # checks rho, once
    # rho as a point of the identity component of the character torus, or
    # None when rho does not factor through the torsion-free quotient
    point = induced_torus_point(mat.abelian, rho) \
        if mat.presentation is not None else rho
    if almost_principal is None:
        almost_principal = almost_principal_status(mat)
    if point is None:
        # off the identity component: vanishing orders do not apply
        return BettiReport(rho, b1, None, None, almost_principal, False)
    bound = 0
    on_components = []
    for (f, mu), record in zip(factored.factors, factored.essential):
        if record is not None and record[2] is not None:
            e, _, m = record
            nu = int(point.pull([e]).order() == m)
        else:
            nu = vanishing_order(f, point)
        bound += mu * nu
        if nu > 0:
            on_components.append((f, mu))
    bound_generic = on_components[0][1] if len(on_components) == 1 else None
    attained = (b1 == bound)
    if almost_principal[0] == "Yes" and b1 > bound:
        raise BoundInconsistencyError(
            f"b1 = {b1} exceeds the proven bound {bound} at a nontrivial "
            "character; the almost-principal assertion must be wrong")
    return BettiReport(rho, b1, bound, bound_generic, almost_principal,
                       attained)


# -- roots of univariate factors --------------------------------------------


def _factor_root(record: tuple) -> Optional[Character]:
    """A representative root of the univariate irreducible factor with the
    `essential` record (e, P, m), as a one-coordinate character: rational
    for linear factors, a primitive root of unity for cyclotomic factors,
    None otherwise."""
    _, p, m = record
    if len(p) == 2:
        return Character(1, (Fraction(-p[0], p[1]),), (0,))
    return None if m is None else Character(m, (1,), (1,))


class RootEquality(NamedTuple):
    root_text: str
    root: Optional[Character]
    mu: int
    b1: int
    equality: bool


def semisimple_equality_report(mat: AlexanderMatrix,
                               factored: FactoredPoly) -> List[RootEquality]:
    """Per root z of the univariate Alexander polynomial: does b1(G, z)
    reach the multiplicity of the corresponding factor?

    Equality is equivalent to the (t-z)-primary part of the module being
    semisimple, i.e. every elementary divisor at z has exponent one.  The
    rank is read off the invariant factors (number of them vanishing at z)
    and cross-checked against the evaluated matrix when a presentation is
    available.
    """
    if mat.num_vars != 1:
        raise AlexkitError("semisimple analysis requires one variable")
    if not factored.factors:
        raise AlexkitError("constant Alexander polynomial: no roots")
    inv = univariate_invariant_factors(mat)
    out = []
    for (f, mu), record in zip(factored.factors, factored.essential):
        root = _factor_root(record)
        if root is None or root.is_trivial():
            continue
        ek = elementary_divisor_exponents(inv, record[1])
        b1 = sum(ek.values())
        all_simple = all(k <= 1 for k in ek)
        equality = (b1 == mu)
        if equality != all_simple:
            raise AlexkitError(
                "invariant-factor structure disagrees with the multiplicity "
                "comparison (internal bug)")
        if mat.presentation is not None:
            if twisted_betti(mat, _character_at(mat, root)) != b1:
                raise AlexkitError(
                    "twisted rank disagrees with invariant factors "
                    "(internal bug)")
        out.append(RootEquality(f.render(("t",)), root, mu, b1, equality))
    return out


def _character_at(mat: AlexanderMatrix, value: Character) -> Character:
    """The character on the generators induced by t -> value on the
    one-dimensional torsion-free quotient."""
    return value.pull([[a] for a in mat.abelian.abf_projection[0]])


# -- integer monodromy -------------------------------------------------------


class MonodromyReport(NamedTuple):
    delta: LaurentPoly
    factored: FactoredPoly
    semisimple: bool
    equalities: List[RootEquality]


def _mul_add(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]],
             c: int) -> List[List[int]]:
    """a·b + c·I for square integer matrices a and b."""
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) + (c if i == j else 0)
             for j, col in enumerate(cols)] for i, row in enumerate(a)]


def _charpoly(a: Sequence[Sequence[int]]) -> List[int]:
    """det(t·I − a) for a square integer matrix a, its coefficients from
    t^n down to t^0, by Faddeev–LeVerrier: with M_0 = 0 and c_n = 1,
    M_k = a·M_(k−1) + c_(n−k+1)·I and c_(n−k) = −tr(a·M_k) / k.  Each
    c_(n−k) is an integer, so every division is exact."""
    n = len(a)
    coeffs = [1]
    m = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        m = _mul_add(a, m, coeffs[-1])
        trace = sum(x * m[j][i] for i, row in enumerate(a)
                    for j, x in enumerate(row))
        coeffs.append(-trace // k)
    return coeffs


def monodromy_analysis(h: Sequence[Sequence[int]]) -> MonodromyReport:
    """Mapping-torus analysis of an integer monodromy matrix.

    The Alexander polynomial is the characteristic polynomial; for each
    irreducible factor the twisted rank at its roots is the geometric
    multiplicity, and global semisimplicity is equivalent to every
    algebraic multiplicity being attained.  The rank of g(M) for a factor
    g is `cyclofield.rank` at conductor 1.
    """
    m = [[int(x) for x in row] for row in h]
    size = len(m)
    if any(len(row) != size for row in m):
        raise AlexkitError("monodromy matrix must be square")
    coeffs = _charpoly(m)
    if sum(coeffs) == 0:
        raise AlexkitError("1 is an eigenvalue of the monodromy")
    delta = LaurentPoly(1, {(size - i,): c for i, c in enumerate(coeffs)})
    factored = factor_poly(delta)
    equalities = []
    semisimple = True
    for (f, mu), record in zip(factored.factors, factored.essential):
        g = record[1]
        # g(M) by Horner's rule over the coefficients of g in Z[u]
        pm = [[0] * size for _ in range(size)]
        for c in reversed(g):
            pm = _mul_add(pm, m, c)
        geometric = (size - rank([[((x, 0),) for x in row] for row in pm],
                                 1)) // (len(g) - 1)
        equality = (geometric == mu)
        if not equality:
            semisimple = False
        equalities.append(RootEquality(
            f.render(("t",)), _factor_root(record), mu, geometric, equality))
    return MonodromyReport(delta, factored, semisimple, equalities)
