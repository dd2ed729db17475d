"""Quasi-projectivity obstructions read off the Alexander polynomial.

For groups with b1 >= 3 the codimension-one components of the first jump
locus must be parallel translated subtori, and the univariate image of
the polynomial must be a product of cyclotomic polynomials; a projective
group forces a constant polynomial outright.  Violations certify that
the group is not quasi-projective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Tuple

from .laurent import (FactoredPoly, LaurentPoly, cyclotomic_factor, normalize,
                      sev_decompose)

CONSISTENT = "CONSISTENT"
OBSTRUCTED = "OBSTRUCTED"
NOT_APPLICABLE = "NO-OBSTRUCTION-APPLICABLE"


class ObstructError(ValueError):
    pass


@dataclass(frozen=True)
class ComponentDirection:
    """Direction data of one resolved factor of the polynomial.

    The direction is present exactly when the factor is a binomial
    t^a - c (a translated codimension-one subtorus); it is stored
    primitive with positive first nonzero entry.
    """

    component: LaurentPoly
    direction: Optional[Tuple[int, ...]]
    translated: bool = False


def _binomial_data(f: LaurentPoly):
    """(primitive direction, c) when f = unit * (t^a - c); None otherwise."""
    g = normalize(f)
    if len(g.terms) != 2:
        return None
    (e1, c1), (e2, c2) = sorted(g.terms.items(), reverse=True)
    # orient from the constant-side term to the leading term
    a = tuple(x - y for x, y in zip(e1, e2))
    if abs(c1) != 1:
        return None
    c = -Fraction(c2, c1)
    if c.denominator != 1:
        return None
    g0 = math.gcd(*(abs(x) for x in a))
    if g0 == 0:
        return None
    prim = tuple(x // g0 for x in a)
    first = next(x for x in prim if x)
    if first < 0:
        prim = tuple(-x for x in prim)
    translated = not (c == 1 and g0 == 1)
    return prim, int(c), translated


def component_directions(factored: FactoredPoly) -> List[ComponentDirection]:
    """Direction entries for each resolved factor; non-binomial factors get
    a direction-absent entry."""
    out = []
    for f, _, _ in factored.resolved_factors:
        data = _binomial_data(f)
        if data is None:
            out.append(ComponentDirection(f, None))
        else:
            prim, c, translated = data
            out.append(ComponentDirection(f, prim, translated))
    return out


@dataclass
class PositionReport:
    verdict: str
    pairs: List[Tuple[int, int, str]] = field(default_factory=list)
    note: Optional[str] = None


def position_report(dirs: List[ComponentDirection], b1: int) -> PositionReport:
    """Pairwise position of the codimension-one components.

    Two binomial components are parallel when their directions agree; a
    pair with distinct directions contradicts quasi-projectivity when
    b1 >= 3.  Groups with b1 = 2 are exempt from the obstruction.
    """
    with_dir = [(i, d) for i, d in enumerate(dirs) if d.direction is not None]
    if not with_dir:
        raise ObstructError("inconclusive: unresolved factors")
    n = len(with_dir[0][1].direction)
    pairs = []
    distinct = False
    for a in range(len(with_dir)):
        for b in range(a + 1, len(with_dir)):
            i, di = with_dir[a]
            j, dj = with_dir[b]
            if di.direction == dj.direction:
                kind = "parallel"
            else:
                distinct = True
                kind = "transverse-finite" if n <= 2 else "transverse-infinite"
            pairs.append((i, j, kind))
    if b1 == 2:
        return PositionReport(NOT_APPLICABLE, pairs,
                              "b1=2 groups are exempt")
    if distinct and b1 >= 3:
        return PositionReport(OBSTRUCTED, pairs,
                              "codimension-one components with distinct "
                              "directions")
    return PositionReport(CONSISTENT, pairs)


@dataclass
class QPVerdict:
    verdict: str
    reason: str
    certificate: Optional[dict] = None

    def as_dict(self, names) -> dict:
        out = {"verdict": self.verdict, "reason": self.reason}
        if self.certificate is not None:
            out["certificate"] = self.certificate
        return out


def qp_verdict(delta: Optional[LaurentPoly], b1: int,
               projective: bool = False) -> QPVerdict:
    """Necessary conditions for quasi-projectivity from the polynomial.

    Projective groups need a constant polynomial.  Otherwise, with
    b1 >= 3 the polynomial must have a single essential variable whose
    univariate image is an integer times a product of cyclotomic
    polynomials; the certificate records that decomposition.
    """
    if delta is not None and not delta.is_zero():
        if delta.nvars != b1:
            raise ObstructError(
                f"polynomial has {delta.nvars} variables but b1 = {b1}")
    if projective:
        if delta is None or delta.is_zero() or \
                normalize(delta).is_constant():
            return QPVerdict(CONSISTENT, "constant polynomial as required "
                             "for a projective group")
        return QPVerdict(OBSTRUCTED, "projective group with nonconstant "
                         "polynomial")
    if delta is None or delta.is_zero():
        return QPVerdict(CONSISTENT, "zero polynomial imposes no condition")
    if b1 <= 1:
        return QPVerdict(CONSISTENT, "no obstruction below b1 = 2")
    if b1 == 2:
        return QPVerdict(NOT_APPLICABLE, "b1=2 groups are exempt")
    if normalize(delta).is_constant():
        return QPVerdict(CONSISTENT, "constant polynomial",
                         {"c": int(next(iter(normalize(delta)
                                             .terms.values())))})
    sev = sev_decompose(delta)
    if sev is None:
        return QPVerdict(OBSTRUCTED, "support is not collinear: more than "
                         "one essential variable")
    univ, e = sev
    c, cyclo, residual = cyclotomic_factor(univ)
    if not normalize(residual).is_constant():
        return QPVerdict(OBSTRUCTED, "univariate image has a "
                         "non-cyclotomic factor",
                         {"e": list(e),
                          "residual": residual.render(("u",))})
    return QPVerdict(CONSISTENT, "single essential variable with "
                     "cyclotomic univariate image",
                     {"c": c, "e": list(e),
                      "cyclotomic_orders": [list(p) for p in cyclo]})
