"""Quasi-projectivity obstructions read off the Alexander polynomial.

For groups with b1 >= 3 the codimension-one components of the first jump
locus must be parallel translated subtori, and the univariate image of
the polynomial must be a product of cyclotomic polynomials; a projective
group forces a constant polynomial outright.  Violations certify that
the group is not quasi-projective.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from . import AlexkitError
from .laurent import FactoredPoly, LaurentPoly, _from_dense

CONSISTENT = "CONSISTENT"
OBSTRUCTED = "OBSTRUCTED"
NOT_APPLICABLE = "NO-OBSTRUCTION-APPLICABLE"


class QPVerdict(NamedTuple):
    verdict: str
    reason: str
    certificate: Optional[dict] = None

    def as_dict(self) -> dict:
        out = {"verdict": self.verdict, "reason": self.reason}
        if self.certificate is not None:
            out["certificate"] = self.certificate
        return out


def qp_verdict(factored: Optional[FactoredPoly], b1: int,
               projective: bool = False) -> QPVerdict:
    """Necessary conditions for quasi-projectivity from the factored
    polynomial; None stands for the zero polynomial.

    Projective groups need a constant polynomial.  Otherwise, with
    b1 >= 3 every factor must be Φ_m(t^e) for one primitive direction e,
    the single essential variable; the certificate records the constant,
    e and the orders m with their multiplicities.
    """
    factors = factored.factors if factored is not None else ()
    if factors and factors[0][0].nvars != b1:
        raise AlexkitError(
            f"polynomial has {factors[0][0].nvars} variables but b1 = {b1}")
    if projective:
        if not factors:
            return QPVerdict(CONSISTENT, "constant polynomial as required "
                             "for a projective group")
        return QPVerdict(OBSTRUCTED, "projective group with nonconstant "
                         "polynomial")
    if factored is None:
        return QPVerdict(CONSISTENT, "zero polynomial imposes no condition")
    if b1 <= 1:
        return QPVerdict(CONSISTENT, "no obstruction below b1 = 2")
    if b1 == 2:
        return QPVerdict(NOT_APPLICABLE, "b1=2 groups are exempt")
    if not factors:
        return QPVerdict(CONSISTENT, "constant polynomial",
                         {"c": factored.constant})
    records = factored.essential
    if None in records or len({e for e, _, _ in records}) > 1:
        return QPVerdict(OBSTRUCTED, "support is not collinear: more than "
                         "one essential variable")
    e = records[0][0]
    cyclo, residual = [], LaurentPoly.one(1)
    for (_, p, m), (_, mu) in zip(records, factors):
        if m is None:
            residual = residual * _from_dense(p, (1,)) ** mu
        else:
            cyclo.append([m, mu])
    if not residual.is_constant():
        return QPVerdict(OBSTRUCTED, "univariate image has a "
                         "non-cyclotomic factor",
                         {"e": list(e), "residual": residual.render(("u",))})
    return QPVerdict(CONSISTENT, "single essential variable with "
                     "cyclotomic univariate image",
                     {"c": factored.constant, "e": list(e),
                      "cyclotomic_orders": sorted(cyclo)})
