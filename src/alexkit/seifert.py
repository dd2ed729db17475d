"""Closed-form invariants of Seifert links from their fiber weights.

A Seifert link is described by pairwise coprime multiplicities
k_1..k_n of the singular fibers with the first q fibers taken as the
link components.  The Alexander polynomial, the divisor structure of
its zero set, and the twisted ranks at torsion points all have exact
closed forms in the single variable u = t_1^{N_1} ... t_q^{N_q}.
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Optional, Tuple

from . import Frozen
from .cyclofield import Character
from .laurent import LaurentPoly, _divisors, exact_div_binomial, normalize


class SeifertError(ValueError):
    pass


class SpliceData(Frozen):
    """Fiber weights k_1..k_n (pairwise coprime) with the first q as link
    components; trivial weights in the tail are sorted last."""

    __slots__ = ("weights", "q")

    def __init__(self, weights: Tuple[int, ...], q: int):
        k = weights
        n = len(k)
        if n < 3:
            raise SeifertError("need at least three weights")
        if not (2 <= q <= n):
            raise SeifertError("q must satisfy 2 <= q <= n")
        if any(x < 1 for x in k):
            raise SeifertError("weights must be positive integers")
        for i in range(n):
            for j in range(i + 1, n):
                if math.gcd(k[i], k[j]) != 1:
                    raise SeifertError("weights not pairwise coprime")
        tail = sorted(k[q:], reverse=True)
        object.__setattr__(self, "weights", tuple(k[:q]) + tuple(tail))
        object.__setattr__(self, "q", q)

    @property
    def n(self) -> int:
        return len(self.weights)

    @property
    def big_n(self) -> int:
        return math.prod(self.weights[:self.q])

    def n_j(self, j: int) -> int:
        """N_j = N / k_j for a link component (0-based j < q)."""
        return self.big_n // self.weights[j]

    @property
    def big_n_prime(self) -> int:
        return math.prod(self.weights[self.q:]) if self.n > self.q else 1

    def n_prime_j(self, j: int) -> int:
        """N'_j = N' / k_j for a non-component fiber (0-based j >= q)."""
        return self.big_n_prime // self.weights[j]

    @property
    def s(self) -> int:
        return sum(1 for x in self.weights[self.q:] if x > 1)


def _u_power_minus_one(k: int) -> LaurentPoly:
    return LaurentPoly.monomial([k]) - LaurentPoly.one(1)


def seifert_delta(d: SpliceData) -> LaurentPoly:
    """The link's Alexander polynomial in t_1..t_q.

    Computed as [u^{N'} - 1]^{q+s-2} divided by the u^{N'_j} - 1 of the
    nontrivial non-component fibers, then u substituted by the monomial
    t_1^{N_1} ... t_q^{N_q}; the division is exact by construction.
    """
    q, s = d.q, d.s
    expo = q + s - 2
    num = _u_power_minus_one(d.big_n_prime) ** expo if expo > 0 \
        else LaurentPoly.one(1)
    for j in range(q, q + s):
        num = exact_div_binomial(num, (d.n_prime_j(j),))
        if num is None:
            raise SeifertError("inexact divisor division (internal bug)")
    # substitute u -> t1^{N_1} ... tq^{N_q}
    exps = [d.n_j(j) for j in range(q)]
    out = LaurentPoly(q, {tuple(x * e for x in exps): c
                          for (e,), c in num.terms.items()})
    return normalize(out) if not out.is_zero() else out


class DivisorComponent(NamedTuple):
    """Zero-set component u = zeta with zeta of exact order root_order;
    all primitive roots of that order share the multiplicity."""

    root_order: int
    multiplicity: int


def _mult_at_order(d: SpliceData, order: int) -> int:
    hits = sum(1 for j in range(d.q, d.q + d.s)
               if d.n_prime_j(j) % order == 0)
    return (d.q + d.s - 2) - hits


def seifert_divisor(d: SpliceData) -> List[DivisorComponent]:
    """Components of the polynomial's zero set with their multiplicities,
    one entry per exact root order dividing N'."""
    out = []
    for order in _divisors(d.big_n_prime):
        m = _mult_at_order(d, order)
        if m > 0:
            out.append(DivisorComponent(order, m))
    return out


def _order(alpha: Character) -> Optional[int]:
    """Multiplicative order of the one value q·ζ_N^k of alpha, or None when
    it has none (|q| ≠ 1).  With −1 = ζ_{2N}^N, the value ±ζ_N^k is
    ζ_{2N}^{2k + [q<0]·N}."""
    (q,), (k,), n = alpha.scales, alpha.exps, alpha.conductor
    if abs(q) != 1:
        return None
    return 2 * n // math.gcd(2 * n, 2 * k + (n if q < 0 else 0))


def seifert_twisted_betti(d: SpliceData, rho: Character) -> int:
    """Predicted twisted rank at a character on the link components.

    The character only matters through alpha = rho_1^{N_1}...rho_q^{N_q};
    off the divisor (alpha^{N'} != 1) the rank is zero, on it the rank is
    the component multiplicity, cross-checked against the orbifold count.
    """
    if len(rho) != d.q:
        raise SeifertError(f"expected {d.q} character values")
    if rho.is_trivial():
        raise SeifertError("trivial character excluded")
    alpha = rho.pull([[d.n_j(j) for j in range(d.q)]])
    order = _order(alpha)
    if order is None or d.big_n_prime % order:
        return 0
    m = _mult_at_order(d, order)
    # independent orbifold-Euler count
    i_alpha = sum(1 for j in range(d.q, d.q + d.s)
                  if alpha.pull([[d.n_prime_j(j)]]).is_trivial())
    if m != (d.q - 2) + d.s - i_alpha:
        raise SeifertError("multiplicity disagrees with orbifold count "
                           "(internal bug)")
    return m
