"""Closed-form invariants of Seifert links from their fiber weights.

A Seifert link is described by pairwise coprime multiplicities
k_1..k_n of the singular fibers with the first q fibers taken as the
link components.  The Alexander polynomial, the divisor structure of
its zero set, and the twisted ranks at torsion points all have exact
closed forms in the single variable u = t_1^{N_1} ... t_q^{N_q}.
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Tuple

from . import DEGREE_CAP, SEIFERT_OUTPUT_CAP, AlexkitError, Frozen, check
from .cyclofield import Character
from .laurent import (LaurentPoly, _divisors, _from_dense, _times_binomial,
                      normalize)


class SpliceData(Frozen):
    """Fiber weights k_1..k_n (pairwise coprime) with the first q as link
    components; trivial weights in the tail are sorted last."""

    __slots__ = ("weights", "q")

    def __init__(self, weights: Tuple[int, ...], q: int):
        k = weights
        n = len(k)
        if n < 3:
            raise AlexkitError("need at least three weights")
        if not (2 <= q <= n):
            raise AlexkitError("q must satisfy 2 <= q <= n")
        if any(x < 1 for x in k):
            raise AlexkitError("weights must be positive integers")
        if math.lcm(*k) != math.prod(k):
            raise AlexkitError("weights not pairwise coprime")
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


def seifert_delta(d: SpliceData) -> LaurentPoly:
    """The link's Alexander polynomial in t_1..t_q: the exponent sequence
    b_{N'} = q+s−2, b_{N'_j} = −1 of Δ(u) = ±Π (1 − u^n)^{b_n}, j over the
    nontrivial non-component fibers, in u = t_1^{N_1} ... t_q^{N_q}.  Its
    degree (q+s−2)·N' − Σ_j N'_j must be within `DEGREE_CAP`, and
    q·(degree + 1) within `SEIFERT_OUTPUT_CAP`; each factor is then
    applied to 1 mod u^(degree+1)."""
    q, s, big_n_prime = d.q, d.s, d.big_n_prime
    divisors = [big_n_prime // k for k in d.weights[q:q + s]]
    degree = (q + s - 2) * big_n_prime - sum(divisors)
    check("Seifert polynomial degree", degree, DEGREE_CAP)
    check("Seifert output size q·(degree + 1) =", q * (degree + 1),
          SEIFERT_OUTPUT_CAP)
    coeffs = [1] + [0] * degree
    for n in divisors:
        _times_binomial(coeffs, n, -1)
    _times_binomial(coeffs, d.big_n_prime, q + s - 2)
    return normalize(_from_dense(coeffs, [d.n_j(j) for j in range(q)]))


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


def seifert_twisted_betti(d: SpliceData, rho: Character) -> int:
    """Predicted twisted rank at a character on the link components.

    The character only matters through alpha = rho_1^{N_1}...rho_q^{N_q};
    off the divisor (alpha^{N'} != 1) the rank is zero, on it the rank is
    the component multiplicity, cross-checked against the orbifold count.
    """
    if len(rho) != d.q:
        raise AlexkitError(f"expected {d.q} character values")
    if rho.is_trivial():
        raise AlexkitError("trivial character excluded")
    alpha = rho.pull([[d.n_j(j) for j in range(d.q)]])
    order = alpha.order()
    if order is None or d.big_n_prime % order:
        return 0
    m = _mult_at_order(d, order)
    # independent orbifold-Euler count
    i_alpha = sum(1 for j in range(d.q, d.q + d.s)
                  if alpha.trivial_on([[d.n_prime_j(j)]]))
    if m != (d.q - 2) + d.s - i_alpha:
        raise AlexkitError("multiplicity disagrees with orbifold count "
                           "(internal bug)")
    return m
