"""Exact arithmetic in cyclotomic fields Q(ζ_N), and linear algebra over them.

A CycloNumber is a polynomial in ζ_N with rational coefficients, reduced
mod Φ_N.  No complex embedding is chosen: ζ_N is the class of t in
Q[t]/(Φ_N), which is all that exact ranks and vanishing orders need.
A Character is an exponent vector: its values are q_i·ζ_N^{k_i}, so a
monomial at a character is one more such value (`Character.pull`), and a
polynomial's value is a sum of rationals in N buckets (`evaluate`).
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from .laurent import (ComputationCapError, LaurentPoly, _invert_mod,
                      _phi_coeffs, _totient_preimages)

CONDUCTOR_CAP = 240


class CycloError(ValueError):
    pass


def cyclotomic_poly(n: int) -> LaurentPoly:
    """Φ_n as a univariate LaurentPoly."""
    if n < 1:
        raise CycloError("conductor must be positive")
    coeffs = _phi_coeffs(n)
    return LaurentPoly(1, {(i,): c for i, c in enumerate(coeffs) if c})


def cyclotomic_order(p: LaurentPoly) -> Optional[int]:
    """The m with p = Φ_m for a canonical univariate p (as `normalize`
    returns it), or None.

    p is compared only with the Φ_m of degree φ(m) = deg p.
    """
    terms = p.terms
    deg = max(e for (e,) in terms)
    if deg == 0:
        return None
    coeffs = tuple(terms.get((i,), 0) for i in range(deg + 1))
    return next((m for m in _totient_preimages(deg)
                 if _phi_coeffs(m) == coeffs), None)


def _reduce(coeffs: List[Fraction], n: int) -> tuple:
    """Reduce a coefficient list mod Φ_n to degree < φ(n)."""
    phi = list(_phi_coeffs(n))
    deg = len(phi) - 1
    coeffs = list(coeffs)
    while len(coeffs) > deg:
        c = coeffs.pop()
        if c:
            shift = len(coeffs) - deg
            for i in range(deg):
                coeffs[shift + i] -= c * phi[i]
    while len(coeffs) < deg:
        coeffs.append(Fraction(0))
    return tuple(coeffs)


def _check_conductor(n: int) -> None:
    if n < 1:
        raise CycloError("conductor must be positive")
    if n > CONDUCTOR_CAP:
        raise ComputationCapError(f"conductor {n} exceeds cap {CONDUCTOR_CAP}")


class CycloNumber:
    """An element of Q(ζ_N), reduced mod Φ_N.  Both operands of an
    operation must have the same conductor N."""

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor: int, coeffs: Sequence):
        _check_conductor(conductor)
        self.conductor = conductor
        self.coeffs = _reduce([Fraction(c) for c in coeffs], conductor)

    def _check(self, other: "CycloNumber") -> None:
        if other.conductor != self.conductor:
            raise CycloError(f"conductors {self.conductor} and "
                             f"{other.conductor} differ")

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __add__(self, other):
        self._check(other)
        return CycloNumber(self.conductor,
                           [x + y for x, y in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        self._check(other)
        return CycloNumber(self.conductor,
                           [x - y for x, y in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other):
        self._check(other)
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1 or 1)
        for i, x in enumerate(self.coeffs):
            if x == 0:
                continue
            for j, y in enumerate(other.coeffs):
                if y:
                    out[i + j] += x * y
        return CycloNumber(self.conductor, out)

    def inverse(self) -> "CycloNumber":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        # Φ_N is irreducible, so it is coprime to any nonzero reduced value
        inv = _invert_mod(
            LaurentPoly(1, {(i,): c for i, c in enumerate(self.coeffs)}),
            cyclotomic_poly(self.conductor)).terms
        return CycloNumber(self.conductor,
                           [inv.get((i,), 0) for i in range(len(self.coeffs))])

    def __eq__(self, other):
        if not isinstance(other, CycloNumber):
            return NotImplemented
        self._check(other)
        return self.coeffs == other.coeffs

    def __repr__(self):
        return f"CycloNumber(zeta{self.conductor}: {list(self.coeffs)})"


# -- characters -------------------------------------------------------------


@dataclass(frozen=True)
class Character:
    """A rank-one character, one value per generator (or variable): value
    i is scales[i]·ζ_N^exps[i], N the conductor.  Every character alexkit
    reads or builds has this form.

    For even N the scales are kept positive (−1 = ζ_N^{N/2}), so that two
    characters at one conductor are equal exactly when their values are,
    and a value is 1 exactly when its scale is 1 and its exponent 0."""

    conductor: int
    scales: Tuple[Fraction, ...]
    exps: Tuple[int, ...]

    def __post_init__(self):
        _check_conductor(self.conductor)
        if len(self.scales) != len(self.exps):
            raise CycloError("character needs one scale per exponent")
        if any(q == 0 for q in self.scales):
            raise CycloError("character values must be nonzero")
        n = self.conductor
        values = [(-q, k + n // 2) if q < 0 and n % 2 == 0 else (q, k)
                  for q, k in zip(self.scales, self.exps)]
        object.__setattr__(self, "scales",
                           tuple(Fraction(q) for q, _ in values))
        object.__setattr__(self, "exps", tuple(k % n for _, k in values))

    def __len__(self):
        return len(self.exps)

    def is_trivial(self) -> bool:
        return all(q == 1 for q in self.scales) and not any(self.exps)

    def pull(self, vectors: Iterable[Sequence[int]]) -> "Character":
        """ρ^e for each exponent vector e, as one character: its values
        are ∏_j q_j^{e_j}·ζ_N^{Σ_j k_j·e_j}.  Every monomial alexkit
        evaluates at a character is evaluated here."""
        scaled = [(j, q) for j, q in enumerate(self.scales) if q != 1]
        scales, exps = [], []
        for e in vectors:
            if len(e) != len(self.exps):
                raise CycloError("exponent vector has wrong length")
            scales.append(math.prod((q ** e[j] for j, q in scaled),
                                    start=Fraction(1)))
            exps.append(sum(k * x for k, x in zip(self.exps, e)))
        return Character(self.conductor, tuple(scales), tuple(exps))


_RATIONAL = r"-?\d+(?:/0*[1-9]\d*)?"  # a denominator is never zero
_VALUE = re.compile(
    rf"^\s*(?:(?P<mult>{_RATIONAL})\s*\*\s*)?"
    rf"(?:(?P<zeta>zeta(?P<n>\d+))(?:\^(?P<k>-?\d+))?|(?P<rat>{_RATIONAL}))\s*$")


def parse_character(text: str, names: Sequence[str]) -> Character:
    """Parse `name=value, ...`; a value is a rational, zetaN, zetaN^k or
    q*zetaN^k (such as -1*zeta3^2)."""
    assignments = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise CycloError(f"bad character assignment {chunk!r}")
        name, value = chunk.split("=", 1)
        name = name.strip()
        if name not in names:
            raise CycloError(f"unknown name {name!r} in character")
        m = _VALUE.match(value)
        if not m:
            raise CycloError(f"bad character value {value!r}")
        order, k = 1, 0
        if m.group("zeta"):
            n, k = int(m.group("n")), int(m.group("k") or 1)
            if n < 1:
                raise CycloError("order must be positive")
            g = math.gcd(n, k)
            order, k = n // g, k // g
            _check_conductor(order)
        scale = Fraction(m.group("mult") or 1) * Fraction(m.group("rat") or 1)
        assignments[name] = (scale, order, k)
    missing = [n for n in names if n not in assignments]
    if missing:
        raise CycloError(f"character missing values for {missing}")
    values = [assignments[n] for n in names]
    conductor = math.lcm(*(order for _, order, _ in values))
    return Character(conductor, tuple(q for q, _, _ in values),
                     tuple(k * (conductor // order) for _, order, k in values))


# -- evaluation and exact rank ----------------------------------------------


def evaluate(f: LaurentPoly, chi: Character) -> CycloNumber:
    """Exact value of f at the character chi: each term c·t^e adds c·q to
    the bucket of ζ_N^k, where q·ζ_N^k is chi's value at e, and the
    buckets are reduced mod Φ_N once."""
    if len(chi) != f.nvars:
        raise CycloError("point has wrong number of coordinates")
    values = chi.pull(f.terms)
    buckets = [Fraction(0)] * chi.conductor
    for c, q, k in zip(f.terms.values(), values.scales, values.exps):
        buckets[k] += c * q
    return CycloNumber(chi.conductor, buckets)


def rank_over_field(matrix: Sequence[Sequence[CycloNumber]]) -> int:
    """Exact rank via Gaussian elimination with exact zero tests."""
    rows = [list(r) for r in matrix]
    if not rows or not rows[0]:
        return 0
    nrows, ncols = len(rows), len(rows[0])
    rank = 0
    col = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, nrows)
                      if not rows[i][col].is_zero()), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][col].inverse()
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(nrows):
            if i != rank and not rows[i][col].is_zero():
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank
