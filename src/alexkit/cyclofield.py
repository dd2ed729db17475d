"""Exact arithmetic in cyclotomic fields Q(ζ_N), and linear algebra over them.

A CycloNumber is a polynomial in ζ_N with rational coefficients, reduced
mod Φ_N.  No complex embedding is chosen: ζ_N is the class of t in
Q[t]/(Φ_N), which is all that exact ranks and vanishing orders need.
Mixed-conductor arithmetic lifts both operands to the lcm conductor.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache
from typing import List, Optional, Sequence

from sympy.ntheory import divisors, isprime

from .laurent import ComputationCapError, LaurentPoly, _cyclotomic, _invert_mod

CONDUCTOR_CAP = 240


class CycloError(ValueError):
    pass


@lru_cache(maxsize=None)
def _phi_coeffs(n: int) -> tuple:
    """Integer coefficients of Φ_n, ascending degree."""
    return _cyclotomic(n)


def cyclotomic_poly(n: int) -> LaurentPoly:
    """Φ_n as a univariate LaurentPoly."""
    if n < 1:
        raise CycloError("conductor must be positive")
    coeffs = _phi_coeffs(n)
    return LaurentPoly(1, {(i,): c for i, c in enumerate(coeffs) if c})


def _totient_preimages(d: int) -> List[int]:
    """Every m with φ(m) = d ≥ 1, ascending.

    φ(∏ q^k) = ∏ (q − 1)·q^(k−1), so each prime q dividing such an m has
    (q − 1) | d.  The search takes those primes in increasing order, each
    with every exponent that leaves an integral rest of d to account for.
    """
    primes = [k + 1 for k in divisors(d) if isprime(k + 1)]
    out = []

    def search(start: int, rest: int, m: int) -> None:
        if rest == 1:
            out.append(m)
        for i in range(start, len(primes)):
            q = primes[i]
            if rest % (q - 1):
                continue
            rest_q, m_q = rest // (q - 1), m * q
            while True:
                search(i + 1, rest_q, m_q)
                if rest_q % q:
                    break
                rest_q, m_q = rest_q // q, m_q * q

    search(0, d, 1)
    return sorted(out)


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


class CycloNumber:
    """An element of Q(ζ_N), reduced mod Φ_N."""

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor: int, coeffs: Sequence):
        if conductor < 1:
            raise CycloError("conductor must be positive")
        if conductor > CONDUCTOR_CAP:
            raise ComputationCapError(
                f"conductor {conductor} exceeds cap {CONDUCTOR_CAP}")
        self.conductor = conductor
        self.coeffs = _reduce([Fraction(c) for c in coeffs], conductor)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rational(cls, q) -> "CycloNumber":
        return cls(1, [Fraction(q)])

    @classmethod
    def root_of_unity(cls, n: int, k: int = 1) -> "CycloNumber":
        """ζ_n^k."""
        if n < 1:
            raise CycloError("order must be positive")
        k %= n
        g = math.gcd(k, n) if k else n
        order = n // g if k else 1
        kk = k // g if k else 0
        coeffs = [Fraction(0)] * (kk + 1)
        coeffs[kk] = Fraction(1)
        return cls(order, coeffs)

    def ring_one(self) -> "CycloNumber":
        return CycloNumber(self.conductor, [Fraction(1)])

    # -- basics ------------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_one(self) -> bool:
        return self == CycloNumber.from_rational(1)

    def as_rational(self) -> Optional[Fraction]:
        """The value as a Fraction when it lies in Q, else None."""
        if all(c == 0 for c in self.coeffs[1:]):
            return self.coeffs[0] if self.coeffs else Fraction(0)
        return None

    def _lift(self, n: int) -> "CycloNumber":
        """Rewrite in Q(ζ_n), where conductor | n."""
        if n == self.conductor:
            return self
        step = n // self.conductor
        out = [Fraction(0)] * (len(self.coeffs) * step + 1)
        for i, c in enumerate(self.coeffs):
            out[i * step] += c
        return CycloNumber(n, out)

    def _pair(self, other) -> tuple:
        if not isinstance(other, CycloNumber):
            other = CycloNumber.from_rational(other)
        n = math.lcm(self.conductor, other.conductor)
        return self._lift(n), other._lift(n)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        a, b = self._pair(other)
        return CycloNumber(a.conductor,
                           [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return CycloNumber(self.conductor, [-c for c in self.coeffs])

    def __sub__(self, other):
        a, b = self._pair(other)
        return CycloNumber(a.conductor,
                           [x - y for x, y in zip(a.coeffs, b.coeffs)])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b = self._pair(other)
        out = [Fraction(0)] * (len(a.coeffs) + len(b.coeffs) - 1 or 1)
        for i, x in enumerate(a.coeffs):
            if x == 0:
                continue
            for j, y in enumerate(b.coeffs):
                if y:
                    out[i + j] += x * y
        return CycloNumber(a.conductor, out)

    __rmul__ = __mul__

    def scale(self, q) -> "CycloNumber":
        q = Fraction(q)
        return CycloNumber(self.conductor, [c * q for c in self.coeffs])

    def inverse(self) -> "CycloNumber":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        # Φ_N is irreducible, so it is coprime to any nonzero reduced value
        inv = _invert_mod(
            LaurentPoly(1, {(i,): c for i, c in enumerate(self.coeffs)}),
            cyclotomic_poly(self.conductor)).terms
        return CycloNumber(self.conductor,
                           [inv.get((i,), 0) for i in range(len(self.coeffs))])

    def __truediv__(self, other):
        a, b = self._pair(other)
        return a * b.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = CycloNumber(self.conductor, [Fraction(1)])
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycloNumber.from_rational(other)
        if not isinstance(other, CycloNumber):
            return NotImplemented
        a, b = self._pair(other)
        return a.coeffs == b.coeffs

    __hash__ = None  # equality lifts conductors; not usable as a dict key

    def __repr__(self):
        return f"CycloNumber(zeta{self.conductor}: {list(self.coeffs)})"

    def multiplicative_order(self, bound: int) -> Optional[int]:
        """Smallest d ≤ bound with self^d = 1, or None."""
        acc = self.ring_one()
        for d in range(1, bound + 1):
            acc = acc * self
            if acc.is_one():
                return d
        return None


def common_conductor(values: Sequence[CycloNumber]) -> List[CycloNumber]:
    n = math.lcm(*(v.conductor for v in values)) if values else 1
    if n > CONDUCTOR_CAP:
        raise ComputationCapError(f"conductor {n} exceeds cap {CONDUCTOR_CAP}")
    return [v._lift(n) for v in values]


# -- characters -------------------------------------------------------------


class Character:
    """A tuple of nonzero cyclotomic values, one per generator (or variable)."""

    def __init__(self, values: Sequence[CycloNumber]):
        vals = []
        for v in values:
            if not isinstance(v, CycloNumber):
                v = CycloNumber.from_rational(v)
            if v.is_zero():
                raise CycloError("character values must be nonzero")
            vals.append(v)
        self.values = tuple(vals)

    def __len__(self):
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, i):
        return self.values[i]

    def is_trivial(self) -> bool:
        return all(v.is_one() for v in self.values)

    def __repr__(self):
        return f"Character({list(self.values)})"


_VALUE = re.compile(
    r"^\s*(?:(?P<mult>-?\d+(?:/\d+)?)\s*\*\s*)?"
    r"(?:(?P<zeta>zeta(?P<n>\d+))(?:\^(?P<k>-?\d+))?|(?P<rat>-?\d+(?:/\d+)?))\s*$")


def parse_character(text: str, names: Sequence[str]) -> Character:
    """Parse `name=value, ...` with values rational or zetaN^k."""
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
        if m.group("zeta"):
            n = int(m.group("n"))
            k = int(m.group("k") or 1)
            val = CycloNumber.root_of_unity(n, k)
        else:
            val = CycloNumber.from_rational(Fraction(m.group("rat")))
        if m.group("mult"):
            val = val.scale(Fraction(m.group("mult")))
        assignments[name] = val
    missing = [n for n in names if n not in assignments]
    if missing:
        raise CycloError(f"character missing values for {missing}")
    return Character([assignments[n] for n in names])


# -- evaluation and exact rank ----------------------------------------------


def evaluate(f: LaurentPoly, point) -> CycloNumber:
    """Exact value of f at a tuple of nonzero cyclotomic coordinates."""
    if isinstance(point, Character):
        point = point.values
    vals = [v if isinstance(v, CycloNumber) else CycloNumber.from_rational(v)
            for v in point]
    if len(vals) != f.nvars:
        raise CycloError("point has wrong number of coordinates")
    if any(v.is_zero() for v in vals):
        raise CycloError("evaluation needs nonzero coordinates")
    vals = common_conductor(vals)
    one = vals[0].ring_one() if vals else CycloNumber.from_rational(1)
    acc = CycloNumber.from_rational(0)
    for exp, c in f.terms.items():
        term = one.scale(c)
        for v, e in zip(vals, exp):
            if e:
                term = term * (v ** e)
        acc = acc + term
    return acc


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
