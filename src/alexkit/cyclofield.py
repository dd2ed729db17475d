"""Exact arithmetic in cyclotomic fields Q(ζ_N), and linear algebra over them.

A value in Q(ζ_N) is the tuple of its φ(N) coefficients in ζ_N, reduced
mod Φ_N (`_reduce`), each an `int` or, when not integral, a `Fraction`.
No complex embedding is chosen: ζ_N is the class of t in Q[t]/(Φ_N),
which is all that exact ranks and vanishing orders need.  The conductor
travels with the character or matrix, not with each value.
A Character is an exponent vector: its values are q_i·ζ_N^{k_i}, so a
monomial t^e at a character is the residue ⟨k, e⟩ mod N and a scale
(`Character.residues`), and a polynomial's value is its coefficients
summed by residue, each sum times a row of the table of ζ_N^k reduced
mod Φ_N (`_powers`, `evaluate`).
Ranks are computed in Z[ζ_N] by Bareiss's fraction-free elimination, whose
exact divisions are ℓ-adic: no element of Q(ζ_N) is ever inverted.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from . import (CONDUCTOR_CAP, MAX_DIGITS, AlexkitError, Frozen, check,
               has_long_number)
from .laurent import (LaurentPoly, _dup_mul, _from_dense, _gf_inverse,
                      _nextprime, _phi_coeffs, _rational)


class CycloError(AlexkitError):
    pass


def cyclotomic_poly(n: int) -> LaurentPoly:
    """Φ_n as a univariate LaurentPoly."""
    if n < 1:
        raise CycloError("conductor must be positive")
    return _from_dense(_phi_coeffs(n), (1,))


def _reduce(coeffs: list, n: int) -> tuple:
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
        coeffs.append(0)
    return tuple(coeffs)


def _mul(x: Sequence, y: Sequence, n: int) -> tuple:
    """x·y in Z[ζ_n] (or Q(ζ_n)), reduced mod Φ_n."""
    return _reduce(_dup_mul(x, y), n)


def _cross(p: tuple, x: tuple, f: tuple, y: tuple, n: int) -> tuple:
    """p·x − f·y in Z[ζ_n], reduced mod Φ_n once."""
    return _reduce([u - v for u, v in zip(_dup_mul(p, x), _dup_mul(f, y))],
                   n)


# -- characters -------------------------------------------------------------


class Character(Frozen):
    """A rank-one character, one value per generator (or variable): value
    i is scales[i]·ζ_N^exps[i], N the conductor.  Every character alexkit
    reads or builds has this form.  A scale is a nonzero rational, held as
    `laurent._rational` holds it: an `int` when integral, else a
    `Fraction`.

    For even N the scales are kept positive (−1 = ζ_N^{N/2}), so that two
    characters at one conductor are equal exactly when their values are,
    and a value is 1 exactly when its scale is 1 and its exponent 0.

    Equality compares the representation (N, scales, exps), so one value
    at two conductors compares unequal: −1 at N = 1 is not −1 at N = 2.
    `is_trivial`, and every rank and verdict, read the values exactly."""

    __slots__ = ("conductor", "scales", "exps")

    def __init__(self, conductor: int,
                 scales: Tuple[Union[int, Fraction], ...],
                 exps: Tuple[int, ...]):
        if conductor < 1:
            raise CycloError("conductor must be positive")
        check("conductor", conductor, CONDUCTOR_CAP)
        if len(scales) != len(exps):
            raise CycloError("character needs one scale per exponent")
        if any(q == 0 for q in scales):
            raise CycloError("character values must be nonzero")
        if conductor % 2 == 0 and any(q < 0 for q in scales):
            half = conductor // 2
            exps = [k + half if q < 0 else k for q, k in zip(scales, exps)]
            scales = map(abs, scales)
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "scales", tuple(map(_rational, scales)))
        object.__setattr__(self, "exps", tuple(k % conductor for k in exps))

    def __len__(self):
        return len(self.exps)

    def is_trivial(self) -> bool:
        return all(q == 1 for q in self.scales) and not any(self.exps)

    def residues(self, vectors: Iterable[Sequence[int]]
                 ) -> Tuple[List[int], Optional[list]]:
        """The value ∏_j q_j^{e_j}·ζ_N^k of ρ^e for each exponent vector e,
        as the list of residues k = Σ_j k_j·e_j mod N and the list of
        scales, which is None when every scale of ρ is 1.  Every monomial
        alexkit evaluates at a character is evaluated here.  A negative
        power of a scale is taken as a `Fraction`, never as an `int`
        power, which would be a float."""
        n, exps = self.conductor, self.exps
        scaled = [(j, q) for j, q in enumerate(self.scales) if q != 1]
        residues, scales = [], [] if scaled else None
        width = len(exps)
        for e in vectors:
            if len(e) != width:
                raise CycloError("exponent vector has wrong length")
            residues.append(sum(map(operator.mul, exps, e)) % n)
            if scaled:
                scale = 1
                for j, q in scaled:
                    scale *= q ** e[j] if e[j] >= 0 \
                        else Fraction(1, q) ** -e[j]
                scales.append(scale)
        return residues, scales

    def pull(self, vectors: Iterable[Sequence[int]]) -> "Character":
        """ρ^e for each exponent vector e, as one character."""
        exps, scales = self.residues(vectors)
        return Character(self.conductor, scales or [1] * len(exps), exps)

    def trivial_on(self, vectors: Iterable[Sequence[int]]) -> bool:
        """Whether ρ^e = 1 for every exponent vector e."""
        exps, scales = self.residues(vectors)
        return not any(exps) and (scales is None
                                  or all(q == 1 for q in scales))


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
        if name in assignments:
            raise CycloError(f"duplicate name {name!r} in character")
        if has_long_number(value):
            raise CycloError(f"a number in the value of {name!r} has more "
                             f"than {MAX_DIGITS} digits")
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
            check("conductor", order, CONDUCTOR_CAP)
        scale = math.prod(Fraction(x) if "/" in x else int(x)
                          for x in m.group("mult", "rat") if x)
        assignments[name] = (scale, order, k)
    missing = [n for n in names if n not in assignments]
    if missing:
        raise CycloError(f"character missing values for {missing}")
    values = [assignments[n] for n in names]
    conductor = math.lcm(*(order for _, order, _ in values))
    return Character(conductor, tuple(q for q, _, _ in values),
                     tuple(k * (conductor // order) for _, order, k in values))


# -- evaluation and exact rank ----------------------------------------------


@lru_cache(maxsize=None)
def _powers(n: int) -> Tuple[tuple, ...]:
    """ζ_n^k reduced mod Φ_n, for k = 0..n−1, as coefficient tuples: row
    k is row k − 1 times ζ_n, its top coefficient c folded back as −c·Φ_n
    (Φ_n is monic)."""
    phi = _phi_coeffs(n)
    row = (1,) + (0,) * (len(phi) - 2)
    rows = [row]
    for _ in range(n - 1):
        top, row = row[-1], (0,) + row[:-1]
        if top:
            row = tuple(x - top * c for x, c in zip(row, phi))
        rows.append(row)
    return tuple(rows)


def _power_sum(terms: Iterable[tuple], n: int) -> tuple:
    """Σ c·ζ_n^k over the pairs (c, k), 0 ≤ k < n, as a coefficient tuple:
    the c are summed by residue k, each nonzero sum is added times row k
    of `_powers(n)`, and each coefficient is then an `int` when integral
    (`_rational`)."""
    buckets: dict = {}
    for c, k in terms:
        buckets[k] = buckets.get(k, 0) + c
    rows = _powers(n)
    out = [0] * len(rows[0])
    for k, c in buckets.items():
        if c:
            for i, x in enumerate(rows[k]):
                if x:
                    out[i] += c * x
    return tuple(map(_rational, out))


def evaluate(f: LaurentPoly, chi: Character) -> tuple:
    """Exact value of f at the character chi, as a coefficient tuple at
    chi's conductor N: c·t^e contributes c times chi's value at e."""
    if len(chi) != f.nvars:
        raise CycloError("point has wrong number of coordinates")
    residues, scales = chi.residues(f.terms)
    coeffs = f.terms.values()
    if scales is not None:
        coeffs = map(operator.mul, coeffs, scales)
    return _power_sum(zip(coeffs, residues), chi.conductor)


# The first prime ℓ of the ℓ-adic divisions; 2^61 − 1 fits a machine word.
_PRIME = 2 ** 61 - 1


@lru_cache(maxsize=None)
def _power_bound(n: int) -> int:
    """The largest |coefficient| of ζ_n^i, 0 ≤ i < n, reduced mod Φ_n."""
    return max(abs(x) for row in _powers(n) for x in row)


def _divider(b: tuple, n: int):
    """Exact division by b ≠ 0 in Z[ζ_n]: a function taking each integer
    coefficient tuple a that b divides to the tuple of a / b.

    b is inverted once, modulo a word-size prime ℓ and Φ_n (the next prime
    when b is not invertible there).  The quotient then comes out in
    symmetric ℓ-adic digits q_0 + q_1·ℓ + ..., each q_i = r_i·b⁻¹ mod ℓ with
    r_0 = a and r_(i+1) = (r_i − b·q_i) / ℓ, until r_i = 0.

    With b' the product of the other conjugates of b, a / b = a·b' / N(b)
    for the norm N(b), a nonzero integer.  A conjugate permutes the
    coefficients of b in Z[t]/(t^n − 1), so every coefficient of a / b is
    at most B = c_n·|a|_1·|b|_1^(φ(n)−1), c_n from `_power_bound`.  Once
    ℓ^i > 2B the digits hold the whole quotient, so a remainder left then
    means that b does not divide a: an internal error.
    """
    phi = _phi_coeffs(n)
    ell = _PRIME
    while (inverse := _gf_inverse(b, phi, ell)) is None:
        ell = _nextprime(ell)
    half = ell // 2
    bound = 2 * _power_bound(n) * sum(map(abs, b)) ** (len(phi) - 2)

    def divide(a: tuple) -> tuple:
        limit = bound * sum(map(abs, a))
        q, r, scale = [0] * len(a), a, 1
        while any(r):
            if scale > limit:
                raise CycloError("inexact division in Z[zeta] (internal bug)")
            digit = [(c + half) % ell - half for c in _mul(r, inverse, n)]
            r = [(x - y) // ell for x, y in zip(r, _mul(b, digit, n))]
            q = [x + scale * y for x, y in zip(q, digit)]
            scale *= ell
        return tuple(q)

    return divide


def _integral(row: Sequence[tuple]) -> List[tuple]:
    """The row times the lcm of its denominators, as integer tuples."""
    if all(type(c) is int for x in row for c in x):
        return list(row)
    lcm = math.lcm(*(c.denominator for x in row for c in x))
    return [tuple(c.numerator * (lcm // c.denominator) for c in x)
            for x in row]


def rank_over_field(matrix: Sequence[Sequence[tuple]], n: int) -> int:
    """Exact rank over Q(ζ_n) of a matrix of coefficient tuples reduced
    mod Φ_n, by Bareiss's fraction-free elimination in Z[ζ_n]
    (Math. Comp. 22, 1968).

    Each row is first scaled to integer coefficients, which keeps the rank.
    Below the pivot p, every row becomes (p·row − f·pivot row) / the
    previous pivot, f its entry in the pivot column (also when f = 0).
    Sylvester's identity makes every entry a minor of the matrix, so each
    division is exact in Z[ζ_n] (`_divider`).  At n = 1 the entries are
    1-tuples of rationals and this is the rank over Q.
    """
    if not matrix or not matrix[0]:
        return 0
    rows = [_integral(row) for row in matrix]
    nrows, ncols = len(rows), len(rows[0])
    rank, prev = 0, None
    for col in range(ncols):
        pivot = next((i for i in range(rank, nrows) if any(rows[i][col])),
                     None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        p = top[col]
        if rank + 1 < nrows:
            divide = _divider(prev, n) if prev is not None else None
            for i in range(rank + 1, nrows):
                row, f = rows[i], rows[i][col]
                for j in range(col + 1, ncols):
                    x = _cross(p, row[j], f, top[j], n)
                    row[j] = divide(x) if divide else x
        prev = p
        rank += 1
        if rank == nrows:
            break
    return rank
