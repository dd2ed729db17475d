"""Characters with values in cyclotomic fields Q(ζ_N), and the one exact
reader of those values: the rank of a matrix of them.  A value is zero
when its 1×1 matrix has rank 0, which is how `vanishing_order` reads
the Euler derivatives of a polynomial at a character.

A Character is an exponent vector: its values are q_i·ζ_N^{k_i}, so a
monomial t^e at a character is the residue ⟨k, e⟩ mod N and a scale
(`Character.residues`), and a polynomial's value is the pairs (c, k) of
its coefficients times the scales and its residues, Σ c·ζ_N^k.
No value is reduced mod Φ_N or inverted.  `rank` reads it at primes
p ≡ 1 (mod N), where ζ_N ↦ ω, ω of order N in F_p (`_images`), until
the product of the primes read passes a bound on the norm of what
a nonzero answer would be (von zur Gathen & Gerhard, Modern Computer
Algebra, ch. 5; Washington, Cyclotomic Fields, Thm 2.13).
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from fractions import Fraction
from typing import (Iterable, Iterator, List, Optional, Sequence, Tuple,
                    Union)

from . import (CONDUCTOR_CAP, MAX_DIGITS, VANISHING_WORK_CAP, AlexkitError,
               Frozen, check, has_long_number)
from .laurent import (LaurentPoly, _factorize, _from_dense, _isprime,
                      _phi_coeffs, _rational)


def cyclotomic_poly(n: int) -> LaurentPoly:
    """Φ_n as a univariate LaurentPoly."""
    if n < 1:
        raise AlexkitError("conductor must be positive")
    return _from_dense(_phi_coeffs(n), (1,))


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
            raise AlexkitError("conductor must be positive")
        check("conductor", conductor, CONDUCTOR_CAP)
        if len(scales) != len(exps):
            raise AlexkitError("character needs one scale per exponent")
        if any(q == 0 for q in scales):
            raise AlexkitError("character values must be nonzero")
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

    def order(self) -> Optional[int]:
        """The multiplicative order of the one value q·ζ_N^k of a
        one-value character, or None when it has none (|q| ≠ 1).  A
        negative q is left only at odd N, where −1 = ζ_2N^N makes the value
        ζ_2N^(2k + N); else it is ζ_2N^(2k)."""
        (q,), (k,), n = self.scales, self.exps, self.conductor
        if abs(q) != 1:
            return None
        return 2 * n // math.gcd(2 * n, 2 * k + (n if q < 0 else 0))

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
                raise AlexkitError("exponent vector has wrong length")
            residues.append(sum(map(operator.mul, exps, e)) % n)
            if scaled:
                scale = 1
                for j, q in scaled:
                    scale *= q ** e[j] if e[j] >= 0 \
                        else Fraction(1, q) ** -e[j]
                scales.append(scale)
        return residues, scales

    def at(self, terms: dict) -> Tuple[list, List[int]]:
        """For the terms {e: c} of a polynomial f, the coefficients c times
        the scales of ρ^e, and the residues of ρ^e: f(ρ) is Σ c·ζ_N^k over
        the pairs (c, k) the two lists zip to, as `rank` takes it."""
        residues, scales = self.residues(terms)
        coeffs = list(terms.values())
        if scales is not None:
            coeffs = list(map(operator.mul, coeffs, scales))
        return coeffs, residues

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
            raise AlexkitError(f"bad character assignment {chunk!r}")
        name, value = chunk.split("=", 1)
        name = name.strip()
        if name not in names:
            raise AlexkitError(f"unknown name {name!r} in character")
        if name in assignments:
            raise AlexkitError(f"duplicate name {name!r} in character")
        if has_long_number(value):
            raise AlexkitError(f"a number in the value of {name!r} has more "
                               f"than {MAX_DIGITS} digits")
        m = _VALUE.match(value)
        if not m:
            raise AlexkitError(f"bad character value {value!r}")
        order, k = 1, 0
        if m.group("zeta"):
            n, k = int(m.group("n")), int(m.group("k") or 1)
            if n < 1:
                raise AlexkitError("order must be positive")
            g = math.gcd(n, k)
            order, k = n // g, k // g
            check("conductor", order, CONDUCTOR_CAP)
        scale = math.prod(Fraction(x) if "/" in x else int(x)
                          for x in m.group("mult", "rat") if x)
        assignments[name] = (scale, order, k)
    missing = [n for n in names if n not in assignments]
    if missing:
        raise AlexkitError(f"character missing values for {missing}")
    values = [assignments[n] for n in names]
    conductor = math.lcm(*(order for _, order, _ in values))
    return Character(conductor, tuple(q for q, _, _ in values),
                     tuple(k * (conductor // order) for _, order, k in values))


# -- ranks at primes p ≡ 1 (mod N) -------------------------------------------


_IMAGES: dict = {}


def _images(n: int) -> Iterator[Tuple[int, Tuple[int, ...]]]:
    """The primes p ≡ 1 (mod n) above 2^29 in turn, each with ω^k mod p
    for k < n, built once per conductor n.

    Below 2^30 a residue is one CPython digit, so products and `pow` mod
    p stay cheap; a nonzero value or minor whose norm the first prime
    divides only takes more primes.  There are about 2^29/(φ(n)·21)
    primes p ≡ 1 (mod n) in [2^29, 2^30), over 10^5 for every n ≤ 240,
    where a certificate reads a few hundred.

    ω = a^((p−1)/n) for the least a ≥ 2 with ω^(n/q) ≠ 1 for every prime
    q | n has order n, so ζ_n ↦ ω is a ring map Z[ζ_n] → F_p, and its
    kernel is a prime of norm p: p splits completely in Q(ζ_n)."""
    table = _IMAGES.setdefault(n, [])
    for i in itertools.count():
        if i == len(table):
            p = table[-1][0] if table else 2 ** 29
            p += n - (p - 1) % n
            while not _isprime(p):
                p += n
            cofactors = [n // q for q in _factorize(n)]
            for a in itertools.count(2):
                w = pow(a, (p - 1) // n, p)
                if all(pow(w, d, p) != 1 for d in cofactors):
                    break
            powers = [1]
            for _ in range(n - 1):
                powers.append(powers[-1] * w % p)
            table.append((p, tuple(powers)))
        yield table[i]


def _integer_sums(row: Sequence[Iterable[tuple]]) -> List[dict]:
    """Each value of the row, pairs (c, k) for Σ c·ζ^k, as {k: Σ c} over
    its nonzero sums, all times the lcm of their denominators."""
    sums = []
    for value in row:
        out: dict = {}
        for c, k in value:
            out[k] = out.get(k, 0) + c
        sums.append(out)
    lcm = math.lcm(*(c.denominator for x in sums for c in x.values()))
    return [{k: c.numerator * (lcm // c.denominator)
             for k, c in x.items() if c} for x in sums]


def _rank_mod(rows: List[List[int]], p: int) -> int:
    """The rank over F_p of a matrix of residues mod p."""
    rows = [row for row in rows if any(row)]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]),
                     None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        inverse = pow(top[col], -1, p)
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] * inverse % p
            if f:
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], top)]
        rank += 1
    return rank


def rank(matrix: Sequence[Sequence[Iterable[tuple]]], n: int) -> int:
    """Exact rank over Q(ζ_n) of a matrix whose entries are values
    Σ c·ζ_n^k, each given as the pairs (c, k), c rational and 0 ≤ k < n.
    This is the one exact reader of values in Q(ζ_n): a value is zero
    exactly when the 1×1 matrix holding it has rank 0.

    Each row is scaled to integers, which keeps the rank; the rank mod a
    prime of `_images` is then at most the rank, and the answer is the
    largest seen, r.  Every (r + 1)-minor M has |M^σ| ≤ H for each
    conjugate σ, by Hadamard's bound, with H the product of the r + 1
    largest row norms √(Σ_j ‖a_ij‖₁²), ‖a‖₁ the sum of |c| by residue
    (for one entry, H = ‖a‖₁).  A nonzero M has |N(M)| ≤ H^φ(n), and each
    prime read divides N(M): so once the product of the primes read
    passes H^φ(n), no (r + 1)-minor is nonzero.  The loop stops at the
    first prime that shows full rank, so a nonzero value reads one prime
    unless that prime divides its norm."""
    rows = [_integer_sums(row) for row in matrix]
    full = min(len(rows), len(rows[0])) if rows else 0
    norms = sorted((sum(sum(map(abs, x.values())) ** 2 for x in row)
                    for row in rows), reverse=True)
    degree = len(_phi_coeffs(n)) - 1
    best, limit, product = 0, None, 1
    for p, powers in _images(n):
        r = _rank_mod([[sum(c * powers[k] for k, c in x.items()) % p
                        for x in row] for row in rows], p)
        if r == full:
            return r
        if limit is None or r > best:
            best = r
            # (H²)^φ(n), to be passed by the product of the primes squared
            limit = math.prod(norms[:best + 1]) ** degree
        product *= p
        if product * product > limit:
            return best


# -- order of vanishing -----------------------------------------------------


def vanishing_order(f: LaurentPoly, point: Character) -> int:
    """ν_ρ(f): the least k such that some Euler derivative θ^α f with
    |α| = k, θ_i = t_i ∂/∂t_i, is nonzero at ρ; computed exactly.

    `point` has one value per variable.  θ^α t^e = e^α t^e, so the
    monomials of f are evaluated at ρ once (`Character.at`) and each
    derivative only reweights their coefficients: θ_j θ^α f has the
    coefficients of θ^α f times the exponents of t_j.  Each derivative's
    value is read as the `rank` of the 1×1 matrix holding it.  θ_j f is
    identically zero when no term of f holds t_j, so only the variables f
    holds are derived along, and declared variables cost no work.
    θ^α = Σ_{β≤α} S(α,β) t^β ∂^β with Stirling numbers S(α,α) = 1 is
    unitriangular and t^β is a unit at ρ, so this is the order of
    vanishing of f at ρ.
    """
    if f.is_zero():
        raise AlexkitError("vanishing order of the zero polynomial")
    if len(point) != f.nvars:
        raise AlexkitError("point has wrong number of coordinates")
    coeffs, residues = point.at(f.terms)
    columns = [(j, col) for j, col in enumerate(zip(*f.terms)) if any(col)]
    # the coefficients of θ^α f for the α of order k, in lexicographic
    # order, each with α's last index i; order k + 1 extends α by j ≥ i
    derivatives, work = [(0, coeffs)], 0
    for k in itertools.count():
        vanishing = []
        for i, weighted in derivatives:
            work += len(weighted)
            check("vanishing-order work (derivatives evaluated × terms)",
                  work, VANISHING_WORK_CAP)
            if rank([[zip(weighted, residues)]], point.conductor):
                return k
            vanishing.append((i, weighted))
        derivatives = ((j, list(map(operator.mul, weighted, col)))
                       for i, weighted in vanishing for j, col in columns
                       if j >= i)
