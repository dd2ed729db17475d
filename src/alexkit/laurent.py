"""Exact multivariate Laurent polynomials over the integers.

The ring is Z[t_1^{±1}, ..., t_n^{±1}].  Units are ±(monomial); two
polynomials are *associate* if they differ by a unit, and associate over C
if they additionally differ by a rational scalar.

`LaurentPoly`, a dict {exponent vector: coefficient}, is the one polynomial
type alexkit code handles.  Its coefficients are `int`s: an integral
`Fraction` is stored as its `int`, and any other `Fraction` or a `float` is
refused.  Rationals appear only in character scales, each an `int` when
integral and a `Fraction` only when not (`_rational`), and in values at
characters.  One-variable work runs on a dense layer in Z[u], ascending
`int` tuples: gcd (heuristic, with a primitive Euclidean fallback), exact
division, the cyclotomic polynomials Φ_n and the recognizer of their
products, and the primes and divisors these and `cyclofield` need.  sympy is a backend, imported in one function,
`_ring` (a cached sparse ring Z[t] per variable count), and reached through
the bridge `_ring`, `_to_ring` and `_from_ring`, which no other module
names: multivariate gcd (`gcd_many`, and the cofactors of `factor_poly`'s
linear split), and factoring of a piece that is neither a product of Φ_m
nor of degree one in a variable.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from fractions import Fraction
from functools import lru_cache, reduce
from typing import Iterable, NamedTuple, Optional, Sequence, Tuple

from . import (COEFFICIENT_BITS_CAP, DEGREE_CAP, EXPANSION_CAP,
               FACTOR_BOX_CAP, MAX_DIGITS, RING_VARIABLES_CAP, AlexkitError,
               ProductMeter, check, check_printable, has_long_number)


def _rational(c):
    """c as alexkit holds a rational: an `int` when c is integral, else a
    `Fraction` with denominator > 1.  A `float` raises AlexkitError: it
    is not exact, and nothing in alexkit is a float."""
    if type(c) is int:
        return c
    if isinstance(c, float):
        raise AlexkitError(f"inexact number {c!r}: expected an int or a "
                           f"Fraction")
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _int_exponents(exp: Sequence[int]) -> tuple:
    """exp as an exponent tuple; AlexkitError unless every entry is an
    `int` (a `bool`, a `float` or a `Fraction` is not).  The constructors
    that take exponents from a caller check them here, not in
    `LaurentPoly.__init__`, which every polynomial built passes through."""
    exp = tuple(exp)
    if any(type(x) is not int for x in exp):
        raise AlexkitError(f"exponent vector {exp!r} has an entry that is "
                           f"not an int")
    return exp


class LaurentPoly:
    """A Laurent polynomial as a map {exponent vector: nonzero coefficient}.

    Each exponent vector is a tuple of nvars ints, and each coefficient is
    an `int`.  This constructor is the only one: it converts an integral
    coefficient that is not an `int` (`_rational`), refuses any other with
    AlexkitError, and drops zeros.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        clean = {}
        for exp, c in (terms or {}).items():
            if type(c) is not int:
                c = _rational(c)
                if type(c) is not int:
                    raise AlexkitError(f"coefficient {c} is not an integer")
            if c:
                if type(exp) is not tuple or len(exp) != nvars:
                    raise AlexkitError(
                        f"exponent vector {exp!r} is not a tuple of length "
                        f"{nvars}")
                clean[exp] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "LaurentPoly":
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars: int, c) -> "LaurentPoly":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def one(cls, nvars: int) -> "LaurentPoly":
        return cls.constant(nvars, 1)

    @classmethod
    def var(cls, nvars: int, i: int, power: int = 1) -> "LaurentPoly":
        exp = [0] * nvars
        exp[i] = power
        return cls(nvars, {_int_exponents(exp): 1})

    @classmethod
    def monomial(cls, exp: Sequence[int], coeff=1) -> "LaurentPoly":
        exp = _int_exponents(exp)
        return cls(len(exp), {exp: coeff})

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exp) for exp in self.terms)

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def is_unit(self) -> bool:
        """Unit in Z[t^±]: ±1 times a monomial."""
        if len(self.terms) != 1:
            return False
        c = next(iter(self.terms.values()))
        return c == 1 or c == -1

    def support(self) -> list:
        return sorted(self.terms)

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(abs(e) for e in exp) for exp in self.terms)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for exp, c in other.terms.items():
            out[exp] = out.get(exp, 0) + c
        return LaurentPoly(self.nvars, out)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return LaurentPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(operator.add, e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly(self.nvars, out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, k: int):
        if k < 0:
            if not self.is_monomial():
                raise AlexkitError("negative powers only for monomials")
            exp, c = next(iter(self.terms.items()))
            if abs(c) != 1:
                raise AlexkitError("negative powers only for unit monomials")
            base = LaurentPoly(self.nvars, {tuple(-e for e in exp): c})
            return base ** (-k)
        return _power(self, k, operator.mul)

    def _coerce(self, other) -> "LaurentPoly":
        if isinstance(other, LaurentPoly):
            if other.nvars != self.nvars:
                raise AlexkitError("variable count mismatch")
            return other
        return LaurentPoly.constant(self.nvars, other)

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self):
        return f"LaurentPoly({self.render()})"

    # -- rendering ---------------------------------------------------------

    def render(self, names: Optional[Sequence[str]] = None) -> str:
        """Canonical string: terms in descending lex order, explicit '*'.
        ComputationCapError when a coefficient has more than MAX_DIGITS
        digits, which Python refuses to print."""
        if not self.terms:
            return "0"
        if names is None:
            names = default_names(self.nvars)
        parts = []
        for exp in sorted(self.terms, reverse=True):
            c = self.terms[exp]
            factors = []
            for name, e in zip(names, exp):
                if e == 1:
                    factors.append(name)
                elif e != 0:
                    factors.append(f"{name}^{e}")
            mag = abs(c)
            check_printable(mag)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = str(mag) + "*" + "*".join(factors)
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)


def _power(f: LaurentPoly, k: int, mul) -> LaurentPoly:
    """f^k for k ≥ 0 by repeated squaring, each product taken by mul."""
    out = LaurentPoly.one(f.nvars)
    while k:
        if k & 1:
            out = mul(out, f)
        k >>= 1
        if k:
            f = mul(f, f)
    return out


def default_names(n: int) -> list:
    return [f"t{i + 1}" for i in range(n)] if n != 1 else ["t"]


# -- the sympy bridge -------------------------------------------------------


@lru_cache(maxsize=None)
def _ring(nvars: int):
    """sympy's sparse ring Z[t_1..t_n], lex order; built on first use, for
    n within RING_VARIABLES_CAP."""
    check("variables of a sympy ring", nvars, RING_VARIABLES_CAP)
    from sympy.polys.orderings import lex
    from sympy.polys.rings import PolyRing

    return PolyRing(f"_t0:{nvars}", "ZZ", lex)


def _to_ring(f: LaurentPoly):
    """f, which has no negative exponent (as `normalize` returns it), as an
    element of _ring(f.nvars)."""
    return _ring(f.nvars).from_dict(f.terms)


def _from_ring(p, nvars: int) -> LaurentPoly:
    """p in _ring(nvars) as a LaurentPoly; the inverse of _to_ring."""
    return LaurentPoly(nvars, {monom: int(c) for monom, c in p.items()})


# -- dense polynomials in one variable --------------------------------------
#
# A polynomial in Z[u] is the tuple of its integer coefficients in ascending
# degree, with a nonzero last entry: () is 0 and the degree is the length
# minus one.  `_phi_coeffs` holds Φ_N this way.


def _to_dense(f: LaurentPoly) -> Tuple[int, ...]:
    """The coefficients of a nonzero univariate f with no negative exponent,
    as `normalize` returns it; AlexkitError on any other f, and a cap error
    for a degree past DEGREE_CAP."""
    terms = f.terms
    if not terms or min(e for (e,) in terms) < 0:
        raise AlexkitError("expected a nonzero polynomial in Z[u]")
    top = max(e for (e,) in terms)
    check("dense degree", top, DEGREE_CAP)
    return tuple(terms.get((k,), 0) for k in range(top + 1))


def _from_dense(q: Sequence[int], e: Sequence[int]) -> LaurentPoly:
    """q(t^e) over the monomial t^(deg q · min(e, 0)): the coefficient of
    u^k goes to the exponent k·e − deg q · min(e, 0).  That is canonical
    when q(0) ≠ 0, q's leading coefficient is positive and so is e's
    first nonzero entry."""
    low = [(len(q) - 1) * min(x, 0) for x in e]
    return LaurentPoly(len(e), {tuple(k * x - y for x, y in zip(e, low)): c
                                for k, c in enumerate(q) if c})


def _dup_mul(x: Sequence, y: Sequence) -> list:
    """The product of two nonempty coefficient lists as polynomials."""
    out = [0] * (len(x) + len(y) - 1)
    for i, a in enumerate(x):
        if a:
            for j, b in enumerate(y):
                if b:
                    out[i + j] += a * b
    return out


def _dup_strip(f: list) -> tuple:
    """f without its trailing zeros."""
    while f and not f[-1]:
        f.pop()
    return tuple(f)


def _times_binomial(s: list, n: int, k: int) -> None:
    """s ← s·(1 − u^n)^k mod u^len(s), in place: k differences of stride
    n, or −k running sums of stride n when k < 0, taken along the n
    residue classes or along blocks of n, whichever are fewer."""
    for _ in range(abs(k)):
        if k > 0:
            s[n:] = map(operator.sub, s[n:], s)
        elif n * n < len(s):
            for r in range(n):
                s[r::n] = itertools.accumulate(s[r::n])
        else:
            for i in range(n, len(s), n):
                s[i:i + n] = map(operator.add, s[i:i + n], s[i - n:i])


def _dup_primitive(f: Sequence[int]) -> Tuple[int, ...]:
    """f ≠ 0 over its content, with a positive leading coefficient."""
    c = math.gcd(*f)
    return tuple(x // c for x in f) if f[-1] > 0 else \
        tuple(-x // c for x in f)


def _dup_exquo(f: Sequence[int], g: Sequence[int]) -> Optional[tuple]:
    """q with f = q·g in Z[u], or None when g ≠ 0 does not divide f there.

    Long division from the top: each quotient coefficient is the top
    coefficient of the remainder over that of g, which must be an integer
    when q exists.
    """
    r = list(f)
    top, dg = g[-1], len(g) - 1
    q = [0] * max(len(f) - dg, 0)
    for k in range(len(q) - 1, -1, -1):
        c, rem = divmod(r[k + dg], top)
        if rem:
            return None
        if c:
            q[k] = c
            r[k:k + dg] = [a - c * b for a, b in zip(r[k:k + dg], g)]
    return None if any(r[:dg]) else tuple(q)


def _dup_eval(f: Sequence[int], x: int) -> int:
    """f(x), by Horner's rule."""
    v = 0
    for c in reversed(f):
        v = v * x + c
    return v


def _dup_heu_gcd(f: Tuple[int, ...], g: Tuple[int, ...]
                 ) -> Optional[Tuple[int, ...]]:
    """GCDHEU (Char, Geddes & Gonnet, J. Symb. Comp. 1989) for primitive
    nonconstant f and g with positive leading coefficients: their gcd, or
    None when six evaluation points all miss.

    For ξ ≥ 2·min(|f|∞, |g|∞) + 2, f(ξ) and g(ξ) are nonzero, and the
    gcd is the primitive part h of the integer gcd(f(ξ), g(ξ)) read back
    in symmetric base-ξ digits, as soon as h divides both f and g.
    """
    xi = 2 * min(max(map(abs, f)), max(map(abs, g))) + 29
    for _ in range(6):
        n, digits = math.gcd(_dup_eval(f, xi), _dup_eval(g, xi)), []
        while n:
            d = n % xi
            if d > xi // 2:
                d -= xi
            digits.append(d)
            n = (n - d) // xi
        h = _dup_primitive(digits)
        if _dup_exquo(f, h) is not None and _dup_exquo(g, h) is not None:
            return h
        xi = xi * 73794 * math.isqrt(math.isqrt(xi)) // 27011
    return None


def _dup_prs_gcd(f: Tuple[int, ...], g: Tuple[int, ...]) -> Tuple[int, ...]:
    """The gcd of primitive nonconstant f and g, with a positive leading
    coefficient, by the primitive Euclidean remainder sequence: each
    remainder is that of a multiple of the dividend, made primitive."""
    if len(f) < len(g):
        f, g = g, f
    while len(g) > 1:
        r = list(f)
        while len(r) >= len(g):
            c, shift = r[-1], len(r) - len(g)
            r = [g[-1] * a for a in r]
            r[shift:] = [a - c * b for a, b in zip(r[shift:], g)]
            _dup_strip(r)
        if not r:
            return g
        f, g = g, _dup_primitive(r)
    return (1,)


def _dup_gcd(f: Sequence[int], g: Sequence[int]) -> Tuple[int, ...]:
    """gcd(f, g) in Z[u], not both 0, with a positive leading coefficient
    and the gcd of the contents as its content."""
    if not f or not g:
        h = tuple(f or g)
        return tuple(-c for c in h) if h[-1] < 0 else h
    c = math.gcd(math.gcd(*f), math.gcd(*g))
    if len(f) == 1 or len(g) == 1:
        return (c,)
    f, g = _dup_primitive(f), _dup_primitive(g)
    h = _dup_heu_gcd(f, g) or _dup_prs_gcd(f, g)
    return tuple(c * x for x in h)


# -- integers and F_p -------------------------------------------------------


def _factorize(n: int) -> dict:
    """{prime: exponent} of n ≥ 1, by trial division."""
    out, q = {}, 2
    while q * q <= n:
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
        q += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _divisors(n: int) -> list:
    """The divisors of n ≥ 1, ascending."""
    out = [1]
    for q, k in _factorize(n).items():
        out += [d * q ** j for d in out for j in range(1, k + 1)]
    return sorted(out)


# the first 13 primes: as Miller–Rabin bases they decide primality exactly
# below 3.3·10^24 (Sorenson & Webster, Math. Comp. 86, 2017)
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _isprime(n: int) -> bool:
    """Whether n is prime, by Miller–Rabin with `_WITNESSES` as bases:
    exact for n < 3.3·10^24, which covers every n alexkit asks about."""
    if n < 2:
        return False
    for q in _WITNESSES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _nextprime(n: int) -> int:
    """The least prime greater than n."""
    n += 1
    while not _isprime(n):
        n += 1
    return n


# -- cyclotomic polynomials -------------------------------------------------


@lru_cache(maxsize=None)
def _phi_coeffs(n: int) -> Tuple[int, ...]:
    """The integer coefficients of the cyclotomic polynomial Φ_n, n ≥ 1,
    in ascending degree.

    For the radical r > 1 of n, Φ_r = Π_{d | r} (1 − u^d)^μ(r/d), a
    polynomial of degree φ(r), so `_times_binomial` builds it mod
    u^(φ(r)+1).  Then Φ_n(u) = Φ_r(u^(n/r)).
    """
    if n == 1:
        return (-1, 1)
    primes = list(_factorize(n))
    r = math.prod(primes)
    f = [1] + [0] * math.prod(p - 1 for p in primes)
    for j in range(len(primes) + 1):
        for chosen in itertools.combinations(primes, j):
            _times_binomial(f, r // math.prod(chosen), (-1) ** j)
    out = [0] * ((len(f) - 1) * (n // r) + 1)
    out[::n // r] = f
    return tuple(out)


def _order_bound(n: int) -> int:
    """An M ≥ every m with φ(m) ≤ n, n ≥ 0: ⌊n·Π p/(p − 1)⌋ over the
    first K primes p, K the largest with φ(p_1⋯p_K) ≤ n, since such an m
    has at most K prime factors q and m/φ(m) = Π q/(q − 1)."""
    num = den = q = 1
    while den * ((q := _nextprime(q)) - 1) <= n:
        num, den = num * q, den * (q - 1)
    return n * num // den


def _cyclotomic_exponents(p: Tuple[int, ...]) -> Optional[list]:
    """[(d, a_d)], d ascending, with p = Π Φ_d^(a_d), for a primitive p in
    Z[u] with a positive leading coefficient; None when p is no product
    of cyclotomic polynomials (Bradford & Davenport, ISSAC 1988).

    A product is ±Π (1 − u^n)^(b_n), a_d = Σ_{d | n} b_n, palindromic up
    to sign, and |b_n| ≤ deg p for n ≤ M = `_order_bound(deg p)`, b_n = 0
    beyond.  b_n = −[u^n]s is read off s = p/p(0), and s divided by
    (1 − u^n)^(b_n), for n = 1..M; s is held mod u^(L+1), L doubling up
    to M, so that a p whose b_n soon exceed deg p is refused cheaply.
    With Σ n·b_n = deg p and every a_d ≥ 0, Π Φ_d^(a_d) has degree
    deg p ≤ M and agrees with ±p mod u^(M+1), so it is ±p.
    """
    if p[0] not in (1, -1) or p[::-1] not in (p, tuple(-c for c in p)):
        return None
    deg, b, size = len(p) - 1, {}, 0
    top = _order_bound(deg)
    while size < top:
        start, size = size + 1, min(2 * size + 32, top)
        s = [c * p[0] for c in p[:size + 1]] + [0] * (size + 1 - len(p))
        for m, k in b.items():
            _times_binomial(s, m, -k)
        for n in range(start, size + 1):
            if s[n]:
                if abs(s[n]) > deg:
                    return None
                b[n] = -s[n]
                _times_binomial(s, n, s[n])
    a: dict = {}
    for m, k in b.items():
        for d in _divisors(m):
            a[d] = a.get(d, 0) + k
    if sum(m * k for m, k in b.items()) != deg or any(k < 0 for k in
                                                       a.values()):
        return None
    return sorted((d, k) for d, k in a.items() if k)


# -- canonical form ---------------------------------------------------------


def normalize(f: LaurentPoly) -> LaurentPoly:
    """Canonical representative of f up to units ±(monomial).

    Every variable's minimum exponent over the support becomes 0 (integer
    content is preserved), and the coefficient of the lexicographically
    greatest exponent vector is positive.  An f already in this form is
    returned itself.
    """
    if f.is_zero():
        raise AlexkitError("cannot normalize the zero polynomial")
    mins = [min(col) for col in zip(*f.terms)]
    sign = -1 if f.terms[max(f.terms)] < 0 else 1
    if sign == 1 and not any(mins):
        return f
    return LaurentPoly(f.nvars, {tuple(map(operator.sub, exp, mins)): sign * c
                                 for exp, c in f.terms.items()})


def associates(f: LaurentPoly, g: LaurentPoly) -> bool:
    """f ≐ g: equal up to a unit ±(monomial)."""
    if f.is_zero() or g.is_zero():
        return f.is_zero() and g.is_zero()
    return normalize(f) == normalize(g)


# -- divisibility and gcd ---------------------------------------------------


def exact_div_binomial(f: LaurentPoly,
                       v: Sequence[int]) -> Optional[LaurentPoly]:
    """f / (t^v − 1) when t^v − 1 divides f; None otherwise.  v ≠ 0.

    The terms of f fall into lines e + Z·v (`_fibers`).  Along one line
    the quotient's coefficient at e + k·v is minus the running sum of f's
    coefficients up to e + k·v, and the division is exact iff every line
    sums to 0.
    """
    v = tuple(v)
    if len(v) != f.nvars:
        raise AlexkitError("exponent vector has wrong length")
    if not any(v):
        raise AlexkitError("division by zero polynomial")
    fibers = _fibers(f.terms, v)
    if any(map(sum, fibers.values())):
        return None
    return LaurentPoly(f.nvars, _unfibers(
        {key: [-x for x in itertools.accumulate(s[:-1])]
         for key, s in fibers.items()}, v))


def divides(f: LaurentPoly, g: LaurentPoly) -> bool:
    """True iff g = f·q for some Laurent polynomial q over Q: iff f and
    gcd(f, g) have the same primitive part (Gauss's lemma)."""
    if f.is_zero():
        raise AlexkitError("zero divisor")
    f, h = normalize(f), gcd_many([f, g])
    cf, ch = math.gcd(*f.terms.values()), math.gcd(*h.terms.values())
    return f.terms.keys() == h.terms.keys() and all(
        c * ch == h.terms[e] * cf for e, c in f.terms.items())


def gcd_many(fs: Iterable[LaurentPoly]) -> LaurentPoly:
    """Canonical gcd over Z[t^±] (integer content participates)."""
    fs = list(fs)
    if not fs:
        raise AlexkitError("gcd of empty list")
    nvars = fs[0].nvars
    nonzero = [f for f in fs if not f.is_zero()]
    if not nonzero:
        return LaurentPoly.zero(nvars)
    if len(nonzero) == 1:
        return normalize(nonzero[0])
    if nvars == 0:
        c = math.gcd(*(normalize(f).terms[()] for f in nonzero))
        return LaurentPoly.constant(0, c)
    if nvars == 1:
        acc = None
        for f in nonzero:
            p = _to_dense(normalize(f))
            acc = p if acc is None else _dup_gcd(acc, p)
            if acc == (1,):
                break
        return normalize(_from_dense(acc, (1,)))
    acc = None
    for f in nonzero:
        p = _to_ring(normalize(f))
        acc = p if acc is None else acc.gcd(p)
        if acc == 1:
            break
    return normalize(_from_ring(acc, nvars))


# -- expression parsing -----------------------------------------------------

_TOKEN = re.compile(r"\s*(\d+|[A-Za-z][A-Za-z0-9_]*|\^|\+|\-|\*|\(|\))")


def _shape(f: LaurentPoly) -> tuple:
    """(terms, the span of each variable's exponents, ⌈log2 ‖f‖₁⌉) of a
    nonzero f, which bound the size of a power or product of it."""
    return (len(f.terms), [max(c) - min(c) for c in zip(*f.terms)],
            (sum(map(abs, f.terms.values())) - 1).bit_length())


def parse_poly(text: str, names: Sequence[str]) -> LaurentPoly:
    """Parse the expression grammar: ints, variables, + - * ^, parentheses.
    A power whose result would hold a coefficient of more than MAX_DIGITS
    digits is a cap error, found before it is expanded, and so is a power
    or product whose result is past EXPANSION_CAP.  One meter bounds the
    whole expression: each product and squaring is charged its
    `product_work` before it is done."""
    if has_long_number(text):
        raise AlexkitError(f"a number has more than {MAX_DIGITS} digits")
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise AlexkitError(f"bad token at position {pos}: {text[pos:]!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()
    index = {name: i for i, name in enumerate(names)}
    n = len(names)
    state = {"i": 0}
    meter = ProductMeter()

    def mul(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
        meter.charge(len(a.terms), len(b.terms),
                     max(map(abs, a.terms.values()), default=0),
                     max(map(abs, b.terms.values()), default=0))
        return a * b

    def peek():
        return tokens[state["i"]] if state["i"] < len(tokens) else None

    def take():
        t = peek()
        state["i"] += 1
        return t

    def parse_int() -> int:
        sign = 1
        while peek() == "-":
            take()
            sign = -sign
        t = take()
        if t is None or not t.isdigit():
            raise AlexkitError("expected integer exponent")
        return sign * int(t)

    def atom() -> LaurentPoly:
        t = take()
        if t == "(":
            e = expr()
            if take() != ")":
                raise AlexkitError("missing closing parenthesis")
            base = e
        elif t == "-":
            return -atom()
        elif t is None:
            raise AlexkitError("unexpected end of expression")
        elif t.isdigit():
            base = LaurentPoly.constant(n, int(t))
        elif t in index:
            base = LaurentPoly.var(n, index[t])
        else:
            raise AlexkitError(f"unknown variable {t!r}")
        if peek() == "^":
            take()
            k = parse_int()
            if k < 0 and not base.is_monomial():
                raise AlexkitError("negative exponent on a non-monomial")
            if base.terms:
                # the lex-leading term of a product is the product of the
                # lex-leading terms, so |a|^k, a the leading coefficient,
                # is a coefficient of base^k, and |a|^k ≥ 2^(k·(bits − 1))
                a = base.terms[max(base.terms)]
                check("bits of a power's leading coefficient",
                      k * (abs(a).bit_length() - 1), COEFFICIENT_BITS_CAP)
            if base.terms and k > 0:
                # f^k has at most ∏(k·span + 1) terms, and no more than
                # there are monomials of degree k in f's terms; each
                # coefficient is at most ‖f‖₁^k.  The bits alone, ≥ k when
                # f has two terms, refuse a large k before the counts
                terms, spans, log = _shape(base)
                size = k * log + 1
                if size <= EXPANSION_CAP:
                    size *= min(math.prod(k * s + 1 for s in spans),
                                math.comb(terms + k - 1, k))
                check("terms × coefficient bits of a power", size,
                      EXPANSION_CAP)
            # k < 0 only for a monomial, whose powers need no count
            base = base ** k if k < 0 else _power(base, k, mul)
        return base

    def term() -> LaurentPoly:
        out = atom()
        while peek() == "*":
            take()
            rhs = atom()
            if out.terms and rhs.terms:
                (t1, s1, l1), (t2, s2, l2) = _shape(out), _shape(rhs)
                check("terms × coefficient bits of a product",
                      (l1 + l2 + 1) * min(t1 * t2, math.prod(
                          x + y + 1 for x, y in zip(s1, s2))), EXPANSION_CAP)
            out = mul(out, rhs)
        return out

    def expr() -> LaurentPoly:
        if peek() == "-":
            take()
            out = -term()
        else:
            out = term()
        while peek() in ("+", "-"):
            op = take()
            rhs = term()
            out = out + rhs if op == "+" else out - rhs
        return out

    try:
        result = expr()
    except RecursionError as exc:
        raise AlexkitError("expression nested too deeply") from exc
    if peek() is not None:
        raise AlexkitError(f"trailing tokens: {tokens[state['i']:]}")
    return result


# -- factorization ----------------------------------------------------------


class FactoredPoly(NamedTuple):
    """A factorization c · Π f_j^{μ_j} ≐ the original polynomial.

    The factors f_j are irreducible, canonical and pairwise non-associate;
    `factors` holds the pairs (f_j, μ_j).  `essential[j]` classifies f_j:
    for f_j ≐ P(t^e) in one essential variable it is (e, P, m), e primitive
    with its first nonzero entry positive, P the dense primitive Z[u] tuple
    with a positive leading coefficient, and m the order with P = Φ_m or
    None; for a factor in more than one essential variable it is None.
    """

    constant: int
    factors: Tuple[Tuple[LaurentPoly, int], ...]
    essential: Tuple[Optional[tuple], ...]

    def reassembled(self, nvars: int) -> LaurentPoly:
        acc = LaurentPoly.constant(nvars, self.constant)
        for f, mu in self.factors:
            acc = acc * f ** mu
        return acc


def _cyclotomic_part(r: Tuple[int, ...]) -> Tuple[int, ...]:
    """The product of every Φ_m dividing r in Z[u], r(0) ≠ 0, each with
    its full multiplicity, with a positive leading coefficient: (1,) when
    no Φ_m divides r.

    A primitive m-th root of unity ζ is conjugate to ζ^2 when m is odd and
    to −ζ^2 when m ≡ 2 mod 4, and Φ_m(u) = Φ_{m/2}(u^2) when 4 | m
    (Beukers & Smyth).  So the product is taken over three divisors of r,
    each of what the ones before leave of r: the largest h with
    h | h(u^2), since squaring halves an even order; the largest h with
    h | h(−u^2), since α ↦ −α^2 takes an order divisible by 4 down to an
    odd one; and Φ(u^2) for the cyclotomic part Φ(w) of the even part
    gcd(r(u), r(−u)) = E(u^2).  A divisor D of h with D | D(±u^2) divides
    gcd(h, h(±u^2)), so the closure h ← gcd(h, h(±u^2)), whose gcds each
    lower the degree, ends at the largest such h; it has only roots of
    unity, since for each root α all of ±α^(2^k) are among its finitely
    many roots.  No step depends on how many Φ_m there are.

    Nor on r being squarefree, by valuations: Φ_m^a divides Φ_m(u^2)^a for
    m odd and Φ_m(−u^2)^a for m ≡ 2 mod 4, so the first two divisors hold
    every such Φ_m^a dividing r, and Φ_m(−u) = Φ_m(u) for 4 | m, so the
    even part holds what they leave of every other Φ_m^a.  One Φ_m can
    fall into two of the divisors: in (u − 1)(u + 1)^3, Φ_2 goes once
    into the first and twice into the second, and the product holds Φ_2^3.
    """
    def substitute(g, sign, power):
        """g(sign · u^power)"""
        out = [0] * (power * (len(g) - 1) + 1)
        out[::power] = [-c if sign < 0 and k % 2 else c
                        for k, c in enumerate(g)]
        return out

    part = (1,)
    for sign in (1, -1):
        h = r
        while len(g := _dup_gcd(h, substitute(h, sign, 2))) < len(h):
            h = g
        part, r = _dup_mul(part, h), _dup_exquo(r, h)
    even = _dup_gcd(r, substitute(r, -1, 1))
    if len(even) > 1:
        part = _dup_mul(part, substitute(_cyclotomic_part(even[::2]), 1, 2))
    return tuple(part)


def _directions(base: tuple, points: Sequence[tuple]) -> list:
    """The primitive directions prim(v − base), first nonzero entry
    positive, for the points v ≠ base, each once, in order of first
    appearance: one direction iff base and the points are collinear."""
    out: dict = {}
    for v in points:
        d = [a - b for a, b in zip(v, base)]
        g = math.gcd(*d)
        if g:
            if next(x for x in d if x) < 0:
                g = -g
            out.setdefault(tuple(x // g for x in d), None)
    return list(out)


def _fibers(terms: dict, e: tuple) -> dict:
    """The lines of the terms {v: c_v} along e ≠ 0, as {(base, low):
    [c_low, ..., c_high]} with c_k the coefficient at base + k·e: base is
    the line's point with 0 ≤ base_i/e_i < 1 for the first i with
    e_i ≠ 0, c_low and c_high are nonzero, and high − low is at most
    DEGREE_CAP (a cap error otherwise).  `_unfibers` inverts it."""
    i = next(j for j, x in enumerate(e) if x)
    lines: dict = {}
    for v, c in terms.items():
        k = v[i] // e[i]
        lines.setdefault(tuple([x - k * y for x, y in zip(v, e)]), {})[k] = c
    out = {}
    for base, line in lines.items():
        low, high = min(line), max(line)
        check("dense degree", high - low, DEGREE_CAP)
        out[base, low] = [line.get(k, 0) for k in range(low, high + 1)]
    return out


def _unfibers(fibers: dict, e: tuple) -> dict:
    """The terms {v: c} with c ≠ 0 that the lines `fibers` along e hold."""
    return {tuple([x + k * y for x, y in zip(base, e)]): c
            for (base, low), line in fibers.items()
            for k, c in enumerate(line, low) if c}


def _split_directions(terms: dict) -> tuple:
    """([(P, e)], rest) with Σ c_v t^v ≐ rest · Π P(t^e), for the terms
    {v: c_v} of a primitive non-monomial: e runs over primitive directions,
    P(u) over primitive nonconstant polynomials in Z[u] with P(0) ≠ 0, each
    the largest with P(t^e) dividing, and rest, a dict of terms, has no
    factor in one essential variable.

    Write f = Σ_ℓ t^ℓ·c_ℓ(t^e), ℓ over the cosets of Z·e (`_fibers`):
    P(t^e) divides f iff P divides every fiber c_ℓ, so the largest such P
    is gcd_ℓ c_ℓ.  A non-monomial P times anything has two terms or more,
    so then each fiber has, and the fiber through any v₀ ∈ supp f makes
    e = prim(v − v₀) for some other v ∈ supp f (`_directions`): the
    directions from the first point are kept only where they are
    directions from the least and the greatest point too.  A divisor of
    rest divides f, so each such e is tried once.  A collinear f is the
    case P ≐ f.
    """
    points = list(terms)
    directions = _directions(points[0], points)
    for corner in (min(points), max(points)):
        if len(directions) > 1:
            found = set(_directions(corner, points))
            directions = [e for e in directions if e in found]
    contents = []
    for e in directions:
        fibers = _fibers(terms, e)
        if any(len(s) < 2 for s in fibers.values()):
            continue
        p = reduce(_dup_gcd, fibers.values())
        if len(p) == 1:
            continue
        p = _dup_primitive(p)
        terms = _unfibers({key: _dup_exquo(s, p)
                           for key, s in fibers.items()}, e)
        contents.append((p, e))
    return contents, terms


# the values `_coprime` sends the variables to, repeated for more variables
_COPRIME_POINT = (3, -5, 7, 11, -13, 17, -19, 23)


def _coprime(a: dict, b: dict) -> bool:
    """True only if gcd(a, b) is constant, for a, b ≠ 0 given by their
    terms {v: c} with no negative exponent; False when this is not shown.

    For each variable t_j of a, the others go to the point p of
    `_COPRIME_POINT`, a's leading coefficient in t_j must not vanish
    there, and the gcd of the two images in Z[t_j] must be constant.  A
    common factor g of degree d ≥ 1 in t_j would survive: its leading
    coefficient in t_j divides a's, so g(p) has degree d and divides both
    images.  A nonconstant common factor has degree d ≥ 1 in some
    variable of a.  Every exponent of the terms, not only those of t_j,
    must be within DEGREE_CAP before any power of the point is taken.
    """
    def image(terms, j, point):
        check("dense degree", max(map(max, terms)), DEGREE_CAP)
        out = [0] * (max(v[j] for v in terms) + 1)
        for v, c in terms.items():
            out[v[j]] += c * math.prod(map(pow, point, v))
        return _dup_strip(out)

    n = len(next(iter(a)))
    base = [_COPRIME_POINT[k % len(_COPRIME_POINT)] for k in range(n)]
    for j in range(n):
        top = max(v[j] for v in a)
        if top:
            point = base[:j] + [1] + base[j + 1:]
            image_a = image(a, j, point)
            if len(image_a) <= top or len(
                    _dup_gcd(image_a, image(b, j, point))) > 1:
                return False
    return True


def _reassembles(out: FactoredPoly, g: LaurentPoly) -> bool:
    """Whether c · Π f^μ = g, for the canonical nonconstant g that `out`
    factors.  The product's degrees Σ μ·deg_i f must be g's; then
    t_i ↦ u^(w_i), w_i = Π_{j<i} (deg_j g + 1), is one to one on the box
    that holds both (Kronecker), and the images agree at u = 2^(8k), read
    from bytes, iff they are equal, as 2^(8k−1) bounds the coefficients
    of both, the product's by c·Π ‖f‖₁^μ.  Where g fills less than a
    quarter of its box, the term dicts are multiplied instead."""
    tops = [max(col) for col in zip(*g.terms)]
    w = list(itertools.accumulate((t + 1 for t in tops), operator.mul,
                                  initial=1))
    if w.pop() > 4 * len(g.terms):
        return associates(out.reassembled(g.nvars), g)
    k = max(out.constant.bit_length() + sum(
        mult * sum(map(abs, f.terms.values())).bit_length()
        for f, mult in out.factors),
        max(map(abs, g.terms.values())).bit_length()) // 8 + 1

    def image(f):
        dense = [0] * (sum(map(operator.mul, w, map(max, zip(*f.terms)))) + 1)
        for v, x in f.terms.items():
            dense[sum(map(operator.mul, w, v))] = x
        return int.from_bytes(b"".join(max(x, 0).to_bytes(k, "little")
                                       for x in dense), "little") - \
            int.from_bytes(b"".join(max(-x, 0).to_bytes(k, "little")
                                    for x in dense), "little")

    return tops == [sum(mult * max(v[i] for v in f.terms)
                        for f, mult in out.factors)
                    for i in range(g.nvars)] and image(g) == math.prod(
        (image(f) ** mult for f, mult in out.factors), start=out.constant)


def factor_poly(f: LaurentPoly) -> FactoredPoly:
    """Factor into irreducible pieces over Q, with integer content split off.

    First every factor P(t^e) in one essential variable is split off by
    univariate gcds (`_split_directions`), and each P is factored in Z[u]:
    a product of Φ_m is read off its exponent sequence
    (`_cyclotomic_exponents`); any other P is divided by its cyclotomic
    part (`_cyclotomic_part`), whose orders and multiplicities that one
    recognizer reads off, and only a nonconstant rest goes to sympy's
    `factor_list`, which does its own squarefree split.  A factor q(u) of
    P lifts to the factor q(t^e) of f, irreducible because e extends to a
    basis of Z^n.

    A residual piece h of degree one in some t_i is A·t_i + B, with A and
    B free of t_i: with c = gcd(A, B) = A/A' = B/B', A'·t_i + B' is
    primitive of degree one in t_i, so irreducible, and c is the next
    piece.  `_coprime` shows c = 1 by one-variable gcds; sympy's
    `cofactors` gives c, A' and B' in one call only when it cannot.  Any
    other piece goes to sympy's multivariate `factor_list`.  Each factor
    is classified here, as it is built: `essential` records (e, P, m) for
    q(t^e) and None for a factor of the residual, which has no factor in
    one essential variable.
    """
    def factored(p):
        """The irreducible factors of p in Z[t], canonical, and their
        multiplicities; p's box must be within FACTOR_BOX_CAP."""
        check("box ∏(deg_i + 1) of a piece to factor", math.prod(
            max(c) - min(c) + 1 for c in zip(*p.terms)), FACTOR_BOX_CAP)
        return [(normalize(_from_ring(r, p.nvars)), k)
                for r, k in _to_ring(p).factor_list()[1]]

    if f.is_zero():
        raise AlexkitError("cannot factor the zero polynomial")
    g = normalize(f)
    c = math.gcd(*g.terms.values())
    if g.is_constant():
        return FactoredPoly(c, (), ())
    contents, rest = _split_directions(
        {v: x // c for v, x in g.terms.items()})
    parts = []  # (factor, multiplicity, record)
    for p, e in contents:
        orders, q = _cyclotomic_exponents(p), (1,)
        if orders is None:
            part = _cyclotomic_part(p)
            orders, q = _cyclotomic_exponents(part), _dup_exquo(p, part)
        found = [(_phi_coeffs(m), k, m) for m, k in orders]
        if len(q) > 1:
            found += [(_to_dense(r), k, None)
                      for r, k in factored(_from_dense(q, (1,)))]
        parts += [(_from_dense(r, e), k, (e, r, m)) for r, k, m in found]
    piece = normalize(LaurentPoly(g.nvars, rest))
    while not piece.is_constant():
        tops = [max(col) for col in zip(*piece.terms)]
        if 1 not in tops:
            parts += [(r, k, None) for r, k in factored(piece)]
            break
        i = tops.index(1)
        a = {v[:i] + (0,) + v[i + 1:]: x
             for v, x in piece.terms.items() if v[i]}
        b = {v: x for v, x in piece.terms.items() if not v[i]}
        if _coprime(a, b):
            parts.append((piece, 1, None))
            break
        ring = _ring(g.nvars)
        common, a, b = ring.from_dict(a).cofactors(ring.from_dict(b))
        parts.append((normalize(_from_ring(a * ring.gens[i] + b, g.nvars)),
                      1, None))
        piece = normalize(_from_ring(common, g.nvars))
    parts.sort(key=lambda t: (sorted(t[0].terms), sorted(t[0].terms.items())))
    out = FactoredPoly(c, tuple((f, mult) for f, mult, _ in parts),
                       tuple(record for _, _, record in parts))
    if not _reassembles(out, g):
        raise AlexkitError("factorization failed to reassemble (internal bug)")
    return out
