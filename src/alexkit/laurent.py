"""Exact multivariate Laurent polynomials over the rationals.

The ring is Z[t_1^{±1}, ..., t_n^{±1}] (rational coefficients are tolerated
in intermediate arithmetic; canonical forms clear denominators).  Units are
±(monomial); two polynomials are *associate* if they differ by a unit, and
associate over C if they additionally differ by a rational scalar.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional, Sequence, Tuple

import sympy

TOTAL_DEGREE_CAP = 64


class LaurentError(ValueError):
    pass


class ComputationCapError(RuntimeError):
    """A configured desk-scale cap was exceeded."""


@lru_cache(maxsize=64)
def _symbols(n: int):
    return sympy.symbols(f"_t0:{n}", positive=True) if n else ()


class LaurentPoly:
    """A Laurent polynomial as a map {exponent vector: nonzero coefficient}."""

    __slots__ = ("nvars", "terms", "_hash")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        clean = {}
        for exp, c in (terms or {}).items():
            c = Fraction(c)
            if c == 0:
                continue
            exp = tuple(int(e) for e in exp)
            if len(exp) != nvars:
                raise LaurentError(f"exponent vector {exp} has wrong length")
            clean[exp] = clean.get(exp, Fraction(0)) + c
        self.terms = {e: c for e, c in clean.items() if c != 0}
        self._hash = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "LaurentPoly":
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars: int, c) -> "LaurentPoly":
        return cls(nvars, {(0,) * nvars: Fraction(c)})

    @classmethod
    def one(cls, nvars: int) -> "LaurentPoly":
        return cls.constant(nvars, 1)

    @classmethod
    def var(cls, nvars: int, i: int, power: int = 1) -> "LaurentPoly":
        exp = [0] * nvars
        exp[i] = power
        return cls(nvars, {tuple(exp): Fraction(1)})

    @classmethod
    def monomial(cls, exp: Sequence[int], coeff=1) -> "LaurentPoly":
        return cls(len(exp), {tuple(exp): Fraction(coeff)})

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
            out[exp] = out.get(exp, Fraction(0)) + c
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
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return LaurentPoly(self.nvars, out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, k: int):
        if k < 0:
            if not self.is_monomial():
                raise LaurentError("negative powers only for monomials")
            exp, c = next(iter(self.terms.items()))
            if abs(c) != 1:
                raise LaurentError("negative powers only for unit monomials")
            base = LaurentPoly(self.nvars, {tuple(-e for e in exp): c})
            return base ** (-k)
        out = LaurentPoly.one(self.nvars)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def _coerce(self, other) -> "LaurentPoly":
        if isinstance(other, LaurentPoly):
            if other.nvars != self.nvars:
                raise LaurentError("variable count mismatch")
            return other
        return LaurentPoly.constant(self.nvars, other)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.constant(self.nvars, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.nvars, frozenset(self.terms.items())))
        return self._hash

    def __repr__(self):
        return f"LaurentPoly({self.render()})"

    # -- sympy bridge ------------------------------------------------------

    def _shifted(self):
        """Clear negative exponents; returns (shift vector, shifted poly)."""
        if not self.terms:
            return (0,) * self.nvars, self
        mins = [min(exp[i] for exp in self.terms) for i in range(self.nvars)]
        shift = tuple(-min(m, 0) for m in mins)
        if all(s == 0 for s in shift):
            return shift, self
        out = {tuple(e + s for e, s in zip(exp, shift)): c
               for exp, c in self.terms.items()}
        return shift, LaurentPoly(self.nvars, out)

    def to_sympy(self):
        syms = _symbols(self.nvars)
        expr = sympy.Integer(0)
        for exp, c in self.terms.items():
            term = sympy.Rational(c.numerator, c.denominator)
            for s, e in zip(syms, exp):
                if e:
                    term *= s ** e
            expr += term
        return expr

    @classmethod
    def from_sympy(cls, expr, nvars: int) -> "LaurentPoly":
        syms = _symbols(nvars)
        expr = sympy.expand(expr)
        poly = sympy.Poly(expr, *syms, domain="QQ") if nvars else None
        if nvars == 0:
            return cls.constant(0, Fraction(sympy.Rational(expr)))
        out = {}
        for monom, coeff in poly.terms():
            out[tuple(monom)] = Fraction(coeff.p, coeff.q)
        return cls(nvars, out)

    # -- rendering ---------------------------------------------------------

    def render(self, names: Optional[Sequence[str]] = None) -> str:
        """Canonical string: terms in descending lex order, explicit '*'."""
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


def default_names(n: int) -> list:
    return [f"t{i + 1}" for i in range(n)] if n != 1 else ["t"]


# -- canonical form ---------------------------------------------------------


def normalize(f: LaurentPoly) -> LaurentPoly:
    """Canonical representative of f up to units ±(monomial).

    Every variable's minimum exponent over the support becomes 0, coefficient
    denominators are cleared (integer content is preserved), and the
    coefficient of the lexicographically greatest exponent vector is positive.
    """
    if f.is_zero():
        raise LaurentError("cannot normalize the zero polynomial")
    mins = [min(exp[i] for exp in f.terms) for i in range(f.nvars)]
    den = math.lcm(*(c.denominator for c in f.terms.values()))
    out = {tuple(e - m for e, m in zip(exp, mins)): c * den
           for exp, c in f.terms.items()}
    lead = max(out)
    if out[lead] < 0:
        out = {e: -c for e, c in out.items()}
    return LaurentPoly(f.nvars, out)


def content(f: LaurentPoly) -> int:
    """gcd of the integer coefficients of the canonical form."""
    g = normalize(f)
    return math.gcd(*(abs(c.numerator) for c in g.terms.values()))


def primitive_part(f: LaurentPoly) -> LaurentPoly:
    g = normalize(f)
    c = math.gcd(*(abs(x.numerator) for x in g.terms.values()))
    if c == 1:
        return g
    return LaurentPoly(g.nvars, {e: x / c for e, x in g.terms.items()})


def associates(f: LaurentPoly, g: LaurentPoly) -> bool:
    """f ≐ g: equal up to a unit ±(monomial)."""
    if f.is_zero() or g.is_zero():
        return f.is_zero() and g.is_zero()
    return normalize(f) == normalize(g)


def associates_c(f: LaurentPoly, g: LaurentPoly) -> bool:
    """f ≐ g over C: equal up to a scalar times a monomial."""
    if f.is_zero() or g.is_zero():
        return f.is_zero() and g.is_zero()
    return primitive_part(f) == primitive_part(g)


# -- divisibility, gcd, multiplicities --------------------------------------


def exact_div(f: LaurentPoly, g: LaurentPoly) -> Optional[LaurentPoly]:
    """f / g when g divides f (over Q[t^±]); None otherwise."""
    if g.is_zero():
        raise LaurentError("division by zero polynomial")
    if f.is_zero():
        return LaurentPoly.zero(f.nvars)
    n = f.nvars
    if n == 0:
        c = next(iter(f.terms.values())) / next(iter(g.terms.values()))
        return LaurentPoly.constant(0, c)

    # strip the full monomial content so stray t-power factors cannot
    # block the polynomial division
    def strip(p):
        mins = tuple(min(exp[i] for exp in p.terms) for i in range(n))
        body = LaurentPoly(n, {tuple(e - m for e, m in zip(exp, mins)): c
                               for exp, c in p.terms.items()})
        return mins, body

    mins_f, fs = strip(f)
    mins_g, gs = strip(g)
    syms = _symbols(n)
    q, r = sympy.div(fs.to_sympy(), gs.to_sympy(), *syms, domain="QQ")
    if r != 0:
        return None
    quot = LaurentPoly.from_sympy(q, n)
    adjust = tuple(mf - mg for mf, mg in zip(mins_f, mins_g))
    return quot * LaurentPoly.monomial(adjust)


def exact_div_binomial(f: LaurentPoly,
                       v: Sequence[int]) -> Optional[LaurentPoly]:
    """f / (t^v − 1) when t^v − 1 divides f; None otherwise.  v ≠ 0.

    The terms of f fall into lines e + Z·v.  Along one line the quotient's
    coefficient at e + k·v is minus the running sum of f's coefficients
    up to e + k·v, and the division is exact iff every line sums to 0.
    """
    v = tuple(v)
    if len(v) != f.nvars:
        raise LaurentError("exponent vector has wrong length")
    i = next((i for i, x in enumerate(v) if x), None)
    if i is None:
        raise LaurentError("division by zero polynomial")
    lines: dict = {}
    for exp, c in f.terms.items():
        k = exp[i] // v[i]
        base = tuple(e - k * x for e, x in zip(exp, v))
        lines.setdefault(base, {})[k] = c
    out = {}
    for base, coeffs in lines.items():
        ks = sorted(coeffs)
        running = 0
        for k, k_next in zip(ks, ks[1:]):
            running += coeffs[k]
            if running:
                for p in range(k, k_next):
                    out[tuple(b + p * x for b, x in zip(base, v))] = -running
        if running + coeffs[ks[-1]]:
            return None
    return LaurentPoly(f.nvars, out)


def divides(f: LaurentPoly, g: LaurentPoly) -> bool:
    """True iff g = f·q for some Laurent polynomial q (over Q)."""
    if f.is_zero():
        raise LaurentError("zero divisor")
    return exact_div(g, f) is not None


def gcd(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    return gcd_many([f, g])


def gcd_many(fs: Iterable[LaurentPoly]) -> LaurentPoly:
    """Canonical gcd over Z[t^±] (integer content participates)."""
    fs = list(fs)
    if not fs:
        raise LaurentError("gcd of empty list")
    nvars = fs[0].nvars
    nonzero = [f for f in fs if not f.is_zero()]
    if not nonzero:
        return LaurentPoly.zero(nvars)
    if nvars == 0:
        c = math.gcd(*(abs(normalize(f).terms[(
            )].numerator) for f in nonzero))
        return LaurentPoly.constant(0, c)
    syms = _symbols(nvars)
    acc = None
    for f in nonzero:
        expr = normalize(f).to_sympy()
        acc = expr if acc is None else sympy.gcd(acc, expr)
        if acc == 1:
            break
    return normalize(LaurentPoly.from_sympy(acc, nvars))


def multiplicity(f: LaurentPoly, delta: LaurentPoly) -> int:
    """Largest k ≥ 0 with f^k dividing delta."""
    if f.is_zero() or f.is_unit() or normalize(f).is_constant():
        raise LaurentError("multiplicity requires a non-unit, nonzero f")
    if delta.is_zero():
        raise LaurentError("multiplicity undefined for zero polynomial")
    k = 0
    cur = delta
    while True:
        nxt = exact_div(cur, f)
        if nxt is None:
            return k
        cur = nxt
        k += 1


# -- order of vanishing -----------------------------------------------------


def vanishing_order(f: LaurentPoly, point) -> int:
    """ν_ρ(f): minimal total z-degree of f(ρ + z), computed exactly.

    `point` is a tuple of nonzero cyclotomic-field (or rational) values,
    one per variable.
    """
    from .cyclofield import CycloNumber, common_conductor

    if f.is_zero():
        raise LaurentError("vanishing order of the zero polynomial")
    if f.total_degree() > TOTAL_DEGREE_CAP:
        raise ComputationCapError(
            f"total degree {f.total_degree()} exceeds cap {TOTAL_DEGREE_CAP}")
    vals = [v if isinstance(v, CycloNumber) else CycloNumber.from_rational(v)
            for v in point]
    if len(vals) != f.nvars:
        raise LaurentError("point has wrong number of coordinates")
    if any(v.is_zero() for v in vals):
        raise LaurentError("vanishing order needs nonzero coordinates")
    vals = common_conductor(vals)
    one = vals[0].ring_one()
    # clear negative exponents: a unit near rho, does not change the order
    _, fs = f._shifted()
    # expand f(rho + z) term by term; coefficients indexed by z-exponents
    out: dict = {}
    for exp, c in fs.terms.items():
        # product over i of (rho_i + z_i)^{exp_i}
        partial = {(0,) * f.nvars: one.scale(c)}
        for i, e in enumerate(exp):
            if e == 0:
                continue
            powers = [vals[i] ** (e - k) for k in range(e + 1)]
            new: dict = {}
            for zexp, coeff in partial.items():
                for k in range(e + 1):
                    binom = math.comb(e, k)
                    ze = list(zexp)
                    ze[i] += k
                    key = tuple(ze)
                    add = (powers[k] * coeff).scale(binom)
                    new[key] = new[key] + add if key in new else add
            partial = new
        for key, v in partial.items():
            out[key] = out[key] + v if key in out else v
    degrees = [sum(k) for k, v in out.items() if not v.is_zero()]
    if not degrees:
        raise LaurentError("internal error: expansion vanished identically")
    return min(degrees)


# -- Newton polytope and single essential variable --------------------------


def _exact_in_hull(p, points) -> bool:
    """Is p a convex combination of `points`?  Exact rational LP."""
    if not points:
        return False
    dim = len(p)
    # feasibility: lambda >= 0, sum lambda = 1, sum lambda q = p
    # phase-1 simplex on A x = b, x >= 0 with artificial variables
    rows = [[Fraction(q[i]) for q in points] for i in range(dim)]
    rows.append([Fraction(1)] * len(points))
    b = [Fraction(x) for x in p] + [Fraction(1)]
    m, n = len(rows), len(points)
    for i in range(m):
        if b[i] < 0:
            rows[i] = [-x for x in rows[i]]
            b[i] = -b[i]
    # tableau with artificials
    T = [rows[i] + [Fraction(1) if j == i else Fraction(0) for j in range(m)]
         + [b[i]] for i in range(m)]
    cost = [Fraction(0)] * n + [Fraction(1)] * m + [Fraction(0)]
    for i in range(m):
        for j in range(n + m + 1):
            cost[j] -= T[i][j]
    basis = list(range(n, n + m))
    while True:
        pivot_col = next((j for j in range(n + m) if cost[j] < 0), None)
        if pivot_col is None:
            break
        best, pivot_row = None, None
        for i in range(m):
            if T[i][pivot_col] > 0:
                ratio = T[i][-1] / T[i][pivot_col]
                if best is None or ratio < best or (
                        ratio == best and basis[i] < basis[pivot_row]):
                    best, pivot_row = ratio, i
        if pivot_row is None:
            break
        pv = T[pivot_row][pivot_col]
        T[pivot_row] = [x / pv for x in T[pivot_row]]
        for i in range(m):
            if i != pivot_row and T[i][pivot_col] != 0:
                f = T[i][pivot_col]
                T[i] = [a - f * b2 for a, b2 in zip(T[i], T[pivot_row])]
        f = cost[pivot_col]
        cost = [a - f * b2 for a, b2 in zip(cost, T[pivot_row])]
        basis[pivot_row] = pivot_col
    return -cost[-1] == 0


def newton_vertices(f: LaurentPoly) -> list:
    """Vertices of the convex hull of the support of f."""
    if f.is_zero():
        raise LaurentError("Newton polytope of the zero polynomial")
    pts = f.support()
    if len(pts) <= 2:
        return pts
    direction = _collinear_direction(pts)
    if direction is not None:
        key = lambda q: sum(a * b for a, b in zip(q, direction))
        return [min(pts, key=key), max(pts, key=key)]
    return [p for p in pts
            if not _exact_in_hull(p, [q for q in pts if q != p])]


def _collinear_direction(pts) -> Optional[tuple]:
    """Primitive direction if all points are collinear, else None."""
    base = pts[0]
    diffs = [tuple(a - b for a, b in zip(q, base)) for q in pts[1:]]
    diffs = [d for d in diffs if any(d)]
    if not diffs:
        return (0,) * len(base) if len(base) else ()
    d0 = diffs[0]
    g = math.gcd(*(abs(x) for x in d0))
    prim = tuple(x // g for x in d0)
    for d in diffs[1:]:
        # d must be an integer multiple of prim
        ratios = {a // b for a, b in zip(d, prim) if b != 0}
        if len(ratios) != 1:
            return None
        (r,) = ratios
        if tuple(r * x for x in prim) != d:
            return None
    first = next(x for x in prim if x != 0)
    if first < 0:
        prim = tuple(-x for x in prim)
    return prim


def sev_decompose(f: LaurentPoly):
    """Single-essential-variable form: (P, e) with f ≐ P(t^e), or None.

    P is a canonical univariate polynomial and e a primitive direction with
    first nonzero entry positive.  Present iff the support of f is collinear.
    """
    if f.is_zero() or f.is_unit():
        raise LaurentError("sev_decompose needs a nonzero non-unit input")
    pts = f.support()
    if len(pts) == 1:
        raise LaurentError("sev_decompose needs a non-unit input")
    e = _collinear_direction(pts)
    if e is None or not any(e):
        return None
    base = pts[0]
    idx = next(i for i, x in enumerate(e) if x != 0)
    uni = {}
    for exp, c in f.terms.items():
        k = (exp[idx] - base[idx]) // e[idx]
        uni[(k,)] = c
    return normalize(LaurentPoly(1, uni)), e


# -- squarefree and cyclotomic factor structure -----------------------------


def squarefree_split(f: LaurentPoly) -> list:
    """Yun-style decomposition: f ≐ Π g_i^i with the g_i squarefree, coprime."""
    if f.is_zero() or f.is_unit():
        raise LaurentError("squarefree_split needs a nonzero non-unit input")
    g = normalize(f)
    if g.is_constant():
        raise LaurentError("squarefree_split needs a non-constant input")
    syms = _symbols(g.nvars)
    _, sqf = sympy.sqf_list(sympy.Poly(g.to_sympy(), *syms, domain="QQ"))
    grouped: dict = {}
    for p, mult in sqf:
        piece = normalize(LaurentPoly.from_sympy(p.as_expr(), g.nvars))
        if piece.is_constant():
            continue
        if mult in grouped:
            grouped[mult] = normalize(grouped[mult] * piece)
        else:
            grouped[mult] = piece
    return sorted(((g_i, i) for i, g_i in grouped.items()), key=lambda kv: kv[1])


def cyclotomic_factor(p: LaurentPoly):
    """Split a univariate polynomial as c · Π Φ_m^{mult} · residual.

    Returns (c, [(m, mult), ...], residual) with the residual canonical,
    primitive, and free of cyclotomic factors.
    """
    from .cyclofield import cyclotomic_poly

    if p.nvars != 1:
        raise LaurentError("cyclotomic_factor expects a univariate polynomial")
    if p.is_zero():
        raise LaurentError("cyclotomic_factor of zero")
    g = normalize(p)
    c = math.gcd(*(abs(x.numerator) for x in g.terms.values()))
    if c != 1:
        g = LaurentPoly(1, {e: x / c for e, x in g.terms.items()})
    deg = max(e[0] for e in g.terms)
    cyclo = []
    if deg > 0:
        bound = 2 * deg * deg + 1
        for m in range(1, bound + 1):
            if _euler_phi(m) > deg:
                continue
            phi = cyclotomic_poly(m)
            mult = 0
            while True:
                q = exact_div(g, phi)
                if q is None:
                    break
                g = normalize(q)
                mult += 1
            if mult:
                cyclo.append((m, mult))
            if g.is_constant():
                break
    # absorb any leftover constant into c
    if g.is_constant():
        c *= int(next(iter(g.terms.values())))
        g = LaurentPoly.one(1)
    return c, cyclo, g


def _euler_phi(m: int) -> int:
    out, n, p = 1, m, 2
    while p * p <= n:
        if n % p == 0:
            k = 0
            while n % p == 0:
                n //= p
                k += 1
            out *= (p - 1) * p ** (k - 1)
        p += 1
    if n > 1:
        out *= n - 1
    return out


# -- expression parsing -----------------------------------------------------

_TOKEN = re.compile(r"\s*(\d+|[A-Za-z][A-Za-z0-9_]*|\^|\+|\-|\*|\(|\))")


class PolyParseError(LaurentError):
    pass


def parse_poly(text: str, names: Sequence[str]) -> LaurentPoly:
    """Parse the expression grammar: ints, variables, + - * ^, parentheses."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise PolyParseError(f"bad token at position {pos}: {text[pos:]!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()
    index = {name: i for i, name in enumerate(names)}
    n = len(names)
    state = {"i": 0}

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
            raise PolyParseError("expected integer exponent")
        return sign * int(t)

    def atom() -> LaurentPoly:
        t = take()
        if t == "(":
            e = expr()
            if take() != ")":
                raise PolyParseError("missing closing parenthesis")
            base = e
        elif t == "-":
            return -atom()
        elif t is None:
            raise PolyParseError("unexpected end of expression")
        elif t.isdigit():
            base = LaurentPoly.constant(n, int(t))
        elif t in index:
            base = LaurentPoly.var(n, index[t])
        else:
            raise PolyParseError(f"unknown variable {t!r}")
        if peek() == "^":
            take()
            k = parse_int()
            if base.is_monomial():
                base = base ** k
            elif k >= 0:
                base = base ** k
            else:
                raise PolyParseError("negative exponent on a non-monomial")
        return base

    def term() -> LaurentPoly:
        out = atom()
        while peek() == "*":
            take()
            out = out * atom()
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

    result = expr()
    if peek() is not None:
        raise PolyParseError(f"trailing tokens: {tokens[state['i']:]}")
    return result


# -- factorization ----------------------------------------------------------


@dataclass(frozen=True)
class FactoredPoly:
    """A factorization c · Π f_j^{μ_j} · remainder ≐ the original polynomial.

    Resolved factors are canonical, pairwise non-associate; the remainder
    (when present) carries whatever could not be split into known factors.
    """

    constant: int
    resolved_factors: Tuple[Tuple[LaurentPoly, int, bool], ...]
    unresolved_remainder: Optional[LaurentPoly] = None

    def reassembled(self, nvars: int) -> LaurentPoly:
        acc = LaurentPoly.constant(nvars, self.constant)
        for f, mu, _ in self.resolved_factors:
            acc = acc * f ** mu
        if self.unresolved_remainder is not None:
            acc = acc * self.unresolved_remainder
        return acc


def factor_poly(f: LaurentPoly) -> FactoredPoly:
    """Factor into irreducible pieces over Q, with integer content split off."""
    if f.is_zero():
        raise LaurentError("cannot factor the zero polynomial")
    g = normalize(f)
    c = math.gcd(*(abs(x.numerator) for x in g.terms.values()))
    if g.is_constant():
        return FactoredPoly(c, ())
    syms = _symbols(g.nvars)
    coeff, parts = sympy.factor_list(sympy.Poly(g.to_sympy(), *syms,
                                                domain="QQ"))
    factors: list = []
    for p, mult in parts:
        piece = normalize(LaurentPoly.from_sympy(p.as_expr(), g.nvars))
        if piece.is_constant():
            continue
        pc = math.gcd(*(abs(x.numerator) for x in piece.terms.values()))
        if pc != 1:
            piece = LaurentPoly(g.nvars,
                                {e: x / pc for e, x in piece.terms.items()})
        for i, (q, qm, flag) in enumerate(factors):
            if q == piece:
                factors[i] = (q, qm + mult, flag)
                break
        else:
            factors.append((piece, int(mult), True))
    factors.sort(key=lambda t: (sorted(t[0].terms), t[1]))
    out = FactoredPoly(c, tuple(factors))
    if not associates(out.reassembled(g.nvars), g):
        raise LaurentError("factorization failed to reassemble (internal bug)")
    return out
