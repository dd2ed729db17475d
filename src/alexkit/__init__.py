"""Exact-arithmetic toolkit for multivariable Alexander polynomials,
jump loci of rank-one local systems, quasi-projectivity obstructions,
and Seifert link invariants."""

import re
import sys

__version__ = "0.1.0"


class AlexkitError(ValueError):
    """An input that alexkit refuses: the CLI exits 2."""


class ComputationCapError(RuntimeError):
    """A configured desk-scale cap was exceeded: the CLI exits 3."""


# -- caps: each is checked before the work it bounds is done ---------------

# the most entries m² of the m × m change of basis (and of its inverse)
# that `abelianization` builds for the Smith form of m generators: one
# commutator in 1000 generators takes 0.43 s and 47 MB in a fresh run, in
# 2000 generators 1.4 s and 138 MB, on a 2-core x86_64; a diagram of 400
# arcs (160000) passes
SMITH_BASIS_CAP = 1_000_000
# the most variables of a sympy ring (`laurent._ring`): its gcd builds a
# ring for each smaller variable count, so [["x1 + 1", "x2 + 1"]] takes
# 0.92 s in a fresh run with 100 declared variables and 2.3 s with 200,
# on a 2-core x86_64
RING_VARIABLES_CAP = 100
# the largest conductor N of a character, whose values lie in Q(ζ_N)
CONDUCTOR_CAP = 240
# derivatives evaluated × terms that one `vanishing_order` may spend
VANISHING_WORK_CAP = 200_000
# the largest degree expanded densely: a relator word length Σ|e|, one Fox
# term per unit of exponent, a Seifert Δ(u), and a coefficient list in one
# variable (`invariants` on a^(10^5) takes 0.26 s on a 2-core x86_64)
DEGREE_CAP = 100_000
# the largest box ∏(deg_i + 1) of a piece that `factor_poly` hands to
# sympy's `factor_list`: x^a·y^a + x + 1 takes 1.9 s at a = 120 (box 14641),
# 5.9 s at a = 150 (22801) and 24 s at a = 200 on a 2-core x86_64; the
# workloads' largest piece has box 243, an irreducible rest of degree 288
# box 289
FACTOR_BOX_CAP = 20_000
# the largest q·(degree + 1), the exponents a Seifert Δ's terms carry in
# all: every q ≤ 3 within DEGREE_CAP passes
SEIFERT_OUTPUT_CAP = 3 * (DEGREE_CAP + 1)

# Python refuses to convert a string of more than
# `sys.get_int_max_str_digits()` digits (4300 by default) to an int, with a
# ValueError, and to print such an int; each parser refuses such a number
# first, with its own error, and `check_printable` refuses to print a
# computed one.  Without that limit (0) the default stays the bound.
MAX_DIGITS = sys.get_int_max_str_digits() or 4300
_LONG_NUMBER = re.compile(rf"\d{{{MAX_DIGITS + 1}}}")
_DIGITS_LIMIT = 10 ** MAX_DIGITS  # the least of more than MAX_DIGITS digits
# the largest b with 2^b of at most MAX_DIGITS digits: `parse_poly` refuses
# f^k when k·(bit length of f's leading coefficient − 1) passes it, since
# f^k then holds a coefficient of more than MAX_DIGITS digits
COEFFICIENT_BITS_CAP = _DIGITS_LIMIT.bit_length() - 1
# the largest terms × coefficient bits that `parse_poly` expands a power or
# a product to, bounded from its operands before it is expanded:
# (t + 1)^2000 passes (4004001, in 2.6 s on a 2-core x86_64), (t + 1)^3000
# does not (9006001); it bounds memory, which PRODUCT_WORK_CAP does not
EXPANSION_CAP = 5_000_000
# the most `product_work` of one `ProductMeter`: one `parse_poly`, one
# `elementary_ideal_minors` or one `_fox_delta1`.  (t + 1)^2000 spends
# 2.12·10^9 (1.7 s on a 2-core x86_64), a benchmark op at most 1.95·10^6
PRODUCT_WORK_CAP = 3_000_000_000


def product_work(terms_a: int, terms_b: int, top_a: int, top_b: int) -> int:
    """The cost of a product of sparse polynomials of terms_a and terms_b
    terms, of largest coefficients top_a and top_b: per term product, 512
    (its loop overhead) plus the products of their 30-bit digits."""
    return terms_a * terms_b * (512 + (abs(top_a).bit_length() + 29) // 30
                                * ((abs(top_b).bit_length() + 29) // 30))


def check(what: str, value: int, cap: int) -> None:
    """ComputationCapError "<what> <value> exceeds cap <cap>" when value
    passes cap; a value too long to print is given by its length."""
    if value > cap:
        shown = value if value < _DIGITS_LIMIT else \
            f"of more than {MAX_DIGITS} digits"
        raise ComputationCapError(f"{what} {shown} exceeds cap {cap}")


def has_long_number(text: str) -> bool:
    """Whether `text` holds a run of more than MAX_DIGITS digits."""
    return len(text) > MAX_DIGITS and _LONG_NUMBER.search(text) is not None


def check_printable(c: int) -> None:
    """ComputationCapError when c has more than MAX_DIGITS digits, which
    Python refuses to print."""
    if abs(c) >= _DIGITS_LIMIT:
        raise ComputationCapError(f"a coefficient has more than {MAX_DIGITS} "
                                  "digits, the limit for printing a number")


class ProductMeter:
    """The `product_work` of one call, each charge added before the work it
    prices, up to PRODUCT_WORK_CAP; tops default to 1-digit coefficients."""

    spent = 0

    def charge(self, terms_a, terms_b, top_a=1, top_b=1) -> None:
        self.spent += product_work(terms_a, terms_b, top_a, top_b)
        check("product work", self.spent, PRODUCT_WORK_CAP)


class Frozen:
    """Base of the immutable values whose constructor validates or
    normalizes (`Word`, `GroupPresentation`, `Character`, `SpliceData`).

    A subclass names its fields in `__slots__` and sets each once, in its
    `__init__`, with `object.__setattr__`.  Instances compare and hash by
    their fields, and any later assignment or deletion raises
    AttributeError.  Pickling and copying go through the constructor."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self.__slots__, self._fields()))
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()

    def __setattr__(self, name, _):
        raise AttributeError(f"cannot set {name!r}: "
                             f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: "
                             f"{type(self).__name__} is immutable")
