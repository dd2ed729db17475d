"""Exact-arithmetic toolkit for multivariable Alexander polynomials,
jump loci of rank-one local systems, quasi-projectivity obstructions,
and Seifert link invariants."""

import re

__version__ = "0.1.0"

# Python refuses to convert a string of more than 4300 digits to an int
# (its default `sys.get_int_max_str_digits()`), with a ValueError, and to
# print such an int; each parser refuses such a number first, with its own
# error, and `LaurentPoly.render` refuses to print a computed one.
MAX_DIGITS = 4300
_LONG_NUMBER = re.compile(rf"\d{{{MAX_DIGITS + 1}}}")


def has_long_number(text: str) -> bool:
    """Whether `text` holds a run of more than MAX_DIGITS digits."""
    return len(text) > MAX_DIGITS and _LONG_NUMBER.search(text) is not None


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
