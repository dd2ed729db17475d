"""Finite group presentations and free-group words.

Words are stored freely reduced as (generator index, nonzero exponent)
pairs; no group-theoretic simplification beyond free reduction is ever
applied, since Fox calculus is defined on free-group words.
"""

from __future__ import annotations

import re
from typing import List, Sequence, Tuple

from . import MAX_DIGITS, AlexkitError, Frozen, has_long_number


class PresentationError(AlexkitError):
    def __init__(self, message: str, line: int = 0, column: int = 0):
        if line:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column


class Word(Frozen):
    """A freely reduced word in a free group, as (index, exponent) letters."""

    __slots__ = ("letters",)

    def __init__(self, letters: Tuple[Tuple[int, int], ...]):
        for i, (g, e) in enumerate(letters):
            if e == 0:
                raise PresentationError("zero exponent in word")
            if i and letters[i - 1][0] == g:
                raise PresentationError("word is not freely reduced")
        object.__setattr__(self, "letters", letters)

    def inverse(self) -> "Word":
        return Word(tuple((g, -e) for g, e in reversed(self.letters)))

    def __mul__(self, other: "Word") -> "Word":
        return free_reduce_letters(self.letters + other.letters)

    def exponent_vector(self, num_generators: int) -> List[int]:
        out = [0] * num_generators
        for g, e in self.letters:
            out[g] += e
        return out

    def max_index(self) -> int:
        return max((g for g, _ in self.letters), default=-1)

    def is_empty(self) -> bool:
        return not self.letters


EMPTY_WORD = Word(())


def free_reduce_letters(letters: Sequence[Tuple[int, int]]) -> Word:
    stack: List[List[int]] = []
    for g, e in letters:
        if e == 0:
            continue
        if stack and stack[-1][0] == g:
            stack[-1][1] += e
            if stack[-1][1] == 0:
                stack.pop()
        else:
            stack.append([g, e])
    return Word(tuple((g, e) for g, e in stack))


class GroupPresentation(Frozen):
    """⟨generators | relators⟩ with relators stored freely reduced."""

    __slots__ = ("generator_names", "relators")

    def __init__(self, generator_names: Tuple[str, ...],
                 relators: Tuple[Word, ...]):
        for r in relators:
            if r.max_index() >= len(generator_names):
                raise PresentationError("relator uses an undeclared generator")
        object.__setattr__(self, "generator_names", generator_names)
        object.__setattr__(self, "relators", relators)

    @property
    def num_generators(self) -> int:
        return len(self.generator_names)

    @property
    def num_relators(self) -> int:
        return len(self.relators)

    def exponent_matrix(self) -> List[List[int]]:
        """One row per relator: total exponent of each generator."""
        return [r.exponent_vector(self.num_generators) for r in self.relators]


_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_LETTER = re.compile(r"([A-Za-z][A-Za-z0-9_]*)(?:\^(-?\d+))?$")
_TOKEN = re.compile(r"\S+")


def _column(code: str, keyword: str, k: int) -> int:
    """The 1-based column of token k of `code` after `keyword`, found only
    for an error, so that splitting stays the fast path."""
    start = code.index(keyword) + len(keyword)
    return [m.start() for m in _TOKEN.finditer(code, start)][k] + 1


def parse_presentation(text: str) -> GroupPresentation:
    """Parse the line-oriented presentation format.

    `gens: <name> ...` then zero or more `rel: <letter> ...` lines, where a
    letter is `name` or `name^int`.  Blank lines and `#` comments ignored.
    """
    names: List[str] = []
    index = {}
    relators: List[Word] = []
    seen_gens = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        code = raw.split("#", 1)[0]
        line = code.strip()
        if not line:
            continue
        if line.startswith("gens:"):
            if seen_gens:
                raise PresentationError("duplicate gens: line", lineno, 1)
            seen_gens = True
            for k, tok in enumerate(line[len("gens:"):].split()):
                if not _NAME.fullmatch(tok):
                    raise PresentationError(f"bad generator name {tok!r}",
                                            lineno, _column(code, "gens:", k))
                if tok in index:
                    raise PresentationError(f"duplicate generator {tok!r}",
                                            lineno, _column(code, "gens:", k))
                index[tok] = len(names)
                names.append(tok)
        elif line.startswith("rel:"):
            if not seen_gens:
                raise PresentationError("rel: before gens:", lineno, 1)
            letters = []
            for k, tok in enumerate(line[len("rel:"):].split()):
                m = _LETTER.match(tok)
                if not m:
                    raise PresentationError(f"bad letter {tok!r}", lineno,
                                            _column(code, "rel:", k))
                name, exp = m.group(1), m.group(2)
                if name not in index:
                    raise PresentationError(f"undeclared generator {name!r}",
                                            lineno, _column(code, "rel:", k))
                if exp is not None and has_long_number(exp):
                    raise PresentationError(
                        f"exponent on {name!r} has more than {MAX_DIGITS} "
                        f"digits", lineno, _column(code, "rel:", k))
                e = int(exp) if exp is not None else 1
                if e == 0:
                    raise PresentationError(f"zero exponent on {name!r}",
                                            lineno, _column(code, "rel:", k))
                letters.append((index[name], e))
            relators.append(free_reduce_letters(tuple(letters)))
        else:
            raise PresentationError(f"unrecognized line {line!r}", lineno, 1)
    if not seen_gens:
        raise PresentationError("missing gens: line", 1, 1)
    return GroupPresentation(tuple(names), tuple(relators))
