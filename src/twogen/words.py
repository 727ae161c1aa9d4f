"""Letters, finite words and lasso (ultimately periodic) words.

The per-round communication alphabet has four letters:

    OK  both messages delivered
    LW  white's message lost
    LB  black's message lost
    LL  both messages lost

GAMMA is the three-letter restriction without the double omission LL.
``Letter`` is a str-valued enum: each letter equals its token
(``Letter.OK == "OK"``) and hashes like its name, in C.
Infinite scenarios are represented exclusively by lasso words
``stem . cycle^w``, kept in a canonical form (primitive cycle, shortest
stem) so that equality of lassos coincides with equality of the
infinite words they denote.
"""

from __future__ import annotations

import enum
import re
from typing import Iterable, Iterator

from .records import Frozen


class ParseError(ValueError):
    """Raised on malformed word or lasso text."""


class Letter(str, enum.Enum):
    OK = "OK"
    LW = "LW"
    LB = "LB"
    LL = "LL"

    def __str__(self):
        return self.value

    def __repr__(self):
        return self.value

    @property
    def mu(self) -> int:
        """Displacement used by the index recurrence (undefined for LL)."""
        try:
            return MU[self]
        except KeyError:
            raise ValueError("mu is not defined for LL") from None


OK, LW, LB, LL = Letter.OK, Letter.LW, Letter.LB, Letter.LL

#: Displacements of the index recurrence; LL has none.
MU = {LB: -1, OK: 0, LW: 1}

#: Full alphabet and its restriction without double omissions.
G2 = (LB, OK, LW, LL)
GAMMA = (LB, OK, LW)

#: Deterministic enumeration order: LB < OK < LW < LL.
LETTER_ORDER = {LB: 0, OK: 1, LW: 2, LL: 3}


class FiniteWord(Frozen):
    """An immutable finite word over G2 (possibly empty)."""

    __slots__ = _fields = ("letters",)

    def __init__(self, letters: tuple[Letter, ...] = ()):
        object.__setattr__(self, "letters", letters)

    def __eq__(self, other):
        return other.__class__ is self.__class__ and (
            self.letters == other.letters)

    def __hash__(self):
        return hash((self.letters,))

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return FiniteWord(self.letters[i])
        return self.letters[i]

    def __add__(self, other: "FiniteWord") -> "FiniteWord":
        return FiniteWord(self.letters + other.letters)

    def __str__(self) -> str:
        return " ".join(a.value for a in self.letters)

    def is_gamma(self) -> bool:
        return LL not in self.letters

    @staticmethod
    def of(*letters: Letter) -> "FiniteWord":
        return FiniteWord(tuple(letters))


EPSILON = FiniteWord()


def _primitive(cycle: tuple[Letter, ...]) -> tuple[Letter, ...]:
    """Shortest word whose power equals ``cycle``."""
    n = len(cycle)
    for p in range(1, n + 1):
        if n % p == 0 and cycle == cycle[:p] * (n // p):
            return cycle[:p]
    return cycle


class LassoWord(Frozen):
    """The infinite word ``stem . cycle^w``, stored canonically.

    Canonical form: the cycle is primitive and the stem is the shortest
    one producing the same infinite word.  Construction canonicalizes,
    so ``==`` decides equality of the denoted infinite words.
    """

    __slots__ = _fields = ("stem", "cycle")

    def __init__(self, stem: FiniteWord, cycle: FiniteWord):
        if len(cycle) == 0:
            raise ValueError("lasso cycle must be non-empty")
        stem = stem.letters
        cycle = _primitive(cycle.letters)
        # absorb stem letters into the cycle: u.a with cycle ending in a
        # denotes the same word as u with the cycle rotated right
        while stem and stem[-1] == cycle[-1]:
            cycle = (cycle[-1],) + cycle[:-1]
            stem = stem[:-1]
        object.__setattr__(self, "stem", FiniteWord(stem))
        object.__setattr__(self, "cycle", FiniteWord(cycle))

    def __eq__(self, other):
        return other.__class__ is self.__class__ and (
            self.stem == other.stem and self.cycle == other.cycle)

    def __hash__(self):
        # hash((self.stem, self.cycle)), without calling FiniteWord.__hash__
        return hash(((self.stem.letters,), (self.cycle.letters,)))

    def __str__(self) -> str:
        inner = " ".join(a.value for a in self.cycle)
        if len(self.stem) == 0:
            return "( %s )^w" % inner
        return "%s ( %s )^w" % (self.stem, inner)

    def letter_at(self, i: int) -> Letter:
        if i < len(self.stem):
            return self.stem[i]
        return self.cycle[(i - len(self.stem)) % len(self.cycle)]

    def letters(self) -> Iterator[Letter]:
        """Yields the letters of the denoted infinite word."""
        yield from self.stem
        while True:
            yield from self.cycle

    def prefix(self, r: int) -> FiniteWord:
        """The first ``r`` letters of the infinite word."""
        out = []
        for i, a in enumerate(self.letters()):
            if i >= r:
                break
            out.append(a)
        return FiniteWord(tuple(out))

    def is_gamma(self) -> bool:
        return self.stem.is_gamma() and self.cycle.is_gamma()

    @staticmethod
    def of(stem: Iterable[Letter], cycle: Iterable[Letter]) -> "LassoWord":
        return LassoWord(FiniteWord(tuple(stem)), FiniteWord(tuple(cycle)))


def is_fair(l: LassoWord) -> bool:
    """True iff both processes get messages through infinitely often.

    A scenario is unfair when, from some point on, every letter drops
    the same process's messages, i.e. the cycle lies entirely within
    {LL, LW} or within {LL, LB}.
    """
    letters = set(l.cycle.letters)
    return not (letters <= {LL, LW}) and not (letters <= {LL, LB})


#: each letter token, mapped to its letter
LETTER_TOKENS = {a.value: a for a in Letter}
#: one token (a symbol or a word), whitespace, or any other character
_TOKEN = re.compile(r"(\^w|[{}()|,.*\\]|\w+)|\s+|(.)")


class TokenReader:
    """Reads the tokens of one text, the adversary DSL's and every word
    or lasso given on the command line, with the rules

        lasso  := letter* "(" letter+ ")" "^w"
        letter := "OK" | "LW" | "LB" | "LL"
    """

    def __init__(self, text: str):
        self.toks = self._lex(text)
        self.pos = 0

    @staticmethod
    def _lex(text: str) -> list[str]:
        out = []
        for m in _TOKEN.finditer(text):
            tok, bad = m.groups()
            if bad is not None:
                raise ParseError(
                    "unexpected character %r at %d" % (bad, m.start())
                )
            if tok is not None:
                out.append(tok)
        return out

    def peek(self, ahead: int = 0):
        i = self.pos + ahead
        return self.toks[i] if i < len(self.toks) else None

    def take(self, expected=None):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input")
        if expected is not None and tok != expected:
            raise ParseError(
                "expected %r at token %d, got %r"
                % (expected, self.pos, tok)
            )
        self.pos += 1
        return tok

    def end(self) -> None:
        """Raises ParseError unless every token has been read."""
        if self.peek() is not None:
            raise ParseError("trailing input at token %d" % self.pos)

    def letter(self) -> Letter:
        tok = self.take()
        if tok not in LETTER_TOKENS:
            raise ParseError(
                "unknown letter %r at position %d" % (tok, self.pos - 1))
        return LETTER_TOKENS[tok]

    def lasso(self) -> LassoWord:
        stem: list[Letter] = []
        while self.peek() != "(":
            stem.append(self.letter())
        self.take("(")
        cycle: list[Letter] = []
        while self.peek() != ")":
            cycle.append(self.letter())
        self.take(")")
        self.take("^w")
        if not cycle:
            raise ParseError("lasso cycle must be non-empty")
        return LassoWord.of(stem, cycle)


def parse_word(text: str) -> FiniteWord:
    """Parses letters to the end, such as ``"LW OK LB"``."""
    reader = TokenReader(text)
    return FiniteWord(tuple(reader.letter() for _ in reader.toks))


def parse_lasso(text: str) -> LassoWord:
    """Parses one ``lasso``, such as ``"LW LB ( OK )^w"`` or
    ``"LW LB(OK)^w"``, into a canonical lasso."""
    reader = TokenReader(text)
    lasso = reader.lasso()
    reader.end()
    return lasso
