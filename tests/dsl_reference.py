"""The adversary DSL parser before the lookahead rewrite, kept as the
reference for the differential test in ``test_parser.py``.

At a "(" or a letter it tries the readings of a term in turn (the
``( X )^w`` form, a lasso, a parenthesized adversary, a regex prefix)
and backs out of each failed one through ``ParseError`` and saved
positions.
"""

from twogen.adversary import (BUILTIN_NAMES, Concat, DifferenceFromFull,
                              LassoExpr, Named, OmegaPower, RegexConcat,
                              RegexLetter, RegexStar, RegexUnion, Union)
from twogen.words import G2, GAMMA, LassoWord, Letter, ParseError


def reference_parse(text: str):
    try:
        return ReferenceParser(text).parse()
    except RecursionError:
        raise ParseError("expression nested too deeply") from None


class ReferenceParser:
    """Recursive descent over the adversary DSL.

    adversary := union
    union     := term { "|" term }
    term      := name | omega | "(" adversary ")" | prefix "." omega | diff
    omega     := set "^w"
    set       := "{" letter { "," letter } "}" | letter
    diff      := ("GAMMA" | "G2") "^w" "\\" "{" lasso { "," lasso } "}"
    """

    def __init__(self, text: str):
        self.toks = self._lex(text)
        self.pos = 0

    @staticmethod
    def _lex(text: str) -> list[str]:
        out = []
        i = 0
        symbols = ("^w", "{", "}", "(", ")", "|", ",", ".", "*", "\\")
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            for sym in symbols:
                if text.startswith(sym, i):
                    out.append(sym)
                    i += len(sym)
                    break
            else:
                j = i
                while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                if j == i:
                    raise ParseError(
                        "unexpected character %r at %d" % (ch, i)
                    )
                out.append(text[i:j])
                i = j
        return out

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

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

    def parse(self):
        e = self.union()
        if self.peek() is not None:
            raise ParseError("trailing input at token %d" % self.pos)
        return e

    def union(self):
        parts = [self.term()]
        while self.peek() == "|":
            self.take("|")
            parts.append(self.term())
        return parts[0] if len(parts) == 1 else Union(tuple(parts))

    def term(self):
        tok = self.peek()
        if tok in ("GAMMA", "G2"):
            return self.diff()
        if tok == "(":
            # "( LB )^w" sugar for the single-letter omega power
            nxt = self.toks[self.pos + 1 : self.pos + 4]
            if (
                len(nxt) == 3
                and nxt[0] in ("OK", "LW", "LB", "LL")
                and nxt[1] == ")"
                and nxt[2] == "^w"
            ):
                self.pos += 4
                return OmegaPower(frozenset({Letter(nxt[0])}))
            # a multi-letter "( ... )^w" is a cycle-only lasso word
            save = self.pos
            try:
                return LassoExpr(self.lasso())
            except ParseError:
                self.pos = save
            # either a parenthesized adversary or a regex prefix; try
            # the adversary reading first, fall back to regex prefix
            try:
                self.take("(")
                inner = self.union()
                self.take(")")
                if self.peek() == "^w":
                    self.take("^w")
                    if isinstance(inner, OmegaPower):
                        return inner
                    raise ParseError("'^w' after a non-set expression")
                if self.peek() in (".", "*"):
                    raise ParseError("regex prefix")
                return inner
            except ParseError:
                self.pos = save
                return self.prefixed()
        if tok == "{":
            save = self.pos
            letters = self.letter_set()
            if self.peek() == "^w":
                self.take("^w")
                return OmegaPower(letters)
            self.pos = save
            raise ParseError("expected '^w' after letter set")
        if tok in BUILTIN_NAMES:
            self.take()
            if self.peek() in (".", "*"):
                raise ParseError("built-in name inside a regex")
            return Named(tok)
        # single letter: LETTER^w, a lasso word, or a regex prefix
        if tok in ("OK", "LW", "LB", "LL"):
            save = self.pos
            self.take()
            if self.peek() == "^w":
                self.take("^w")
                return OmegaPower(frozenset({Letter(tok)}))
            self.pos = save
            try:
                return LassoExpr(self.lasso())
            except ParseError:
                self.pos = save
            return self.prefixed()
        raise ParseError("unexpected token %r" % tok)

    def prefixed(self):
        rx = self.regex()
        self.take(".")
        tail = self.omega_tail()
        return Concat(rx, tail)

    def omega_tail(self):
        if self.peek() == "(":
            nxt = self.toks[self.pos + 1 : self.pos + 4]
            if (
                len(nxt) == 3
                and nxt[0] in ("OK", "LW", "LB", "LL")
                and nxt[1] == ")"
                and nxt[2] == "^w"
            ):
                self.pos += 4
                return OmegaPower(frozenset({Letter(nxt[0])}))
            self.take("(")
            inner = self.union()
            self.take(")")
            if self.peek() == "^w":
                self.take("^w")
                if isinstance(inner, OmegaPower):
                    return inner
                raise ParseError("'^w' after a non-set expression")
            return inner
        tok = self.peek()
        if tok == "{":
            letters = self.letter_set()
            self.take("^w")
            return OmegaPower(letters)
        if tok in ("OK", "LW", "LB", "LL"):
            self.take()
            self.take("^w")
            return OmegaPower(frozenset({Letter(tok)}))
        if tok in BUILTIN_NAMES:
            self.take()
            return Named(tok)
        raise ParseError("expected an omega expression after '.'")

    def letter_set(self) -> frozenset:
        self.take("{")
        letters = {self.letter()}
        while self.peek() == ",":
            self.take(",")
            letters.add(self.letter())
        self.take("}")
        return frozenset(letters)

    def letter(self) -> Letter:
        tok = self.take()
        try:
            return Letter(tok)
        except ValueError:
            raise ParseError("unknown letter %r" % tok) from None

    def diff(self):
        kind = self.take()
        alphabet = GAMMA if kind == "GAMMA" else G2
        self.take("^w")
        self.take("\\")
        self.take("{")
        lassos = [self.lasso()]
        while self.peek() == ",":
            self.take(",")
            lassos.append(self.lasso())
        self.take("}")
        for l in lassos:
            if alphabet == GAMMA and not l.is_gamma():
                raise ParseError("LL letter in a GAMMA-difference lasso")
        return DifferenceFromFull(alphabet, tuple(lassos))

    def lasso(self) -> LassoWord:
        stem: list[Letter] = []
        while self.peek() not in ("(",):
            stem.append(self.letter())
        self.take("(")
        cycle: list[Letter] = []
        while self.peek() != ")^w" and self.peek() != ")":
            cycle.append(self.letter())
        # the lexer splits ")^w" into ")" "^w"
        self.take(")")
        self.take("^w")
        if not cycle:
            raise ParseError("lasso cycle must be non-empty")
        return LassoWord.of(stem, cycle)

    # regex over letters with *, |, concatenation, parentheses
    def regex(self):
        return self.regex_union()

    def regex_union(self):
        parts = [self.regex_concat()]
        while self.peek() == "|":
            self.take("|")
            parts.append(self.regex_concat())
        return parts[0] if len(parts) == 1 else RegexUnion(tuple(parts))

    def regex_concat(self):
        parts = []
        while True:
            tok = self.peek()
            if tok in ("OK", "LW", "LB", "LL"):
                self.take()
                atom = RegexLetter(Letter(tok))
            elif tok == "(":
                save = self.pos
                self.take("(")
                inner = self.regex_union()
                if self.peek() != ")":
                    self.pos = save
                    break
                self.take(")")
                atom = inner
            else:
                break
            while self.peek() == "*":
                self.take("*")
                atom = RegexStar(atom)
            parts.append(atom)
        if not parts:
            raise ParseError("empty regex")
        return parts[0] if len(parts) == 1 else RegexConcat(tuple(parts))
