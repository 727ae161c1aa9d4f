"""The adversary DSL parser against the backtracking reference parser
in ``dsl_reference.py``: every input gives the same AST, or a
ParseError on both sides."""

import random

import pytest

from conftest import DslTexts
from dsl_reference import ReferenceParser, reference_parse
from twogen.adversary import (Concat, LassoExpr, OmegaPower, RegexUnion,
                              _DslParser, parse_adversary)
from twogen.words import ParseError


def outcome(parse, text):
    try:
        return repr(parse(text))
    except ParseError:
        return "ParseError"


def test_matches_reference_on_generated_inputs():
    texts = DslTexts(random.Random(20))
    accepted = [0, 0, 0]
    for i in range(12_000):
        kind = i % 3
        text = texts.text(kind)
        got = outcome(parse_adversary, text)
        assert got == outcome(reference_parse, text), text
        accepted[kind] += got != "ParseError"
    # each kind reaches both outcomes
    assert all(0 < n < 4_000 for n in accepted), accepted


@pytest.mark.parametrize("text", [
    "( OK ) LW . {OK}^w",
    "( S0 ) LW . {OK}^w",
    "( {OK}^w )^w",
    "( OK . S0 ) . {LW}^w",
    "OK | LW . {OK}^w",
    "( OK )^w",
    "OK ( OK )^w",
    "S0*",
    "( S0 ) | OK . S0",
    "( OK | LW ) . {OK}^w",
    "OK . ( OK LW )^w",
    "( OK LW )^w",
    "( S0 )^w",
    "OK ( )^w",
    "( OK",
    "(" * 100 + "S0" + ")" * 100,
    "(" * 100 + "OK" + ")" * 100 + " . S0",
    "(" * 2000 + "OK" + ")" * 2000,
    "(" * 2000 + "S0" + ")" * 2000,
])
def test_matches_reference_on_edge_cases(text):
    assert outcome(parse_adversary, text) == outcome(reference_parse, text)


def test_term_readings():
    assert isinstance(parse_adversary("( OK )^w"), OmegaPower)
    assert isinstance(parse_adversary("OK ( OK )^w"), LassoExpr)
    assert parse_adversary("( {OK}^w )^w") == parse_adversary("{OK}^w")
    # the "|" belongs to the regex, not to the adversary union
    e = parse_adversary("OK | LW . {OK}^w")
    assert isinstance(e, Concat) and isinstance(e.prefix, RegexUnion)
    for bad in ("( S0 ) LW . {OK}^w", "( OK . S0 ) . {LW}^w", "S0*",
                "(" * 2000 + "OK" + ")" * 2000):
        with pytest.raises(ParseError):
            parse_adversary(bad)


def test_lexer_matches_reference_on_every_character():
    """Each code point below U+3000, alone, doubled and between
    letters, lexes to the same tokens or the same error message."""
    def lexed(lex, text):
        try:
            return lex(text)
        except ParseError as e:
            return str(e)

    for cp in range(0x3000):
        for text in (chr(cp), chr(cp) * 2, "OK%sLW" % chr(cp)):
            assert lexed(_DslParser._lex, text) == lexed(
                ReferenceParser._lex, text), hex(cp)
