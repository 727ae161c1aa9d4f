import random
import re

import pytest
from hypothesis import given, strategies as st

from conftest import DslTexts, random_gamma_lasso
from twogen import indexfn
from twogen.adversary import LassoExpr, OmegaPower, parse_adversary
from twogen.words import (EPSILON, FiniteWord, G2, GAMMA, LassoWord, Letter,
                          ParseError, is_fair, parse_lasso, parse_word)

letters = st.sampled_from(GAMMA)
words = st.lists(letters, max_size=8).map(tuple)
cycles = st.lists(letters, min_size=1, max_size=4).map(tuple)


def test_alphabet_order():
    assert GAMMA == (Letter.LB, Letter.OK, Letter.LW)
    assert G2 == (Letter.LB, Letter.OK, Letter.LW, Letter.LL)


def test_mu_values():
    assert Letter.LB.mu == -1
    assert Letter.OK.mu == 0
    assert Letter.LW.mu == 1
    with pytest.raises(ValueError):
        Letter.LL.mu
    with pytest.raises(ValueError):
        indexfn.ind_step(0, Letter.LL)


def test_letter_is_its_token_and_hashes_in_c():
    """A letter equals its token and hashes like its name, as the plain
    enum's __hash__ did, so set and dict orders are unchanged."""
    assert Letter.__hash__ is str.__hash__
    for a in G2:
        assert a == a.value == a.name
        assert hash(a) == hash(a.name)


def test_word_basics():
    w = parse_word("LW OK LB")
    assert len(w) == 3
    assert str(w) == "LW OK LB"
    assert w[0] is Letter.LW
    assert (w + EPSILON) == w
    assert w.is_gamma()
    assert not parse_word("OK LL").is_gamma()


def test_parse_word_error_position():
    with pytest.raises(ParseError, match="position 1"):
        parse_word("OK BAD")


def test_lasso_parse_and_print():
    l = parse_lasso("LW LB ( OK )^w")
    assert str(l) == "LW LB ( OK )^w"
    assert l.letter_at(0) is Letter.LW
    assert l.letter_at(5) is Letter.OK
    with pytest.raises(ParseError):
        parse_lasso("LW OK")
    with pytest.raises(ParseError):
        parse_lasso("LW (  )^w")


def test_lasso_canonical_cycle_primitive():
    a = LassoWord.of((), (Letter.OK, Letter.OK))
    b = LassoWord.of((), (Letter.OK,))
    assert a == b
    assert len(a.cycle) == 1


def test_lasso_canonical_stem_absorbed():
    # OK (LW OK)^w denotes the same word as (OK LW)^w
    a = LassoWord.of((Letter.OK,), (Letter.LW, Letter.OK))
    b = LassoWord.of((), (Letter.OK, Letter.LW))
    assert a == b


@given(st.tuples(words, cycles), st.tuples(words, cycles))
def test_lasso_equality_matches_denoted_word(p, q):
    l1 = LassoWord.of(*p)
    l2 = LassoWord.of(*q)
    same_prefixes = all(
        l1.letter_at(i) == l2.letter_at(i) for i in range(40)
    )
    assert (l1 == l2) == same_prefixes


@given(words, cycles, st.integers(min_value=0, max_value=20))
def test_prefix_agrees_with_letter_at(stem, cycle, r):
    l = LassoWord.of(stem, cycle)
    p = l.prefix(r)
    assert len(p) == r
    assert all(p[i] == l.letter_at(i) for i in range(r))


def test_fairness():
    assert is_fair(parse_lasso("LW LB ( OK )^w"))
    assert is_fair(parse_lasso("( LW LB )^w"))
    assert not is_fair(parse_lasso("( LW )^w"))
    assert not is_fair(parse_lasso("OK OK ( LB )^w"))
    assert not is_fair(LassoWord.of((), (Letter.LL, Letter.LW)))


def _compact(text):
    """``text`` without the spaces next to a symbol token."""
    return re.sub(r"(?<=[^\w\s]) +| +(?=[^\w\s])", "", text)


def _dsl_and_lasso(text):
    """What the DSL and ``parse_lasso`` make of ``text``, None for a
    ParseError."""
    def outcome(parse):
        try:
            return parse(text)
        except ParseError:
            return None
    return outcome(parse_adversary), outcome(parse_lasso)


def test_parse_lasso_reads_what_the_dsl_reads():
    """On seeded DSL texts, lasso texts (some mutated), their compact
    spellings and a hand list: where the DSL reads a lasso, parse_lasso
    reads the same one unless the lasso is parenthesized, and where the
    DSL raises, parse_lasso raises; parse_lasso reads anything else
    only as the DSL's ``( X )^w``."""
    gen = DslTexts(random.Random(29))
    texts = ["(OK)^w", "OK (LW)^w", "( OK ) ^w", "OK ( )^w", "( OK"]
    for i in range(3000):
        lasso = gen.lasso()
        texts += [gen.text(i % 3), " ".join(lasso),
                  " ".join(gen.mutate(lasso))]
    seen = {"lasso": 0, "power": 0, "error": 0}
    for text in texts + [_compact(t) for t in texts]:
        e, l = _dsl_and_lasso(text)
        if isinstance(e, LassoExpr):
            # with a second "(" the DSL read a parenthesized lasso
            assert l == (e.word if text.count("(") == 1 else None), text
            seen["lasso"] += 1
        elif e is None:
            assert l is None, text
            seen["error"] += 1
        elif l is not None:
            assert not l.stem and len(l.cycle) == 1, text
            assert e == OmegaPower(frozenset(l.cycle.letters)), text
            seen["power"] += 1
    assert min(seen.values()) > 100, seen


def test_lassos_and_words_round_trip_through_their_text():
    rng = random.Random(31)
    for _ in range(500):
        l = random_gamma_lasso(rng, max_stem=5, max_cycle=4)
        w = l.prefix(rng.randint(0, 8))
        assert parse_lasso(str(l)) == l
        assert parse_word(str(w)) == w
