import pytest
from hypothesis import given, strategies as st

from twogen import indexfn
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
