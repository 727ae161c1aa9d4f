import itertools
import random
import time

import pytest

from conftest import (DslTexts, liveness_automata, random_automata,
                      random_gamma_lasso)
from twogen import adversary as adv
from twogen import oracle
from twogen.adversary import (AdversaryAutomaton, CompileError,
                              ResourceBoundError)
from twogen.words import (FiniteWord, G2, GAMMA, LassoWord, Letter,
                          ParseError, parse_lasso, parse_word)


def L(text):
    return parse_lasso(text)


def test_builtin_names(builtins):
    assert set(builtins) == {"S0", "TW", "TB", "C1", "S1", "R1", "S2"}


def test_s0_is_the_all_ok_singleton(builtins):
    s0 = builtins["S0"]
    assert s0.contains(L("( OK )^w"))
    assert not s0.contains(L("( LW )^w"))
    assert not s0.contains(L("OK OK LB ( OK )^w"))


def test_tw_tb_oblivious(builtins):
    assert builtins["TW"].contains(L("( OK LW )^w"))
    assert not builtins["TW"].contains(L("OK LB ( OK )^w"))
    assert builtins["TB"].contains(L("( LB )^w"))
    assert not builtins["TB"].contains(L("( LW )^w"))


def test_c1_membership(builtins):
    c1 = builtins["C1"]
    assert c1.contains(L("( OK )^w"))
    assert c1.contains(L("OK OK ( LW )^w"))
    assert c1.contains(L("( LB )^w"))
    assert not c1.contains(L("LB OK ( OK )^w"))
    assert not c1.contains(L("LW LB ( OK )^w"))
    assert not c1.contains(L("( OK LW )^w"))


def test_s1_membership(builtins):
    s1 = builtins["S1"]
    assert s1.contains(L("( OK LW )^w"))
    assert s1.contains(L("( OK LB )^w"))
    assert not s1.contains(L("( LW LB )^w"))
    assert not s1.contains(L("LW LB ( OK )^w"))


def test_r1_is_everything_gamma(builtins):
    rng = random.Random(7)
    for _ in range(50):
        assert builtins["R1"].contains(random_gamma_lasso(rng))


def test_s2_allows_double_loss(builtins):
    assert builtins["S2"].contains(LassoWord.of((), (Letter.LL,)))
    assert builtins["S2"].contains(L("( OK )^w"))


def test_alphabet_mismatch_rejected(builtins):
    with pytest.raises(ValueError):
        builtins["R1"].contains(LassoWord.of((), (Letter.LL,)))


def test_dsl_difference_and_sets():
    a = adv.load("{ OK , LW }^w")
    assert a.contains(L("( OK LW )^w"))
    assert not a.contains(L("( LB )^w"))
    b = adv.load("GAMMA^w \\ { OK ( LW )^w }")
    assert b.contains(L("( OK )^w"))
    assert not b.contains(L("OK ( LW )^w"))
    # removing a lasso under a different spelling still removes it
    c = adv.load("GAMMA^w \\ { OK LW ( LW LW )^w }")
    assert not c.contains(L("OK ( LW )^w"))


def test_dsl_union_and_concat():
    a = adv.load("( OK )^w | OK OK ( LB )^w")
    assert a.contains(L("( OK )^w"))
    assert a.contains(L("OK OK ( LB )^w"))
    assert not a.contains(L("OK ( LB )^w"))
    b = adv.load("OK* . { LW }^w")
    assert b.contains(L("( LW )^w"))
    assert b.contains(L("OK OK OK ( LW )^w"))
    assert not b.contains(L("LB ( LW )^w"))


def test_dsl_parse_errors():
    for bad in ("", "NOPE", "{ OK ,", "GAMMA^w \\", "( OK )^w |"):
        with pytest.raises((ParseError, CompileError)):
            adv.load(bad)


def test_complement_membership_random(builtins):
    rng = random.Random(11)
    for name in ("C1", "S1", "TW", "S0"):
        a = builtins[name]
        comp = adv.complement(a)
        for _ in range(50):
            l = random_gamma_lasso(rng)
            assert a.contains(l) != comp.contains(l), (name, l)


def test_intersect_union_membership_random(builtins):
    rng = random.Random(13)
    tw, tb = builtins["TW"], builtins["TB"]
    inter = adv.intersect(tw, tb)
    uni = adv.union(tw, tb)
    for _ in range(100):
        l = random_gamma_lasso(rng)
        assert inter.contains(l) == (tw.contains(l) and tb.contains(l))
        assert uni.contains(l) == (tw.contains(l) or tb.contains(l))


def test_accepts_from_reads_the_tail_only():
    """From the state reached on u, accepts_from(t) is membership of
    u.t, the lasso contains reads from the initial state."""
    rng = random.Random(17)
    for a in random_automata(17, 20):
        for _ in range(20):
            u = FiniteWord(tuple(rng.choice(GAMMA)
                                 for _ in range(rng.randint(0, 5))))
            t = random_gamma_lasso(rng)
            state = a.initial
            for letter in u:
                state, _ = a.step(state, letter)
            assert a.accepts_from(state, t) == \
                a.contains(LassoWord(u + t.stem, t.cycle)), (u, t)


def _tail_table_automata():
    """Seeded automata, the liveness automata, complements of unions
    and a four-letter difference."""
    seeded = random_automata(19, 20)
    unions = [adv.complement(adv.union(x, y))
              for x, y in zip(seeded[0::2], seeded[1::2])
              if x.alphabet == y.alphabet]
    return (seeded + liveness_automata() + unions
            + [adv.load("G2^w \\ { ( LL )^w }")])


def test_accepts_forever_is_membership_of_the_constant_tail():
    """accepts_forever(q, x) is accepts_from(q, x^w) for every state and
    letter, whichever of them is asked first; the alphabet checks are
    accepts_from's."""
    autos = _tail_table_automata()
    assert any(a.alphabet == G2 for a in autos)
    for a in autos:
        pairs = [(q, x) for q in a.states for x in a.alphabet]
        random.Random(len(pairs)).shuffle(pairs)
        for q, x in pairs + pairs:
            assert a.accepts_forever(q, x) == a.accepts_from(
                q, LassoWord.of((), (x,))), (a, q, x)
    c1 = adv.load("C1")
    with pytest.raises(ValueError):
        c1.accepts_forever(c1.initial, Letter.LL)


def test_accepts_forever_runs_each_tail_once(monkeypatch):
    """The table is filled on demand: one accepts_from per state and
    letter asked, however often it is asked, and none before."""
    a = adv.load("GAMMA^w \\ { LW LB ( OK )^w }")
    asked = []
    accepts = AdversaryAutomaton.accepts_from

    def counted(self, state, l):
        asked.append((state, l))
        return accepts(self, state, l)

    monkeypatch.setattr(AdversaryAutomaton, "accepts_from", counted)
    assert asked == []
    for _ in range(3):
        for q in a.states:
            a.accepts_forever(q, Letter.LB)
    assert len(asked) == len(set(asked)) == len(a.states)


def test_the_tail_table_is_not_a_field():
    """A filled table changes neither equality nor repr, and the
    automaton stays unhashable."""
    for text in ("C1", "GAMMA^w \\ { LW LB ( OK )^w }",
                 "G2^w \\ { ( LL )^w }"):
        a = adv.load(text)
        before = repr(a)
        for q in a.states:
            for x in a.alphabet:
                a.accepts_forever(q, x)
        assert a == adv.load(text) and adv.load(text) == a
        assert repr(a) == before == repr(adv.load(text))
        with pytest.raises(TypeError):
            hash(a)


def test_intersection_tw_tb_is_s0(builtins):
    inter = adv.intersect(builtins["TW"], builtins["TB"])
    assert inter.contains(L("( OK )^w"))
    assert not inter.contains(L("( OK LW )^w"))
    assert not inter.contains(L("( OK LB )^w"))


def test_emptiness_and_witness(builtins):
    for name in ("S0", "TW", "TB", "C1", "S1", "R1", "S2"):
        w = builtins[name].is_empty()
        assert w is not None, name
        assert builtins[name].contains(w), name
    empty = adv.intersect(builtins["S0"], adv.complement(builtins["S0"]))
    assert empty.is_empty() is None


def test_witness_respects_boolean_structure(builtins):
    # C1 complement is non-empty and every witness we pull from it is
    # genuinely outside C1
    comp = adv.complement(builtins["C1"])
    w = comp.is_empty()
    assert w is not None
    assert not builtins["C1"].contains(w)


@pytest.mark.parametrize("name,counts", [
    ("S0", [1, 1, 1, 1]),
    ("R1", [3, 9, 27, 81]),
    ("C1", [3, 5, 7, 9]),
])
def test_prefix_counts(builtins, name, counts):
    for r, expected in enumerate(counts, start=1):
        assert len(builtins[name].prefixes(r)) == expected, (name, r)


def test_prefixes_contents(builtins):
    assert builtins["S0"].prefixes(2) == {parse_word("OK OK")}
    assert builtins["R1"].prefixes(1) == {
        parse_word("LB"), parse_word("OK"), parse_word("LW")
    }


def test_prefix_monotone(builtins):
    """Every (r+1)-prefix extends an r-prefix."""
    for name in ("C1", "S1", "TW"):
        a = builtins[name]
        for r in range(1, 5):
            shorter = {w.letters for w in a.prefixes(r)}
            for w in a.prefixes(r + 1):
                assert w.letters[:r] in shorter


def test_prefix_resource_bound(builtins):
    with pytest.raises(ResourceBoundError):
        builtins["R1"].prefixes(13)
    assert builtins["C1"].prefixes(12)


def test_scc_visit_bound_is_exact(monkeypatch):
    """Emptiness of a chain of k states, each with an odd self-loop,
    visits exactly k SCCs: it passes at _MAX_WORK = k and raises at
    k - 1."""
    k = 6
    rows = {i: {Letter.OK: (i, (1,)), Letter.LW: (min(i + 1, k - 1), (1,)),
                Letter.LB: (i, (1,))} for i in range(k)}
    monkeypatch.setattr(adv, "_MAX_WORK", k)
    assert AdversaryAutomaton(GAMMA, 0, rows, 1, adv.ONE_TRACK).is_empty() \
        is None
    monkeypatch.setattr(adv, "_MAX_WORK", k - 1)
    with pytest.raises(ResourceBoundError,
                       match="^SCC visits 6 exceeds bound 5$"):
        AdversaryAutomaton(GAMMA, 0, rows, 1, adv.ONE_TRACK).is_empty()


def _live_cases(builtins):
    for a in list(builtins.values()) + random_automata(41, 120):
        comp = adv.complement(a)
        yield from (a, comp)
        if a.alphabet == GAMMA:
            yield adv.intersect(comp, adv.fairness_automaton())
            yield oracle.special_pair_product(comp)
            yield oracle.special_pair_product(a)


def test_live_states_match_per_state_emptiness(builtins):
    """``live`` is the set of states from which emptiness finds a
    witness, on built-ins, random differences and unions, their
    complements, fairness products and special-pair products."""
    n = 0
    for a in _live_cases(builtins):
        want = {
            q for q in a.transitions
            if AdversaryAutomaton(a.alphabet, q, a.transitions, a.num_tracks,
                                  a.acceptance).is_empty() is not None
        }
        assert a.live == want, n
        assert all(a.has_nonempty_residual(q) == (q in want)
                   for q in a.transitions)
        n += 1
    assert n > 500


def _brute_sccs(edges):
    """SCC-internal edge groups from mutual reachability, computed
    state by state, in the order of each group's first edge."""
    succ = {}
    for (src, _, dst, _) in edges:
        succ.setdefault(src, set()).add(dst)

    def reach(st):
        seen, todo = {st}, [st]
        while todo:
            for nxt in succ.get(todo.pop(), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
        return seen

    reaches = {st: reach(st) for e in edges for st in (e[0], e[2])}
    groups = {}
    for e in edges:
        src, _, dst, _ = e
        if src in reaches[dst]:  # dst reaches src: one component
            key = frozenset(q for q in reaches[src] if src in reaches[q])
            groups.setdefault(key, []).append(e)
    return list(groups.values())


def test_edge_sccs_match_mutual_reachability():
    """``_edge_sccs`` keeps exactly the edges inside one mutual-
    reachability class, grouped by class in first-edge order with each
    group's edges in edge order: on random automata, their complements
    and fairness products, and on random subsets of their edges (the
    pruned edge lists emptiness recurses on)."""
    rng = random.Random(53)
    n = 0
    for a in random_automata(53, 60):
        comp = adv.complement(a)
        cases = [a, comp]
        if a.alphabet == GAMMA:
            cases.append(adv.intersect(comp, adv.fairness_automaton()))
        for b in cases:
            edges = adv._edges(b.transitions)
            subset = [e for e in edges if rng.random() < 0.7]
            for es in (edges, subset):
                assert adv._edge_sccs(es) == _brute_sccs(es), n
                n += 1
    assert n > 200


def test_negative_extension_depth(builtins):
    with pytest.raises(ValueError):
        list(builtins["R1"].extensions(FiniteWord(), -1))
    with pytest.raises(ValueError):
        builtins["C1"].prefixes(-2)


def test_no_extensions_of_a_prefix_outside_the_alphabet(builtins):
    """C1 reads GAMMA, so a prefix with LL has no extension at all."""
    assert list(builtins["C1"].extensions(FiniteWord.of(Letter.LL), 2)) == []


@pytest.mark.parametrize("name", adv.BUILTIN_NAMES)
def test_sending_true_skips_that_words_extensions(builtins, name):
    """A caller that sends True in reply to a word gets the words of a
    ``for`` walk less exactly those below it; False changes nothing."""
    a = builtins[name]
    walked = list(a.extensions(FiniteWord(), 5))
    pruned = {w for w, _ in walked[1::4] if len(w) < 5}
    kept = [(w, s) for w, s in walked
            if not any(w[:i] in pruned for i in range(len(w)))]
    got = []
    walk = a.extensions(FiniteWord(), 5)
    item = next(walk)
    try:
        while True:
            got.append(item)
            item = walk.send(item[0] in pruned)
    except StopIteration:
        pass
    assert got == kept
    assert len(kept) < len(walked)


def test_fairness_automaton():
    from twogen.words import is_fair
    fair = adv.fairness_automaton()
    rng = random.Random(17)
    for _ in range(100):
        l = random_gamma_lasso(rng)
        assert fair.contains(l) == is_fair(l), l


def _difference_as_product(lassos):
    """The k+1-track construction of GAMMA^w minus ``lassos``: the full
    language intersected with each complemented singleton."""
    out = adv.compile_expr(adv.OmegaPower(frozenset(GAMMA)))
    for l in lassos:
        out = adv.intersect(
            out, adv.complement(adv.compile_expr(adv.LassoExpr(l))))
    return out


def test_difference_matches_product_construction():
    rng = random.Random(23)
    for _ in range(30):
        lassos = tuple(
            random_gamma_lasso(rng) for _ in range(rng.randint(1, 6)))
        one = adv.compile_expr(adv.DifferenceFromFull(GAMMA, lassos))
        many = _difference_as_product(lassos)
        assert one.num_tracks == 1
        assert len(one.transitions) == len(many.transitions), lassos
        for l in lassos:
            assert not one.contains(l) and not many.contains(l)
        for _ in range(50):
            l = random_gamma_lasso(rng)
            assert one.contains(l) == many.contains(l), (lassos, l)
        v = oracle.classify(one)
        assert v.families == oracle.classify(many).families, lassos
        assert oracle.check_witness(one, v)


def test_difference_pair_product_has_one_clause():
    rng = random.Random(29)
    lassos = tuple(random_gamma_lasso(rng) for _ in range(16))
    a = adv.compile_expr(adv.DifferenceFromFull(GAMMA, lassos))
    machine = oracle.special_pair_product(adv.complement(a))
    assert len(machine.acceptance) == 1


def test_nested_boolean_combinations():
    """Complements of products of complements: membership matches the
    Boolean combination of the parts, emptiness witnesses are members,
    and the complement of a union of one-clause automata has one
    clause."""
    gamma = [a for a in random_automata(47, 160) if a.alphabet == GAMMA]
    rng = random.Random(53)
    for _ in range(60):
        a, b, c = rng.sample(gamma, 3)
        assert len(adv.complement(adv.union(a, b)).acceptance) == 1
        combos = [
            (adv.complement(adv.intersect(adv.union(a, b),
                                          adv.complement(c))),
             lambda x, y, z: not ((x or y) and not z)),
            (adv.complement(adv.complement(adv.union(a, b))),
             lambda x, y, z: x or y),
            (adv.union(adv.intersect(a, b), adv.complement(c)),
             lambda x, y, z: (x and y) or not z),
        ]
        for _ in range(30):
            l = random_gamma_lasso(rng)
            parts = a.contains(l), b.contains(l), c.contains(l)
            for m, want in combos:
                assert m.contains(l) == want(*parts), l
        for m, want in combos:
            w = m.is_empty()
            if w is not None:
                assert m.contains(w), w
                assert want(a.contains(w), b.contains(w), c.contains(w)), w


def test_difference_without_exclusions_is_everything():
    a = adv.compile_expr(adv.DifferenceFromFull(GAMMA, ()))
    assert a.initial == "free"
    rng = random.Random(31)
    for _ in range(20):
        assert a.contains(random_gamma_lasso(rng))


def test_gamma_difference_under_a_g2_union():
    a = adv.load("GAMMA^w \\ { ( OK )^w } | ( LL )^w")
    assert a.alphabet == adv.G2
    assert a.contains(L("( LL )^w"))
    assert a.contains(L("( LW )^w"))
    assert not a.contains(L("( OK )^w"))
    assert not a.contains(L("OK ( LL )^w"))


def test_parsed_asts_are_hashable():
    e = adv.parse_adversary("OK LW* . {OK,LB}^w")
    assert hash(e) == hash(adv.parse_adversary("OK LW* . {OK,LB}^w"))


@pytest.mark.parametrize("text", adv.BUILTIN_NAMES + ("OK LW* . {OK,LB}^w",))
def test_every_state_reachable(text):
    a = adv.load(text)
    seen = {a.initial}
    todo = [a.initial]
    while todo:
        for nxt, _ in a.transitions[todo.pop()].values():
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    assert seen == set(a.transitions)


def test_expr_alphabet_matches_a_token_oracle():
    """G2 exactly when an LL, G2 or S2 token appears in a text that
    parses, over every kind of seeded DSL text."""
    texts = DslTexts(random.Random(61))
    seen = []
    for i in range(1500):
        text = texts.text(i % 3)
        try:
            e = adv.parse_adversary(text)
        except ParseError:
            continue
        want = G2 if {"LL", "G2", "S2"} & set(text.split()) else GAMMA
        assert adv.expr_alphabet(e) == want, text
        seen.append(want)
    assert seen.count(G2) > 100 and seen.count(GAMMA) > 100


def _random_lasso(rng):
    letters = GAMMA if rng.random() < 0.5 else G2
    return LassoWord.of(
        [rng.choice(letters) for _ in range(rng.randint(0, 4))],
        [rng.choice(letters) for _ in range(rng.randint(1, 3))])


def test_singleton_states_and_witness():
    """A lasso's text compiles to one state per stem and cycle letter
    plus the sink, and its one word is the emptiness witness."""
    rng = random.Random(67)
    for _ in range(200):
        l = _random_lasso(rng)
        a = adv.load(str(l))
        assert len(a.transitions) == len(l.stem) + len(l.cycle) + 1, l
        assert a.is_empty() == l


def test_set_power_states():
    """Two states (in the set, and the sink), or one for a power of the
    whole alphabet."""
    for n in range(1, 5):
        for letters in itertools.combinations(G2, n):
            a = adv.compile_expr(adv.OmegaPower(frozenset(letters)))
            full = set(letters) == set(a.alphabet)
            assert len(a.transitions) == (1 if full else 2), letters


@pytest.mark.parametrize("text, states, tracks, witness, co_witness", [
    ("{OK,LW}^w", 2, 1, "( OK LW )^w", "LB ( LB OK LW )^w"),
    ("TB", 2, 1, "( LB OK )^w", "( LW LB OK )^w"),
    ("GAMMA^w \\ { LW LB ( OK )^w , ( LW )^w }", 5, 1,
     "LB ( LB OK LW )^w", "LW LB ( OK )^w"),
    ("G2^w \\ { ( LL )^w }", 2, 1, "LB ( LB OK LW LL )^w", "( LL )^w"),
    ("LW ( LB OK )^w", 4, 1, "LW ( LB OK )^w", "LB ( LB OK LW )^w"),
    ("OK LW* . {OK,LB}^w", 5, 1, "OK LB ( LB OK )^w", "LB ( LB OK LW )^w"),
    ("GAMMA^w \\ { ( OK )^w } | ( LL )^w", 5, 2,
     "LB ( LB OK LW )^w", "( OK )^w"),
])
def test_leaf_kinds_compile_to_fixed_automata(text, states, tracks, witness,
                                              co_witness):
    """One term of each leaf kind (set power, built-in name, GAMMA and
    G2 difference, singleton, prefixed set power) and a GAMMA term
    inside a G2 union: state count, tracks, and the witnesses of the
    automaton and of its complement."""
    a = adv.load(text)
    assert (len(a.transitions), a.num_tracks) == (states, tracks)
    assert a.is_empty() == L(witness)
    assert adv.complement(a).is_empty() == L(co_witness)


def test_fairness_automaton_states():
    fair = adv.fairness_automaton()
    assert list(fair.transitions) == ["W", "B"]
    assert fair.is_empty() == L("( LB LW OK LW LB LB OK LW )^w")
    assert adv.complement(fair).is_empty() == L("( LW )^w")


def test_clause_blow_up_is_bounded():
    """20 clauses over 9 tracks would complement to 2^20 clause
    choices; the count is checked before any is built.  classify builds
    no complement, so it decides this intersection and its 400-clause
    square."""
    a = adv.intersect(adv.load("LB LW . {OK,LW}^w | C1 | LB OK . {OK,LW}^w"),
                      adv.load("C1 | {OK,LB}^w"))
    assert (len(a.acceptance), a.num_tracks) == (20, 9)
    start = time.perf_counter()
    v = oracle.classify(a)
    assert v.reason == "solvable via F1, F2"
    assert oracle.check_witness(a, v)
    with pytest.raises(ResourceBoundError):
        adv.complement(a)
    assert time.perf_counter() - start < 1.0
    aa = adv.intersect(a, a)
    assert len(aa.acceptance) == 400
    start = time.perf_counter()
    v = oracle.classify(aa)
    assert v.reason == "solvable via F1, F2"
    assert oracle.check_witness(aa, v)
    assert time.perf_counter() - start < 1.0
    with pytest.raises(ResourceBoundError):
        adv.intersect(aa, aa)  # 160,000 clause pairs
