"""The process swap as a test oracle.

Exchanging white and black turns the letter LW into LB and back, and
the built-in TW into TB.  It reflects indexes (ind(swap u) =
3^r - 1 - ind(u)) and limit indexes (z into 1 - z), maps an adversary's
language onto the language of its swapped text, and exchanges the corner
families F3 and F4 of ``classify``.  It keeps ``verify``'s counts for
A_w against A_{swap w}, ``round_lower_bound``, and valency for
own-input and for A_eta at the reflected gap point, which stays a gap
point, and it reflects the stable complex there.  None of these
relations needs a reference implementation.  A_w's guard is not
symmetric, so its mirrored transcripts are pinned rather than asserted
equal, and its valency is not compared.
"""

import math
import random
from fractions import Fraction

from conftest import (DslTexts, all_words, liveness_automata,
                      random_gamma_lasso)
from twogen import adversary as adv
from twogen import topology as topo
from twogen.bivalency import valency
from twogen.indexfn import ind, ind_limit
from twogen.oracle import (CORNER_LB, Family, classify, round_lower_bound,
                           select_forbidden_scenario)
from twogen.protocol import (INPUT_VECTORS, IndexGuardAlgorithm,
                             OwnInputAlgorithm, simulate, verify)
from twogen.words import (GAMMA, FiniteWord, LassoWord, Letter, ParseError,
                          TokenReader, is_fair, parse_lasso)

_SWAP = {Letter.LW: Letter.LB, Letter.LB: Letter.LW,
         Letter.OK: Letter.OK, Letter.LL: Letter.LL}
_SWAP_TOKENS = {"LW": "LB", "LB": "LW", "TW": "TB", "TB": "TW"}
_SWAP_FAMILY = {Family.F1: Family.F1, Family.F2: Family.F2,
                Family.F3: Family.F4, Family.F4: Family.F3}


def swap_word(w: FiniteWord) -> FiniteWord:
    return FiniteWord(tuple(_SWAP[a] for a in w))


def swap_lasso(l: LassoWord) -> LassoWord:
    return LassoWord(swap_word(l.stem), swap_word(l.cycle))


def swap_text(text: str) -> str:
    """A DSL text with LW and LB, and TW and TB, exchanged; its tokens
    are the DSL's, so a letter glued to a brace is swapped too."""
    return " ".join(_SWAP_TOKENS.get(tok, tok)
                    for tok in TokenReader._lex(text))


def _loaded(texts: DslTexts, n: int):
    """``(expr, automaton, swapped automaton)`` for the first ``n``
    seeded texts that compile."""
    out = []
    while len(out) < n:
        text = texts.text(0)
        try:
            e = adv.parse_adversary(text)
            a = adv.compile_expr(e)
        except (ParseError, adv.CompileError):
            continue
        out.append((e, a, adv.load(swap_text(text))))
    return out


def _kinds(e) -> set:
    """The node types of an expression, built-in names resolved."""
    out = {type(e)}
    if isinstance(e, adv.Named):
        out |= _kinds(adv.builtin(e.name))
    elif isinstance(e, adv.Union):
        for p in e.parts:
            out |= _kinds(p)
    elif isinstance(e, adv.Concat):
        out |= _kinds(e.tail)
    return out


def test_swap_text_reads_tokens_not_spaces():
    """A compact spelling and a spaced one swap to the same text, and
    so to the same language."""
    compact = swap_text("LW.{LB}^w|LB*.{OK}^w|TW")
    assert compact == swap_text("LW . { LB }^w | LB* . {OK}^w | TW") == (
        "LB . { LW } ^w | LW * . { OK } ^w | TB")
    assert adv.load(compact) == adv.load("LB . {LW}^w | LW* . {OK}^w | TB")


def test_swap_reflects_the_index():
    for r in range(7):
        for u in all_words(r):
            assert ind(swap_word(u)) == 3**r - 1 - ind(u), u


def test_swap_reflects_the_limit_index_and_keeps_fairness():
    rng = random.Random(71)
    for _ in range(1000):
        l = random_gamma_lasso(rng, max_stem=5, max_cycle=4)
        assert ind_limit(swap_lasso(l)) == 1 - ind_limit(l), l
        assert is_fair(swap_lasso(l)) == is_fair(l), l


def test_swapped_text_holds_the_swapped_lassos():
    """load(swap text) holds swap l exactly when load(text) holds l, on
    seeded lassos and on both automata's emptiness witnesses, for every
    leaf kind of the DSL."""
    rng = random.Random(73)
    kinds = set()
    for e, a, b in _loaded(DslTexts(random.Random(79)), 200):
        kinds |= _kinds(e)
        assert b.alphabet == a.alphabet
        lassos = [LassoWord.of(
            [rng.choice(a.alphabet) for _ in range(rng.randint(0, 3))],
            [rng.choice(a.alphabet) for _ in range(rng.randint(1, 3))])
            for _ in range(15)]
        lassos += [w for w in (a.is_empty(), adv.complement(a).is_empty())
                   if w is not None]
        for l in lassos:
            assert b.contains(swap_lasso(l)) == a.contains(l), (e, l)
    assert {adv.OmegaPower, adv.DifferenceFromFull, adv.LassoExpr,
            adv.Concat, adv.Named, adv.Union} <= kinds


def test_classify_exchanges_f3_and_f4():
    """The same verdict with F3 and F4 exchanged; F3 of L, the exclusion
    of LB^w, is read off swap L's own corner LW^w."""
    texts = DslTexts(random.Random(83), letters=("OK", "LW", "LB"))
    for e, a, b in _loaded(texts, 300):
        if a.alphabet != GAMMA:  # a G2 difference
            continue
        v, u = classify(a), classify(b)
        assert u.solvable == v.solvable, e
        assert u.families == {_SWAP_FAMILY[f] for f in v.families}, e
        assert (Family.F4 in u.families) == (
            not b.contains(swap_lasso(CORNER_LB))), e


def test_verify_counts_are_kept_by_the_swap():
    """verify(A_{swap w}, swap L, 3) has the ok, checked and violation
    count of verify(A_w, L, 3), with w the oracle's forbidden scenario
    for L: the completions swap one for one, and so do their tails.
    The runs need not mirror (A_w's guard is not symmetric)."""
    texts = DslTexts(random.Random(101), letters=("OK", "LW", "LB"))
    held = 0
    for e, a, b in _loaded(texts, 300):
        if a.alphabet != GAMMA:
            continue
        v = classify(a)
        if not v.solvable:
            continue
        w = select_forbidden_scenario(v)
        rep = verify(IndexGuardAlgorithm(w), a, 3)
        mirror = verify(IndexGuardAlgorithm(swap_lasso(w)), b, 3)
        assert (mirror.ok, mirror.checked, len(mirror.violations)) == (
            rep.ok, rep.checked, len(rep.violations)), e
        held += 1
    assert held > 150, held


def test_round_lower_bound_is_kept_by_the_swap():
    """Pref_r(swap L) = swap Pref_r(L), so both are GAMMA^r together."""
    texts = DslTexts(random.Random(103), letters=("OK", "LW", "LB"))
    held = 0
    for e, a, b in _loaded(texts, 300):
        if a.alphabet != GAMMA:
            continue
        assert round_lower_bound(b, 5) == round_lower_bound(a, 5), e
        held += 1
    assert held > 200, held


def test_valency_is_kept_by_the_swap():
    """The valency of swap p in swap L with the inputs swapped is that
    of p in L, to depth 3 for every prefix of length at most 2 and every
    input vector: for own-input, and for A_eta built at the gap point z
    of L and at 1 - z for swap L, whose decision map reflects with the
    unit interval.  A tail skipped or miscounted for one process shows
    up as a mismatch, since the swap turns LW^w into LB^w."""
    held = 0
    for e, a, b in _loaded(DslTexts(random.Random(3)), 120):
        if a.alphabet != GAMMA:
            continue
        pairs = [(OwnInputAlgorithm(), OwnInputAlgorithm())]
        v = classify(a)
        if v.solvable:
            z = topo.gap_point(v)
            pairs.append(tuple(
                topo.GeometricAlgorithm(
                    topo.build_terminating_subdivision(x, gap))
                for x, gap in ((a, z), (b, 1 - z))))
        for p in [p for k in range(3) for p in sorted(a.prefixes(k), key=str)]:
            for algo, mirror in pairs:
                for inputs in INPUT_VECTORS:
                    assert valency(mirror, b, swap_word(p), inputs[::-1],
                                   3) is valency(algo, a, p, inputs, 3), \
                        (e, p, inputs)
                    held += 1
    assert held > 1500, held


def _reflected(ts) -> dict:
    """Each level's stable cells, reflected by x -> 1 - x."""
    return {k: sorted((1 - hi, 1 - lo) for lo, hi in
                      (e.interval for e in edges))
            for k, edges in ts.levels.items()}


def test_stable_complex_is_reflected_by_the_swap():
    """1 - z, the reflection of L's gap point z, is a gap point of
    swap L, whose stable complex there is L's reflected by x -> 1 - x,
    level by level and edge for edge, with the same abstract and
    realization component counts; and swap L's limit realization is
    disconnected.  Its gap need not be 1 - z: the oracle picks its
    forbidden scenario in search order, which the swap does not keep,
    so TW's gap is 151/3280 and TB's 2483/3280, and C1 and S1, their
    own swaps, keep theirs.  The built-ins, and the GAMMA automata of
    600 seeded texts."""
    names = ("S0", "TW", "TB", "C1", "S1", "R1")
    cases = [(adv.load(n), adv.load(swap_text(n))) for n in names]
    cases += [(a, b) for _, a, b in _loaded(DslTexts(random.Random(3)), 600)
              if a.alphabet == GAMMA]
    held = 0
    for a, b in cases:
        v = classify(a)
        if not v.solvable:
            continue
        z = topo.gap_point(v)
        ts = topo.build_terminating_subdivision(a, z)
        mirror = topo.build_terminating_subdivision(b, 1 - z)
        assert _reflected(ts) == {k: sorted(e.interval for e in edges)
                                  for k, edges in mirror.levels.items()}, a
        k, m = ts.stable_complex(), mirror.stable_complex()
        assert topo.abstract_components(m) == topo.abstract_components(k), a
        assert (topo.realization_components(m)
                == topo.realization_components(k)), a
        assert not topo.limit_connectivity(b).connected, a
        held += 1
    assert held > 150, held
    gaps = {n: topo.limit_connectivity(a).gap
            for n, (a, _) in zip(names, cases)}
    assert (gaps["TW"], gaps["TB"]) == (Fraction(151, 3280),
                                        Fraction(2483, 3280))


def test_index_guard_transcripts_are_not_mirrored():
    """A_w's guard |ind - ind(w|_r)| <= 2 admits the positions t-2 ..
    t+2 around the target edge [t, t+1]: two to its left, one to its
    right, so the mirrored run halts in another round.  With w = OK^w
    the target edge at round 2 is [4, 5], its own mirror.  On LB OK,
    black at 1 = t-3 halts and white at 2 = t-2 runs on to round 3; on
    the mirror LW OK, white at 8 and black at 7 = t+3, the mirror of
    t-2, both halt at round 2."""
    w, scenario = parse_lasso("( OK )^w"), parse_lasso("LB ( OK )^w")
    run = simulate(IndexGuardAlgorithm(w), scenario, (0, 1))
    mirror = simulate(IndexGuardAlgorithm(swap_lasso(w)),
                      swap_lasso(scenario), (1, 0))
    assert [(s.ind, s.round) for _, s, _ in run.rounds] == [
        (0, 1), (2, 2), (6, 3)]
    assert [(s.ind, s.round) for _, _, s in mirror.rounds] == [
        (3, 1), (7, 2)]
    assert run.decisions == mirror.decisions == (0, 0)
    assert (run.white.round, run.black.round) == (3, 2)
    assert (mirror.white.round, mirror.black.round) == (2, 2)


def test_solvability_is_monotone_under_inclusion():
    """intersect(x, y) lies within x, and x and y lie within union(x, y):
    shrinking an adversary keeps it solvable.  600 seeded pairs of DSL
    adversaries, some of whose intersections have complements past the
    clause bound (classify builds no complement, so every pair gets a
    verdict), then 300 pairs of a DSL adversary and a liveness
    automaton."""
    texts = DslTexts(random.Random(89), letters=("OK", "LW", "LB"))
    autos = [a for _, a, _ in _loaded(texts, 150) if a.alphabet == GAMMA]
    live = liveness_automata()
    rng = random.Random(97)
    pairs = [rng.sample(autos, 2) for _ in range(600)]
    pairs += [[rng.choice(autos), rng.choice(live)][::rng.choice((1, -1))]
              for _ in range(300)]
    solvable = {id(a): classify(a).solvable for a in autos + live}
    held = blown = 0
    for x, y in pairs:
        meet = adv.intersect(x, y)
        blown += math.prod(len(c) for c in meet.acceptance) > adv._MAX_WORK
        if solvable[id(x)]:
            held += 1
            assert classify(meet).solvable, (x, y)
        if classify(adv.union(x, y)).solvable:
            held += 1
            assert solvable[id(x)] and solvable[id(y)], (x, y)
    assert held > 600 and blown > 0, (held, blown)
