import itertools
import random
from collections import defaultdict
from fractions import Fraction

import pytest

from conftest import (all_words, liveness_automata, random_automata,
                      random_gamma_lasso)
from oracle_reference import classify_by_complement
from twogen import adversary as adv
from twogen import cli, oracle
from twogen.adversary import ResourceBoundError
from twogen.indexfn import ind, ind_limit, ind_step, is_special_pair
from twogen.oracle import (CornerWitness, FairWitness, Family,
                           SpecialPairWitness, Verdict, check_witness,
                           classify, pair_machine_difference,
                           round_lower_bound, select_forbidden_scenario,
                           special_pair_product)
from twogen.words import (FiniteWord, GAMMA, LETTER_ORDER, LassoWord, Letter,
                          is_fair, parse_lasso)


def L(text):
    return parse_lasso(text)


@pytest.mark.parametrize("name,solvable", [
    ("S0", True), ("TW", True), ("TB", True),
    ("C1", True), ("S1", True), ("R1", False),
])
def test_builtin_verdicts(builtins, name, solvable):
    v = classify(builtins[name])
    assert v.solvable == solvable
    assert check_witness(builtins[name], v)


def test_family_details(builtins):
    assert Family.F3 in classify(builtins["TW"]).families
    assert Family.F4 not in classify(builtins["TW"]).families
    assert Family.F4 in classify(builtins["TB"]).families
    assert Family.F3 not in classify(builtins["TB"]).families
    c1 = classify(builtins["C1"]).families
    assert Family.F3 not in c1 and Family.F4 not in c1
    assert Family.F1 in c1 and Family.F2 in c1


def test_g2_rejected(builtins):
    with pytest.raises(ValueError):
        classify(builtins["S2"])


def test_obstruction_sensitivity():
    v = classify(adv.load("GAMMA^w \\ { OK ( LW )^w }"))
    assert not v.solvable
    v2 = classify(adv.load("GAMMA^w \\ { OK ( LW )^w , LB ( LW )^w }"))
    assert v2.solvable and Family.F2 in v2.families
    v3 = classify(adv.load("GAMMA^w \\ { LW LB ( OK )^w }"))
    assert v3.solvable and Family.F1 in v3.families


def test_fair_witness_is_fair_and_excluded(builtins):
    v = classify(builtins["C1"])
    assert isinstance(v.witness, FairWitness)
    assert is_fair(v.witness.scenario)
    assert not builtins["C1"].contains(v.witness.scenario)


def test_corner_witness():
    a = adv.load("{ OK , LW }^w")
    v = classify(a)
    assert Family.F3 in v.families
    # fair exclusions dominate the selected witness; corners are still
    # reported in the family set
    assert check_witness(a, v)


def test_pair_witness_unzips_to_a_special_pair():
    a = adv.load("GAMMA^w \\ { OK ( LW )^w , LB ( LW )^w }")
    v = classify(a)
    w = v.witness
    assert isinstance(w, SpecialPairWitness)
    assert is_special_pair(w.first, w.second)
    assert not a.contains(w.first) and not a.contains(w.second)


def test_select_forbidden_scenario(builtins):
    v = classify(builtins["S1"])
    w = select_forbidden_scenario(v)
    assert not builtins["S1"].contains(w)
    with pytest.raises(ValueError):
        select_forbidden_scenario(classify(builtins["R1"]))


def test_verdict_json_shape(builtins):
    import json
    doc = json.loads(classify(builtins["C1"]).to_json())
    assert doc["solvable"] is True
    assert doc["witness"]["kind"] == "fair"
    doc2 = json.loads(classify(builtins["R1"]).to_json())
    assert doc2["witness"] is None


@pytest.mark.parametrize("name,bound", [
    ("S0", 0), ("TW", 0), ("TB", 0), ("C1", 1), ("S1", 1),
])
def test_round_lower_bounds(builtins, name, bound):
    assert round_lower_bound(builtins[name]) == bound


def test_round_lower_bound_full(builtins):
    assert round_lower_bound(builtins["R1"], rmax=5) == 5
    # no depth bound: the layer walk stops at the first repeated layer
    assert round_lower_bound(builtins["R1"], rmax=13) == 13
    assert round_lower_bound(builtins["R1"], rmax=10**6) == 10**6


@pytest.mark.parametrize("rmax", [0, -1])
def test_round_lower_bound_rejects_rmax_below_one(builtins, rmax):
    with pytest.raises(ValueError):
        round_lower_bound(builtins["R1"], rmax=rmax)


def _bound_cases(builtins):
    """Built-ins, random differences and DSL adversaries, unions of
    "any k letters, then a tail set" terms, and complements."""
    rng = random.Random(47)
    out = [builtins[n] for n in adv.BUILTIN_NAMES if n != "S2"]
    out += random_automata(43, 24)
    for _ in range(60):
        terms = []
        for _ in range(rng.randint(1, 3)):
            k = rng.randint(1, 7)
            tail = rng.sample(("OK", "LW", "LB"), rng.randint(1, 2))
            terms.append("%s . {%s}^w" % (
                " ".join(["(OK|LW|LB)"] * k), ",".join(tail)))
        out.append(adv.load(" | ".join(terms)))
    out += [adv.complement(a) for a in out[:40]]
    return [a for a in out if a.alphabet == GAMMA]


def test_round_lower_bound_matches_prefix_enumeration(builtins):
    """The layer walk against counting prefixes word by word."""
    seen = set()
    for a in _bound_cases(builtins):
        enumerated = 0
        for r in range(1, 9):
            if len(a.prefixes(r)) != 3**r:
                break
            enumerated = r
        for rmax in range(1, 9):
            assert round_lower_bound(a, rmax) == min(enumerated, rmax), rmax
        seen.add(enumerated)
    assert seen == set(range(9)), seen


def test_pair_machine_matches_brute_force(builtins):
    """The pair machine's clipped difference equals direct index
    arithmetic on all word pairs up to length 5."""
    comp = adv.complement(builtins["R1"])  # any automaton over GAMMA
    machine = special_pair_product(comp)
    state0 = machine.initial

    for r in range(1, 6):
        words = list(all_words(r))
        by_index = {ind(w): w for w in words}
        # walking the diagonal and the +1 offset covers all reachable
        # non-sink behaviors; random pairs cover the sink
        rng = random.Random(r)
        pairs = [(w, w) for w in words]
        pairs += [
            (by_index[k], by_index[k + 1]) for k in range(3**r - 1)
        ]
        pairs += [
            (rng.choice(words), rng.choice(words)) for _ in range(100)
        ]
        for v, v2 in pairs:
            state = state0
            ok = True
            for a, a2 in zip(v, v2):
                state, _ = machine.step(state, (a, a2))
                if state == "sink":
                    ok = False
                    break
                # invariant along the run: d matches the true clipped
                # difference and stays in {0, 1}
            expected = ind(v2) - ind(v)
            if ok:
                assert state[2] == expected, (v, v2)
            else:
                # sink only when the difference left {0, 1} at some
                # prefix, or will never return
                diffs = [
                    ind(v2[:n]) - ind(v[:n]) for n in range(1, len(v) + 1)
                ]
                assert any(d not in (0, 1) for d in diffs), (v, v2, diffs)


def test_pair_machine_difference_helper(builtins):
    comp = adv.complement(builtins["R1"])
    v = FiniteWord.of(Letter.OK, Letter.OK)
    v2 = FiniteWord.of(Letter.OK, Letter.LB)
    assert pair_machine_difference(comp, v, v2) == ind(v2) - ind(v) == 1
    far = FiniteWord.of(Letter.LB, Letter.LB)
    far2 = FiniteWord.of(Letter.LW, Letter.LW)
    assert pair_machine_difference(comp, far, far2) is None


def test_monotonicity_chain(builtins):
    """S0 within TW within S1 within R1: shrinking an adversary can
    only help solvability."""
    rng = random.Random(23)
    chain = ["S0", "TW", "S1", "R1"]
    for small, big in zip(chain, chain[1:]):
        for _ in range(40):
            l = random_gamma_lasso(rng)
            if builtins[small].contains(l):
                assert builtins[big].contains(l), (small, big, l)
    solv = [classify(builtins[n]).solvable for n in chain]
    assert solv == [True, True, True, False]


def test_random_difference_adversaries_have_valid_witnesses():
    rng = random.Random(5)
    for _ in range(25):
        lassos = [
            random_gamma_lasso(rng) for _ in range(rng.randint(1, 3))
        ]
        a = adv.compile_expr(
            adv.DifferenceFromFull(GAMMA, tuple(lassos))
        )
        v = classify(a)
        assert check_witness(a, v), lassos


# ---------------------------------------------------------------------------
# F2 on the pair machine's diagonal


def _special_pair_groups():
    """Unfair, non-corner lassos ``u . c^w`` with |u| in 2..4 grouped by
    stem length and limit index; every group is a whole special pair."""
    groups = defaultdict(list)
    for n in (2, 3, 4):
        for c in (Letter.LW, Letter.LB):
            for stem in itertools.product(GAMMA, repeat=n):
                if stem[-1] is not c:
                    l = LassoWord.of(stem, (c,))
                    groups[(n, ind_limit(l))].append(l)
    return [tuple(g) for _, g in sorted(groups.items())]


def _multi_pair_differences(n=200, seed=61):
    """``(excluded lassos, automaton)`` for seeded differences of 2-4
    whole special pairs plus 0-6 lassos from other groups, one each."""
    groups = _special_pair_groups()
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        k = rng.randint(2, 4)
        chosen = rng.sample(groups, k + rng.randint(0, 6))
        excluded = [l for g in chosen[:k] for l in g]
        excluded += [rng.choice(g) for g in chosen[k:]]
        rng.shuffle(excluded)
        out.append((excluded, adv.compile_expr(
            adv.DifferenceFromFull(GAMMA, tuple(excluded)))))
    return out


def _least_excluded_pair(excluded):
    """The special pair among ``excluded`` with the least common prefix
    u (by length, then letters in LETTER_ORDER), then the least split
    letters, lower index first; by brute force over all pairs."""
    best = None
    for l1, l2 in itertools.combinations(excluded, 2):
        if not is_special_pair(l1, l2):
            continue
        i = 0
        while l1.letter_at(i) is l2.letter_at(i):
            i += 1
        if ind(l1.prefix(i + 1)) > ind(l2.prefix(i + 1)):
            l1, l2 = l2, l1
        key = (i, [LETTER_ORDER[x] for x in l1.prefix(i)],
               LETTER_ORDER[l1.letter_at(i)], LETTER_ORDER[l2.letter_at(i)])
        if best is None or key < best[0]:
            best = (key, SpecialPairWitness(l1, l2))
    return None if best is None else best[1]


def test_f2_matches_the_explicit_pair_machine(builtins):
    """F2 from the diagonal walk against emptiness of the whole product,
    on random adversaries, built-ins, their complements and multi-pair
    differences; every pair found is an excluded special pair."""
    cases = [a for a in random_automata(43, 400) if a.alphabet == GAMMA]
    for name in adv.BUILTIN_NAMES:
        if name != "S2":
            cases += [builtins[name], adv.complement(builtins[name])]
    cases += [a for _, a in _multi_pair_differences()]
    found = 0
    for a in cases:
        comp = adv.complement(a)
        want = special_pair_product(comp).is_empty() is not None
        assert (Family.F2 in classify(a).families) == want
        pair = oracle._excluded_special_pair(a)
        assert (pair is not None) == want
        if pair is not None:
            found += 1
            assert is_special_pair(pair.first, pair.second)
            assert check_witness(a, Verdict(True, frozenset({Family.F2}),
                                            pair, ""))
    assert found > 200, found


def test_f2_walk_tables_follow_the_index_step():
    """The diagonal walk's tables are ind_step's next parity for every
    letter and _pair_step's admitted splits from difference 0 for every
    letter pair, in GAMMA and GAMMA x GAMMA order."""
    for p in (0, 1):
        assert oracle._NEXT_PARITY[p] == tuple(
            (a, ind_step(p, a) % 2) for a in GAMMA)
        splits = []
        for a, a2 in itertools.product(GAMMA, GAMMA):
            moved = oracle._pair_step(0, p, a, a2)
            if a is a2:
                assert moved == (0, ind_step(p, a) % 2)
            elif moved is not None:
                assert moved[0] == 1
                splits.append((a, a2, moved[1]))
        assert oracle._SPLITS[p] == tuple(splits)
        assert len(splits) == 2


def test_pair_witness_is_the_least_excluded_pair():
    """The reported pair is the one with the least common prefix, then
    the least split, checked against brute force over the excluded set
    without the automata."""
    for excluded, a in _multi_pair_differences():
        v = classify(a)
        assert v.witness == _least_excluded_pair(excluded), excluded


def test_pair_witness_literal_case():
    a = adv.load("GAMMA^w \\ { LW LB ( LW )^w , OK LW ( LB )^w , "
                 "OK OK ( LB )^w , LW OK ( LW )^w }")
    v = classify(a)
    assert v.families == {Family.F2}
    assert v.witness == SpecialPairWitness(L("OK LW ( LB )^w"),
                                           L("OK OK ( LB )^w"))


def test_classify_builds_no_special_pair_product(builtins, monkeypatch):
    def product(c):
        raise AssertionError("special_pair_product called")

    monkeypatch.setattr(oracle, "special_pair_product", product)
    solvable = {"S0": True, "TW": True, "TB": True, "C1": True, "S1": True,
                "R1": False}
    for name, want in solvable.items():
        assert classify(builtins[name]).solvable is want, name
    for excluded, a in _multi_pair_differences(20):
        v = classify(a)
        assert v.families == {Family.F2} and check_witness(a, v), excluded


# ---------------------------------------------------------------------------
# F1 and F2 on the adversary itself, against the complement route


def _clause_blow_up():
    """20 clauses over 9 tracks: the complement would hold 2^20."""
    return adv.intersect(
        adv.load("LB LW . {OK,LW}^w | C1 | LB OK . {OK,LW}^w"),
        adv.load("C1 | {OK,LB}^w"))


def test_classify_builds_no_complement(builtins, monkeypatch):
    def refuse(*args):
        raise AssertionError("complement or intersect called")

    cases = [builtins[n] for n in adv.BUILTIN_NAMES if n != "S2"]
    cases += [_clause_blow_up()]
    monkeypatch.setattr(adv, "complement", refuse)
    monkeypatch.setattr(adv, "intersect", refuse)
    for a in cases:
        assert check_witness(a, classify(a))


def test_classify_matches_the_complement_route_on_dsl_adversaries():
    """Every clause of a DSL adversary has one track, and so does the
    complement of a one-track adversary: the search then prunes as the
    complement route does, and the whole Verdict is equal.  The
    complement of a union is one clause of several tracks, searched SCC
    by SCC rather than clause by clause: the families are equal and the
    witness checks."""
    cases = [a for a in random_automata(27, 300) if a.alphabet == GAMMA]
    branched = 0
    for a in cases:
        assert all(len(c) == 1 for c in a.acceptance)
        assert classify(a) == classify_by_complement(a)
        comp = adv.complement(a)
        v, want = classify(comp), classify_by_complement(comp)
        if a.num_tracks == 1:
            assert v == want
        else:
            branched += 1
            assert (v.solvable, v.families) == (want.solvable, want.families)
            assert check_witness(comp, v)
    assert branched > 30, branched


def test_classify_matches_the_complement_route_on_intersections():
    """Seeded intersections of pairs of DSL adversaries and liveness
    automata (where the F1 search's branching decides): the same
    families as the complement route, and every witness checks.  Where
    that route's complement passes the clause bound, the new verdict is
    still checked."""
    rng = random.Random(71)
    autos = [a for a in random_automata(29, 200) if a.alphabet == GAMMA]
    autos += liveness_automata() * 10
    cases = [adv.intersect(*rng.sample(autos, 2)) for _ in range(240)]
    cases += [_clause_blow_up()]
    compared = bounded = 0
    for a in cases:
        v = classify(a)
        assert check_witness(a, v)
        try:
            want = classify_by_complement(a)
        except ResourceBoundError:
            bounded += 1
            continue
        compared += 1
        assert (v.solvable, v.families) == (want.solvable, want.families)
    assert compared >= 200 and bounded >= 1, (compared, bounded)


def test_fair_search_is_bounded(monkeypatch, capsys):
    """The F1 search counts the SCCs it visits against the same bound
    as complement and intersect; past it classify raises, and the CLI
    exits 2 with a resource message."""
    a = adv.load("C1")
    monkeypatch.setattr(adv, "_MAX_WORK", 1)
    with pytest.raises(ResourceBoundError, match="SCC visits"):
        classify(a)
    assert cli.main(["adv", "check", "C1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("resource:") and "SCC visits" in err
