import collections
import functools
import itertools
import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (_OwnInputAt, all_words, halting_cases,
                      random_gamma_lasso)
from twogen import adversary as adv
from twogen import bivalency, protocol
from twogen import topology as topo
from twogen.adversary import AdversaryAutomaton, ResourceBoundError
from twogen.indexfn import BLACK, WHITE, ind, ind_limit
from twogen.oracle import classify, select_forbidden_scenario
from twogen.protocol import (INPUT_VECTORS, IndexGuardAlgorithm,
                             OwnInputAlgorithm, ProcessState, Report,
                             Violation, _delivered, completions, simulate,
                             verify)
from twogen.words import (FiniteWord, G2, GAMMA, LassoWord, Letter,
                          parse_lasso)


def L(text):
    return parse_lasso(text)


def _always(configs) -> bool:
    """The walk's stop test that stops it at every final word."""
    return True


def _run_rounds(algo, letters, inputs=(0, 1)):
    """Drives both processes through the given prefix without letting
    either one halt; returns the two states."""
    white = algo.start(WHITE, inputs[0])
    black = algo.start(BLACK, inputs[1])
    for a in letters:
        to_white = black if _delivered(a, BLACK) else None
        to_black = white if _delivered(a, WHITE) else None
        white = algo.receive(white, to_white)
        black = algo.receive(black, to_black)
    return white, black


@pytest.fixture(scope="module")
def guard_far_away():
    # target along (LW)^w keeps the guard from firing in short runs
    return IndexGuardAlgorithm(L("( LW )^w"))


@pytest.mark.parametrize("r", range(1, 6))
def test_index_bracket_invariant(guard_far_away, r):
    """At every round: white's counter is even, black's odd, they
    differ by one, their min is the true scenario index and the sign
    of (black - white) is (-1)^ind."""
    for letters in itertools.product(GAMMA, repeat=r):
        white, black = _run_rounds(guard_far_away, letters)
        i = ind(FiniteWord(letters))
        assert white.ind % 2 == 0 and black.ind % 2 == 1
        assert abs(black.ind - white.ind) == 1
        assert min(white.ind, black.ind) == i
        assert (black.ind - white.ind) == (1 if i % 2 == 0 else -1)


def test_guard_never_fires_on_the_forbidden_scenario():
    w = L("LW LB ( OK )^w")
    algo = IndexGuardAlgorithm(w)
    t = simulate(algo, w, (0, 1), max_rounds=200)
    assert not t.white.halted and not t.black.halted
    assert t.exhausted
    # the guard quantity stays within 2 the whole way
    for r, (_, ws, bs) in enumerate(t.rounds, start=1):
        target = algo.target_index(r)
        assert abs(ws.ind - target) <= 2
        assert abs(bs.ind - target) <= 2


def test_ll_rejected_as_parameter():
    with pytest.raises(ValueError):
        IndexGuardAlgorithm(LassoWord.of((), (Letter.LL,)))


VERIFY_CASES = [
    ("C1", None),
    ("S1", None),
    ("GAMMA^w \\ { LW LB ( OK )^w }", "LW LB ( OK )^w"),
    ("GAMMA^w \\ { OK ( LW )^w , LB ( LW )^w }", "LB ( LW )^w"),
]


@pytest.mark.parametrize("text,wtext", VERIFY_CASES)
def test_aw_verify_clean(text, wtext):
    a = adv.load(text)
    if wtext is None:
        w = select_forbidden_scenario(classify(a))
    else:
        w = L(wtext)
    rep = verify(IndexGuardAlgorithm(w), a, depth=4)
    assert rep.ok, rep.violations[:3]
    assert rep.checked > 0


@pytest.mark.parametrize("text,wtext", VERIFY_CASES)
def test_aw_guard_fires_on_verified_scenarios(text, wtext):
    a = adv.load(text)
    w = L(wtext) if wtext else select_forbidden_scenario(classify(a))
    algo = IndexGuardAlgorithm(w)
    for scenario in completions(a, 3):
        t = simulate(algo, scenario, (0, 1))
        assert not t.exhausted, scenario


def test_strawman_violates_agreement(builtins):
    rep = verify(OwnInputAlgorithm(), builtins["S1"], depth=2)
    assert not rep.ok
    kinds = {v.kind for v in rep.violations}
    assert "agreement" in kinds
    # unanimity still satisfied: deciding your own input is valid
    assert "validity" not in kinds


def test_transcript_json_roundtrippable():
    algo = IndexGuardAlgorithm(L("( LW )^w"))
    t = simulate(algo, L("( OK )^w"), (1, 0))
    doc = json.loads(t.to_json())
    assert doc["scenario"] == "( OK )^w"
    assert doc["decisions"]["white"] == doc["decisions"]["black"]
    assert doc["rounds"][0]["letter"] == "OK"


def test_halted_peer_message_absent():
    """Once one process halts the other stops hearing from it even
    under OK letters."""
    algo = IndexGuardAlgorithm(L("( LB )^w"))
    t = simulate(algo, L("( OK )^w"), (0, 1))
    assert not t.exhausted
    hw = t.white.round if t.white.halted else None
    hb = t.black.round
    assert t.decisions[0] == t.decisions[1]


def test_states_and_messages_are_immutable_values():
    """Process states, which are also a round's messages, are named
    tuples: fields cannot be set, equal values hash equal, and
    ``_replace`` makes a changed copy."""
    s = ProcessState(WHITE, 1)
    assert (s.initother, s.ind, s.round, s.decided) == (None, 0, 0, None)
    assert not s.halted
    for attr in ("decided", "round", "ind", "extra"):
        with pytest.raises(AttributeError):
            setattr(s, attr, 0)
    t = s._replace(decided=0, round=2)
    assert t.halted and (t.decided, t.round) == (0, 2)
    assert s.decided is None and not s.halted
    same = ProcessState(WHITE, 1, None, 0, 2, 0)
    assert t == same and hash(t) == hash(same) and len({t, same, s}) == 2


def test_completions_stay_inside(builtins):
    for name in ("C1", "S1", "TW"):
        for scenario in completions(builtins[name], 3):
            assert builtins[name].contains(scenario)


def test_verify_depth_cap(builtins):
    """Depth 10 is the deepest verify accepts."""
    with pytest.raises(ResourceBoundError):
        verify(OwnInputAlgorithm(), builtins["S0"], depth=11)
    c1 = builtins["C1"]
    algo = IndexGuardAlgorithm(select_forbidden_scenario(classify(c1)))
    assert verify(algo, c1, depth=10).to_json() == \
        '{"checked": 92, "ok": true, "violations": []}'
    with pytest.raises(ResourceBoundError,
                       match="^verification depth 11 exceeds bound 10$"):
        verify(algo, c1, depth=11)


def test_index_guard_halts_off_its_guard():
    """In rounds 0..8, at every ind within 4 of t = ind(w|_r), a process
    of either side halts iff |ind - t| > 2, and then decides white's
    input below t and black's above it."""
    algo = IndexGuardAlgorithm(L("LW LB ( OK LW LB )^w"))
    inputs = {WHITE: 0, BLACK: 1}
    for r in range(9):
        t = algo.target_index(r)
        for i in range(t - 4, t + 5):
            for pid, other in ((WHITE, BLACK), (BLACK, WHITE)):
                s = ProcessState(pid, inputs[pid], inputs[other], i, r)
                halted = algo.maybe_halt(s)
                if abs(i - t) <= 2:
                    assert halted == s, (r, i, pid)
                else:
                    want = inputs[WHITE if i < t else BLACK]
                    assert halted == s._replace(decided=want), (r, i, pid)


def test_aw_builds_one_table_per_round(builtins, monkeypatch):
    """Verifying A_w builds each round's table at most once."""
    built = collections.Counter()
    sides = IndexGuardAlgorithm.sides

    def counted(self, r):
        built[r] += 1
        return sides(self, r)

    monkeypatch.setattr(IndexGuardAlgorithm, "sides", counted)
    c1 = builtins["C1"]
    assert verify(IndexGuardAlgorithm(
        select_forbidden_scenario(classify(c1))), c1, 5).ok
    assert built and set(built.values()) == {1}


def test_invariant_checks_survive_optimized_mode():
    """The runtime invariants raise AssertionError under ``python -O``
    too, which strips assert statements."""
    code = """
from twogen.adversary import ONE_TRACK, AdversaryAutomaton
from twogen.indexfn import WHITE
from twogen.protocol import IndexGuardAlgorithm, ProcessState
from twogen.words import GAMMA, parse_lasso
assert False, "assert statements are stripped"
try:
    AdversaryAutomaton(GAMMA, 0, {0: {}}, 1, ONE_TRACK)
except AssertionError as e:
    print("incomplete:", e)
algo = IndexGuardAlgorithm(parse_lasso("( OK )^w"))
try:
    algo.maybe_halt(ProcessState(WHITE, 0, ind=5))
except AssertionError as e:
    print("initother:", e)
"""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), check=True, timeout=60,
    )
    assert proc.stdout.splitlines() == [
        "incomplete: automaton not complete",
        "initother: decided on an absent initother",
    ]


def test_simulate_checks_no_halt_after_its_last_round():
    """Own-input halts at the top of round 1, so one round is not enough."""
    t = simulate(OwnInputAlgorithm(), L("( OK )^w"), (0, 1), max_rounds=1)
    assert not t.white.halted and not t.black.halted
    assert t.exhausted and len(t.rounds) == 1
    t = simulate(OwnInputAlgorithm(), L("( OK )^w"), (0, 1), max_rounds=2)
    assert t.white.halted and t.black.halted
    assert not t.exhausted and len(t.rounds) == 1


def test_target_index_in_any_order():
    w = L("LW LB ( OK LW LB )^w")
    algo = IndexGuardAlgorithm(w)
    for r in (7, 0, 30, 3, 31, 12, 0):
        assert algo.target_index(r) == ind(w.prefix(r))


def test_c1_depth_3_completion_counts(builtins):
    c1 = builtins["C1"]
    assert len(list(completions(c1, 3))) == 9
    assert verify(OwnInputAlgorithm(), c1, 3).checked == 36


# -- reference: verify as one simulation per scenario from round 0 -------


def _ref_verify(algorithm, a, depth):
    budget = depth + 40
    checked = 0
    violations = []
    for scenario in completions(a, depth):
        for inputs in INPUT_VECTORS:
            checked += 1
            t = simulate(algorithm, scenario, inputs, budget)
            dw, db = t.decisions
            if t.exhausted:
                violations.append(Violation(
                    "termination", scenario, inputs,
                    "undecided after %d rounds" % budget,
                ))
                continue
            if dw != db:
                violations.append(Violation(
                    "agreement", scenario, inputs,
                    "white decided %s, black decided %s" % (dw, db),
                ))
            if inputs[0] == inputs[1] and dw != inputs[0]:
                violations.append(Violation(
                    "validity", scenario, inputs,
                    "unanimous %d but white decided %s" % (inputs[0], dw),
                ))
    return Report(checked, violations)


def _assert_verify_matches(algo, a, depths, ref_algo=None):
    kinds = set()
    for depth in depths:
        got = verify(algo, a, depth)
        want = _ref_verify(ref_algo or algo, a, depth)
        assert got.to_json() == want.to_json(), depth
        assert got.violations == want.violations, depth
        kinds |= {v.kind for v in got.violations}
    return kinds


def test_verify_budget_ends_before_a_halt_at_its_last_round(builtins):
    """verify runs depth + 40 rounds: a halt at the top of the next one
    comes too late."""
    for depth in range(3):
        budget = depth + 40
        late = verify(_OwnInputAt(budget), builtins["C1"], depth)
        assert late.checked and {v.kind for v in late.violations} == \
            {"termination"}
        assert len(late.violations) == late.checked
        in_time = verify(_OwnInputAt(budget - 1), builtins["C1"], depth)
        assert {v.kind for v in in_time.violations} == {"agreement"}
        for algo in (_OwnInputAt(budget), _OwnInputAt(budget - 1)):
            _assert_verify_matches(algo, builtins["C1"], (depth,))


class _Contrary(OwnInputAlgorithm):
    """Strawman that decides the other value than its input at round 1."""

    def maybe_halt(self, s):
        return s._replace(decided=1 - s.init) if s.round >= 1 else s


def test_verify_reports_validity_violations(builtins):
    """Deciding 1 - init breaks validity on unanimous inputs and
    agreement on mixed ones, in every one of C1's seven depth-2
    completions."""
    rep = verify(_Contrary(), builtins["C1"], 2)
    scenarios = ["( LB )^w", "( LW )^w", "( OK )^w", "OK ( LB )^w",
                 "OK ( LW )^w", "OK OK ( LB )^w", "OK OK ( LW )^w"]
    want = {"checked": 28, "ok": False, "violations": [
        {"kind": "agreement", "scenario": s, "inputs": [i, 1 - i],
         "detail": "white decided %d, black decided %d" % (1 - i, i)}
        for s in scenarios for i in (0, 1)
    ] + [
        {"kind": "validity", "scenario": s, "inputs": [i, i],
         "detail": "unanimous %d but white decided %d" % (i, 1 - i)}
        for s in scenarios for i in (0, 1)
    ]}
    assert rep.to_json() == json.dumps(want)
    assert rep.to_json() == \
        _ref_verify(_Contrary(), builtins["C1"], 2).to_json()


def test_verify_of_an_empty_adversary_checks_nothing():
    """No word is a prefix of an empty adversary, so the walk yields
    nothing and verify reports no scenario."""
    a = adv.intersect(adv.load("{OK}^w"), adv.load("{LW}^w"))
    assert verify(OwnInputAlgorithm(), a).to_json() == \
        '{"checked": 0, "ok": true, "violations": []}'


def _verify_cases():
    cases = list(adv.BUILTIN_NAMES)
    rng = random.Random(7)
    while len(cases) < len(adv.BUILTIN_NAMES) + 20:
        lassos = [random_gamma_lasso(rng) for _ in range(rng.randint(1, 4))]
        text = "GAMMA^w \\ { %s }" % " , ".join(map(str, lassos))
        if text not in cases:
            cases.append(text)
    return cases


@pytest.mark.parametrize("case", enumerate(_verify_cases()),
                         ids=lambda case: case[1])
def test_verify_matches_one_simulation_per_scenario(case):
    """The walk gives the report, violations in order, of simulating
    every scenario from round 0: with the oracle's w, with a w inside
    the adversary (termination violations) and with own-input
    (agreement violations), at depths 0-3.  One of the algorithms, in
    turn, also goes to depth 4, and on every third case to 5 and 6 (5
    alone for S2, whose four letters give as many words at 5 as three
    at 6)."""
    i, text = case
    a = adv.load(text)
    algos = [IndexGuardAlgorithm(L("( OK )^w")), OwnInputAlgorithm()]
    if set(a.alphabet) == set(GAMMA) and classify(a).solvable:
        algos.append(IndexGuardAlgorithm(
            select_forbidden_scenario(classify(a))))
    deep = (4,) if i % 3 else (4, 5, 6) if len(a.alphabet) == 3 else (4, 5)
    kinds = set()
    for j, algo in enumerate(algos):
        depths = (*range(4), *deep) if j == i // 3 % len(algos) else range(4)
        kinds |= _assert_verify_matches(algo, a, depths)
    if text in ("C1", "S1", "TW"):
        assert {"termination", "agreement"} <= kinds


def test_verify_matches_with_odd_tails_and_aeta():
    """The geometric algorithm agrees with the reference too.  (The name
    predates the fixed tail set.)"""
    # the geometric algorithm materializes deeper levels as runs reach
    # them, in a different order for the walk and for the reference
    for w in ("LW LB ( OK )^w", "OK LB ( LW OK )^w"):
        a = adv.load("GAMMA^w \\ { %s }" % w)
        z = ind_limit(L(w))

        def geometric():
            ts = topo.build_terminating_subdivision(a, z, depth=4)
            return topo.GeometricAlgorithm(ts)

        _assert_verify_matches(geometric(), a, range(4),
                               ref_algo=geometric())


# -- halted runs are final, so they are not replayed ---------------------


@pytest.mark.parametrize("name", ["S1", "C1", "TW"])
def test_the_walk_stops_at_final_words(builtins, name):
    """With the oracle's w the walk yields no word below one whose runs
    have all halted, so it visits fewer words than there are prefixes,
    and verify still counts every completion."""
    a = builtins[name]
    algo = IndexGuardAlgorithm(select_forbidden_scenario(classify(a)))
    final = set()
    walked = 0
    for word, configs, _ in protocol._walk(algo, a, FiniteWord(), 5,
                                           INPUT_VECTORS, _always):
        walked += 1
        assert not word or word[:-1] not in final, word
        if all(map(protocol._halted, configs)):
            final.add(word)
    assert final and walked < len(list(a.extensions(FiniteWord(), 5)))
    assert verify(algo, a, 5).checked == 4 * len(list(completions(a, 5)))


@pytest.mark.parametrize("name", ["S1", "C1", "TW"])
def test_the_walk_goes_below_final_words_it_does_not_stop_at(builtins,
                                                             name):
    """A stop test that is never true lets the walk yield every word of
    ``a.extensions``, in its order; a word below a final one carries
    that word's configurations unchanged."""
    a = builtins[name]
    algo = IndexGuardAlgorithm(select_forbidden_scenario(classify(a)))
    final = {}
    words = []
    for word, configs, _ in protocol._walk(algo, a, FiniteWord(), 5,
                                           INPUT_VECTORS,
                                           lambda configs: False):
        words.append(word)
        if word and word[:-1] in final:
            assert configs == final[word[:-1]], word
        if all(map(protocol._halted, configs)):
            final[word] = configs
    assert words == [w for w, _ in a.extensions(FiniteWord(), 5)]
    assert any(len(w) < 5 for w in final)


def _walk_ends(algo, a, prefix, depth, stop) -> tuple:
    """The runs ``_walk`` ends with ``stop``: their number, and per
    input vector the set of decision pairs of those that are counted."""
    runs = 0
    pairs = [set() for _ in INPUT_VECTORS]
    for _, _, ends in protocol._walk(algo, a, prefix, depth, INPUT_VECTORS,
                                     stop):
        for _, finals, n in ends:
            runs += n * len(finals)
            for found, (white, black) in zip(pairs, finals):
                if n:
                    found.add((white.decided, black.decided))
    return runs, pairs


def _leaf_tails(a, prefix, depth) -> int:
    """The pairs (leaf, x) of a live extension of ``prefix`` by
    ``depth`` letters and a tail x^w of DEFAULT_TAILS accepted after
    it."""
    return sum(a.accepts_from(state, tail)
               for word, state in a.extensions(prefix, depth)
               if len(word) == len(prefix) + depth
               for tail in protocol.DEFAULT_TAILS)


_STOP_CASES = ["S1", "C1", "TW", "R1", "GAMMA^w \\ { LW LB ( OK )^w }"] + [
    "GAMMA^w \\ { %s }" % " , ".join(
        str(random_gamma_lasso(rng)) for _ in range(rng.randint(1, 3)))
    for rng in [random.Random(17)] for _ in range(10)]


@pytest.mark.parametrize("text", _STOP_CASES)
def test_where_the_walk_stops_does_not_change_what_it_ends(text):
    """Stopping at every final word or at none ends the same number of
    runs, four per pair of a leaf and an accepted constant tail, and the
    same decision pairs per input vector: from every prefix of length at
    most 2, to depths 0-3, for own-input deciding at rounds 1-3 and A_w
    with the oracle's w."""
    a = adv.load(text)
    algos = [OwnInputAlgorithm(), _OwnInputAt(2), _OwnInputAt(3)]
    v = classify(a)
    if v.solvable:
        algos.append(IndexGuardAlgorithm(select_forbidden_scenario(v)))
    for prefix, _ in a.extensions(FiniteWord(), 2):
        for depth in range(4):
            leaves = _leaf_tails(a, prefix, depth)
            for algo in algos:
                stopped = _walk_ends(algo, a, prefix, depth, _always)
                walked = _walk_ends(algo, a, prefix, depth,
                                    lambda configs: False)
                assert stopped == walked, (str(prefix), depth)
                assert stopped[0] == 4 * leaves, (str(prefix), depth)


@pytest.mark.parametrize("case", enumerate(halting_cases(5, 6)),
                         ids=lambda case: str(case[0]))
def test_verify_matches_on_runs_that_halt_mid_walk(case):
    """Own-input deciding at round k = 1..4 halts every run at depth k:
    with disagreeing final words the walk expands their completions,
    and with A_w's correct decisions it counts them.  Either way the
    report, violations in order, is that of simulating every scenario."""
    _, (a, algos) = case
    for algo in algos:
        _assert_verify_matches(algo, a, range(6))


@pytest.mark.parametrize("name", ["S1", "C1", "TW"])
def test_halted_runs_are_not_replayed(builtins, monkeypatch, name):
    """With the oracle's w every run has halted by round 5: verify
    counts its completions without resuming one, and verify and explore
    ask for each state's tails once."""
    a = builtins[name]
    algo = IndexGuardAlgorithm(select_forbidden_scenario(classify(a)))
    checked = 4 * len(list(completions(a, 5)))
    calls = {"resume": 0, "accepts": 0}
    resume, accepts = protocol._resume, AdversaryAutomaton.accepts_from

    def counted_resume(*args):
        calls["resume"] += 1
        return resume(*args)

    def counted_accepts(self, *args):
        calls["accepts"] += 1
        return accepts(self, *args)

    monkeypatch.setattr(protocol, "_resume", counted_resume)
    monkeypatch.setattr(AdversaryAutomaton, "accepts_from", counted_accepts)
    rep = verify(algo, a, 5)
    assert rep.ok and rep.checked == checked
    assert calls["resume"] == 0
    assert calls["accepts"] <= 3 * len(a.states)
    calls["accepts"] = 0
    bivalency.explore(algo, a, (0, 1), 4)
    assert calls["accepts"] <= 3 * len(a.states)


@pytest.mark.parametrize("name", ["S1", "C1", "TW"])
def test_halted_violations_are_not_resumed(builtins, monkeypatch, name):
    """Own-input has halted by round 1 and disagrees on mixed inputs:
    verify reads each violating run off its configuration, resuming no
    halted one, and reports what simulating every scenario does."""
    a = builtins[name]
    resumed = []
    resume = protocol._resume

    def counted_resume(algorithm, config, *args):
        resumed.append(protocol._halted(config))
        return resume(algorithm, config, *args)

    monkeypatch.setattr(protocol, "_resume", counted_resume)
    rep = verify(OwnInputAlgorithm(), a, 5)
    assert rep.violations and resumed.count(True) == 0
    assert rep.to_json() == _ref_verify(OwnInputAlgorithm(), a, 5).to_json()


def _run_round(algo, config, letter):
    """One round under ``letter`` as a one-letter ``_run``, then the
    next round's halt checks."""
    return protocol._halt_checks(algo, protocol._run(algo, config, (letter,)))


_GEOMETRIC_W = L("LW LB ( OK )^w")


@functools.cache
def _geometric():
    a = adv.load("GAMMA^w \\ { %s }" % _GEOMETRIC_W)
    ts = topo.build_terminating_subdivision(a, ind_limit(_GEOMETRIC_W), 4)
    return topo.GeometricAlgorithm(ts)


def _lassos(letters, max_stem, max_cycle):
    return st.builds(
        LassoWord.of,
        st.lists(st.sampled_from(letters), max_size=max_stem).map(tuple),
        st.lists(st.sampled_from(letters), min_size=1,
                 max_size=max_cycle).map(tuple))


@settings(max_examples=60, deadline=None)
@given(st.one_of(_lassos(GAMMA, 3, 2).map(IndexGuardAlgorithm),
                 st.just(OwnInputAlgorithm()),
                 st.builds(_geometric)),
       _lassos(G2, 4, 3), st.sampled_from(INPUT_VECTORS),
       st.integers(min_value=0, max_value=12))
def test_a_halted_configuration_is_final(algo, scenario, inputs, rounds):
    """Once both processes have halted, a round under any letter, halt
    checks included, leaves the configuration as it is."""
    step = functools.partial(_run_round, algo)
    start = protocol._halt_checks(algo, protocol._start(algo, inputs))
    for config in itertools.accumulate(
            itertools.islice(scenario.letters(), rounds), step,
            initial=start):
        if protocol._halted(config):
            assert all(step(config, letter) == config for letter in G2)


_GAMMA_W = adv.load("R1")  # GAMMA^w: every GAMMA word is a prefix


@settings(max_examples=60, deadline=None)
@given(st.one_of(_lassos(GAMMA, 3, 2).map(IndexGuardAlgorithm),
                 st.just(OwnInputAlgorithm()),
                 st.builds(_geometric)),
       st.lists(st.sampled_from(GAMMA), max_size=5).map(
           lambda letters: FiniteWord(tuple(letters))),
       st.sampled_from(GAMMA), st.sampled_from(INPUT_VECTORS))
def test_a_tail_letter_resume_equals_simulate(algo, word, letter, inputs):
    """The walk's configuration after ``word``, resumed under a constant
    tail, ends where simulating ``word . letter^w`` from round 0 does."""
    (_, (config,), _), = protocol._walk(algo, _GAMMA_W, word, 0, (inputs,),
                                        _always)
    budget = len(word) + 40
    t = simulate(algo, LassoWord(word, FiniteWord.of(letter)), inputs,
                 budget)
    assert protocol._resume(algo, config, letter, len(word), budget) == \
        (t.white, t.black)


def _walk_matches_runs(algo, prefix, depth) -> int:
    """Checks every configuration ``_walk`` yields on ``_GAMMA_W`` from
    ``prefix`` down ``depth`` letters against ``_run_round`` steps from
    the halt-checked start; returns how many had one process halted."""
    step = functools.partial(_run_round, algo)
    starts = [protocol._halt_checks(algo, protocol._start(algo, inputs))
              for inputs in INPUT_VECTORS]
    one_halted = 0
    for word, configs, _ in protocol._walk(algo, _GAMMA_W, prefix, depth,
                                           INPUT_VECTORS, _always):
        assert configs == [functools.reduce(step, word.letters, start)
                           for start in starts], word
        one_halted += sum(w.halted != b.halted for w, b in configs)
    return one_halted


@settings(max_examples=60, deadline=None)
@given(st.one_of(_lassos(GAMMA, 3, 2).map(IndexGuardAlgorithm),
                 st.just(OwnInputAlgorithm()),
                 st.builds(_geometric)),
       st.lists(st.sampled_from(GAMMA), max_size=6).map(
           lambda letters: FiniteWord(tuple(letters))))
def test_a_walk_step_is_a_run_round(algo, prefix):
    """Each word of length at most 6 that the walk yields carries, per
    input vector, the configuration of its letters played as one-letter
    runs with the halt checks after each."""
    _walk_matches_runs(algo, prefix, 6 - len(prefix))


@pytest.mark.parametrize("algo", [IndexGuardAlgorithm(_GEOMETRIC_W),
                                  _geometric()], ids=["aw", "aeta"])
def test_walk_steps_cover_one_halted_process(algo):
    """The walk step matches ``_run`` where exactly one process has
    halted too: A_w and A_eta reach such configurations by depth 6."""
    assert _walk_matches_runs(algo, FiniteWord(), 6)
