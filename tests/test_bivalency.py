import json
import os
import random
import sys
import tempfile

import pytest

from conftest import _OwnInputAt, halting_cases, random_gamma_lasso
from twogen import adversary as adv
from twogen import bivalency, oracle, protocol
from twogen.bivalency import (DecisiveReport, ExplorationNode, Valency,
                              _decisions_below, explore, find_decisive,
                              valency)
from twogen.protocol import (DEFAULT_TAILS, INPUT_VECTORS,
                             IndexGuardAlgorithm, OwnInputAlgorithm, _walk,
                             simulate)
from twogen.words import FiniteWord, LassoWord, parse_lasso, parse_word

FAIR = "GAMMA^w \\ { LW LB ( OK )^w }"
PAIR = "GAMMA^w \\ { OK ( LW )^w , LB ( LW )^w }"


def _setup(text, wtext):
    a = adv.load(text)
    return a, IndexGuardAlgorithm(parse_lasso(wtext))


def test_epsilon_bivalent_for_mixed_inputs():
    a, algo = _setup(FAIR, "LW LB ( OK )^w")
    assert valency(algo, a, FiniteWord(), (0, 1), 4) is Valency.BIVALENT


def test_epsilon_univalent_for_unanimous_inputs():
    a, algo = _setup(FAIR, "LW LB ( OK )^w")
    assert valency(algo, a, FiniteWord(), (0, 0), 4) is Valency.ZERO_VALENT
    assert valency(algo, a, FiniteWord(), (1, 1), 4) is Valency.ONE_VALENT


def test_prefix_not_in_adversary_rejected(builtins):
    algo = IndexGuardAlgorithm(parse_lasso("( LW )^w"))
    with pytest.raises(ValueError):
        valency(algo, builtins["S0"], parse_word("LB"), (0, 1), 2)


def test_valency_monotone_under_extension():
    """A univalent prefix never has an opposite-valent extension."""
    a, algo = _setup(FAIR, "LW LB ( OK )^w")
    for prefix in sorted(a.prefixes(1), key=str):
        v = valency(algo, a, prefix, (0, 1), 3)
        if v not in (Valency.ZERO_VALENT, Valency.ONE_VALENT):
            continue
        for child in sorted(a.prefixes(2), key=str):
            if child.letters[:1] != prefix.letters:
                continue
            assert valency(algo, a, child, (0, 1), 2) is v


def test_bivalent_prefix_has_interesting_children():
    """A bivalent node either keeps a bivalent child or splits into
    children of both valencies."""
    a, algo = _setup(FAIR, "LW LB ( OK )^w")
    tree = explore(algo, a, (0, 1), 3)

    def check(node):
        if node.valency is Valency.BIVALENT and node.children:
            vals = [c.valency for c in node.children]
            assert (
                Valency.BIVALENT in vals
                or (Valency.ZERO_VALENT in vals
                    and Valency.ONE_VALENT in vals)
            ), node.prefix
        for c in node.children:
            check(c)

    check(tree)


def test_explore_tree_shape():
    a, algo = _setup(FAIR, "LW LB ( OK )^w")
    tree = explore(algo, a, (0, 1), 2)
    doc = tree.to_dict()
    assert doc["prefix"] == ""
    assert doc["valency"] == "Bivalent"
    assert {c["prefix"] for c in doc["children"]} == {"LB", "OK", "LW"}
    json.dumps(doc)  # serializable


def test_decisive_for_pair_adversary():
    """Both excluded scenarios diverge at the first letter, so the
    empty prefix is decisive: bivalent with univalent children only."""
    a, algo = _setup(PAIR, "LB ( LW )^w")
    rep = find_decisive(algo, a, (0, 1), 3)
    assert FiniteWord() in rep.decisive
    assert not rep.inconclusive


def test_decisive_empty_when_a_fair_word_is_excluded():
    """The prefixes of the excluded scenario remain bivalent at every
    depth and each has a bivalent child, so no decisive prefix exists
    in a bounded search (the excluded word itself is outside the
    adversary and never forces a decision)."""
    a, algo = _setup(FAIR, "LW LB ( OK )^w")
    rep = find_decisive(algo, a, (0, 1), 4)
    assert rep.decisive == []
    assert rep.inconclusive == []


def test_decisive_empty_on_singleton(builtins):
    algo = IndexGuardAlgorithm(parse_lasso("( LW )^w"))
    rep = find_decisive(algo, builtins["S0"], (0, 0), 3)
    assert rep.decisive == []


def test_report_json():
    a, algo = _setup(PAIR, "LB ( LW )^w")
    rep = find_decisive(algo, a, (0, 1), 2)
    doc = json.loads(rep.to_json())
    assert "" in doc["decisive"]


# -- reference: valency by re-enumerating the prefix set per node --------


class _Memo:
    """An adversary with its prefix sets, runs and valencies computed
    once: the reference asks for them again and again, which is slow
    but gives the same answers."""

    def __init__(self, a):
        self.a = a
        self.words = {}
        self.runs = {}
        self.valencies = {}

    def prefixes(self, r):
        """The length-r prefixes in ``str`` order (a dict, for lookups)."""
        if r not in self.words:
            self.words[r] = dict.fromkeys(sorted(self.a.prefixes(r), key=str))
        return self.words[r]

    def simulate(self, algorithm, scenario, inputs, budget):
        key = (algorithm, scenario, inputs, budget)
        if key not in self.runs:
            self.runs[key] = simulate(algorithm, scenario, inputs, budget)
        return self.runs[key]


def _ref_completions_of(m, prefix, depth):
    n = len(prefix)
    seen = set()
    for extra in range(depth + 1):
        for word in m.prefixes(n + extra):
            if word.letters[:n] != prefix.letters:
                continue
            for tail in DEFAULT_TAILS:
                lasso = LassoWord(word + tail.stem, tail.cycle)
                if lasso in seen:
                    continue
                seen.add(lasso)
                if m.a.contains(lasso):
                    yield lasso


def _ref_valency(algorithm, m, prefix, inputs, depth):
    key = (algorithm, prefix, inputs, depth)
    if key not in m.valencies:
        m.valencies[key] = _ref_valency_of(algorithm, m, prefix, inputs,
                                           depth)
    return m.valencies[key]


def _ref_valency_of(algorithm, m, prefix, inputs, depth):
    if prefix not in m.prefixes(len(prefix)):
        raise ValueError("not a prefix")
    budget = len(prefix) + depth + 40
    decided = set()
    undecided = False
    for scenario in _ref_completions_of(m, prefix, depth):
        t = m.simulate(algorithm, scenario, inputs, budget)
        if t.exhausted:
            undecided = True
            continue
        decided.update(t.decisions)
    if decided == {0} and not undecided:
        return Valency.ZERO_VALENT
    if decided == {1} and not undecided:
        return Valency.ONE_VALENT
    if {0, 1} <= decided:
        return Valency.BIVALENT
    return Valency.UNDETERMINED


def _ref_explore(algorithm, m, inputs, depth):
    def node(prefix):
        v = _ref_valency(algorithm, m, prefix, inputs, depth - len(prefix))
        n = ExplorationNode(prefix, v)
        if len(prefix) < depth and v is Valency.BIVALENT:
            for child in m.prefixes(len(prefix) + 1):
                if child.letters[: len(prefix)] == prefix.letters:
                    n.children.append(node(child))
        return n

    return node(FiniteWord())


def _ref_find_decisive(algorithm, m, inputs, depth):
    univalent = (Valency.ZERO_VALENT, Valency.ONE_VALENT)
    decisive, inconclusive = [], []
    frontier = [FiniteWord()]
    for level in range(depth + 1):
        next_frontier = []
        for prefix in frontier:
            if _ref_valency(algorithm, m, prefix, inputs,
                            depth - level) is not Valency.BIVALENT:
                continue
            children = [
                w for w in m.prefixes(level + 1)
                if w.letters[:level] == prefix.letters
            ]
            vals = [
                _ref_valency(algorithm, m, w, inputs,
                             max(depth - level - 1, 0))
                for w in children
            ]
            if all(v in univalent for v in vals):
                decisive.append(prefix)
            elif any(v is Valency.UNDETERMINED for v in vals):
                inconclusive.append(prefix)
            if level < depth:
                next_frontier.extend(
                    w for w, v in zip(children, vals)
                    if v is Valency.BIVALENT)
        frontier = next_frontier
    return DecisiveReport(decisive, inconclusive)


def _differential_cases():
    cases = [(FAIR, "LW LB ( OK )^w"), (PAIR, "LB ( LW )^w"),
             ("C1", "LB OK ( LB OK LW LB LW OK LW LB )^w"),
             ("S1", "( LB LW )^w"), ("TW", "( LB )^w")]
    rng = random.Random(41)
    while len(cases) < 15:
        lassos = [random_gamma_lasso(rng) for _ in range(rng.randint(1, 4))]
        text = "GAMMA^w \\ { %s }" % " , ".join(map(str, lassos))
        if oracle.classify(adv.load(text)).solvable:
            cases.append((text, str(lassos[0])))
    return cases


@pytest.mark.parametrize("text,w", _differential_cases())
def test_walk_matches_reenumeration(text, w):
    a = adv.load(text)
    m = _Memo(a)
    for algo in (IndexGuardAlgorithm(parse_lasso(w)), OwnInputAlgorithm()):
        for inputs in INPUT_VECTORS:
            for depth in range(4):
                # the root of the tree is valency(algo, a, "", inputs, depth)
                assert explore(algo, a, inputs, depth).to_dict() == \
                    _ref_explore(algo, m, inputs, depth).to_dict()
                assert find_decisive(algo, a, inputs, depth).to_json() == \
                    _ref_find_decisive(algo, m, inputs, depth).to_json()


@pytest.mark.parametrize("case", enumerate(halting_cases(5, 6)),
                         ids=lambda case: str(case[0]))
def test_walk_matches_reenumeration_on_runs_that_halt_mid_walk(case):
    """Own-input deciding at round k = 1..4 halts every run at depth k,
    and on mixed inputs the final words are bivalent: the tree goes
    below them into entries the walk reaches without running them."""
    _, (a, algos) = case
    m = _Memo(a)
    leaf = explore(algos[1], a, (0, 1), 3)  # k = 2: final at depth 2
    while leaf.children:
        leaf = leaf.children[0]
    assert len(leaf.prefix) == 3
    for algo in algos:
        for inputs in INPUT_VECTORS:
            for depth in range(4):
                assert explore(algo, a, inputs, depth).to_dict() == \
                    _ref_explore(algo, m, inputs, depth).to_dict()
                assert find_decisive(algo, a, inputs, depth).to_json() == \
                    _ref_find_decisive(algo, m, inputs, depth).to_json()


def test_a_final_word_with_no_tail_below_is_undetermined():
    """Below LB only LB ( OK LW )^w is allowed, which no constant tail
    completes: own-input's runs have all halted there, yet LB and its
    extensions stay Undetermined, as in the reference."""
    a = adv.load("( OK )^w | LB LB ( OK LW )^w")
    m = _Memo(a)
    assert valency(_OwnInputAt(1), a, parse_word("LB"), (0, 1), 2) is \
        Valency.UNDETERMINED
    for k in (1, 2, 3):
        for depth in range(4):
            assert explore(_OwnInputAt(k), a, (0, 1), depth).to_dict() == \
                _ref_explore(_OwnInputAt(k), m, (0, 1), depth).to_dict()


def _verify_bench_differences() -> list:
    """The six differences of the first ``verify`` benchmark block for
    seed 1, read from ``bench/workloads.py``."""
    bench = os.path.join(os.path.dirname(__file__), "..", "bench")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    import workloads
    with tempfile.TemporaryDirectory() as tmp:
        block = workloads.Verify(1, tmp).block(0)
    return [text for kind, text, _ in block if kind == "diff"]


@pytest.mark.parametrize("text", ["S1", "TW", "C1"]
                         + _verify_bench_differences())
def test_agreeing_final_words_are_entered_alone(text):
    """A_w with the oracle's w decides correctly, so the runs of every
    final word agree: the map holds exactly the words the walk runs, in
    its order, and nothing below a final word, while the tree is the
    reference's."""
    a = adv.load(text)
    algo = IndexGuardAlgorithm(
        oracle.select_forbidden_scenario(oracle.classify(a)))
    walked = [w for w, _, _ in _walk(algo, a, FiniteWord(), 4, ((0, 1),),
                                     lambda configs: True)]
    assert list(_decisions_below(algo, a, FiniteWord(), (0, 1), 4)) == walked
    assert explore(algo, a, (0, 1), 4).to_dict() == \
        _ref_explore(algo, _Memo(a), (0, 1), 4).to_dict()


@pytest.mark.parametrize("name", ["S1", "TW", "C1"])
def test_disagreeing_final_words_keep_their_subtrees(builtins, name):
    """Own-input deciding at round k disagrees on inputs (0, 1), so its
    final words are bivalent and the tree goes below them: the walk
    goes on below them, the map holds every live extension, and the
    tree is the reference's."""
    a = builtins[name]
    m = _Memo(a)
    every = [w for w, _ in a.extensions(FiniteWord(), 4)]
    for algo in (OwnInputAlgorithm(), _OwnInputAt(2), _OwnInputAt(3)):
        walked = [w for w, _, _ in _walk(algo, a, FiniteWord(), 4,
                                         ((0, 1),), lambda configs: True)]
        assert len(walked) < len(every)
        assert list(_decisions_below(algo, a, FiniteWord(), (0, 1), 4)) == \
            every
        assert explore(algo, a, (0, 1), 4).to_dict() == \
            _ref_explore(algo, m, (0, 1), 4).to_dict()


def test_walk_matches_reenumeration_with_odd_tails():
    """Valency of every prefix up to length 2, not only of the tree's
    nodes.  (The name predates the fixed tail set.)"""
    depth = 2
    for text, w in ((FAIR, "LW LB ( OK )^w"), ("C1", "( LB )^w")):
        a = adv.load(text)
        m = _Memo(a)
        for algo in (IndexGuardAlgorithm(parse_lasso(w)), OwnInputAlgorithm()):
            for prefix in [p for n in range(3)
                           for p in sorted(a.prefixes(n), key=str)]:
                for inputs in INPUT_VECTORS:
                    assert valency(algo, a, prefix, inputs, depth) is \
                        _ref_valency(algo, m, prefix, inputs, depth), \
                        (prefix, inputs)
        algo = IndexGuardAlgorithm(parse_lasso(w))
        for depth in range(3):
            assert explore(algo, a, (0, 1), depth).to_dict() == \
                _ref_explore(algo, m, (0, 1), depth).to_dict()
            assert find_decisive(algo, a, (0, 1), depth).to_json() == \
                _ref_find_decisive(algo, m, (0, 1), depth).to_json()


def test_valency_error_order(builtins):
    """Prefix too long, then not a prefix, then too deep a search."""
    algo = OwnInputAlgorithm()
    r1 = builtins["R1"]
    with pytest.raises(adv.ResourceBoundError):
        valency(algo, builtins["S0"], parse_word("LB " * 13), (0, 1), 0)
    with pytest.raises(ValueError):
        valency(algo, builtins["S0"], parse_word("LB"), (0, 1), 20)
    with pytest.raises(adv.ResourceBoundError):
        valency(algo, r1, parse_word("LB LB"), (0, 1), 11)
    with pytest.raises(adv.ResourceBoundError):
        explore(algo, r1, (0, 1), 13)


def test_budget_ends_before_a_halt_at_its_last_round(builtins):
    """A search to depth 2 from a prefix p runs len(p) + 42 rounds: a
    halt at the top of the next one comes too late."""
    c1 = builtins["C1"]
    for prefix in (FiniteWord(), parse_word("OK"), parse_word("OK LW")):
        n = len(prefix)
        assert valency(_OwnInputAt(n + 42), c1, prefix, (0, 0), 2) is \
            Valency.UNDETERMINED
        assert valency(_OwnInputAt(n + 41), c1, prefix, (0, 0), 2) is \
            Valency.ZERO_VALENT
    assert explore(_OwnInputAt(42), c1, (0, 0), 2).valency is \
        Valency.UNDETERMINED
    assert explore(_OwnInputAt(41), c1, (0, 0), 2).valency is \
        Valency.ZERO_VALENT


@pytest.mark.parametrize("name", ["S1", "C1", "TW"])
def test_runs_resume_only_at_the_depth_limit(builtins, monkeypatch, name):
    """Every completion of an inner word is one of a word at the depth
    limit (w . x^w is w x^m . x^w), so the walk resumes runs only there,
    as ``verify`` does: in ``explore`` to depths 0-4 and in the
    one-letter walks ``find_decisive`` runs below the tree's leaves.
    Halted runs are not resumed, so own-input deciding at round 6 keeps
    runs going at every depth limit."""
    a = builtins[name]
    walks, seen = [], set()

    def below(algorithm, a, prefix, inputs, depth):
        walks.append((len(prefix), len(prefix) + depth))
        return decisions_below(algorithm, a, prefix, inputs, depth)

    def resume(algorithm, config, letter, start, budget):
        n, limit = walks[-1]
        assert start == limit, (start, n, limit)
        seen.add((n, start))
        return resume_of(algorithm, config, letter, start, budget)

    decisions_below, resume_of = bivalency._decisions_below, protocol._resume
    monkeypatch.setattr(bivalency, "_decisions_below", below)
    monkeypatch.setattr(protocol, "_resume", resume)
    algo = IndexGuardAlgorithm(
        oracle.select_forbidden_scenario(oracle.classify(a)))
    for algorithm in (algo, OwnInputAlgorithm(), _OwnInputAt(6)):
        for inputs in INPUT_VECTORS:
            for depth in range(5):
                explore(algorithm, a, inputs, depth)
                find_decisive(algorithm, a, inputs, depth)
    assert {start for n, start in seen if not n} == set(range(5))
    assert {start for n, start in seen if n} >= {2, 3, 4, 5}  # one letter
