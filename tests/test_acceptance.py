"""Acceptance gate: thirteen end-to-end criteria, one printed
pass/fail line each.  Every criterion is exercised at its stated
tolerance or time budget; failures still print their line before the
assertion surfaces."""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from conftest import all_words, random_gamma_lasso
from twogen import adversary as adv
from twogen import topology as topo
from twogen.bivalency import Valency, valency
from twogen.indexfn import (BLACK, WHITE, ind, ind_inverse, ind_limit,
                            is_special_pair)
from twogen.oracle import (Family, classify, pair_machine_difference,
                           round_lower_bound, select_forbidden_scenario)
from twogen.protocol import (IndexGuardAlgorithm, _delivered,
                             completions, simulate, verify)
from twogen.words import FiniteWord, GAMMA, Letter, parse_lasso, parse_word

FAIR_W = "LW LB ( OK )^w"
FAIR_ADV = "GAMMA^w \\ { LW LB ( OK )^w }"
PAIR_ADV = "GAMMA^w \\ { OK ( LW )^w , LB ( LW )^w }"


@pytest.fixture
def report(capsys):
    @contextmanager
    def _report(num, label):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print("criterion %2d FAIL  %s" % (num, label))
            raise
        with capsys.disabled():
            print("criterion %2d PASS  %s" % (num, label))

    return _report


def test_criterion_01_short_word_index_table(report):
    with report(1, "index table for all twelve short words (< 1 ms)"):
        table = {
            "LB": 0, "OK": 1, "LW": 2,
            "LB LB": 0, "LB OK": 1, "LB LW": 2,
            "OK LW": 3, "OK OK": 4, "OK LB": 5,
            "LW LB": 6, "LW OK": 7, "LW LW": 8,
        }
        words = {text: parse_word(text) for text in table}
        ind(words["LB"])  # warm caches before timing
        start = time.perf_counter()
        got = {text: ind(w) for text, w in words.items()}
        elapsed = time.perf_counter() - start
        assert got == table
        assert elapsed < 0.001, elapsed


def test_criterion_02_index_bijection(report):
    with report(2, "ind bijects words of length r onto 0..3^r-1, "
                   "r <= 8, with two-sided inverse (< 10 s)"):
        start = time.perf_counter()
        for r in range(1, 9):
            seen = {}
            for w in all_words(r):
                k = ind(w)
                assert 0 <= k < 3**r and k not in seen
                seen[k] = w
                assert ind_inverse(r, k) == w
            assert len(seen) == 3**r
            for k in range(3**r):
                assert ind(ind_inverse(r, k)) == k
        assert time.perf_counter() - start < 10


def test_criterion_03_corner_formulas(report):
    with report(3, "ind(LB^r) = 0 and ind(LW^r) = 3^r - 1 for r <= 20"):
        for r in range(1, 21):
            assert ind(FiniteWord((Letter.LB,) * r)) == 0
            assert ind(FiniteWord((Letter.LW,) * r)) == 3**r - 1


def test_criterion_04_builtin_verdicts_and_round_bounds(report, builtins):
    with report(4, "six builtin verdicts (< 1 s each) and round "
                   "lower bounds"):
        expected = {"S0": True, "TW": True, "TB": True,
                    "C1": True, "S1": True, "R1": False}
        for name, solvable in expected.items():
            start = time.perf_counter()
            v = classify(builtins[name])
            assert time.perf_counter() - start < 1, name
            assert v.solvable == solvable, name
        for name in ("C1", "S1"):
            assert round_lower_bound(builtins[name]) == 1, name
        for name in ("S0", "TW", "TB"):
            assert round_lower_bound(builtins[name]) == 0, name


def test_criterion_05_special_pair_machinery(report, builtins):
    with report(5, "special pair with limit 1/3; pair machine matches "
                   "brute force on all word pairs, r <= 5 (< 30 s)"):
        first = parse_lasso("OK ( LW )^w")
        second = parse_lasso("LB ( LW )^w")
        assert is_special_pair(first, second)
        assert ind_limit(first) == ind_limit(second) == Fraction(1, 3)

        start = time.perf_counter()
        comp = adv.complement(builtins["R1"])
        for r in range(1, 6):
            words = list(all_words(r))
            for v, v2 in itertools.product(words, words):
                got = pair_machine_difference(comp, v, v2)
                diffs = [ind(v2[:n]) - ind(v[:n])
                         for n in range(1, r + 1)]
                if all(d in (0, 1) for d in diffs):
                    assert got == diffs[-1], (v, v2)
                else:
                    assert got is None, (v, v2)
        assert time.perf_counter() - start < 30


def test_criterion_06_obstruction_sensitivity(report):
    with report(6, "removing one, then a pairing, then a fair "
                   "scenario flips the verdict as expected"):
        v1 = classify(adv.load("GAMMA^w \\ { OK ( LW )^w }"))
        assert not v1.solvable
        v2 = classify(adv.load(PAIR_ADV))
        assert v2.solvable and Family.F2 in v2.families
        v3 = classify(adv.load(FAIR_ADV))
        assert v3.solvable and Family.F1 in v3.families


VERIFY_CASES = [
    ("C1", None),
    ("S1", None),
    (FAIR_ADV, FAIR_W),
    (PAIR_ADV, "LB ( LW )^w"),
]


def _verify_case(text, wtext):
    a = adv.load(text)
    if wtext is None:
        w = select_forbidden_scenario(classify(a))
    else:
        w = parse_lasso(wtext)
    return a, w, verify(IndexGuardAlgorithm(w), a, depth=4)


def test_criterion_07_index_guard_algorithm_correct(report):
    with report(7, "index-guard algorithm verifies clean on four "
                   "adversaries, depth 4, all inputs (< 2 min)"):
        start = time.perf_counter()
        for text, wtext in VERIFY_CASES:
            _, _, rep = _verify_case(text, wtext)
            assert rep.ok, (text, rep.violations[:3])
            assert rep.checked > 0
        assert time.perf_counter() - start < 120


def test_criterion_08_index_bracket_invariant(report):
    with report(8, "running counters bracket the scenario index at "
                   "every round, exhaustive r <= 5, all inputs"):
        algo = IndexGuardAlgorithm(parse_lasso("( LW )^w"))
        for inputs in ((0, 0), (0, 1), (1, 0), (1, 1)):
            for r in range(1, 6):
                for letters in itertools.product(GAMMA, repeat=r):
                    white = algo.start(WHITE, inputs[0])
                    black = algo.start(BLACK, inputs[1])
                    for a in letters:
                        to_white = black if _delivered(a, BLACK) else None
                        to_black = white if _delivered(a, WHITE) else None
                        white = algo.receive(white, to_white)
                        black = algo.receive(black, to_black)
                        i = ind(FiniteWord(letters[:white.round]))
                        assert white.ind % 2 == 0 and black.ind % 2 == 1
                        assert min(white.ind, black.ind) == i
                        assert (black.ind - white.ind) == \
                            (1 if i % 2 == 0 else -1)


def test_criterion_09_guard_behavior(report):
    with report(9, "exit guard silent on the forbidden scenario for "
                   "200 rounds, fires on every verified scenario"):
        w = parse_lasso(FAIR_W)
        algo = IndexGuardAlgorithm(w)
        t = simulate(algo, w, (0, 1), max_rounds=200)
        assert t.exhausted and not t.white.halted and not t.black.halted
        for r, (_, ws, bs) in enumerate(t.rounds, start=1):
            target = algo.target_index(r)
            assert abs(ws.ind - target) <= 2
            assert abs(bs.ind - target) <= 2
        for text, wtext in VERIFY_CASES:
            a = adv.load(text)
            g = parse_lasso(wtext) if wtext else \
                select_forbidden_scenario(classify(a))
            algo = IndexGuardAlgorithm(g)
            for scenario in completions(a, 3):
                assert not simulate(algo, scenario, (0, 1)).exhausted, \
                    (text, scenario)


def test_criterion_10_embedding_and_deterministic_export(report):
    with report(10, "word-to-interval chain and byte-deterministic "
                    "export of the triple subdivision"):
        assert topo.word_to_edge(parse_word("LW")).interval == \
            (Fraction(2, 3), Fraction(1))
        assert topo.word_to_edge(parse_word("LW OK")).interval == \
            (Fraction(7, 9), Fraction(8, 9))
        assert topo.word_to_edge(parse_word("LW OK LB")).interval == \
            (Fraction(23, 27), Fraction(24, 27))

        def chr3():
            c = topo.unit_segment()
            for _ in range(3):
                c = topo.chromatic_subdivision(c)
            return c

        for fmt in ("json", "svg"):
            assert topo.export(chr3(), fmt) == topo.export(chr3(), fmt)


def test_criterion_11_abstract_vs_geometric_gap(report):
    with report(11, "hand-coded stable family: 2 abstract components, "
                    "1 realization component"):
        phi = topo.contrex(6)
        assert topo.abstract_components(phi) == 2
        assert topo.realization_components(phi) == 1


def test_criterion_12_characterization_equivalence(report, builtins):
    with report(12, "solvable iff limit realization disconnected, on "
                    "builtins plus 50 random adversaries (< 1 min)"):
        start = time.perf_counter()
        for name in ("S0", "TW", "TB", "C1", "S1", "R1"):
            conn = topo.limit_connectivity(builtins[name])
            assert conn.connected == \
                (not classify(builtins[name]).solvable), name
        rng = random.Random(41)
        for _ in range(50):
            lassos = tuple(random_gamma_lasso(rng)
                           for _ in range(rng.randint(1, 3)))
            a = adv.compile_expr(adv.DifferenceFromFull(GAMMA, lassos))
            conn = topo.limit_connectivity(a)
            assert conn.connected == (not classify(a).solvable), lassos
        assert time.perf_counter() - start < 60


def test_criterion_13_geometric_algorithm(report):
    with report(13, "geometric algorithm from the oracle's gap point "
                    "verifies clean and decides unanimously"):
        a = adv.load(FAIR_ADV)
        z = topo.gap_point(classify(a))
        ts = topo.build_terminating_subdivision(a, z, depth=10)
        algo = topo.GeometricAlgorithm(ts)
        rep = verify(algo, a, depth=4)
        assert rep.ok, rep.violations[:3]
        for tail in ("( OK )^w", "( LW )^w", "( LB )^w"):
            for bit in (0, 1):
                t = simulate(algo, parse_lasso(tail), (bit, bit))
                assert not t.exhausted and t.decisions == (bit, bit)
