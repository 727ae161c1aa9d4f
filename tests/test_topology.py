import collections
import itertools
import random
import sys
import time
from bisect import bisect_right
from fractions import Fraction

import pytest

import topology_reference
from conftest import all_words, random_gamma_lasso
from test_golden_topology import ADVERSARIES as GOLDEN_ADVERSARIES
from twogen import adversary as adv
from twogen import bivalency
from twogen import topology as topo
from twogen.adversary import ResourceBoundError
from twogen.indexfn import (BLACK, WHITE, TernaryRational, ind, ind_inverse,
                            ind_limit)
from twogen.oracle import classify
from twogen.protocol import (INPUT_VECTORS, ProcessState, completions,
                             simulate, verify)
from twogen.words import FiniteWord, GAMMA, LassoWord, Letter, parse_lasso, \
    parse_word

FAIR_W = "LW LB ( OK )^w"
FAIR_ADV = "GAMMA^w \\ { LW LB ( OK )^w }"
LONG_W = "LB" + " LW" * 10 + " ( OK )^w"


@pytest.fixture(scope="module")
def fair_setup():
    a = adv.load(FAIR_ADV)
    z = ind_limit(parse_lasso(FAIR_W))
    ts = topo.build_terminating_subdivision(a, z, depth=10)
    return a, z, ts


def test_unit_segment_and_chr_colors():
    c = topo.chromatic_subdivision(topo.unit_segment())
    got = sorted(
        ((v.position.value, v.color) for v in c.vertices()),
    )
    assert got == [
        (Fraction(0), WHITE), (Fraction(1, 3), BLACK),
        (Fraction(2, 3), WHITE), (Fraction(1), BLACK),
    ]
    assert len(c.edges) == 3


def test_chr_iterates():
    c = topo.unit_segment()
    for r in range(1, 4):
        c = topo.chromatic_subdivision(c)
        assert len(c.edges) == 3**r
    for e in c.edges:
        assert e.a.color != e.b.color


def test_chr_square():
    c = topo.chromatic_subdivision(topo.square_complex())
    assert len(c.edges) == 12
    corners = [v for v in c.vertices() if v.position.value in (0, 1)]
    assert len(corners) == 8  # 4 corners, each shared by 2 segments
    assert topo.abstract_components(c) == 1


def test_word_edge_chain():
    assert topo.word_to_edge(parse_word("LW")).interval == \
        (Fraction(2, 3), Fraction(1))
    assert topo.word_to_edge(parse_word("LW OK")).interval == \
        (Fraction(7, 9), Fraction(8, 9))
    assert topo.word_to_edge(parse_word("LW OK LB")).interval == \
        (Fraction(23, 27), Fraction(24, 27))
    with pytest.raises(ValueError):
        topo.word_to_edge(parse_word("OK LL"))


@pytest.mark.parametrize("r", range(1, 6))
def test_word_edge_bijection(r):
    """Words of length r map bijectively onto the 3^r subdivision
    cells, and adjacent cells share a vertex colored by the parity of
    the smaller index (even index => shared vertex black)."""
    edges = {}
    for w in all_words(r):
        e = topo.word_to_edge(w)
        edges[e.interval] = e
    assert len(edges) == 3**r
    cells = sorted(edges)
    for k, (left, right) in enumerate(zip(cells, cells[1:])):
        assert left[1] == right[0]
        shared = topo.vertex_at(left[1])
        assert shared.color == (BLACK if k % 2 == 0 else WHITE)


def test_protocol_complex_counts(builtins):
    assert len(topo.protocol_complex(builtins["R1"], 1).edges) == 12
    assert len(topo.protocol_complex(builtins["S0"], 2).edges) == 4
    assert len(topo.protocol_complex(builtins["C1"], 1).edges) == 12
    assert len(topo.protocol_complex(builtins["C1"], 8).edges) == 68
    with pytest.raises(ResourceBoundError):
        topo.protocol_complex(builtins["R1"], 9)


def _stable_words(ts):
    """The words of each level's stable cells, read back from the
    cells, in ``str`` order."""
    return {k: tuple(sorted((ind_inverse(k, int(e.interval[0] * 3**k))
                             for e in edges), key=str))
            for k, edges in ts.levels.items()}


def test_terminating_subdivision_antichain(fair_setup):
    _, _, ts = fair_setup
    words = [w for level in _stable_words(ts).values() for w in level]
    assert words
    for w1, w2 in itertools.combinations(words, 2):
        shorter, longer = sorted((w1, w2), key=len)
        assert longer.letters[: len(shorter)] != shorter.letters, (w1, w2)


def test_terminating_subdivision_edges_avoid_z(fair_setup):
    _, z, ts = fair_setup
    for level, edges in ts.levels.items():
        for e in edges:
            lo, hi = e.interval
            assert not (lo <= z <= hi)
            assert hi - lo == Fraction(1, 3**level)


def test_terminating_subdivision_both_sides(fair_setup):
    _, z, ts = fair_setup
    lows = [e.interval[1] for level in ts.levels.values() for e in level]
    assert any(x <= z for x in lows)
    assert any(x > z for x in lows)


def test_admissibility(fair_setup):
    """Every scenario completing a depth-4 prefix of the adversary has a
    stable prefix: the subdivision terminates on it."""
    a, _, ts = fair_setup
    stable = {w for level in _stable_words(ts).values() for w in level}
    scenarios = list(completions(a, 4))
    assert scenarios
    for lasso in scenarios:
        assert any(lasso.prefix(n) in stable
                   for n in range(1, ts._depth + 1)), lasso


def test_not_a_gap_point(builtins):
    with pytest.raises(ValueError):
        topo.build_terminating_subdivision(
            builtins["R1"], Fraction(1, 3), depth=4
        )


@pytest.mark.parametrize("z", [Fraction(2, 5), Fraction(1, 7)])
def test_limit_of_a_periodic_scenario_is_not_a_gap(builtins, z):
    """2/5 and 1/7 are limits of (OK LW)^w and (LB OK LW)^w, which no
    frontier word followed by a constant tail reaches."""
    with pytest.raises(ValueError, match="not a gap point") as info:
        topo.build_terminating_subdivision(builtins["R1"], z, depth=10)
    witness = parse_lasso(str(info.value).split("limit of ")[1])
    assert builtins["R1"].contains(witness)
    assert ind_limit(witness) == z


def test_index_fiber_matches_limit():
    rng = random.Random(8)
    for _ in range(300):
        lasso = random_gamma_lasso(rng, 4, 4)
        z = ind_limit(lasso)
        fiber = topo.index_fiber(z)
        assert fiber.contains(lasso)
        assert ind_limit(fiber.is_empty()) == z
        other = random_gamma_lasso(rng, 4, 4)
        assert fiber.contains(other) == (ind_limit(other) == z), other


def test_index_fiber_bounds():
    # 1/100003 repeats with period 100,002 in base 3
    with pytest.raises(ResourceBoundError):
        topo.index_fiber(Fraction(1, 100003))
    with pytest.raises(ResourceBoundError):
        topo.build_terminating_subdivision(
            adv.load(FAIR_ADV), Fraction(1, 100003))
    for z in (Fraction(-1, 3), Fraction(4, 3)):
        with pytest.raises(ValueError):
            topo.index_fiber(z)
        with pytest.raises(ValueError):
            topo.build_terminating_subdivision(adv.load(FAIR_ADV), z)


def test_index_fiber_bound_on_a_power_of_three():
    start = time.perf_counter()
    with pytest.raises(ResourceBoundError):
        topo.index_fiber(Fraction(1, 3**70000))
    assert time.perf_counter() - start < 0.5
    z = Fraction(1, 3**60)
    assert ind_limit(topo.index_fiber(z).is_empty()) == z


def test_ternary_reduction_on_a_power_of_three():
    """Large powers of 3 reduce by repeated squaring, not one factor at
    a time."""
    start = time.perf_counter()
    v = topo.vertex_at(Fraction(1, 3**40000))
    assert time.perf_counter() - start < 0.1
    assert (v.position.numerator, v.position.exponent) == (1, 40000)
    start = time.perf_counter()
    t = TernaryRational(3**40000, 40000)
    assert time.perf_counter() - start < 0.1
    assert (t.numerator, t.exponent) == (1, 0)
    assert TernaryRational(0, 5) == TernaryRational(0, 0)
    assert TernaryRational(2 * 3**7, 5) == TernaryRational(2 * 9, 0)
    with pytest.raises(ValueError):
        topo.vertex_at(Fraction(1, 2 * 3**40000))


def _cell_test_levels(a, z, depth):
    """Stable words per level found the direct way: a live child is
    stable when its cell [ind, ind + 1]/3^k does not contain z."""
    frontier = [(FiniteWord(), a.initial)]
    levels = {}
    for k in range(1, depth + 1):
        stable, deeper = [], []
        for w, state in frontier:
            for letter in GAMMA:
                nxt, _ = a.step(state, letter)
                if nxt not in a.live:
                    continue
                child = w + FiniteWord.of(letter)
                lo = Fraction(ind(child), 3**k)
                if lo <= z <= lo + Fraction(1, 3**k):
                    deeper.append((child, nxt))
                else:
                    stable.append(child)
        levels[k] = tuple(sorted(stable, key=str))
        frontier = deeper
    return levels


def test_fiber_levels_match_cell_test():
    rng = random.Random(14)
    points = 0
    while points < 120:
        lassos = tuple(random_gamma_lasso(rng, 4, 3)
                       for _ in range(rng.randint(1, 3)))
        a = adv.compile_expr(adv.DifferenceFromFull(GAMMA, lassos))
        v = classify(a)
        if not v.solvable:
            continue
        points += 1
        z = topo.gap_point(v)
        depth = rng.randint(1, 14)
        ts = topo.build_terminating_subdivision(a, z, depth)
        want = _cell_test_levels(a, z, depth)
        words = _stable_words(ts)
        assert {k: words[k] for k in want} == want, (lassos, z)


def test_eta_bounds(fair_setup):
    _, _, ts = fair_setup
    eta = topo.eta_of(ts)
    for level, edges in ts.levels.items():
        for e in edges:
            for v in (e.a, e.b):
                assert eta[v] <= Fraction(1, 3 ** (level + 1))


def test_eta_soundness(fair_setup):
    """Within eta of any stable vertex, every point of the stable
    realization lies on the same side of z, so the decision map is
    constant there."""
    _, z, ts = fair_setup
    eta = topo.eta_of(ts)
    delta = topo.side_decision_map(z)
    intervals = [
        e.interval for level in ts.levels.values() for e in level
    ]
    for y, h in eta.items():
        side = delta(y.position.value)
        for lo, hi in intervals:
            # clip the eta-ball to this interval and check both ends
            a = max(lo, y.position.value - h)
            b = min(hi, y.position.value + h)
            if a > b:
                continue
            assert delta(a) == side and delta(b) == side, (y, lo, hi)


def test_finished_examples(fair_setup):
    _, z, ts = fair_setup
    assert topo.finished_witness(1, Fraction(1, 2), ts) is None
    # deep inside a level-1 stable cell, a round-3 ball fits
    assert topo.finished_witness(3, Fraction(1, 6), ts) is not None


@pytest.mark.parametrize("w", [FAIR_W, LONG_W])
def test_shallow_subdivision_answers_like_a_deep_one(w):
    """A subdivision grows as far as a round's radii need, so the depth
    it was built to changes no answer."""
    a = adv.load("GAMMA^w \\ { %s }" % w)
    z = ind_limit(parse_lasso(w))
    shallow = topo.build_terminating_subdivision(a, z, depth=2)
    deep = topo.build_terminating_subdivision(a, z, depth=30)
    for r in range(8):
        for k in range(3**r + 1):
            x = Fraction(k, 3**r)
            assert topo.finished_witness(r, x, shallow) == \
                topo.finished_witness(r, x, deep), (r, x)
    assert topo.finished_witness(5, Fraction(1, 6), shallow) is not None


def _reference_eta(ts):
    """Halting radii read off the materialized levels with Fractions."""
    radius = {}
    for k in sorted(ts.levels):
        r = Fraction(1, 3 ** (k + 1))
        for e in ts.levels[k]:
            for v in (e.a, e.b):
                radius[v] = min(radius.get(v, r), r)
    return radius


def _reference_edges(ts, radius):
    """The stable edges as (level, lo, hi, eta_a, eta_b, pos_a, pos_b)
    Fraction tuples, in level order."""
    return [(k, *e.interval, radius[e.a], radius[e.b],
             e.a.position.value, e.b.position.value)
            for k in sorted(ts.levels) for e in ts.levels[k]]


def _reference_finished_witness(r, x, edges):
    """The Finished search in Fractions, on edges of levels
    materialized past r."""
    x = Fraction(x)
    ball = Fraction(1, 3**r)
    pow3 = 3**r
    kx = (x.numerator * pow3) // x.denominator
    best = None
    best_key = None
    for k, lo, hi, eta_a, eta_b, pos_a, pos_b in edges:
        if k > r:
            break
        klo = -((-lo.numerator * pow3) // lo.denominator)
        khi = (hi.numerator * pow3) // hi.denominator
        if klo > khi:
            continue
        h_edge = min(eta_a, eta_b)
        for kc in {max(klo, min(khi, kx)), max(klo, min(khi, kx + 1))}:
            y = Fraction(kc, pow3)
            if y == pos_a:
                h = eta_a
            elif y == pos_b:
                h = eta_b
            else:
                h = h_edge
            if abs(x - y) + ball < h:
                key = (abs(x - y), y)
                if best_key is None or key < best_key:
                    best, best_key = y, key
    return topo.vertex_at(best) if best is not None else None


def _differential_gap_points():
    """(adversary, gap point) pairs: 1/3 from a removed special pair,
    60 from seeded differences, and 18 whose scenario ends in a run of
    nine LB or nine LW letters."""
    both = adv.load("GAMMA^w \\ { OK ( LW )^w , LB ( LW )^w }")
    cases = [(both, Fraction(1, 3))]
    rng = random.Random(90)
    seen = {Fraction(1, 3)}
    while len(cases) < 61:
        lassos = tuple(random_gamma_lasso(rng, 4, 3)
                       for _ in range(rng.randint(1, 3)))
        a = adv.compile_expr(adv.DifferenceFromFull(GAMMA, lassos))
        v = classify(a)
        if v.solvable and topo.gap_point(v) not in seen:
            seen.add(topo.gap_point(v))
            cases.append((a, topo.gap_point(v)))
    for u in itertools.product(GAMMA, repeat=2):
        for x in (Letter.LB, Letter.LW):
            lasso = LassoWord.of(u + (x,) * 9, (Letter.OK,))
            cases.append((adv.compile_expr(
                adv.DifferenceFromFull(GAMMA, (lasso,))), ind_limit(lasso)))
    return cases


def test_finished_witness_matches_fraction_reference():
    """Integer Finished on subdivisions built to depths 0-6 against the
    Fraction search with radii read off 60 materialized levels."""
    rng = random.Random(91)
    cases = _differential_gap_points()
    queries = 0
    for a, z in cases:
        deep = topo.build_terminating_subdivision(a, z, depth=60)
        edges = _reference_edges(deep, _reference_eta(deep))
        fresh = [topo.build_terminating_subdivision(a, z, depth=d)
                 for d in range(7)]
        xs = [(r, Fraction(k, 3**r)) for r in range(7)
              for k in range(3**r + 1)]
        xs += [(r, Fraction(rng.randint(0, 3**r), 3**r))
               for r in range(7, 11) for _ in range(10)]
        xs += [(r, Fraction(rng.randint(0, 10**6), 10**6 - rng.randint(0, 7)))
               for r in range(11) for _ in range(3)]
        rng.shuffle(xs)
        assert deep._depth >= max(r for r, _ in xs)
        for i, (r, x) in enumerate(xs):
            want = _reference_finished_witness(r, x, edges)
            got = topo.finished_witness(r, x, fresh[i % len(fresh)])
            assert got == want, (z, r, x)
        queries += len(xs)
        # the radii the queries read were final by level 60
        assert max(ts._depth for ts in fresh) <= 60, z
    assert len(cases) == 79 and queries > 90000


def test_contrex():
    phi = topo.contrex(6)
    assert topo.abstract_components(phi) == 2
    assert topo.realization_components(phi) == 1


def test_contrex_document_counts_like_contrex():
    """Read back from its JSON document, contrex(d) keeps the one
    realization component that ``topo contrex --depth d`` prints."""
    for d in range(1, 13):
        phi = topo.complex_from_json(topo.export(topo.contrex(d)))
        assert topo.realization_components(phi) == 1, d


def test_contrex_level_one_cells():
    phi = topo.contrex(4)
    level1 = sorted(
        e.interval for e in phi.edges if e.level == 1
    )
    assert level1 == [
        (Fraction(0), Fraction(1, 3)), (Fraction(2, 3), Fraction(1)),
    ]


def test_gap_subdivision_two_components(fair_setup):
    _, _, ts = fair_setup
    c = ts.stable_complex()
    assert topo.abstract_components(c) == 2
    assert topo.realization_components(c) == 2


def test_single_edge_components():
    c = topo.unit_segment()
    assert topo.abstract_components(c) == 1
    assert topo.realization_components(c) == 1


def test_connectivity_matches_classify_builtins(builtins):
    for name in ("S0", "TW", "TB", "C1", "S1", "R1"):
        conn = topo.limit_connectivity(builtins[name])
        assert conn.connected == (not classify(builtins[name]).solvable)


def test_connectivity_matches_classify_random():
    rng = random.Random(41)
    for _ in range(50):
        lassos = tuple(
            random_gamma_lasso(rng) for _ in range(rng.randint(1, 3))
        )
        a = adv.compile_expr(adv.DifferenceFromFull(GAMMA, lassos))
        conn = topo.limit_connectivity(a)
        assert conn.connected == (not classify(a).solvable), lassos


def test_connectivity_checks_the_gap(monkeypatch):
    a = adv.load(FAIR_ADV)
    assert topo.limit_connectivity(a).gap == ind_limit(parse_lasso(FAIR_W))
    # (OK)^w, which the adversary keeps, has limit 1/2
    monkeypatch.setattr(topo, "gap_point", lambda v: Fraction(1, 2))
    with pytest.raises(AssertionError, match="limit of"):
        topo.limit_connectivity(a)


def test_pair_removal_connectivity():
    one = adv.load("GAMMA^w \\ { OK ( LW )^w }")
    both = adv.load("GAMMA^w \\ { OK ( LW )^w , LB ( LW )^w }")
    assert topo.limit_connectivity(one).connected
    conn = topo.limit_connectivity(both)
    assert not conn.connected
    assert conn.gap == Fraction(1, 3)


def test_aeta_verify_clean(fair_setup):
    a, _, ts = fair_setup
    algo = topo.GeometricAlgorithm(ts)
    rep = verify(algo, a, depth=4)
    assert rep.ok, rep.violations[:3]


def test_aeta_verify_does_not_depend_on_depth():
    w = LONG_W
    a = adv.load("GAMMA^w \\ { %s }" % w)
    z = ind_limit(parse_lasso(w))
    ts = topo.build_terminating_subdivision(a, z, depth=8)
    before = verify(topo.GeometricAlgorithm(ts), a, depth=3)
    ts.materialize(14)
    after = verify(topo.GeometricAlgorithm(ts), a, depth=3)
    assert before.to_json() == after.to_json()
    assert before.ok, before.violations[:3]


def test_aeta_validity_unanimous(fair_setup):
    _, _, ts = fair_setup
    for tail in ("( OK )^w", "( LW )^w", "( LB )^w"):
        for bit in (0, 1):
            t = simulate(
                topo.GeometricAlgorithm(ts), parse_lasso(tail), (bit, bit)
            )
            assert t.both_halted()
            assert t.decisions == (bit, bit)


def _gap_subdivision(w, depth):
    """The adversary without ``w`` and its subdivision around ind(w)."""
    a = adv.load("GAMMA^w \\ { %s }" % w)
    z = ind_limit(parse_lasso(w))
    return a, topo.build_terminating_subdivision(a, z, depth=depth)


def _level_radii(ts, r):
    """``ts.radii(r)`` on the vertices of levels 1..r."""
    radius = ts.radii(r)
    return {(p.numerator, p.exponent): radius[p.numerator, p.exponent]
            for k in range(1, r + 1) for e in ts.levels[k]
            for p in (e.a.position, e.b.position)}


@pytest.mark.parametrize("w", [FAIR_W, LONG_W])
def test_settled_radii_match_a_fresh_subdivision(w):
    """Asking a settled round again grows nothing: on a subdivision
    grown past round 12 and asked in a shuffled order, and
    on one grown only by the rounds asked of it, in increasing order,
    the radii of levels 1..r are those a fresh subdivision finds for
    r."""
    _, grown = _gap_subdivision(w, 2)
    grown.radii(12)
    grown.materialize(grown._depth + 6)
    depth = grown._depth
    rounds = list(range(1, 13))
    random.Random(7).shuffle(rounds)
    for r in rounds:
        _, fresh = _gap_subdivision(w, 0)
        assert _level_radii(grown, r) == _level_radii(fresh, r), r
    assert grown._depth == depth
    _, asked = _gap_subdivision(w, 0)
    for r in range(1, 13):
        _, fresh = _gap_subdivision(w, 0)
        assert _level_radii(asked, r) == _level_radii(fresh, r), r


@pytest.mark.parametrize("w", [FAIR_W, LONG_W])
def test_aeta_halts_where_finished_says(w):
    """Every (r, ind) up to round 7, asked in a shuffled order and twice
    over, halts A_eta exactly where finished_witness on a separately
    built subdivision holds, deciding by its witness's side: white's
    input 0 on the white side, black's input 1 on the black side."""
    _, ts = _gap_subdivision(w, 2)
    _, fresh = _gap_subdivision(w, 10)
    delta = topo.side_decision_map(fresh.z)
    keys = [(r, i) for r in range(1, 8) for i in range(3**r + 1)]
    want = {}
    for r, i in keys:
        y = topo.finished_witness(r, Fraction(i, 3**r), fresh)
        want[r, i] = (None if y is None
                      else 0 if delta(y.position.value) is WHITE else 1)
    assert None in want.values() and {0, 1} <= set(want.values())
    algo = topo.GeometricAlgorithm(ts)
    rng = random.Random(5)
    for _ in range(2):
        rng.shuffle(keys)
        for r, i in keys:
            for s in (ProcessState(WHITE, 0, 1, i, r),
                      ProcessState(BLACK, 1, 0, i, r)):
                assert algo.maybe_halt(s).decided == want[r, i], (r, i, s.id)


def test_aeta_builds_one_table_per_round(monkeypatch):
    """Verifying A_eta asks finished_witness nothing and builds each
    round's table of sides at most once."""
    a, ts = _gap_subdivision(FAIR_W, 4)
    built = collections.Counter()
    asked = collections.Counter()
    build, finished = topo.finished_sides, topo.finished_witness

    def counted_build(r, ts):
        built[r] += 1
        return build(r, ts)

    def counted_finished(r, x, ts):
        asked[r, x] += 1
        return finished(r, x, ts)

    monkeypatch.setattr(topo, "finished_sides", counted_build)
    monkeypatch.setattr(topo, "finished_witness", counted_finished)
    assert verify(topo.GeometricAlgorithm(ts), a, 3).ok
    assert not asked
    assert built and set(built.values()) == {1}


def _table_adversaries():
    """The golden topology adversaries, TW, TB, S0, 20 seeded solvable
    GAMMA differences, and one whose tables split a piece covered by
    both sides with a white half from round 5 on (gap point 2483/9840)."""
    out = [adv.load(text) for text in GOLDEN_ADVERSARIES + ("TW", "TB", "S0")]
    rng = random.Random(24)
    while len(out) < 29:
        lassos = tuple(random_gamma_lasso(rng)
                       for _ in range(rng.randint(1, 3)))
        a = adv.compile_expr(adv.DifferenceFromFull(GAMMA, lassos))
        if classify(a).solvable:
            out.append(a)
    out.append(adv.load("LW . {LB}^w | LB* . {OK}^w"))
    return out


def test_finished_sides_match_finished_witness():
    """At every index 0..3^r with r <= 8, the round's table gives the
    side of finished_witness's vertex, or None where it has none.  Some
    table has a white run next to a black one: S1's do, and from round
    5 on their ranges of the two sides overlap, so the split is met, on
    both of its halves with the last adversary."""
    adjacent = 0
    for a in _table_adversaries():
        z = topo.gap_point(classify(a))
        ts = topo.build_terminating_subdivision(a, z, depth=2)
        fresh = topo.build_terminating_subdivision(a, z, depth=2)
        delta = topo.side_decision_map(z)
        for r in range(1, 9):
            bounds, sides = topo.finished_sides(r, ts)
            assert bounds == sorted(set(bounds)), (z, r)
            adjacent += any({u, v} == {WHITE, BLACK}
                            for u, v in zip(sides, sides[1:]))
            for i in range(3**r + 1):
                y = topo.finished_witness(r, Fraction(i, 3**r), fresh)
                want = None if y is None else delta(y.position.value)
                assert sides[bisect_right(bounds, i)] is want, (z, r, i)
    assert adjacent


class _UncachedGeometric(topo.GeometricAlgorithm):
    """A_eta asking finished_witness afresh at every halt check."""

    def maybe_halt(self, s):
        r = s.round
        if r == 0:
            return s
        y = topo.finished_witness(r, Fraction(s.ind, 3**r), self.ts)
        if y is None:
            return s
        side = topo.side_decision_map(self.ts.z)(y.position.value)
        value = s.init if side is s.id else s.initother
        if value is None:
            raise AssertionError("decision map points at an unseen input")
        return s._replace(decided=value)


@pytest.mark.parametrize("w", [FAIR_W, LONG_W])
def test_aeta_runs_match_an_uncached_aeta(w):
    """Remembering Finished's answers changes no report, transcript or
    valency tree."""
    a, ts = _gap_subdivision(w, 4)
    _, ref_ts = _gap_subdivision(w, 4)
    algo, ref = topo.GeometricAlgorithm(ts), _UncachedGeometric(ref_ts)
    for depth in (2, 3, 4):
        assert verify(algo, a, depth).to_json() == \
            verify(ref, a, depth).to_json(), depth
    for text in ("( OK )^w", "( LW )^w", "( LB )^w", "LW ( LB )^w",
                 "LB LW LW ( OK )^w", "OK LB ( LW OK )^w"):
        scenario = parse_lasso(text)
        assert a.contains(scenario), text
        for inputs in INPUT_VECTORS:
            assert simulate(algo, scenario, inputs).to_json() == \
                simulate(ref, scenario, inputs).to_json(), (text, inputs)
    for inputs in INPUT_VECTORS:
        assert bivalency.explore(algo, a, inputs, 3).to_dict() == \
            bivalency.explore(ref, a, inputs, 3).to_dict(), inputs


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no integer string conversion limit")
def test_export_json_bounds_the_digits_of_a_position():
    """A position whose denominator has more digits than the
    interpreter converts to a string ends in ResourceBoundError naming
    that limit; the SVG export of the same complex still works."""
    c = topo.Complex((topo.ComplexEdge(topo.vertex_at(Fraction(2, 3**9100)),
                                       topo.vertex_at(Fraction(1, 3**9100))),))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(ResourceBoundError, match="more than 4300 digits"):
            topo.export(c, "json")
    finally:
        sys.set_int_max_str_digits(limit)
    assert topo.export(c, "svg").startswith("<svg")


def test_export_json_roundtrip():
    for c in (topo.unit_segment(), topo.contrex(4),
              topo.chromatic_subdivision(topo.square_complex())):
        doc = topo.export(c, "json")
        again = topo.export(topo.complex_from_json(doc), "json")
        assert again == doc


def test_export_svg_deterministic():
    c3 = topo.chromatic_subdivision(topo.chromatic_subdivision(
        topo.chromatic_subdivision(topo.unit_segment())
    ))
    svg = topo.export(c3, "svg")
    assert svg == topo.export(c3, "svg")
    assert svg.count("<line") == 27
    assert svg.count("<circle") == 28
    assert 'viewBox="0 0 1000 1000"' in svg


def test_export_unknown_format():
    with pytest.raises(ValueError):
        topo.export(topo.unit_segment(), "png")


# ---------------------------------------------------------------------------
# integer export and counting against the Fraction reference


def _random_edges(rng, segment, exponents, low, high):
    """Short bichromatic edges n/3^e -- (n+d)/3^e, d odd, so that the
    numerators differ in parity on every 3-power scale."""
    edges = []
    for _ in range(rng.randint(1, 12)):
        e = rng.choice(exponents)
        n = rng.randint(low * 3**e, high * 3**e)
        d = rng.choice((1, 3, 5, 9, 27, -1, -3))
        edges.append(topo.ComplexEdge(
            topo.ColoredVertex(TernaryRational(n, e), segment),
            topo.ColoredVertex(TernaryRational(n + d, e), segment),
            rng.choice((None, e))))
    return edges


def _random_points(rng, edges):
    """Accumulation points: edge ends and points just beside them, and
    points that are not ternary, 1/2 among them."""
    points = []
    for _ in range(rng.randint(0, 3)):
        p = rng.choice(edges).a.position.value
        points.append(rng.choice((
            p, p + Fraction(1, 3 * p.denominator), p - Fraction(1, 7),
            Fraction(1, 2), Fraction(rng.randint(-9, 9), rng.randint(1, 40)),
        )))
    return tuple(points)


def _random_complexes(rng, count, exponents, low=0, high=1):
    for _ in range(count):
        edges = _random_edges(rng, topo.UNIT, exponents, low, high)
        yield topo.Complex(tuple(edges),
                           accumulation_points=_random_points(rng, edges))


def _assert_export_matches_reference(c):
    verts = c.vertices()
    top = topo._scale(verts)
    assert sorted(verts, key=lambda v: topo._vertex_key(v, top)) == \
        sorted(verts, key=topology_reference.reference_vertex_key)
    for v in verts:
        assert topo._coord(v.segment, v.position) == \
            topology_reference.reference_coord(v.segment, v.position.value), v


def test_realization_components_match_fraction_reference():
    rng = random.Random(92)
    cases = list(_random_complexes(rng, 400, range(0, 9)))
    cases += list(_random_complexes(rng, 200, range(1, 5), low=-1))
    cases += [topo.Complex(topo.contrex(d).edges, accumulation_points=(p,))
              for d in range(1, 13) for p in (Fraction(2, 3), Fraction(1, 2))]
    merged = 0
    for c in cases:
        want = topology_reference.reference_realization_components(c)
        assert topo.realization_components(c) == want, c
        merged += want < topology_reference.reference_realization_components(
            topo.Complex(c.edges))
    # the accumulation points do merge components in some of the cases
    assert merged >= 20


def test_export_matches_fraction_reference():
    rng = random.Random(93)
    for c in _random_complexes(rng, 300, range(0, 9), low=-1, high=2):
        _assert_export_matches_reference(c)
    for _ in range(50):
        edges = [e for seg in topo.SQUARE_SEGMENTS
                 for e in _random_edges(rng, seg, range(0, 7), -1, 1)]
        _assert_export_matches_reference(topo.Complex(tuple(edges)))
    for d in range(1, 13):
        _assert_export_matches_reference(topo.contrex(d))


def test_deep_documents_match_fraction_reference():
    """Documents whose positions carry exponents above 64, read back
    through ``complex_from_json``."""
    rng = random.Random(94)
    for c in _random_complexes(rng, 60, range(65, 130), low=-1):
        doc = topo.export(c, "json")
        assert max(v.position.exponent for v in c.vertices()) > 64
        back = topo.complex_from_json(doc)
        assert topo.export(back, "json") == doc
        _assert_export_matches_reference(back)
        assert topo.realization_components(back) == \
            topology_reference.reference_realization_components(back)


def test_svg_coordinates_of_negative_positions():
    """The sign is formatted apart from the digits: -2/27 on the unit
    segment lies at x = 50 - 900 * 2/27 = -16.67 (not -17.33), and
    -41/729 at 50 - 900 * 41/729 = -0.62 (not -1.38)."""
    assert topo._coord(topo.UNIT, TernaryRational(-2, 3)) == \
        ("-16.67", "500.00")
    assert topo._coord(topo.UNIT, TernaryRational(-41, 6)) == \
        ("-0.62", "500.00")
    assert topo._coord("B1W0", TernaryRational(-2, 3)) == \
        ("50.00", "1016.67")
    assert topo._coord(topo.UNIT, TernaryRational(-1, 2)) == \
        ("-50.00", "500.00")
    assert topo._coord(topo.UNIT, TernaryRational(1, 5)) == \
        ("53.70", "500.00")


def test_ternary_rational_prints_reduced():
    for n in range(-30, 31):
        for e in range(6):
            f = Fraction(n, 3**e)
            assert str(TernaryRational(n, e)) == \
                "%d/%d" % (f.numerator, f.denominator)


def test_a_replaced_edge_is_validated():
    """``_replace`` builds an edge through the constructor, so it cannot
    make a monochromatic one."""
    e = topo.ComplexEdge(topo.vertex_at(0), topo.vertex_at(1))
    with pytest.raises(ValueError):
        e._replace(b=e.a)
    assert e._replace(level=2) == topo.ComplexEdge(e.a, e.b, 2)
