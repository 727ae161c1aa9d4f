"""One-dimensional chromatic complexes for the two-process task.

Scenario prefixes of length r embed into the unit interval as the
edges [ind(w)/3^r, (ind(w)+1)/3^r] of the r-fold chromatic subdivision
of a colored segment, and a whole adversary becomes a subcomplex of
the subdivided input square.  On top of that sit terminating
subdivisions: level-indexed families of "stable" edges marking where a
geometric decision algorithm may halt, each keeping the radius map eta
over its whole infinite complex, and the Finished predicate that reads
it.  The geometric algorithm reads Finished at round r from a table
built once per round: each stable cell wins at most three integer
ranges of indexes, on its own side of the gap point, and where ranges
of both sides overlap they split at the midpoint of their witnesses,
ties going to white.

Everything is exact; connectivity and ball-inclusion answers are
claims about real geometry, so no floats.  A position is a reduced
``TernaryRational`` (numerator, 3-exponent), and the subdivision
arithmetic, the Finished search, the export and the component counts
compare such integers on a common 3-power scale.  ``Fraction`` appears
only at the edges of the API: ``ComplexEdge.interval``, ``vertex_at``,
``eta_of``, ``side_decision_map`` and gap points, including declared
accumulation points.
"""

from __future__ import annotations

import json
import math
import re
from bisect import bisect_left
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from . import adversary as adv
from .adversary import ONE_TRACK, AdversaryAutomaton
from .indexfn import (BLACK, WHITE, ProcessId, TernaryRational, ind,
                      ind_limit, ind_step, split_threes)
from .oracle import Family, Verdict, classify, select_forbidden_scenario
from .protocol import MAX_ROUNDS, Algorithm
from .records import fields_repr, record
from .words import FiniteWord, GAMMA, Letter

UNIT = "unit"

#: The four sides of the input square, keyed by the input pair they
#: carry: side (iw, ib) joins white's corner for iw to black's for ib.
SQUARE_SEGMENTS = {
    "W0B0": (0, 0),
    "B0W1": (1, 0),
    "W1B1": (1, 1),
    "B1W0": (0, 1),
}


def _tr(x) -> TernaryRational:
    """Exact conversion to a ternary rational (denominator a 3-power)."""
    if isinstance(x, TernaryRational):
        return x
    f = Fraction(x)
    return _ternary(f.numerator, f.denominator)


def _ternary(num: int, den: int) -> TernaryRational:
    """num/den, for den > 0, as a ternary rational."""
    g = math.gcd(num, den)
    num, den = num // g, den // g
    e, rest = split_threes(den, den.bit_length())
    if rest != 1:
        raise ValueError("%d/%d is not a ternary rational" % (num, den))
    return TernaryRational(num, e)


def position_color(p: TernaryRational) -> ProcessId:
    """Vertex color at k/3^e: white iff the reduced numerator is even."""
    return WHITE if p.numerator % 2 == 0 else BLACK


@record
class ColoredVertex(NamedTuple):
    position: TernaryRational
    segment: str = UNIT

    @property
    def color(self) -> ProcessId:
        return position_color(self.position)


def vertex_at(x, segment: str = UNIT) -> ColoredVertex:
    return ColoredVertex(_tr(x), segment)


class _EdgeFields(NamedTuple):
    a: ColoredVertex
    b: ColoredVertex
    level: Optional[int] = None


@record
class ComplexEdge(_EdgeFields):
    __slots__ = ()

    def __new__(cls, a: ColoredVertex, b: ColoredVertex,
                level: Optional[int] = None):
        if a.color == b.color:
            raise ValueError("edges must be bichromatic")
        if a.segment != b.segment:
            raise ValueError("edge endpoints must share a segment")
        return tuple.__new__(cls, (a, b, level))

    @classmethod
    def _make(cls, fields):
        """Validates, as the constructor does, for ``_replace`` too."""
        return cls(*fields)

    @property
    def interval(self) -> tuple:
        lo, hi = sorted((self.a.position.value, self.b.position.value))
        return (lo, hi)


@record
class Complex(NamedTuple):
    edges: tuple
    # corner identifications: frozensets of vertices glued into one
    gluing: tuple = ()
    # declared limit points of an infinite generating family
    accumulation_points: tuple = ()

    def vertices(self) -> set:
        out = set()
        for e in self.edges:
            out.add(e.a)
            out.add(e.b)
        return out

    def segments(self) -> set:
        return {e.a.segment for e in self.edges}


def unit_segment() -> Complex:
    return Complex((ComplexEdge(vertex_at(0), vertex_at(1)),))


def square_complex() -> Complex:
    edges = tuple(
        ComplexEdge(vertex_at(0, seg), vertex_at(1, seg))
        for seg in SQUARE_SEGMENTS
    )
    return Complex(edges, gluing=_square_gluing())


def _square_gluing() -> tuple:
    groups = []
    for corner, pick in (
        ("W0", lambda seg, iw, ib: (iw == 0, 0)),
        ("W1", lambda seg, iw, ib: (iw == 1, 0)),
        ("B0", lambda seg, iw, ib: (ib == 0, 1)),
        ("B1", lambda seg, iw, ib: (ib == 1, 1)),
    ):
        members = set()
        for seg, (iw, ib) in SQUARE_SEGMENTS.items():
            match, end = pick(seg, iw, ib)
            if match:
                members.add(vertex_at(end, seg))
        groups.append(frozenset(members))
    return tuple(groups)


def chromatic_subdivision(c: Complex) -> Complex:
    """Replaces each edge by three with alternating vertex colors."""
    edges = []
    for e in c.edges:
        pa, pb = e.a.position, e.b.position
        top = max(pa.exponent, pb.exponent) + 1
        ka = pa.numerator * 3 ** (top - pa.exponent)
        kb = pb.numerator * 3 ** (top - pb.exponent)
        lo, hi = (e.a, e.b) if ka < kb else (e.b, e.a)
        seg = e.a.segment
        p, d = min(ka, kb), abs(kb - ka) // 3
        m1 = ColoredVertex(TernaryRational(p + d, top), seg)
        m2 = ColoredVertex(TernaryRational(p + 2 * d, top), seg)
        edges.append(ComplexEdge(lo, m1))
        edges.append(ComplexEdge(m1, m2))
        edges.append(ComplexEdge(m2, hi))
    return Complex(tuple(edges), c.gluing, c.accumulation_points)


def word_to_edge(w: FiniteWord, segment: str = UNIT) -> ComplexEdge:
    """The cell [ind(w)/3^r, (ind(w)+1)/3^r] carried by the word, at
    level r = len(w)."""
    if not w.is_gamma():
        raise ValueError("embedding is defined on GAMMA words only")
    return _cell(ind(w), len(w), segment)


def _cell(k: int, r: int, segment: str = UNIT) -> ComplexEdge:
    """The cell [k/3^r, (k+1)/3^r], at level r."""
    return ComplexEdge(
        ColoredVertex(TernaryRational(k, r), segment),
        ColoredVertex(TernaryRational(k + 1, r), segment),
        r,
    )


def protocol_complex(a: AdversaryAutomaton, r: int) -> Complex:
    """Subcomplex of the r-subdivided input square whose cells are the
    adversary's length-r prefixes, repeated on all four sides."""
    adv._check_work("protocol complex depth", r, 8)
    words = sorted(a.prefixes(r), key=str)
    edges = []
    for seg in SQUARE_SEGMENTS:
        for w in words:
            edges.append(word_to_edge(w, seg))
    return Complex(tuple(edges), gluing=_square_gluing())


# ---------------------------------------------------------------------------
# connectivity


def _vertex_id(v: ColoredVertex) -> tuple:
    return (v.segment, v.position.numerator, v.position.exponent)


def _component_count(nodes, links) -> int:
    """Connected components of the graph on ``nodes`` whose edges are
    the node pairs ``links``, by union-find."""
    parent = {x: x for x in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in links:
        parent[find(x)] = find(y)
    return len({find(x) for x in parent})


def abstract_components(k: Complex) -> int:
    """Connected components of the vertex/edge graph (gluing applied);
    a vertex is its (segment, numerator, exponent) triple."""
    links = [(_vertex_id(e.a), _vertex_id(e.b)) for e in k.edges]
    present = {v for link in links for v in link}
    for group in k.gluing:
        members = [u for u in map(_vertex_id, group) if u in present]
        links += zip(members, members[1:])
    return _component_count(present, links)


def realization_components(k: Complex) -> int:
    """Components of the union of the closed intervals, on one segment.

    Declared accumulation points capture the closure of an infinite
    generating family: a component whose endpoint approaches such a
    point p (within three times the shortest edge of k) is merged with
    the component materially containing p -- but only when p lies
    inside some interval; a bare limit point outside the union
    separates nothing.  Positions are integers over one denominator:
    3^E, E the largest exponent of a vertex, times the lcm of the
    accumulation points' denominators.
    """
    if len(k.segments()) > 1:
        raise ValueError("realization counting works on a single segment")
    if not k.edges:
        return 0
    points = [Fraction(p) for p in k.accumulation_points]
    top = max(v.position.exponent for e in k.edges for v in (e.a, e.b))
    unit = 3**top * math.lcm(*(p.denominator for p in points))

    def at(v: ColoredVertex) -> int:
        return v.position.numerator * (unit // 3**v.position.exponent)

    intervals = []
    for e in k.edges:
        a, b = at(e.a), at(e.b)
        intervals.append((a, b) if a < b else (b, a))
    intervals.sort()
    merged = [list(intervals[0])]
    for lo, hi in intervals[1:]:
        if lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    tol = 3 * min(hi - lo for lo, hi in intervals)
    links = []
    for p in points:
        p = p.numerator * (unit // p.denominator)
        home = None
        for i, (lo, hi) in enumerate(merged):
            if lo <= p <= hi:
                home = i
                break
        if home is None:
            continue
        for i, (lo, hi) in enumerate(merged):
            if i != home and min(abs(lo - p), abs(hi - p)) <= tol:
                links.append((i, home))
    return _component_count(range(len(merged)), links)


# ---------------------------------------------------------------------------
# terminating subdivisions


#: bound on the preperiod plus the period of an index fiber's z in base 3
FIBER_DIGITS = 65536


def _ternary_digits(z: Fraction) -> tuple:
    """The base-3 digits of z's fractional part through its first
    period, and the place where that period starts; ResourceBoundError
    when there are more than FIBER_DIGITS of them."""
    loop, q = split_threes(z.denominator, FIBER_DIGITS + 1)
    period, power = 1, 3 % q
    while power != 1 % q and loop + period <= FIBER_DIGITS:
        power, period = 3 * power % q, period + 1
    adv._check_work("base-3 digits read of the gap point", loop + period,
                    FIBER_DIGITS)
    digits, x = [], z.numerator % z.denominator
    for _ in range(loop + period):
        digit, x = divmod(3 * x, z.denominator)
        digits.append(digit)
    return digits, loop


def index_fiber(z) -> AdversaryAutomaton:
    """Safety automaton for the GAMMA scenarios with limit index z.

    z lies in the cell of w|_r iff e = ind(w|_r) - floor(z 3^r) is 0,
    or -1 where z 3^r is an integer.  A state is (e, par, pos): par is
    floor(z 3^r) mod 2 and pos the place of the fractional part of
    z 3^r in z's ternary digits; the pair machine's index arithmetic
    steps all three.  Any other e sinks, on odd edges.
    """
    z = Fraction(z)
    if not 0 <= z <= 1:
        raise ValueError("gap point must lie in [0, 1]")
    digits, loop = _ternary_digits(z)
    exact = loop if digits[loop:] == [0] else None  # where z 3^r is integral

    def step(st, a):
        if st == "sink":
            return "sink", (1,)
        e, par, pos = st
        digit = digits[pos]
        pos = pos + 1 if pos + 1 < len(digits) else loop
        e = ind_step(par + e, a) - 3 * par - digit
        if e == 0 or (e == -1 and pos == exact):
            return (e, (par + digit) % 2, pos), (0,)
        return "sink", (1,)

    init = (0, 0, 0) if z < 1 else (-1, 1, 0)
    return AdversaryAutomaton(GAMMA, init, adv._explore(init, GAMMA, step),
                              1, ONE_TRACK)


class TerminatingSubdivision:
    """Stable edges appearing level by level around a gap point z.

    Level k holds the cells of length-k adversary prefixes whose
    interval has just separated from z (their parent interval still
    contained it), in the order the frontier reaches them; their words
    form an antichain by construction.
    ``_radius`` maps the reduced (numerator, exponent) position of each
    stable vertex to the exponent j of its halting radius 3^-j, where
    j - 1 is the deepest level materialized so far at which the vertex
    bounds a stable edge.  ``_cells`` holds level k's stable cells as
    (index, key of the low end, key of the high end) in index order,
    the keys being those of ``_radius``.  A subdivision is mutable
    state, equal only to itself.
    """

    _fields = ("adversary", "z", "fiber")
    __repr__ = fields_repr

    def __init__(self, adversary: AdversaryAutomaton, z: Fraction,
                 fiber: AdversaryAutomaton):
        self.adversary, self.z, self.fiber = adversary, z, fiber
        self.levels = {0: ()}
        self._radius = {}
        self._cells = {}
        # (index, adversary state, fiber state) of the cells around z
        self._frontier = [(0, adversary.initial, fiber.initial)]
        self._depth = 0

    def materialize(self, depth: int):
        while self._depth < depth:
            self._grow()
        return self

    def _grow(self):
        k = self._depth + 1
        a, fiber = self.adversary, self.fiber
        stable = []
        frontier = []
        for i, state, fst in self._frontier:
            for letter in GAMMA:
                nxt, _ = a.step(state, letter)
                if nxt not in a.live:
                    continue
                child = ind_step(i, letter)
                fnxt, _ = fiber.step(fst, letter)
                if fnxt == "sink":
                    stable.append(child)
                else:
                    frontier.append((child, nxt, fnxt))
        self.levels[k] = tuple(_cell(i, k) for i in stable)
        cells = []
        for i, e in zip(stable, self.levels[k]):
            lo, hi = e.a.position, e.b.position
            lo, hi = (lo.numerator, lo.exponent), (hi.numerator, hi.exponent)
            self._radius[lo] = self._radius[hi] = k + 1
            cells.append((i, lo, hi))
        self._cells[k] = sorted(cells)
        self._frontier = frontier
        self._depth = k

    def radii(self, r: int) -> dict:
        """The radius map, grown until no cell around z ends on the
        level-r grid but at z: deeper stable edges lie in those cells,
        so the radii of levels up to r are those of the infinite
        complex.  The wait, a run of 0 or 2 digits of z, is shorter
        than the preperiod plus period that FIBER_DIGITS bounds."""
        self.materialize(r)
        zn, zd = self.z.numerator, self.z.denominator
        while any(k % 3 ** (self._depth - r) == 0
                  and k * zd != zn * 3**self._depth
                  for i, _, _ in self._frontier for k in (i, i + 1)):
            self.materialize(self._depth + 1)
        return self._radius

    def stable_complex(self) -> Complex:
        edges = []
        for k in sorted(self.levels):
            edges.extend(self.levels[k])
        return Complex(tuple(edges), accumulation_points=(self.z,))


def _fiber_scenario(a: AdversaryAutomaton, z: Fraction) -> tuple:
    """``(fiber, scenario)``: z's index fiber, and a scenario of ``a``
    with limit index z, or None when z is a gap point of ``a``; one
    search over ``a x fiber``, whose fiber track joins every clause."""
    fiber = index_fiber(z)
    init, rows = adv._product_rows(a, fiber)
    acceptance = tuple(c | {a.num_tracks} for c in a.acceptance)
    return fiber, adv._good_lasso(init, rows, acceptance)


def build_terminating_subdivision(a: AdversaryAutomaton, z,
                                  depth: int = 6) -> TerminatingSubdivision:
    """Levels 1..depth around the gap point z, whose fiber in ``a`` must
    be empty; ``a`` must be over GAMMA, and depth at most MAX_ROUNDS, the
    simulator's default round budget."""
    if a.alphabet != GAMMA:
        raise ValueError(
            "terminating subdivisions are built for GAMMA-adversaries only")
    if depth < 0:
        raise ValueError("subdivision depth %d is negative" % depth)
    adv._check_work("subdivision depth", depth, MAX_ROUNDS)
    z = Fraction(z)
    fiber, witness = _fiber_scenario(a, z)
    if a.initial not in a.live:
        raise ValueError("empty adversary has no subdivision")
    if witness is not None:
        raise ValueError(
            "%s is not a gap point: it is the limit of %s" % (z, witness)
        )
    return TerminatingSubdivision(a, z, fiber).materialize(depth)


def eta_of(ts: TerminatingSubdivision) -> dict:
    """Halting radius 1/3^j per stable vertex, over the whole stable
    complex for every vertex of the levels materialized at the call."""
    radius = ts.radii(ts._depth)
    return {v: Fraction(1, 3**radius[v.position.numerator,
                                     v.position.exponent])
            for edges in ts.levels.values() for e in edges
            for v in (e.a, e.b)}


def finished_witness(r: int, x,
                     ts: TerminatingSubdivision) -> Optional[ColoredVertex]:
    """A level-r subdivision point y inside the stable realization
    whose open eta-ball contains the closed ball around x of radius
    1/3^r, if any.

    Eta at a stable vertex is its radius over the whole stable complex;
    in the interior of a stable edge it is the min of the edge's
    endpoint radii.  Only the candidates nearest to x in each edge can
    win.  Lengths are counted in units of 1/(q 3^r), q the denominator
    of x, so every test is an integer comparison.

    At level k every endpoint has j >= k + 1, so a winner lies within
    3^-(k+1) of x.  The level's cells are disjoint but for shared ends
    and 3^-k long, so at most two of them reach that far; they are
    found by bisecting the level's cells, sorted by index, at x 3^k.
    """
    radius = ts.radii(r)
    x = Fraction(x)
    q, pow3 = x.denominator, 3**r
    xr = x.numerator * pow3
    kx = xr // q
    best = None
    best_key = None
    # an end of a level-k edge has j > k, and j < r is needed to win
    for k in range(1, r - 1):
        cells = ts._cells[k]
        span = 3 ** (r - k)  # a level-k cell, in level-r grid steps
        reach, width = span // 3 * q, span * q
        # the cells [i span, (i+1) span] meeting [x 3^r -+ span/3]
        first = -((reach - xr) // width) - 1
        last = (xr + reach) // width
        at = bisect_left(cells, (first,))
        for i, lo, hi in cells[at:at + 2]:
            if i > last:
                break
            ja, jb = radius[lo], radius[hi]
            klo, khi = i * span, (i + 1) * span
            for kc in {max(klo, min(khi, kx)),
                       max(klo, min(khi, kx + 1))}:
                j = ja if kc == klo else jb if kc == khi else max(ja, jb)
                dist = abs(xr - kc * q)
                # |x - y| + 1/3^r < 1/3^j
                if (dist + q) * 3**j < q * pow3:
                    key = (dist, kc)
                    if best_key is None or key < best_key:
                        best, best_key = kc, key
    if best is None:
        return None
    return ColoredVertex(TernaryRational(best, r))


def finished_sides(r: int, ts: TerminatingSubdivision) -> tuple:
    """Finished(r, ind/3^r) at every integer ind, as a step function:
    ``(bounds, sides)``, where ``sides[bisect_right(bounds, ind)]`` is
    the side of z (WHITE or BLACK) of ``finished_witness``'s vertex, or
    None where Finished does not hold.

    On the level-r grid, a level-k stable cell [L, H], H = L + 3^(r-k),
    whose ends have radius exponents ja and jb, wins for at most three
    ranges of ind, each with a witness on the cell's side of z: L for
    [L - 3^(r-ja) + 2, L] if ja < r, ind itself for the interior if
    both are below r, and H for [H - 1, H + 3^(r-jb) - 2] if jb < r.
    Where ranges of both sides meet, the witness nearest to ind wins,
    and of two as near the smaller: with b the greatest white witness
    and c the least black one, the side is white iff 2 ind <= b + c.
    In the interior the cell's end nearer z stands in for ind: it lies
    between ind and z, so the split sides with ind's own cell.
    """
    radius = ts.radii(r)
    zr = ts.z.numerator * 3**r  # z 3^r, times the denominator of z
    ranges = []  # (first, last, side, witness)
    for k in range(1, r - 1):
        span = 3 ** (r - k)
        for i, lo, hi in ts._cells[k]:
            ja, jb = radius[lo], radius[hi]
            low, high = i * span, (i + 1) * span
            # a stable cell's closed interval misses z
            side = WHITE if low * ts.z.denominator < zr else BLACK
            if ja < r:
                ranges.append((low - 3 ** (r - ja) + 2, low, side, low))
                if jb < r:
                    ranges.append((low + 1, high - 1, side,
                                   high if side is WHITE else low))
            if jb < r:
                ranges.append((high - 1, high + 3 ** (r - jb) - 2, side, high))
    ranges.sort(key=lambda g: g[0])
    points = sorted({p for g in ranges for p in (g[0], g[1] + 1)})
    bounds, sides = [], [None]

    def run(p, side):
        if side is not sides[-1]:
            bounds.append(p)
            sides.append(side)

    # sweep the pieces [p, q) on which the set of covering ranges is fixed
    active, n = [], 0
    for p, q in zip(points, points[1:]):
        while n < len(ranges) and ranges[n][0] == p:
            active.append(ranges[n])
            n += 1
        active = [g for g in active if g[1] >= p]
        white = [g[3] for g in active if g[2] is WHITE]
        black = [g[3] for g in active if g[2] is BLACK]
        if not (white and black):
            run(p, WHITE if white else BLACK if black else None)
        else:
            split = (max(white) + min(black)) // 2 + 1
            if split > p:
                run(p, WHITE)
            if split < q:
                run(max(p, split), BLACK)
    if points:
        run(points[-1], None)
    return bounds, sides


def side_decision_map(z) -> Callable:
    """A_eta's decision map: points left of the gap adopt white's
    input, points right of it adopt black's."""
    z = Fraction(z)

    def delta(position: Fraction) -> ProcessId:
        return WHITE if Fraction(position) < z else BLACK

    return delta


class GeometricAlgorithm(Algorithm):
    """Algorithm A_eta: same index updates and halting rule as the
    index-guard algorithm, halting as soon as Finished(r, ind/3^r)
    holds, on the side of the gap point (the side decision map's) of
    the witness vertex.

    Finished(r, x) depends on r and x alone (``ts.radii(r)`` makes it
    independent of how deep the subdivision has grown).  At round r the
    witness's side is a step function of ind, so ``sides(r)`` is
    ``finished_sides``'s table, built from the three ranges each stable
    cell wins, splitting ranges of both sides at the midpoint of their
    witnesses with ties to white."""

    def __init__(self, ts: TerminatingSubdivision):
        super().__init__()
        self.ts = ts

    def sides(self, r: int) -> tuple:
        """Nothing is finished at round 0."""
        return finished_sides(r, self.ts) if r else ([], [None])


def gap_point(v: Verdict) -> Fraction:
    """The point the stable complex avoids: the limit index of the
    forbidden scenario that parameterizes the algorithms."""
    return ind_limit(select_forbidden_scenario(v))


@record
class Connectivity(NamedTuple):
    gap: Optional[Fraction]
    reason: str

    @property
    def connected(self) -> bool:
        return self.gap is None


#: why the realization comes apart at the gap point, by witness family
_GAP_REASONS = {
    Family.F1: "fair limit point %s removed (sole preimage)",
    Family.F2: "shared limit %s removed with both preimages",
    Family.F3: "corner gluing broken at %s",
    Family.F4: "corner gluing broken at %s",
}


def limit_connectivity(a: AdversaryAutomaton) -> Connectivity:
    """Connectivity of the limit realization of the adversary complex.

    The realization is disconnected exactly when consensus is solvable
    (classify's verdict), at the limit point the excluded scenarios
    vacate.  That point is checked to be a gap: its index fiber in the
    adversary must be empty, else this raises AssertionError.
    """
    v = classify(a)
    if not v.solvable:
        return Connectivity(None, "no limit point is vacated")
    z = gap_point(v)
    _, reached = _fiber_scenario(a, z)
    if reached is not None:
        raise AssertionError(
            "oracle's gap point %s is the limit of %s" % (z, reached))
    return Connectivity(z, _GAP_REASONS[v.witness.family] % z)


# ---------------------------------------------------------------------------
# the abstract-vs-geometric counter-example


def contrex(depth: int = 6) -> Complex:
    """Hand-coded stable family whose abstract complex has two
    components while its geometric realization is the whole interval:
    level 1 contributes [0,1/3] and [2/3,1]; level r >= 2 contributes
    the two cells ending at 2/3 - 1/3^r, creeping up to 2/3 from the
    left without ever reaching it.  Depth is at most MAX_ROUNDS, the
    bound of a terminating subdivision."""
    if depth < 1:
        raise ValueError("contrex depth %d is below 1" % depth)
    adv._check_work("contrex depth", depth, MAX_ROUNDS)
    edges = [
        word_to_edge(FiniteWord.of(Letter.LB)),
        word_to_edge(FiniteWord.of(Letter.LW)),
    ]
    for r in range(2, depth + 1):
        left = 2 * 3 ** (r - 1) - 3  # 2/3 - 1/3^(r-1), in steps of 1/3^r
        edges.append(_cell(left, r))
        edges.append(_cell(left + 1, r))
    return Complex(tuple(edges), accumulation_points=(Fraction(2, 3),))


# ---------------------------------------------------------------------------
# export


def export(obj, format: str = "json") -> str:
    if format == "json":
        return export_json(obj)
    if format == "svg":
        return export_svg(obj)
    raise ValueError("unknown export format %r" % format)


def export_json(obj) -> str:
    if isinstance(obj, TerminatingSubdivision):
        doc = _complex_doc(obj.stable_complex())
        doc["type"] = "terminating-subdivision"
        doc["z"] = _frac_str(obj.z)
        doc["depth"] = obj._depth
        return json.dumps(doc, sort_keys=True)
    return json.dumps(_complex_doc(obj), sort_keys=True)


def _frac_str(f: Fraction) -> str:
    f = Fraction(f)
    return adv._printed("%d/%d", f.numerator, f.denominator)


def _scale(vertices) -> int:
    """The largest exponent of the vertices: their positions as
    integers on one 3-power scale."""
    return max((v.position.exponent for v in vertices), default=0)


def _vertex_key(v: ColoredVertex, top: int) -> tuple:
    """Sort key (segment, position 3^top), for top at least the
    exponent of v."""
    p = v.position
    return (v.segment, p.numerator * 3 ** (top - p.exponent))


def _complex_doc(c: Complex) -> dict:
    verts = c.vertices()
    top = _scale(verts)
    verts = sorted(verts, key=lambda v: _vertex_key(v, top))
    index = {v: i for i, v in enumerate(verts)}
    return {
        "type": "complex",
        "vertices": [
            {
                "position": adv._printed("%d/%d", v.position.numerator,
                                         3**v.position.exponent),
                "color": v.color.value,
                "segment": v.segment,
            }
            for v in verts
        ],
        "edges": sorted(
            (
                {
                    "a": index[e.a],
                    "b": index[e.b],
                    "level": e.level,
                }
                for e in c.edges
            ),
            key=lambda d: (d["a"], d["b"]),
        ),
        "gluing": sorted(
            sorted(index[v] for v in group if v in index)
            for group in c.gluing
        ),
        "accumulation_points": [
            _frac_str(p) for p in c.accumulation_points
        ],
    }


def complex_from_json(text: str) -> Complex:
    """Reads an exported complex; ValueError on any malformed document."""
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError(
            "malformed complex document: nested too deeply") from None
    if not isinstance(doc, dict) or doc.get("type") not in (
        "complex", "terminating-subdivision"
    ):
        raise ValueError("not a complex document")
    try:
        return _complex_from_doc(doc)
    except (KeyError, IndexError, TypeError, AttributeError,
            ZeroDivisionError) as e:
        raise ValueError(
            "malformed complex document: %s %s" % (type(e).__name__, e)
        ) from None


#: the schema's ``rational``
_RATIONAL = re.compile(r"(-?[0-9]+)/([0-9]+)")


def _rational(text) -> tuple:
    """(numerator, denominator) of a document's ``n/d`` string."""
    m = _RATIONAL.fullmatch(text) if isinstance(text, str) else None
    if m is None or int(m[2]) == 0:
        raise ValueError(
            "malformed complex document: %r is not a rational n/d" % (text,))
    return int(m[1]), int(m[2])


def _typed(value, what: str, *kinds: type):
    """``value`` if its type is exactly one of ``kinds`` (so no bool
    passes for an int), else a malformed-document ValueError."""
    if type(value) not in kinds:
        raise ValueError("malformed complex document: %s %r has the "
                         "wrong type" % (what, value))
    return value


def _complex_from_doc(doc: dict) -> Complex:
    verts = []
    for d in doc["vertices"]:
        v = ColoredVertex(_ternary(*_rational(d["position"])),
                          _typed(d["segment"], "segment", str))
        if ProcessId(d["color"]) is not v.color:
            raise ValueError("vertex at %s is colored %s, not %s"
                             % (v.position, d["color"], v.color.value))
        verts.append(v)

    def vertex(i) -> ColoredVertex:
        if _typed(i, "vertex index", int) < 0:
            raise ValueError(
                "malformed complex document: vertex index %d is negative" % i)
        return verts[i]

    edges = tuple(
        ComplexEdge(vertex(d["a"]), vertex(d["b"]),
                    _typed(d.get("level"), "level", int, type(None)))
        for d in doc["edges"]
    )
    gluing = tuple(
        frozenset(map(vertex, group)) for group in doc.get("gluing", [])
    )
    acc = tuple(Fraction(*_rational(p))
                for p in doc.get("accumulation_points", []))
    return Complex(edges, gluing, acc)


_SQUARE_ANCHORS = {
    # segment -> ((x0, y0), (x1, y1)) endpoints for positions 0 and 1
    "W0B0": ((50, 950), (950, 950)),
    "B0W1": ((950, 50), (950, 950)),
    "W1B1": ((950, 50), (50, 50)),
    "B1W0": ((50, 950), (50, 50)),
    UNIT: ((50, 500), (950, 500)),
}


def _coord(segment: str, p: TernaryRational) -> tuple:
    """The point at p on the segment, each coordinate rounded to two
    decimals: v = c0 + (c1 - c0) p is an integer over the odd 3^e, so
    100 v is never halfway and rounds to floor(100 v + 1/2).  Raises
    ValueError for a segment with no anchors."""
    if segment not in _SQUARE_ANCHORS:
        raise ValueError("no svg anchors for segment %r" % (segment,))
    (x0, y0), (x1, y1) = _SQUARE_ANCHORS[segment]
    den = 3**p.exponent

    def fmt(c0: int, c1: int) -> str:
        v = c0 * den + (c1 - c0) * p.numerator  # the coordinate, times den
        scaled = (200 * v + den) // (2 * den)
        return "%s%d.%02d" % (("-" if scaled < 0 else "",)
                              + divmod(abs(scaled), 100))

    return fmt(x0, x1), fmt(y0, y1)


def export_svg(obj) -> str:
    c = obj.stable_complex() if isinstance(obj, TerminatingSubdivision) else obj
    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 1000 1000">',
        '<!-- segments horizontal; stable edges stroke 3; '
        'white vertices open, black filled -->',
    ]
    verts = c.vertices()
    top = _scale(verts)
    for e in sorted(c.edges, key=lambda e: (_vertex_key(e.a, top),
                                            _vertex_key(e.b, top))):
        x1, y1 = _coord(e.a.segment, e.a.position)
        x2, y2 = _coord(e.b.segment, e.b.position)
        width = 3 if e.level is not None else 1
        lines.append(
            '<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="black" '
            'stroke-width="%d"/>' % (x1, y1, x2, y2, width)
        )
    for v in sorted(verts, key=lambda v: _vertex_key(v, top)):
        x, y = _coord(v.segment, v.position)
        fill = "white" if v.color is WHITE else "black"
        lines.append(
            '<circle cx="%s" cy="%s" r="6" fill="%s" stroke="black"/>'
            % (x, y, fill)
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
