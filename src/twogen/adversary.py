"""Message adversaries as deterministic parity automata.

An adversary is an omega-language over the round alphabet.  The DSL
below covers every adversary used in practice (oblivious sets, a finite
regex prefix followed by an oblivious tail, unions, and the full
language minus finitely many lassos) and compiles to deterministic,
complete automata.

Acceptance bookkeeping: every transition carries a tuple of colors, one
per "track", and the automaton's acceptance condition is a list of
clauses, each a set of tracks: a run is accepted when on every track of
some clause the maximum color seen infinitely often is even.
Single-track automata are ordinary parity automata with the one clause
{0}; products (union/intersection) concatenate tracks and combine the
clause lists, and complement raises every color by one and distributes
the negated clauses.  Set powers, differences ``GAMMA^w \\ {l1..lk}``
and lasso singletons compile to one co-Buchi track, whose state is the
set of (lasso, position) pairs still consistent with the input: leaving
every lasso accepts a set power or a difference, following one forever
a singleton.  Membership of a lasso and emptiness (with a lasso
witness) are decided exactly on this representation.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from typing import Hashable, NamedTuple, Optional

from .records import fields_eq, fields_repr, record
from .words import (
    FiniteWord,
    G2,
    GAMMA,
    LETTER_TOKENS,
    LassoWord,
    Letter,
    ParseError,
    TokenReader,
)


class CompileError(ValueError):
    """Raised on expressions the compiler does not support."""


class ResourceBoundError(RuntimeError):
    """Raised when an enumeration bound is exceeded."""


# ---------------------------------------------------------------------------
# acceptance clauses

#: the acceptance of a one-track automaton: track 0's maximum is even
ONE_TRACK = (frozenset((0,)),)

#: the most clauses ``complement`` or ``intersect`` may build, and the
#: most SCCs one ``_good_sccs`` search may visit
_MAX_WORK = 1 << 16


def _check_work(what: str, n: int, bound: int) -> None:
    """The one resource check: ResourceBoundError when ``n``, a count
    of ``what``, exceeds ``bound``."""
    if n > bound:
        raise ResourceBoundError("%s %d exceeds bound %d" % (what, n, bound))


def _explore(init, alphabet, step) -> dict:
    """``{state: {letter: step(state, letter)}}`` over every state
    reachable from ``init``, keyed in the order first reached, depth
    first (the order of ``is_empty``'s edges, and so of its witnesses);
    ``step`` returns ``(next_state, label)``."""
    trans: dict = {init: None}
    todo = [init]
    while todo:
        st = todo.pop()
        trans[st] = row = {a: step(st, a) for a in alphabet}
        for nxt, _ in row.values():
            if nxt not in trans:
                trans[nxt] = None
                todo.append(nxt)
    return trans


def _breadth_first(start, succ):
    """Yields ``(node, letters)`` for ``start`` and every node reachable
    from it, breadth first, where ``letters`` spells the first path
    found to the node and ``succ(node)`` gives ``(letter, next_node)``
    pairs in the order they are tried."""
    paths = {start: ()}
    queue = collections.deque([start])
    yield start, ()
    while queue:
        node = queue.popleft()
        for a, nxt in succ(node):
            if nxt not in paths:
                paths[nxt] = path = paths[node] + (a,)
                yield nxt, path
                queue.append(nxt)


# ---------------------------------------------------------------------------
# the automaton


#: letter -> the constant tail letter^w
_CONSTANT = {x: LassoWord.of((), (x,)) for x in Letter}


class AdversaryAutomaton:
    """Deterministic complete automaton over ``alphabet``.

    ``transitions[state][letter] = (next_state, colors)`` where colors
    is a tuple with one entry per track.  ``acceptance`` is a tuple of
    clauses, each a frozenset of tracks: a run is accepted when some
    clause's tracks all have an even maximum infinite color.  States are
    arbitrary hashables.  Automata with equal fields are equal, and an
    automaton is unhashable.
    """

    _fields = ("alphabet", "initial", "transitions", "num_tracks",
               "acceptance")

    def __init__(self, alphabet: tuple, initial: Hashable, transitions: dict,
                 num_tracks: int, acceptance: tuple):
        for row in transitions.values():
            if set(row) != set(alphabet):
                raise AssertionError("automaton not complete")
        self.alphabet = alphabet
        self.initial = initial
        self.transitions = transitions
        self.num_tracks = num_tracks
        self.acceptance = acceptance
        # (state, letter) -> whether letter^w is accepted from state,
        # filled by ``accepts_forever``; not a field
        self._forever: dict = {}

    __eq__, __hash__, __repr__ = fields_eq, None, fields_repr

    @property
    def states(self):
        return list(self.transitions)

    def step(self, state, letter):
        return self.transitions[state][letter]

    # -- queries ----------------------------------------------------------

    def contains(self, l: LassoWord) -> bool:
        """Membership of an ultimately periodic word."""
        return self.accepts_from(self.initial, l)

    def accepts_from(self, state, l: LassoWord) -> bool:
        """Whether the run on ``l`` from ``state`` is accepting: for the
        state reached on a word u, membership of u.l."""
        for a in itertools.chain(l.stem, l.cycle):
            if a not in self.alphabet:
                raise ValueError("letter %s not in automaton alphabet" % (a,))
        for a in l.stem:
            state, _ = self.step(state, a)
        # iterate the cycle until the state at cycle start repeats
        seen = {state: 0}
        states_at_start = [state]
        while True:
            for a in l.cycle:
                state, _ = self.step(state, a)
            if state in seen:
                loop_start = seen[state]
                break
            seen[state] = len(states_at_start)
            states_at_start.append(state)
        # max colors on the repeating loop
        maxima = [-1] * self.num_tracks
        state = states_at_start[loop_start]
        for _ in range(loop_start, len(states_at_start)):
            for a in l.cycle:
                state, colors = self.step(state, a)
                for t, c in enumerate(colors):
                    if c > maxima[t]:
                        maxima[t] = c
        for clause in self.acceptance:
            for t in clause:
                if maxima[t] % 2:
                    break
            else:
                return True
        return False

    def accepts_forever(self, state, letter) -> bool:
        """``accepts_from(state, letter^w)``: whether the constant tail
        is accepted from ``state``, computed once per automaton, state
        and letter, on the first call that asks."""
        key = state, letter
        forever = self._forever
        if key not in forever:
            forever[key] = self.accepts_from(state, _CONSTANT[letter])
        return forever[key]

    def is_empty(self) -> Optional[LassoWord]:
        """None if the language is empty, else a witness lasso."""
        rows = _explore(self.initial, self.alphabet, self.step)
        return _good_lasso(self.initial, rows, self.acceptance)

    @functools.cached_property
    def live(self) -> frozenset:
        """The states from which some accepted word starts: those that
        reach a good cycle, found in one pass over all states."""
        edges = _edges(self.transitions)
        good = dict.fromkeys(
            src
            for required in self.acceptance
            for scc_edges in _good_sccs(edges, required)
            for (src, _, _, _) in scc_edges
        )
        preds: dict = {}
        for (src, _, dst, _) in edges:
            preds.setdefault(dst, []).append(src)
        _mark_back(preds, list(good), good, None)
        return frozenset(good)

    def has_nonempty_residual(self, state) -> bool:
        """Whether some accepted word starts at ``state``."""
        return state in self.live

    def extensions(self, prefix: FiniteWord, depth: int):
        """Yields ``(word, state)`` for ``prefix`` and for each extension
        of it by at most ``depth`` letters that an accepted infinite
        word still extends, depth first with children in ``str`` order;
        ``state`` is the one the automaton reaches on ``word``.  A
        caller that sends True in reply to a word does not get that
        word's extensions; a ``for`` loop gets them all.  Yields nothing
        when no accepted word extends ``prefix``; raises ValueError for a
        negative depth and ResourceBoundError when words could grow
        longer than 12."""
        if depth < 0:
            raise ValueError("extension depth %d is negative" % depth)
        limit = len(prefix) + depth
        _check_work("prefix enumeration depth", limit, 12)
        live = self.live
        state = self.initial
        for a in prefix:
            if a not in self.alphabet:
                return
            state, _ = self.step(state, a)
        todo = [(prefix, state)] if state in live else []
        backwards = sorted(self.alphabet, key=str, reverse=True)
        while todo:
            word, state = todo.pop()
            if not (yield word, state) and len(word.letters) < limit:
                row = self.transitions[state]
                for a in backwards:  # pushed last, popped first
                    nxt = row[a][0]
                    if nxt in live:
                        todo.append((FiniteWord(word.letters + (a,)), nxt))

    def prefixes(self, r: int) -> set[FiniteWord]:
        """All length-r words extendable to an accepted infinite word."""
        walk = self.extensions(FiniteWord(), r)
        return {w for w, _ in walk if len(w) == r}


def _edges(rows) -> list:
    """``(src, letter, dst, colors)`` for every transition in ``rows``
    (``{state: {letter: (dst, colors)}}``), in their order."""
    return [
        (st, a, *nxt) for st, row in rows.items() for a, nxt in row.items()
    ]


def _edge_map(edges) -> dict:
    out: dict = {}
    for (src, a, dst, _) in edges:
        out.setdefault(src, []).append((a, dst))
    return out


def _letter_path(edge_map, src, dst) -> tuple:
    """Letters along a shortest path src -> dst, the first one a
    breadth-first search in ``edge_map`` order finds."""
    succ = lambda st: edge_map.get(st, ())
    return next(p for node, p in _breadth_first(src, succ) if node == dst)


def _good_lasso(init, rows, clauses, odd: tuple = ()) -> Optional[LassoWord]:
    """A lasso from ``init`` through ``rows`` (``{state: {letter: (dst,
    colors)}}``) into the first sub-SCC that ``_good_sccs`` yields for
    ``even`` = each of ``clauses`` in turn, or None when there is none.
    The stem is a shortest path, and the cycle walks every edge of the
    sub-SCC, so its per-track maxima are the sub-SCC's."""
    edges = _edges(rows)
    for even in clauses:
        for scc_edges in _good_sccs(edges, even, odd):
            stem = _letter_path(_edge_map(edges), init, scc_edges[0][0])
            return LassoWord(
                FiniteWord(stem), FiniteWord(_closed_walk(scc_edges))
            )
    return None


def _good_sccs(edges, even: frozenset[int], odd: tuple = ()):
    """Yields the edge sets of the sub-SCCs of ``edges`` on which every
    track in ``even`` has an even maximum color and every clause (a set
    of tracks) in ``odd`` has a track with an odd one, depth first.

    This is the Emerson-Lei emptiness check of Baier et al. ("Generic
    emptiness check for fun and profit", ATVA 2019) on parity tracks.
    An SCC that fails the condition holds a good cycle only below some
    track's maximal edges, since a cycle through one has that track's
    maximum.  So each SCC first drops, all at once, the maximal edges of
    every track it forces: an even track whose maximum is odd, and the
    track of a one-track clause whose maximum is even.  With nothing
    forced, the first clause of ``odd`` whose tracks all have even
    maxima branches: for each of its tracks in increasing order, the
    search recurses below that track's maximal edges.  With ``odd``
    empty no SCC branches.  Raises ResourceBoundError once the search
    visits more than ``_MAX_WORK`` SCCs."""
    tracks = even.union(*odd)
    visits = itertools.count(1)

    def search(edges):
        for scc_edges in _edge_sccs(edges):
            _check_work("SCC visits", next(visits), _MAX_WORK)
            top = {t: max(e[3][t] for e in scc_edges) for t in tracks}
            unmet = [c for c in odd if not any(top[t] % 2 for t in c)]
            forced = [t for t in even if top[t] % 2]
            forced += [t for c in unmet if len(c) == 1 for t in c]
            if forced:
                yield from search([e for e in scc_edges
                                   if all(e[3][t] < top[t] for t in forced)])
            elif unmet:
                for t in sorted(unmet[0]):
                    yield from search([e for e in scc_edges
                                       if e[3][t] < top[t]])
            else:
                yield scc_edges

    return search(edges)


def _edge_sccs(edges):
    """Partitions ``edges`` into SCC-internal edge groups, ordered by
    each group's first edge (Kosaraju: a depth-first postorder, then
    closures over reversed edges in reverse postorder)."""
    succ: dict = {}
    pred: dict = {}
    for (src, _, dst, _) in edges:
        succ.setdefault(src, []).append(dst)
        pred.setdefault(dst, []).append(src)
    postorder = []
    seen = set()
    for root in succ:
        if root in seen:
            continue
        seen.add(root)
        stack = [(root, iter(succ[root]))]
        while stack:
            node, it = stack[-1]
            for nxt in it:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, iter(succ.get(nxt, ()))))
                    break
            else:
                stack.pop()
                postorder.append(node)
    comp_of: dict = {}
    for root in reversed(postorder):
        if root not in comp_of:
            comp_of[root] = cid = len(comp_of)
            _mark_back(pred, [root], comp_of, cid)
    groups: dict = {}
    for e in edges:
        if comp_of[e[0]] == comp_of[e[2]]:
            groups.setdefault(comp_of[e[0]], []).append(e)
    return list(groups.values())


def _mark_back(adj, todo: list, marks: dict, mark) -> None:
    """Sets ``marks[q] = mark`` for every unmarked q reached from a node
    in ``todo`` along ``adj``, whatever adjacency map (``{node:
    neighbors}``) it is: predecessors or successors."""
    while todo:
        for nxt in adj.get(todo.pop(), ()):
            if nxt not in marks:
                marks[nxt] = mark
                todo.append(nxt)


def _closed_walk(scc_edges) -> tuple:
    """Letters of a closed walk from the first edge's source through
    every edge of an SCC in order; its per-track maxima equal the SCC
    maxima."""
    edge_map = _edge_map(scc_edges)
    start = cur = scc_edges[0][0]
    walk = []
    for (src, a, dst, _) in scc_edges:
        walk += _letter_path(edge_map, cur, src)
        walk.append(a)
        cur = dst
    walk += _letter_path(edge_map, cur, start)
    return tuple(walk)


# ---------------------------------------------------------------------------
# expression AST


@record
class RegexLetter(NamedTuple):
    letter: Letter


@record
class RegexConcat(NamedTuple):
    parts: tuple


@record
class RegexUnion(NamedTuple):
    parts: tuple


@record
class RegexStar(NamedTuple):
    inner: object


@record
class OmegaPower(NamedTuple):
    letters: frozenset


@record
class Concat(NamedTuple):
    prefix: object  # finite regex
    tail: object  # adversary expression


@record
class Union(NamedTuple):
    parts: tuple


@record
class DifferenceFromFull(NamedTuple):
    alphabet: tuple  # GAMMA or G2
    excluded: tuple  # of LassoWord


@record
class Named(NamedTuple):
    name: str


@record
class LassoExpr(NamedTuple):
    """The singleton language of one ultimately periodic word."""

    word: LassoWord


AdversaryExpr = object


def expr_alphabet(e) -> tuple:
    """G2 when LL appears anywhere in the expression, else GAMMA."""
    todo = [e]
    while todo:
        e = todo.pop()
        if isinstance(e, Named):
            e = builtin(e.name)
        letters = ()
        if isinstance(e, (Union, RegexConcat, RegexUnion)):
            todo += e.parts
        elif isinstance(e, (Concat, RegexStar)):
            todo += e  # (prefix, tail) or (inner,)
        elif isinstance(e, RegexLetter):
            letters = (e.letter,)
        elif isinstance(e, OmegaPower):
            letters = e.letters
        elif isinstance(e, DifferenceFromFull):
            letters = e.alphabet
        elif isinstance(e, LassoExpr):
            letters = e.word.stem.letters + e.word.cycle.letters
        else:
            raise TypeError(e)
        if Letter.LL in letters:
            return G2
    return GAMMA


# ---------------------------------------------------------------------------
# built-in adversaries (the seven standard environments)


def _power(*letters) -> OmegaPower:
    return OmegaPower(frozenset(letters))


_BUILTINS = {
    "S0": _power(Letter.OK),
    "TW": _power(Letter.OK, Letter.LW),
    "TB": _power(Letter.OK, Letter.LB),
    "C1": Union((
        _power(Letter.OK),
        Concat(RegexStar(RegexLetter(Letter.OK)), _power(Letter.LW)),
        Concat(RegexStar(RegexLetter(Letter.OK)), _power(Letter.LB)),
    )),
    "S1": Union((_power(Letter.OK, Letter.LW), _power(Letter.OK, Letter.LB))),
    "R1": _power(*GAMMA),
    "S2": _power(*G2),
}

BUILTIN_NAMES = tuple(_BUILTINS)


def builtin(name: str) -> AdversaryExpr:
    try:
        return _BUILTINS[name]
    except KeyError:
        raise ParseError("unknown adversary name %r" % name) from None


# ---------------------------------------------------------------------------
# finite regex -> NFA (Thompson)


def _regex_nfa(rx, counter):
    """(start, finals, transitions) with epsilon moves as letter None."""
    if isinstance(rx, RegexLetter):
        s, f = next(counter), next(counter)
        return s, {f}, [(s, rx.letter, f)]
    if isinstance(rx, RegexConcat):
        if not rx.parts:
            s = next(counter)
            return s, {s}, []
        start, finals, trans = _regex_nfa(rx.parts[0], counter)
        for part in rx.parts[1:]:
            s2, f2, t2 = _regex_nfa(part, counter)
            trans += t2 + [(f, None, s2) for f in finals]
            finals = f2
        return start, finals, trans
    if isinstance(rx, RegexUnion):
        s = next(counter)
        finals = set()
        trans = []
        for part in rx.parts:
            s2, f2, t2 = _regex_nfa(part, counter)
            trans += t2 + [(s, None, s2)]
            finals |= f2
        return s, finals, trans
    if isinstance(rx, RegexStar):
        s2, f2, t2 = _regex_nfa(rx.inner, counter)
        s = next(counter)
        trans = t2 + [(s, None, s2)] + [(f, None, s) for f in f2]
        return s, {s}, trans
    raise TypeError(rx)


# ---------------------------------------------------------------------------
# compilation


def compile_expr(e: AdversaryExpr) -> AdversaryAutomaton:
    alphabet = expr_alphabet(e)
    return _compile(e, alphabet)


def _compile(e, alphabet) -> AdversaryAutomaton:
    if isinstance(e, Named):
        e = builtin(e.name)
    if isinstance(e, OmegaPower):
        return _compile_lassos((), e.letters, alphabet, False)
    if isinstance(e, DifferenceFromFull):
        return _compile_lassos(e.excluded, e.alphabet, alphabet, False)
    if isinstance(e, LassoExpr):
        return _compile_lassos((e.word,), alphabet, alphabet, True)
    if isinstance(e, Union):
        autos = [_compile(p, alphabet) for p in e.parts]
    elif isinstance(e, Concat):
        autos = [
            _compile_prefixed_oblivious(rx, letters, alphabet)
            for rx, letters in _flatten_concat(e)
        ]
    else:
        raise CompileError("unsupported expression %r" % (e,))
    if not autos:
        raise CompileError("empty union")
    return functools.reduce(union, autos)


def _compile_lassos(lassos, letters, alphabet, follow: bool):
    """Deterministic co-Buchi automaton, on one track, for the words
    over ``letters`` that leave every lasso (a set power or a
    difference) or, when ``follow``, that follow one forever (a
    singleton).  A state is the frozenset of ``(lasso index, position)``
    pairs still consistent with the word read so far; a position runs
    through the stem, then wraps inside the cycle.  A letter outside
    ``letters`` leads to the reject sink.  A word that leaves every
    lasso moves to the absorbing ``"free"`` state, whose edges alone
    have color 0, or, when ``follow``, to the sink, and then only the
    edges between consistent sets have color 0."""
    # lasso i reads word[i][pos] next; past its end it wraps to loop[i]
    word = [l.stem.letters + l.cycle.letters for l in lassos]
    loop = [len(l.stem.letters) for l in lassos]
    kept, left = ((0,), "sink") if follow else ((1,), "free")

    def step(st, a):
        if st == "sink" or a not in letters:
            return "sink", (1,)
        if st == "free":
            return "free", (0,)
        nxt = frozenset(
            (i, pos + 1 if pos + 1 < len(word[i]) else loop[i])
            for i, pos in st
            if word[i][pos] == a
        )
        return (nxt, kept) if nxt else (left, (1,))

    init = frozenset((i, 0) for i in range(len(word))) or "free"
    trans = _explore(init, alphabet, step)
    return AdversaryAutomaton(alphabet, init, trans, 1, ONE_TRACK)


def _flatten_concat(e: Concat):
    """Normalizes nested Concat/Union tails into (regex, letterset) pairs."""
    tail = e.tail
    if isinstance(tail, Named):
        tail = builtin(tail.name)
    if isinstance(tail, OmegaPower):
        return [(e.prefix, tail.letters)]
    if isinstance(tail, Union):
        return [pair for part in tail.parts
                for pair in _flatten_concat(Concat(e.prefix, part))]
    if isinstance(tail, Concat):
        return [(RegexConcat((e.prefix, rx)), letters)
                for rx, letters in _flatten_concat(tail)]
    raise CompileError(
        "unsupported tail under concatenation: %r" % (tail,)
    )


def _compile_prefixed_oblivious(rx, letters, alphabet) -> AdversaryAutomaton:
    """Deterministic co-Buchi automaton for ``L(rx) . letters^w``.

    Tracks the epsilon-closed set of regex NFA states (the subset
    construction, run only as far as the product reaches) plus a flag:
    "some prefix since the last out-of-set letter was in L(rx)".  A word
    belongs to the language iff from some point on every letter is in
    the set and the flag is up, i.e. the complement of that condition
    happens finitely often.
    """
    start, finals, edges = _regex_nfa(rx, itertools.count())
    eps: dict = {}
    by_letter: dict = {}
    for (src, a, dst) in edges:
        if a is None:
            eps.setdefault(src, set()).add(dst)
        else:
            by_letter.setdefault((src, a), set()).add(dst)

    def closure(states):
        out = dict.fromkeys(states)
        _mark_back(eps, list(states), out, None)
        return frozenset(out)

    def step(st, a):
        q, g = st
        q2 = closure(
            set().union(*(by_letter.get((n, a), ()) for n in q))
        )
        g2 = (g and a in letters) or bool(q2 & finals)
        return (q2, g2), ((0 if a in letters and g2 else 1),)

    init = closure({start})
    init_state = (init, bool(init & finals))
    trans = _explore(init_state, alphabet, step)
    return AdversaryAutomaton(alphabet, init_state, trans, 1, ONE_TRACK)


# ---------------------------------------------------------------------------
# Boolean operations


def complement(a: AdversaryAutomaton) -> AdversaryAutomaton:
    """Language complement within a's full alphabet.  Raising every
    color by one flips the parity of every track's maximum, so the run
    is accepted when every clause has a track with an even raised
    maximum: one clause per choice of a track from each old clause
    (tracks taken in increasing order, independent of hash order).
    Raises ResourceBoundError past ``_MAX_WORK`` clauses."""
    _check_work("acceptance clauses", math.prod(len(c) for c in a.acceptance),
                _MAX_WORK)
    trans = {
        st: {
            x: (nxt, tuple(c + 1 for c in colors))
            for x, (nxt, colors) in row.items()
        }
        for st, row in a.transitions.items()
    }
    acc = tuple(
        frozenset(choice)
        for choice in itertools.product(*(sorted(c) for c in a.acceptance))
    )
    return AdversaryAutomaton(a.alphabet, a.initial, trans, a.num_tracks, acc)


def _product_rows(a, b) -> tuple:
    """``(initial, rows)`` of the synchronous product of a and b: its
    states are pairs, and its colors a's tracks followed by b's."""
    if a.alphabet != b.alphabet:
        raise ValueError("alphabet mismatch")
    ta, tb = a.transitions, b.transitions

    def step(st, letter):
        na, ca = ta[st[0]][letter]
        nb, cb = tb[st[1]][letter]
        return (na, nb), ca + cb

    init = (a.initial, b.initial)
    return init, _explore(init, a.alphabet, step)


def _product(a, b, combine):
    shift = a.num_tracks
    acc_b = tuple(frozenset(t + shift for t in c) for c in b.acceptance)
    init, trans = _product_rows(a, b)
    return AdversaryAutomaton(
        a.alphabet, init, trans, a.num_tracks + b.num_tracks,
        combine(a.acceptance, acc_b),
    )


def intersect(a, b) -> AdversaryAutomaton:
    """Raises ResourceBoundError past ``_MAX_WORK`` clause pairs."""
    _check_work("acceptance clauses", len(a.acceptance) * len(b.acceptance),
                _MAX_WORK)
    return _product(a, b, lambda x, y: tuple(p | q for p in x for q in y))


def union(a, b) -> AdversaryAutomaton:
    return _product(a, b, lambda x, y: x + y)


def fairness_automaton() -> AdversaryAutomaton:
    """Fair scenarios over GAMMA: messages of both processes delivered
    infinitely often.  An OK letter or a switch between LW and LB is a
    good event; accepting iff good events recur forever.  A state is the
    side whose message was lost last."""

    def step(last, a):
        if a is Letter.OK:
            return last, (2,)
        side = "W" if a is Letter.LW else "B"
        return side, ((1,) if side == last else (2,))

    return AdversaryAutomaton(GAMMA, "W", _explore("W", GAMMA, step), 1,
                              ONE_TRACK)


# ---------------------------------------------------------------------------
# DSL parser


#: every token a finite regex may contain
_REGEX_TOKENS = frozenset([*LETTER_TOKENS, "|", "*", "(", ")"])


class _DslParser(TokenReader):
    """Recursive descent over the adversary DSL; it never backtracks.

    adversary := term { "|" term }
    term      := diff | lasso | regex "." tail | tail
    tail      := set "^w" | "(" adversary ")" [ "^w" ] | name
    set       := "{" letter { "," letter } "}" | "(" letter ")" | letter
    lasso     := letter* "(" letter+ ")" "^w"
    diff      := ("GAMMA" | "G2") "^w" "\\" "{" lasso { "," lasso } "}"
    regex     := rconcat { "|" rconcat }
    rconcat   := ratom { ratom }
    ratom     := ( letter | "(" regex ")" ) { "*" }
    name      := "S0" | "TW" | "TB" | "C1" | "S1" | "R1" | "S2"
    letter    := "OK" | "LW" | "LB" | "LL"

    The tokens, ``lasso`` and ``letter`` are ``TokenReader``'s.
    ``( X )^w`` requires X to be a set power; ``( LB )^w`` is the set
    power ``LB^w``, not a lasso.  A GAMMA difference excludes only
    lassos without LL.  Only set powers, names and regex-prefixed terms,
    alone or in a parenthesized union, may follow ``regex "."``: a
    lasso or a difference there parses, and ``compile_expr`` rejects
    it.  A term is picked by lookahead: a lasso when its tokens are
    ahead, a regex prefix when its first atom (a letter, or a group
    holding regex tokens only) is not followed by "^w", else a tail.
    """

    def parse(self):
        e = self.union()
        self.end()
        return e

    def union(self):
        parts = [self.term()]
        while self.peek() == "|":
            self.take("|")
            parts.append(self.term())
        return parts[0] if len(parts) == 1 else Union(tuple(parts))

    def term(self):
        if self.peek() in ("GAMMA", "G2"):
            return self.diff()
        if self._lasso_ahead():
            return LassoExpr(self.lasso())
        if self._regex_ahead():
            rx = self.regex()
            self.take(".")
            return Concat(rx, self.tail())
        return self.tail()

    def _lasso_ahead(self) -> bool:
        """``letter* "(" letter+ ")" "^w"`` is ahead, and is not the
        ``( letter )^w`` form of a set."""
        stem = cycle = 0
        while self.peek(stem) in LETTER_TOKENS:
            stem += 1
        while self.peek(stem + 1 + cycle) in LETTER_TOKENS:
            cycle += 1
        end = stem + 1 + cycle
        return (
            self.peek(stem) == "(" and cycle > 0 and (stem, cycle) != (0, 1)
            and self.peek(end) == ")" and self.peek(end + 1) == "^w"
        )

    def _regex_ahead(self) -> bool:
        """A letter, or a group of regex tokens only, is ahead and no
        "^w" follows it."""
        if self.peek() not in LETTER_TOKENS and self.peek() != "(":
            return False
        depth = 0
        for n, tok in enumerate(itertools.islice(self.toks, self.pos, None)):
            if tok not in _REGEX_TOKENS:
                return False
            depth += (tok == "(") - (tok == ")")
            if depth == 0:
                return self.peek(n + 1) != "^w"
        return False

    def tail(self):
        if self.peek() in BUILTIN_NAMES:
            return Named(self.take())
        if self.peek() == "(" and not (
            self.peek(1) in LETTER_TOKENS and self.peek(2) == ")"
        ):
            self.take("(")
            inner = self.union()
            self.take(")")
            if self.peek() != "^w":
                return inner
            if not isinstance(inner, OmegaPower):
                raise ParseError("'^w' after a non-set expression")
            self.take("^w")
            return inner
        letters = self.letter_set()
        self.take("^w")
        return OmegaPower(letters)

    def letter_set(self) -> frozenset:
        opening = self.peek()
        if opening not in ("{", "("):
            return frozenset({self.letter()})
        self.take()
        letters = {self.letter()}
        while opening == "{" and self.peek() == ",":
            self.take(",")
            letters.add(self.letter())
        self.take("}" if opening == "{" else ")")
        return frozenset(letters)

    def diff(self):
        kind = self.take()
        alphabet = GAMMA if kind == "GAMMA" else G2
        self.take("^w")
        self.take("\\")
        self.take("{")
        lassos = [self.lasso()]
        while self.peek() == ",":
            self.take(",")
            lassos.append(self.lasso())
        self.take("}")
        for l in lassos:
            if alphabet == GAMMA and not l.is_gamma():
                raise ParseError("LL letter in a GAMMA-difference lasso")
        return DifferenceFromFull(alphabet, tuple(lassos))

    def regex(self):
        parts = [self.regex_concat()]
        while self.peek() == "|":
            self.take("|")
            parts.append(self.regex_concat())
        return parts[0] if len(parts) == 1 else RegexUnion(tuple(parts))

    def regex_concat(self):
        parts = []
        while True:
            if self.peek() in LETTER_TOKENS:
                atom = RegexLetter(self.letter())
            elif self.peek() == "(":
                self.take("(")
                atom = self.regex()
                self.take(")")
            else:
                break
            while self.peek() == "*":
                self.take("*")
                atom = RegexStar(atom)
            parts.append(atom)
        if not parts:
            raise ParseError("empty regex")
        return parts[0] if len(parts) == 1 else RegexConcat(tuple(parts))


def parse_adversary(text: str) -> AdversaryExpr:
    try:
        return _DslParser(text).parse()
    except RecursionError:
        raise ParseError("expression nested too deeply") from None


def load(text: str) -> AdversaryAutomaton:
    """parse + compile in one call."""
    return compile_expr(parse_adversary(text))
