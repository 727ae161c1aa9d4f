"""Solvability oracle for GAMMA-adversaries.

An adversary without double omissions is solvable exactly when one of
four families applies: some fair scenario is excluded (F1), both
members of a special pair are excluded (F2), or one of the corner
scenarios LB^w / LW^w is excluded (F3 / F4).  The oracle decides all
four, produces machine-checkable witnesses, picks the forbidden
scenario used to parameterize the index-guard consensus algorithm, and
derives round lower bounds from prefix inclusion.

Every family is read off the adversary's own automaton; no complement
is built.  F1 is one search over the product with the fairness
automaton (``_excluded_fair_scenario``), F2 a walk over the adversary's
transitions (``_excluded_special_pair``), and F3 / F4 two membership
tests.  F2 and the corners read the constant tails x^w from the
automaton's own table (``AdversaryAutomaton.accepts_forever``).
"""

from __future__ import annotations

import enum
import itertools
import json
from typing import NamedTuple, Optional

from . import adversary as adv
from .adversary import AdversaryAutomaton
from .indexfn import ind_step, is_special_pair
from .records import record
from .words import FiniteWord, GAMMA, LassoWord, Letter, is_fair


class Family(enum.Enum):
    F1 = "F1"  # a fair scenario is excluded
    F2 = "F2"  # a whole special pair is excluded
    F3 = "F3"  # LB^w is excluded
    F4 = "F4"  # LW^w is excluded


@record
class FairWitness(NamedTuple):
    scenario: LassoWord


@record
class CornerWitness(NamedTuple):
    scenario: LassoWord


@record
class SpecialPairWitness(NamedTuple):
    first: LassoWord
    second: LassoWord


@record
class Verdict(NamedTuple):
    solvable: bool
    families: frozenset
    witness: object
    reason: str

    def to_json(self) -> str:
        doc = {
            "solvable": self.solvable,
            "families": sorted(f.value for f in self.families),
            "witness": _witness_json(self.witness),
            "reason": self.reason,
        }
        return json.dumps(doc)


def _witness_json(w):
    if w is None:
        return None
    if isinstance(w, FairWitness):
        return {"kind": "fair", "scenario": str(w.scenario)}
    if isinstance(w, CornerWitness):
        return {"kind": "corner", "scenario": str(w.scenario)}
    if isinstance(w, SpecialPairWitness):
        return {
            "kind": "special-pair",
            "scenarios": [str(w.first), str(w.second)],
        }
    raise TypeError(w)


CORNER_LB = adv._CONSTANT[Letter.LB]
CORNER_LW = adv._CONSTANT[Letter.LW]


#: fair scenarios over GAMMA, built once
_FAIRNESS = adv.fairness_automaton()


def _excluded_fair_scenario(a: AdversaryAutomaton) -> Optional[LassoWord]:
    """A fair scenario outside L(a) (family F1), or None.

    One search over ``a x fairness``: a sub-SCC whose fairness track has
    an even maximum and where every clause of ``a.acceptance`` has a
    track with an odd one is a set of cycles whose runs are fair and
    rejected by ``a``.  The witness comes from the first such sub-SCC in
    ``adversary._good_sccs`` order: SCCs by their first edge in the
    product's exploration order; inside an SCC, after the forced
    prunings, the first clause of ``a`` whose tracks all have even
    maxima tries its tracks in increasing order, depth first."""
    init, rows = adv._product_rows(a, _FAIRNESS)
    fair_track = frozenset((a.num_tracks,))
    return adv._good_lasso(init, rows, (fair_track,), a.acceptance)


def classify(a: AdversaryAutomaton) -> Verdict:
    """Full solvability verdict for an automaton over GAMMA.

    F1 is decided by one search over ``a x fairness`` for fair cycles
    that ``a`` rejects, F2 by a walk over ``a``'s own transitions, and
    F3 / F4 by membership of the corners, read from the automaton's
    table of constant tails (``accepts_forever``) as F2 is.  ``a`` is
    never complemented, so its clauses are never expanded into the
    complement's.  The witness is the fair scenario if F1 holds (see
    ``_excluded_fair_scenario`` for which one), else the first excluded
    corner, else the special pair.  Raises ResourceBoundError when the
    F1 search visits more than ``adversary._MAX_WORK`` SCCs."""
    if a.alphabet != GAMMA:
        raise ValueError(
            "solvability is characterized for GAMMA-adversaries only"
        )
    families = set()
    corner = None
    if not a.accepts_forever(a.initial, Letter.LB):
        families.add(Family.F3)
        corner = CornerWitness(CORNER_LB)
    if not a.accepts_forever(a.initial, Letter.LW):
        families.add(Family.F4)
        if corner is None:
            corner = CornerWitness(CORNER_LW)

    fair_wit = _excluded_fair_scenario(a)
    fair = None
    if fair_wit is not None:
        families.add(Family.F1)
        fair = FairWitness(fair_wit)

    pair = _excluded_special_pair(a)
    if pair is not None:
        families.add(Family.F2)

    # witness preference: a fair scenario makes the algorithm's
    # analysis uniform, corners are degenerate-but-simple, a special
    # pair needs its partner excluded too
    witness = fair or corner or pair
    if families:
        reason = "solvable via %s" % ", ".join(
            sorted(f.value for f in families)
        )
    else:
        reason = (
            "obstruction: contains all fair scenarios, both corner "
            "scenarios, and at least one member of every special pair"
        )
    return Verdict(bool(families), frozenset(families), witness, reason)


def select_forbidden_scenario(v: Verdict) -> LassoWord:
    """The scenario outside L that parameterizes the consensus
    algorithm (fair preferred, then corner, then a pair member)."""
    if not v.solvable:
        raise ValueError("no forbidden scenario for an obstruction")
    if isinstance(v.witness, (FairWitness, CornerWitness)):
        return v.witness.scenario
    return v.witness.first


# ---------------------------------------------------------------------------
# the special-pair product machine


def special_pair_product(c: AdversaryAutomaton) -> AdversaryAutomaton:
    """Pair machine over letter pairs deciding family F2.

    ``c`` recognizes the excluded scenarios, that is, the complement
    of L.  The machine runs c on both components and tracks the clipped
    index difference d = ind(w') - ind(w) in {0, +1} together with the
    parity of the smaller index; index arithmetic shows these two
    values determine which letter pairs keep the difference within
    one.  It accepts when both components are excluded scenarios and
    d is eventually +1 (so w != w'), i.e. (w, w') is a special pair
    wholly outside L.

    ``classify`` builds neither this machine nor the complement: it
    walks only the machine's diagonal, on L's own transitions, which
    are c's, testing exclusion as non-acceptance by L
    (``_excluded_special_pair``).  Tests check that walk against this
    product.
    """
    if c.alphabet != GAMMA:
        raise ValueError("pair machine requires a GAMMA automaton")
    pair_alphabet = tuple(
        (x, y) for x in GAMMA for y in GAMMA
    )
    sink = "sink"
    init = (c.initial, c.initial, 0, 0)
    # odd on every track: a run trapped in the sink satisfies nothing
    sink_colors = (1,) * (2 * c.num_tracks + 1)

    def step(state, pair):
        if state == sink:
            return sink, sink_colors
        (q1, q2, d, p) = state
        a, a2 = pair
        moved = _pair_step(d, p, a, a2)
        if moved is None:
            return sink, sink_colors
        d, p = moved
        n1, c1 = c.transitions[q1][a]
        n2, c2 = c.transitions[q2][a2]
        sep = 0 if d == 1 else 1
        return (n1, n2, d, p), c1 + c2 + (sep,)

    trans = adv._explore(init, pair_alphabet, step)
    n = c.num_tracks
    # both components accept and the pair separates: c, c shifted by n, {2n}
    acc = tuple(
        x | frozenset(t + n for t in y) | {2 * n}
        for x in c.acceptance
        for y in c.acceptance
    )
    return AdversaryAutomaton(pair_alphabet, init, trans, 2 * n + 1, acc)


def _pair_step(d: int, p: int, a: Letter, a2: Letter):
    """The pair machine's index bookkeeping on reading ``(a, a2)``: the
    next clipped difference d and parity p, or None for the sink.  The
    index recurrence's step depends only on the parity of the index it
    starts from, so parities p and p + d stand in for ind(w) and ind(w');
    the automaton components never affect either value."""
    i, j = ind_step(p, a), ind_step(p + d, a2)
    return (j - i, i % 2) if j - i in (0, 1) else None


def _admitted_splits(p: int) -> tuple:
    """``(a, a2, keep)`` for each split a != a2 that ``_pair_step``
    admits from difference 0 at parity p, in GAMMA x GAMMA order; keep
    is the parity after it."""
    steps = ((a, a2, _pair_step(0, p, a, a2))
             for a, a2 in itertools.product(GAMMA, GAMMA) if a is not a2)
    return tuple((a, a2, moved[1]) for a, a2, moved in steps
                 if moved is not None)


#: The F2 walk's index bookkeeping per parity: the parity after each
#: letter, in GAMMA order, and the admitted splits.
_NEXT_PARITY = {p: tuple((a, ind_step(p, a) % 2) for a in GAMMA)
                for p in (0, 1)}
_SPLITS = {p: _admitted_splits(p) for p in (0, 1)}


def _excluded_special_pair(
        a: AdversaryAutomaton) -> Optional[SpecialPairWitness]:
    """A special pair wholly outside L(a), or None, found on the
    diagonal of the pair machine of a's complement.  The complement has
    a's transitions, so the walk reads ``a.transitions`` and tests
    exclusion of keep^w as ``not a.accepts_forever``, a's own table of
    constant tails; no complement is built.

    While d = 0 both components read the same letter, so those states
    are (q, q, 0, p); once d = +1 only (keep, keep) is admitted, with
    keep = LW at parity 0 and LB at parity 1, and the parity never
    changes again.  Every accepted pair is therefore
    (u.a.keep^w, u.a2.keep^w): a breadth-first walk over (q, p) with
    letters in GAMMA order, trying the splits (a, a2) at each state,
    returns the pair with the length-lexicographically least common
    prefix u, then the first split in GAMMA x GAMMA order."""
    keep_letter = (Letter.LW, Letter.LB)  # keep, by parity

    def succ(node):
        q, p = node
        row = a.transitions[q]
        return ((x, (row[x][0], p2)) for x, p2 in _NEXT_PARITY[p])

    for (q, p), u in adv._breadth_first((a.initial, 0), succ):
        row = a.transitions[q]
        for x, x2, after in _SPLITS[p]:
            keep = keep_letter[after]
            if not (a.accepts_forever(row[x][0], keep)
                    or a.accepts_forever(row[x2][0], keep)):
                return SpecialPairWitness(LassoWord.of(u + (x,), (keep,)),
                                          LassoWord.of(u + (x2,), (keep,)))
    return None


def pair_machine_difference(c: AdversaryAutomaton, v: FiniteWord,
                            v2: FiniteWord) -> Optional[int]:
    """Clipped difference tracked by the pair machine after reading
    (v, v2) letterwise; None when the machine is in the reject sink.
    The components run on ``c`` never affect it, so ``c`` only has to
    be over GAMMA.  Exposed for validation against brute-force index
    arithmetic."""
    if c.alphabet != GAMMA:
        raise ValueError("pair machine requires a GAMMA automaton")
    d, p = 0, 0
    for a, a2 in zip(v.letters, v2.letters):
        moved = _pair_step(d, p, a, a2)
        if moved is None:
            return None
        d, p = moved
    return d


# ---------------------------------------------------------------------------
# round complexity


def round_lower_bound(l: AdversaryAutomaton, rmax: int = 8) -> int:
    """Largest r <= rmax with every length-r word of GAMMA^w a prefix
    of l; consensus on l then needs more than r rounds.  0 when even
    r = 1 fails.

    Pref_r(l) = GAMMA^r iff every state reached by a length-r word is
    live.  The layers of states reached in exactly r steps are each a
    function of the previous one, so once a layer repeats, every later
    layer is one already found live and the answer is rmax."""
    if l.alphabet != GAMMA:
        raise ValueError("round bound requires a GAMMA automaton")
    if rmax < 1:
        raise ValueError("rmax %d is below 1" % rmax)
    layer = frozenset([l.initial])
    seen = {layer}
    for r in range(1, rmax + 1):
        layer = frozenset(
            l.transitions[q][a][0] for q in layer for a in GAMMA
        )
        if not layer <= l.live:
            return r - 1
        if layer in seen:
            return rmax
        seen.add(layer)
    return rmax


# ---------------------------------------------------------------------------
# witness validation (used by tests and by CLI reporting)


def check_witness(a: AdversaryAutomaton, v: Verdict) -> bool:
    """Machine-checks the verdict's witness against its automaton."""
    w = v.witness
    if w is None:
        return not v.solvable
    if isinstance(w, FairWitness):
        return is_fair(w.scenario) and not a.contains(w.scenario)
    if isinstance(w, CornerWitness):
        return w.scenario in (CORNER_LB, CORNER_LW) and not a.contains(
            w.scenario
        )
    if isinstance(w, SpecialPairWitness):
        return (
            is_special_pair(w.first, w.second)
            and not a.contains(w.first)
            and not a.contains(w.second)
        )
    return False
