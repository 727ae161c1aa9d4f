"""Valency exploration for a concrete algorithm under an adversary.

A partial scenario is i-valent when every enumerated completion makes
both processes decide i, and bivalent when both values are reachable.
Everything here is relative to a fixed executable algorithm and a
bounded unrolling: extensions are enumerated up to a depth and closed
off with the tails ``protocol.DEFAULT_TAILS``, and a run from a prefix
p searched to a depth d gets len(p) + d + ``protocol.SPARE_ROUNDS``
rounds, as in ``verify``, so an Undetermined verdict only signals bound
exhaustion, never a theorem.

One depth-first walk over the live extensions of a prefix
(``protocol._walk``) runs each distinct completion once, from the
configuration of the word it completes, and collects, for every word
it passes, the decisions reached below that word.  A word ending in x
takes its parent's run under x^w, since w x . x^w is w . x^w, and each
word's decisions are added to its ancestors on the walk's path.  The
walk stops at a final word, whose processes have both halted: every
completion below it decides as it did, so nothing below it is run.
When its runs agree it is entered alone, with its decision if some
live extension within the depth takes a default tail and with nothing
otherwise, read from ``verify``'s completion count; no reader goes
below a word that is not bivalent.  When they disagree it is bivalent,
and its subtree is filled from the automaton, without being run, for
the tree to go below it.  ``valency`` reads the root of this map;
``explore`` builds its tree from the map, reading only the children of
bivalent words, and ``find_decisive`` walks that tree.
"""

from __future__ import annotations

import enum
import json
from typing import NamedTuple, Optional

from .adversary import AdversaryAutomaton
from .protocol import (SPARE_ROUNDS, Algorithm, ProcessState, _TAIL_LETTERS,
                       _completion_counts, _halted, _resume, _walk)
from .records import fields_eq, fields_repr, record
from .words import FiniteWord


class Valency(enum.Enum):
    ZERO_VALENT = "ZeroValent"
    ONE_VALENT = "OneValent"
    BIVALENT = "Bivalent"
    UNDETERMINED = "Undetermined"

    def __str__(self):
        return self.value


def _decisions_below(algorithm: Algorithm, a: AdversaryAutomaton,
                     prefix: FiniteWord, inputs: tuple, depth: int) -> dict:
    """``word -> decisions`` for ``prefix`` and the live extensions of it
    by at most ``depth`` letters that a reader can reach, in ``str``
    order.

    A word's set holds the decisions of the runs under every scenario
    ``word'.tail`` inside the adversary with ``word'`` the word itself
    or an extension of it; None stands for a run that did not halt
    within len(prefix) + depth + SPARE_ROUNDS rounds.  The map holds
    ``prefix``, every child of a word in it that is not final, and the
    whole subtree of a final word whose runs disagree: a final word whose
    runs agree is univalent or undetermined, so no reader asks for its
    children, and it is entered without them.
    """
    if next(a.extensions(prefix, 0), None) is None:
        raise ValueError(
            "prefix %r is not a prefix of the adversary" % str(prefix))
    limit = len(prefix) + depth
    budget = limit + SPARE_ROUNDS
    forever, count = a.accepts_forever, _completion_counts(a)
    below: dict = {}
    # path[k]: (set, runs) of the current word's ancestor with
    # len(prefix) + k letters; runs holds the decisions under each of
    # DEFAULT_TAILS, and every set holds those of its descendants so far
    path: list = []

    def enter(word, found, runs=None):
        del path[len(word) - len(prefix):]
        # an ancestor's set holds its descendants' on the path, so the
        # climb ends at the first ancestor already holding ``found``
        for seen, _ in reversed(path):
            if found <= seen:
                break
            seen |= found
        below[word] = found = set(found)
        path.append((found, runs))

    for word, state, (config,) in _walk(algorithm, a, prefix, depth,
                                        (inputs,)):
        if _halted(config):  # final: nothing below it is run
            decided = _decisions(*config)
            if len(decided) == 1:  # some default tail within the depth?
                tail = any(count(state, j)
                           for j in range(limit - len(word) + 1))
                enter(word, decided if tail else frozenset())
                continue
            for w, s in a.extensions(word, limit - len(word)):
                enter(w, decided if count(s, 0) else frozenset())
            continue
        k = len(word) - len(prefix)
        last = word.letters[-1] if k else None
        runs = []
        for i, letter in enumerate(_TAIL_LETTERS):
            if letter is last:  # w x . x^w is w . x^w: the parent's run
                runs.append(path[k - 1][1][i])
            elif forever(state, letter):
                runs.append(_decisions(*_resume(algorithm, config, letter,
                                                len(word), budget)))
            else:
                runs.append(frozenset())
        enter(word, frozenset().union(*runs), runs)
    return below


def _decisions(white: ProcessState, black: ProcessState) -> frozenset:
    """The decisions of a run ending in ``(white, black)``; an agreement
    violation makes valency meaningless, and both values surface it as
    bivalence of the prefix."""
    if white.halted and black.halted:
        return frozenset((white.decided, black.decided))
    return frozenset((None,))


def _valency_of(decided: set) -> Valency:
    if decided == {0}:
        return Valency.ZERO_VALENT
    if decided == {1}:
        return Valency.ONE_VALENT
    if {0, 1} <= decided:
        return Valency.BIVALENT
    return Valency.UNDETERMINED


def valency(algorithm: Algorithm, a: AdversaryAutomaton,
            prefix: FiniteWord, inputs: tuple, depth: int) -> Valency:
    """Valency of ``prefix`` for the given inputs, over completions of
    the prefix inside the adversary bounded by ``depth``."""
    below = _decisions_below(algorithm, a, prefix, inputs, depth)
    return _valency_of(below[prefix])


class ExplorationNode:
    """A node of the valency tree; ``children`` grows as it is built."""

    __slots__ = _fields = ("prefix", "valency", "children")

    def __init__(self, prefix: FiniteWord, valency: Valency,
                 children: Optional[list] = None):
        self.prefix, self.valency = prefix, valency
        self.children = [] if children is None else children

    __eq__, __hash__, __repr__ = fields_eq, None, fields_repr

    def to_dict(self):
        return {
            "prefix": str(self.prefix),
            "valency": self.valency.value,
            "children": [c.to_dict() for c in self.children],
        }


def explore(algorithm: Algorithm, a: AdversaryAutomaton, inputs: tuple,
            depth: int) -> ExplorationNode:
    """Valency tree over Pref(a) up to ``depth`` letters."""
    below = _decisions_below(algorithm, a, FiniteWord(), inputs, depth)
    letters = sorted(a.alphabet, key=str)

    def node(prefix: FiniteWord) -> ExplorationNode:
        n = ExplorationNode(prefix, _valency_of(below[prefix]))
        if len(prefix) < depth and n.valency is Valency.BIVALENT:
            for letter in letters:
                child = prefix + FiniteWord.of(letter)
                if child in below:
                    n.children.append(node(child))
        return n

    return node(FiniteWord())


@record
class DecisiveReport(NamedTuple):
    decisive: list  # FiniteWord: bivalent, all children univalent
    inconclusive: list  # bivalent with some Undetermined child

    def to_json(self) -> str:
        return json.dumps({
            "decisive": [str(w) for w in self.decisive],
            "inconclusive": [str(w) for w in self.inconclusive],
        })


def find_decisive(algorithm: Algorithm, a: AdversaryAutomaton,
                  inputs: tuple, depth: int) -> DecisiveReport:
    """Breadth-first search for decisive prefixes: bivalent words all
    of whose one-letter extensions inside the adversary are univalent.
    Candidates with an Undetermined child are reported separately."""
    decisive = []
    inconclusive = []
    level = [explore(algorithm, a, inputs, depth)]
    while level:
        for n in level:
            if n.valency is not Valency.BIVALENT:
                continue
            if len(n.prefix) < depth:
                child_vals = [c.valency for c in n.children]
            else:
                # the tree stops at depth: one walk a letter further,
                # with the budget of a depth-0 search from each child
                below = _decisions_below(algorithm, a, n.prefix, inputs, 1)
                child_vals = [_valency_of(found)
                              for w, found in below.items()
                              if len(w) > len(n.prefix)]
            if all(cv in (Valency.ZERO_VALENT, Valency.ONE_VALENT)
                   for cv in child_vals):
                decisive.append(n.prefix)
            elif any(cv is Valency.UNDETERMINED for cv in child_vals):
                inconclusive.append(n.prefix)
        level = [c for n in level for c in n.children]
    return DecisiveReport(decisive, inconclusive)
