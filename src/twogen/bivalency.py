"""Valency exploration for a concrete algorithm under an adversary.

A partial scenario is i-valent when every enumerated completion makes
both processes decide i, and bivalent when both values are reachable.
Everything here is relative to a fixed executable algorithm and a
bounded unrolling: extensions are enumerated up to a depth and closed
off with the tails ``protocol.DEFAULT_TAILS``, and a run from a prefix
p searched to a depth d gets len(p) + d + ``protocol.SPARE_ROUNDS``
rounds, as in ``verify``, so an Undetermined verdict only signals bound
exhaustion, never a theorem.

One depth-first walk over the live extensions of a prefix,
``protocol._walk``, hands over the runs that end at each word, by
``verify``'s completion rule.  It stops at a final word whose runs
agree; below one whose runs disagree it goes on for the tree to read.
Once the walk ends, each word's decisions join its parent's.
``valency`` reads the root of this map; ``explore`` builds its tree
from the map, reading only the children of bivalent words, and
``find_decisive`` walks that tree.
"""

from __future__ import annotations

import enum
import json
from typing import NamedTuple, Optional

from .adversary import AdversaryAutomaton
from .protocol import Algorithm, ProcessState, _walk
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

    A word's set holds the decisions of the runs that end at or below
    it in ``protocol._walk``, which are all of its completions: None
    stands for a run that did not halt within len(prefix) + depth +
    SPARE_ROUNDS rounds.  The map holds ``prefix`` and every child of
    a word in it where the walk does not stop: it stops at a final
    word whose runs agree, univalent or undetermined, so no reader
    asks for its children.
    """
    if next(a.extensions(prefix, 0), None) is None:
        raise ValueError(
            "prefix %r is not a prefix of the adversary" % str(prefix))
    below: dict = {}

    def agree(configs) -> bool:
        return len(_decisions(*configs[0])) == 1

    for word, _, ends in _walk(algorithm, a, prefix, depth, (inputs,),
                               agree):
        below[word] = {d for _, (final,), n in ends if n
                       for d in _decisions(*final)}
    # the walk yields a word before its extensions, so in reverse each
    # set is whole before it joins its parent's
    for word in reversed(below):
        if len(word) > len(prefix):
            below[word[:-1]] |= below[word]
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
