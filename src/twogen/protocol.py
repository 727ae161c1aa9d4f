"""Executable round-based consensus protocols for two processes.

The simulator drives both processes in lockstep synchronous rounds;
whether a round's messages arrive is dictated by the scenario letter
(OK both, LW drops white's, LB drops black's, LL both).  A process that
has halted sends nothing, so its peer's receive returns nothing
regardless of the letter.

Process states (``ProcessState``) are immutable named tuples, compared
and hashed by value: derive a changed state with ``s._replace(...)``;
a round's message is the sender's state.  Transcripts, violations and
reports are ``@record`` named tuples too, built once their run is over.

Algorithms halt by one rule (``Algorithm.maybe_halt``): a process
halts once its index leaves the undecided region of the round's table
``sides(r)`` and decides the input of the side it fell on.  The
index-guard algorithm ("A_w") is parameterized by a scenario w excluded
from the adversary; its undecided region is the indexes within 2 of
ind(w|_r).  ``verify`` and the valency walks read their runs off one
prefix walk, ``_walk``, by one completion rule: runs are closed off with
DEFAULT_TAILS, and resumed for SPARE_ROUNDS rounds, only at the leaves,
the words at the depth limit, and a final word where the walk stops has
its completions counted with ``_completion_counts``.
"""

from __future__ import annotations

import functools
import itertools
import json
from bisect import bisect_right
from typing import Iterable, NamedTuple, Optional

from .adversary import _CONSTANT, AdversaryAutomaton, _check_work
from .indexfn import BLACK, WHITE, ProcessId, ind, ind_step
from .records import record
from .words import FiniteWord, LassoWord, Letter


class ProcessState(NamedTuple):
    id: ProcessId
    init: int
    initother: Optional[int] = None
    ind: int = 0
    round: int = 0
    decided: Optional[int] = None

    @property
    def halted(self) -> bool:
        """A process halts exactly when it decides."""
        return self.decided is not None


class Algorithm:
    """Strategy interface used by the simulator."""

    def __init__(self):
        self._tables = {}  # r -> self.sides(r)

    def start(self, pid: ProcessId, init: int) -> ProcessState:
        return ProcessState(pid, init, ind=0 if pid is WHITE else 1)

    def sides(self, r: int) -> tuple:
        """Round r's table ``(bounds, sides)``: a process at index ind
        halts on the side ``sides[bisect_right(bounds, ind)]``, WHITE or
        BLACK, and keeps running where that is None."""
        raise NotImplementedError

    def maybe_halt(self, s: ProcessState) -> ProcessState:
        """Called at the top of each round; halts on a side and decides
        that side's input, building each round's table once per
        instance."""
        table = self._tables.get(s.round)
        if table is None:
            table = self._tables[s.round] = self.sides(s.round)
        bounds, sides = table
        side = sides[bisect_right(bounds, s.ind)]
        if side is None:
            return s
        value = s.init if side is s.id else s.initother
        if value is None:
            raise AssertionError("decided on an absent initother")
        return ProcessState(s.id, s.init, s.initother, s.ind, s.round, value)

    def receive(self, s: ProcessState,
                received: Optional[ProcessState]) -> ProcessState:
        """Index/state update from the sender's state, or None."""
        if received is None:
            ind, initother = 3 * s.ind, s.initother
        else:
            ind, initother = 2 * received.ind + s.ind, received.init
        return ProcessState(s.id, s.init, initother, ind, s.round + 1,
                            s.decided)


class IndexGuardAlgorithm(Algorithm):
    """Algorithm A_w: run while |ind - ind(w|_r)| <= 2, then decide by
    which side of the target index the local index fell on."""

    def __init__(self, w: LassoWord):
        if not w.is_gamma():
            raise ValueError("the forbidden scenario must avoid LL")
        super().__init__()
        self.w = w
        self._targets = [0]  # ind(w|_r) at index r

    def target_index(self, r: int) -> int:
        """ind(w|_r), read from a list extended on demand."""
        targets = self._targets
        while len(targets) <= r:
            targets.append(ind_step(targets[-1],
                                    self.w.letter_at(len(targets) - 1)))
        return targets[r]

    def sides(self, r: int) -> tuple:
        """White's side below t - 2 and black's above t + 2, for t the
        target index ind(w|_r)."""
        t = self.target_index(r)
        return [t - 2, t + 3], [WHITE, None, BLACK]


class OwnInputAlgorithm(Algorithm):
    """Strawman that decides its own input immediately (round 1)."""

    def maybe_halt(self, s: ProcessState) -> ProcessState:
        if s.round >= 1:
            return ProcessState(s.id, s.init, s.initother, s.ind, s.round,
                                s.init)
        return s


@record
class Transcript(NamedTuple):
    scenario: LassoWord
    inputs: tuple
    rounds: list  # (letter, white state, black state) per round
    white: ProcessState
    black: ProcessState

    @property
    def decisions(self) -> tuple:
        return (self.white.decided, self.black.decided)

    @property
    def exhausted(self) -> bool:
        """Whether the round budget ran out before both halted."""
        return not (self.white.halted and self.black.halted)

    def to_json(self) -> str:
        doc = {
            "scenario": str(self.scenario),
            "inputs": list(self.inputs),
            "rounds": [
                {
                    "letter": letter.value,
                    "white": _state_json(w),
                    "black": _state_json(b),
                }
                for (letter, w, b) in self.rounds
            ],
            "decisions": {
                "white": self.decisions[0],
                "black": self.decisions[1],
            },
            "halting_rounds": {
                "white": self.white.round if self.white.halted else None,
                "black": self.black.round if self.black.halted else None,
            },
            "exhausted": self.exhausted,
        }
        return json.dumps(doc)


def _state_json(s: ProcessState):
    return {
        "ind": s.ind,
        "initother": s.initother,
        "decided": s.decided,
        "halted": s.halted,
    }


def _delivered(letter: Letter, sender: ProcessId) -> bool:
    if letter is Letter.OK:
        return True
    if letter is Letter.LL:
        return False
    if letter is Letter.LW:
        return sender is not WHITE
    return sender is not BLACK  # LB drops black's message


#: ``letter -> (whether black's message reaches white, whether white's
#: reaches black)``
_DELIVERY = {letter: (_delivered(letter, BLACK), _delivered(letter, WHITE))
             for letter in Letter}


def _start(algorithm: Algorithm, inputs: tuple) -> tuple:
    """The configuration (white, black) before the first round."""
    return (algorithm.start(WHITE, inputs[0]),
            algorithm.start(BLACK, inputs[1]))


def _halt_checks(algorithm: Algorithm, config: tuple) -> tuple:
    """``config`` after the halt checks at the top of a round."""
    white, black = config
    if not white.halted:
        white = algorithm.maybe_halt(white)
    if not black.halted:
        black = algorithm.maybe_halt(black)
    return white, black


def _exchange(receive, white: ProcessState, black: ProcessState,
              letter: Letter) -> tuple:
    """``(white, black)`` after one round's exchange under ``letter``,
    with ``receive`` the algorithm's.  A halted process sends nothing
    and receives nothing; a running one sends its state."""
    white_hears, black_hears = _DELIVERY[letter]
    if white.decided is None:
        if black.decided is None:
            return (receive(white, black if white_hears else None),
                    receive(black, white if black_hears else None))
        return receive(white, None), black
    if black.decided is None:
        return white, receive(black, None)
    return white, black


def _run(algorithm: Algorithm, config: tuple, letters: Iterable[Letter],
         rounds: Optional[list] = None) -> tuple:
    """Plays one round per letter from ``config``, whose round's halt
    checks are done, and returns the configuration after the last
    exchange.  Every later round starts with its halt checks, and the
    run ends once both processes have halted.  Exchanged rounds are
    appended to ``rounds`` if given."""
    white, black = config
    maybe_halt, receive = algorithm.maybe_halt, algorithm.receive
    for i, letter in enumerate(letters):
        if i:
            if white.decided is None:
                white = maybe_halt(white)
            if black.decided is None:
                black = maybe_halt(black)
        if white.decided is not None and black.decided is not None:
            break
        white, black = _exchange(receive, white, black, letter)
        if rounds is not None:
            rounds.append((letter, white, black))
    return white, black


def _halted(config: tuple) -> bool:
    """Whether both processes of ``config`` have halted: then no later
    round changes it, under any letters."""
    return config[0].halted and config[1].halted


def _walk(algorithm: Algorithm, a: AdversaryAutomaton, prefix: FiniteWord,
          depth: int, vectors: tuple, stop):
    """Yields ``(word, configs, ends)`` for ``prefix`` and its live
    extensions by at most ``depth`` letters, in the order of
    ``a.extensions(prefix, depth)``, with per input vector the
    configuration at the top of round ``len(word)`` after its halt
    checks, one round on from the parent's: runs sharing a prefix share
    its rounds.  ``ends`` lists the runs that end at the word, as
    ``(tail, finals, n)``: ``n`` runs per input vector, each ending in
    its configuration of ``finals``.

    A word whose configurations have all halted is final: every
    extension has the same configurations.  At a final word the walk
    reads ``stop(configs)`` once; if true, it sends True back to
    ``a.extensions``, goes no lower and ends ``(None, configs, n)``,
    with n the pairs of a leaf below and a tail of DEFAULT_TAILS
    accepted after it.  At a leaf, a word of len(prefix) + depth
    letters, it ends ``(x^w, finals, 1)`` per accepted tail x^w, a
    halted configuration as it is and any other resumed under x to
    len(prefix) + depth + SPARE_ROUNDS rounds.  Other words end no run:
    w.x^w is (w.x^m).x^w.  Raises as ``a.extensions`` does, and yields
    nothing when no accepted word extends ``prefix``."""
    words = a.extensions(prefix, depth)
    item = next(words, None)
    if item is None:
        return

    limit = len(prefix.letters) + depth
    budget = limit + SPARE_ROUNDS
    forever, count = a.accepts_forever, _completion_counts(a)
    maybe_halt, receive = algorithm.maybe_halt, algorithm.receive

    def step(config, letter):
        """One exchange under ``letter``, then the next round's halt
        checks: ``_halt_checks`` of a one-letter ``_run``."""
        white, black = _exchange(receive, *config, letter)
        if white.decided is None:
            white = maybe_halt(white)
        if black.decided is None:
            black = maybe_halt(black)
        return white, black

    # path[k]: the configurations on the current word's ancestor with
    # len(prefix) + k letters
    path = [[functools.reduce(step, prefix.letters, _halt_checks(
        algorithm, _start(algorithm, inputs))) for inputs in vectors]]
    while True:
        word, state = item
        k = len(word.letters) - len(prefix.letters)
        if k:
            path[k:] = [[step(c, word.letters[-1]) for c in path[k - 1]]]
        configs = path[k]
        stops = all(map(_halted, configs)) and stop(configs)
        if stops:
            ends = [(None, configs, count(state, depth - k))]
        elif k == depth:
            ends = [(tail, [c if _halted(c) else
                            _resume(algorithm, c, x, limit, budget)
                            for c in configs], 1)
                    for x, tail in zip(_TAIL_LETTERS, DEFAULT_TAILS)
                    if forever(state, x)]
        else:
            ends = []
        yield word, configs, ends
        try:
            item = words.send(stops)
        except StopIteration:
            return


def _resume(algorithm: Algorithm, config: tuple, letter: Letter,
            start: int, budget: int) -> tuple:
    """Where ``simulate(algorithm, LassoWord(word, (letter,)), inputs,
    budget)`` ends, from ``_walk``'s configuration for those inputs on a
    word of length ``start < budget``."""
    return _run(algorithm, config, itertools.repeat(letter, budget - start))


#: the simulator's default round budget, and the deepest terminating
#: subdivision or ``contrex`` family
MAX_ROUNDS = 64

#: the rounds a bounded walk gives a run past the words it searches
SPARE_ROUNDS = 40


def simulate(algorithm: Algorithm, scenario: LassoWord,
             inputs: tuple, max_rounds: int = MAX_ROUNDS) -> Transcript:
    """Runs both processes under the scenario until both halt or the
    round budget runs out (reported, not raised)."""
    config = _start(algorithm, inputs)
    if max_rounds > 0:  # the first round's halt checks, if it is budgeted
        config = _halt_checks(algorithm, config)
    rounds = []
    white, black = _run(algorithm, config,
                        itertools.islice(scenario.letters(), max_rounds),
                        rounds)
    return Transcript(scenario, tuple(inputs), rounds, white, black)


#: the letter x of each tail x^w in DEFAULT_TAILS, in its order
_TAIL_LETTERS = (Letter.OK, Letter.LW, Letter.LB)

DEFAULT_TAILS = tuple(_CONSTANT[x] for x in _TAIL_LETTERS)

INPUT_VECTORS = ((0, 0), (0, 1), (1, 0), (1, 1))


@record
class Violation(NamedTuple):
    kind: str  # agreement | validity | termination
    scenario: LassoWord
    inputs: tuple
    detail: str


@record
class Report(NamedTuple):
    checked: int
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> str:
        doc = {
            "checked": self.checked,
            "ok": self.ok,
            "violations": [
                {
                    "kind": v.kind,
                    "scenario": str(v.scenario),
                    "inputs": list(v.inputs),
                    "detail": v.detail,
                }
                for v in sorted(
                    self.violations,
                    key=lambda v: (v.kind, str(v.scenario), v.inputs),
                )
            ],
        }
        return json.dumps(doc)


def completions(a: AdversaryAutomaton, depth: int):
    """All lassos prefix.tail with prefix in Pref_depth(a) and tail in
    DEFAULT_TAILS that remain inside the adversary.  The tails are
    distinct constant cycles and the prefixes share one length, so no
    lasso repeats."""
    for prefix in sorted(a.prefixes(depth), key=str):
        for tail in DEFAULT_TAILS:
            lasso = LassoWord(prefix, tail.cycle)
            if a.contains(lasso):
                yield lasso


def _completion_counts(a: AdversaryAutomaton):
    """``count(state, k)``: the pairs (leaf, tail) of a live word of
    ``k`` letters from ``state`` and a tail of DEFAULT_TAILS accepted
    after it, for the walks over ``a`` of one call."""
    forever, live, rows = a.accepts_forever, a.live, a.transitions

    @functools.cache
    def count(state, k: int) -> int:
        if not k:
            return sum(forever(state, x) for x in _TAIL_LETTERS)
        return sum(count(nxt, k - 1) for nxt, _ in rows[state].values()
                   if nxt in live)

    return count


def _faults(inputs: tuple, white: ProcessState, black: ProcessState,
            budget: int) -> list:
    """``(kind, detail)`` for each property broken by the run that ends
    in ``(white, black)``."""
    if not (white.halted and black.halted):
        return [("termination", "undecided after %d rounds" % budget)]
    dw, db = white.decided, black.decided
    faults = []
    if dw != db:
        faults.append(("agreement",
                       "white decided %s, black decided %s" % (dw, db)))
    if inputs[0] == inputs[1] and dw != inputs[0]:
        faults.append(("validity",
                       "unanimous %d but white decided %s" % (inputs[0], dw)))
    return faults


def verify(algorithm: Algorithm, a: AdversaryAutomaton,
           depth: int = 4) -> Report:
    """Checks Agreement, Validity and Termination over every scenario
    obtained by completing the adversary's depth-prefixes with
    DEFAULT_TAILS (the scenarios of ``completions``, in its order),
    across all four input vectors, each run for at most depth +
    SPARE_ROUNDS rounds.  These are the runs that end at the words of
    ``_walk``, which stops at a final word whose runs decided correctly:
    its completions are counted, and the leaves' are checked."""
    _check_work("verification depth", depth, 10)
    budget = depth + SPARE_ROUNDS

    def fault_free(configs) -> bool:
        return not any(_faults(inputs, *config, budget)
                       for inputs, config in zip(INPUT_VECTORS, configs))

    checked = 0
    violations = []
    for word, _, ends in _walk(algorithm, a, FiniteWord(), depth,
                               INPUT_VECTORS, fault_free):
        for tail, finals, n in ends:
            checked += n * len(finals)
            if tail is not None:
                scenario = LassoWord(word, tail.cycle)
                violations.extend(
                    Violation(kind, scenario, inputs, detail)
                    for inputs, final in zip(INPUT_VECTORS, finals)
                    for kind, detail in _faults(inputs, *final, budget))
    return Report(checked, violations)
