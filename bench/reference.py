"""Correctness references that never call ``twogen.oracle.classify``.

* Differences ``GAMMA^w \\ {l1..lk}`` are judged by the closed form: the
  excluded set is exactly the listed lassos, so family F1 holds iff one
  of them is fair, F2 iff two of them share a limit index (a special
  pair), F3/F4 iff a corner ``LB^w`` / ``LW^w`` is listed.  This uses
  only ``is_fair``, ``ind_limit`` and lasso equality.
* Unions of prefixed terms ``u x* . S^w`` (and the built-ins written
  that way) get an independent membership test: Python's ``re`` decides
  the finite prefix, set inclusion decides the tail.
* ``verify`` is checked against a direct enumeration of ``prefix . tail``.
"""

from __future__ import annotations

import itertools
import re

from twogen.indexfn import ind_limit, is_special_pair
from twogen.words import LassoWord, Letter, is_fair, parse_lasso

OK, LW, LB = Letter.OK, Letter.LW, Letter.LB
GAMMA3 = (OK, LW, LB)
CORNER_LB = LassoWord.of((), (LB,))
CORNER_LW = LassoWord.of((), (LW,))
CODE = {OK: "O", LW: "W", LB: "B"}

#: The paper's verdict table for the GAMMA built-ins.
BUILTIN_SOLVABLE = {"S0": True, "TW": True, "TB": True,
                    "C1": True, "S1": True, "R1": False}

#: Built-ins as unions of (prefix regex over letter codes, tail set).
BUILTIN_TERMS = {
    "S0": (("", frozenset({OK})),),
    "TW": (("", frozenset({OK, LW})),),
    "TB": (("", frozenset({OK, LB})),),
    "C1": (("", frozenset({OK})), ("O*", frozenset({LW})),
           ("O*", frozenset({LB}))),
    "S1": (("", frozenset({OK, LW})), ("", frozenset({OK, LB}))),
    "R1": (("", frozenset(GAMMA3)),),
}


def difference_families(excluded) -> set:
    """Closed-form family set of ``GAMMA^w \\ excluded``."""
    fams = set()
    if any(is_fair(l) for l in excluded):
        fams.add("F1")
    limits = [ind_limit(l) for l in excluded]
    if len(set(limits)) < len(limits):
        fams.add("F2")
    if CORNER_LB in excluded:
        fams.add("F3")
    if CORNER_LW in excluded:
        fams.add("F4")
    return fams


def term_contains(rx: str, letters: frozenset, l: LassoWord) -> bool:
    """Membership of a lasso in ``L(rx) . letters^w``.

    The tail must stay inside ``letters`` from the split point on, so
    the split lies at or after the last stem letter outside the set.
    The regexes used here have at most a few DFA states, so scanning
    64 cycle lengths past that point finds every split that exists.
    """
    if not set(l.cycle.letters) <= letters:
        return False
    stem = l.stem.letters
    start = max((i + 1 for i, a in enumerate(stem) if a not in letters),
                default=0)
    word = "".join(CODE[a] for a in stem)
    word += "".join(CODE[a] for a in l.cycle.letters) * 64
    pattern = re.compile(rx)
    return any(pattern.fullmatch(word, 0, n)
               for n in range(start, len(stem) + 64 * len(l.cycle) + 1))


def union_contains(terms, l: LassoWord) -> bool:
    return any(term_contains(rx, s, l) for rx, s in terms)


def witness_ok(witness: dict, member) -> bool:
    """Checks a verdict's JSON witness with an independent membership
    test ``member(lasso) -> bool``."""
    kind = witness["kind"]
    if kind == "fair":
        l = parse_lasso(witness["scenario"])
        return is_fair(l) and not member(l)
    if kind == "corner":
        l = parse_lasso(witness["scenario"])
        return l in (CORNER_LB, CORNER_LW) and not member(l)
    first, second = (parse_lasso(s) for s in witness["scenarios"])
    return (is_special_pair(first, second)
            and not member(first) and not member(second))


def completion_count(member, depth: int, tails) -> int:
    """Scenarios ``prefix . tail`` inside the adversary, ``prefix`` over
    all of GAMMA^depth; distinct by construction (same-length prefixes
    differ at a position, the tails differ from each other)."""
    count = 0
    for prefix in itertools.product(GAMMA3, repeat=depth):
        for tail in tails:
            l = LassoWord.of(prefix + tail.stem.letters, tail.cycle.letters)
            count += member(l)
    return count
