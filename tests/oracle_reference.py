"""``classify`` before it stopped building the complement, kept as the
reference for the differential tests in ``test_oracle.py``.

F1 intersects the complement of L with the fairness automaton and runs
``is_empty`` on the product, clause of the complement by clause; F2
walks the pair machine's diagonal on the complement.  Complementing
expands L's clauses into one clause per choice of a track from each, so
this route raises ResourceBoundError on intersections whose complement
would hold more than 65,536 clauses.
"""

from twogen import adversary as adv
from twogen.oracle import (CORNER_LB, CORNER_LW, CornerWitness, FairWitness,
                           Family, SpecialPairWitness, Verdict, _NEXT_PARITY,
                           _SPLITS)
from twogen.words import GAMMA, LassoWord


def classify_by_complement(a) -> Verdict:
    if a.alphabet != GAMMA:
        raise ValueError(
            "solvability is characterized for GAMMA-adversaries only"
        )
    families = set()
    corner = None
    if not a.contains(CORNER_LB):
        families.add(Family.F3)
        corner = CornerWitness(CORNER_LB)
    if not a.contains(CORNER_LW):
        families.add(Family.F4)
        if corner is None:
            corner = CornerWitness(CORNER_LW)

    comp = adv.complement(a)
    fair_wit = adv.intersect(comp, adv.fairness_automaton()).is_empty()
    fair = None
    if fair_wit is not None:
        families.add(Family.F1)
        fair = FairWitness(fair_wit)

    pair = excluded_special_pair_in(comp)
    if pair is not None:
        families.add(Family.F2)

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


def excluded_special_pair_in(comp):
    """A special pair wholly inside ``comp`` (the excluded scenarios),
    or None: the diagonal walk over (state, parity), breadth first with
    letters in GAMMA order, trying the admitted splits at each state."""
    keep_tail = {0: CORNER_LW, 1: CORNER_LB}
    accepts: dict = {}

    def excluded(q, p):
        if (q, p) not in accepts:
            accepts[q, p] = comp.accepts_from(q, keep_tail[p])
        return accepts[q, p]

    def succ(node):
        q, p = node
        row = comp.transitions[q]
        return ((a, (row[a][0], p2)) for a, p2 in _NEXT_PARITY[p])

    for (q, p), u in adv._breadth_first((comp.initial, 0), succ):
        row = comp.transitions[q]
        for a, a2, keep in _SPLITS[p]:
            if excluded(row[a][0], keep) and excluded(row[a2][0], keep):
                tail = keep_tail[keep].cycle.letters
                return SpecialPairWitness(LassoWord.of(u + (a,), tail),
                                          LassoWord.of(u + (a2,), tail))
    return None
