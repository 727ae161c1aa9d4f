"""The scenario index: an exact integer encoding of GAMMA-words.

``ind`` maps words of length r bijectively onto [0, 3^r - 1] through the
recurrence ``ind(ua) = 3 ind(u) + (-1)^ind(u) mu(a) + 1`` with
mu(LB) = -1, mu(OK) = 0, mu(LW) = +1.  Its normalization embeds partial
scenarios into the unit interval and the limit index of an infinite
scenario is the point its interval chain converges to.

Everything here is exact: indexes are arbitrary-precision integers,
normalized values are rationals with power-of-3 denominators, and
limits of lassos are general rationals.
"""

from __future__ import annotations

import enum
from fractions import Fraction

from .records import Frozen
from .words import MU, FiniteWord, LassoWord, Letter


class ProcessId(enum.Enum):
    WHITE = "WHITE"
    BLACK = "BLACK"

    def __str__(self):
        return self.value


WHITE, BLACK = ProcessId.WHITE, ProcessId.BLACK


def split_threes(n: int, cap: int) -> tuple:
    """``(m, n // 3^m)`` for the largest m <= cap with 3^m dividing n
    (m = cap for n = 0): 3 is squared while it divides n, and the
    squares are then divided out from the largest down."""
    if n % 3:
        return 0, n
    if n == 0:
        return cap, 0
    powers = [3]  # powers[i] = 3^(2^i)
    while 2 ** len(powers) <= cap and n % powers[-1] ** 2 == 0:
        powers.append(powers[-1] ** 2)
    m = 0
    for i in reversed(range(len(powers))):
        if m + 2**i <= cap and n % powers[i] == 0:
            n, m = n // powers[i], m + 2**i
    return m, n


class TernaryRational(Frozen):
    """The exact rational numerator / 3^exponent, stored reduced."""

    __slots__ = _fields = ("numerator", "exponent")

    def __init__(self, numerator: int, exponent: int):
        m, num = split_threes(numerator, exponent)
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "exponent", exponent - m)

    def __eq__(self, other):
        return other.__class__ is self.__class__ and (
            self.numerator == other.numerator
            and self.exponent == other.exponent)

    def __hash__(self):
        return hash((self.numerator, self.exponent))

    @property
    def value(self) -> Fraction:
        return Fraction(self.numerator, 3**self.exponent)

    def __str__(self):
        return "%d/%d" % (self.numerator, 3**self.exponent)


def _check_gamma(w: FiniteWord):
    if not w.is_gamma():
        raise ValueError("index is only defined on GAMMA words (no LL)")


def ind_step(i: int, a: Letter) -> int:
    """One step of the index recurrence."""
    try:
        return 3 * i + (-1 if i % 2 else 1) * MU[a] + 1
    except KeyError:
        raise ValueError("mu is not defined for LL") from None


def ind(w: FiniteWord) -> int:
    _check_gamma(w)
    i = 0
    for a in w:
        i = ind_step(i, a)
    return i


#: Children of a parent in increasing index order, by parent parity.
CHILD_ORDER = {
    0: (Letter.LB, Letter.OK, Letter.LW),
    1: (Letter.LW, Letter.OK, Letter.LB),
}


def ind_inverse(r: int, k: int) -> FiniteWord:
    """The unique GAMMA-word of length r with index k."""
    if not 0 <= k <= 3**r - 1:
        raise ValueError("index %d out of range for length %d" % (k, r))
    letters: list[Letter] = []
    for _ in range(r):
        k, child = divmod(k, 3)
        letters.append(CHILD_ORDER[k % 2][child])
    return FiniteWord(tuple(reversed(letters)))


def ind_normalized(w: FiniteWord) -> TernaryRational:
    return TernaryRational(ind(w), len(w))


def ind_limit(l: LassoWord) -> Fraction:
    """Exact limit of ind_normalized over the prefixes of a lasso.

    The parity of the index after each letter depends only on the
    previous parity, so one cycle traversal acts on the index as the
    affine map i -> 3^p i + c with c fixed by the parity at cycle
    start.  The start parity itself is eventually periodic with period
    1 or 2; solving the (possibly doubled) affine fixed point gives the
    limit in closed form.
    """
    if not l.is_gamma():
        raise ValueError("limit index is only defined on GAMMA lassos")
    i = ind(l.stem)
    s = len(l.stem)
    p = len(l.cycle)

    def cycle_pass(start: int) -> int:
        for a in l.cycle:
            start = ind_step(start, a)
        return start

    # affine constants for both start parities: pass(i) = 3^p i + c(par)
    c_even = cycle_pass(0)
    c_odd = cycle_pass(1) - 3**p
    after = cycle_pass(i)
    if after % 2 == i % 2:
        c, q = (c_odd if i % 2 else c_even), p
    else:
        # parity alternates: treat two traversals as one affine map
        c1 = c_odd if i % 2 else c_even
        c2 = c_even if i % 2 else c_odd
        c, q = 3**p * c1 + c2, 2 * p
    # limit of (3^{nq} i + c (3^{nq}-1)/(3^q-1)) / 3^{s+nq}
    return Fraction(i, 3**s) + Fraction(c, 3**s * (3**q - 1))


class Diff1Case(enum.Enum):
    """Which neighbor-characterization case links two consecutive words.

    The recurrence orders the three children of a word u as
    (LB, OK, LW) when ind(u) is even and (LW, OK, LB) when it is odd.
    Consecutive indexes therefore arise either from two consecutive
    children of the same parent, or across a parent boundary, where
    the last child of u and the first child of its index successor u'
    share their final letter (LW below an even parent, LB below an odd
    one).  The parity tag is that of ind(v), the smaller index.
    """

    EVEN_SAME_PREFIX = "even/same-prefix"
    EVEN_SAME_LAST_LW = "even/shared-last-letter LW"
    ODD_SAME_PREFIX = "odd/same-prefix"
    ODD_SAME_LAST_LB = "odd/shared-last-letter LB"


def index_successor_case(v: FiniteWord, v2: FiniteWord) -> Diff1Case | None:
    """Returns the applicable case when ind(v2) = ind(v) + 1, else None."""
    if len(v) != len(v2):
        raise ValueError("words must have equal length")
    iv = ind(v)
    if ind(v2) != iv + 1:
        return None
    same = v.letters[:-1] == v2.letters[:-1]
    if iv % 2 == 0:
        return (Diff1Case.EVEN_SAME_PREFIX if same
                else Diff1Case.EVEN_SAME_LAST_LW)
    return Diff1Case.ODD_SAME_PREFIX if same else Diff1Case.ODD_SAME_LAST_LB


def is_index_successor(v: FiniteWord, v2: FiniteWord) -> bool:
    return index_successor_case(v, v2) is not None


def indistinguishable_process(v: FiniteWord, v2: FiniteWord) -> ProcessId:
    """The process whose full-information state agrees on v and v2.

    Defined when ind(v2) = ind(v) + 1: black cannot tell the scenarios
    apart when ind(v) is even, white when it is odd.
    """
    if not is_index_successor(v, v2):
        raise ValueError("requires ind(v2) == ind(v) + 1")
    return BLACK if ind(v) % 2 == 0 else WHITE


def is_special_pair(l1: LassoWord, l2: LassoWord) -> bool:
    """True iff the two lassos are distinct scenarios with the same
    limit index (equivalently: their prefix indexes never differ by
    more than one)."""
    if l1 == l2:
        return False
    return ind_limit(l1) == ind_limit(l2)
