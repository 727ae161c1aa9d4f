"""References for the differential tests in ``test_topology.py``.

The topology export and realization counting in ``Fraction``
arithmetic, as they were before positions stayed integers.
``reference_coord`` formats the sign apart from the digits, so that a
negative coordinate reads as its true value; the integer ``_coord``
must round exactly as ``round`` does on the Fraction.

``views_solvable`` decides r-round consensus without the complex, on
the graph of full-information views.
"""

from fractions import Fraction

from twogen.protocol import _DELIVERY, INPUT_VECTORS
from twogen.topology import _SQUARE_ANCHORS


def views_solvable(a, r: int) -> bool:
    """Whether consensus is solvable in r rounds under ``a``: no
    component of the views graph holds both a (0, 0) node and a (1, 1)
    node.  A node is a pair (input vector, p in Pref_r(a)); two nodes
    are joined when white's full-information views after p coincide,
    or black's do.  A view is an input, then ``(own previous view,
    other's previous view or None)`` after each round."""
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    prefixes = a.prefixes(r)
    for inputs in INPUT_VECTORS:
        for p in prefixes:
            white, black = inputs
            for letter in p:
                white_hears, black_hears = _DELIVERY[letter]
                white, black = ((white, black if white_hears else None),
                                (black, white if black_hears else None))
            for view in (("W", white), ("B", black)):
                parent[find(view)] = find((inputs, p))
    return not ({find(((0, 0), p)) for p in prefixes}
                & {find(((1, 1), p)) for p in prefixes})


def reference_realization_components(k) -> int:
    """Components of the union of the closed intervals, on one segment,
    merged at declared accumulation points within three times the
    shortest edge."""
    if len(k.segments()) > 1:
        raise ValueError("realization counting works on a single segment")
    intervals = sorted(e.interval for e in k.edges)
    if not intervals:
        return 0
    merged = [list(intervals[0])]
    for lo, hi in intervals[1:]:
        if lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    tol = 3 * min(hi - lo for lo, hi in intervals)
    parent = list(range(len(merged)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for p in k.accumulation_points:
        p = Fraction(p)
        home = None
        for i, (lo, hi) in enumerate(merged):
            if lo <= p <= hi:
                home = i
                break
        if home is None:
            continue
        for i, (lo, hi) in enumerate(merged):
            if i == home:
                continue
            if min(abs(lo - p), abs(hi - p)) <= tol:
                parent[find(i)] = find(home)
    return len({find(i) for i in range(len(merged))})


def reference_vertex_key(v):
    return (v.segment, v.position.value)


def reference_coord(segment: str, p: Fraction) -> tuple:
    (x0, y0), (x1, y1) = _SQUARE_ANCHORS[segment]
    x = Fraction(x0) + (Fraction(x1) - Fraction(x0)) * p
    y = Fraction(y0) + (Fraction(y1) - Fraction(y0)) * p

    def fmt(v: Fraction) -> str:
        scaled = round(v * 100)
        return "%s%d.%02d" % (("-" if scaled < 0 else "",)
                              + divmod(abs(scaled), 100))

    return fmt(x), fmt(y)
