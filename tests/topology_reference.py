"""The topology export and realization counting in ``Fraction``
arithmetic, as they were before positions stayed integers, kept as the
reference for the differential tests in ``test_topology.py``.

``reference_coord`` formats the sign apart from the digits, so that a
negative coordinate reads as its true value; the integer ``_coord``
must round exactly as ``round`` does on the Fraction.
"""

from fractions import Fraction

from twogen.topology import _SQUARE_ANCHORS


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
