"""Golden topology: subdivision exports, component counts, the
counter-example and A_eta's halting sides, compared against
``golden_topology.json``.

For each adversary below (the README's solvable ones and the
differences removing ``FAIR_W`` and ``LONG_W`` of ``test_topology``) and
each round count, the file holds the SVG and the JSON document that
``topo subdivide`` writes and the stdout of ``topo components --in`` on
that JSON document.  It also holds ``contrex(d)`` exported to JSON and
SVG with its two component counts for d = 1..12, and, per adversary,
the side on which a depth-8 A_eta halts at every (r, ind) with r <= 7:
one character per index, ``W`` or ``B`` for the process whose input
the decision map picks and ``-`` where Finished does not hold.

Regenerate the data file, after a deliberate change of these outputs
only, with ``PYTHONPATH=src python3 tests/test_golden_topology.py``.
"""

import contextlib
import io
import json
import os
import tempfile

import pytest

from twogen import adversary as adv
from twogen import cli, oracle
from twogen import topology as topo
from twogen.indexfn import WHITE
from twogen.protocol import ProcessState

DATA = os.path.join(os.path.dirname(__file__), "golden_topology.json")
ADVERSARIES = (
    "C1",
    "S1",
    "GAMMA^w \\ { LW LB ( OK )^w }",
    "LW OK* . {LB,OK}^w | LB LB LW* . {LB}^w",
    "GAMMA^w \\ { LB LW OK LB ( LW )^w , LW LB ( LW )^w , LB LW OK ( LB )^w ,"
    " LW LB OK LB ( LW )^w , LB LW OK OK ( LW )^w , LB OK ( LB )^w }",
    "GAMMA^w \\ { LB" + " LW" * 10 + " ( OK )^w }",
)
ROUNDS = (6, 14)
CONTREX_DEPTHS = range(1, 13)
SIDE_ROUNDS = range(1, 8)


def _cli(*argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(list(argv))
    assert rc == 0, argv
    return buf.getvalue()


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _subdivisions(text: str) -> list:
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        for rounds in ROUNDS:
            svg = os.path.join(tmp, "stable.svg")
            doc = os.path.join(tmp, "stable.json")
            _cli("topo", "subdivide", "--adversary", text,
                 "--rounds", str(rounds), "--out", svg)
            _cli("topo", "subdivide", "--adversary", text,
                 "--rounds", str(rounds), "--out", doc)
            out.append({
                "rounds": rounds,
                "svg": _read(svg),
                "json": _read(doc),
                "components": _cli("topo", "components", "--in", doc,
                                   "--abstract", "--realization"),
            })
    return out


def _sides(text: str) -> list:
    """Per round r, A_eta's halting side at each index of level r."""
    a = adv.load(text)
    z = topo.gap_point(oracle.classify(a))
    algo = topo.GeometricAlgorithm(
        topo.build_terminating_subdivision(a, z, depth=8))
    mark = {None: "-", 0: "W", 1: "B"}
    return ["".join(mark[algo.maybe_halt(
        ProcessState(WHITE, 0, 1, i, r)).decided] for i in range(3**r))
        for r in SIDE_ROUNDS]


def record_adversary(text: str) -> dict:
    return {"dsl": text, "subdivide": _subdivisions(text),
            "sides": _sides(text)}


def record_contrex(depth: int) -> dict:
    phi = topo.contrex(depth)
    return {
        "depth": depth,
        "json": topo.export(phi, "json"),
        "svg": topo.export(phi, "svg"),
        "abstract_components": topo.abstract_components(phi),
        "realization_components": topo.realization_components(phi),
    }


def record() -> dict:
    return {
        "adversaries": [record_adversary(t) for t in ADVERSARIES],
        "contrex": [record_contrex(d) for d in CONTREX_DEPTHS],
    }


def _load() -> dict:
    if not os.path.exists(DATA):  # being regenerated
        return {"adversaries": [], "contrex": []}
    with open(DATA) as fh:
        return json.load(fh)


GOLDEN = _load()


@pytest.mark.parametrize("want", GOLDEN["adversaries"],
                         ids=lambda d: d["dsl"])
def test_subdivisions_match_golden(want):
    assert record_adversary(want["dsl"]) == want


@pytest.mark.parametrize("want", GOLDEN["contrex"],
                         ids=lambda d: "depth%d" % d["depth"])
def test_contrex_matches_golden(want):
    assert record_contrex(want["depth"]) == want


def test_golden_topology_covers_the_documented_cases():
    assert [d["dsl"] for d in GOLDEN["adversaries"]] == list(ADVERSARIES)
    assert [d["depth"] for d in GOLDEN["contrex"]] == list(CONTREX_DEPTHS)
    # the A_eta sides show both decisions and undecided indexes
    marks = set("".join(s for d in GOLDEN["adversaries"] for s in d["sides"]))
    assert marks == {"W", "B", "-"}


if __name__ == "__main__":
    with open(DATA, "w") as fh:
        json.dump(record(), fh, indent=1)
        fh.write("\n")
