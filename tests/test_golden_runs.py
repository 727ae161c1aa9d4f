"""Golden runs: simulator, verification and valency outputs for fixed
algorithms and adversaries, compared against ``golden_runs.json``.

The adversaries are the seven built-ins and the two differences that
``test_protocol`` runs A_eta on.  Each is run with own-input and, when
``classify`` finds it solvable, with A_w and A_eta for the oracle's w
(A_eta on a depth-8 subdivision, as the CLI builds it).  For each pair
the file holds the transcript JSON of ``simulate`` on every scenario of
``completions(a, 1)`` under every input vector with a 16-round budget,
the report JSON of ``verify`` at depth 4, and, for inputs 0,1 and 1,0,
the ``explore`` tree and the ``find_decisive`` report at depth 4.

Regenerate the data file, after a deliberate change of these outputs
only, with ``PYTHONPATH=src python3 tests/test_golden_runs.py``.
"""

import json
import os

import pytest

from twogen import adversary as adv
from twogen import bivalency, oracle, protocol
from twogen import topology as topo
from twogen.indexfn import ind_limit
from twogen.words import GAMMA

DATA = os.path.join(os.path.dirname(__file__), "golden_runs.json")
ADVERSARIES = adv.BUILTIN_NAMES + (
    "GAMMA^w \\ { LW LB ( OK )^w }",
    "GAMMA^w \\ { OK LB ( LW OK )^w }",
)
VALENCY_INPUTS = ((0, 1), (1, 0))


def _algorithms(a) -> list:
    """``(name, w or None, factory)`` for each algorithm run on ``a``;
    a factory makes a fresh instance, so no cache outlives one output."""
    algos = [("own-input", None, protocol.OwnInputAlgorithm)]
    if a.alphabet != GAMMA:
        return algos
    v = oracle.classify(a)
    if not v.solvable:
        return algos
    w = oracle.select_forbidden_scenario(v)

    def aeta():
        ts = topo.build_terminating_subdivision(a, ind_limit(w), depth=8)
        return topo.GeometricAlgorithm(ts)

    return algos + [("aw", str(w), lambda: protocol.IndexGuardAlgorithm(w)),
                    ("aeta", str(w), aeta)]


def record(text: str, name: str) -> dict:
    a = adv.load(text)
    (_, w, make), = [t for t in _algorithms(a) if t[0] == name]
    algo = make()
    return {
        "dsl": text,
        "algorithm": name,
        "w": w,
        "simulate": [
            protocol.simulate(algo, scenario, inputs, 16).to_json()
            for scenario in protocol.completions(a, 1)
            for inputs in protocol.INPUT_VECTORS
        ],
        "verify": protocol.verify(make(), a, 4).to_json(),
        "explore": [
            json.dumps(bivalency.explore(make(), a, inputs, 4).to_dict())
            for inputs in VALENCY_INPUTS
        ],
        "find_decisive": [
            bivalency.find_decisive(make(), a, inputs, 4).to_json()
            for inputs in VALENCY_INPUTS
        ],
    }


def _cases() -> list:
    return [(text, name) for text in ADVERSARIES
            for name, _, _ in _algorithms(adv.load(text))]


def _load() -> list:
    if not os.path.exists(DATA):  # being regenerated
        return []
    with open(DATA) as fh:
        return json.load(fh)


GOLDEN = _load()


@pytest.mark.parametrize("want", GOLDEN,
                         ids=lambda d: "%s:%s" % (d["algorithm"], d["dsl"]))
def test_runs_match_golden(want):
    assert record(want["dsl"], want["algorithm"]) == want


def test_golden_runs_cover_the_documented_cases():
    assert [(d["dsl"], d["algorithm"]) for d in GOLDEN] == _cases()
    assert {d["algorithm"] for d in GOLDEN} == {"own-input", "aw", "aeta"}


if __name__ == "__main__":
    docs = [record(text, name) for text, name in _cases()]
    with open(DATA, "w") as fh:
        json.dump(docs, fh, indent=1)
        fh.write("\n")
