"""Golden witnesses: ``adv check`` output and emptiness witnesses for a
fixed list of DSL inputs, compared against ``golden_witnesses.json``.

The inputs are the seven built-ins and the 19 differences and unions
of the first ``decide`` benchmark block for seed 1 (their texts are
stored in the data file).  For each one the file holds the CLI's exit
code, stdout and stderr for ``adv check``, and ``str(is_empty())`` of
the automaton, of its complement and, over GAMMA, of the complement's
fairness product and of the complement's special-pair product (the
last only for automata of at most 12 states).

Regenerate the data file, after a deliberate witness change only, with
``PYTHONPATH=src python3 tests/test_golden.py``.
"""

import contextlib
import io
import json
import os
import sys
import tempfile

import pytest

from twogen import adversary as adv
from twogen import cli, oracle
from twogen.words import GAMMA

DATA = os.path.join(os.path.dirname(__file__), "golden_witnesses.json")
#: largest automaton whose complement's pair product is recorded
PAIR_STATES = 12


def record(text: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(["adv", "check", text])
    a = adv.load(text)
    comp = adv.complement(a)
    doc = {
        "dsl": text,
        "check": {"exit": rc, "stdout": out.getvalue(),
                  "stderr": err.getvalue()},
        "is_empty": str(a.is_empty()),
        "complement": str(comp.is_empty()),
    }
    if a.alphabet == GAMMA:
        fair = adv.intersect(comp, adv.fairness_automaton())
        doc["fair"] = str(fair.is_empty())
        if len(a.transitions) <= PAIR_STATES:
            pair = oracle.special_pair_product(comp).is_empty()
            doc["pair"] = _pair_text(pair)
    return doc


def _pair_text(l) -> str:
    """A lasso over letter pairs, each pair written ``a:a2``."""
    if l is None:
        return "None"
    text = lambda w: " ".join("%s:%s" % (a.value, b.value) for a, b in w)
    return "%s ( %s )^w" % (text(l.stem), text(l.cycle))


def _load() -> list:
    if not os.path.exists(DATA):  # being regenerated
        return []
    with open(DATA) as fh:
        return json.load(fh)


GOLDEN = _load()


@pytest.mark.parametrize("want", GOLDEN, ids=lambda d: d["dsl"][:40])
def test_witnesses_match_golden(want):
    assert record(want["dsl"]) == want


def test_golden_covers_the_documented_inputs():
    texts = [d["dsl"] for d in GOLDEN]
    assert texts[:7] == list(adv.BUILTIN_NAMES)
    assert len(texts) == 7 + 19
    assert sum("pair" in d for d in GOLDEN) >= 10


def _inputs() -> list:
    """The built-ins, then the differences and unions of the first
    ``decide`` block for seed 1, read from ``bench/workloads.py``."""
    bench = os.path.join(os.path.dirname(__file__), "..", "bench")
    sys.path.insert(0, bench)
    import workloads
    with tempfile.TemporaryDirectory() as tmp:
        block = workloads.Decide(1, tmp).block(0)
    return list(adv.BUILTIN_NAMES) + [
        text for kind, text, _ in block if kind in ("diff", "union")
    ]


if __name__ == "__main__":
    docs = [record(t) for t in _inputs()]
    with open(DATA, "w") as fh:
        json.dump(docs, fh, indent=1)
        fh.write("\n")
