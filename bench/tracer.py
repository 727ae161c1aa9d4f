"""Spans and counts recorded from outside, around twogen's public functions.

``Tracer.install`` replaces each traced function by a wrapper at every
twogen module attribute and class attribute bound to it (``bivalency``
and ``topology`` import ``simulate``, ``classify`` and others by name,
so patching the defining module alone would miss those calls).  A span
is ``(id, parent id, name, start ns, end ns, request id)``; spans stay
in memory and are written out once, at the end of the run.  Counts are
computed from a call's arguments and result after its span has closed,
so they never count towards any span's time.

A span's self time is its duration minus the durations of its direct
children; children nest strictly inside their parent because the
workload runs on one thread.  The ``words`` module has no call
boundary coarse enough to time this way, so its time stays inside the
callers' self time.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

from twogen import (adversary, bivalency, cli, indexfn, oracle, protocol,
                    topology)

def _dnf_size(f) -> int:
    """Clauses in the DNF of an acceptance formula, as ``_dnf`` builds
    it (products of the parts' clause counts under And)."""
    if isinstance(f, adversary.Atom):
        return 1
    if isinstance(f, adversary.Or):
        return sum(_dnf_size(p) for p in f.parts)
    n = 1
    for p in f.parts:
        n *= _dnf_size(p)
    return n


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


# -- counters: (tracer, args, kwargs, result) -> None ------------------------


def _calls(metric):
    def count(t, args, kwargs, result):
        t.counts[metric] += 1
    return count


def _compiled(t, args, kwargs, a):
    t.counts["adversary.states"] += len(a.transitions)
    t.counts["adversary.tracks"] += a.num_tracks


def _prefixes(t, args, kwargs, words):
    t.counts["adversary.prefixes.words"] += len(words)
    sid, name, pargs, pkwargs = t.stack[-1]
    if name == "protocol.verify":
        t.scratch[sid] += len(words)
    elif name == "bivalency.valency":
        prefix = _arg(pargs, pkwargs, 2, "prefix").letters
        n = len(prefix)
        t.counts["bivalency.enumerated"] += len(words)
        t.counts["bivalency.extending"] += sum(
            w.letters[:n] == prefix for w in words)


def _pair_product(t, args, kwargs, m):
    t.counts["oracle.special_pair_product.states"] += len(m.transitions)
    t.counts["oracle.special_pair_product.dnf_clauses"] += _dnf_size(
        m.acceptance)


def _simulated(t, args, kwargs, transcript):
    t.counts["protocol.simulate.calls"] += 1
    t.counts["protocol.rounds"] += len(transcript.rounds)


def _target_index(t, args, kwargs, result):
    t.counts["protocol.target_index.steps"] += _arg(args, kwargs, 1, "r")


def _verified(t, args, kwargs, report):
    # the span has closed: its id is the last one recorded
    sid = t.spans[-1][0]
    tails = _arg(args, kwargs, 3, "tails", protocol.DEFAULT_TAILS)
    t.counts["protocol.completions.kept"] += report.checked // len(
        protocol.INPUT_VECTORS)
    t.counts["protocol.completions.candidates"] += (
        t.scratch.pop(sid, 0) * len(tuple(tails)))


def _tree_nodes(t, args, kwargs, node):
    todo = [node]
    while todo:
        n = todo.pop()
        t.counts["bivalency.tree_nodes"] += 1
        todo.extend(n.children)


def _subdivision(t, args, kwargs, ts):
    t.counts["topology.stable_edges"] += sum(
        len(edges) for edges in ts.levels.values())


A = adversary.AdversaryAutomaton

#: (owner, attribute, span name or None for count-only, counter)
TARGETS = (
    (adversary, "parse_adversary", "adversary.parse", None),
    (adversary, "compile_expr", "adversary.compile_expr", _compiled),
    (adversary, "complement", "adversary.product", None),
    (adversary, "intersect", "adversary.product", None),
    (adversary, "union", "adversary.product", None),
    (A, "is_empty", "adversary.is_empty", _calls("adversary.is_empty.calls")),
    (A, "has_nonempty_residual", "adversary.has_nonempty_residual",
     _calls("adversary.has_nonempty_residual.calls")),
    (A, "prefixes", "adversary.prefixes", _prefixes),
    (A, "contains", "adversary.contains", _calls("adversary.contains.calls")),
    (oracle, "classify", "oracle.classify", None),
    (oracle, "special_pair_product", "oracle.special_pair_product",
     _pair_product),
    (oracle, "round_lower_bound", "oracle.round_lower_bound", None),
    (indexfn, "ind", "indexfn.ind", _calls("indexfn.ind.calls")),
    (indexfn, "ind_limit", "indexfn.ind_limit", None),
    (protocol, "simulate", "protocol.simulate", _simulated),
    (protocol, "verify", "protocol.verify", _verified),
    (protocol.IndexGuardAlgorithm, "target_index", None, _target_index),
    (bivalency, "valency", "bivalency.valency",
     _calls("bivalency.valency.calls")),
    (bivalency, "explore", "bivalency.explore", _tree_nodes),
    (bivalency, "find_decisive", "bivalency.find_decisive", None),
    (topology, "build_terminating_subdivision",
     "topology.build_terminating_subdivision", _subdivision),
    # later growth (the geometric algorithm materializes deeper levels on
    # demand) is subdivision building too
    (topology.TerminatingSubdivision, "materialize",
     "topology.build_terminating_subdivision", None),
    (topology, "eta_of", "topology.eta_of", None),
    (topology, "finished_witness", "topology.finished_witness",
     _calls("topology.finished_witness.calls")),
    (topology, "export", "topology.export", None),
    (topology, "complex_from_json", "topology.complex_from_json", None),
    (topology, "abstract_components", "topology.components", None),
    (topology, "realization_components", "topology.components", None),
    (topology, "contrex", "topology.contrex", None),
    (cli, "main", "cli.main", None),
)

#: per-layer metrics: name -> unit.  ``*.self_ms`` and counts are per
#: request; ratios are over the whole traced pass.
METRICS = {
    "adversary.self_ms": "ms/op",
    "adversary.compile_expr.self_ms": "ms/op",
    "adversary.product.self_ms": "ms/op",
    "adversary.is_empty.self_ms": "ms/op",
    "adversary.is_empty.calls": "count/op",
    "adversary.states": "count/op",
    "adversary.tracks": "count/op",
    "adversary.prefixes.self_ms": "ms/op",
    "adversary.prefixes.words": "count/op",
    "adversary.contains.self_ms": "ms/op",
    "adversary.contains.calls": "count/op",
    "adversary.has_nonempty_residual.calls": "count/op",
    "oracle.self_ms": "ms/op",
    "oracle.classify.self_ms": "ms/op",
    "oracle.special_pair_product.self_ms": "ms/op",
    "oracle.special_pair_product.states": "count/op",
    "oracle.special_pair_product.dnf_clauses": "count/op",
    "oracle.round_lower_bound.self_ms": "ms/op",
    "indexfn.self_ms": "ms/op",
    "indexfn.ind_limit.self_ms": "ms/op",
    "indexfn.ind.calls": "count/op",
    "protocol.self_ms": "ms/op",
    "protocol.verify.self_ms": "ms/op",
    "protocol.simulate.self_ms": "ms/op",
    "protocol.simulate.calls": "count/op",
    "protocol.rounds": "count/op",
    "protocol.target_index.steps": "count/op",
    "protocol.completions.kept_ratio": "ratio",
    "bivalency.self_ms": "ms/op",
    "bivalency.valency.self_ms": "ms/op",
    "bivalency.valency.calls": "count/op",
    "bivalency.tree_nodes": "count/op",
    "bivalency.prefix_hit_ratio": "ratio",
    "topology.self_ms": "ms/op",
    "topology.build_terminating_subdivision.self_ms": "ms/op",
    "topology.finished_witness.self_ms": "ms/op",
    "topology.finished_witness.calls": "count/op",
    "topology.export.self_ms": "ms/op",
    "topology.complex_from_json.self_ms": "ms/op",
    "topology.components.self_ms": "ms/op",
    "topology.stable_edges": "count/op",
    "cli.main.self_ms": "ms/op",
    "request.unattributed_ms": "ms/op",
    "trace.overhead_pct": "%",
}


class Tracer:
    def __init__(self):
        self.spans = []
        # open spans, innermost last: (id, name, args, kwargs)
        self.stack = [(0, None, (), {})]
        self.request = 0
        self.counts = defaultdict(int)
        self.scratch = defaultdict(int)
        self._next_id = 0
        self._patches = []

    def _span(self, name, fn, count):
        tracer = self
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            tracer._next_id += 1
            sid = tracer._next_id
            parent = tracer.stack[-1][0]
            tracer.stack.append((sid, name, args, kwargs))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                tracer.stack.pop()
                tracer.spans.append(
                    (sid, parent, name, start, end, tracer.request))
            if count is not None:
                count(tracer, args, kwargs, result)
            return result

        return traced

    def _counted(self, fn, count):
        tracer = self

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            count(tracer, args, kwargs, result)
            return result

        return counted

    def install(self):
        """Rebinds every twogen attribute that holds a traced function."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        owners = []
        for mod_name, mod in sorted(sys.modules.items()):
            if mod_name == "twogen" or mod_name.startswith("twogen."):
                owners.append(mod)
                owners.extend(
                    v for v in vars(mod).values()
                    if isinstance(v, type) and v.__module__ == mod_name)
        for owner, attr, name, count in TARGETS:
            fn = vars(owner)[attr]
            wrapper = (self._span(name, fn, count) if name is not None
                       else self._counted(fn, count))
            for o in owners:
                for key, value in list(vars(o).items()):
                    if value is fn:
                        self._patches.append((o, key, fn))
                        setattr(o, key, wrapper)

    def uninstall(self):
        for owner, key, fn in reversed(self._patches):
            setattr(owner, key, fn)
        self._patches.clear()

    def write(self, path: str):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def layer_metrics(self, requests: int, request_ns: int, counts: dict,
                      counted_requests: int, overhead_pct: float) -> dict:
        """Per-request self times over all spans, counts and ratios from
        ``counts`` (one traced pass of ``counted_requests`` requests)."""
        child_ns = defaultdict(int)
        for sid, parent, name, start, end, req in self.spans:
            child_ns[parent] += end - start
        self_ns = defaultdict(int)
        for sid, parent, name, start, end, req in self.spans:
            own = end - start - child_ns[sid]
            self_ns[name] += own
            self_ns[name.split(".")[0]] += own
        # child_ns[0] sums the top-level spans of every request
        self_ns["request.unattributed"] = request_ns - child_ns[0]
        out = {}
        for metric, unit in METRICS.items():
            if unit == "ms/op":
                key = metric.rsplit(".self_ms", 1)[0].rsplit("_ms", 1)[0]
                value = self_ns[key] / 1e6 / requests
            elif unit == "count/op":
                value = counts.get(metric, 0) / counted_requests
            else:
                value = None
            out[metric] = value
        out["protocol.completions.kept_ratio"] = _ratio(
            counts.get("protocol.completions.kept", 0),
            counts.get("protocol.completions.candidates", 0))
        out["bivalency.prefix_hit_ratio"] = _ratio(
            counts.get("bivalency.extending", 0),
            counts.get("bivalency.enumerated", 0))
        out["trace.overhead_pct"] = overhead_pct
        return {k: (v, METRICS[k]) for k, v in out.items()}


def _ratio(num, den):
    return num / den if den else 0.0
