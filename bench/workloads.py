"""The three workloads: seeded inputs, the timed request, the check.

Every workload is a stream of blocks.  A block has a fixed composition
(the same kinds and sizes of request in the same order for every seed
and every block); the seed only picks the letters.  A run ends at a
block boundary, so every run has the same mix.  Block sizes are chosen
so that 0.5 * n and 0.9 * n are not integers: with m blocks in a run
the nearest-rank p50 and p90 then fall half a rank class (m/2 samples)
or more inside one request class instead of on the boundary between
two classes.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import shutil
from collections import defaultdict

from twogen import adversary, bivalency, cli, oracle, protocol
from twogen.indexfn import ind_limit
from twogen.words import LassoWord, Letter, is_fair

import reference as ref

OK, LW, LB = Letter.OK, Letter.LW, Letter.LB
GAMMA3 = ref.GAMMA3
FAIR_CYCLES = ((OK, LW), (OK, LB), (LW, LB), (LW, OK), (LB, OK), (LB, LW))


def _lasso_text(lassos) -> str:
    return "GAMMA^w \\ { %s }" % " , ".join(str(l) for l in lassos)


def _unfair_groups():
    """Unfair, non-corner lassos ``u . c^w`` with |u| in 2..4, grouped
    by limit index.  Each group is a special pair; a set holding at
    most one lasso per group holds no special pair."""
    groups = defaultdict(list)
    for n in (2, 3, 4):
        for c in (LW, LB):
            for stem in itertools.product(GAMMA3, repeat=n):
                if stem[-1] is not c:
                    l = LassoWord.of(stem, (c,))
                    groups[(n, ind_limit(l))].append(l)
    by_len = defaultdict(list)
    for (n, _), members in sorted(groups.items(), key=lambda kv: (
            kv[0][0], kv[0][1])):
        by_len[n].append(tuple(members))
    return by_len


class _Lassos:
    """Seeded lasso choices shared by the workloads."""

    def __init__(self, rng: random.Random, groups):
        self.rng = rng
        self.groups = groups

    def unfair(self, k: int):
        """k unfair lassos with pairwise distinct limits; the i-th has
        a stem of length 2 + i % 3, so sizes do not depend on the seed."""
        out = []
        used = set()
        for i in range(k):
            n = 2 + i % 3
            free = [g for g in self.groups[n] if g not in used]
            g = self.rng.choice(free)
            used.add(g)
            out.append(self.rng.choice(g))
        return out, used

    def fair(self, n: int) -> LassoWord:
        cycle = self.rng.choice(FAIR_CYCLES)
        stem = [self.rng.choice(GAMMA3) for _ in range(n - 1)]
        stem.append(self.rng.choice([a for a in GAMMA3 if a is not cycle[-1]]))
        return LassoWord.of(stem, cycle)

    def insert(self, lassos, extra):
        for l in extra:
            lassos.insert(self.rng.randrange(len(lassos) + 1), l)
        return lassos


class Workload:
    """One seeded stream of blocks of requests."""

    name = ""
    #: blocks in one pass of the traced run
    trace_blocks = 1

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.groups = _unfair_groups()
        self.first = self.block(0)

    def rng(self, block: int) -> random.Random:
        return random.Random(self.seed * 1_000_003 + block)

    def block(self, b: int) -> list:
        raise NotImplementedError

    def run(self, item):
        raise NotImplementedError

    def check(self, item, out) -> bool:
        raise NotImplementedError

    def close(self):
        pass


# ---------------------------------------------------------------------------
# decide: what `twogen adv check` does


class Decide(Workload):
    """``adversary.load`` + ``oracle.classify`` on a stratified stream.

    A block holds one obstruction and one solvable difference for each
    k in KS, the six GAMMA built-ins and three unions of prefixed
    terms: 16 + 6 + 3 = 25 requests.  Emptiness of the special-pair
    product dominates and grows steeply with k, so the k = 16 pair
    (about 40 % of a block) sets the top of the latency order; p90 is
    the third most expensive request of the block (a k = 14 one).
    """

    name = "decide"
    KS = (2, 4, 6, 8, 10, 12, 14, 16)
    CAUSES = ("fair", "corner", "pair")
    UNIONS = 3
    TERMS = 3

    def block(self, b):
        rng = self.rng(b)
        pick = _Lassos(rng, self.groups)
        items = []
        for i, k in enumerate(self.KS):
            obstruction, _ = pick.unfair(k)
            items.append(("diff", _lasso_text(obstruction), obstruction))
            cause = self.CAUSES[i % 3]
            if cause == "pair":
                base, used = pick.unfair(k - 2)
                pair = rng.choice([g for g in self.groups[2 + i % 3]
                                   if g not in used])
                excl = pick.insert(base, pair)
            else:
                base, _ = pick.unfair(k - 1)
                extra = (pick.fair(2 + i % 3) if cause == "fair" else
                         rng.choice((ref.CORNER_LB, ref.CORNER_LW)))
                excl = pick.insert(base, [extra])
            items.append(("diff", _lasso_text(excl), excl))
        for name in ref.BUILTIN_SOLVABLE:
            items.append(("builtin", name, None))
        for _ in range(self.UNIONS):
            terms, texts = [], []
            for j in range(self.TERMS):
                u = [rng.choice(GAMMA3) for _ in range(1 + j % 2)]
                x = rng.choice(GAMMA3)
                tail = frozenset(rng.sample(GAMMA3, 1 + (j + 1) % 2))
                texts.append("%s %s* . {%s}^w" % (
                    " ".join(a.value for a in u), x.value,
                    ",".join(sorted(a.value for a in tail))))
                terms.append(("".join(ref.CODE[a] for a in u)
                              + ref.CODE[x] + "*", tail))
            items.append(("union", " | ".join(texts), tuple(terms)))
        return items

    def run(self, item):
        a = adversary.load(item[1])
        return a, oracle.classify(a)

    def check(self, item, out):
        kind, text, data = item
        a, v = out
        fams = {f.value for f in v.families}
        if kind == "diff":
            want = ref.difference_families(data)
            return fams == want and v.solvable == bool(want)
        if kind == "builtin":
            return v.solvable == ref.BUILTIN_SOLVABLE[text]
        # no term's tail set is all of GAMMA, so a fair lasso whose
        # cycle uses all three letters is excluded: F1 always holds
        member = lambda l: ref.union_contains(data, l)
        corners = {"F3": not member(ref.CORNER_LB),
                   "F4": not member(ref.CORNER_LW)}
        doc = json.loads(v.to_json())
        return (v.solvable and "F1" in fams
                and all((f in fams) == want for f, want in corners.items())
                and oracle.check_witness(a, v)
                and ref.witness_ok(doc["witness"], member))


# ---------------------------------------------------------------------------
# verify: verdict -> algorithm -> exhaustive verification and valency


class Verify(Workload):
    """Per solvable adversary: classify, build the index-guard
    algorithm, ``protocol.verify`` at depth 5, ``bivalency.explore`` at
    depth 4 and ``bivalency.find_decisive`` at depth 3.

    A block holds six differences (1, 1, 2, 2, 3, 3 excluded lassos,
    one of them fair) and the built-ins S1, TW, C1: 9 requests.
    Simulation dominates; automata stay small.
    """

    name = "verify"
    trace_blocks = 3
    SIZES = (1, 1, 2, 2, 3, 3)
    BUILTINS = ("S1", "TW", "C1")
    DEPTH, EXPLORE, DECISIVE = 5, 4, 3
    INPUTS = (0, 1)

    def block(self, b):
        rng = self.rng(b)
        pick = _Lassos(rng, self.groups)
        items = []
        for i, s in enumerate(self.SIZES):
            base, _ = pick.unfair(s - 1)
            excl = pick.insert(base, [pick.fair(2 + i % 3)])
            items.append(("diff", _lasso_text(excl), excl))
        for name in self.BUILTINS:
            items.append(("builtin", name, None))
        return items

    def run(self, item):
        a = adversary.load(item[1])
        v = oracle.classify(a)
        alg = protocol.IndexGuardAlgorithm(oracle.select_forbidden_scenario(v))
        rep = protocol.verify(alg, a, depth=self.DEPTH)
        tree = bivalency.explore(alg, a, self.INPUTS, self.EXPLORE)
        dec = bivalency.find_decisive(alg, a, self.INPUTS, self.DECISIVE)
        return v, rep, tree, dec

    def check(self, item, out):
        kind, text, data = item
        v, rep, tree, dec = out
        if kind == "diff":
            excluded = set(data)
            member = lambda l: l not in excluded
            verdict_ok = ({f.value for f in v.families}
                          == ref.difference_families(data))
        else:
            terms = ref.BUILTIN_TERMS[text]
            member = lambda l: ref.union_contains(terms, l)
            verdict_ok = v.solvable == ref.BUILTIN_SOLVABLE[text]
        want = 4 * ref.completion_count(member, self.DEPTH,
                                        protocol.DEFAULT_TAILS)
        return (verdict_ok and v.solvable and rep.ok and rep.checked == want
                and _tree_ok(tree, self.EXPLORE)
                and all(len(w) <= self.DECISIVE
                        for w in dec.decisive + dec.inconclusive))


def _tree_ok(node, depth) -> bool:
    """Children extend their parent by one letter, only below bivalent
    nodes and within the depth."""
    n = len(node.prefix)
    if node.children and (node.valency is not bivalency.Valency.BIVALENT
                          or n >= depth):
        return False
    return all(len(c.prefix) == n + 1
               and c.prefix.letters[:n] == node.prefix.letters
               and _tree_ok(c, depth) for c in node.children)


# ---------------------------------------------------------------------------
# cli: the README's command list, in-process


class Cli(Workload):
    """The README's commands through ``twogen.cli.main(argv)`` with
    stdout captured, in-process so interpreter start-up lands in
    ``setup_s`` and not in every latency.  Sizes are raised so that
    ``topology`` does most of the work (``sim verify --algorithm aeta``
    spends it in ``finished_witness``); ``adv lowerbound --rmax 9``
    enumerates 3^9 prefixes; the cheap commands show the ``cli`` layer's
    own cost.  15 requests per block.  The two ``aeta`` verifications
    (stems of length 2 and 3) vary in cost with the seeded lasso, so the
    top of the latency order, where p90 sits, is a spread of costs rather
    than one cost class.
    """

    name = "cli"
    trace_blocks = 8

    def __init__(self, seed, workdir):
        self.tmp = os.path.join(workdir, "cli-%d" % os.getpid())
        os.makedirs(self.tmp, exist_ok=True)
        self._validator = None
        super().__init__(seed, workdir)

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def block(self, b):
        rng = self.rng(b)
        pick = _Lassos(rng, self.groups)
        word = " ".join(rng.choice(GAMMA3).value for _ in range(12))
        builtin = rng.choice(sorted(ref.BUILTIN_SOLVABLE))
        fairs = [pick.fair(2), pick.fair(3)]
        unfair, _ = pick.unfair(1)
        small = pick.insert(unfair, [pick.fair(3)])
        small_text = _lasso_text(small)
        inside = pick.fair(3)
        while inside in small:
            inside = pick.fair(3)
        inputs = "%d,%d" % (rng.randrange(2), rng.randrange(2))
        svg = os.path.join(self.tmp, "stable.svg")
        doc = os.path.join(self.tmp, "stable.json")
        fams = ref.difference_families(small)
        fair_small = next(l for l in small if is_fair(l))
        return [
            (["index", word], None),
            (["index", "--limit", str(pick.fair(2))], None),
            (["adv", "check", builtin],
             lambda d: d["solvable"] == ref.BUILTIN_SOLVABLE[builtin]),
            (["adv", "check", small_text],
             lambda d: set(d["families"]) == fams),
            (["adv", "witness", small_text],
             lambda d: d["forbidden"] == str(fair_small)),
            (["adv", "lowerbound", _lasso_text(unfair), "--rmax", "9"],
             lambda d: d["rounds"] == 9),
            (["sim", "run", "--adversary", small_text, "--scenario",
              str(inside), "--inputs", inputs],
             lambda d: d["decisions"]["white"] is not None
             and d["decisions"]["white"] == d["decisions"]["black"]),
            *[(["sim", "verify", "--adversary", _lasso_text([fair]),
                "--algorithm", "aeta", "--w", str(fair), "--depth", "3"],
               _aeta_check(fair)) for fair in fairs],
            (["sim", "verify", "--adversary", "C1", "--depth", "4"],
             lambda d: d["ok"] and d["checked"] == 4 * ref.completion_count(
                 lambda l: ref.union_contains(ref.BUILTIN_TERMS["C1"], l),
                 4, protocol.DEFAULT_TAILS)),
            (["bivalency", "explore", "--adversary", _lasso_text(fairs[:1]),
              "--inputs", inputs, "--depth", "2"], None),
            (["topo", "contrex", "--depth", "10"],
             lambda d: d == {"abstract_components": 2,
                             "realization_components": 1}),
            (["topo", "subdivide", "--adversary", small_text, "--rounds",
              "12", "--out", svg], None),
            (["topo", "subdivide", "--adversary", small_text, "--rounds",
              "14", "--out", doc], None),
            (["topo", "components", "--in", doc, "--abstract",
              "--realization"],
             lambda d: d["abstract_components"] >= 1),
        ]

    def run(self, item):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(item[0])
        return rc, buf.getvalue()

    def check(self, item, out):
        rc, text = out
        if rc != 0:
            return False
        doc = json.loads(text)
        if not self.validator().is_valid(doc):
            return False
        return item[1] is None or bool(item[1](doc))

    def validator(self):
        if self._validator is None:
            import jsonschema

            with open(os.path.join("schemas", "twogen-v1.schema.json")) as fh:
                schema = json.load(fh)
            self._validator = jsonschema.Draft202012Validator(schema)
        return self._validator


def _aeta_check(fair):
    def check(d):
        return d["ok"] and d["checked"] == 4 * ref.completion_count(
            lambda l: l != fair, 3, protocol.DEFAULT_TAILS)
    return check


WORKLOADS = {w.name: w for w in (Decide, Verify, Cli)}
