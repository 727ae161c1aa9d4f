import itertools
import random

import pytest

from twogen import adversary as adv
from twogen.oracle import classify, select_forbidden_scenario
from twogen.protocol import IndexGuardAlgorithm, OwnInputAlgorithm
from twogen.words import FiniteWord, GAMMA, LassoWord, Letter


@pytest.fixture(scope="session")
def builtins():
    return {name: adv.load(name) for name in adv.BUILTIN_NAMES}


def all_words(r):
    """Every GAMMA word of length exactly r."""
    for letters in itertools.product(GAMMA, repeat=r):
        yield FiniteWord(letters)


class _OwnInputAt(OwnInputAlgorithm):
    """Decides its own input at the top of round ``r``."""

    def __init__(self, r):
        self.r = r

    def maybe_halt(self, s):
        if s.round >= self.r:
            return s._replace(decided=s.init)
        return s


def random_gamma_lasso(rng: random.Random, max_stem=3, max_cycle=2):
    stem = tuple(
        rng.choice(GAMMA) for _ in range(rng.randint(0, max_stem))
    )
    cycle = tuple(
        rng.choice(GAMMA) for _ in range(rng.randint(1, max_cycle))
    )
    return LassoWord.of(stem, cycle)


DSL_SYMBOLS = adv.BUILTIN_NAMES + (
    "GAMMA", "G2", "^w", "{", "}", "(", ")", "|", ",", ".", "*", "\\", "NOPE",
)


class DslTexts:
    """Seeded adversary DSL inputs of three kinds: terms built from the
    grammar, the same with one or two tokens deleted, inserted, replaced
    or swapped, and random token strings."""

    def __init__(self, rng: random.Random, letters=("OK", "LW", "LB", "LL")):
        self.rng = rng
        self.letter_tokens = letters
        self.tokens = letters + DSL_SYMBOLS

    def text(self, kind: int) -> str:
        if kind == 0:
            toks = self.adversary(0)
        elif kind == 1:
            toks = self.mutate(self.adversary(0))
        else:
            toks = [self.rng.choice(self.tokens)
                    for _ in range(self.rng.randint(1, 10))]
        return " ".join(toks)

    def letters(self, lo, hi):
        return [self.rng.choice(self.letter_tokens)
                for _ in range(self.rng.randint(lo, hi))]

    def joined(self, parts, sep):
        return [t for i, p in enumerate(parts) for t in [sep][:i] + p]

    def adversary(self, d):
        terms = [self.term(d) for _ in range(self.rng.randint(1, 3 - (d > 0)))]
        return self.joined(terms, "|")

    def term(self, d):
        kind = self.rng.randrange(4)
        if kind == 0:
            return [self.rng.choice(("GAMMA", "G2")), "^w", "\\", "{",
                    *self.joined([self.lasso() for _ in range(
                        self.rng.randint(1, 2))], ","), "}"]
        if kind == 1:
            return self.lasso()
        if kind == 2:
            return self.regex(d) + ["."] + self.tail(d)
        return self.tail(d)

    def tail(self, d):
        kind = self.rng.randrange(4 if d < 2 else 2)
        if kind == 0:
            return self.letter_set() + ["^w"]
        if kind == 1:
            return [self.rng.choice(adv.BUILTIN_NAMES)]
        return ["(", *self.adversary(d + 1), ")"] + ["^w"][:kind - 2]

    def letter_set(self):
        kind = self.rng.randrange(3)
        if kind == 0:
            return ["{", *self.joined([[a] for a in self.letters(1, 3)],
                                      ","), "}"]
        if kind == 1:
            return ["(", *self.letters(1, 1), ")"]
        return self.letters(1, 1)

    def lasso(self):
        return self.letters(0, 2) + ["(", *self.letters(1, 2), ")", "^w"]

    def regex(self, d):
        concats = []
        for _ in range(1 + (self.rng.random() < 0.25)):
            atoms = []
            for _ in range(self.rng.randint(1, 2)):
                if d < 2 and self.rng.random() < 0.3:
                    atoms += ["(", *self.regex(d + 1), ")"]
                else:
                    atoms += self.letters(1, 1)
                atoms += ["*"][:self.rng.random() < 0.3]
            concats.append(atoms)
        return self.joined(concats, "|")

    def mutate(self, toks):
        for _ in range(self.rng.randint(1, 2)):
            i = self.rng.randrange(len(toks) + 1)
            op = self.rng.randrange(4)
            if op == 0:
                del toks[i:i + 1]
            elif op == 1:
                toks.insert(i, self.rng.choice(self.tokens))
            elif op == 2:
                toks[i:i + 1] = [self.rng.choice(self.tokens)]
            else:
                toks[i:i + 2] = toks[i:i + 2][::-1]
        return toks


def random_automata(seed: int, n: int):
    """``n`` seeded automata: differences of 1-6 random GAMMA lassos
    alternating with adversaries built from the DSL grammar over OK, LW
    and LB (unions, regex prefixes, lassos, built-in names)."""
    rng = random.Random(seed)
    texts = DslTexts(rng, letters=("OK", "LW", "LB"))
    out = []
    while len(out) < n:
        if len(out) % 2 == 0:
            lassos = tuple(
                random_gamma_lasso(rng) for _ in range(rng.randint(1, 6)))
            out.append(adv.compile_expr(adv.DifferenceFromFull(GAMMA, lassos)))
            continue
        try:
            out.append(adv.load(texts.text(0)))
        except ValueError:  # a ParseError or CompileError
            pass
    return out


def liveness_automata():
    """One-state GAMMA automata whose colour changes inside their one
    SCC: "x infinitely often" and "x finitely often" for each letter x,
    then the fairness automaton and its complement.  Under ``intersect``
    they give clauses with a track that a sub-cycle can lower, where the
    F1 search's branching decides the verdict; on random DSL adversaries
    and their intersections it seldom does."""
    def one_state(colors):
        row = {x: (0, (colors(x),)) for x in GAMMA}
        return adv.AdversaryAutomaton(GAMMA, 0, {0: row}, 1, adv.ONE_TRACK)

    out = []
    for x in GAMMA:
        out.append(one_state(lambda y: 2 if y is x else 1))
        out.append(one_state(lambda y: 1 if y is x else 0))
    fair = adv.fairness_automaton()
    return out + [fair, adv.complement(fair)]


def halting_cases(seed: int, n: int):
    """``(automaton, algorithms)`` for the solvable GAMMA members of
    ``random_automata(seed, n)``: own-input deciding at the top of round
    k for k = 1..4, whose runs all halt at depth k and disagree on mixed
    inputs, and A_w with the oracle's w, whose runs halt at various
    depths and decide correctly."""
    cases = []
    for a in random_automata(seed, n):
        if a.alphabet != GAMMA:
            continue
        v = classify(a)
        if v.solvable:
            algos = [_OwnInputAt(k) for k in range(1, 5)]
            algos.append(IndexGuardAlgorithm(select_forbidden_scenario(v)))
            cases.append((a, algos))
    return cases
