"""Value semantics of twogen's records: hashing, immutability, repr and
equality, class by class, for every value type the package defines."""

import copy
import itertools
import pickle
from fractions import Fraction

import pytest

from twogen import adversary as adv
from twogen import oracle, protocol, topology
from twogen.bivalency import DecisiveReport, ExplorationNode, Valency
from twogen.indexfn import TernaryRational
from twogen.words import GAMMA, FiniteWord, Letter, parse_lasso

OK, LW = Letter.OK, Letter.LW
L1 = parse_lasso("LW ( OK )^w")
L2 = parse_lasso("LB ( OK )^w")
GAMMA_DIFF = adv.load("GAMMA^w \\ { LW LB ( OK )^w }")
ATOM = adv.RegexLetter(OK)
OMEGA = adv.OmegaPower(frozenset((OK, LW)))
EDGE = topology.ComplexEdge(topology.vertex_at(0), topology.vertex_at(1))
VIOLATION = protocol.Violation("agreement", L1, (0, 1), "white decided 0")
WITNESS = oracle.Witness(oracle.Family.F2, (L1, L2))

#: (record, its fields in declaration order) for each immutable record
FROZEN = [
    (FiniteWord((OK, LW)), ("letters",)),
    (L1, ("stem", "cycle")),
    (TernaryRational(2, 3), ("numerator", "exponent")),
    (ATOM, ("letter",)),
    (adv.RegexConcat((ATOM, ATOM)), ("parts",)),
    (adv.RegexUnion((ATOM,)), ("parts",)),
    (adv.RegexStar(ATOM), ("inner",)),
    (OMEGA, ("letters",)),
    (adv.Concat(ATOM, OMEGA), ("prefix", "tail")),
    (adv.Union((OMEGA,)), ("parts",)),
    (adv.DifferenceFromFull(GAMMA, (L1,)), ("alphabet", "excluded")),
    (adv.Named("C1"), ("name",)),
    (adv.LassoExpr(L1), ("word",)),
    (WITNESS, ("family", "scenarios")),
    (oracle.Verdict(frozenset({oracle.Family.F2}), WITNESS),
     ("families", "witness")),
    (VIOLATION, ("kind", "scenario", "inputs", "detail")),
    (topology.vertex_at(Fraction(1, 3)), ("position", "segment")),
    (EDGE, ("a", "b", "level")),
    (topology.Complex((EDGE,)), ("edges", "gluing", "accumulation_points")),
    (topology.Connectivity(Fraction(1, 3), "gap"), ("gap", "reason")),
]

#: (record, its fields) for each mutable record
MUTABLE = [
    (adv.load("C1"),
     ("alphabet", "initial", "transitions", "num_tracks", "acceptance")),
    (protocol.simulate(protocol.OwnInputAlgorithm(), L1, (0, 1)),
     ("scenario", "inputs", "rounds", "white", "black")),
    (protocol.Report(4, [VIOLATION]), ("checked", "violations")),
    (ExplorationNode(FiniteWord(), Valency.BIVALENT),
     ("prefix", "valency", "children")),
    (DecisiveReport([FiniteWord((OK,))], []), ("decisive", "inconclusive")),
]

SUBDIVISION = topology.build_terminating_subdivision(
    GAMMA_DIFF, topology.gap_point(oracle.classify(GAMMA_DIFF)), 2)


def _values(r, fields):
    return tuple(getattr(r, f) for f in fields)


def _id(case):
    return type(case[0]).__name__


def test_every_record_class_is_covered():
    classes = {type(r) for r, _ in FROZEN + MUTABLE}
    assert len(classes) == len(FROZEN) + len(MUTABLE) == 25
    assert type(SUBDIVISION) not in classes


@pytest.mark.parametrize("case", FROZEN, ids=_id)
def test_hash_is_the_hash_of_the_field_tuple(case):
    r, fields = case
    assert hash(r) == hash(_values(r, fields))


@pytest.mark.parametrize("case", FROZEN, ids=_id)
def test_equal_fields_make_equal_records(case):
    r, fields = case
    twin = type(r)(*_values(r, fields))
    assert twin == r and not twin != r and hash(twin) == hash(r)


@pytest.mark.parametrize("case", FROZEN, ids=_id)
def test_copies_and_pickles_equal_the_original(case):
    r = case[0]
    for twin in (copy.copy(r), copy.deepcopy(r),
                 pickle.loads(pickle.dumps(r))):
        assert type(twin) is type(r) and twin == r


@pytest.mark.parametrize("case", FROZEN, ids=_id)
def test_frozen_fields_cannot_be_assigned(case):
    r, fields = case
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(r, f, getattr(r, f))
    with pytest.raises(AttributeError):
        r.extra = 1


@pytest.mark.parametrize("case", MUTABLE, ids=_id)
def test_mutable_records_are_unhashable(case):
    with pytest.raises(TypeError):
        hash(case[0])


@pytest.mark.parametrize("case", FROZEN + MUTABLE, ids=_id)
def test_repr_names_each_field(case):
    r, fields = case
    assert repr(r) == "%s(%s)" % (type(r).__name__, ", ".join(
        "%s=%r" % (f, getattr(r, f)) for f in fields))


def test_subdivision_repr_names_its_fields():
    assert repr(SUBDIVISION).startswith(
        "TerminatingSubdivision(adversary=%r, z=%r, fiber=%r" % (
            SUBDIVISION.adversary, SUBDIVISION.z, SUBDIVISION.fiber))


def _unequal(a, b):
    assert a != b and b != a
    assert not (a == b or b == a)
    assert len({a, b}) == 2


@pytest.mark.parametrize("a, b", [
    (WITNESS, oracle.Verdict(*WITNESS)),
    *itertools.combinations([adv.RegexConcat((ATOM,)),
                             adv.RegexUnion((ATOM,)),
                             adv.Union((ATOM,))], 2),
    # a letter equals its token, so the fields are equal here too
    (adv.RegexLetter(OK), adv.Named("OK")),
])
def test_records_of_different_classes_never_compare_equal(a, b):
    _unequal(a, b)


@pytest.mark.parametrize("case", FROZEN, ids=_id)
def test_a_record_never_equals_a_bare_tuple(case):
    r, fields = case
    _unequal(r, _values(r, fields))


def test_same_fields_under_another_class_compare_unequal():
    """Every other immutable record class of the same arity, built from
    a record's own field values where its constructor accepts them."""
    built = 0
    for (a, fields), (b, b_fields) in itertools.permutations(FROZEN, 2):
        if len(b_fields) != len(fields):
            continue
        try:
            other = type(b)(*_values(a, fields))
        except (TypeError, ValueError, AttributeError):
            continue
        _unequal(a, other)
        built += 1
    assert built > 50
