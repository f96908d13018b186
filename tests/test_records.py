"""Value semantics of the record classes (`motivic._record`): equality and
hashing by field within one class, frozen records refusing assignment, the
validation errors of their constructors, and their reprs."""

import copy
import pickle

import pytest

from motivic.counting import ScanResult
from motivic.hilb4 import HilbStratum, PlanePartition
from motivic.laurent import q_power
from motivic.skew import CoeffDomain
from motivic.spaces import (Affine, Complement, Disjoint, FibrationTotal,
                            Grass, Leaf, Point, Product)
from motivic.suites import CheckResult, SuiteContext, SuiteResult
from motivic.weights import CompFactor, FilteredHodgeObject

# one constructor call per record class, with its repr in the form the
# dataclasses printed
FROZEN = [
    (lambda: CoeffDomain(3), "CoeffDomain(p=3)"),
    (lambda: Leaf("grass", (2, 6)), "Leaf(name='grass', args=(2, 6))"),
    (lambda: Product(Affine(2), Point()),
     "Product(left=Leaf(name='affine', args=(2,)), "
     "right=Leaf(name='point', args=()))"),
    (lambda: FibrationTotal(Grass(2, 4), Affine(1)),
     "FibrationTotal(base=Leaf(name='grass', args=(2, 4)), "
     "fibre=Leaf(name='affine', args=(1,)))"),
    (lambda: Complement(Affine(2), Point()),
     "Complement(whole=Leaf(name='affine', args=(2,)), "
     "closed=Leaf(name='point', args=()))"),
    (lambda: Disjoint((Point(), Affine(1))),
     "Disjoint(parts=(Leaf(name='point', args=()), "
     "Leaf(name='affine', args=(1,))))"),
    (lambda: CompFactor("IC", 0, -3, Grass(2, 6)),
     "CompFactor(kind='IC', shift=0, twist=-3, "
     "space=Leaf(name='grass', args=(2, 6)))"),
    (lambda: FilteredHodgeObject((CompFactor("point", 0, -7),)),
     "FilteredHodgeObject(factors=(CompFactor(kind='point', shift=0, "
     "twist=-7, space=None),))"),
    (lambda: PlanePartition(((2, 1), (1,))),
     "PlanePartition(rows=((2, 1), (1,)))"),
    (lambda: HilbStratum("L4", "g", "c", "Thm 3.7", q_power(2), ("a",)),
     "HilbStratum(label='L4', geometry='g', coefficient='c', "
     "citation='Thm 3.7', contribution=(x*y)^2, derivation=('a',))"),
]
MUTABLE = [
    (lambda: ScanResult(1, 3, 3, {0: 1, 1: 1, 2: 1}, {0: 1, 2: 2}, 1, 1,
                        0.5, {"tail_pass": 0.25}),
     "ScanResult(n=1, p=3, total=3, pf_counts={0: 1, 1: 1, 2: 1}, "
     "rank_counts={0: 1, 2: 2}, spot_checked=1, tails_checked=1, "
     "elapsed=0.5, phases={'tail_pass': 0.25})"),
    (lambda: CheckResult("d", "Ex 2.2", "729", "729"),
     "CheckResult(description='d', citation='Ex 2.2', expected='729', "
     "observed='729')"),
    (lambda: SuiteResult("dt", []), "SuiteResult(suite='dt', checks=[])"),
    (lambda: SuiteContext(),
     "SuiteContext(p_list=(2, 3), cap=100000000)"),
]
ALL = FROZEN + MUTABLE


def _fields(value):
    return [getattr(value, name) for name in value.__slots__]


def test_every_record_class_is_covered_once():
    assert len({type(make()) for make, _ in ALL}) == len(ALL) == 14


@pytest.mark.parametrize("make,text", ALL)
def test_repr_lists_every_field(make, text):
    assert repr(make()) == text


@pytest.mark.parametrize("make,text", ALL)
def test_equal_fields_give_equal_values(make, text):
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert a != tuple(_fields(a)) and a != text
    if (make, text) in MUTABLE:
        with pytest.raises(TypeError):
            hash(a)
    elif isinstance(a, HilbStratum):
        # its contribution, a LaurentPoly2, is unhashable
        with pytest.raises(TypeError, match="LaurentPoly2"):
            hash(a)
    else:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("make,text", ALL)
def test_copies_and_pickles_are_equal(make, text):
    a = make()
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(b) is type(a) and b == a
        assert _fields(b) == _fields(a)


def test_one_differing_field_makes_values_unequal():
    assert CoeffDomain(3) != CoeffDomain(5)
    assert CoeffDomain(3) != CoeffDomain()
    assert Leaf("affine", (2,)) != Leaf("affine", (3,))
    assert Product(Affine(2), Point()) != Product(Point(), Affine(2))
    assert Complement(Affine(2), Point()) != Complement(Affine(2), Affine(1))
    assert CompFactor("point", 0, -7) != CompFactor("point", 1, -7)
    assert PlanePartition(((2, 1),)) != PlanePartition(((2,), (1,)))
    assert SuiteContext() != SuiteContext(cap=10)


def test_classes_with_the_same_fields_are_never_equal():
    a, b = Affine(2), Point()
    assert Product(a, b) != FibrationTotal(a, b)
    assert not Product(a, b) == FibrationTotal(a, b)
    assert FibrationTotal(a, b) != Product(a, b)
    assert len({Product(a, b), FibrationTotal(a, b)}) == 2


@pytest.mark.parametrize("make,text", FROZEN)
def test_frozen_records_refuse_assignment(make, text):
    value = make()
    for name in value.__slots__:
        before = getattr(value, name)
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(value, name, None)
        with pytest.raises(AttributeError, match="cannot delete"):
            delattr(value, name)
        assert getattr(value, name) is before
    with pytest.raises(AttributeError):
        value.other = 1


def test_mutable_records_take_assignment():
    ctx = SuiteContext()
    ctx.cap = 10
    assert ctx == SuiteContext(cap=10)


def test_complement_takes_no_note():
    # a complement is evaluated only for a recognized closed inclusion, so
    # nothing may assert one beside its two fields
    with pytest.raises(TypeError):
        Complement(Affine(2), Point(), "origin")
    with pytest.raises(TypeError):
        Complement(Affine(2), Point(), note="origin")


def test_sequences_of_fields_are_stored_as_tuples():
    # a list gives the same value as the tuple, and a hashable one
    listed = Disjoint([Point(), Affine(1)])
    assert listed == Disjoint((Point(), Affine(1)))
    assert hash(listed) == hash(Disjoint((Point(), Affine(1))))
    assert Leaf("grass", [2, 6]) == Grass(2, 6)
    assert hash(Leaf("grass", [2, 6])) == hash(Grass(2, 6))
    assert Disjoint(iter([Point(), Point()])).parts == (Point(), Point())


@pytest.mark.parametrize("make,error,message", [
    (lambda: CoeffDomain(4), ValueError, "4 is not prime"),
    (lambda: Leaf("nope"), ValueError, "unknown space 'nope'"),
    (lambda: Leaf("affine", (1, 2)), TypeError,
     "affine takes 1 argument(s), got 2"),
    (lambda: Leaf("affine", (-1,)), ValueError,
     "affine dimension must be >= 0"),
    (lambda: Disjoint((Affine(1),)), ValueError,
     "disjoint union needs at least two parts"),
    (lambda: PlanePartition(((),)), ValueError, "rows must be nonempty"),
    (lambda: PlanePartition(((1, 0),)), ValueError,
     "entries must be positive"),
    (lambda: PlanePartition(((1, 2),)), ValueError,
     "rows must be weakly decreasing"),
    (lambda: PlanePartition(((1,), (1, 1))), ValueError,
     "row lengths must be weakly decreasing"),
    (lambda: PlanePartition(((1, 1), (2,))), ValueError,
     "columns must be weakly decreasing"),
    (lambda: FilteredHodgeObject((CompFactor("point", 0, -7),
                                  CompFactor("point", 0, -7))),
     ValueError, "weights must be strictly increasing, got [14, 14]"),
    (lambda: CompFactor("IC", 0, 0), TypeError,
     "not a module kind: 'IC' on None"),
    (lambda: CompFactor("point", 0, 0, Affine(1)), TypeError,
     "not a module kind: 'point' on Leaf(name='affine', args=(1,))"),
])
def test_constructors_validate_as_before(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert str(info.value) == message


@pytest.mark.parametrize("name,args", [
    ("affine", (3.0,)), ("affine", (True,)), ("proj", (False,)),
    ("grass", (2, 6.0)), ("grass", (True, 2)), ("gl", ("2",)),
    ("sp", (2.0,)), ("homM", (1.5,)), ("milnorF", (3.0,)),
    ("pfhyp", (True,)),
])
def test_leaves_take_only_integer_arguments(name, args):
    # a float or a bool would print as text the grammar refuses
    with pytest.raises(TypeError) as info:
        Leaf(name, args)
    assert str(info.value) == (f"{name} takes integer arguments, "
                               f"got {args!r}")
