"""Value semantics of the 15 immutable result classes, one case per class:
repr, ==, hash, refused assignment and deletion, pickle and deepcopy.

The repr strings were recorded from the `@dataclass(frozen=True)` classes
these replaced, and every other assertion held for those classes too but
one: the slotted dataclass Phase raised TypeError, not AttributeError, on
assigning a name that is not a field.
"""

import copy
import pickle
from functools import cached_property

import pytest

from modcat._value import Value
from modcat.cli import CommandResult
from modcat.cyclic import (
    BalancingReport,
    Phase,
    build_cyclic,
    canonical_invariant,
    condense_subgroup,
)
from modcat.fusion import AxiomCheck, FusionReport, FusionRing, GradingResult, pointed_cyclic_ring
from modcat.metaplectic import (
    CondensedData,
    CondensedObject,
    MetaplecticDescriptor,
    ReconstructedGroup,
    TYReport,
)


def _unit_ring():
    return FusionRing(1, ["1"], [0], {(0, 0, 0): 1})


def _data(z=0):
    return CondensedData((CondensedObject((0,), ("1",), None, 1.0, 0),), (), _unit_ring(), z)


# (make, make a different value, fields, repr of make(), hashable)
CASES = {
    "CommandResult": (
        lambda: CommandResult(0, {"N": 15, "count": 8}, "8"),
        lambda: CommandResult(2, None, "failed"),
        ("status", "payload", "table"),
        "CommandResult(status=0, payload={'N': 15, 'count': 8}, table='8')",
        False,
    ),
    "Phase": (
        lambda: Phase.of(4, 15),
        lambda: Phase.of(-1, 3),
        ("frac",),
        "Phase(frac=Fraction(4, 15))",
        True,
    ),
    "CyclicCategory": (
        lambda: build_cyclic(5, 2),
        lambda: build_cyclic(5, 1),
        ("n", "k", "residues", "denominator"),
        "CyclicCategory(n=5, k=2, residues=(0, 2, 3, 3, 2), denominator=5)",
        True,
    ),
    "ClassDescriptor": (
        lambda: canonical_invariant(15, 2),
        lambda: canonical_invariant(15, 1),
        ("factors",),
        "ClassDescriptor(factors=((3, 1), (5, 1)))",
        True,
    ),
    "BalancingReport": (
        lambda: BalancingReport(True),
        lambda: BalancingReport(False, (1, 2)),
        ("passed", "witness"),
        "BalancingReport(passed=True, witness=None)",
        True,
    ),
    "CondensationOutcome": (
        lambda: condense_subgroup(build_cyclic(45, 1), [0, 15, 30]),
        lambda: condense_subgroup(build_cyclic(9, 1), [0, 3, 6]),
        ("subgroup", "perp", "generator", "quotient", "lagrangian"),
        "CondensationOutcome(subgroup=(0, 15, 30), perp=(0, 3, 6, 9, 12, 15, 18, 21, 24, 27, "
        "30, 33, 36, 39, 42), generator=3, quotient=CyclicCategory(n=5, k=1, "
        "residues=(0, 1, 4, 4, 1), denominator=5), lagrangian=False)",
        True,
    ),
    "FusionRing": (
        lambda: pointed_cyclic_ring(3),
        lambda: pointed_cyclic_ring(3).with_coefficient(1, 1, 2, 0),
        ("rank", "labels", "dual", "coeffs"),
        "FusionRing(rank=3, labels=('[0]', '[1]', '[2]'), dual=(0, 2, 1), "
        "coeffs=Coefficients({(0, 0, 0): 1, (0, 1, 1): 1, (0, 2, 2): 1, (1, 0, 1): 1, "
        "(1, 1, 2): 1, (1, 2, 0): 1, (2, 0, 2): 1, (2, 1, 0): 1, (2, 2, 1): 1}))",
        False,
    ),
    "AxiomCheck": (
        lambda: AxiomCheck("dual", False, (1, 1, 1)),
        lambda: AxiomCheck("unit", True),
        ("name", "passed", "witness"),
        "AxiomCheck(name='dual', passed=False, witness=(1, 1, 1))",
        True,
    ),
    "FusionReport": (
        lambda: FusionReport((AxiomCheck("unit", True),)),
        lambda: FusionReport(()),
        ("checks",),
        "FusionReport(checks=(AxiomCheck(name='unit', passed=True, witness=None),))",
        True,
    ),
    "GradingResult": (
        lambda: GradingResult(2, (0, 0, 1, 1, 0), True),
        lambda: GradingResult(1, (0,), True),
        ("order", "grades", "cyclic"),
        "GradingResult(order=2, grades=(0, 0, 1, 1, 0), cyclic=True)",
        True,
    ),
    "CondensedObject": (
        lambda: CondensedObject((0, 1), ("1", "Z"), None, 1.0),
        lambda: CondensedObject((4,), ("Y1",), 1, 1.0, 2),
        ("sources", "source_labels", "split", "dim", "group_elem"),
        "CondensedObject(sources=(0, 1), source_labels=('1', 'Z'), split=None, dim=1.0, "
        "group_elem=None)",
        True,
    ),
    "CondensedData": (
        _data,
        lambda: _data(z=1),
        ("d0", "d1", "ring", "z", "warnings"),
        "CondensedData(d0=(CondensedObject(sources=(0,), source_labels=('1',), split=None, "
        "dim=1.0, group_elem=0),), d1=(), ring=FusionRing(rank=1, labels=('1',), dual=(0,), "
        "coeffs=Coefficients({(0, 0, 0): 1})), z=0, warnings=())",
        False,
    ),
    "ReconstructedGroup": (
        lambda: ReconstructedGroup(1, True, {"1": 0}, _data()),
        lambda: ReconstructedGroup(1, False, {"1": 0}, _data()),
        ("order", "cyclic", "assignment", "data"),
        "ReconstructedGroup(order=1, cyclic=True, assignment={'1': 0}, "
        "data=CondensedData(d0=(CondensedObject(sources=(0,), source_labels=('1',), "
        "split=None, dim=1.0, group_elem=0),), d1=(), ring=FusionRing(rank=1, labels=('1',), "
        "dual=(0,), coeffs=Coefficients({(0, 0, 0): 1})), z=0, warnings=()))",
        False,
    ),
    "TYReport": (
        lambda: TYReport(True, group_order=5, cyclic=True),
        lambda: TYReport(False, reason="no"),
        ("is_ty", "group_order", "cyclic", "reason"),
        "TYReport(is_ty=True, group_order=5, cyclic=True, reason=None)",
        True,
    ),
    "MetaplecticDescriptor": (
        lambda: MetaplecticDescriptor(15, ((3, 1), (5, -1)), 0),
        lambda: MetaplecticDescriptor(15, ((3, 1), (5, -1)), 1),
        ("n", "signs", "h3"),
        "MetaplecticDescriptor(n=15, signs=((3, 1), (5, -1)), h3=0)",
        True,
    ),
}
NAMES = list(CASES)


@pytest.mark.parametrize("name", NAMES)
def test_value_semantics(name):
    make, make_other, fields, shown, hashable = CASES[name]
    value, equal, other = make(), make(), make_other()
    another_class = CASES[NAMES[NAMES.index(name) - 1]][0]()
    as_tuple = tuple(getattr(value, f) for f in fields)
    assert type(value).__name__ == name and value is not equal
    assert repr(value) == shown

    assert value == equal and not value != equal
    assert value != other and not value == other
    assert value != another_class and not value == another_class
    assert value != as_tuple and not value == as_tuple
    assert value.__eq__(as_tuple) is NotImplemented

    if hashable:
        assert hash(value) == hash(equal) == hash(as_tuple)
    else:
        with pytest.raises(TypeError):
            hash(value)

    for attr in (fields[0], fields[-1], "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(value, attr, None)
        with pytest.raises(AttributeError):
            delattr(value, attr)
    assert tuple(getattr(value, f) for f in fields) == as_tuple

    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(value, protocol)) == value
    assert copy.deepcopy(value) == value
    assert hasattr(value, "__dict__") is (name != "Phase")


class _Pair(Value):
    a: int
    b: int

    def __init__(self, a, b) -> None:
        self.__dict__.update(a=a, b=b)

    @cached_property
    def total(self) -> int:
        return self.a + self.b


def test_a_cached_property_leaves_equality_alone():
    """A cached_property keeps its result in the value's `__dict__`; two
    equal values stay equal, as they hash equal, once one has read it."""
    first, second = _Pair(1, 2), _Pair(1, 2)
    assert first.total == 3 and "total" in first.__dict__
    assert first == second and second == first and not first != second
    assert hash(first) == hash(second)
    assert first != _Pair(1, 3)
