"""Value semantics of alexkit's record types: the `NamedTuple` records and
the `Frozen` classes whose constructors validate or normalize."""

import copy
import pickle

import pytest

from alexkit.alexander import fox_matrix
from alexkit.cyclofield import Character
from alexkit.intlinalg import AbelianStructure
from alexkit.jumploci import BettiReport, RootEquality, monodromy_analysis
from alexkit.laurent import factor_poly, parse_poly
from alexkit.obstruct import QPVerdict
from alexkit.presentation import GroupPresentation, Word, parse_presentation
from alexkit.seifert import DivisorComponent, SpliceData

from conftest import load_presentation


def _presentation():
    return parse_presentation("gens: a b\nrel: a b a^-1 b^-1\n")


# each builds a new record from the same fields on every call; some pass
# them by keyword, which the constructors also take
RECORDS = {
    "Word": lambda: Word(letters=((0, 1), (1, -2))),
    "GroupPresentation": _presentation,
    "Character": lambda: Character(conductor=6, scales=(1, 2), exps=(1, 5)),
    "SpliceData": lambda: SpliceData(weights=(1, 1, 1, 2, 3), q=3),
    "AbelianStructure": lambda: AbelianStructure(
        2, (), ((1, 0), (0, 1)), abf_inverse=((1, 0), (0, 1))),
    "FactoredPoly": lambda: factor_poly(parse_poly("t^2 - 1", ("t",))),
    "AlexanderMatrix": lambda: fox_matrix(load_presentation("pencil3.grp")),
    "QPVerdict": lambda: QPVerdict("CONSISTENT", "constant polynomial",
                                   {"c": 1}),
    "BettiReport": lambda: BettiReport(
        Character(3, (1,), (1,)), 1, 1, 1, ("Yes", None), True),
    "RootEquality": lambda: RootEquality(
        "t + 1", Character(2, (1,), (1,)), 1, 1, True),
    "MonodromyReport": lambda: monodromy_analysis([[0, -1], [1, 0]]),
    "DivisorComponent": lambda: DivisorComponent(root_order=6,
                                                 multiplicity=3),
}

FROZEN = ("Word", "GroupPresentation", "Character", "SpliceData")
# these hold lists or dicts, so they cannot hash
UNHASHABLE = ("AlexanderMatrix", "QPVerdict", "MonodromyReport")


@pytest.mark.parametrize("name", RECORDS)
def test_equal_fields_give_equal_records(name):
    a, b = RECORDS[name](), RECORDS[name]()
    assert a is not b and a == b and not a != b
    assert type(a).__name__ == name
    if name not in UNHASHABLE:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_records_refuse_assignment(name):
    record = RECORDS[name]()
    field = type(record).__slots__[0]
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, before)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, field) == before


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_records_copy_and_pickle(name):
    record = RECORDS[name]()
    for twin in (copy.copy(record), copy.deepcopy(record),
                 pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record) and twin == record
    assert repr(record).startswith(f"{name}(")


def test_frozen_records_differ_from_other_types():
    assert Word(()) != GroupPresentation((), ())
    assert Character(1, (1,), (0,)) != (1, (1,), (0,))
    assert SpliceData((1, 1, 1), 3) != SpliceData((1, 1, 1), 2)
