"""The record types' contract: equality, hashing, repr, defaults, immutability."""

from fractions import Fraction

import pytest

import pardom
import pardom.audit
import pardom.formulas
from pardom import CheckRecord, FamilySpec, FormulaResult, SolveResult
from pardom.cli import RunConfig

RECORDS = [
    (
        SolveResult(2, "w", 5, "exact", 7),
        (2, "w", 5, "exact", 7),
        "SolveResult(cardinality=2, witness='w', covered=5, method='exact', nodes_explored=7)",
    ),
    (
        CheckRecord("half-bound", "p=1/2", 1, 2, True, True),
        ("half-bound", "p=1/2", 1, 2, True, True, ""),
        "CheckRecord(tag='half-bound', detail='p=1/2', lhs=1, rhs=2, "
        "hypothesis_met=True, holds=True, note='')",
    ),
    (
        FamilySpec("grid", (2, 12)),
        ("grid", (2, 12)),
        "FamilySpec(family='grid', params=(2, 12))",
    ),
    (
        FormulaResult(3, None, FamilySpec("cycle", (13,))),
        (3, None, FamilySpec("cycle", (13,)), None),
        "FormulaResult(value=3, witness=None, family=FamilySpec(family='cycle', params=(13,)), "
        "construction=None)",
    ),
    (
        RunConfig("gen"),
        ("gen", None, (), None, Fraction(1, 2), (), "exact", None, None, Fraction(1, 2),
         None, False, False, 3),
        "RunConfig(command='gen', family=None, families=(), input_path=None, p=Fraction(1, 2), "
        "ps=(), method='exact', seed=None, sample_n=None, edge_probability=Fraction(1, 2), "
        "output=None, as_json=False, ratio=False, repeat=3)",
    ),
]
IDS = [type(rec).__name__ for rec, _, _ in RECORDS]


@pytest.mark.parametrize("rec, fields, text", RECORDS, ids=IDS)
def test_equality_and_hash_follow_the_fields(rec, fields, text):
    same = type(rec)(*fields)
    assert rec == same and not rec != same
    assert hash(rec) == hash(same) == hash(fields)
    assert len({rec, same}) == 1
    changed = type(rec)(*fields[:-1], "other")
    assert rec != changed


@pytest.mark.parametrize("rec, fields, text", RECORDS, ids=IDS)
def test_repr_lists_fields_in_order_with_defaults(rec, fields, text):
    assert repr(rec) == text


@pytest.mark.parametrize("rec, fields, text", RECORDS, ids=IDS)
def test_records_are_immutable(rec, fields, text):
    name = text[text.index("(") + 1 : text.index("=")]
    with pytest.raises(AttributeError):
        setattr(rec, name, None)
    with pytest.raises(AttributeError):
        rec.not_a_field = 1


def test_family_spec_str():
    assert str(FamilySpec("grid", (2, 12))) == "grid:2,12"
    assert str(FamilySpec("multipartite", (1, 2, 3))) == "multipartite:1,2,3"


def test_errors_are_one_class_wherever_imported():
    assert pardom.audit.SamplingError is pardom.SamplingError
    assert pardom.formulas.FormulaConflict is pardom.FormulaConflict
