"""Record types: normalization, reserved separators, equality semantics."""

import json
import pickle
from dataclasses import fields

import pytest

from conftest import rule_handles
from d2t_selftrain import (
    Example,
    Method,
    Mr,
    Orchestrator,
    Origin,
    Pair,
    RecordFieldError,
    RecordKind,
    RecordSet,
    RunConfig,
    SelfMemTuple,
    Triple,
    VariantMismatchError,
    normalize_text,
    optimize_target,
)
from d2t_selftrain.linearize import delinearize
from d2t_selftrain.records import json_default, make_record, record_key


def test_normalize_text_collapses_whitespace():
    assert normalize_text("  a\t b\n\nc  ") == "a b c"
    assert normalize_text("") == ""
    assert normalize_text(" \n ") == ""


def test_triple_normalizes_fields():
    t = Triple(" Clapham ", "LOAN_CLUB", "Wolverhampton   Wanderers")
    assert t.fields == ("Clapham", "LOAN_CLUB", "Wolverhampton Wanderers")


@pytest.mark.parametrize("bad", ["", "   ", "\t\n"])
def test_empty_field_rejected(bad):
    with pytest.raises(RecordFieldError):
        Triple("a", bad, "c")
    with pytest.raises(RecordFieldError):
        Mr(bad, "v")


@pytest.mark.parametrize("bad", ["a | b", "a : b", "a :", ": b", "a |", "| b", ":", "|"])
def test_reserved_separators_rejected_in_fields(bad):
    # the linear format has no escaping, so these can never round-trip
    with pytest.raises(RecordFieldError):
        Triple(bad, "p", "o")
    with pytest.raises(RecordFieldError):
        Mr("k", bad)


def test_record_eq_casefolds_by_default():
    a = Triple("Alpha", "REL", "Beta")
    b = Triple("alpha", "rel", "beta")
    assert record_key(a) == record_key(b)


def test_record_set_enforces_kind():
    with pytest.raises(VariantMismatchError):
        RecordSet((Triple("a", "b", "c"),), RecordKind.MR_SET)
    with pytest.raises(VariantMismatchError):
        RecordSet((Mr("a", "b"),), RecordKind.TRIPLESET)


@pytest.mark.parametrize(
    "kind, fields", [(RecordKind.TRIPLESET, ["a", "b", "c"]), (RecordKind.MR_SET, ["name", "X"])]
)
def test_built_and_parsed_records_are_slotted_and_alike(kind, fields):
    # delinearize fills its records' slots past __init__; they must be the
    # same values `make_record` builds
    built = make_record(kind, fields)
    (parsed,) = delinearize(" : ".join(fields), kind).record_set.records
    for r in (built, parsed):
        assert not hasattr(r, "__dict__")
        assert type(r).__slots__ == type(r).__match_args__
    assert type(parsed) is type(built)
    assert parsed == built and hash(parsed) == hash(built)
    assert pickle.dumps(parsed) == pickle.dumps(built)
    assert pickle.loads(pickle.dumps(parsed)) == built


def test_record_set_empty_is_representable():
    rs = RecordSet.empty(RecordKind.TRIPLESET)
    assert rs.is_empty
    assert len(rs) == 0


def test_record_set_dict_round_trip():
    rs = RecordSet((Mr("name", "X"), Mr("food", "Y")), RecordKind.MR_SET)
    assert RecordSet.from_dict(rs.to_dict()) == rs
    rs2 = RecordSet((Triple("a", "b", "c"),), RecordKind.TRIPLESET)
    assert RecordSet.from_dict(rs2.to_dict()) == rs2


def test_example_requires_nonempty_target():
    rs = RecordSet((Triple("a", "b", "c"),), RecordKind.TRIPLESET)
    with pytest.raises(RecordFieldError):
        Example(rs, "a : b : c", "   ")


def test_pair_key_ignores_origin():
    a = Pair("s", "t", Origin.GOLD)
    b = Pair("s", "t", Origin.REMAINING)
    assert a.key() == b.key() == ("s", "t")


def json_form(value):
    return json.loads(json.dumps(value, default=json_default))


def test_self_mem_tuple_serializes_missing_fields_as_null():
    rs = RecordSet((Triple("a", "b", "c"),), RecordKind.TRIPLESET)
    d = json_form(SelfMemTuple(x=rs, y="a b c."))
    assert d["y_prime"] is None
    assert d["x_prime"] is None
    assert d["x"] == rs.to_dict()


def test_json_form_is_every_field():
    pair = Pair("s", "t", Origin.SELF_MEMORY_Y_DPRIME)
    assert json_form(pair) == {"source_text": "s", "target_text": "t", "origin": "self-memory-y-double-prime"}
    with pytest.raises(TypeError, match="set is not JSON serializable"):
        json.dumps({"s"}, default=json_default)


def test_every_run_value_serialises_as_exactly_its_fields(small_splits, monkeypatch):
    # values as a run leaves them, so a hidden field or a cached property
    # that the run fills shows up in the JSON form and fails here
    traces = []
    close_epoch = Orchestrator._close_epoch

    def keep_trace(self, trace):
        traces.append(trace)
        close_epoch(self, trace)

    monkeypatch.setattr(Orchestrator, "_close_epoch", keep_trace)
    train, val, test = small_splits
    d2t, t2d = rule_handles(small_splits)
    orch = Orchestrator(RunConfig(Method.SELF_MEM, d2t, t2d, train, val, test, epochs=2))
    orch.run()
    trace = traces[-1]
    tup = trace.tuples[0]
    values = (tup, trace.verdicts[0], trace.subset[0], trace, orch.state, optimize_target(tup.x, tup.y_prime))
    assert [type(v).__name__ for v in values] == [
        "SelfMemTuple", "SelectionVerdict", "Pair", "EpochTrace", "RunState", "OptimizationOutcome",
    ]
    for value in values:
        assert json_default(value) == {f.name: getattr(value, f.name) for f in fields(value)}
