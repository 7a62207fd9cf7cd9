"""Linear string format: rendering, parsing, and round-trip identity."""

import ast
import pickle
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import d2t_selftrain
import oracles
from conftest import DART_SOURCE, E2E_SOURCE, linear_texts, random_record_set
from d2t_selftrain import (
    DelinearizeError,
    LinearizationError,
    Mr,
    RecordFieldError,
    RecordKind,
    RecordSet,
    Triple,
    delinearize,
    linearize,
    render_records,
)


def test_tripleset_golden_string(dart_records):
    assert linearize(dart_records) == DART_SOURCE


def test_mr_golden_string(e2e_records):
    assert linearize(e2e_records) == E2E_SOURCE


def test_mr_subject_pair_is_fronted():
    rs = RecordSet((Mr("food", "English"), Mr("name", "X")), RecordKind.MR_SET)
    assert linearize(rs) == "name : X | food : English"


@pytest.mark.parametrize(
    "records",
    [
        (Mr("food", "English"),),  # no subject pair
        (Mr("name", "X"), Mr("name", "Y")),  # two subject pairs
    ],
)
def test_mr_requires_exactly_one_subject_pair(records):
    with pytest.raises(LinearizationError):
        linearize(RecordSet(records, RecordKind.MR_SET))


def test_empty_record_set_rejected():
    with pytest.raises(LinearizationError):
        linearize(RecordSet.empty(RecordKind.TRIPLESET))


def test_delinearize_golden_round_trip(dart_records, e2e_records):
    for rs in (dart_records, e2e_records):
        out = delinearize(linearize(rs), rs.kind)
        assert out.record_set == rs
        assert out.dropped == 0


def test_delinearize_drops_malformed_segments():
    out = delinearize("a : b : c | junk | d : e : f", RecordKind.TRIPLESET)
    assert out.record_set.records == (Triple("a", "b", "c"), Triple("d", "e", "f"))
    assert out.dropped == 1


def test_delinearize_wrong_width_is_malformed():
    # a 2-field segment is not a triple, a 3-field one is not an MR pair
    out = delinearize("a : b | x : y : z", RecordKind.MR_SET)
    assert out.record_set.records == (Mr("a", "b"),)
    assert out.dropped == 1


def test_delinearize_blank_field_is_malformed():
    out = delinearize("a :  : c | d : e : f", RecordKind.TRIPLESET)
    assert out.record_set.records == (Triple("d", "e", "f"),)
    assert out.dropped == 1


def test_delinearize_nothing_parseable_raises_with_count():
    with pytest.raises(DelinearizeError, match=r"\(2 dropped\)$"):
        delinearize("junk | more junk", RecordKind.TRIPLESET)
    with pytest.raises(DelinearizeError):
        delinearize("", RecordKind.TRIPLESET)


def test_render_records_is_permissive():
    # no subject fronting, no validation: used for model-output echoing
    records = (Mr("food", "English"), Mr("name", "X"))
    assert render_records(records) == "food : English | name : X"
    assert render_records(()) == ""


def test_extract_source_values_tripleset(dart_records):
    assert dart_records.source_values == (
        "Clapham",
        "20 August",
        "20 November",
        "Wolverhampton Wanderers",
    )


def test_extract_source_values_mr(e2e_records):
    assert e2e_records.source_values == (
        "The Golden Curry",
        "English",
        "5 out of 5",
        "riverside",
        "yes",
        "Café Rouge",
    )


def test_extract_source_values_dedupes_casefolded():
    rs = RecordSet(
        (Triple("Alpha", "P", "beta"), Triple("alpha", "Q", "Gamma")),
        RecordKind.TRIPLESET,
    )
    assert rs.source_values == ("Alpha", "beta", "Gamma")
    assert rs.folded_values == ("alpha", "beta", "gamma")


def test_round_trip_randomized_sample():
    rng = random.Random(99)
    for _ in range(50):
        rs = random_record_set(rng)
        out = delinearize(linearize(rs), rs.kind)
        assert out.record_set == rs
        assert out.dropped == 0


_phrase = st.lists(
    st.sampled_from("amber basin cedar delta ember fjord grove".split()),
    min_size=1,
    max_size=3,
).map(" ".join)

_triple_sets = st.lists(
    st.builds(Triple, _phrase, _phrase, _phrase), min_size=1, max_size=4
).map(lambda rs: RecordSet(tuple(rs), RecordKind.TRIPLESET))

_mr_sets = st.tuples(
    _phrase,
    st.lists(
        st.tuples(st.sampled_from(["food", "area", "near", "eatType"]), _phrase),
        max_size=3,
    ),
).map(
    lambda t: RecordSet(
        (Mr("name", t[0]),) + tuple(Mr(k, v) for k, v in t[1]), RecordKind.MR_SET
    )
)


@given(_triple_sets | _mr_sets)
def test_round_trip_property(rs):
    out = delinearize(linearize(rs), rs.kind)
    assert out.record_set == rs
    assert out.dropped == 0


_separator_field = st.text(alphabet="ab :|", min_size=1, max_size=6)


@given(
    st.lists(
        st.tuples(_separator_field, _separator_field, _separator_field),
        min_size=1,
        max_size=3,
    )
)
def test_round_trip_property_separator_characters(rows):
    # whatever the records accept must round-trip, however its fields mix
    # spaces with the separator characters
    try:
        rs = RecordSet(tuple(Triple(*row) for row in rows), RecordKind.TRIPLESET)
    except RecordFieldError:
        return
    out = delinearize(linearize(rs), rs.kind)
    assert out.record_set == rs
    assert out.dropped == 0


def _outcome(parse, text, kind):
    try:
        return parse(text, kind)
    except DelinearizeError as exc:
        return ("error", str(exc))


def _observed(parse, text, kind):
    """What a caller can see of a parsed set beyond equality: its and its
    records' type, hash and repr, its dict form, a pickle round trip and the
    forms derived from it."""
    try:
        rs = parse(text, kind).record_set
    except DelinearizeError:
        return None
    pickled = pickle.dumps(rs)
    again = pickle.loads(pickled)
    return (
        [(type(r), hash(r), repr(r)) for r in rs.records],
        (type(rs), hash(rs), repr(rs), rs.to_dict()),
        (pickled, again == rs, hash(again), repr(again)),
        (rs.source_values, rs.folded_values, rs.record_keys),
    )


@pytest.mark.hypothesis_seeds
@settings(max_examples=500)
@given(linear_texts, st.sampled_from(list(RecordKind)))
@example("a : b : c |  d\t:\te : f", RecordKind.TRIPLESET)
@example(" a :  b | : c | a : b : c ", RecordKind.MR_SET)
@example("\t|\t", RecordKind.TRIPLESET)
# one per edge where a field borders on a separator
@example("a : : b : c", RecordKind.TRIPLESET)
@example("| a : b : c", RecordKind.TRIPLESET)
@example("a : b : c |", RecordKind.TRIPLESET)
@example(": | :", RecordKind.TRIPLESET)
@example("a : b : c | | d : e : f", RecordKind.TRIPLESET)
@example("x : | : y", RecordKind.MR_SET)
def test_delinearize_matches_renormalising_parser(text, kind):
    # segments of normalised text split at space-edged separators are
    # normalised already, so the fields need no second pass
    assert _outcome(delinearize, text, kind) == _outcome(oracles.delinearize, text, kind)
    assert _observed(delinearize, text, kind) == _observed(oracles.delinearize, text, kind)


def test_only_the_reader_and_the_field_checks_name_the_separators():
    # `linearize` reads linear text and `records` refuses separators in
    # fields; a second module cutting text at them would fork the parse
    naming = set()
    for path in Path(d2t_selftrain.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names = {node.id}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            elif isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
            else:
                continue
            if names & {"RECORD_SEP", "FIELD_SEP"}:
                naming.add(path.stem)
    assert naming == {"linearize", "records"}
