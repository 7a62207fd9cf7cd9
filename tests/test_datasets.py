"""Loader tests: DART JSON, E2E CSV, and the synthetic corpus."""

import csv
import json

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from conftest import DART_SOURCE, DART_TARGET, E2E_SOURCE, E2E_TARGET
from d2t_selftrain import (
    DatasetError,
    Direction,
    RecordKind,
    delinearize,
    generate_batch,
    load_dart,
    load_e2e,
    normalize_text,
    rule_based_handle,
    synthetic_dataset,
)
from d2t_selftrain import records
from d2t_selftrain.datasets import SplitName, _parse_mr, read_lines

GOLDEN_DART_ENTRY = {
    "tripleset": [
        ["Clapham", "STARTED", "20 August"],
        ["Clapham", "ENDED", "20 November"],
        ["Clapham", "LOAN_CLUB", "Wolverhampton Wanderers"],
    ],
    "annotations": [{"text": DART_TARGET}],
}

GOLDEN_E2E_MR = (
    "name[The Golden Curry], food[English], customer rating[5 out of 5], "
    "area[riverside], familyFriendly[yes], near[Café Rouge]"
)


def _write_dart(tmp_path, entries, encoding="utf-8"):
    path = tmp_path / "dart.json"
    path.write_text(json.dumps(entries), encoding=encoding)
    return path


def _write_e2e(tmp_path, rows, header=("mr", "ref"), encoding="utf-8"):
    path = tmp_path / "e2e.csv"
    with open(path, "w", encoding=encoding, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


class TestLoadDart:
    def test_golden_entry(self, tmp_path):
        split = load_dart(_write_dart(tmp_path, [GOLDEN_DART_ENTRY]))
        assert split.name is SplitName.TRAIN
        assert split.load_warnings == ()
        assert len(split) == 1
        ex = split.examples[0]
        assert ex.source_text == DART_SOURCE
        assert ex.target == DART_TARGET
        assert ex.source.kind is RecordKind.TRIPLESET
        assert len(ex.source.records) == 3
        # the stored source string parses back to the stored record set
        assert delinearize(ex.source_text, RecordKind.TRIPLESET).record_set == ex.source

    def test_byte_order_mark_is_skipped(self, tmp_path):
        plain = load_dart(_write_dart(tmp_path, [GOLDEN_DART_ENTRY]))
        assert load_dart(_write_dart(tmp_path, [GOLDEN_DART_ENTRY], encoding="utf-8-sig")) == plain

    def test_split_name_passthrough(self, tmp_path):
        path = _write_dart(tmp_path, [GOLDEN_DART_ENTRY])
        assert load_dart(path, SplitName.TEST).name is SplitName.TEST

    def test_annotation_may_be_plain_string(self, tmp_path):
        entry = {"tripleset": [["A", "P", "B"]], "annotations": ["Plain string ref."]}
        split = load_dart(_write_dart(tmp_path, [entry]))
        assert len(split) == 1
        assert split.examples[0].target == "Plain string ref."

    def test_multi_annotation_entry_expands(self, tmp_path):
        entry = {
            "tripleset": [["A", "P", "B"]],
            "annotations": [{"text": "First."}, {"text": "Second."}],
        }
        split = load_dart(_write_dart(tmp_path, [entry]))
        assert [ex.target for ex in split.examples] == ["First.", "Second."]
        assert split.examples[0].source_text == split.examples[1].source_text

    def test_malformed_entries_skipped_with_warnings(self, tmp_path):
        entries = [
            GOLDEN_DART_ENTRY,
            "not an object",
            {"tripleset": [], "annotations": [{"text": "x"}]},
            {"tripleset": [["a", "b"]], "annotations": [{"text": "x"}]},
            {"tripleset": [["A", "P", "B"]]},
            {"tripleset": [["A", "P", "B"]], "annotations": [{"text": "   "}]},
            {
                "tripleset": [["A", "P", "B"], ["bad", "", "field"]],
                "annotations": [{"text": "A stands by B."}, {"text": "B is past A."}],
            },
        ]
        split = load_dart(_write_dart(tmp_path, entries))
        assert len(split) == 3
        assert split.examples[0].source_text == DART_SOURCE
        # the mixed entry drops its bad triple but keeps both annotations
        assert split.examples[1].source_text == "A : P : B"
        assert split.examples[2].source_text == "A : P : B"
        assert [ex.target for ex in split.examples[1:]] == [
            "A stands by B.",
            "B is past A.",
        ]
        warnings = list(split.load_warnings)
        assert len(warnings) == 8
        assert warnings[:2] == [
            "entry 1: not an object, skipped",
            "entry 2: empty or missing tripleset, skipped",
        ]
        assert warnings[2].startswith("entry 3: triple 0 rejected")
        assert warnings[3:7] == [
            "entry 3: no usable triples, skipped",
            "entry 4: no annotations, skipped",
            "entry 5: annotation 0 has no text, dropped",
            "entry 5: all annotations unusable, skipped",
        ]
        assert warnings[7].startswith("entry 6: triple 1 rejected")

    def test_lone_surrogate_entries_skipped_with_warnings(self, tmp_path):
        # json.dumps writes "\ud800" escapes, which decode to lone surrogates;
        # an escaped pair decodes to one character and is kept
        entries = [
            {"tripleset": [["A\ud800", "P", "B"]], "annotations": [{"text": "A stands by B."}]},
            {"tripleset": [["A", "P", "B"]], "annotations": [{"text": "A stands by B."}, {"text": "B \udfff A."}]},
            {"tripleset": [["A", "P", "B"]], "annotations": ["A \ud800 B."]},
            # a high surrogate ending the source and a low one starting the
            # annotation stay two code points, whatever joins them
            {"tripleset": [["A", "P", "B\ud83d"]], "annotations": ["\ude00 B."]},
            {"tripleset": [["A", "P", "B \U0001F600"]], "annotations": [{"text": "A stands by B \U0001F600."}]},
        ]
        split = load_dart(_write_dart(tmp_path, entries))
        assert [ex.source_text for ex in split.examples] == ["A : P : B \U0001F600"]
        assert split.load_warnings == tuple(
            f"entry {i}: lone surrogate in a triple or an annotation, skipped" for i in range(4)
        )

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError, match="cannot read"):
            load_dart(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(DatasetError, match="not valid JSON"):
            load_dart(path)

    def test_non_utf8_file(self, tmp_path):
        path = tmp_path / "dart.json"
        entry = '{"tripleset": [["caf\xe9", "P", "O"]], "annotations": ["Ref."]}'
        path.write_bytes(f"[{entry}]".encode("latin-1"))
        with pytest.raises(DatasetError, match=f"{path.name} is not UTF-8"):
            load_dart(path)

    def test_nesting_too_deep_is_invalid_json(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        with pytest.raises(DatasetError, match=f"{path.name} is not valid JSON"):
            load_dart(path)

    def test_top_level_must_be_array(self, tmp_path):
        path = tmp_path / "obj.json"
        path.write_text(json.dumps({"tripleset": []}), encoding="utf-8")
        with pytest.raises(DatasetError, match="JSON array"):
            load_dart(path)


class TestLoadE2e:
    def test_golden_row(self, tmp_path):
        split = load_e2e(_write_e2e(tmp_path, [(GOLDEN_E2E_MR, E2E_TARGET)]))
        assert split.load_warnings == ()
        assert len(split) == 1
        ex = split.examples[0]
        assert ex.source_text == E2E_SOURCE
        assert ex.target == E2E_TARGET
        assert ex.source.kind is RecordKind.MR_SET
        assert delinearize(ex.source_text, RecordKind.MR_SET).record_set == ex.source

    def test_bad_rows_skipped_with_warnings(self, tmp_path):
        rows = [
            (GOLDEN_E2E_MR, E2E_TARGET),
            ("food[French], area[city centre]", "A French place in the city centre."),
            ("", "Some ref."),
            ("name[A]", ""),
            ("name[A] junk", "Has trailing junk."),
            ("name[A [nested] thing]", "Nested ref."),
            ("name[]", "Empty value."),
        ]
        split = load_e2e(_write_e2e(tmp_path, rows))
        assert len(split) == 3
        assert split.examples[0].source_text == E2E_SOURCE
        # no name attribute: first key stands in as the subject
        assert split.examples[1].source_text == "food : French | area : city centre"
        assert split.examples[2].source.records[0].value == "A [nested] thing"
        warnings = list(split.load_warnings)
        assert len(warnings) == 5
        assert warnings[0] == "row 1: no name attribute, using 'food' as subject"
        assert warnings[1] == "row 2: empty mr, skipped"
        assert warnings[2] == "row 3: missing ref, skipped"
        assert warnings[3].startswith("row 4: unparseable mr")
        assert warnings[4].startswith("row 6: unparseable mr")

    def test_nameless_row_keeps_its_pairs_as_written(self, tmp_path):
        # the first pair leads even when its key repeats
        split = load_e2e(_write_e2e(tmp_path, [("food[English], food[Thai]", "Ref.")]))
        assert [ex.source_text for ex in split.examples] == ["food : English | food : Thai"]
        assert split.load_warnings == ("row 0: no name attribute, using 'food' as subject",)

    def test_two_name_pairs_cannot_linearize(self, tmp_path):
        split = load_e2e(_write_e2e(tmp_path, [("name[A], food[Thai], Name[B]", "Ref.")]))
        assert len(split) == 0
        assert len(split.load_warnings) == 1
        assert split.load_warnings[0].startswith("row 0: cannot linearize (")
        assert split.load_warnings[0].endswith("found 2), skipped")

    def test_byte_order_mark_is_skipped(self, tmp_path):
        rows = [(GOLDEN_E2E_MR, E2E_TARGET)]
        assert load_e2e(_write_e2e(tmp_path, rows, encoding="utf-8-sig")) == load_e2e(
            _write_e2e(tmp_path, rows)
        )

    def test_unbalanced_brackets_warn(self, tmp_path):
        split = load_e2e(_write_e2e(tmp_path, [("name[A", "Ref.")]))
        assert len(split) == 0
        assert "unbalanced brackets" in split.load_warnings[0]

    def test_comma_inside_value_survives(self, tmp_path):
        split = load_e2e(_write_e2e(tmp_path, [("name[A, B and C]", "Ref.")]))
        assert split.examples[0].source.records[0].value == "A, B and C"

    def test_missing_columns(self, tmp_path):
        path = _write_e2e(tmp_path, [("x", "y")], header=("meaning", "ref"))
        with pytest.raises(DatasetError, match="mr/ref"):
            load_e2e(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError, match="cannot read"):
            load_e2e(tmp_path / "nope.csv")

    def test_non_utf8_file(self, tmp_path):
        path = _write_e2e(tmp_path, [("name[caf\xe9]", "Ref.")], encoding="latin-1")
        with pytest.raises(DatasetError, match=f"{path.name} is not UTF-8"):
            load_e2e(path)

    def test_field_over_the_csv_limit(self, tmp_path):
        ref = "x" * (csv.field_size_limit() + 1)
        path = tmp_path / "e2e.csv"
        path.write_text(f'mr,ref\nname[A],"{ref}"\n', encoding="utf-8")
        with pytest.raises(DatasetError, match=f"{path.name} is not parseable CSV"):
            load_e2e(path)


class TestLoaderMemos:
    """A loader call cleans each distinct raw field once and reads each
    distinct E2E MR once; the property below checks both against oracles."""

    def test_equal_cleaned_fields_are_one_object(self, tmp_path):
        entries = [
            {"tripleset": [["Alpha Beta", "LOCATED_IN", "Gamma Delta"]], "annotations": ["One."]},
            {
                "tripleset": [[" Alpha  Beta", "LOCATED_IN", "Gamma Delta"], ["Gamma Delta", "NEAR", "Alpha Beta"]],
                "annotations": ["Two."],
            },
        ]
        a, b = (ex.source.records for ex in load_dart(_write_dart(tmp_path, entries)).examples)
        assert a[0].subject is b[0].subject is b[1].object
        assert a[0].object is b[0].object is b[1].subject
        assert a[0].predicate is b[0].predicate
        rows = [("name[The Inn], food[Thai]", "One."), ("name[ The  Inn ], near[Thai]", "Two.")]
        c, d = (ex.source.records for ex in load_e2e(_write_e2e(tmp_path, rows)).examples)
        assert c[0].key is d[0].key and c[0].value is d[0].value
        assert c[1].value is d[1].value

    def test_rows_with_one_mr_share_their_record_set(self, tmp_path):
        rows = [
            (GOLDEN_E2E_MR, "First."),
            ("name[Other]", "Other."),
            (GOLDEN_E2E_MR, "Second."),
            ("food[Thai], area[riverside]", "Nameless."),
            ("", "Blank."),
            ("food[Thai], area[riverside]", "Nameless again."),
        ]
        split = load_e2e(_write_e2e(tmp_path, rows))
        a, _, b, c, d = split.examples
        assert b.source is a.source and b.source_text is a.source_text
        assert d.source is c.source and d.source_text is c.source_text
        assert [ex.target for ex in (a, b, c, d)] == ["First.", "Second.", "Nameless.", "Nameless again."]
        # a replayed MR's warning is its own row's
        assert split.load_warnings == (
            "row 3: no name attribute, using 'food' as subject",
            "row 4: empty mr, skipped",
            "row 5: no name attribute, using 'food' as subject",
        )

    def test_clean_field_runs_once_per_distinct_raw_field(self, tmp_path, monkeypatch):
        calls = []
        clean = records._clean_field

        def counting(name, raw):
            calls.append(raw)
            return clean(name, raw)

        monkeypatch.setattr(records, "_clean_field", counting)
        entries = [
            {"tripleset": [["Ann Lee", "LIVES_IN", "Oslo"], ["Ann Lee", "BORN_IN", " Oslo"]], "annotations": ["x"]},
            {"tripleset": [["Oslo", "LIVES_IN", "Ann Lee"], ["Bo", "BORN_IN", "Oslo"]], "annotations": ["y"]},
        ]
        load_dart(_write_dart(tmp_path, entries))
        assert sorted(calls) == sorted({"Ann Lee", "LIVES_IN", "Oslo", "BORN_IN", " Oslo", "Bo"})
        calls.clear()
        rows = [("name[Ann Lee], food[Thai]", "A."), ("name[Bo], food[Thai]", "B.")] * 3
        load_e2e(_write_e2e(tmp_path, rows))
        assert sorted(calls) == sorted({"name", "Ann Lee", "food", "Thai", "Bo"})

    def test_a_refused_field_is_refused_under_its_own_name(self, tmp_path):
        # only cleaned fields are remembered: the same raw field is refused
        # again, as the field it is there
        entries = [
            {"tripleset": [[" ", "P", "B"], ["A", "P", " "], ["A", "P", "B"]], "annotations": ["A by B."]},
            {"tripleset": [["A", " ", "B"]], "annotations": ["A by B."]},
        ]
        split = load_dart(_write_dart(tmp_path, entries))
        assert len(split) == 1
        empty = "is empty after whitespace normalization"
        assert split.load_warnings == (
            f"entry 0: triple 0 rejected (record field 'subject' {empty}), dropped",
            f"entry 0: triple 1 rejected (record field 'object' {empty}), dropped",
            f"entry 1: triple 0 rejected (record field 'predicate' {empty}), dropped",
            "entry 1: no usable triples, skipped",
        )


def _mostly(good, bad):
    """`good` about three draws in four, `bad` the others (`st.one_of`
    would merge repeated branches)."""
    return st.sampled_from((good, good, good, bad)).flatmap(lambda strategy: strategy)


# Hostile DART files: fields that clean to one value, fields that border on or
# hold a separator, blank fields, lone surrogates and an escaped pair, fields
# that are not strings (unhashable ones too), triples of the wrong arity or
# not lists, entries that are not objects or lack a part, and annotations
# that are blank, missing or not strings. Weighted so that most files keep
# some examples.
_dart_fields = _mostly(
    st.sampled_from(("Alpha Beta", " Alpha Beta", "Alpha  Beta", "Alpha\tBeta\n", "Gamma", "LOCATED_IN", "B \U0001F600")),
    st.sampled_from(
        ("", "   ", ": Gamma", "Gamma :", "| Gamma", "Gamma |", "a | b", "a : b", ":", "|",
         "Gamma\ud800", "\udfff", None, 7, 1.5, True, [], ["Gamma"], {"k": "Gamma"})
    ),
)
_dart_triples = _mostly(st.lists(_dart_fields, min_size=3, max_size=3), st.lists(_dart_fields, max_size=4) | _dart_fields)
_dart_texts = _mostly(
    st.sampled_from(("Alpha Beta is in Gamma.", "Gamma.")),
    st.sampled_from(("", "  ", "x \ud800 y", "\ude00 y", None, 3, ["Gamma"])),
)
_dart_annotations = _dart_texts | st.fixed_dictionaries({}, optional={"text": _dart_texts})
_dart_entries = _mostly(
    st.fixed_dictionaries(
        {
            "tripleset": st.lists(_dart_triples, min_size=1, max_size=3),
            "annotations": st.lists(_dart_annotations, min_size=1, max_size=3),
        }
    ),
    _dart_fields
    | st.fixed_dictionaries(
        {},
        optional={
            "tripleset": st.just([]) | _dart_fields | st.lists(_dart_triples, min_size=1, max_size=2),
            "annotations": st.just([]) | _dart_texts,
        },
    ),
)

# Hostile E2E files: a few MRs, each on any number of rows. They hold
# whitespace variants of one value, separator-edged and blank values and
# keys, nameless MRs, MRs with two name pairs, and MRs that do not parse;
# refs may be blank or missing.
_mr_pairs = _mostly(
    st.tuples(
        st.sampled_from(("name", "Name", "name ", "food", "customer rating")),
        st.sampled_from(("Alpha Beta", " Alpha Beta", "Alpha\nBeta", "Gamma", "A [nested] thing", "Café")),
    ),
    st.tuples(st.sampled_from(("name", "food", "a | b", "x :")), st.sampled_from(("", "  ", "a | b", ": x", "Gamma"))),
)
_mrs = _mostly(
    st.lists(_mr_pairs, min_size=1, max_size=3).map(lambda pairs: ", ".join(f"{k}[{v}]" for k, v in pairs)),
    st.sampled_from(("", "   ", "name[A", "junk", "name[A] junk", "]", "name[A], Name[B]")),
)
_refs = _mostly(st.sampled_from(("Ref.", "Another ref.")), st.sampled_from(("", "  ")))


@st.composite
def _e2e_rows(draw):
    mrs = draw(st.lists(_mrs, min_size=1, max_size=4))
    # a row of one cell has no ref
    rows = _mostly(st.tuples(st.sampled_from(mrs), _refs), st.tuples(st.sampled_from(mrs)))
    return draw(st.lists(rows, max_size=10))


@pytest.mark.hypothesis_seeds
@settings(max_examples=300, deadline=None)
@given(entries=st.lists(_dart_entries, max_size=6))
def test_load_dart_matches_its_oracle(tmp_path_factory, entries):
    path = tmp_path_factory.mktemp("dart") / "dart.json"
    path.write_text(json.dumps(entries), encoding="utf-8")
    split = load_dart(path)
    assert (split.examples, split.load_warnings) == oracles.load_dart(path)


@pytest.mark.hypothesis_seeds
@settings(max_examples=300, deadline=None)
@given(rows=_e2e_rows())
def test_load_e2e_matches_its_oracle(tmp_path_factory, rows):
    path = _write_e2e(tmp_path_factory.mktemp("e2e"), rows)
    split = load_e2e(path)
    assert (split.examples, split.load_warnings) == oracles.load_e2e(path)


# Lines as the line reader returns them: no "\n" inside and no "\r" at the end,
# where a "\r\n" end would take it.
_text_lines = st.lists(
    st.text(alphabet="a \t\r\u2028\x85\x1c", max_size=6).filter(lambda line: not line.endswith("\r")),
    max_size=5,
)


@pytest.mark.hypothesis_seeds
@settings(max_examples=200, deadline=None)
@given(lines=_text_lines, end=st.sampled_from(["\n", "\r\n"]), bom=st.booleans())
def test_read_lines_round_trip(tmp_path_factory, lines, end, bom):
    path = tmp_path_factory.mktemp("lines") / "lines.txt"
    path.write_bytes(("\ufeff" if bom else "").encode() + "".join(line + end for line in lines).encode())
    assert read_lines(path) == lines


# Values whose brackets nest and close inside them, as the parser expects.
_plain_values = st.text(st.characters(blacklist_characters="[]"), max_size=8)
_balanced_values = st.recursive(
    _plain_values,
    lambda inner: st.lists(st.one_of(inner, inner.map(lambda v: f"[{v}]")), max_size=3).map("".join),
    max_leaves=8,
)
# Keys the parser reads back as they are: no "[", and nothing it strips.
_mr_keys = st.text(st.characters(blacklist_characters="["), min_size=1, max_size=10).filter(
    lambda k: k == k.strip(" ,").strip()
)


class TestParseMr:
    @settings(max_examples=500, deadline=None)
    @given(mr=st.one_of(st.text(), st.text(alphabet="ab[], \t", max_size=30)))
    @example(mr="")
    @example(mr="]")
    @example(mr="[a]")
    @example(mr="a[b], , c")
    def test_any_string_parses_or_raises_value_error(self, mr):
        try:
            pairs = _parse_mr(mr)
        except ValueError:
            return
        assert pairs
        for key, value in pairs:
            assert key and "[" not in key
            assert isinstance(value, str)

    @settings(max_examples=300, deadline=None)
    @given(pairs=st.lists(st.tuples(_mr_keys, _balanced_values), min_size=1, max_size=5))
    @example(pairs=[("name", "The Golden Curry"), ("food", "English, [Indian]")])
    @example(pairs=[("a]b", ""), ("c", "[[]]")])
    def test_rendered_pairs_parse_back(self, pairs):
        mr = ", ".join(f"{k}[{v}]" for k, v in pairs)
        assert _parse_mr(mr) == pairs


class TestSynthetic:
    def test_sizes_and_names(self):
        train, val, test = synthetic_dataset(n_train=12, n_val=4, n_test=5, seed=3)
        assert (len(train), len(val), len(test)) == (12, 4, 5)
        assert train.name is SplitName.TRAIN
        assert val.name is SplitName.VALIDATION
        assert test.name is SplitName.TEST

    def test_default_sizes(self):
        train, val, test = synthetic_dataset()
        assert (len(train), len(val), len(test)) == (200, 30, 30)

    def test_deterministic(self):
        a = synthetic_dataset(n_train=20, n_val=5, n_test=5, seed=9)
        b = synthetic_dataset(n_train=20, n_val=5, n_test=5, seed=9)
        assert a == b
        c = synthetic_dataset(n_train=20, n_val=5, n_test=5, seed=10)
        assert a != c

    def test_subjects_globally_unique(self):
        splits = synthetic_dataset(n_train=30, n_val=10, n_test=10, seed=5)
        subjects = [
            ex.source.records[0].subject for split in splits for ex in split.examples
        ]
        assert len(subjects) == len(set(subjects))
        for split in splits:
            for ex in split.examples:
                assert len({r.subject for r in ex.source.records}) == 1
                assert 1 <= len(ex.source.records) <= 3

    def test_gold_targets_cover_all_values(self):
        splits = synthetic_dataset(n_train=25, n_val=5, n_test=5, seed=8)
        for split in splits:
            for ex in split.examples:
                for value in ex.source.source_values:
                    assert oracles.value_in_text(value, ex.target)

    def test_gold_targets_longer_than_rule_output(self):
        # leaves the optimizer and the length condition real work to do
        train, _, _ = synthetic_dataset(n_train=25, n_val=5, n_test=5, seed=8)
        d2t = rule_based_handle(Direction.D2T)
        outputs = generate_batch(d2t, [ex.source_text for ex in train.examples])
        for ex, out in zip(train.examples, outputs):
            assert len(normalize_text(out)) < len(normalize_text(ex.target))

    def test_sources_round_trip(self):
        train, _, _ = synthetic_dataset(n_train=15, n_val=5, n_test=5, seed=2)
        for ex in train.examples:
            assert (
                delinearize(ex.source_text, RecordKind.TRIPLESET).record_set
                == ex.source
            )
