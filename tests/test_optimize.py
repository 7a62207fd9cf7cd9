"""Greedy target optimization: sentence splitting and value coverage."""

import random

import pytest

from d2t_selftrain import (
    Mr,
    RecordKind,
    RecordSet,
    Triple,
    extract_source_values,
    optimize_target,
    split_sentences,
)


def mr_values(*values):
    """Record set whose source values are exactly the given strings."""
    return RecordSet(
        tuple(Mr(f"k{i}", v) for i, v in enumerate(values)), RecordKind.MR_SET
    )


@pytest.mark.parametrize(
    "text,expected",
    [
        ("A likes B. It is nice.", ["A likes B.", "It is nice."]),
        ("One sentence", ["One sentence"]),
        ("Dr. Who arrived.", ["Dr.", "Who arrived."]),  # no abbreviation handling
        ("Really?! Yes. ", ["Really?!", "Yes."]),
        ("", []),
        ("   ", []),
    ],
)
def test_split_sentences(text, expected):
    assert split_sentences(text) == expected


def test_optimizer_drops_uninformative_sentence():
    out = optimize_target(mr_values("A", "B"), "A likes B. It is nice.")
    assert out.optimized == "A likes B."
    assert out.changed is True
    assert out.matched_values == ("A", "B")
    assert out.kept_sentences == ("A likes B.",)


def test_uncovered_value_leaves_target_unchanged():
    y = "A is here."
    out = optimize_target(mr_values("A", "B"), y)
    assert out.optimized == y
    assert out.changed is False
    assert out.matched_values == ("A",)


def test_already_minimal_target_reports_unchanged():
    out = optimize_target(mr_values("A"), "A wins.")
    assert out.optimized == "A wins."
    assert out.changed is False  # identical output, nothing dropped


def test_skips_sentence_between_kept_ones():
    # middle sentence has no new value and is dropped even though it sits
    # between two kept sentences
    out = optimize_target(mr_values("A", "B"), "A is first. Filler only. B is last.")
    assert out.optimized == "A is first. B is last."
    assert out.kept_sentences == ("A is first.", "B is last.")
    assert out.changed is True


def test_sentence_kept_once_even_when_matching_twice():
    out = optimize_target(mr_values("A", "B"), "A likes B.")
    assert out.kept_sentences == ("A likes B.",)
    assert out.changed is False


def test_empty_value_set_never_changes():
    out = optimize_target(RecordSet.empty(RecordKind.MR_SET), "Some text.")
    assert out.optimized == "Some text."
    assert out.changed is False


def test_case_folded_matching_by_default():
    out = optimize_target(mr_values("Alpha"), "alpha wins. noise here.")
    assert out.changed is True
    assert out.optimized == "alpha wins."


def test_tripleset_values_are_subjects_and_objects():
    rs = RecordSet((Triple("A", "LIKES", "B"),), RecordKind.TRIPLESET)
    out = optimize_target(rs, "A likes B. Nothing else.")
    assert out.optimized == "A likes B."
    assert out.changed is True


def _random_instance(rng):
    values = [f"val{i}" for i in range(rng.randint(1, 5))]
    filler = ["lorem", "ipsum", "dolor", "sit"]
    sentences = []
    for _ in range(rng.randint(1, 6)):
        words = [rng.choice(filler) for _ in range(rng.randint(1, 3))]
        for v in values:
            if rng.random() < 0.4:
                words.insert(rng.randrange(len(words) + 1), v)
        sentences.append(" ".join(words) + rng.choice(".!?"))
    return mr_values(*values), " ".join(sentences)


def test_randomized_invariants():
    rng = random.Random(4)
    for _ in range(200):
        x, y = _random_instance(rng)
        out = optimize_target(x, y)
        # conservativeness: never longer than the input
        assert len(out.optimized) <= len(y)
        # kept sentences are a subsequence of the original split
        sentences = split_sentences(y)
        it = iter(sentences)
        assert all(s in it for s in out.kept_sentences)
        if out.changed:
            assert out.optimized != y
            # coverage soundness: every value is present in the output
            folded = out.optimized.casefold()
            assert all(v.casefold() in folded for v in extract_source_values(x))
            assert out.optimized == " ".join(out.kept_sentences)
