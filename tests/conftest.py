"""Shared fixtures and randomized-input helpers for the test suite."""

import random

import pytest
from hypothesis import strategies as st

from d2t_selftrain import (
    Direction,
    Mr,
    RecordKind,
    RecordSet,
    RuleBasedT2D,
    Triple,
    rule_based_handle,
    synthetic_dataset,
)


def pytest_collection_modifyitems(items):
    # the acceptance criteria are a report's whole contract: they rerun under
    # both string hash seeds with the other `hash_seeds` tests
    for item in items:
        if item.path.name == "test_acceptance.py":
            item.add_marker(pytest.mark.hash_seeds)


# Model-output-like linear strings: free text over the separator characters,
# tabs and letters, or segments of two or three fields joined at the
# separators, so that either variant's parse may keep or drop any mix of
# segments and win, lose or tie against the other.
_LINEAR_ALPHABET = " :|\tab"
_linear_fields = st.sampled_from(["a", "b", "ab", "a b"]) | st.text(alphabet=_LINEAR_ALPHABET, max_size=3)
linear_texts = st.text(alphabet=_LINEAR_ALPHABET, max_size=30) | st.lists(
    st.lists(_linear_fields, min_size=2, max_size=3).map(" : ".join), max_size=5
).map(" | ".join)

# Golden linearization pair 1: tripleset source string, byte-exact.
DART_SOURCE = (
    "Clapham : STARTED : 20 August"
    " | Clapham : ENDED : 20 November"
    " | Clapham : LOAN_CLUB : Wolverhampton Wanderers"
)
DART_TARGET = (
    "Clapham was loaned by the Wolverhampton Wanderers from 20 August to 20 November"
)

# Golden linearization pair 2: MR source string with the subject pair leading.
E2E_SOURCE = (
    "name : The Golden Curry | food : English | customer rating : 5 out of 5"
    " | area : riverside | familyFriendly : yes | near : Café Rouge"
)
E2E_TARGET = (
    "The Golden Curry, a 5-star family friendly breakfast joint"
    " near the Café Rouge and near the river."
)


@pytest.fixture
def dart_records():
    return RecordSet(
        (
            Triple("Clapham", "STARTED", "20 August"),
            Triple("Clapham", "ENDED", "20 November"),
            Triple("Clapham", "LOAN_CLUB", "Wolverhampton Wanderers"),
        ),
        RecordKind.TRIPLESET,
    )


@pytest.fixture
def e2e_records():
    return RecordSet(
        (
            Mr("name", "The Golden Curry"),
            Mr("food", "English"),
            Mr("customer rating", "5 out of 5"),
            Mr("area", "riverside"),
            Mr("familyFriendly", "yes"),
            Mr("near", "Café Rouge"),
        ),
        RecordKind.MR_SET,
    )


_WORDS = (
    "amber basin cedar delta ember fjord grove harbor inlet juniper keel "
    "lagoon meadow nook orchard prairie quarry ridge summit thicket"
).split()

_MR_KEYS = ["food", "area", "near", "eatType", "priceRange", "familyFriendly"]


def random_phrase(rng: random.Random, n_max: int = 3) -> str:
    return " ".join(rng.choice(_WORDS) for _ in range(rng.randint(1, n_max)))


def random_record_set(rng: random.Random, kind: RecordKind = None) -> RecordSet:
    """Random valid record set.

    MR sets carry exactly one subject pair, placed first, so linearization
    preserves input order and round-trips are identity.
    """
    if kind is None:
        kind = rng.choice([RecordKind.TRIPLESET, RecordKind.MR_SET])
    if kind is RecordKind.TRIPLESET:
        records = tuple(
            Triple(random_phrase(rng), random_phrase(rng), random_phrase(rng))
            for _ in range(rng.randint(1, 4))
        )
    else:
        pairs = [Mr("name", random_phrase(rng))]
        for key in rng.sample(_MR_KEYS, rng.randint(0, 3)):
            pairs.append(Mr(key, random_phrase(rng)))
        records = tuple(pairs)
    return RecordSet(records, kind)


def rule_handles(splits):
    """D2T and T2D rule-model handles with a catalog covering all splits."""
    examples = [ex for split in splits for ex in split.examples]
    d2t = rule_based_handle(Direction.D2T)
    t2d = rule_based_handle(Direction.T2D, RuleBasedT2D.from_examples(examples))
    return d2t, t2d


@pytest.fixture(scope="session")
def small_splits():
    # small synthetic corpus; unit-test sized, distinct from the desk-run one
    return synthetic_dataset(n_train=40, n_val=8, n_test=8, seed=11)
