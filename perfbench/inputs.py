"""Seeded inputs for the three benchmark workloads.

Everything here is plain data derived from one integer seed: the same seed
always gives byte-identical inputs. Nothing imports the program under test,
so the inputs do not change when the program does.

- DART JSON splits for `desk-run` and `served-run` (`write_dart_splits`)
- the `gateway-rpc` request mix (`rpc_mix`)
- filler sentences for the verbose D2T servable of `served-run` (`FILLERS`)
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Optional

# Vocabularies are disjoint: no word or value of one pool occurs inside a
# value, a predicate phrase or a template of another, so the rule-based T2D
# recovers exactly the records of a text and the optimizer never drops a
# rendered sentence.
_ADJECTIVES = ("Amber", "Basalt", "Copper", "Dune", "Elm", "Flint", "Garnet", "Heath", "Indigo", "Jasper", "Kestrel", "Larch")
_NOUNS = ("Abbey", "Brewery", "Chapel", "Dockyard", "Exchange", "Foundry", "Granary", "Hospice", "Observatory", "Library", "Mint", "Theatre")

_PREDICATES = (
    # predicate, object pool, verbose gold templates (each holds {s}, {o} and
    # the predicate phrase verbatim)
    (
        "LOCATED_IN",
        ("Ravenna", "Tallinn", "Arequipa", "Kraków", "Ålesund", "Valdivia", "Zanzibar", "Timbuktu", "Nagasaki", "Reykjavik"),
        (
            "According to several local sources, the {s} is located in {o}.",
            "Visitors are often surprised that the {s} is located in {o}.",
        ),
    ),
    (
        "OPENED_IN",
        tuple(str(y) for y in range(1703, 1999, 11)),
        (
            "Archival papers confirm that the {s} was first opened in {o}.",
            "Long before anyone remembers, the {s} was opened in {o}.",
        ),
    ),
    (
        "RUN_BY",
        ("Greta Lindqvist", "Tomasz Nowak", "Amara Okafor", "Hiro Sato", "Elena Marsh", "Pavel Dvorak", "Ines Moreau", "Yusuf Kaya"),
        (
            "For many years now, the {s} has been run by {o}.",
            "Most residents know that the {s} is run by {o} these days.",
        ),
    ),
    (
        "FAMOUS_FOR",
        ("brass clocks", "candle making", "woven tapestries", "pipe organs", "herbal remedies", "paper kites", "glazed tiles", "copperplate prints"),
        (
            "Above everything else, the {s} is famous for {o}.",
            "Travel guides agree that the {s} is rightly famous for {o}.",
        ),
    ),
    (
        "CLOSE_TO",
        ("Willow Quay", "Falcon Square", "Orchard Steps", "Lantern Pier", "Mossy Arch", "Cobalt Fountain"),
        (
            "Anyone walking there will find the {s} close to {o}.",
            "On most maps the {s} appears close to {o}.",
        ),
    ),
)

# Sentences the verbose D2T servable appends. They hold no catalog value and
# no predicate phrase, so the optimizer always drops them (Case 2). All have
# seven words, none of which occurs in a gold template, so TER costs the same
# whichever filler an item gets.
FILLERS = (
    "Summary compiled with care from private notes.",
    "Further details may follow during later editions.",
    "Each fact here came from reliable records.",
    "Readers could consult other references as well.",
    "Some facts were checked twice against archives.",
    "More could certainly be said about this.",
)

def phrase(predicate: str) -> str:
    """Surface form of a predicate as the rule-based models render it."""
    return predicate.lower().replace("_", " ")


def _tripleset(rng: random.Random, index: int, shape: Optional[random.Random] = None) -> list[list[str]]:
    """1, 2 or 3 triples by turns, so every seed gives the same record count.
    `rng` picks subject and objects, `shape` (default `rng`) the predicates."""
    subject = f"{rng.choice(_ADJECTIVES)} {rng.choice(_NOUNS)} {index}"
    chosen = (shape or rng).sample(range(len(_PREDICATES)), 1 + index % 3)
    return [[subject, _PREDICATES[p][0], rng.choice(_PREDICATES[p][1])] for p in chosen]


def _gold(rng: random.Random, tripleset: list[list[str]]) -> str:
    templates = {p: t for p, _, t in _PREDICATES}
    return " ".join(rng.choice(templates[p]).format(s=s, o=o) for s, p, o in tripleset)


def dart_splits(seed: int, n_train: int, n_val: int, n_test: int) -> dict[str, list[dict]]:
    """DART entries (tripleset plus one annotation) with globally unique subjects.

    The shape of each entry (its predicates and gold template) depends only
    on its index, and the seed picks subjects and objects, so every seed
    costs the pipeline about the same.
    """
    rng = random.Random(f"dart:{seed}")
    shape = random.Random("dart-shape")
    sizes = {"train": n_train, "dev": n_val, "test": n_test}
    splits: dict[str, list[dict]] = {}
    index = 0
    for name, size in sizes.items():
        entries = []
        for _ in range(size):
            ts = _tripleset(rng, index, shape)
            index += 1
            entries.append({"tripleset": ts, "annotations": [{"source": "synthetic", "text": _gold(shape, ts)}]})
        splits[name] = entries
    return splits


def write_dart_splits(directory: Path, seed: int, n_train: int, n_val: int, n_test: int) -> dict[str, Path]:
    """Write train/dev/test DART JSON files; returns their paths by split."""
    paths = {}
    for name, entries in dart_splits(seed, n_train, n_val, n_test).items():
        path = Path(directory) / f"{name}.json"
        path.write_text(json.dumps(entries, ensure_ascii=False, indent=1), encoding="utf-8")
        paths[name] = path
    return paths


def linear(tripleset: list[list[str]]) -> str:
    """The program's linear string form of a tripleset."""
    return " | ".join(" : ".join(t) for t in tripleset)


_BATCH_SIZES = (1, 8, 1, 8, 1, 32, 1, 8, 1, 8)


def rpc_mix(seed: int, n_requests: int) -> list[tuple]:
    """One pass of gateway traffic for a D2T server, as a list of
    ("generate", [sources]), ("train", [(source, target)]), ("save", tag) and
    ("load", tag). Generate batches hold 1, 8 or 32 inputs (half, two
    fifths and a tenth of them, in a fixed order); a train request of 4 to
    16 pairs follows every 8th request and a save/load pair every 32nd. Every
    load names a tag saved earlier in the pass or the tag "base" saved at
    set-up. The seed picks the sources, pairs and loaded tags.
    """
    rng = random.Random(f"rpc:{seed}")
    pool = dart_splits(seed, 256, 0, 0)["train"]
    sources = [linear(e["tripleset"]) for e in pool]
    targets = [e["annotations"][0]["text"] for e in pool]
    mix: list[tuple] = []
    saved = ["base"]
    while len(mix) < n_requests:
        k = len(mix)
        if k % 32 == 31:
            tag = f"ckpt-{k}"
            mix.append(("save", tag))
            saved.append(tag)
            mix.append(("load", rng.choice(saved)))
        elif k % 8 == 7:
            picks = rng.sample(range(len(pool)), 4 + k // 8 % 13)
            mix.append(("train", [(sources[i], targets[i]) for i in picks]))
        else:
            mix.append(("generate", rng.sample(sources, _BATCH_SIZES[k % len(_BATCH_SIZES)])))
    return mix[:n_requests]
