"""Uniform interface to data-to-text and text-to-data models.

A ModelHandle binds a model direction to a servable: an object with
generate/train/save/load, plus close. RuleServable runs a deterministic
rule-based baseline in process, which makes the whole pipeline runnable on a
desk; RemoteServable forwards each call to an external trainable model
server speaking newline-delimited JSON over TCP. generate_batch, train_batch
and checkpoint make the same checks on either servable.

Wire protocol, one JSON object per line, UTF-8:
  request  {"id": n, "cmd": "generate"|"train"|"save"|"load"|"shutdown", ...}
  response {"id": n, "ok": true|false, ...}
ids are strictly increasing per connection with one request in flight at a
time. Payload fields: inputs/max_len/min_len -> outputs (generate),
pairs -> loss (train), tag (save/load), error (any failure). Every generate
request carries the fixed decode limits MAX_LEN (256) and MIN_LEN (4), the
values the run report records.
"""

from __future__ import annotations

import enum
import json
import re
import socket
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Union

from .errors import DelinearizeError, GatewayError
from .linearize import delinearize, render_records
from .records import (
    Mr,
    RecordKind,
    RecordSet,
    Triple,
    normalize_text,
    record_key,
)


class Direction(enum.Enum):
    D2T = "d2t"
    T2D = "t2d"


class Backend(enum.Enum):
    RULE_BASED = "rule-based"
    EXTERNAL = "external"


class CheckpointAction(enum.Enum):
    SAVE = "save"
    LOAD = "load"


# Decode limits sent with every generate request, to every servable.
MAX_LEN = 256
MIN_LEN = 4


@dataclass(frozen=True)
class TrainAck:
    loss: Optional[float] = None


def _phrase(field_name: str) -> str:
    """Surface form of a predicate or MR key: lowercased, underscores as spaces."""
    return field_name.lower().replace("_", " ")


def infer_record_set(text: str) -> Optional[RecordSet]:
    """Parse a linearized string whose variant is unknown, preferring the
    interpretation that drops fewer segments (tripleset on ties)."""
    best = None
    for kind in (RecordKind.TRIPLESET, RecordKind.MR_SET):
        try:
            res = delinearize(text, kind)
        except DelinearizeError:
            continue
        if best is None or res.dropped < best.dropped:
            best = res
    return None if best is None else best.record_set


class RuleBasedD2T:
    """Deterministic template renderer standing in for a D2T model.

    Each record becomes one sentence: "<subject> <predicate phrase> <object>."
    for triples, "<name value> <key phrase> <value>." for MR pairs (the name
    pair supplies the subject and is not rendered on its own).
    """

    def generate(self, source_text: str) -> str:
        rs = infer_record_set(source_text)
        if rs is None:
            return ""
        if rs.kind is RecordKind.TRIPLESET:
            sentences = [
                f"{t.subject} {_phrase(t.predicate)} {t.object}." for t in rs.records
            ]
        else:
            name = next(
                (m.value for m in rs.records if m.key.casefold() == "name"), None
            )
            others = [m for m in rs.records if m.key.casefold() != "name"]
            if name is None:
                sentences = [f"{_phrase(m.key)} {m.value}." for m in rs.records]
            elif not others:
                sentences = [f"{name}."]
            else:
                sentences = [f"{name} {_phrase(m.key)} {m.value}." for m in others]
        return " ".join(sentences)


class _CatalogEntry(NamedTuple):
    record: Union[Triple, Mr]
    values: tuple[str, ...]  # case-folded evidence values
    evidence: Optional[str]  # case-folded predicate/key phrase; None = values suffice


# Maximal runs of str.isalnum characters: \w without the underscore.
_TOKEN = re.compile(r"[^\W_]+")


def _find_bounded(text: str, phrase: str, consumed: Sequence[tuple[int, int]]) -> Optional[int]:
    """Leftmost word-bounded occurrence of `phrase` avoiding consumed spans."""
    start = 0
    while True:
        i = text.find(phrase, start)
        if i == -1:
            return None
        end = i + len(phrase)
        bounded = (i == 0 or not text[i - 1].isalnum()) and (
            end == len(text) or not text[end].isalnum()
        )
        if bounded and all(end <= s or i >= e for s, e in consumed):
            return i
        start = i + 1


class RuleBasedT2D:
    """Deterministic record extractor standing in for a T2D model.

    Holds a catalog of known records. A record is recovered from a text when
    all of its values occur word-bounded (values matched longest-first with
    span consumption, so "New York" shadows "York") and its predicate/key
    phrase also occurs; the MR name pair needs only its value. Recovered
    records are emitted in text order as a linearized string, or "" when
    nothing is recoverable.

    The constructor indexes the catalog once: its distinct case-folded values
    in matching order, each value's first alphanumeric run (a value without
    one is always a candidate), and the entries by their first value. A
    word-bounded occurrence of a value puts that run in the text as a whole
    alphanumeric token, so a call searches only the values keyed by the
    text's tokens and checks only the entries whose first value it found:
    one call costs O(text + candidates), whatever the catalog's size.
    """

    def __init__(self, record_sets: Sequence[RecordSet]):
        if not record_sets:
            raise ValueError("catalog needs at least one record set")
        kinds = {rs.kind for rs in record_sets}
        if len(kinds) != 1:
            raise ValueError("catalog record sets must share one variant")
        self.kind = kinds.pop()
        entries: dict[tuple, _CatalogEntry] = {}
        # first value -> indices of the entries listing it first; an entry can
        # only be recovered when its first value is found
        by_first: dict[str, list[int]] = {}
        for rs in record_sets:
            for r in rs.records:
                key = record_key(r)
                if key in entries:
                    continue
                if isinstance(r, Triple):
                    values = (r.subject.casefold(), r.object.casefold())
                    evidence = _phrase(r.predicate).casefold()
                elif r.key.casefold() == "name":
                    values, evidence = (r.value.casefold(),), None
                else:
                    values, evidence = (r.value.casefold(),), _phrase(r.key).casefold()
                by_first.setdefault(values[0], []).append(len(entries))
                entries[key] = _CatalogEntry(r, values, evidence)
        self._entries = tuple(entries.values())
        self._by_first = by_first
        # matching order: longest first, ties in value order (the sort is stable)
        ordered = sorted({v for e in self._entries for v in e.values})
        ordered.sort(key=len, reverse=True)
        self._values = tuple(ordered)
        by_token: dict[str, list[int]] = {}  # first alnum run -> value ranks
        always: list[int] = []  # ranks of values without an alnum character
        for rank, v in enumerate(ordered):
            m = _TOKEN.search(v)
            if m is None:
                always.append(rank)
            else:
                by_token.setdefault(m.group(), []).append(rank)
        self._by_token, self._always = by_token, always

    @classmethod
    def from_examples(cls, examples) -> "RuleBasedT2D":
        return cls([ex.source for ex in examples])

    def generate(self, text: str) -> str:
        norm = normalize_text(text).casefold()
        if not norm:
            return ""
        ranks = set(self._always)
        for tok in set(_TOKEN.findall(norm)):
            ranks.update(self._by_token.get(tok, ()))
        positions: dict[str, int] = {}
        consumed: list[tuple[int, int]] = []
        for rank in sorted(ranks):
            v = self._values[rank]
            pos = _find_bounded(norm, v, consumed)
            if pos is not None:
                positions[v] = pos
                consumed.append((pos, pos + len(v)))
        evidence: dict[str, bool] = {}
        chosen: list[tuple[int, int, Union[Triple, Mr]]] = []
        for idx in (i for v in positions for i in self._by_first.get(v, ())):
            e = self._entries[idx]
            if not all(v in positions for v in e.values):
                continue
            if e.evidence is not None:
                if e.evidence not in evidence:
                    evidence[e.evidence] = _find_bounded(norm, e.evidence, ()) is not None
                if not evidence[e.evidence]:
                    continue
            chosen.append((min(positions[v] for v in e.values), idx, e.record))
        if not chosen:
            return ""
        chosen.sort(key=lambda t: (t[0], t[1]))
        return render_records([r for _, _, r in chosen])


RuleModel = Union[RuleBasedD2T, RuleBasedT2D]


class RuleServable:
    """In-process servable around a rule-based model.

    Generation delegates to the model and ignores the decode limits; train
    answers a pseudo loss equal to the pair count, so callers can assert
    round-trips; save/load track checkpoint tags.
    """

    backend = Backend.RULE_BASED
    endpoint: Optional[str] = None

    def __init__(self, model: RuleModel):
        self.model = model
        self.tags: set[str] = set()

    def generate(self, inputs: Sequence[str], max_len: int, min_len: int) -> list[str]:
        return [self.model.generate(t) for t in inputs]

    def train(self, pairs: Sequence[tuple[str, str]]) -> Optional[float]:
        return float(len(pairs))

    def save(self, tag: str) -> None:
        self.tags.add(tag)

    def load(self, tag: str) -> None:
        if tag not in self.tags:
            raise GatewayError(f"unknown checkpoint tag {tag!r}")

    def close(self) -> None:
        """Nothing to release: the model lives in this process."""


_REQUEST_TIMEOUT = 600.0


def _parse_endpoint(endpoint: str) -> tuple[str, int]:
    host, sep, port = endpoint.rpartition(":")
    if not sep or not host or not port.isdigit() or not 0 < int(port) < 65536:
        raise ValueError(f"endpoint must look like host:port, got {endpoint!r}")
    return host, int(port)


class RemoteServable:
    """Servable that forwards every call to the model server at `endpoint`.

    The endpoint is validated at construction and the connection opened on
    the first request. One NDJSON connection: ids strictly increasing from 1,
    one request in flight.
    """

    backend = Backend.EXTERNAL

    def __init__(self, endpoint: str):
        self._address = _parse_endpoint(endpoint)
        self.endpoint = endpoint
        self._sock: Optional[socket.socket] = None

    def _connect(self) -> None:
        try:
            self._sock = socket.create_connection(self._address, timeout=_REQUEST_TIMEOUT)
        except OSError as exc:
            raise GatewayError(f"cannot connect to model server at {self.endpoint}: {exc}") from exc
        self._reader = self._sock.makefile("r", encoding="utf-8", newline="\n")
        self._writer = self._sock.makefile("w", encoding="utf-8", newline="\n")
        self._next_id = 1

    def _request(self, cmd: str, **payload) -> dict:
        if self._sock is None:
            self._connect()
        rid = self._next_id
        self._next_id += 1
        try:
            self._writer.write(json.dumps({"id": rid, "cmd": cmd, **payload}, ensure_ascii=False) + "\n")
            self._writer.flush()
            line = self._reader.readline()
        except OSError as exc:
            raise GatewayError(f"connection lost during {cmd!r}: {exc}") from exc
        if not line:
            raise GatewayError(f"server closed the connection during {cmd!r}")
        try:
            resp = json.loads(line)
        except json.JSONDecodeError as exc:
            raise GatewayError(f"malformed response line for {cmd!r}: {line!r}") from exc
        if not isinstance(resp, dict) or resp.get("id") != rid:
            raise GatewayError(
                f"response id mismatch for {cmd!r}: sent {rid}, got {resp.get('id') if isinstance(resp, dict) else resp!r}"
            )
        if not resp.get("ok"):
            raise GatewayError(f"server refused {cmd!r}: {resp.get('error', 'no error given')}")
        return resp

    def generate(self, inputs: Sequence[str], max_len: int, min_len: int) -> list[str]:
        resp = self._request("generate", inputs=list(inputs), max_len=max_len, min_len=min_len)
        outputs = resp.get("outputs")
        if not isinstance(outputs, list) or not all(isinstance(o, str) for o in outputs):
            raise GatewayError(f"generate response lacks a string 'outputs' list: {resp!r}")
        return outputs

    def train(self, pairs: Sequence[tuple[str, str]]) -> Optional[float]:
        loss = self._request("train", pairs=[[s, t] for s, t in pairs]).get("loss")
        if loss is not None and not isinstance(loss, (int, float)):
            raise GatewayError(f"train response carries a non-numeric loss: {loss!r}")
        return None if loss is None else float(loss)

    def save(self, tag: str) -> None:
        self._request("save", tag=tag)

    def load(self, tag: str) -> None:
        self._request("load", tag=tag)

    def shutdown(self) -> None:
        """Ask the server to stop, if connected, then close the connection."""
        if self._sock is not None:
            try:
                self._request("shutdown")
            finally:
                self.close()

    def close(self) -> None:
        if self._sock is None:
            return
        for stream in (self._reader, self._writer, self._sock):
            try:
                stream.close()
            except OSError:
                pass
        self._sock = None


Servable = Union[RuleServable, RemoteServable]


@dataclass
class ModelHandle:
    """Binding of a model direction to a servable, plus checkpoint state.

    A handle that owns a server connection is not safe to share across
    concurrent callers; distinct handles may operate in parallel.
    """

    direction: Direction
    servable: Servable
    checkpoint_tag: Optional[str] = None

    @property
    def backend(self) -> Backend:
        return self.servable.backend

    @property
    def endpoint(self) -> Optional[str]:
        return self.servable.endpoint

    def close(self) -> None:
        self.servable.close()


def rule_based_handle(direction: Direction, model: Optional[RuleModel] = None) -> ModelHandle:
    if model is None:
        if direction is Direction.T2D:
            raise ValueError("rule-based T2D needs a record catalog; build a RuleBasedT2D first")
        model = RuleBasedD2T()
    want = RuleBasedD2T if direction is Direction.D2T else RuleBasedT2D
    if not isinstance(model, want):
        raise ValueError(f"{direction.value} handle holds a {type(model).__name__}")
    return ModelHandle(direction, RuleServable(model))


def external_handle(direction: Direction, endpoint: str) -> ModelHandle:
    return ModelHandle(direction, RemoteServable(endpoint))


def generate_batch(h: ModelHandle, inputs: Sequence[str]) -> list[str]:
    """One output per input, order preserved, whatever the servable."""
    if not inputs:
        raise ValueError("generate_batch needs a non-empty input batch")
    outputs = h.servable.generate(inputs, max_len=MAX_LEN, min_len=MIN_LEN)
    if len(outputs) != len(inputs):
        raise GatewayError(
            f"generate batch of {len(inputs)} got {len(outputs)} outputs "
            f"({h.direction.value} at {h.endpoint or 'in process'})"
        )
    return outputs


def train_batch(h: ModelHandle, pairs: Sequence[tuple[str, str]]) -> TrainAck:
    """Submit training pairs; the ack carries the loss the servable reports."""
    if not pairs:
        raise ValueError("train_batch needs a non-empty pair batch")
    return TrainAck(loss=h.servable.train(pairs))


def checkpoint(h: ModelHandle, action: CheckpointAction, tag: str) -> None:
    """Save or load a named checkpoint; success updates h.checkpoint_tag."""
    if not tag or not tag.strip():
        raise ValueError("checkpoint tag must be non-empty")
    getattr(h.servable, action.value)(tag)
    h.checkpoint_tag = tag


def shutdown_server(h: ModelHandle) -> None:
    """Ask an external server to stop; no-op for in-process servables."""
    if isinstance(h.servable, RemoteServable):
        h.servable.shutdown()
