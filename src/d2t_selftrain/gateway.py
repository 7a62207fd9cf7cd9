"""Uniform interface to data-to-text and text-to-data models.

A ModelHandle binds a model direction to a servable: an object with
generate/train/save/load, plus close. RuleServable runs a deterministic
rule-based baseline in process, which makes the whole pipeline runnable on a
desk; RemoteServable forwards each call to an external trainable model
server speaking newline-delimited JSON over TCP and passes the reply fields
on as they came. The batch calls own the servable contract, whatever the
servable: generate_batch refuses an answer that is not a list of one string
per input, and train_batch a loss that is neither None nor a finite int or
float. A servable that breaks it raises GatewayError, as a transport fault
does, and so does any other exception an in-process servable raises, so a
run ends the same way whether its model is served or not.

Wire protocol, one JSON object per line, UTF-8:
  request  {"id": n, "cmd": "generate"|"train"|"save"|"load", ...}
  response {"id": n, "ok": true|false, ...}
ids are strictly increasing per connection with one request in flight at a
time. Both ends write a message with write_message, one line of JSON with no
NaN or Infinity, and read one with read_message: a line of at most
MAX_LINE_BYTES, ending in a newline, holding a JSON object with an integer
id, and refused if it holds a NaN or Infinity token. Payload fields:
inputs/max_len/min_len -> outputs (generate), pairs -> loss (train), tag
(save/load), error (any failure). Every generate request carries the fixed
decode limits MAX_LEN (256) and MIN_LEN (4), the values the run report
records.
"""

from __future__ import annotations

import enum
import json
import math
import socket
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import BinaryIO, NamedTuple, Optional, Sequence, Union

from .errors import DelinearizeError, GatewayError
from .linearize import delinearize, render_records
from .records import _TOKEN, Record, RecordKind, RecordSet, find_bounded, fold, has_lone_surrogate


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
        if best.dropped == 0:
            break  # a later parse can only tie, and ties go to the earlier
    return None if best is None else best.record_set


class RuleBasedD2T:
    """Deterministic template renderer standing in for a D2T model.

    Each record becomes one sentence: "<subject> <predicate phrase> <object>."
    for triples, "<name value> <key phrase> <value>." for MR pairs (the
    subject pair, keyed `records.SUBJECT_KEY`, supplies the subject, if any,
    and is rendered on its own, "<name value>.", only when no other pair is).
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
            name = next((m.value for m in rs.records if m.is_subject), None)
            lead = "" if name is None else f"{name} "
            sentences = [
                f"{lead}{_phrase(m.key)} {m.value}." for m in rs.records if not m.is_subject
            ] or [f"{name}."]
        return " ".join(sentences)


class _CatalogEntry(NamedTuple):
    record: Record
    values: tuple[str, ...]  # case-folded evidence values
    evidence: Optional[str]  # case-folded predicate/key phrase; None = values suffice


class RuleBasedT2D:
    """Deterministic record extractor standing in for a T2D model.

    Holds a catalog of known records. A record is recovered from a text when
    all of its values occur word-bounded, as `records.find_bounded` finds
    values for the selection too (values matched longest-first with span
    consumption, so "New York" shadows "York"), and its predicate/key phrase
    also occurs; the MR name pair needs only its value. Recovered
    records are emitted in text order as a linearized string, or "" when
    nothing is recoverable.

    The constructor indexes the catalog once: its distinct case-folded values
    in matching order, each value's rarest alphanumeric run (the one that
    occurs least often across the values, the earliest on ties; a value
    without one is always a candidate), and the entries by their first value.
    A word-bounded occurrence of a value puts every one of its runs in the
    text as a whole alphanumeric token, so a call searches only the values
    keyed by the text's tokens and checks only the entries whose first value
    it found: one call costs O(text + candidates), and a run that many values
    share ("amber" in "amber abbey 7") does not make them all candidates.
    The catalog holds one string object per distinct folded value, and one
    evidence phrase per label, however many records repeat them.
    """

    def __init__(self, record_sets: Sequence[RecordSet]):
        if not record_sets:
            raise ValueError("catalog needs at least one record set")
        kinds = {rs.kind for rs in record_sets}
        if len(kinds) != 1:
            raise ValueError("catalog record sets must share one variant")
        kind = kinds.pop()
        entries: dict[tuple, _CatalogEntry] = {}
        # first value -> indices of the entries listing it first; an entry can
        # only be recovered when its first value is found
        by_first: dict[str, list[int]] = {}
        # each distinct folded value once: every entry holding it holds its
        # first copy, and the keys are the catalog's values
        shared: dict[str, str] = {}
        # label -> its fold and its evidence phrase, both derived once
        labels: dict[str, tuple[str, str]] = {}
        mr_set = kind is RecordKind.MR_SET
        for rs in record_sets:
            for r in rs.records:
                label = r.label
                forms = labels.get(label)
                if forms is None:
                    forms = labels[label] = (label.casefold(), _phrase(label).casefold())
                values = tuple([shared.setdefault(v, v) for v in map(str.casefold, r.values)])
                # one variant, so the folded label and values identify a record
                key = (forms[0], values)
                if key in entries:
                    continue
                # an MR set's subject pair: its value alone recovers it
                evidence = None if mr_set and r.is_subject else forms[1]
                by_first.setdefault(values[0], []).append(len(entries))
                entries[key] = _CatalogEntry(r, values, evidence)
        self._entries = tuple(entries.values())
        self._by_first = by_first
        # matching order: longest first, ties in value order (the sort is stable)
        ordered = sorted(shared)
        ordered.sort(key=len, reverse=True)
        self._values = tuple(ordered)
        runs = [_TOKEN.findall(v) for v in ordered]
        count = Counter(chain.from_iterable(runs)).__getitem__
        by_token: dict[str, list[int]] = {}  # rarest alnum run -> value ranks
        always: list[int] = []  # ranks of values without an alnum character
        for rank, rs in enumerate(runs):
            if rs:
                by_token.setdefault(min(rs, key=count), []).append(rank)
            else:
                always.append(rank)
        self._by_token, self._always = by_token, always

    @classmethod
    def from_examples(cls, examples) -> "RuleBasedT2D":
        return cls([ex.source for ex in examples])

    def generate(self, text: str) -> str:
        norm = fold(text)
        if not norm:
            return ""
        ranks = set(self._always)
        for tok in set(_TOKEN.findall(norm)):
            ranks.update(self._by_token.get(tok, ()))
        positions: dict[str, int] = {}
        consumed: list[tuple[int, int]] = []
        for rank in sorted(ranks):
            v = self._values[rank]
            pos = find_bounded(norm, v, consumed)
            if pos is not None:
                positions[v] = pos
                consumed.append((pos, pos + len(v)))
        evidence: dict[str, bool] = {}
        chosen: list[tuple[int, int, Record]] = []
        for idx in (i for v in positions for i in self._by_first.get(v, ())):
            e = self._entries[idx]
            if not all(v in positions for v in e.values):
                continue
            if e.evidence is not None:
                if e.evidence not in evidence:
                    evidence[e.evidence] = find_bounded(norm, e.evidence) is not None
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

# Longest line either end of the wire protocol reads, newline included; a
# longer one is refused and its connection dropped, so a peer that never
# sends a newline cannot make the reader buffer without end. Each batch goes
# out as one line, so the cap must hold a whole split: a train request costs
# about 230 bytes per pair on the synthetic DART data, about 14 MB for every
# pair of DART's 62,659-example train split, and the cap leaves room for
# longer real texts.
MAX_LINE_BYTES = 64 * 2**20


def write_message(stream: BinaryIO, msg: dict) -> None:
    """Write one wire message to a binary stream, for either end: UTF-8 JSON
    on one line, then flush. A message JSON cannot carry raises before a byte
    is written: ValueError for NaN, an infinity or a lone surrogate, TypeError
    for a value JSON has no form for."""
    stream.write(_ENCODER.encode(msg).encode("utf-8") + b"\n")
    stream.flush()


def _refuse_constant(token: str):
    raise ValueError(f"{token} is not JSON")


# Built once: json.dumps/json.loads build a new coder per call given options
_ENCODER = json.JSONEncoder(ensure_ascii=False, allow_nan=False)
_DECODER = json.JSONDecoder(parse_constant=_refuse_constant)


def read_message(stream: BinaryIO) -> Optional[dict]:
    """One wire message from a binary stream, for either end: None at a clean
    end of stream, else a JSON object with an integer id. GatewayError for a
    line over MAX_LINE_BYTES, one cut off at end of stream before its newline,
    or one that is not UTF-8 JSON holding such an object (NaN, Infinity and
    -Infinity are not JSON). Each end reacts to the error and checks the id's
    order itself."""
    line = stream.readline(MAX_LINE_BYTES + 1)
    if not line:
        return None
    if len(line) > MAX_LINE_BYTES:
        raise GatewayError(f"line longer than {MAX_LINE_BYTES} bytes")
    if not line.endswith(b"\n"):
        raise GatewayError(f"line cut off at end of stream: {line[:200]!r}")
    try:
        msg = _DECODER.decode(line.decode("utf-8"))
    # ValueError covers bad UTF-8 and bad JSON; nesting too deep recurses
    except (ValueError, RecursionError) as exc:
        raise GatewayError(f"malformed line: {line[:200]!r}") from exc
    if not isinstance(msg, dict):
        raise GatewayError(f"line holds no JSON object: {line[:200]!r}")
    # type, not isinstance: JSON true is a bool, and True == 1
    if type(msg.get("id")) is not int:
        raise GatewayError(f"ids must be integers, got {msg.get('id')!r}")
    return msg


def _parse_endpoint(endpoint: str) -> tuple[str, int]:
    host, sep, port = endpoint.rpartition(":")
    if not sep or not host or not port.isdigit() or not 0 < int(port) < 65536:
        raise ValueError(f"endpoint must look like host:port, got {endpoint!r}")
    return host, int(port)


class RemoteServable:
    """Servable that forwards every call to the model server at `endpoint`.

    The endpoint is validated at construction and the connection opened on
    the first request. One NDJSON connection: ids strictly increasing from 1,
    one request in flight. A request JSON cannot carry (a lone surrogate)
    or a transport or framing failure (socket error or timeout, end of
    stream, a reply cut off before its newline, malformed or over-long
    line, wrong id) closes the connection and the next call opens a new
    one; a server's refusal (ok false) keeps it. Nothing is retried.
    The reply fields are passed on as they came: the batch calls check them.
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
        # two buffered files: a "rwb" pair has no readline of its own
        self._reader = self._sock.makefile("rb")
        self._writer = self._sock.makefile("wb")
        self._next_id = 1

    def _request(self, cmd: str, **payload) -> dict:
        if self._sock is None:
            self._connect()
        rid = self._next_id
        self._next_id += 1
        try:
            resp = self._exchange(rid, cmd, payload)
        except GatewayError:
            # the stream may still carry a late or partial reply: drop it, so
            # the next call reconnects with ids from 1
            self.close()
            raise
        if not resp.get("ok"):
            raise GatewayError(f"server refused {cmd!r}: {resp.get('error', 'no error given')}")
        return resp

    def _exchange(self, rid: int, cmd: str, payload: dict) -> dict:
        """Send one request and read its reply; GatewayError for a request
        JSON cannot carry and on any transport or framing failure."""
        try:
            write_message(self._writer, {"id": rid, "cmd": cmd, **payload})
            resp = read_message(self._reader)
        except OSError as exc:
            raise GatewayError(f"connection lost during {cmd!r}: {exc}") from exc
        except (ValueError, TypeError) as exc:
            raise GatewayError(f"cannot send {cmd!r}: {exc}") from exc
        except GatewayError as exc:
            raise GatewayError(f"bad reply to {cmd!r}: {exc}") from exc
        if resp is None:
            raise GatewayError(f"server closed the connection during {cmd!r}")
        if resp["id"] != rid:
            raise GatewayError(f"response id mismatch for {cmd!r}: sent {rid}, got {resp['id']}")
        return resp

    def generate(self, inputs: Sequence[str], max_len: int, min_len: int) -> list[str]:
        return self._request("generate", inputs=list(inputs), max_len=max_len, min_len=min_len).get("outputs")

    def train(self, pairs: Sequence[tuple[str, str]]) -> Optional[float]:
        return self._request("train", pairs=[[s, t] for s, t in pairs]).get("loss")

    def save(self, tag: str) -> None:
        self._request("save", tag=tag)

    def load(self, tag: str) -> None:
        self._request("load", tag=tag)

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
    """Binding of a model direction to a servable.

    A handle that owns a server connection is not safe to share across
    concurrent callers; distinct handles may operate in parallel.
    """

    direction: Direction
    servable: Servable

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


def _where(h: ModelHandle) -> str:
    return f"{h.direction.value} at {h.endpoint or 'in process'}"


def _call(h: ModelHandle, cmd: str, *args, **kwargs):
    """The servable's answer to `cmd`; any exception it raises that is not a
    GatewayError becomes one naming the command and where it ran."""
    try:
        return getattr(h.servable, cmd)(*args, **kwargs)
    except GatewayError:
        raise
    except Exception as exc:
        raise GatewayError(f"{cmd} raised {type(exc).__name__} ({_where(h)}): {exc}") from exc


def generate_batch(h: ModelHandle, inputs: Sequence[str]) -> list[str]:
    """One output per input, order preserved, whatever the servable;
    GatewayError for an answer that is not a list of that many strings, or
    one holding a lone surrogate (a served model's reply can carry one as a
    JSON escape; UTF-8, and so no digest, report or request, can)."""
    if not inputs:
        raise ValueError("generate_batch needs a non-empty input batch")
    outputs = _call(h, "generate", inputs, max_len=MAX_LEN, min_len=MIN_LEN)
    if not isinstance(outputs, list) or not all(isinstance(o, str) for o in outputs):
        raise GatewayError(f"generate answer is not a list of strings ({_where(h)}): {outputs!r:.200}")
    if len(outputs) != len(inputs):
        raise GatewayError(f"generate batch of {len(inputs)} got {len(outputs)} outputs ({_where(h)})")
    if has_lone_surrogate("".join(outputs)):
        raise GatewayError(f"generate answer holds a lone surrogate ({_where(h)}): {outputs!r:.200}")
    return outputs


def train_batch(h: ModelHandle, pairs: Sequence[tuple[str, str]]) -> TrainAck:
    """Submit training pairs; the ack carries the loss the servable reports,
    as a float. GatewayError for a loss that is neither None nor a finite
    int or float."""
    if not pairs:
        raise ValueError("train_batch needs a non-empty pair batch")
    loss = _call(h, "train", pairs)
    if loss is None:
        return TrainAck()
    # type, not isinstance: JSON true is a bool, and True == 1
    if type(loss) not in (int, float):
        raise GatewayError(f"train answered a non-numeric loss: {loss!r} ({_where(h)})")
    try:
        finite = math.isfinite(loss)
    except OverflowError:  # an int past the float range
        finite = False
    if not finite:
        raise GatewayError(f"train answered a non-finite loss: {loss!r:.40} ({_where(h)})")
    return TrainAck(loss=float(loss))


def checkpoint(h: ModelHandle, action: CheckpointAction, tag: str) -> None:
    """Save or load a named checkpoint; GatewayError if the servable fails."""
    if not tag or not tag.strip():
        raise ValueError("checkpoint tag must be non-empty")
    _call(h, action.value, tag)
