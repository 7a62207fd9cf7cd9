"""Model gateway: rule-based baselines, wire protocol client, and server."""

import json
import random
import socket
import sys

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_record_set
from d2t_selftrain import (
    Backend,
    CheckpointAction,
    Direction,
    GatewayError,
    ModelHandle,
    ModelServer,
    Mr,
    RecordKind,
    RecordSet,
    RuleBasedD2T,
    RuleBasedT2D,
    RuleServable,
    Triple,
    checkpoint,
    delinearize,
    external_handle,
    generate_batch,
    linearize,
    normalize_text,
    render_records,
    rule_based_handle,
    train_batch,
)
from d2t_selftrain import gateway
from d2t_selftrain.gateway import _TOKEN, _find_bounded, infer_record_set, shutdown_server


# ------------------------------------------------------------ rule models


def test_rule_d2t_template():
    d2t = RuleBasedD2T()
    assert d2t.generate("A : LIKES : B") == "A likes B."
    assert d2t.generate("A : LOAN_CLUB : B") == "A loan club B."


def test_rule_d2t_mr_uses_name_as_subject():
    d2t = RuleBasedD2T()
    out = d2t.generate("name : The Inn | food : English | area : riverside")
    assert out == "The Inn food English. The Inn area riverside."
    assert d2t.generate("name : The Inn") == "The Inn."


def test_rule_d2t_unparseable_input_yields_empty():
    assert RuleBasedD2T().generate("no separators here") == ""


def test_rule_t2d_round_trips_own_d2t_output():
    rs = RecordSet((Triple("A", "LIKES", "B"),), RecordKind.TRIPLESET)
    d2t = RuleBasedD2T()
    t2d = RuleBasedT2D([rs])
    assert t2d.generate(d2t.generate(linearize(rs))) == "A : LIKES : B"


def test_rule_t2d_requires_uniform_catalog():
    with pytest.raises(ValueError):
        RuleBasedT2D([])
    trip = RecordSet((Triple("a", "p", "b"),), RecordKind.TRIPLESET)
    mr = RecordSet.from_dict({"kind": "mrset", "records": [["name", "x"]]})
    with pytest.raises(ValueError):
        RuleBasedT2D([trip, mr])


def test_rule_t2d_matches_longest_value_first():
    # "New York" must not be shadowed by a catalog value "York"
    a = RecordSet((Triple("Ann", "LIVES_IN", "New York"),), RecordKind.TRIPLESET)
    b = RecordSet((Triple("Bob", "LIVES_IN", "York"),), RecordKind.TRIPLESET)
    t2d = RuleBasedT2D([a, b])
    assert t2d.generate("Ann lives in New York.") == "Ann : LIVES_IN : New York"


def test_rule_t2d_word_boundary_blocks_substring_hits():
    a = RecordSet((Triple("Inn 7", "IS_IN", "Kent"),), RecordKind.TRIPLESET)
    t2d = RuleBasedT2D([a])
    # "Inn 7" must not match inside "Inn 71"
    assert t2d.generate("Inn 71 is in Kent.") == ""
    assert t2d.generate("Inn 7 is in Kent.") == "Inn 7 : IS_IN : Kent"


def test_rule_t2d_requires_predicate_evidence():
    a = RecordSet((Triple("A", "FOUNDED_IN", "1901"),), RecordKind.TRIPLESET)
    t2d = RuleBasedT2D([a])
    assert t2d.generate("A mentions 1901 in passing.") == ""
    assert t2d.generate("A founded in 1901.") == "A : FOUNDED_IN : 1901"


def test_rule_t2d_emits_text_order():
    a = RecordSet(
        (Triple("A", "NEAR", "B"), Triple("C", "LED_BY", "D")), RecordKind.TRIPLESET
    )
    t2d = RuleBasedT2D([a])
    out = t2d.generate("C led by D. A near B.")
    assert out == "C : LED_BY : D | A : NEAR : B"


def test_rule_t2d_empty_text():
    a = RecordSet((Triple("a", "p", "b"),), RecordKind.TRIPLESET)
    assert RuleBasedT2D([a]).generate("   ") == ""


def test_inverse_property_randomized():
    rng = random.Random(23)
    sets = [random_record_set(rng, RecordKind.TRIPLESET) for _ in range(30)]
    # unique subjects/objects keep the catalog collision-free
    sets = [
        RecordSet(
            tuple(
                Triple(f"{t.subject} {i}x", t.predicate, f"{t.object} {i}y")
                for t in rs.records
            ),
            rs.kind,
        )
        for i, rs in enumerate(sets)
    ]
    d2t = RuleBasedD2T()
    t2d = RuleBasedT2D(sets)
    for rs in sets:
        text = d2t.generate(linearize(rs))
        parsed = delinearize(t2d.generate(text), rs.kind).record_set
        assert {r.fields for r in parsed.records} == {r.fields for r in rs.records}


def test_infer_record_set_prefers_cleaner_parse():
    assert infer_record_set("a : b : c").kind is RecordKind.TRIPLESET
    assert infer_record_set("a : b").kind is RecordKind.MR_SET
    assert infer_record_set("gibberish") is None


# ------------------------------------------------ token index vs full scan


def _scan_generate(t2d: RuleBasedT2D, text: str) -> str:
    """Reference: the scan of every catalog value and entry that the token
    index replaced."""
    norm = normalize_text(text).casefold()
    if not norm:
        return ""
    positions: dict[str, int] = {}
    consumed: list[tuple[int, int]] = []
    values = {v for e in t2d._entries for v in e.values}
    for v in sorted(values, key=lambda v: (-len(v), v)):
        pos = _find_bounded(norm, v, consumed)
        if pos is not None:
            positions[v] = pos
            consumed.append((pos, pos + len(v)))
    chosen = []
    for idx, e in enumerate(t2d._entries):
        if all(v in positions for v in e.values) and (
            e.evidence is None or _find_bounded(norm, e.evidence, ()) is not None
        ):
            chosen.append((min(positions[v] for v in e.values), idx, e.record))
    if not chosen:
        return ""
    chosen.sort(key=lambda t: (t[0], t[1]))
    return render_records([r for _, _, r in chosen])


# Small pools so values collide, nest ("New York" / "york") and are shared
# by several entries. Case folding changes length for "ß", "ﬁ" and "İ"; "_"
# is not alphanumeric; some atoms have no alphanumeric character at all.
_ATOMS = [
    "new", "york", "New York", "ß", "SS", "straße", "STRASSE", "ﬁne", "fine",
    "İstanbul", "istanbul", "İ", "_", "a_b", "x_", "_y", "-", "...", "'",
    "(c)", "!?", "1901", "café", "e", "7",
]
_PREDICATES = ["NEAR", "LIVES_IN", "led_by", "STRASSE", "İN", "_", "a_b"]
_MR_KEYS = ["name", "NAME", "food", "eat_Type", "near"]
_JOINERS = [" ", "", "-", "_", ". ", ", "]

_values = st.builds(
    lambda atoms, joiner: joiner.join(atoms),
    st.lists(st.sampled_from(_ATOMS), min_size=1, max_size=3),
    st.sampled_from([" ", "", "-"]),
)


@st.composite
def _catalogs(draw):
    kind = draw(st.sampled_from(list(RecordKind)))
    if kind is RecordKind.TRIPLESET:
        record = st.builds(Triple, _values, st.sampled_from(_PREDICATES), _values)
    else:
        record = st.builds(Mr, st.sampled_from(_MR_KEYS), _values)
    sets = draw(st.lists(st.lists(record, min_size=1, max_size=3), min_size=1, max_size=8))
    return [RecordSet(tuple(records), kind) for records in sets]


def _mention(r) -> str:
    if isinstance(r, Triple):
        return f"{r.subject} {r.predicate.replace('_', ' ')} {r.object}"
    return f"{r.key.replace('_', ' ')} {r.value}"


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_rule_t2d_index_matches_full_scan(data):
    catalog = data.draw(_catalogs())
    t2d = RuleBasedT2D(catalog)
    fields = sorted({f for rs in catalog for r in rs.records for f in r.fields})
    mentions = [_mention(r) for rs in catalog for r in rs.records]
    words = mentions + fields + [f.replace("_", " ") for f in fields] + _ATOMS
    piece = st.builds(
        lambda w, case: case(w), st.sampled_from(words), st.sampled_from([str, str.upper, str.lower])
    )
    parts = data.draw(st.lists(st.tuples(piece, st.sampled_from(_JOINERS)), max_size=10))
    text = "".join(w + j for w, j in parts)
    assert t2d.generate(text) == _scan_generate(t2d, text)


def test_rule_t2d_index_matches_full_scan_on_dart_like_catalog():
    # short random phrases repeat across records, so recovered records often
    # tie on their first position and only the catalog order separates them
    rng = random.Random(5)
    sets = [random_record_set(rng, RecordKind.TRIPLESET) for _ in range(60)]
    t2d = RuleBasedT2D(sets)
    d2t = RuleBasedD2T()
    texts = [
        d2t.generate(linearize(a)) + " " + d2t.generate(linearize(b))
        for a, b in zip(sets, sets[1:])
    ]
    assert any(_scan_generate(t2d, t) for t in texts)
    for text in texts:
        assert t2d.generate(text) == _scan_generate(t2d, text)


def test_token_pattern_is_isalnum_runs():
    # the token index is exact only if text tokens are maximal isalnum runs
    chars = map(chr, range(sys.maxunicode + 1))
    assert [c for c in chars if bool(_TOKEN.fullmatch(c)) != c.isalnum()] == []


def test_rule_t2d_cost_independent_of_catalog_size(monkeypatch):
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return _find_bounded(*args)

    monkeypatch.setattr(gateway, "_find_bounded", counting)
    base = [
        RecordSet((Triple(f"Town {i}", "NEAR", f"River {i}"),), RecordKind.TRIPLESET)
        for i in range(10)
    ]
    unrelated = [
        RecordSet((Triple(f"Zq{i}", "OWNED_BY", f"Wx{i}"),), RecordKind.TRIPLESET)
        for i in range(5000)
    ]
    text = "Town 3 near River 3. Town 7 near River 7."
    outputs, counts = [], []
    for catalog in (base, base + unrelated):
        t2d = RuleBasedT2D(catalog)
        calls = 0
        outputs.append(t2d.generate(text))
        counts.append(calls)
    assert outputs == ["Town 3 : NEAR : River 3 | Town 7 : NEAR : River 7"] * 2
    assert counts[0] == counts[1]


# ------------------------------------------------------------ handles


def test_rule_handle_defaults():
    h = rule_based_handle(Direction.D2T)
    assert h.backend is Backend.RULE_BASED
    assert isinstance(h.servable.model, RuleBasedD2T)


def test_rule_t2d_handle_requires_catalog():
    with pytest.raises(ValueError):
        rule_based_handle(Direction.T2D)


def test_handle_direction_model_mismatch():
    rs = RecordSet((Triple("a", "p", "b"),), RecordKind.TRIPLESET)
    with pytest.raises(ValueError):
        rule_based_handle(Direction.D2T, RuleBasedT2D([rs]))


def test_external_handle_validates_endpoint():
    with pytest.raises(ValueError):
        external_handle(Direction.D2T, "no-port")
    with pytest.raises(ValueError):
        external_handle(Direction.D2T, "host:99999")
    h = external_handle(Direction.D2T, "127.0.0.1:8000")
    assert h.backend is Backend.EXTERNAL


def test_generate_batch_rejects_empty():
    with pytest.raises(ValueError):
        generate_batch(rule_based_handle(Direction.D2T), [])


def test_train_and_checkpoint_rule_backend():
    h = rule_based_handle(Direction.D2T)
    ack = train_batch(h, [("s", "t")])
    assert ack.loss == 1.0
    checkpoint(h, CheckpointAction.SAVE, "best")
    checkpoint(h, CheckpointAction.LOAD, "best")
    assert h.checkpoint_tag == "best"
    with pytest.raises(GatewayError):
        checkpoint(h, CheckpointAction.LOAD, "missing")
    with pytest.raises(ValueError):
        checkpoint(h, CheckpointAction.SAVE, "  ")
    with pytest.raises(ValueError):
        train_batch(h, [])


# ------------------------------------------------------------ wire protocol


@pytest.fixture
def echo_server():
    with ModelServer(RuleServable(RuleBasedD2T())) as server:
        yield server


def test_external_generate_passthrough(echo_server):
    h = external_handle(Direction.D2T, echo_server.endpoint)
    try:
        out = generate_batch(h, ["A : LIKES : B", "C : NEAR : D"])
        assert out == ["A likes B.", "C near D."]
    finally:
        h.close()


def test_external_train_echoes_pair_count(echo_server):
    h = external_handle(Direction.D2T, echo_server.endpoint)
    try:
        ack = train_batch(h, [("a", "b"), ("c", "d"), ("e", "f")])
        assert ack.loss == 3.0
    finally:
        h.close()


def test_external_checkpoint_save_load(echo_server):
    h = external_handle(Direction.D2T, echo_server.endpoint)
    try:
        checkpoint(h, CheckpointAction.SAVE, "epoch1-best")
        checkpoint(h, CheckpointAction.LOAD, "epoch1-best")
        assert h.checkpoint_tag == "epoch1-best"
        with pytest.raises(GatewayError):
            checkpoint(h, CheckpointAction.LOAD, "missing")
    finally:
        h.close()


def test_external_connection_refused():
    h = external_handle(Direction.D2T, "127.0.0.1:9")  # discard port, closed
    with pytest.raises(GatewayError):
        generate_batch(h, ["x"])


def test_external_shutdown(echo_server):
    h = external_handle(Direction.D2T, echo_server.endpoint)
    generate_batch(h, ["A : LIKES : B"])
    shutdown_server(h)  # must not raise; server thread stops itself


class _MisbehavingServable(RuleServable):
    """Returns one output too few to exercise the client-side length check."""

    def generate(self, inputs, max_len, min_len):
        return super().generate(inputs, max_len, min_len)[:-1]


def test_external_length_mismatch_detected():
    with ModelServer(_MisbehavingServable(RuleBasedD2T())) as server:
        h = external_handle(Direction.D2T, server.endpoint)
        try:
            with pytest.raises(GatewayError):
                generate_batch(h, ["A : P : B", "C : P : D"])
        finally:
            h.close()


# ------------------------------------------------------------ servable conformance


@pytest.fixture(params=["in-process", "over-tcp"])
def d2t_handle_for(request):
    """Builds a D2T handle on a servable: the servable itself in process, or
    a ModelServer around it reached through external_handle."""
    opened = []

    def make(servable):
        if request.param == "in-process":
            return ModelHandle(Direction.D2T, servable)
        srv = ModelServer(servable).start()
        h = external_handle(Direction.D2T, srv.endpoint)
        opened.append((h, srv))
        return h

    yield make
    for h, srv in opened:
        h.close()
        srv.stop()


def test_servable_conformance(d2t_handle_for):
    h = d2t_handle_for(RuleServable(RuleBasedD2T()))
    outputs = generate_batch(h, ["A : LIKES : B", "C : NEAR : D | C : OWNS : E", "name : Cafe | food : Thai"])
    assert outputs == ["A likes B.", "C near D. C owns E.", "Cafe food Thai."]
    pairs = [("a", "b"), ("c", "d"), ("e", "f")]
    assert train_batch(h, pairs).loss == len(pairs)
    checkpoint(h, CheckpointAction.SAVE, "epoch1")
    checkpoint(h, CheckpointAction.LOAD, "epoch1")
    assert h.checkpoint_tag == "epoch1"
    with pytest.raises(GatewayError) as exc_info:
        checkpoint(h, CheckpointAction.LOAD, "missing")
    # the server forwards the servable's error text unchanged
    assert str(exc_info.value).endswith("unknown checkpoint tag 'missing'")
    assert h.checkpoint_tag == "epoch1"


def test_servable_conformance_length_check(d2t_handle_for):
    h = d2t_handle_for(_MisbehavingServable(RuleBasedD2T()))
    with pytest.raises(GatewayError, match="generate batch of 2 got 1 outputs"):
        generate_batch(h, ["A : P : B", "C : P : D"])


def _raw_roundtrip(endpoint, lines):
    host, port = endpoint.rsplit(":", 1)
    replies = []
    with socket.create_connection((host, int(port)), timeout=10) as sock:
        f = sock.makefile("rw", encoding="utf-8", newline="\n")
        for line in lines:
            f.write(line + "\n")
            f.flush()
            reply = f.readline()
            replies.append(json.loads(reply) if reply else None)
    return replies


def test_wire_format_field_names(echo_server):
    # raw socket client: the protocol is plain NDJSON with stable field names
    (resp,) = _raw_roundtrip(
        echo_server.endpoint,
        [json.dumps({"id": 1, "cmd": "generate", "inputs": ["A : LIKES : B"], "max_len": 256, "min_len": 4})],
    )
    assert resp == {"id": 1, "ok": True, "outputs": ["A likes B."]}


def test_wire_rejects_non_increasing_ids(echo_server):
    replies = _raw_roundtrip(
        echo_server.endpoint,
        [
            json.dumps({"id": 5, "cmd": "save", "tag": "t"}),
            json.dumps({"id": 5, "cmd": "save", "tag": "t"}),
        ],
    )
    assert replies[0]["ok"] is True
    assert replies[1]["ok"] is False
    assert "increasing" in replies[1]["error"]


def test_wire_rejects_malformed_json(echo_server):
    (resp,) = _raw_roundtrip(echo_server.endpoint, ["this is not json"])
    assert resp["ok"] is False


def test_wire_unknown_command_keeps_connection(echo_server):
    replies = _raw_roundtrip(
        echo_server.endpoint,
        [
            json.dumps({"id": 1, "cmd": "dance"}),
            json.dumps({"id": 2, "cmd": "save", "tag": "t"}),
        ],
    )
    assert replies[0]["ok"] is False
    assert replies[1]["ok"] is True


def test_wire_bad_payload_shapes(echo_server):
    replies = _raw_roundtrip(
        echo_server.endpoint,
        [
            json.dumps({"id": 1, "cmd": "generate", "inputs": []}),
            json.dumps({"id": 2, "cmd": "train", "pairs": [["only-one"]]}),
            json.dumps({"id": 3, "cmd": "load", "tag": ""}),
        ],
    )
    assert [r["ok"] for r in replies] == [False, False, False]
