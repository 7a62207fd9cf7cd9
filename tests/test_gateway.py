"""Model gateway: rule-based baselines, wire protocol client, and server."""

import io
import json
import random
import select
import socket
import socketserver
import struct
import sys
import threading
import time

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from conftest import linear_texts, random_record_set
from d2t_selftrain import (
    Backend,
    CheckpointAction,
    Condition,
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
    rule_based_handle,
    train_batch,
)
from d2t_selftrain import gateway, selection
from d2t_selftrain.gateway import MAX_LEN, MIN_LEN, RemoteServable, infer_record_set
from d2t_selftrain.records import _TOKEN, find_bounded


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


def test_rule_d2t_mr_without_name_renders_each_pair():
    out = RuleBasedD2T().generate("food : English | area : riverside")
    assert out == "food English. area riverside."


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


def test_rule_t2d_matches_longest_value_first_past_eight_values():
    # seven longer values put "new york" at rank 7 and "york" at rank 8; a
    # set of small ints iterates in slot order (rank mod 8), so searching
    # the candidate ranks unsorted would try "york" first
    filler = [Triple(f"filler subject {w}", "P", f"filler object {w}") for w in ("one", "two", "three")]
    catalog = [
        RecordSet((*filler, Triple("filler subject four", "P", "Bob")), RecordKind.TRIPLESET),
        RecordSet((Triple("Ann", "LIVES_IN", "New York"),), RecordKind.TRIPLESET),
        RecordSet((Triple("Bob", "LIVES_IN", "York"),), RecordKind.TRIPLESET),
    ]
    text = "Ann lives in New York."
    assert RuleBasedT2D(catalog).generate(text) == oracles.t2d_generate(catalog, text)
    assert oracles.t2d_generate(catalog, text) == "Ann : LIVES_IN : New York"


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


@pytest.mark.hypothesis_seeds
@settings(max_examples=500)
@given(linear_texts)
@example("a : b : c | d : e")  # one drop each: the tie goes to tripleset
@example("a : b | b : a | a : b : a")  # MR set drops fewer
@example("a : b : c\t|\td : e : f")
def test_infer_record_set_matches_both_parses(text):
    assert infer_record_set(text) == oracles.infer_record_set(text)


# ------------------------------------------------ token index vs full scan


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


# Multi-run values over a few runs: most values share runs with many others
# and differ in the rarest one, as "amber abbey 7" and "amber abbey 12" do.
_SHARED_RUNS = ["amber", "abbey", "Amber", "7", "12", "ß", "ss"]
_shared_run_values = st.builds(
    lambda runs, joiner: joiner.join(runs),
    st.lists(st.sampled_from(_SHARED_RUNS), min_size=1, max_size=4),
    st.sampled_from([" ", "-", ". ", "_"]),
)


@st.composite
def _catalogs(draw, values=_values):
    kind = draw(st.sampled_from(list(RecordKind)))
    if kind is RecordKind.TRIPLESET:
        record = st.builds(Triple, values, st.sampled_from(_PREDICATES), values)
    else:
        record = st.builds(Mr, st.sampled_from(_MR_KEYS), values)
    sets = draw(st.lists(st.lists(record, min_size=1, max_size=3), min_size=1, max_size=8))
    return [RecordSet(tuple(records), kind) for records in sets]


def _mention(r) -> str:
    if isinstance(r, Triple):
        return f"{r.subject} {r.predicate.replace('_', ' ')} {r.object}"
    return f"{r.key.replace('_', ' ')} {r.value}"


def _draw_text(data, catalog, atoms):
    """Up to ten re-cased mentions, fields and atoms, each joined to the next
    by a space, nothing, or punctuation."""
    fields = sorted({f for rs in catalog for r in rs.records for f in r.fields})
    mentions = [_mention(r) for rs in catalog for r in rs.records]
    words = mentions + fields + [f.replace("_", " ") for f in fields] + atoms
    piece = st.builds(
        lambda w, case: case(w), st.sampled_from(words), st.sampled_from([str, str.upper, str.lower])
    )
    parts = data.draw(st.lists(st.tuples(piece, st.sampled_from(_JOINERS)), max_size=10))
    return "".join(w + j for w, j in parts)


def _check_index_against_scan(data, values, atoms):
    catalog = data.draw(_catalogs(values))
    text = _draw_text(data, catalog, atoms)
    assert RuleBasedT2D(catalog).generate(text) == oracles.t2d_generate(catalog, text)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_rule_t2d_index_matches_full_scan(data):
    _check_index_against_scan(data, _values, _ATOMS)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_rule_t2d_index_matches_full_scan_with_shared_runs(data):
    _check_index_against_scan(data, _shared_run_values, _SHARED_RUNS)


@pytest.mark.hypothesis_seeds
@settings(max_examples=300, deadline=None)
@given(st.data())
def test_rule_t2d_recovery_implies_selection_finds_every_value(data):
    # the model and condition 1 read one rule, so a text the model recovers
    # all of x from holds every value of x for the selection too
    x = data.draw(_catalogs())[0]
    # x's mentions in any order, so that it is often recovered, then noise
    mentions = data.draw(st.permutations([_mention(r) for r in x.records]))
    text = " ".join(mentions) + data.draw(st.sampled_from(_JOINERS)) + _draw_text(data, [x], _ATOMS)
    out = RuleBasedT2D([x]).generate(text)
    if out and x.record_keys <= delinearize(out, x.kind).record_set.record_keys:
        assert Condition.MISSING_SOURCE_VALUE not in selection._judge_candidate(x, "", text, None)


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
    want = [oracles.t2d_generate(sets, t) for t in texts]
    assert any(want)
    assert [t2d.generate(t) for t in texts] == want


def test_token_pattern_is_isalnum_runs():
    # the token index is exact only if text tokens are maximal isalnum runs
    chars = map(chr, range(sys.maxunicode + 1))
    assert [c for c in chars if bool(_TOKEN.fullmatch(c)) != c.isalnum()] == []


def _generate_counting_searches(monkeypatch, catalogs, text):
    """Each catalog's output for `text` and its number of find_bounded calls."""
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return find_bounded(*args)

    monkeypatch.setattr(gateway, "find_bounded", counting)
    outputs, counts = [], []
    for catalog in catalogs:
        t2d = RuleBasedT2D(catalog)
        calls = 0
        outputs.append(t2d.generate(text))
        counts.append(calls)
    return outputs, counts


def test_rule_t2d_cost_independent_of_catalog_size(monkeypatch):
    base = [
        RecordSet((Triple(f"Town {i}", "NEAR", f"River {i}"),), RecordKind.TRIPLESET)
        for i in range(10)
    ]
    unrelated = [
        RecordSet((Triple(f"Zq{i}", "OWNED_BY", f"Wx{i}"),), RecordKind.TRIPLESET)
        for i in range(5000)
    ]
    text = "Town 3 near River 3. Town 7 near River 7."
    outputs, counts = _generate_counting_searches(monkeypatch, (base, base + unrelated), text)
    assert outputs == ["Town 3 : NEAR : River 3 | Town 7 : NEAR : River 7"] * 2
    assert counts[0] == counts[1]


def test_rule_t2d_cost_independent_of_values_sharing_runs(monkeypatch):
    # every added value shares "amber" and "abbey" with the text's subject;
    # only its rarest run, the number, can make it a candidate
    base = [
        RecordSet((Triple(f"Amber Abbey {i}", "LOCATED_IN", "Tallinn"),), RecordKind.TRIPLESET)
        for i in range(10)
    ]
    sharing = [
        RecordSet((Triple(f"Amber Abbey {k}", "LOCATED_IN", "Ravenna"),), RecordKind.TRIPLESET)
        for k in range(10, 5010)
    ]
    text = "Visitors are often surprised that the Amber Abbey 7 is located in Tallinn."
    outputs, counts = _generate_counting_searches(monkeypatch, (base, base + sharing), text)
    assert outputs == ["Amber Abbey 7 : LOCATED_IN : Tallinn"] * 2
    assert counts[0] == counts[1]


def test_rule_t2d_catalog_holds_each_fold_once():
    # a subject recurs across a set's triples, in another case in a later
    # set, and each predicate recurs across sets
    catalog = [
        RecordSet(
            (Triple("Ann Lee", "LIVES_IN", "New York"), Triple("Ann Lee", "BORN_IN", "Boston")),
            RecordKind.TRIPLESET,
        ),
        RecordSet(
            (Triple("ANN LEE", "BORN_IN", "New York"), Triple("Bob Ray", "LIVES_IN", "Boston")),
            RecordKind.TRIPLESET,
        ),
    ]
    cat = RuleBasedT2D(catalog)
    assert len(cat._values) == 4
    assert len({id(v) for e in cat._entries for v in e.values}) == len(cat._values)
    phrases = {}
    for e in cat._entries:
        assert phrases.setdefault(e.record.label, e.evidence) is e.evidence
    assert sorted(phrases.values()) == ["born in", "lives in"]


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
        with pytest.raises(GatewayError):
            checkpoint(h, CheckpointAction.LOAD, "missing")
    finally:
        h.close()


def test_external_request_json_cannot_carry_is_a_gateway_error(echo_server):
    h = external_handle(Direction.D2T, echo_server.endpoint)
    try:
        with pytest.raises(GatewayError, match="^cannot send 'generate': .*surrogates not allowed"):
            generate_batch(h, ["A : P : \ud800"])
        with pytest.raises(GatewayError, match="^cannot send 'train'"):
            train_batch(h, [("A : P : B", "A p \udfff.")])
        assert generate_batch(h, ["A : LIKES : B"]) == ["A likes B."]
    finally:
        h.close()


def test_external_connection_refused():
    h = external_handle(Direction.D2T, "127.0.0.1:9")  # discard port, closed
    with pytest.raises(GatewayError):
        generate_batch(h, ["x"])


def _timed_stop(server: ModelServer) -> float:
    """Seconds one stop() takes; a stop that hangs fails the test after 2 s."""
    t0 = time.perf_counter()
    stopper = threading.Thread(target=server.stop, daemon=True)
    stopper.start()
    stopper.join(timeout=2)
    assert not stopper.is_alive(), "stop() hung"
    return time.perf_counter() - t0


def test_server_stop_is_prompt_and_repeatable():
    server = ModelServer(RuleServable(RuleBasedD2T())).start()
    (resp,) = _raw_roundtrip(server.endpoint, [json.dumps({"id": 1, "cmd": "save", "tag": "t"})])
    assert resp == {"id": 1, "ok": True}
    assert _timed_stop(server) <= 0.1
    host, port = server.endpoint.rsplit(":", 1)
    with pytest.raises(OSError):
        socket.create_connection((host, int(port)), timeout=1).close()
    assert _timed_stop(server) <= 0.1


def test_server_stop_without_start_returns():
    server = ModelServer(RuleServable(RuleBasedD2T()))
    assert _timed_stop(server) <= 0.1
    assert _timed_stop(server) <= 0.1


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
    with pytest.raises(GatewayError) as exc_info:
        checkpoint(h, CheckpointAction.LOAD, "missing")
    # the server forwards the servable's error text unchanged
    assert str(exc_info.value).endswith("unknown checkpoint tag 'missing'")


def test_servable_conformance_length_check(d2t_handle_for):
    h = d2t_handle_for(_MisbehavingServable(RuleBasedD2T()))
    with pytest.raises(GatewayError, match="generate batch of 2 got 1 outputs"):
        generate_batch(h, ["A : P : B", "C : P : D"])


class _AnswersNone(RuleServable):
    def generate(self, inputs, max_len, min_len):
        return [None] * len(inputs)


def test_generate_batch_refuses_an_in_process_answer_holding_a_lone_surrogate():
    class AppendsSurrogate(RuleServable):
        def generate(self, inputs, max_len, min_len):
            return [y + " \udfff" for y in super().generate(inputs, max_len, min_len)]

    h = ModelHandle(Direction.D2T, AppendsSurrogate(RuleBasedD2T()))
    with pytest.raises(GatewayError, match=r"^generate answer holds a lone surrogate \(d2t at in process\)"):
        generate_batch(h, ["A : P : B"])
    # a pair is one character, not two lone surrogates
    assert generate_batch(ModelHandle(Direction.D2T, RuleServable(RuleBasedD2T())), ["A : P : \U0001f600"]) == [
        "A p \U0001f600."
    ]


def test_servable_conformance_output_type_check(d2t_handle_for):
    h = d2t_handle_for(_AnswersNone(RuleBasedD2T()))
    with pytest.raises(GatewayError, match="not a list of strings"):
        generate_batch(h, ["A : P : B", "C : P : D"])


@pytest.mark.parametrize("answer", [("out",), "out", {"out": 1}, [b"out"]], ids=["tuple", "str", "dict", "bytes"])
def test_generate_batch_refuses_an_in_process_answer_that_is_not_a_list_of_strings(answer):
    class Answers(RuleServable):
        def generate(self, inputs, max_len, min_len):
            return answer

    with pytest.raises(GatewayError, match="not a list of strings"):
        generate_batch(ModelHandle(Direction.D2T, Answers(RuleBasedD2T())), ["A : P : B"])


class _AnswersLoss(RuleServable):
    def __init__(self, loss):
        super().__init__(RuleBasedD2T())
        self.loss = loss

    def train(self, pairs):
        return self.loss


@pytest.mark.parametrize(
    "loss, error",
    [
        (True, "non-numeric loss: True"),
        ("1.5", "non-numeric loss: '1.5'"),
        (float("nan"), "non-finite loss: nan"),
        (float("inf"), "non-finite loss: inf"),
        (-float("inf"), "non-finite loss: -inf"),
        (10**400, "non-finite loss: 1000"),  # an int past the float range
    ],
    ids=["bool", "str", "nan", "inf", "-inf", "huge-int"],
)
def test_train_batch_refuses_an_in_process_loss_that_is_not_a_finite_number(loss, error):
    h = ModelHandle(Direction.D2T, _AnswersLoss(loss))
    with pytest.raises(GatewayError, match=error):
        train_batch(h, [("a", "b")])


@pytest.mark.parametrize("loss", [None, 0, 2, 0.25, -1.5], ids=["none", "zero", "int", "float", "negative"])
def test_train_batch_passes_on_a_finite_loss_as_a_float(d2t_handle_for, loss):
    ack = train_batch(d2t_handle_for(_AnswersLoss(loss)), [("a", "b")])
    assert ack.loss == loss and type(ack.loss) is (type(None) if loss is None else float)


@pytest.mark.parametrize("loss", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_servable_conformance_non_finite_loss(d2t_handle_for, loss):
    h = d2t_handle_for(_AnswersLoss(loss))
    with pytest.raises(GatewayError, match="non-finite loss|not JSON"):
        train_batch(h, [("a", "b")])
    # the refusal leaves the handle usable
    checkpoint(h, CheckpointAction.SAVE, "after")


def test_server_refuses_a_non_finite_loss_without_writing_nan():
    with ModelServer(_AnswersLoss(float("nan"))) as server:
        host, port = server.endpoint.rsplit(":", 1)
        with socket.create_connection((host, int(port)), timeout=10) as sock, sock.makefile("rb") as f:
            sock.sendall(json.dumps({"id": 1, "cmd": "train", "pairs": [["a", "b"]]}).encode() + b"\n")
            line = f.readline()
            # the handler thread lives on and keeps the connection
            sock.sendall(json.dumps({"id": 2, "cmd": "save", "tag": "t"}).encode() + b"\n")
            assert json.loads(f.readline()) == {"id": 2, "ok": True}
    assert b"NaN" not in line and b"Infinity" not in line
    resp = json.loads(line)
    assert resp["id"] == 1 and resp["ok"] is False
    assert "not JSON" in resp["error"]


def test_write_message_refuses_what_json_cannot_carry():
    for msg in ({"id": 1, "loss": float("nan")}, {"id": 1, "loss": -float("inf")}, {"id": 1, "x": "\ud800"}):
        stream = io.BytesIO()
        with pytest.raises(ValueError):
            gateway.write_message(stream, msg)
        assert stream.getvalue() == b""  # refused before a byte was written
    stream = io.BytesIO()
    gateway.write_message(stream, {"id": 1, "text": "Ålesund"})
    assert stream.getvalue() == '{"id": 1, "text": "Ålesund"}\n'.encode("utf-8")
    assert gateway.read_message(io.BytesIO(stream.getvalue())) == {"id": 1, "text": "Ålesund"}


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
    # "shutdown" is no command: a client cannot stop the server
    replies = _raw_roundtrip(
        echo_server.endpoint,
        [
            json.dumps({"id": 1, "cmd": "dance"}),
            json.dumps({"id": 2, "cmd": "shutdown"}),
            json.dumps({"id": 3, "cmd": "save", "tag": "t"}),
        ],
    )
    assert replies[0] == {"id": 1, "ok": False, "error": "unknown cmd 'dance'"}
    assert replies[1] == {"id": 2, "ok": False, "error": "unknown cmd 'shutdown'"}
    assert replies[2] == {"id": 3, "ok": True}


def test_wire_rejects_boolean_ids(echo_server):
    # JSON true is not an integer id, though Python's True == 1
    (resp,) = _raw_roundtrip(echo_server.endpoint, [json.dumps({"id": True, "cmd": "save", "tag": "a"})])
    assert resp["ok"] is False
    assert resp["id"] == 0 and type(resp["id"]) is int
    assert "integers" in resp["error"]


def test_wire_caps_request_lines(monkeypatch, echo_server):
    line = (json.dumps({"id": 1, "cmd": "save", "tag": "t"}) + "\n").encode()
    monkeypatch.setattr(gateway, "MAX_LINE_BYTES", len(line))
    host, port = echo_server.endpoint.rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=10) as sock, sock.makefile("rb") as f:
        sock.sendall(line)  # exactly at the cap: served
        assert json.loads(f.readline()) == {"id": 1, "ok": True}
        sock.sendall(b"x" * (len(line) + 1))  # one byte over, no newline
        resp = json.loads(f.readline())
        assert resp["ok"] is False
        assert f"longer than {len(line)} bytes" in resp["error"]
        assert f.readline() == b""  # and the connection is dropped


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


@pytest.mark.parametrize(
    "limits",
    [{"max_len": True, "min_len": "3"}, {"max_len": True}, {"min_len": "3"}, {"max_len": 256.0}],
    ids=["bool-and-string", "bool", "string", "float"],
)
def test_wire_refuses_decode_limits_that_are_not_integers(echo_server, limits):
    # int() would read JSON true as 1, "3" as 3 and 256.0 as 256
    request = {"id": 1, "cmd": "generate", "inputs": ["A : LIKES : B"], **limits}
    (resp,) = _raw_roundtrip(echo_server.endpoint, [json.dumps(request)])
    assert resp["ok"] is False
    assert "decode limits must be integers" in resp["error"]


class _RecordingServable(RuleServable):
    def __init__(self):
        super().__init__(RuleBasedD2T())
        self.trained = []

    def train(self, pairs):
        self.trained.append(pairs)
        return super().train(pairs)


def test_server_refuses_a_request_cut_off_at_eof():
    servable = _RecordingServable()
    with ModelServer(servable) as server:
        host, port = server.endpoint.rsplit(":", 1)
        with socket.create_connection((host, int(port)), timeout=10) as sock, sock.makefile("rb") as f:
            # a whole request object, but the client died before its newline
            sock.sendall(json.dumps({"id": 1, "cmd": "train", "pairs": [["a", "b"]]}).encode())
            sock.shutdown(socket.SHUT_WR)
            resp = json.loads(f.readline())
            assert f.readline() == b""  # and the connection is dropped
    assert resp["ok"] is False
    assert "cut off" in resp["error"]
    assert servable.trained == []


# --------------------------------------------------------- the shared reader

_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False), st.text(max_size=8)
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=6,
)
# objects with and without an id of every JSON type
_JSON_OBJECTS = st.builds(
    lambda extra, rid: {**extra, **rid},
    st.dictionaries(st.sampled_from(["cmd", "ok", "x"]), _JSON_VALUES, max_size=2),
    st.one_of(st.just({}), st.builds(lambda v: {"id": v}, _JSON_SCALARS)),
)
_WIRE_LINES = st.one_of(
    st.binary(max_size=80),  # anything, newlines included
    st.builds(lambda v: json.dumps(v).encode(), st.one_of(_JSON_OBJECTS, _JSON_VALUES)),
    st.sampled_from([b"\xff\xfe", b"\xc3", b"{\"id\": 1, \"x\": \"\xe9\"}"]),  # not UTF-8
)
_WIRE_STREAMS = st.lists(
    st.tuples(_WIRE_LINES, st.booleans()).map(lambda t: t[0] + b"\n" * t[1]), max_size=5
).map(b"".join)


@settings(max_examples=200, deadline=None)
@given(_WIRE_STREAMS, st.sampled_from([16, 64, 4096]))
@example(b'{"id": 1}\n', 8)  # over the cap
@example(b'{"id": 1, "cmd": "train"}', 4096)  # no newline
@example(b"\xff\n", 4096)  # not UTF-8
@example(b"[1, 2]\n", 4096)  # not an object
@example(b'{"id": true}\n{"id": 1.0}\n{}\n', 4096)  # ids that are not integers
@example(b"[" * 4000 + b"\n", 4096)  # nested past the recursion limit
def test_read_message_returns_a_message_none_or_gateway_error(data, cap):
    stream = io.BytesIO(data)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gateway, "MAX_LINE_BYTES", cap)
        for _ in range(data.count(b"\n") + 2):
            try:
                msg = gateway.read_message(stream)
            except GatewayError:
                return
            if msg is None:
                assert stream.read() == b""
                return
            assert isinstance(msg, dict) and type(msg["id"]) is int
    pytest.fail("the reader neither ended nor refused the stream")


@pytest.mark.parametrize("token", [b"NaN", b"Infinity", b"-Infinity"])
def test_read_message_refuses_non_finite_constants(token):
    for line in (b'{"id": 1, "loss": %s}\n' % token, b'{"id": 1, "x": [1, {"y": %s}]}\n' % token):
        with pytest.raises(GatewayError, match="malformed line"):
            gateway.read_message(io.BytesIO(line))


# ------------------------------------------------------------ transport faults


class _ScriptedServer:
    """Mock model server that answers its n-th request as `script[n]` says:
    "ok" echoes the inputs, "refuse" answers ok false, "stall" never answers,
    "eof" closes the connection, "garbage" sends a non-JSON line, "wrong-id"
    answers under another id, "bool-id" under the id true, "bool-loss"
    answers ok with the loss true, "inf-loss" with the loss 1e999 (which
    JSON parsers read as infinity), "nan-loss" with the loss NaN (which is
    not JSON), "surrogate" with the outputs ["A \\ud800"] (valid JSON, but
    a lone surrogate once read), "long" sends one byte more than
    `gateway.MAX_LINE_BYTES` with no newline and stalls, and "half" sends a
    whole reply object without its newline and closes.
    Records (connection, id) per request.
    """

    def __init__(self, script):
        outer = self
        self.script = list(script)
        self.requests = []
        self.release = threading.Event()
        self._connections = 0

        class Handler(socketserver.StreamRequestHandler):
            def handle(self):
                conn = outer._connections
                outer._connections += 1
                for raw in self.rfile:
                    req = json.loads(raw)
                    outer.requests.append((conn, req["id"]))
                    action = outer.script.pop(0)
                    if action == "stall":
                        outer.release.wait(10)
                        return
                    if action == "eof":
                        return
                    if action == "garbage":
                        self.wfile.write(b"not json\n")
                        continue
                    if action == "long":
                        self.wfile.write(b"x" * (gateway.MAX_LINE_BYTES + 1))
                        outer.release.wait(10)
                        return
                    rid = {"wrong-id": req["id"] + 1, "bool-id": True}.get(action, req["id"])
                    reply = {"id": rid, "ok": action != "refuse", "outputs": req.get("inputs")}
                    if action == "bool-loss":
                        reply["loss"] = True
                    if action == "surrogate":
                        reply["outputs"] = ["A \ud800"]  # json.dumps writes it as an escape
                    if action == "half":
                        self.wfile.write(json.dumps(reply).encode())
                        return
                    line = json.dumps(reply)
                    if action in ("inf-loss", "nan-loss"):
                        token = "1e999" if action == "inf-loss" else "NaN"
                        line = line[:-1] + f', "loss": {token}}}'
                    self.wfile.write((line + "\n").encode())

        self._server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), Handler)
        self._server.daemon_threads = True
        # a short poll keeps shutdown() from waiting out the 0.5 s default
        threading.Thread(target=self._server.serve_forever, args=(0.02,), daemon=True).start()
        self.endpoint = "%s:%d" % self._server.server_address[:2]

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.release.set()
        self._server.shutdown()
        self._server.server_close()


@pytest.mark.parametrize("fault", ["stall", "eof", "garbage", "wrong-id", "bool-id", "half", "nan-loss"])
def test_remote_servable_reconnects_after_transport_fault(monkeypatch, fault):
    monkeypatch.setattr(gateway, "_REQUEST_TIMEOUT", 0.5)
    with _ScriptedServer([fault, "ok"]) as srv:
        remote = RemoteServable(srv.endpoint)
        try:
            with pytest.raises(GatewayError):
                remote.generate(["first"], MAX_LEN, MIN_LEN)
            assert remote.generate(["second"], MAX_LEN, MIN_LEN) == ["second"]
        finally:
            remote.close()
    # the failed connection was dropped, and the new one counts ids from 1
    assert srv.requests == [(0, 1), (1, 1)]


def test_remote_servable_refuses_an_over_long_reply(monkeypatch):
    monkeypatch.setattr(gateway, "MAX_LINE_BYTES", 64)
    with _ScriptedServer(["long", "ok"]) as srv:
        remote = RemoteServable(srv.endpoint)
        try:
            with pytest.raises(GatewayError, match="longer than 64 bytes"):
                remote.generate(["first"], MAX_LEN, MIN_LEN)
            assert remote._sock is None  # closed at once, not at the next call
            assert remote.generate(["second"], MAX_LEN, MIN_LEN) == ["second"]
        finally:
            remote.close()
    assert srv.requests == [(0, 1), (1, 1)]


def test_remote_servable_keeps_connection_after_refusal():
    with _ScriptedServer(["refuse", "ok"]) as srv:
        remote = RemoteServable(srv.endpoint)
        try:
            with pytest.raises(GatewayError, match="server refused"):
                remote.generate(["first"], MAX_LEN, MIN_LEN)
            assert remote.generate(["second"], MAX_LEN, MIN_LEN) == ["second"]
        finally:
            remote.close()
    assert srv.requests == [(0, 1), (0, 2)]


def test_remote_servable_refuses_a_boolean_loss():
    # JSON true is not a loss, though Python's float(True) == 1.0
    with _ScriptedServer(["bool-loss", "ok"]) as srv:
        h = external_handle(Direction.D2T, srv.endpoint)
        try:
            with pytest.raises(GatewayError, match="non-numeric loss: True"):
                train_batch(h, [("a", "b")])
            assert train_batch(h, [("c", "d")]).loss is None
        finally:
            h.close()
    assert srv.requests == [(0, 1), (0, 2)]


def test_remote_servable_refuses_an_infinite_loss():
    # 1e999 is valid JSON, but reads as infinity
    with _ScriptedServer(["inf-loss", "ok"]) as srv:
        h = external_handle(Direction.D2T, srv.endpoint)
        try:
            with pytest.raises(GatewayError, match="non-finite loss: inf"):
                train_batch(h, [("a", "b")])
            assert train_batch(h, [("c", "d")]).loss is None
        finally:
            h.close()
    # a contract breach is no transport fault: the connection is kept
    assert srv.requests == [(0, 1), (0, 2)]


def test_remote_servable_refuses_a_lone_surrogate_answer():
    with _ScriptedServer(["surrogate", "ok"]) as srv:
        h = external_handle(Direction.D2T, srv.endpoint)
        try:
            with pytest.raises(GatewayError, match="generate answer holds a lone surrogate"):
                generate_batch(h, ["first"])
            assert generate_batch(h, ["second"]) == ["second"]
        finally:
            h.close()
    # a contract breach is no transport fault: the connection is kept
    assert srv.requests == [(0, 1), (0, 2)]


def test_server_ends_reset_connection_quietly(capfd, echo_server):
    ended = threading.Event()
    shutdown_request = echo_server._server.shutdown_request

    def shutdown_and_signal(request):
        shutdown_request(request)
        ended.set()

    echo_server._server.shutdown_request = shutdown_and_signal
    host, port = echo_server.endpoint.rsplit(":", 1)
    sock = socket.create_connection((host, int(port)), timeout=10)
    sock.sendall(json.dumps({"id": 1, "cmd": "save", "tag": "t"}).encode() + b"\n")
    assert select.select([sock], [], [], 10)[0]  # the reply arrived, unread
    # close with a reset: the server's next read fails with ECONNRESET
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    sock.close()
    assert ended.wait(10)
    (resp,) = _raw_roundtrip(echo_server.endpoint, [json.dumps({"id": 1, "cmd": "load", "tag": "t"})])
    assert resp == {"id": 1, "ok": True}
    assert capfd.readouterr().err == ""
