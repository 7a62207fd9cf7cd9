"""End-to-end tests of the command-line entry point."""

import csv
import gc
import io
import json
import os
import random
import signal
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import pytest

import d2t_selftrain
from conftest import DART_SOURCE, DART_TARGET, rule_handles
from d2t_selftrain import (
    Direction,
    Method,
    ModelHandle,
    ModelServer,
    Orchestrator,
    RuleBasedD2T,
    RuleBasedT2D,
    RuleServable,
    RunConfig,
    load_e2e,
    synthetic_dataset,
)
from d2t_selftrain import pipeline
from d2t_selftrain.cli import EXIT_AUDIT_FAILED, EXIT_INTERRUPTED, main
from d2t_selftrain.datasets import SplitName

DART_ENTRY = {
    "tripleset": [
        ["Clapham", "STARTED", "20 August"],
        ["Clapham", "ENDED", "20 November"],
        ["Clapham", "LOAN_CLUB", "Wolverhampton Wanderers"],
    ],
    "annotations": [{"text": DART_TARGET}],
}


# E2E restaurant names and attribute values, in the dataset's attribute order
_E2E_NAMES = (
    "The Golden Curry", "Blue Spice", "The Eagle", "Aromi", "The Phoenix", "Zizzi", "Browns Cambridge",
    "The Wrestlers", "Fitzbillies", "The Mill", "Cotto", "Strada", "The Punter", "Green Man", "Alimentum",
    "Clowns", "The Vaults", "Midsummer House", "Giraffe", "Loch Fyne", "Wildwood", "The Cricketers",
    "Bibimbap House", "The Olive Grove", "The Rice Boat", "The Twenty Two", "The Dumpling Tree", "Cocum",
)
_E2E_VALUES = {
    "eatType": ("coffee shop", "pub", "restaurant"),
    "food": ("English", "French", "Italian", "Chinese", "Indian", "Japanese", "Fast food"),
    "priceRange": ("less than £20", "£20-25", "more than £30", "cheap", "moderate", "high"),
    "customer rating": ("1 out of 5", "3 out of 5", "5 out of 5", "low", "average", "high"),
    "area": ("riverside", "city centre"),
    "familyFriendly": ("yes", "no"),
    "near": ("Café Rouge", "The Sorrento", "Burger King", "Raja Indian Cuisine", "All Bar One", "Crowne Plaza Hotel"),
}
# two wordings per attribute, one for each reference of an MR
_E2E_PHRASES = {
    "eatType": ("is a {}", "It is a {}."),
    "food": ("serves {} food", "It serves {} food."),
    "priceRange": ("has a price range of {}", "Prices are {}."),
    "customer rating": ("has a customer rating of {}", "It is rated {}."),
    "area": ("is in the {} area", "You can find it in the {}."),
    "familyFriendly": ("is {}family friendly", "It is {}kid friendly."),
    "near": ("is near {}", "It is close to {}."),
}


def _write_e2e_csv(path, n_mrs, seed):
    """An E2E CSV of `n_mrs` MRs, each a name and 2-5 other attributes, on
    two rows with two references, as the real files repeat an MR."""
    rng = random.Random(seed)
    rows = []
    for _ in range(n_mrs):
        name = rng.choice(_E2E_NAMES)
        keys = sorted(rng.sample(list(_E2E_VALUES), rng.randint(2, 5)), key=list(_E2E_VALUES).index)
        pairs = [(k, rng.choice(_E2E_VALUES[k])) for k in keys]
        mr = ", ".join(f"{k}[{v}]" for k, v in [("name", name), *pairs])
        clauses, sentences = [], [f"{name} is a place to eat."]
        for k, v in pairs:
            shown = {"yes": "", "no": "not "}[v] if k == "familyFriendly" else v
            clauses.append(_E2E_PHRASES[k][0].format(shown))
            sentences.append(_E2E_PHRASES[k][1].format(shown))
        rows.append((mr, f"{name} {', '.join(clauses[:-1])} and {clauses[-1]}."))
        rows.append((mr, " ".join(sentences)))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["mr", "ref"])
        writer.writerows(rows)


def _feed_stdin(monkeypatch, text):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))


class TestLinearizeCommand:
    def test_json_object_lines(self, monkeypatch, capsys):
        lines = [
            json.dumps({"kind": "tripleset", "records": [["A", "P", "B"]]}),
            "",
            json.dumps({"kind": "mrset", "records": [["name", "X"], ["food", "Thai"]]}),
        ]
        _feed_stdin(monkeypatch, "\n".join(lines) + "\n")
        assert main(["linearize"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["A : P : B", "name : X | food : Thai"]

    def test_bare_arrays_infer_kind_from_width(self, monkeypatch, capsys):
        lines = [
            json.dumps([["A", "P", "B"], ["A", "Q", "C"]]),
            json.dumps([["name", "X"]]),
        ]
        _feed_stdin(monkeypatch, "\n".join(lines) + "\n")
        assert main(["linearize"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["A : P : B | A : Q : C", "name : X"]

    def test_invalid_json_line(self, monkeypatch, capsys):
        _feed_stdin(monkeypatch, "{broken\n")
        assert main(["linearize"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_wrong_shape(self, monkeypatch, capsys):
        _feed_stdin(monkeypatch, "42\n")
        assert main(["linearize"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_nesting_too_deep_is_a_malformed_line(self, monkeypatch, capsys):
        _feed_stdin(monkeypatch, "[" * 100_000 + "]" * 100_000 + "\n")
        assert main(["linearize"]) == 1
        assert capsys.readouterr().err.startswith("error: <stdin> line 1: JSON nested too deeply")

    def test_a_refused_line_is_named_after_the_lines_before_it(self, monkeypatch, capsys):
        _feed_stdin(monkeypatch, '[["a","p","b"]]\n\nnot json\n[["c","q","d"]]\n')
        assert main(["linearize"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "a : p : b\n"
        # the blank line counts: line 3 is the one an editor shows
        assert captured.err == "error: <stdin> line 3: Expecting value: line 1 column 1 (char 0)\n"

    @pytest.mark.parametrize(
        "line",
        [
            '{"kind": "tripleset"}',  # no records
            '{"kind": "tripleset", "records": [["a", "b"]]}',  # a pair in a tripleset
            "[[1, 2, 3]]",  # fields that are not strings
        ],
    )
    def test_malformed_record_json(self, monkeypatch, capsys, line):
        _feed_stdin(monkeypatch, line + "\n")
        assert main(["linearize"]) == 1
        assert capsys.readouterr().err.startswith("error:")


class TestDelinearizeCommand:
    def test_tripleset_lines(self, monkeypatch, capsys):
        _feed_stdin(monkeypatch, f"{DART_SOURCE}\nA : P : B\n")
        assert main(["delinearize"]) == 0
        out = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert out[0]["kind"] == "tripleset"
        assert out[0]["records"][0] == ["Clapham", "STARTED", "20 August"]
        assert out[0]["dropped"] == 0
        assert out[1]["records"] == [["A", "P", "B"]]

    def test_mrset_kind_flag(self, monkeypatch, capsys):
        _feed_stdin(monkeypatch, "name : X | food : Thai\n")
        assert main(["delinearize", "--kind", "mrset"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["kind"] == "mrset"
        assert out["records"] == [["name", "X"], ["food", "Thai"]]

    def test_blank_lines_skipped(self, monkeypatch, capsys):
        _feed_stdin(monkeypatch, "A : P : B\n\n   \nC : Q : D\n")
        assert main(["delinearize"]) == 0
        out = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [o["records"] for o in out] == [[["A", "P", "B"]], [["C", "Q", "D"]]]

    def test_dropped_counted(self, monkeypatch, capsys):
        _feed_stdin(monkeypatch, "A : P : B | junk\n")
        assert main(["delinearize"]) == 0
        assert json.loads(capsys.readouterr().out)["dropped"] == 1

    def test_unparseable_line(self, monkeypatch, capsys):
        _feed_stdin(monkeypatch, "no separators here\n")
        assert main(["delinearize"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_a_refused_line_is_named_after_the_lines_before_it(self, monkeypatch, capsys):
        _feed_stdin(monkeypatch, "A : P : B\n\njunk\r\nC : Q : D\n")
        assert main(["delinearize"]) == 1
        captured = capsys.readouterr()
        assert [json.loads(line)["records"] for line in captured.out.splitlines()] == [[["A", "P", "B"]]]
        assert captured.err == "error: <stdin> line 3: no parseable tripleset segment in 'junk' (1 dropped)\n"


class TestOptimizeCommand:
    def test_drops_uninformative_sentence(self, capsys):
        rc = main(
            [
                "optimize",
                "--source",
                "A : P : B",
                "--target",
                "A stands by B. It was a nice day.",
            ]
        )
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["changed"] is True
        assert out["optimized"] == "A stands by B."
        assert out["kept_sentences"] == ["A stands by B."]

    def test_mrset_kind(self, capsys):
        rc = main(
            [
                "optimize",
                "--kind",
                "mrset",
                "--source",
                "name : X | food : Thai",
                "--target",
                "X serves Thai food.",
            ]
        )
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["changed"] is False
        assert sorted(out["matched_values"]) == ["Thai", "X"]

    def test_output_keeps_field_order_and_non_ascii_text(self, capsys):
        rc = main(["optimize", "--source", "Zürich : LIES_ON : Straße 5", "--target", "Zürich liegt an der Straße 5. Schön!"])
        assert rc == 0
        assert capsys.readouterr().out == (
            "{\n"
            '  "optimized": "Zürich liegt an der Straße 5.",\n'
            '  "changed": true,\n'
            '  "matched_values": [\n'
            '    "Zürich",\n'
            '    "Straße 5"\n'
            "  ],\n"
            '  "kept_sentences": [\n'
            '    "Zürich liegt an der Straße 5."\n'
            "  ]\n"
            "}\n"
        )

    def test_bad_source(self, capsys):
        assert main(["optimize", "--source", "junk", "--target", "t"]) == 1
        assert "error:" in capsys.readouterr().err


class TestEvalCommand:
    def _write(self, path, lines, encoding="utf-8"):
        path.write_text("\n".join(lines) + "\n", encoding=encoding)
        return str(path)

    def test_text_metrics_only(self, tmp_path, capsys):
        hyp = self._write(
            tmp_path / "hyp.txt", ["the cat sat on the mat", "a dog ran over the hill"]
        )
        refs = self._write(
            tmp_path / "refs.txt",
            ["the cat sat on the mat\tthe cat sat down", "a dog ran over the hill"],
        )
        assert main(["eval", "--hyp", hyp, "--refs", refs]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["bleu"] == 1.0
        assert report["ter"] == 0.0
        assert report["epm"] is None
        assert report["osf"] is None

    def test_slot_metrics_and_scaling(self, tmp_path, capsys):
        hyp = self._write(tmp_path / "hyp.txt", ["A stands by B", "C leads over D"])
        refs = self._write(tmp_path / "refs.txt", ["A stands by B", "C leads over D"])
        sources = self._write(tmp_path / "src.txt", ["A : P : B", "C : Q : D"])
        recon = self._write(tmp_path / "rec.txt", ["A : P : B", "C : Q : D"])
        rc = main(
            [
                "eval",
                "--hyp",
                hyp,
                "--refs",
                refs,
                "--sources",
                sources,
                "--reconstructions",
                recon,
                "--scale-100",
            ]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["epm"] == 100.0
        assert report["osf"]["f1"] == 100.0
        assert report["bleu"] == 100.0

    @pytest.mark.parametrize("sep", ["\u2028", "\u2029", "\x85", "\x1c", "\x1d", "\x1e", "\x0b", "\x0c", "\r"])
    def test_lines_break_at_newline_only(self, tmp_path, capsys, sep):
        # splitlines() would cut hyp line 1 and refs line 2 in two, leaving
        # three misaligned items; the tokenizer reads `sep` as a space
        hyp = self._write(tmp_path / "hyp.txt", [f"the cat{sep}sat down", "a dog ran over the hill"])
        refs = self._write(tmp_path / "refs.txt", ["the cat sat down", f"a dog ran{sep}over the hill"])
        assert main(["eval", "--hyp", hyp, "--refs", refs]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["bleu"] == 1.0
        assert report["ter"] == 0.0

    def test_crlf_line_ends_score_as_newlines(self, tmp_path, capsys):
        hyp = ["the cat sat on the mat", "a dog ran over the hill", "third line"]
        refs = ["the cat sat down", "a dog ran over the hill\ta dog ran", "third line here"]
        hyp_path, refs_path = tmp_path / "hyp.txt", tmp_path / "refs.txt"
        reports = []
        for end in ("\n", "\r\n"):
            hyp_path.write_bytes(end.join(hyp + [""]).encode())
            refs_path.write_bytes(end.join(refs + [""]).encode())
            assert main(["eval", "--hyp", str(hyp_path), "--refs", str(refs_path)]) == 0
            reports.append(json.loads(capsys.readouterr().out))
        assert reports[0] == reports[1]
        assert reports[0]["ter"] > 0.0

    def test_byte_order_mark_is_skipped(self, tmp_path, capsys):
        lines = ["the cat sat on the mat", "a dog ran over the hill"]
        hyp = self._write(tmp_path / "hyp.txt", lines, "utf-8-sig")
        refs = self._write(tmp_path / "refs.txt", lines, "utf-8-sig")
        assert main(["eval", "--hyp", hyp, "--refs", refs]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["bleu"] == 1.0
        assert report["ter"] == 0.0

    def test_reconstructions_require_sources(self, tmp_path, capsys):
        hyp = self._write(tmp_path / "hyp.txt", ["x"])
        refs = self._write(tmp_path / "refs.txt", ["x"])
        recon = self._write(tmp_path / "rec.txt", ["A : P : B"])
        rc = main(["eval", "--hyp", hyp, "--refs", refs, "--reconstructions", recon])
        assert rc == 2
        assert "requires --sources" in capsys.readouterr().err

    def test_reconstructions_require_sources_before_any_file_is_read(self, tmp_path, capsys):
        # a usage error is reported as one, even when --hyp cannot be read
        refs = self._write(tmp_path / "refs.txt", ["x"])
        recon = self._write(tmp_path / "rec.txt", ["A : P : B"])
        argv = ["eval", "--hyp", str(tmp_path / "missing.txt"), "--refs", refs, "--reconstructions", recon]
        assert main(argv) == 2
        assert "requires --sources" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        refs = self._write(tmp_path / "refs.txt", ["x"])
        rc = main(["eval", "--hyp", str(tmp_path / "nope.txt"), "--refs", refs])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_non_utf8_file_is_named(self, tmp_path, capsys):
        hyp = self._write(tmp_path / "hyp.txt", ["caf\xe9"], "latin-1")
        refs = self._write(tmp_path / "refs.txt", ["café"])
        assert main(["eval", "--hyp", hyp, "--refs", refs]) == 1
        assert capsys.readouterr().err.startswith(f"error: {hyp} is not UTF-8 text: ")

    def test_an_unparseable_source_line_is_named(self, tmp_path, capsys):
        hyp = self._write(tmp_path / "hyp.txt", ["A stands by B", "C leads over D"])
        sources = self._write(tmp_path / "src.txt", ["A : P : B", "junk"])
        assert main(["eval", "--hyp", hyp, "--refs", hyp, "--sources", sources]) == 1
        assert capsys.readouterr().err == (
            f"error: {sources} line 2: no parseable tripleset segment in 'junk' (1 dropped)\n"
        )

    def test_a_reference_line_without_a_reference_is_named(self, tmp_path, capsys):
        hyp = self._write(tmp_path / "hyp.txt", ["a cat", "a dog", "a cow"])
        refs = self._write(tmp_path / "refs.txt", ["a cat", "\t", "a cow"])
        assert main(["eval", "--hyp", hyp, "--refs", refs]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {refs} line 2: ") and "reference" in err

    def test_unparseable_reconstruction_scores_zero_osf(self, tmp_path, capsys):
        hyp = self._write(tmp_path / "hyp.txt", ["A stands by B", "C leads over D"])
        sources = self._write(tmp_path / "src.txt", ["A : P : B", "C : Q : D"])
        recon = self._write(tmp_path / "rec.txt", ["A : P : B", "no separators here"])
        argv = ["eval", "--hyp", hyp, "--refs", hyp, "--sources", sources, "--reconstructions", recon]
        assert main(argv) == 0
        osf = json.loads(capsys.readouterr().out)["osf"]
        assert osf == {"precision": 0.5, "recall": 0.5, "f1": 0.5}


class _GarblingT2D(RuleServable):
    """Rule T2D servable that answers a text holding no separator for every
    third text of a batch and a blank for the next, and keeps each batch's
    inputs and answers."""

    JUNK = "no separators here"

    def __init__(self, model):
        super().__init__(model)
        self.batches = []

    def generate(self, inputs, max_len, min_len):
        outputs = super().generate(inputs, max_len, min_len)
        answers = [(x, self.JUNK, "")[i % 3] for i, x in enumerate(outputs)]
        self.batches.append((list(inputs), answers))
        return answers


@pytest.mark.parametrize("dataset", ["synthetic", "e2e"])
def test_eval_prints_the_final_metrics_of_a_run(dataset, small_splits, e2e_files, tmp_path, capsys):
    if dataset == "synthetic":
        splits = small_splits
    else:
        paths = dict(zip(e2e_files[::2], e2e_files[1::2]))
        names = ("--train", SplitName.TRAIN), ("--val", SplitName.VALIDATION), ("--test", SplitName.TEST)
        splits = tuple(load_e2e(paths[flag], name) for flag, name in names)
    train, val, test = splits
    d2t, t2d = rule_handles(splits)
    garbling = _GarblingT2D(t2d.servable.model)
    cfg = RunConfig(
        method=Method.SELF_MEM, d2t=d2t, t2d=ModelHandle(Direction.T2D, garbling), train=train, val=val, test=test
    )
    report = Orchestrator(cfg).run()
    # the test evaluation's batch comes last: the test outputs and the T2D's
    # answers, whose junk and blanks read back as empty sets
    outputs, answers = garbling.batches[-1]
    assert {"", _GarblingT2D.JUNK} <= set(answers)
    files = {
        "hyp": outputs,
        "refs": [ex.target for ex in test.examples],
        "sources": [ex.source_text for ex in test.examples],
        "reconstructions": answers,
    }
    argv = ["eval", "--kind", test.examples[0].source.kind.value]
    for name, lines in files.items():
        path = tmp_path / f"{name}.txt"
        path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
        argv += [f"--{name}", str(path)]
    assert main(argv) == 0
    assert capsys.readouterr().out == json.dumps(report.final_metrics.to_dict(), indent=2, sort_keys=True) + "\n"


@pytest.fixture(scope="module")
def e2e_files(tmp_path_factory):
    """--train/--val/--test arguments naming E2E CSVs of 200, 30 and 30 MRs."""
    root = tmp_path_factory.mktemp("e2e")
    args = []
    for split, n_mrs, seed in (("train", 200, 1), ("val", 30, 2), ("test", 30, 3)):
        _write_e2e_csv(root / f"{split}.csv", n_mrs, seed)
        args += [f"--{split}", str(root / f"{split}.csv")]
    return args


class TestRunCommand:
    def test_synthetic_self_mem(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        rc = main(
            [
                "run",
                "--dataset",
                "synthetic",
                "--method",
                "self-mem",
                "--epochs",
                "1",
                "--report",
                str(report_path),
            ]
        )
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "audit ok" in stdout
        assert "BLEU" in stdout
        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert report["audit"]["valid"] is True
        assert report["config"]["method"] == "self-mem"
        assert len(report["epochs"]) == 1

    def test_failed_audit_exits_non_zero_after_writing_the_report(
        self, tmp_path, capsys, monkeypatch
    ):
        real_build_subset = pipeline.build_subset

        def short_subset(*args, **kwargs):
            # a subset one pair short of its block fails the real size check
            return real_build_subset(*args, **kwargs)[:-1]

        monkeypatch.setattr(pipeline, "build_subset", short_subset)
        report_path = tmp_path / "report.json"
        rc = main(
            [
                "run",
                "--dataset",
                "synthetic",
                "--method",
                "self-mem",
                "--epochs",
                "1",
                "--report",
                str(report_path),
            ]
        )
        assert rc == EXIT_AUDIT_FAILED != 0
        assert "audit FAILED" in capsys.readouterr().out
        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert report["audit"]["valid"] is False

    def test_synthetic_rejects_split_files(self, tmp_path, capsys):
        rc = main(
            [
                "run",
                "--dataset",
                "synthetic",
                "--method",
                "self-mem",
                "--train",
                str(tmp_path / "t.json"),
            ]
        )
        assert rc == 2
        assert "do not apply" in capsys.readouterr().err

    def test_file_dataset_requires_all_splits(self, capsys):
        rc = main(["run", "--dataset", "dart", "--method", "self-mem"])
        assert rc == 2
        assert "--train, --val and --test are required" in capsys.readouterr().err

    def test_dart_files_run(self, tmp_path, capsys):
        entries = [DART_ENTRY] * 4 + ["bad entry"]
        train = tmp_path / "train.json"
        train.write_text(json.dumps(entries), encoding="utf-8")
        val = tmp_path / "val.json"
        val.write_text(json.dumps([DART_ENTRY]), encoding="utf-8")
        test = tmp_path / "test.json"
        # corpus-level scoring needs at least two test items
        test.write_text(json.dumps([DART_ENTRY, DART_ENTRY]), encoding="utf-8")
        report_path = tmp_path / "report.json"
        rc = main(
            [
                "run",
                "--dataset",
                "dart",
                "--train",
                str(train),
                "--val",
                str(val),
                "--test",
                str(test),
                "--method",
                "no-self-mem-1",
                "--epochs",
                "1",
                "--report",
                str(report_path),
            ]
        )
        captured = capsys.readouterr()
        assert rc == 0
        # the malformed train entry surfaces as a load-warning note
        assert "load warnings in train split" in captured.err
        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert report["config"]["dataset_sizes"] == {
            "train": 4,
            "validation": 1,
            "test": 2,
        }

    def test_repeated_plan_runs_more_epochs_than_examples(self, tmp_path, capsys):
        # a repeated block of both examples serves any number of epochs
        paths = {}
        for name, n in (("train", 2), ("val", 1), ("test", 2)):
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps([DART_ENTRY] * n), encoding="utf-8")
        report_path = tmp_path / "report.json"
        argv = ["run", "--dataset", "dart", "--method", "no-self-mem-2", "--ratio", "1", "--epochs", "3"]
        for name, path in paths.items():
            argv += [f"--{name}", str(path)]
        assert main(argv + ["--report", str(report_path)]) == 0
        assert "audit ok" in capsys.readouterr().out
        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert [e["subset_size"] for e in report["epochs"]] == [2, 2, 2]

    # exit code and failing audit checks per method on the `e2e_files`
    # corpus: without new data, a self-memory subset comes out short
    @pytest.mark.hash_seeds
    @pytest.mark.parametrize(
        "method, rc, failing",
        [
            ("no-self-mem-1", 0, []),
            ("no-self-mem-2", 0, []),
            ("no-self-mem-3", 0, []),
            ("self-mem", EXIT_AUDIT_FAILED, ["subset-size-equals-step1-size"]),
            ("self-mem+self-t2d", EXIT_AUDIT_FAILED, ["subset-size-equals-step1-size"]),
            ("self-mem+new-data", 0, []),
            ("self-mem+new-data+self-t2d", 0, []),
        ],
    )
    def test_e2e_files_run(self, e2e_files, tmp_path, capsys, method, rc, failing):
        report_path = tmp_path / "report.json"
        code = main(["run", "--dataset", "e2e", *e2e_files, "--method", method, "--report", str(report_path)])
        assert f"audit {'ok' if code == 0 else 'FAILED'}" in capsys.readouterr().out
        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert report["config"]["dataset_sizes"] == {"train": 400, "validation": 60, "test": 60}
        checks = {c["name"]: c for c in report["audit"]["checks"]}
        failed = [name for name, c in checks.items() if not c["passed"]]
        # every run writes its report and either passes its audit or fails
        # only the subset size
        assert (code, report["audit"]["valid"], failed) in ((0, True, []), (EXIT_AUDIT_FAILED, False, ["subset-size-equals-step1-size"]))
        assert (code, failed) == (rc, failing)
        if failed:
            detail = checks["subset-size-equals-step1-size"]["detail"]
            assert detail == "block size 120, subset sizes [100, 95, 102]"

    def test_non_utf8_e2e_file_exits_with_an_error(self, tmp_path, capsys):
        paths = []
        for split in ("train", "val", "test"):
            path = tmp_path / f"{split}.csv"
            path.write_bytes("mr,ref\nname[caf\xe9],Ref.\n".encode("latin-1"))
            paths += [f"--{split}", str(path)]
        rc = main(["run", "--dataset", "e2e", *paths, "--method", "self-mem"])
        assert rc != 0
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "train.csv is not UTF-8" in err

    def test_served_run_closes_its_connections(self, tmp_path, capsys):
        examples = [ex for split in synthetic_dataset(seed=42) for ex in split.examples]
        d2t = ModelServer(RuleServable(RuleBasedD2T()))
        t2d = ModelServer(RuleServable(RuleBasedT2D.from_examples(examples)))
        with d2t, t2d, warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            rc = main(
                [
                    "run",
                    "--dataset",
                    "synthetic",
                    "--method",
                    "self-mem",
                    "--epochs",
                    "1",
                    "--d2t-endpoint",
                    d2t.endpoint,
                    "--t2d-endpoint",
                    t2d.endpoint,
                    "--report",
                    str(tmp_path / "report.json"),
                ]
            )
            gc.collect()
        assert rc == 0
        assert "audit ok" in capsys.readouterr().out
        leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert not leaks, [str(w.message) for w in leaks]

    def test_resume_writes_the_snapshot_of_an_aborted_run(self, tmp_path, capsys):
        snap = tmp_path / "snap.json"
        report_path = tmp_path / "report.json"
        rc = main(
            [
                "run",
                "--dataset",
                "synthetic",
                "--method",
                "self-mem",
                "--d2t-endpoint",
                "127.0.0.1:9",
                "--resume",
                str(snap),
                "--report",
                str(report_path),
            ]
        )
        assert rc == 1
        assert "bootstrap aborted" in capsys.readouterr().err
        assert not report_path.exists()
        data = json.loads(snap.read_text(encoding="utf-8"))
        assert data["epoch"] == -1
        assert data["config"]["method"] == "self-mem"

    @pytest.mark.parametrize("flag", ["--report", "--resume"])
    def test_a_path_in_no_directory_is_refused_before_the_run(self, tmp_path, monkeypatch, capsys, flag):
        def unreachable(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr("d2t_selftrain.cli.synthetic_dataset", unreachable)
        monkeypatch.setattr(pipeline, "train_batch", unreachable)
        path = tmp_path / "missing" / "x.json"
        argv = ["run", "--dataset", "synthetic", "--method", "self-mem", "--report", str(tmp_path / "r.json")]
        assert main(argv + [flag, str(path)]) == 1
        assert capsys.readouterr().err == f"error: {flag} {path}: {path.parent} is not a directory\n"
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("flag", ["--report", "--resume"])
    def test_a_directory_is_refused_before_the_run(self, tmp_path, monkeypatch, capsys, flag):
        def unreachable(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr("d2t_selftrain.cli.synthetic_dataset", unreachable)
        monkeypatch.setattr(pipeline, "train_batch", unreachable)
        path = tmp_path / "out"
        path.mkdir()
        argv = ["run", "--dataset", "synthetic", "--method", "self-mem", "--report", str(tmp_path / "r.json")]
        assert main(argv + [flag, str(path)]) == 1
        assert capsys.readouterr().err == f"error: {flag} {path}: it is a directory\n"
        assert not (tmp_path / "r.json").exists()
        assert not any(path.iterdir())

    def test_bad_endpoint_flag(self, capsys):
        rc = main(
            [
                "run",
                "--dataset",
                "synthetic",
                "--method",
                "self-mem",
                "--d2t-endpoint",
                "no-port-here",
            ]
        )
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_dataset_exits_via_argparse(self):
        with pytest.raises(SystemExit) as exc_info:
            main(["run", "--dataset", "nope", "--method", "self-mem"])
        assert exc_info.value.code == 2

    def test_subcommand_required(self):
        with pytest.raises(SystemExit) as exc_info:
            main([])
        assert exc_info.value.code == 2


def test_module_entry_point_exits_with_the_commands_code():
    src = str(Path(d2t_selftrain.__file__).resolve().parent.parent)
    run = subprocess.run(
        [sys.executable, "-m", "d2t_selftrain.cli", "optimize", "--source", "junk", "--target", "x"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 1
    assert run.stderr.startswith("error: no parseable tripleset segment in 'junk'")


class _BlocksTrain(RuleServable):
    """Rule D2T servable whose third train request, epoch 2's after the
    bootstrap's and epoch 1's, waits until it is released."""

    def __init__(self):
        super().__init__(RuleBasedD2T())
        self.calls = 0
        self.arrived = threading.Event()
        self.release = threading.Event()

    def train(self, pairs):
        self.calls += 1
        if self.calls == 3:
            self.arrived.set()
            self.release.wait(60)
        return super().train(pairs)


def test_sigterm_interrupts_a_run_which_writes_its_snapshot_and_exits_130(tmp_path):
    src = str(Path(d2t_selftrain.__file__).resolve().parent.parent)
    servable = _BlocksTrain()
    snap, report = tmp_path / "snap.json", tmp_path / "report.json"
    with ModelServer(servable) as server:
        argv = [
            sys.executable, "-m", "d2t_selftrain.cli", "run", "--dataset", "synthetic", "--method", "self-mem",
            "--d2t-endpoint", server.endpoint, "--resume", str(snap), "--report", str(report),
        ]
        env = {**os.environ, "PYTHONPATH": src}
        with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
            try:
                arrived = servable.arrived.wait(60)
                if arrived:
                    proc.send_signal(signal.SIGTERM)
                else:
                    proc.kill()  # its stderr says why the request never came
                out, err = proc.communicate(timeout=60)
            finally:
                servable.release.set()
                if proc.poll() is None:
                    proc.kill()
    assert arrived, err
    assert proc.returncode == EXIT_INTERRUPTED == 130
    assert (out, err) == ("", "error: interrupted during epoch 2\n")
    data = json.loads(snap.read_text(encoding="utf-8"))
    assert (data["epoch"], data["reason"]) == (1, "interrupted")
    assert [e["epoch"] for e in data["state"]["epochs"]] == [0]
    assert data["state"]["best"]["d2t_tag"] == "d2t-epoch1"
    assert not report.exists()
