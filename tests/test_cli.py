"""End-to-end tests of the command-line entry point."""

import gc
import io
import json
import warnings

import pytest

from conftest import DART_SOURCE, DART_TARGET
from d2t_selftrain import ModelServer, RuleBasedD2T, RuleBasedT2D, RuleServable, synthetic_dataset
from d2t_selftrain import pipeline
from d2t_selftrain.cli import EXIT_AUDIT_FAILED, main

DART_ENTRY = {
    "tripleset": [
        ["Clapham", "STARTED", "20 August"],
        ["Clapham", "ENDED", "20 November"],
        ["Clapham", "LOAN_CLUB", "Wolverhampton Wanderers"],
    ],
    "annotations": [{"text": DART_TARGET}],
}


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

    def test_dropped_counted(self, monkeypatch, capsys):
        _feed_stdin(monkeypatch, "A : P : B | junk\n")
        assert main(["delinearize"]) == 0
        assert json.loads(capsys.readouterr().out)["dropped"] == 1

    def test_unparseable_line(self, monkeypatch, capsys):
        _feed_stdin(monkeypatch, "no separators here\n")
        assert main(["delinearize"]) == 1
        assert "error:" in capsys.readouterr().err


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

    @pytest.mark.parametrize("sep", ["\u2028", "\u2029", "\x85", "\x1c", "\x1d", "\x1e", "\x0b", "\x0c"])
    def test_lines_break_at_newline_only(self, tmp_path, capsys, sep):
        # splitlines() would cut hyp line 1 and refs line 2 in two, leaving
        # three misaligned items; the tokenizer reads `sep` as a space
        hyp = self._write(tmp_path / "hyp.txt", [f"the cat{sep}sat down", "a dog ran over the hill"])
        refs = self._write(tmp_path / "refs.txt", ["the cat sat down", f"a dog ran{sep}over the hill"])
        assert main(["eval", "--hyp", hyp, "--refs", refs]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["bleu"] == 1.0
        assert report["ter"] == 0.0

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

    def test_missing_file(self, tmp_path, capsys):
        refs = self._write(tmp_path / "refs.txt", ["x"])
        rc = main(["eval", "--hyp", str(tmp_path / "nope.txt"), "--refs", refs])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


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
