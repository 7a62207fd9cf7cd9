"""End-to-end tests of the command-line entry point."""

import csv
import gc
import io
import json
import random
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
        assert capsys.readouterr().err.startswith("error: JSON nested too deeply")

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
