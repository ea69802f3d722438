import json
import shutil
import tracemalloc
from pathlib import Path

import pytest

from lingmask.cli import EX_FAIL, EX_IOERR, EX_OK, EX_TOLERANCE, EX_USAGE, main


class TestExitCodes:
    def test_no_subcommand(self, capsys):
        assert main([]) == EX_USAGE
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == EX_USAGE

    def test_unknown_flag(self):
        assert main(["normalize", "--bogus", "x"]) == EX_USAGE

    def test_missing_required_option(self):
        assert main(["normalize"]) == EX_USAGE

    def test_missing_input_file(self, tmp_path):
        code = main(
            ["normalize", "--input", str(tmp_path / "nope.jsonl"), "--output", str(tmp_path / "o")]
        )
        assert code == EX_IOERR

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "lingmask" in capsys.readouterr().out


class TestNormalize:
    def test_end_to_end(self, tmp_path):
        src = tmp_path / "docs.jsonl"
        out = tmp_path / "clean.jsonl"
        src.write_text(
            json.dumps({"id": "d1", "text": "A\tcat. A dog."}) + "\n", encoding="utf-8"
        )
        assert main(["normalize", "--input", str(src), "--output", str(out)]) == EX_OK
        record = json.loads(out.read_text().splitlines()[0])
        assert record == {"id": "d1", "sentences": ["A cat.", "A dog."]}
        sidecar = json.loads((tmp_path / "clean.jsonl.config.json").read_text())
        assert sidecar["subcommand"] == "normalize"
        assert sidecar["format"] == "jsonl"


class TestChunkStats:
    def test_report(self, tmp_path, capsys):
        ann = tmp_path / "ann.tsv"
        ann.write_text(
            "the\tDET\t0\nvalve\tNOUN\t0\nturns\tVERB\t-\n\n", encoding="utf-8"
        )
        assert main(["chunk-stats", "--annotations", str(ann)]) == EX_OK
        report = json.loads(capsys.readouterr().out)
        assert report["histogram"] == {"2": 1}
        assert report["token_nc_prob"] == pytest.approx(2 / 3)


class TestTokenizeStats:
    def test_report(self, tmp_path, data_dir, capsys):
        sentences = tmp_path / "sentences.txt"
        sentences.write_text("femto access point\naccess point\n", encoding="utf-8")
        code = main(
            [
                "tokenize-stats",
                "--input", str(sentences),
                "--vocab", str(data_dir / "vocab_general.txt"),
            ]
        )
        assert code == EX_OK
        report = json.loads(capsys.readouterr().out)
        assert report["mean_split_ratio"] == pytest.approx((5 / 3 + 1.0) / 2)
        assert report["word_hist"] == {"2": 1, "3": 1}


class TestMakePretrainingData:
    def test_generates_and_reruns_from_sidecar(self, tmp_path, annotated_corpus):
        tsv, vocab = annotated_corpus
        out1 = tmp_path / "ex1.jsonl"
        out2 = tmp_path / "ex2.jsonl"
        argv = [
            "make-pretraining-data",
            "--annotations", tsv,
            "--vocab", vocab,
            "--strategy", "lim",
            "--p-nc", "0.75",
            "--seed", "3",
            "--output", str(out1),
        ]
        assert main(argv) == EX_OK
        lines = out1.read_text().splitlines()
        assert len(lines) == 120
        first = json.loads(lines[0])
        assert first["strategy"] == "lim"
        assert first["branch"] in ("nc", "non_nc")
        # The sidecar re-runs to an identical output.
        sidecar = str(out1) + ".config.json"
        assert (
            main(["make-pretraining-data", "--config", sidecar, "--output", str(out2)])
            == EX_OK
        )
        assert out1.read_bytes() == out2.read_bytes()

    def test_workers_match_serial(self, tmp_path, annotated_corpus):
        tsv, vocab = annotated_corpus
        serial = tmp_path / "serial.jsonl"
        parallel = tmp_path / "parallel.jsonl"
        base = [
            "make-pretraining-data",
            "--annotations", tsv,
            "--vocab", vocab,
            "--seed", "5",
        ]
        assert main(base + ["--output", str(serial)]) == EX_OK
        assert main(base + ["--output", str(parallel), "--workers", "2"]) == EX_OK
        assert serial.read_bytes() == parallel.read_bytes()

    def test_flags_override_config_file(self, tmp_path, annotated_corpus):
        tsv, vocab = annotated_corpus
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"annotations": tsv, "vocab": vocab, "seed": 1}))
        out = tmp_path / "out.jsonl"
        assert (
            main(
                [
                    "make-pretraining-data",
                    "--config", str(cfg),
                    "--seed", "2",
                    "--output", str(out),
                ]
            )
            == EX_OK
        )
        sidecar = json.loads((tmp_path / "out.jsonl.config.json").read_text())
        assert sidecar["seed"] == 2

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        assert main(["make-pretraining-data", "--config", str(cfg)]) == EX_USAGE

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_late_bad_line_leaves_no_output_or_sidecar(self, tmp_path, annotated_corpus, workers):
        tsv, vocab = annotated_corpus
        bad = tmp_path / "bad.tsv"
        shutil.copyfile(tsv, bad)
        with open(bad, "a", encoding="utf-8") as handle:
            handle.write("the\tDET\t0\nvalve\tNOUN\n\n")
        out = tmp_path / "out.jsonl"
        argv = [
            "make-pretraining-data", "--annotations", str(bad), "--vocab", vocab,
            "--workers", workers, "--output", str(out),
        ]
        assert main(argv) == EX_FAIL
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.tsv"]

    def test_missing_annotations_leave_no_sidecar(self, tmp_path, annotated_corpus):
        _, vocab = annotated_corpus
        out = tmp_path / "out.jsonl"
        argv = [
            "make-pretraining-data", "--annotations", str(tmp_path / "missing.tsv"),
            "--vocab", vocab, "--output", str(out),
        ]
        assert main(argv) == EX_IOERR
        assert list(tmp_path.iterdir()) == []

    def test_peak_memory_flat_in_repeated_sentences(self, tmp_path, annotated_corpus):
        # Repeating the corpus adds sentences but no distinct lines or words,
        # so a streaming run needs no more memory for it.
        tsv, vocab = annotated_corpus
        text = Path(tsv).read_text(encoding="utf-8")
        repeated = tmp_path / "repeated.tsv"
        repeated.write_text(text * 4, encoding="utf-8")

        def peak(annotations):
            argv = [
                "make-pretraining-data", "--annotations", annotations, "--vocab", vocab,
                "--strategy", "lim", "--p-nc", "0.75", "--output", str(tmp_path / "out.jsonl"),
            ]
            tracemalloc.start()
            try:
                assert main(argv) == EX_OK
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(tsv)  # warm-up: one-time allocations of the first run
        assert peak(str(repeated)) <= 1.25 * peak(tsv)


class TestVerifyMasking:
    def test_law_holds_at_modest_scale(self, tmp_path):
        report_path = tmp_path / "report.json"
        code = main(
            [
                "verify-masking",
                "--strategy", "lim",
                "--p-nc", "0.75",
                "--n", "8000",
                "--seed", "7",
                "--tolerance", "0.02",
                "--output", str(report_path),
            ]
        )
        assert code == EX_OK
        report = json.loads(report_path.read_text())
        assert report["p_mask_given_y1"] == pytest.approx(0.222, abs=0.02)

    def test_tolerance_breach_exits_2(self):
        code = main(
            [
                "verify-masking",
                "--strategy", "lim",
                "--p-nc", "0.75",
                "--n", "500",
                "--seed", "1",
                "--tolerance", "0.0000001",
            ]
        )
        assert code == EX_TOLERANCE

    def test_mlm_strategy(self, capsys):
        code = main(
            ["verify-masking", "--strategy", "mlm", "--n", "2000", "--tolerance", "0.02"]
        )
        assert code == EX_OK
        report = json.loads(capsys.readouterr().out)
        assert report["p_mask_given_y0"] == pytest.approx(report["p_mask_given_y1"], abs=0.02)


class TestDatasetCommands:
    def test_make_ipc(self, tmp_path, patents_path):
        out = tmp_path / "ipc.jsonl"
        assert main(["make-ipc", "--input", patents_path, "--output", str(out)]) == EX_OK
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) == 18
        assert rows[0] == {
            "text": "What is claimed is a modular pump housing.",
            "label": "A61K",
        }

    def test_make_pairs_with_split(self, tmp_path, patents_path):
        out = tmp_path / "pairs.jsonl"
        code = main(
            [
                "make-pairs",
                "--input", patents_path,
                "--seed", "5",
                "--train-frac", "0.5",
                "--output", str(out),
            ]
        )
        assert code == EX_OK
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert rows and all(r["id_a"] != r["id_b"] for r in rows)
        train = (tmp_path / "pairs.train.jsonl").read_text().splitlines()
        test = (tmp_path / "pairs.test.jsonl").read_text().splitlines()
        assert len(train) + len(test) == len(rows)


class TestTrainTiny:
    def test_writes_metrics(self, tmp_path, annotated_corpus):
        tsv, vocab = annotated_corpus
        out = tmp_path / "metrics.csv"
        code = main(
            [
                "train-tiny",
                "--annotations", tsv,
                "--vocab", vocab,
                "--steps", "4",
                "--batch-size", "4",
                "--eval-every", "2",
                "--output", str(out),
            ]
        )
        assert code == EX_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "step,total_loss,nc_token_loss,non_nc_token_loss,eval"
        # initial eval + 4 train rows + evals at steps 2 and 4
        assert len(lines) == 1 + 1 + 4 + 2


class TestKsCompare:
    def test_compares_histograms(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps({"1": 2, "2": 2}))
        b.write_text(json.dumps({"3": 2, "4": 2}))
        assert main(["ks-compare", "--a", str(a), "--b", str(b)]) == EX_OK
        report = json.loads(capsys.readouterr().out)
        assert report["d_statistic"] == 1.0
        assert report["n1"] == 4 and report["n2"] == 4
