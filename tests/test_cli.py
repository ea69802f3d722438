import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lingmask import cli
from lingmask.cli import EX_FAIL, EX_IOERR, EX_OK, EX_TOLERANCE, EX_USAGE, main
from lingmask.corpus import CleanDocument
from lingmask.datasets import IpcExample, SimilarityPair
from lingmask.masking import BLOCK

from conftest import JSON_TEXT, make_annotated_corpus


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

    def test_no_subcommand_prints_top_level_usage(self, capsys):
        assert main(["--bogus"]) == EX_USAGE
        assert capsys.readouterr().err.startswith("usage: lingmask [-h] [--version]")

    @pytest.mark.parametrize(
        "argv,subcommand",
        [
            (["verify-masking", "--config", "{config}"], "verify-masking"),
            (["make-ipc", "--input", "patents.jsonl"], "make-ipc"),
            (["normalize", "--bogus", "x"], "normalize"),
        ],
        ids=["config-value", "missing-required", "unknown-flag"],
    )
    def test_subcommand_error_prints_its_usage(self, tmp_path, capsys, argv, subcommand):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"n": "x"}), encoding="utf-8")
        argv = [a.format(config=config) for a in argv]
        assert main(argv) == EX_USAGE
        assert capsys.readouterr().err.startswith(f"usage: lingmask {subcommand} [-h]")

    @pytest.mark.parametrize(
        "subcommand", ["make-pretraining-data", "verify-masking", "make-pairs", "train-tiny"]
    )
    def test_negative_seed_names_the_flag(self, tmp_path, annotated_corpus, patents_path, capsys, subcommand):
        tsv, vocab = annotated_corpus
        inputs = {
            "make-pretraining-data": ["--annotations", tsv, "--vocab", vocab],
            "verify-masking": ["--n", "10"],
            "make-pairs": ["--input", patents_path],
            "train-tiny": ["--annotations", tsv, "--vocab", vocab, "--steps", "1"],
        }[subcommand]
        out = tmp_path / "out"
        assert main([subcommand, *inputs, "--seed", "-1", "--output", str(out)]) == EX_FAIL
        assert "error: --seed must be >= 0, got -1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "(example-format 2)" in capsys.readouterr().out


class TestConfigFile:
    @pytest.mark.parametrize(
        "content,named",
        [
            (json.dumps({"strategy": "bogus"}), "--strategy"),
            (json.dumps({"seed": "x"}), "--seed"),
            (json.dumps({"n": 2.7}), "--n"),
            ("n = 2\n", "run.json"),
        ],
        ids=["strategy", "seed", "n", "not-json"],
    )
    def test_values_checked_like_flags(self, tmp_path, capsys, content, named):
        cfg = tmp_path / "run.json"
        cfg.write_text(content, encoding="utf-8")
        argv = [
            "verify-masking", "--config", str(cfg),
            "--p-nc", "0.75", "--seq-len", "8", "--tolerance", "1",
        ]
        assert main(argv) == EX_USAGE
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand", ["normalize", "chunk-stats", "tokenize-stats", "ks-compare"])
    def test_sidecar_replays_to_same_output(self, tmp_path, annotated_corpus, data_dir, subcommand):
        docs = tmp_path / "docs.tsv"
        docs.write_text("d1\tA cat. A dog.\nd2\tThe valve turns.\n", encoding="utf-8")
        sentences = tmp_path / "sentences.txt"
        sentences.write_text("femto access point\naccess point\n", encoding="utf-8")
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps({"1": 2, "2": 5}))
        b.write_text(json.dumps({"2": 1, "4": 3}))
        options = {
            "normalize": ["--input", str(docs), "--format", "tsv"],
            "chunk-stats": ["--annotations", annotated_corpus[0], "--max-chunk-len", "3"],
            "tokenize-stats": [
                "--input", str(sentences), "--vocab", str(data_dir / "vocab_general.txt"),
            ],
            "ks-compare": ["--a", str(a), "--b", str(b)],
        }[subcommand]
        first = tmp_path / "first.out"
        replay = tmp_path / "replay.out"
        assert main([subcommand, *options, "--output", str(first)]) == EX_OK
        sidecar = f"{first}.config.json"
        assert main([subcommand, "--config", sidecar, "--output", str(replay)]) == EX_OK
        assert replay.read_bytes() == first.read_bytes()


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


# Reference forms of the dataset records: each record's dict through
# json.dumps. The writers build the same bytes from pieces.
def _dumps(record):
    return json.dumps(record, ensure_ascii=False)


class TestRecordWriters:
    @given(JSON_TEXT.filter(bool), st.lists(JSON_TEXT, max_size=4))
    def test_document_record(self, doc_id, sentences):
        doc = CleanDocument(id=doc_id, sentences=sentences)
        assert cli._document_record(doc) == _dumps({"id": doc_id, "sentences": sentences})

    @given(JSON_TEXT, st.from_regex(r"[A-Z]\d{2}[A-Z]", fullmatch=True))
    def test_ipc_record(self, text, label):
        example = IpcExample(text=text, label=label)
        assert cli._ipc_record(example) == _dumps({"text": text, "label": label})

    @given(st.lists(st.tuples(JSON_TEXT, JSON_TEXT, JSON_TEXT, JSON_TEXT, st.booleans()), max_size=6))
    def test_pair_records_share_one_cache(self, fields):
        # Texts and ids repeat across pairs and between the two kinds of
        # field; one cache serves a whole run.
        pairs = [
            SimilarityPair(text_a, text_b, id_a, id_a + "|" + id_b, label)
            for text_a, text_b, id_a, id_b, label in fields
        ]
        pairs += pairs[::-1] + [SimilarityPair(p.id_a, p.text_a, p.text_b, p.text_b + "|", p.label) for p in pairs]
        quoted = cli._Quoted()
        for pair in pairs:
            expected = _dumps(
                {"text_a": pair.text_a, "text_b": pair.text_b, "id_a": pair.id_a, "id_b": pair.id_b, "label": pair.label}
            )
            assert cli._pair_record(pair, quoted) == expected


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

    def test_sidecar_of_another_subcommand_rejected(self, tmp_path, annotated_corpus, capsys):
        # train-tiny takes every option make-pretraining-data's sidecar holds,
        # so only the sidecar's subcommand key stops it overwriting that output.
        tsv, vocab = annotated_corpus
        out = tmp_path / "ex.jsonl"
        argv = ["make-pretraining-data", "--annotations", tsv, "--vocab", vocab, "--output", str(out)]
        assert main(argv) == EX_OK
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        capsys.readouterr()
        sidecar = str(out) + ".config.json"
        assert main(["train-tiny", "--config", sidecar, "--steps", "5"]) == EX_USAGE
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before
        assert "is for make-pretraining-data, not train-tiny" in capsys.readouterr().err

    def test_workers_is_no_longer_an_option(self, tmp_path, annotated_corpus):
        tsv, vocab = annotated_corpus
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"annotations": tsv, "vocab": vocab, "workers": 1}))
        out = str(tmp_path / "out.jsonl")
        assert main(["make-pretraining-data", "--config", str(cfg), "--output", out]) == EX_USAGE
        base = ["make-pretraining-data", "--annotations", tsv, "--vocab", vocab, "--output", out]
        assert main(base + ["--workers", "2"]) == EX_USAGE

    @pytest.mark.parametrize("n", [100, 300])
    def test_output_of_a_prefix_is_a_prefix(self, tmp_path, n):
        # Masking draws are keyed by (seed, block of BLOCK ordinals), so the
        # first n sentences get the same records alone as in the whole corpus,
        # also when n ends inside a block.
        full_tsv, vocab = tmp_path / "full.tsv", tmp_path / "vocab.txt"
        make_annotated_corpus(full_tsv, vocab, n_sentences=600, seed=21)
        sentences = full_tsv.read_text(encoding="utf-8").split("\n\n")
        prefix_tsv = tmp_path / "prefix.tsv"
        prefix_tsv.write_text("\n\n".join(sentences[:n]) + "\n\n", encoding="utf-8")
        outputs = []
        for name, tsv in (("full", full_tsv), ("prefix", prefix_tsv)):
            out = tmp_path / f"{name}.jsonl"
            argv = [
                "make-pretraining-data", "--annotations", str(tsv), "--vocab", str(vocab),
                "--strategy", "lim", "--p-nc", "0.75", "--seed", "4", "--output", str(out),
            ]
            assert main(argv) == EX_OK
            outputs.append(out.read_text(encoding="utf-8").splitlines())
        full, prefix = outputs
        assert len(full) == 600 and n % BLOCK and len(prefix) == n
        assert prefix == full[:n]

    @pytest.mark.parametrize("subcommand", ["make-pretraining-data", "train-tiny"])
    def test_lim_without_p_nc_names_the_flag(self, tmp_path, annotated_corpus, capsys, subcommand):
        tsv, vocab = annotated_corpus
        argv = [
            subcommand, "--annotations", tsv, "--vocab", vocab, "--strategy", "lim",
            "--output", str(tmp_path / "out"),
        ]
        assert main(argv) == EX_FAIL
        assert "error: --p-nc is required with --strategy lim" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_late_bad_line_leaves_no_output_or_sidecar(self, tmp_path, annotated_corpus):
        tsv, vocab = annotated_corpus
        bad = tmp_path / "bad.tsv"
        shutil.copyfile(tsv, bad)
        with open(bad, "a", encoding="utf-8") as handle:
            handle.write("the\tDET\t0\nvalve\tNOUN\n\n")
        out = tmp_path / "out.jsonl"
        argv = [
            "make-pretraining-data", "--annotations", str(bad), "--vocab", vocab,
            "--output", str(out),
        ]
        assert main(argv) == EX_FAIL
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.tsv"]

    @pytest.mark.parametrize(
        "field,corrupt",
        [
            ("labels", lambda labels: [np.int64(v) for v in labels]),
            ("masked_positions", lambda positions: [bool(v) for v in positions]),
            ("doc_id", len),
        ],
        ids=["numpy-label", "bool-position", "int-doc-id"],
    )
    def test_non_json_value_writes_nothing(self, tmp_path, annotated_corpus, monkeypatch, field, corrupt):
        build_example = cli.build_example

        def corrupted(seq, config, row):
            example = build_example(seq, config, row)
            setattr(example, field, corrupt(getattr(example, field)))
            return example

        monkeypatch.setattr(cli, "build_example", corrupted)
        tsv, vocab = annotated_corpus
        argv = [
            "make-pretraining-data", "--annotations", tsv, "--vocab", vocab,
            "--output", str(tmp_path / "out.jsonl"),
        ]
        with pytest.raises(TypeError):
            main(argv)
        assert list(tmp_path.iterdir()) == []

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

    @pytest.mark.parametrize("flag", ["--n", "--seq-len"])
    def test_nonpositive_sizes_name_the_flag(self, capsys, flag):
        assert main(["verify-masking", flag, "0"]) == EX_FAIL
        assert f"error: {flag} must be >= 1, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag,value,rule",
        [("--mask-prob", "0", "must be in (0, 1), got 0.0"), ("--max-pred", "0", "must be >= 1, got 0"),
         ("--p-y1", "2", "must be in [0, 1], got 2.0"), ("--p-nc", "-0.5", "must be in [0, 1], got -0.5"),
         ("--tolerance", "-1", "must be >= 0, got -1.0"), ("--tolerance", "nan", "must be >= 0, got nan")],
    )
    def test_bad_values_name_the_flag(self, tmp_path, capsys, flag, value, rule):
        argv = ["verify-masking", "--n", "10", flag, value, "--output", str(tmp_path / "report.json")]
        assert main(argv) == EX_FAIL
        assert f"error: {flag} {rule}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_runs_with_its_defaults(self, capsys):
        assert main(["verify-masking"]) == EX_OK
        report = json.loads(capsys.readouterr().out)
        assert report["n_sequences"] == 100000
        assert report["expected_p_mask_given_y1"] == pytest.approx(0.15 * 0.75 / report["p_y1"])

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

    @pytest.mark.parametrize("missing_input", [False, True], ids=["input", "missing-input"])
    @pytest.mark.parametrize("value", ["1.5", "-0.5", "nan", "inf"])
    def test_bad_train_frac_names_the_flag_before_reading_input(
        self, tmp_path, patents_path, capsys, missing_input, value
    ):
        patents = str(tmp_path / "missing.jsonl") if missing_input else patents_path
        argv = ["make-pairs", "--input", patents, "--train-frac", value,
                "--output", str(tmp_path / "pairs.jsonl")]
        assert main(argv) == EX_FAIL
        assert f"error: --train-frac must be in [0, 1], got {value}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


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

    @pytest.mark.parametrize("missing_input", [False, True], ids=["input", "missing-input"])
    @pytest.mark.parametrize(
        "subcommand,flag,value,rule",
        [
            ("train-tiny", "--lr", "-0.5", "must be finite and >= 0, got -0.5"),
            ("train-tiny", "--lr", "inf", "must be finite and >= 0, got inf"),
            ("train-tiny", "--steps", "-1", "must be >= 0, got -1"),
            ("train-tiny", "--batch-size", "0", "must be >= 1, got 0"),
            ("train-tiny", "--eval-every", "0", "must be >= 1, got 0"),
            ("train-tiny", "--hidden-dim", "0", "must be >= 1, got 0"),
            ("train-tiny", "--context-radius", "-1", "must be >= 0, got -1"),
            ("train-tiny", "--eval-fraction", "0", "must be in (0, 1), got 0.0"),
            ("train-tiny", "--eval-fraction", "1", "must be in (0, 1), got 1.0"),
            ("chunk-stats", "--max-chunk-len", "0", "must be >= 1, got 0"),
        ],
    )
    def test_bad_values_name_the_flag_before_reading_input(
        self, tmp_path, annotated_corpus, capsys, missing_input, subcommand, flag, value, rule
    ):
        tsv, vocab = annotated_corpus
        if missing_input:
            tsv = str(tmp_path / "missing.tsv")
        argv = [subcommand, "--annotations", tsv, flag, value, "--output", str(tmp_path / "out")]
        if subcommand == "train-tiny":
            argv += ["--vocab", vocab]
        assert main(argv) == EX_FAIL
        assert f"error: {flag} {rule}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


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

    def test_counts_are_not_expanded(self, tmp_path, capsys):
        # Keys naming the same integer add up: "03" and "3" are one value.
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps({"3": 10**8, "03": 10**8}))
        b.write_text(json.dumps({"3": 1, "4": 1}))
        assert main(["ks-compare", "--a", str(a), "--b", str(b)]) == EX_OK
        report = json.loads(capsys.readouterr().out)
        assert report["d_statistic"] == 0.5
        assert report["n1"] == 2 * 10**8 and report["n2"] == 2

    def test_chunk_stats_report_names_file_and_key(self, tmp_path, annotated_corpus, capsys):
        a, report = tmp_path / "a.json", tmp_path / "report.json"
        a.write_text(json.dumps({"1": 2}))
        assert main(["chunk-stats", "--annotations", annotated_corpus[0], "--output", str(report)]) == EX_OK
        assert main(["ks-compare", "--a", str(a), "--b", str(report)]) == EX_FAIL
        assert f"error: {report}: histogram key 'histogram' is not an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("count", ["-5", "3.7", "true", '"2"'])
    def test_count_must_be_a_non_negative_integer(self, tmp_path, capsys, count):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps({"1": 2}))
        b.write_text(f'{{"1": 1, "2": {count}}}')
        assert main(["ks-compare", "--a", str(a), "--b", str(b)]) == EX_FAIL
        err = capsys.readouterr().err
        assert f"error: {b}: count of key '2' must be a non-negative integer, got {count}" in err

    def test_non_json_file_is_named(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps({"1": 2}))
        b.write_text("1: 2\n")
        assert main(["ks-compare", "--a", str(a), "--b", str(b)]) == EX_FAIL
        assert f"error: {b}: histogram file is not JSON" in capsys.readouterr().err


def test_no_subcommand_imports_numpy_random(tmp_path, annotated_corpus):
    """numpy.random loads OpenSSL through ``secrets``; the subcommands that
    draw random numbers use their own generators instead."""
    tsv, vocab = annotated_corpus
    root = Path(__file__).resolve().parents[1]
    script = f"""
import sys
from lingmask.cli import main
assert main(["train-tiny", "--annotations", {tsv!r}, "--vocab", {vocab!r}, "--steps", "3",
             "--batch-size", "4", "--output", {str(tmp_path / "metrics.csv")!r}]) == 0
assert main(["verify-masking", "--n", "300", "--tolerance", "1",
             "--output", {str(tmp_path / "report.json")!r}]) == 0
assert main(["make-pretraining-data", "--annotations", {tsv!r}, "--vocab", {vocab!r},
             "--output", {str(tmp_path / "examples.jsonl")!r}]) == 0
assert "numpy.random" not in sys.modules, "numpy.random was imported"
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
