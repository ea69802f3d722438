import dataclasses
import errno
import json
import logging
import os
import shutil
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lingmask import cli, masking
from lingmask.cli import EX_FAIL, EX_IOERR, EX_OK, EX_TOLERANCE, EX_USAGE, main
from lingmask.corpus import CleanDocument
from lingmask.datasets import IpcExample, SimilarityPair
from lingmask.masking import BLOCK
from lingmask.stats import ks_from_counts, ks_two_sample

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

    @pytest.mark.parametrize("seed,rule", [(-1, "must be >= 0"), (2**64, "must be < 2**64")])
    @pytest.mark.parametrize(
        "subcommand", ["make-pretraining-data", "verify-masking", "make-pairs", "train-tiny"]
    )
    def test_negative_seed_names_the_flag(self, tmp_path, annotated_corpus, patents_path, capsys, subcommand, seed, rule):
        tsv, vocab = annotated_corpus
        inputs = {
            "make-pretraining-data": ["--annotations", tsv, "--vocab", vocab],
            "verify-masking": ["--n", "10"],
            "make-pairs": ["--input", patents_path],
            "train-tiny": ["--annotations", tsv, "--vocab", vocab, "--steps", "1"],
        }[subcommand]
        out = tmp_path / "out"
        assert main([subcommand, *inputs, "--seed", str(seed), "--output", str(out)]) == EX_FAIL
        assert f"error: --seed {rule}, got {seed}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "(example-format 2)" in capsys.readouterr().out


class TestVerbosity:
    def test_verbose_prints_info_and_does_not_carry_over(self, tmp_path, data_dir):
        # In its own process, so that basicConfig installs the stderr handler
        # a command-line run gets.
        root = Path(__file__).resolve().parents[1]
        argv = ["normalize", "--input", str(data_dir / "documents.jsonl")]
        script = f"""
import sys
from lingmask.cli import main
assert main(["-v", *{argv!r}, "--output", {str(tmp_path / "a.jsonl")!r}]) == 0
print("--", file=sys.stderr)
assert main([*{argv!r}, "--output", {str(tmp_path / "b.jsonl")!r}]) == 0
"""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == "INFO normalized 12 documents\n--\n"

    @pytest.mark.parametrize("subcommand", ["make-ipc", "make-pairs"])
    def test_verbose_logs_the_counts(self, tmp_path, patents_path, caplog, subcommand):
        argv = ["-v", subcommand, "--input", patents_path, "--output", str(tmp_path / "out.jsonl")]
        assert main(argv) == EX_OK
        assert [r.getMessage() for r in caplog.records if r.levelno == logging.INFO] == [
            {
                "make-ipc": "wrote 18 examples, skipped: "
                "{'invalid_tag': 1, 'skipped_no_valid_tags': 1, 'skipped_empty_claims': 1}",
                "make-pairs": "wrote 12 pairs, dropped: "
                "{'skipped_missing_text': 1, 'skipped_unknown_cited': 1, 'dropped_same_doc': 1}",
            }[subcommand]
        ]

    @pytest.mark.parametrize("flags", [[], ["-v"]], ids=["plain", "verbose"])
    def test_the_callers_level_is_kept(self, tmp_path, patents_path, flags):
        logger = logging.getLogger("lingmask")
        level = logger.level
        logger.setLevel(logging.DEBUG)
        try:
            argv = [*flags, "make-ipc", "--input", patents_path, "--output", str(tmp_path / "ipc.jsonl")]
            assert main(argv) == EX_OK
            assert logger.level == logging.DEBUG
        finally:
            logger.setLevel(level)

    def test_not_in_the_sidecar(self, tmp_path, patents_path):
        out = tmp_path / "ipc.jsonl"
        assert main(["-v", "make-ipc", "--input", patents_path, "--output", str(out)]) == EX_OK
        sidecar = json.loads((tmp_path / "ipc.jsonl.config.json").read_text(encoding="utf-8"))
        assert sidecar == {"subcommand": "make-ipc", "input": patents_path, "output": str(out)}


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

    def test_section_key_is_ignored(self, tmp_path):
        src = tmp_path / "docs.jsonl"
        out = tmp_path / "clean.jsonl"
        record = {"id": "d1", "text": "A\tcat. A dog."}
        sections = [{}, {"section": "claims"}, {"section": "figures"}, {"section": 5}]
        src.write_text(
            "".join(json.dumps({**record, **section}) + "\n" for section in sections), encoding="utf-8"
        )
        assert main(["normalize", "--input", str(src), "--output", str(out)]) == EX_OK
        assert out.read_bytes() == b'{"id": "d1", "sentences": ["A cat.", "A dog."]}\n' * 4


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

    def test_quoted_keeps_no_copy_of_a_text_that_needs_no_escaping(self):
        text = "".join(["a valve ", "é \u2028 \U0001f600 \x7f"])
        quoted = cli._Quoted()
        assert quoted[text] is text
        assert quoted[text] is text  # and the memo hands back the same object

    @given(JSON_TEXT)
    def test_quoted_is_the_escaped_body(self, text):
        body = cli._Quoted()[text]
        assert body == _dumps(text)[1:-1]
        assert (body is text) == (body == text)

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


class TestUnknownPosWarning:
    @pytest.mark.parametrize("subcommand", ["chunk-stats", "make-pretraining-data"])
    def test_one_warning_with_the_counts(self, tmp_path, caplog, subcommand):
        ann, vocab = tmp_path / "ann.tsv", tmp_path / "vocab.txt"
        ann.write_text("the\tDET\t0\nvalve\tFOO\t0\nturns\tFOO\t-\n\nvalve\tBAR\t-\n\n", encoding="utf-8")
        vocab.write_text("[UNK]\n[MASK]\nthe\nvalve\nturns\n", encoding="utf-8")
        argv = [subcommand, "--annotations", str(ann), "--output", str(tmp_path / "out")]
        if subcommand == "make-pretraining-data":
            argv += ["--vocab", str(vocab)]
        with caplog.at_level(logging.WARNING, logger="lingmask"):
            assert main(argv) == EX_OK
        assert [r.getMessage() for r in caplog.records if "unknown POS" in r.getMessage()] == [
            "unknown POS tags mapped to X: {'FOO': 2, 'BAR': 1}"
        ]


class TestWhitespaceInSurface:
    @pytest.mark.parametrize("subcommand", ["chunk-stats", "make-pretraining-data", "train-tiny"])
    def test_rejected_naming_the_line_and_nothing_written(self, tmp_path, capsys, subcommand):
        # The subword encoder takes no word with whitespace in it, so a
        # statistic counted over such a token would cover input that the
        # masked data could not be built from.
        ann, vocab = tmp_path / "ann.tsv", tmp_path / "vocab.txt"
        ann.write_text("the\tDET\t0\nred valve\tNOUN\t0\n\n", encoding="utf-8")
        vocab.write_text("[UNK]\n[MASK]\nthe\nred\nvalve\n", encoding="utf-8")
        argv = [subcommand, "--annotations", str(ann), "--output", str(tmp_path / "out")]
        if subcommand != "chunk-stats":
            argv += ["--vocab", str(vocab)]
        assert main(argv) == EX_FAIL
        assert capsys.readouterr().err == f"lingmask: error: {ann}: whitespace in token surface at line 2\n"
        assert _names(tmp_path) == ["ann.tsv", "vocab.txt"]


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

    def test_peak_memory_flat_in_repeated_sentences(self, tmp_path, data_dir):
        # Repeating the input adds sentences but no distinct words, so a
        # streaming run needs no more memory for it.
        text = "".join(f"femto access point {'access ' * (i % 7)}point\n" for i in range(1000))
        once, repeated = tmp_path / "once.txt", tmp_path / "repeated.txt"
        once.write_text(text, encoding="utf-8")
        repeated.write_text(text * 4, encoding="utf-8")
        vocab = str(data_dir / "vocab_general.txt")

        def traced_peak(sentences):
            argv = ["tokenize-stats", "--input", str(sentences), "--vocab", vocab, "--output", str(tmp_path / "o.json")]
            tracemalloc.start()
            try:
                assert main(argv) == EX_OK
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        traced_peak(once)  # warm-up: one-time allocations of the first run
        assert traced_peak(repeated) <= 1.25 * traced_peak(once)


class TestMakePretrainingData:
    def test_one_record_per_sentence_at_max_seq_len_one(self, tmp_path):
        # A parsed sentence has a token, a token encodes to at least one
        # piece ([UNK] at worst), and --max-seq-len is at least 1, so no
        # sentence encodes to an empty sequence and none is dropped.
        n = 5
        ann, vocab, out = tmp_path / "ann.tsv", tmp_path / "vocab.txt", tmp_path / "out.jsonl"
        ann.write_text("".join(f"zz{i}\tNOUN\t0\n\n" for i in range(n)), encoding="utf-8")
        vocab.write_text("[UNK]\n[MASK]\nthe\n", encoding="utf-8")
        argv = [
            "make-pretraining-data", "--annotations", str(ann), "--vocab", str(vocab),
            "--max-seq-len", "1", "--output", str(out),
        ]
        assert main(argv) == EX_OK
        records = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
        assert [r["doc_id"] for r in records] == [f"sent-{i}" for i in range(n)]
        assert all(r["labels"] == [0] for r in records)  # the one piece is [UNK]

    @pytest.mark.parametrize(
        "fault,message",
        [
            ("repeated", "masked positions must be strictly increasing"),
            ("past-length", "masked position out of bounds"),
            ("negative", "masked position out of bounds"),
        ],
    )
    def test_sampler_row_out_of_order_or_bounds_writes_nothing(
        self, tmp_path, annotated_corpus, monkeypatch, capsys, fault, message
    ):
        # The rows are checked a batch at a time, not per example.
        mask_rows = masking.mask_rows

        def faulty(flags, lengths, config, start=0, replacements=True):
            masked = mask_rows(flags, lengths, config, start, replacements)
            row = int(np.argmax(masked.counts >= 2))
            assert masked.counts[row] >= 2
            first, positions = int(masked.counts[:row].sum()), masked.positions.copy()
            if fault == "repeated":
                positions[first + 1] = positions[first]
            elif fault == "past-length":
                positions[first + masked.counts[row] - 1] = lengths[row]
            else:
                positions[first] = -1
            return masked._replace(positions=positions)

        monkeypatch.setattr(masking, "mask_rows", faulty)
        tsv, vocab = annotated_corpus
        out = tmp_path / "out"
        out.mkdir()
        argv = [
            "make-pretraining-data", "--annotations", tsv, "--vocab", vocab, "--mask-prob", "0.5",
            "--output", str(out / "ex.jsonl"),
        ]
        assert main(argv) == EX_FAIL
        assert capsys.readouterr().err.endswith(f"lingmask: error: {message}\n")
        assert list(out.iterdir()) == []

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

    def test_records_take_weights_and_strategy_from_the_run(self, tmp_path, annotated_corpus):
        # No golden digest pins a --max-pred other than the default 20.
        tsv, vocab = annotated_corpus
        out = tmp_path / "ex.jsonl"
        argv = [
            "make-pretraining-data", "--annotations", tsv, "--vocab", vocab,
            "--strategy", "lim", "--p-nc", "0.75", "--max-pred", "5", "--output", str(out),
        ]
        assert main(argv) == EX_OK
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(records) == 120
        for record in records:
            n = len(record["masked_positions"])
            assert 1 <= n <= 5
            assert record["weights"] == [1.0] * n + [0.0] * (5 - n)
            assert record["strategy"] == "lim"

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

    @pytest.mark.parametrize("subcommand", ["make-pretraining-data", "train-tiny"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_p_nc_under_mlm_names_the_flag(self, tmp_path, annotated_corpus, capsys, subcommand, source):
        # mlm masking ignores p_nc, so a set value would only be recorded in
        # the sidecar as if it applied.
        tsv, vocab = annotated_corpus
        argv = [subcommand, "--annotations", tsv, "--vocab", vocab, "--strategy", "mlm"]
        if source == "flag":
            argv += ["--p-nc", "0.3"]
        else:
            cfg = tmp_path / "run.json"
            cfg.write_text(json.dumps({"p_nc": 0.3}), encoding="utf-8")
            argv += ["--config", str(cfg)]
        assert main([*argv, "--output", str(tmp_path / "out")]) == EX_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"usage: lingmask {subcommand} [-h]")
        assert "error: --p-nc applies only to --strategy lim" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("subcommand", ["make-pretraining-data", "train-tiny"])
    def test_mlm_sidecar_records_no_p_nc_and_replays(self, tmp_path, annotated_corpus, subcommand):
        tsv, vocab = annotated_corpus
        argv = [subcommand, "--annotations", tsv, "--vocab", vocab, "--strategy", "mlm"]
        if subcommand == "train-tiny":
            argv += ["--steps", "2", "--batch-size", "4", "--eval-every", "2"]
        first, replay = tmp_path / "first.out", tmp_path / "replay.out"
        assert main([*argv, "--output", str(first)]) == EX_OK
        sidecar = f"{first}.config.json"
        assert json.loads(Path(sidecar).read_text(encoding="utf-8"))["p_nc"] is None
        assert main([subcommand, "--config", sidecar, "--output", str(replay)]) == EX_OK
        assert replay.read_bytes() == first.read_bytes()

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

    @staticmethod
    def _traced_peak(annotations, vocab, out):
        """Peak traced memory of one lim run over ``annotations``."""
        argv = [
            "make-pretraining-data", "--annotations", annotations, "--vocab", vocab,
            "--strategy", "lim", "--p-nc", "0.75", "--output", str(out),
        ]
        tracemalloc.start()
        try:
            assert main(argv) == EX_OK
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_memory_flat_in_repeated_sentences(self, tmp_path, annotated_corpus):
        # Repeating the corpus adds sentences but no distinct lines or words,
        # so a streaming run needs no more memory for it.
        tsv, vocab = annotated_corpus
        text = Path(tsv).read_text(encoding="utf-8")
        repeated = tmp_path / "repeated.tsv"
        repeated.write_text(text * 4, encoding="utf-8")
        out = tmp_path / "out.jsonl"
        self._traced_peak(tsv, vocab, out)  # warm-up: one-time allocations of the first run
        assert self._traced_peak(str(repeated), vocab, out) <= 1.25 * self._traced_peak(tsv, vocab, out)

    def test_peak_memory_flat_when_chunk_ids_renumbered(self, tmp_path, annotated_corpus):
        # Copy k adds 100 * k to every chunk id: its lines are new, but its
        # (surface, POS) pairs and words are not, and the parse memo is keyed
        # by those and by the few distinct chunk columns.
        tsv, vocab = annotated_corpus
        lines = Path(tsv).read_text(encoding="utf-8").splitlines(keepends=True)

        def renumbered(line, k):
            head, tab, cid = line.rstrip("\n").rpartition("\t")
            if not tab or cid == "-":
                return line
            return f"{head}\t{int(cid) + 100 * k}\n"

        copies = tmp_path / "renumbered.tsv"
        copies.write_text(
            "".join(renumbered(line, k) for k in range(16) for line in lines), encoding="utf-8"
        )
        out = tmp_path / "out.jsonl"
        self._traced_peak(tsv, vocab, out)  # warm-up: one-time allocations of the first run
        assert self._traced_peak(str(copies), vocab, out) <= 1.25 * self._traced_peak(tsv, vocab, out)


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

    def test_peak_memory_flat_in_n(self, tmp_path):
        # Blocks of synthetic flags are drawn one at a time and counted 16 at
        # a time (the default --strategy lim), so ten times the sequences need
        # no more memory.
        def traced_peak(n):
            argv = ["verify-masking", "--n", str(n), "--tolerance", "1", "--output", str(tmp_path / "o.json")]
            tracemalloc.start()
            try:
                assert main(argv) == EX_OK
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        traced_peak(10 * BLOCK)  # warm-up: one-time allocations of the first run
        assert traced_peak(100 * BLOCK) <= 1.25 * traced_peak(10 * BLOCK)

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


def _names(directory: Path) -> list[str]:
    return sorted(path.name for path in directory.iterdir())


class TestOneCommitPerRun:
    """A run's outputs and sidecar are renamed into place together when the
    command returns, from temporary files of its own."""

    def _make_pairs(self, patents, out, train_frac="0.5"):
        return main(["make-pairs", "--input", patents, "--train-frac", train_frac, "--output", str(out)])

    def test_split_writes_three_outputs_and_the_sidecar(self, tmp_path, patents_path):
        assert self._make_pairs(patents_path, tmp_path / "pairs.jsonl", "0.8") == EX_OK
        assert _names(tmp_path) == [
            "pairs.jsonl", "pairs.jsonl.config.json", "pairs.test.jsonl", "pairs.train.jsonl",
        ]

    def test_failed_last_split_leaves_nothing(self, tmp_path, patents_path, monkeypatch):
        reference = tmp_path / "reference"
        reference.mkdir()
        assert self._make_pairs(patents_path, reference / "pairs.jsonl") == EX_OK
        lines = {name: len((reference / name).read_text().splitlines())
                 for name in ("pairs.jsonl", "pairs.train.jsonl", "pairs.test.jsonl")}
        assert lines["pairs.test.jsonl"] > 0
        before_test_split = lines["pairs.jsonl"] + lines["pairs.train.jsonl"]
        pair_record, calls = cli._pair_record, []

        def failing(pair, quoted):
            calls.append(pair)
            if len(calls) > before_test_split:
                raise OSError("no space left on device")
            return pair_record(pair, quoted)

        monkeypatch.setattr(cli, "_pair_record", failing)
        out = tmp_path / "out"
        out.mkdir()
        assert self._make_pairs(patents_path, out / "pairs.jsonl") == EX_IOERR
        assert len(calls) == before_test_split + 1
        assert _names(out) == []

    @pytest.mark.parametrize("flag", ["--output", "--sidecar"])
    def test_missing_directory_leaves_nothing_and_is_named_as_given(self, tmp_path, patents_path, capsys, flag):
        given = str(tmp_path / "missing" / "o.jsonl")
        paths = {"--output": str(tmp_path / "ipc.jsonl"), "--sidecar": str(tmp_path / "s.json")}
        paths[flag] = given
        argv = ["make-ipc", "--input", patents_path]
        for option, path in paths.items():
            argv += [option, path]
        assert main(argv) == EX_IOERR
        err = capsys.readouterr().err
        assert ".tmp" not in err
        assert err == f"lingmask: i/o error: [Errno 2] No such file or directory: {given!r}\n"
        assert _names(tmp_path) == []

    def test_failed_rename_leaves_nothing_and_is_named_as_given(self, tmp_path, patents_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "ipc.jsonl").mkdir()
        assert main(["make-ipc", "--input", patents_path, "--output", "ipc.jsonl"]) == EX_IOERR
        err = capsys.readouterr().err
        assert ".tmp" not in err
        assert err == f"lingmask: i/o error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: 'ipc.jsonl'\n"
        assert _names(tmp_path) == ["ipc.jsonl"]
        assert _names(tmp_path / "ipc.jsonl") == []

    @pytest.mark.parametrize("spelling", ["same", "dot-segment"])
    def test_sidecar_onto_output_writes_nothing(self, tmp_path, patents_path, capsys, spelling):
        out = str(tmp_path / "o.jsonl")
        sidecar = out if spelling == "same" else f"{tmp_path}/./o.jsonl"
        argv = ["make-ipc", "--input", patents_path, "--output", out, "--sidecar", sidecar]
        assert main(argv) == EX_FAIL
        assert f"error: {sidecar} is written twice in one run" in capsys.readouterr().err
        assert _names(tmp_path) == []

    def test_another_runs_temporary_file_is_left_alone(self, tmp_path, patents_path):
        out = tmp_path / "ipc.jsonl"
        other = tmp_path / "ipc.jsonl.tmp"
        other.write_bytes(b'{"partial": ')
        assert main(["make-ipc", "--input", patents_path, "--output", str(out)]) == EX_OK
        assert other.read_bytes() == b'{"partial": '
        assert _names(tmp_path) == ["ipc.jsonl", "ipc.jsonl.config.json", "ipc.jsonl.tmp"]
        assert len(out.read_text().splitlines()) == 18

    def test_tolerance_breach_writes_the_report_and_no_sidecar(self, tmp_path):
        report = tmp_path / "r.json"
        argv = ["verify-masking", "--n", "500", "--seed", "1", "--tolerance", "1e-7", "--output", str(report)]
        assert main(argv) == EX_TOLERANCE
        assert _names(tmp_path) == ["r.json"]
        assert json.loads(report.read_text())["abs_error"] > 1e-7

    def test_outputs_get_the_mode_open_gives(self, tmp_path, patents_path):
        previous = os.umask(0o027)
        try:
            assert self._make_pairs(patents_path, tmp_path / "pairs.jsonl") == EX_OK
        finally:
            os.umask(previous)
        modes = {path.name: path.stat().st_mode & 0o777 for path in tmp_path.iterdir()}
        assert len(modes) == 4
        assert set(modes.values()) == {0o640}


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

    def test_chains_chunk_stats_reports(self, tmp_path, capsys):
        # Two corpora of the same pattern mix, drawn with different seeds.
        reports = []
        for seed, n_sentences in ((1, 40), (2, 60)):
            tsv, vocab = tmp_path / f"c{seed}.tsv", tmp_path / f"v{seed}.txt"
            make_annotated_corpus(tsv, vocab, n_sentences, seed)
            reports.append(tmp_path / f"cs{seed}.json")
            assert main(["chunk-stats", "--annotations", str(tsv), "--output", str(reports[-1])]) == EX_OK
        argv = ["ks-compare", "--a", str(reports[0]), "--b", str(reports[1]), "--histogram", "histogram"]
        assert main(argv) == EX_OK
        expanded = [
            [int(length) for length, count in json.loads(r.read_text())["histogram"].items() for _ in range(count)]
            for r in reports
        ]
        assert json.loads(capsys.readouterr().out) == dataclasses.asdict(ks_two_sample(*expanded))

    def test_tokenize_stats_report_histograms(self, tmp_path, data_dir, capsys):
        sentences = tmp_path / "sentences.txt"
        sentences.write_text("femto access point\naccess point\n", encoding="utf-8")
        reports = [tmp_path / "general.json", tmp_path / "scientific.json"]
        for name, report in zip(("general", "scientific"), reports):
            vocab = str(data_dir / f"vocab_{name}.txt")
            assert main(["tokenize-stats", "--input", str(sentences), "--vocab", vocab, "--output", str(report)]) == EX_OK
        for key in ("encoding_hist", "word_hist"):
            assert main(["ks-compare", "--a", str(reports[0]), "--b", str(reports[1]), "--histogram", key]) == EX_OK
            counts = [Counter({int(k): v for k, v in json.loads(r.read_text())[key].items()}) for r in reports]
            assert json.loads(capsys.readouterr().out) == dataclasses.asdict(ks_from_counts(*counts))

    def test_missing_report_histogram_is_named(self, tmp_path, annotated_corpus, capsys):
        report = tmp_path / "report.json"
        assert main(["chunk-stats", "--annotations", annotated_corpus[0], "--output", str(report)]) == EX_OK
        argv = ["ks-compare", "--a", str(report), "--b", str(report), "--histogram", "word_hist"]
        assert main(argv) == EX_FAIL
        assert f"error: {report}: report has no 'word_hist' histogram" in capsys.readouterr().err


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
