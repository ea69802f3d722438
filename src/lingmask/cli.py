"""Single command-line entry point for all pipelines.

Every subcommand accepts ``--config FILE`` (a JSON object of option values;
explicit flags win) and, after a successful run, echoes its fully resolved
configuration to ``<output>.config.json`` so the run can be reproduced from its
sidecar. Every output file is written to ``<path>.tmp`` and renamed into place
only when complete, so a failed run leaves neither a partial output nor a
sidecar. Diagnostics go to stderr; data goes to the output file or stdout.

Exit codes: 0 success, 1 validation failure, 2 verify-masking tolerance
breach, 64 usage error, 74 I/O error.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import random
import sys
from collections import Counter
from contextlib import contextmanager
from itertools import islice
from multiprocessing import Pool
from typing import Any, Iterator

from . import __version__
from .chunker import chunk_stats, parse_annotations
from .corpus import clean_document, ingest_documents
from .datasets import build_ipc_examples, build_similarity_pairs, read_patent_records, split_dataset
from .masking import (
    FORMAT_VERSION,
    MaskingConfig,
    TokenizedSequence,
    build_example,
    example_to_json_line,
    sequence_from_annotated,
    sequence_rng,
)
from .stats import empirical_mask_report, flagged_sequences, ks_two_sample
from .subword import Vocabulary, corpus_split_stats, load_vocab
from .tinylm import TrainingConfig, train, write_metrics_csv

log = logging.getLogger("lingmask")

EX_OK = 0
EX_FAIL = 1
EX_TOLERANCE = 2
EX_USAGE = 64
EX_IOERR = 74

_REQUIRED = object()


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


# Per-subcommand option table: dest -> (default, converter for config-file values).
_OPTIONS: dict[str, dict[str, tuple[Any, Any]]] = {
    "normalize": {
        "input": (_REQUIRED, str),
        "format": ("jsonl", str),
        "output": (_REQUIRED, str),
    },
    "chunk-stats": {
        "annotations": (_REQUIRED, str),
        "max_chunk_len": (10, int),
        "output": (None, str),
    },
    "tokenize-stats": {
        "input": (_REQUIRED, str),
        "vocab": (_REQUIRED, str),
        "output": (None, str),
    },
    "make-pretraining-data": {
        "annotations": (_REQUIRED, str),
        "vocab": (_REQUIRED, str),
        "output": (_REQUIRED, str),
        "strategy": ("mlm", str),
        "p_nc": (None, float),
        "mask_prob": (0.15, float),
        "max_pred": (20, int),
        "max_seq_len": (128, int),
        "seed": (0, int),
        "mask_piece": ("[MASK]", str),
        "workers": (1, int),
    },
    "verify-masking": {
        "strategy": ("lim", str),
        "p_nc": (None, float),
        "n": (100000, int),
        "seq_len": (128, int),
        "p_y1": (0.507, float),
        "mask_prob": (0.15, float),
        "max_pred": (20, int),
        "seed": (0, int),
        "tolerance": (0.005, float),
        "output": (None, str),
    },
    "make-ipc": {
        "input": (_REQUIRED, str),
        "output": (_REQUIRED, str),
    },
    "make-pairs": {
        "input": (_REQUIRED, str),
        "output": (_REQUIRED, str),
        "seed": (0, int),
        "train_frac": (None, float),
    },
    "train-tiny": {
        "annotations": (_REQUIRED, str),
        "vocab": (_REQUIRED, str),
        "output": (_REQUIRED, str),
        "strategy": ("mlm", str),
        "p_nc": (None, float),
        "mask_prob": (0.15, float),
        "max_pred": (20, int),
        "max_seq_len": (128, int),
        "mask_piece": ("[MASK]", str),
        "lr": (0.5, float),
        "steps": (1000, int),
        "batch_size": (32, int),
        "eval_every": (100, int),
        "seed": (0, int),
        "context_radius": (0, int),
        "hidden_dim": (8, int),
        "eval_fraction": (0.1, float),
    },
    "ks-compare": {
        "a": (_REQUIRED, str),
        "b": (_REQUIRED, str),
        "output": (None, str),
    },
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="lingmask", description=__doc__)
    parser.add_argument(
        "--version",
        action="version",
        version=f"lingmask {__version__} (example-format {FORMAT_VERSION})",
    )
    sub = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON file of option values (flags override)")
        p.add_argument("--sidecar", help="where to write the resolved config")
        return p

    p = add("normalize", "clean documents and split them into sentences")
    p.add_argument("--input")
    p.add_argument("--format", choices=["jsonl", "tsv"])
    p.add_argument("--output")

    p = add("chunk-stats", "chunk-length and token-membership statistics")
    p.add_argument("--annotations")
    p.add_argument("--max-chunk-len", type=int)
    p.add_argument("--output")

    p = add("tokenize-stats", "split-ratio statistics for a vocabulary")
    p.add_argument("--input", help="text file, one sentence per line")
    p.add_argument("--vocab")
    p.add_argument("--output")

    p = add("make-pretraining-data", "generate masked pre-training examples")
    p.add_argument("--annotations")
    p.add_argument("--vocab")
    p.add_argument("--output")
    p.add_argument("--strategy", choices=["mlm", "lim"])
    p.add_argument("--p-nc", type=float)
    p.add_argument("--mask-prob", type=float)
    p.add_argument("--max-pred", type=int)
    p.add_argument("--max-seq-len", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--mask-piece")
    p.add_argument("--workers", type=int)

    p = add("verify-masking", "check conditional masking probabilities on synthetic data")
    p.add_argument("--strategy", choices=["mlm", "lim"])
    p.add_argument("--p-nc", type=float)
    p.add_argument("--n", type=int, help="number of synthetic sequences")
    p.add_argument("--seq-len", type=int)
    p.add_argument("--p-y1", type=float, help="token-level chunk probability")
    p.add_argument("--mask-prob", type=float)
    p.add_argument("--max-pred", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--tolerance", type=float)
    p.add_argument("--output")

    p = add("make-ipc", "build subclass classification examples")
    p.add_argument("--input")
    p.add_argument("--output")

    p = add("make-pairs", "build citation similarity pairs")
    p.add_argument("--input")
    p.add_argument("--output")
    p.add_argument("--seed", type=int)
    p.add_argument("--train-frac", type=float, help="also write a train/test split")

    p = add("train-tiny", "train the tiny reference masked LM")
    p.add_argument("--annotations")
    p.add_argument("--vocab")
    p.add_argument("--output", help="metrics CSV path")
    p.add_argument("--strategy", choices=["mlm", "lim"])
    p.add_argument("--p-nc", type=float)
    p.add_argument("--mask-prob", type=float)
    p.add_argument("--max-pred", type=int)
    p.add_argument("--max-seq-len", type=int)
    p.add_argument("--mask-piece")
    p.add_argument("--lr", type=float)
    p.add_argument("--steps", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--eval-every", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--context-radius", type=int)
    p.add_argument("--hidden-dim", type=int)
    p.add_argument("--eval-fraction", type=float)

    p = add("ks-compare", "two-sample KS test over two histogram files")
    p.add_argument("--a", help="first histogram JSON file (length -> count)")
    p.add_argument("--b", help="second histogram JSON file")
    p.add_argument("--output")

    return parser


def _resolve(args: argparse.Namespace, subcommand: str) -> dict[str, Any]:
    """Merge CLI flags over config-file values over defaults."""
    table = _OPTIONS[subcommand]
    file_cfg: dict[str, Any] = {}
    if args.config:
        with open(args.config, encoding="utf-8") as handle:
            file_cfg = json.load(handle)
        if not isinstance(file_cfg, dict):
            raise _UsageError(f"config file must hold a JSON object: {args.config}")
        file_cfg.pop("subcommand", None)
        unknown = sorted(set(file_cfg) - set(table))
        if unknown:
            raise _UsageError(f"unknown config keys: {', '.join(unknown)}")
    resolved: dict[str, Any] = {}
    for key, (default, converter) in table.items():
        value = getattr(args, key)
        if value is None and file_cfg.get(key) is not None:
            value = converter(file_cfg[key])
        if value is None:
            if default is _REQUIRED:
                raise _UsageError(f"missing required option --{key.replace('_', '-')}")
            value = default
        resolved[key] = value
    return resolved


@contextmanager
def _atomic_output(path: str) -> Iterator[str]:
    """Yield ``<path>.tmp`` to write; rename it onto ``path`` only if the block
    completes, and remove it if the block raises."""
    tmp = f"{path}.tmp"
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        try:
            os.remove(tmp)
        except FileNotFoundError:
            pass
        raise


def _open_text(path: str):
    return open(path, "w", encoding="utf-8", newline="\n")


def _write_sidecar(
    subcommand: str, resolved: dict[str, Any], sidecar: str | None
) -> None:
    path = sidecar or (
        f"{resolved['output']}.config.json" if resolved.get("output") else None
    )
    if path is None:
        return
    with _atomic_output(path) as tmp, _open_text(tmp) as handle:
        json.dump({"subcommand": subcommand, **resolved}, handle, sort_keys=True)
        handle.write("\n")


def _emit_json(payload: dict, output: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if output:
        with _atomic_output(output) as tmp, _open_text(tmp) as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _cmd_normalize(cfg: dict[str, Any]) -> int:
    with _atomic_output(cfg["output"]) as tmp, _open_text(tmp) as handle:
        count = 0
        for raw in ingest_documents(cfg["input"], cfg["format"]):
            doc = clean_document(raw)
            handle.write(
                json.dumps({"id": doc.id, "sentences": doc.sentences}, ensure_ascii=False)
                + "\n"
            )
            count += 1
    log.info("normalized %d documents", count)
    return EX_OK


def _cmd_chunk_stats(cfg: dict[str, Any]) -> int:
    warnings: Counter = Counter()
    stats = chunk_stats(
        parse_annotations(cfg["annotations"], warn_counter=warnings),
        max_chunk_len=cfg["max_chunk_len"],
    )
    if warnings:
        log.warning("unknown POS tags mapped to X: %s", dict(warnings))
    _emit_json(
        {
            "histogram": {str(k): v for k, v in stats.histogram.items()},
            "mean": stats.mean,
            "sd": stats.sd,
            "token_nc_prob": stats.token_nc_prob,
        },
        cfg["output"],
    )
    return EX_OK


def _cmd_tokenize_stats(cfg: dict[str, Any]) -> int:
    vocab = load_vocab(cfg["vocab"])
    with open(cfg["input"], encoding="utf-8") as handle:
        sentences = [line.strip() for line in handle if line.strip()]
    stats = corpus_split_stats(sentences, vocab)
    _emit_json(
        {
            "mean_split_ratio": stats.mean_split_ratio,
            "encoding_hist": {str(k): v for k, v in stats.encoding_hist.items()},
            "word_hist": {str(k): v for k, v in stats.word_hist.items()},
        },
        cfg["output"],
    )
    return EX_OK


def _masking_config(cfg: dict[str, Any], vocab_size: int, mask_piece_id: int, seq_len_key: str = "max_seq_len") -> MaskingConfig:
    return MaskingConfig(
        mask_prob=cfg["mask_prob"],
        max_pred=cfg["max_pred"],
        max_seq_len=cfg[seq_len_key],
        strategy=cfg["strategy"],
        p_nc=cfg["p_nc"],
        seed=cfg["seed"],
        mask_piece_id=mask_piece_id,
        vocab_size=vocab_size,
    )


# make-pretraining-data parses and encodes sentences in blocks of this many
# before masking them, as a --workers pool task does. Alternating the stages
# one sentence at a time evicts each stage's working set between calls (about
# 7 % fewer examples/s on the pretrain-lim benchmark workload); a fixed block
# still keeps memory flat.
_BLOCK = 64

_WORKER_CONFIG: MaskingConfig | None = None


def _init_worker(config: MaskingConfig) -> None:
    global _WORKER_CONFIG
    _WORKER_CONFIG = config


def _mask_line(ordinal: int, seq, config: MaskingConfig) -> str:
    return example_to_json_line(build_example(seq, config, sequence_rng(config.seed, ordinal)))


def _mask_task(task) -> str:
    ordinal, seq = task
    assert _WORKER_CONFIG is not None
    return _mask_line(ordinal, seq, _WORKER_CONFIG)


def _load_masking_vocab(cfg: dict[str, Any]) -> tuple[Vocabulary, MaskingConfig]:
    vocab = load_vocab(cfg["vocab"])
    if cfg["mask_piece"] not in vocab:
        raise ValueError(f"vocabulary has no mask piece {cfg['mask_piece']!r}")
    return vocab, _masking_config(cfg, vocab.size, vocab.id_of(cfg["mask_piece"]))


def _annotated_sequences(cfg: dict[str, Any], vocab: Vocabulary) -> Iterator[TokenizedSequence]:
    """Stream the non-empty encoded sentences of the annotation file.

    ``doc_id`` numbers all sentences, empty ones included; the unknown-POS
    total is logged once the stream ends.
    """
    warnings: Counter = Counter()
    for i, sent in enumerate(parse_annotations(cfg["annotations"], warn_counter=warnings)):
        seq = sequence_from_annotated(sent, vocab, cfg["max_seq_len"], doc_id=f"sent-{i}")
        if seq.pieces:
            yield seq
    if warnings:
        log.warning("unknown POS tags mapped to X: %s", dict(warnings))


def _cmd_make_pretraining_data(cfg: dict[str, Any]) -> int:
    vocab, config = _load_masking_vocab(cfg)
    tasks = enumerate(_annotated_sequences(cfg, vocab))
    count = 0
    with _atomic_output(cfg["output"]) as tmp, _open_text(tmp) as handle:
        if cfg["workers"] > 1:
            with Pool(cfg["workers"], initializer=_init_worker, initargs=(config,)) as pool:
                for line in pool.imap(_mask_task, tasks, chunksize=_BLOCK):
                    handle.write(line + "\n")
                    count += 1
        else:
            for block in iter(lambda: list(islice(tasks, _BLOCK)), []):
                for ordinal, seq in block:
                    handle.write(_mask_line(ordinal, seq, config) + "\n")
                count += len(block)
    log.info("wrote %d examples", count)
    return EX_OK


def _cmd_verify_masking(cfg: dict[str, Any]) -> int:
    config = _masking_config(cfg, vocab_size=1, mask_piece_id=0, seq_len_key="seq_len")
    sequences = flagged_sequences(
        cfg["n"], seq_len=cfg["seq_len"], p_y1=cfg["p_y1"], seed=cfg["seed"]
    )
    pairs = (
        (build_example(seq, config, sequence_rng(cfg["seed"], i)), seq.y)
        for i, seq in enumerate(sequences)
    )
    report = empirical_mask_report(
        pairs, cfg["mask_prob"], cfg["p_nc"] if cfg["strategy"] == "lim" else None
    )
    _emit_json(report.to_dict(), cfg["output"])
    if report.abs_error is None:
        log.error("conditional masking probability is undefined on this corpus")
        return EX_FAIL
    if report.abs_error > cfg["tolerance"]:
        log.error(
            "abs_error %.5f exceeds tolerance %.5f", report.abs_error, cfg["tolerance"]
        )
        return EX_TOLERANCE
    return EX_OK


def _cmd_make_ipc(cfg: dict[str, Any]) -> int:
    counters: Counter = Counter()
    with _atomic_output(cfg["output"]) as tmp, _open_text(tmp) as handle:
        count = 0
        for example in build_ipc_examples(read_patent_records(cfg["input"]), counters):
            handle.write(
                json.dumps({"text": example.text, "label": example.label}, ensure_ascii=False)
                + "\n"
            )
            count += 1
    log.info("wrote %d examples, skipped: %s", count, dict(counters) or "none")
    return EX_OK


def _pair_record(pair) -> str:
    return json.dumps(
        {
            "text_a": pair.text_a,
            "text_b": pair.text_b,
            "id_a": pair.id_a,
            "id_b": pair.id_b,
            "label": pair.label,
        },
        ensure_ascii=False,
    )


def _cmd_make_pairs(cfg: dict[str, Any]) -> int:
    counters: Counter = Counter()
    rng = random.Random(cfg["seed"])
    pairs = list(
        build_similarity_pairs(read_patent_records(cfg["input"]), rng, counters)
    )
    outputs = {cfg["output"]: pairs}
    if cfg["train_frac"] is not None:
        splits = split_dataset(
            pairs,
            (cfg["train_frac"], 1.0 - cfg["train_frac"]),
            cfg["seed"],
            key=lambda p: tuple(sorted((p.id_a, p.id_b))),
        )
        base, ext = os.path.splitext(cfg["output"])
        outputs.update((f"{base}.{name}{ext}", items) for name, items in splits.items())
    for path, items in outputs.items():
        with _atomic_output(path) as tmp, _open_text(tmp) as handle:
            for pair in items:
                handle.write(_pair_record(pair) + "\n")
    log.info("wrote %d pairs, dropped: %s", len(pairs), dict(counters) or "none")
    return EX_OK


def _cmd_train_tiny(cfg: dict[str, Any]) -> int:
    vocab, masking_config = _load_masking_vocab(cfg)
    sequences = list(_annotated_sequences(cfg, vocab))
    train_config = TrainingConfig(
        lr=cfg["lr"],
        steps=cfg["steps"],
        batch_size=cfg["batch_size"],
        eval_every=cfg["eval_every"],
        seed=cfg["seed"],
        context_radius=cfg["context_radius"],
        hidden_dim=cfg["hidden_dim"],
        eval_fraction=cfg["eval_fraction"],
    )
    metrics, _ = train(sequences, masking_config, train_config)
    with _atomic_output(cfg["output"]) as tmp:
        write_metrics_csv(metrics, tmp)
    log.info("wrote %d metric rows", len(metrics))
    return EX_OK


def _load_histogram(path: str) -> list[int]:
    with open(path, encoding="utf-8") as handle:
        histogram = json.load(handle)
    if not isinstance(histogram, dict):
        raise ValueError(f"histogram file must hold a JSON object: {path}")
    sample: list[int] = []
    for key, count in sorted(histogram.items(), key=lambda kv: int(kv[0])):
        sample.extend([int(key)] * int(count))
    return sample


def _cmd_ks_compare(cfg: dict[str, Any]) -> int:
    result = ks_two_sample(_load_histogram(cfg["a"]), _load_histogram(cfg["b"]))
    _emit_json(
        {
            "d_statistic": result.d_statistic,
            "p_value": result.p_value,
            "n1": result.n1,
            "n2": result.n2,
        },
        cfg["output"],
    )
    return EX_OK


_COMMANDS = {
    "normalize": _cmd_normalize,
    "chunk-stats": _cmd_chunk_stats,
    "tokenize-stats": _cmd_tokenize_stats,
    "make-pretraining-data": _cmd_make_pretraining_data,
    "verify-masking": _cmd_verify_masking,
    "make-ipc": _cmd_make_ipc,
    "make-pairs": _cmd_make_pairs,
    "train-tiny": _cmd_train_tiny,
    "ks-compare": _cmd_ks_compare,
}


def run(argv: list[str]) -> int:
    """Parse and execute one invocation; returns the exit code."""
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.subcommand is None:
            raise _UsageError("a subcommand is required")
        cfg = _resolve(args, args.subcommand)
        code = _COMMANDS[args.subcommand](cfg)
        if code == EX_OK:
            _write_sidecar(args.subcommand, cfg, args.sidecar)
        return code
    except _UsageError as exc:
        parser.print_usage(sys.stderr)
        print(f"lingmask: error: {exc}", file=sys.stderr)
        return EX_USAGE
    except OSError as exc:
        print(f"lingmask: i/o error: {exc}", file=sys.stderr)
        return EX_IOERR
    except (ValueError, RuntimeError) as exc:
        print(f"lingmask: error: {exc}", file=sys.stderr)
        return EX_FAIL


def main(argv: list[str] | None = None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
