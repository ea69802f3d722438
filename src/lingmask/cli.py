"""Single command-line entry point for all pipelines.

Every subcommand accepts ``--config FILE`` (a JSON object of option values;
explicit flags win) and, after a successful run, echoes its fully resolved
configuration to ``<output>.config.json`` so the run can be reproduced from its
sidecar. A config-file value gets its flag's type and choice checks, so a bad
value, like a config file that is not JSON, is a usage error; so is a sidecar
of another subcommand. A run's outputs and its sidecar are written to new
temporary files and renamed into place together when the command returns, so
a failed run leaves neither a partial output nor a sidecar. Renaming several
files is not atomic as a group, and a killed run leaves its temporary file
behind. Diagnostics go to stderr; data goes to the output file or stdout.
Warnings and errors are logged by default; the top-level ``-v`` also logs what
the run did (INFO).

Exit codes: 0 success, 1 validation failure, 2 verify-masking tolerance
breach, 64 usage error, 74 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
import random
import re
import sys
from collections import Counter
from contextlib import suppress
from json.encoder import encode_basestring
from typing import Any, Iterator, NoReturn, TextIO

from . import __version__
from .chunker import AnnotatedSentence, chunk_stats, parse_annotations
from .corpus import CleanDocument, clean_document, ingest_documents
from .datasets import (
    IpcExample,
    SimilarityPair,
    build_ipc_examples,
    build_similarity_pairs,
    read_patent_records,
    split_dataset,
)
from .masking import (
    FORMAT_VERSION,
    STRATEGIES,
    MaskingConfig,
    TokenizedSequence,
    build_example,
    example_to_json_line,
    mask_sequences,
    sequence_from_annotated,
)
from .stats import empirical_mask_report, flagged_sequences, ks_from_counts, tally_blocks
from .subword import Vocabulary, corpus_split_stats, load_vocab
from .tinylm import TrainingConfig, train, write_metrics_csv

# Not called here: the benchmark's tracer (perfbench/tracer.py) wraps it.
from .masking import sequence_rng  # noqa: F401

log = logging.getLogger("lingmask")

EX_OK = 0
EX_FAIL = 1
EX_TOLERANCE = 2
EX_USAGE = 64
EX_IOERR = 74

class _UsageError(Exception):
    """A usage error, raised by the (sub)command parser whose usage fits it."""

    def __init__(self, message: str, parser: argparse.ArgumentParser) -> None:
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> NoReturn:
        raise _UsageError(message, self)


class _Outputs(dict):
    """The files one run writes: the path asked for and the open handle, by
    absolute path. Each is written to a new file next to it, created
    exclusively under a name of its own; ``commit`` renames them into place
    in the order opened, and ``discard`` removes the rest. An error names
    the path asked for, never the temporary file."""

    def open(self, path: str) -> TextIO:
        key = os.path.abspath(path)
        if key in self:
            raise ValueError(f"{path} is written twice in one run")
        tmp = f"{path}.{os.getpid()}-{os.urandom(4).hex()}.tmp"
        try:
            handle = open(tmp, "x", encoding="utf-8", newline="\n")
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, path) from None
        self[key] = path, handle
        return handle

    def commit(self) -> None:
        for key, (path, handle) in list(self.items()):
            handle.close()
            try:
                os.replace(handle.name, path)
            except OSError as exc:
                raise OSError(exc.errno, exc.strerror, path) from None
            del self[key]

    def discard(self) -> None:
        for _, handle in self.values():
            with suppress(OSError):
                handle.close()
            with suppress(OSError):
                os.remove(handle.name)


def _write_sidecar(
    subcommand: str, resolved: dict[str, Any], sidecar: str | None, outputs: _Outputs
) -> None:
    path = sidecar or (
        f"{resolved['output']}.config.json" if resolved.get("output") else None
    )
    if path is None:
        return
    with outputs.open(path) as handle:
        json.dump({"subcommand": subcommand, **resolved}, handle, sort_keys=True)
        handle.write("\n")


def _emit_json(payload: dict, output: str | None, outputs: _Outputs) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if output:
        with outputs.open(output) as handle:
            handle.write(text + "\n")
    else:
        print(text)


# The JSONL records, written piece by piece: each string goes through
# ``encode_basestring``, the escaping ``json.dumps(..., ensure_ascii=False)``
# applies, so the bytes are those of ``json.dumps`` on the record's dict.
def _document_record(doc: CleanDocument) -> str:
    sentences = ", ".join(map(encode_basestring, doc.sentences))
    return f'{{"id": {encode_basestring(doc.id)}, "sentences": [{sentences}]}}'


def _ipc_record(example: IpcExample) -> str:
    text, label = encode_basestring(example.text), encode_basestring(example.label)
    return f'{{"text": {text}, "label": {label}}}'


class _Quoted(dict):
    """JSON string literals by text, made when first asked for, so each
    distinct claims text and patent id of a run is escaped once."""

    def __missing__(self, text: str) -> str:
        quoted = self[text] = encode_basestring(text)
        return quoted


def _pair_record(pair: SimilarityPair, quoted: _Quoted) -> str:
    return (
        f'{{"text_a": {quoted[pair.text_a]}, "text_b": {quoted[pair.text_b]}, '
        f'"id_a": {quoted[pair.id_a]}, "id_b": {quoted[pair.id_b]}, '
        f'"label": {"true" if pair.label else "false"}}}'
    )


def _cmd_normalize(cfg: dict[str, Any], outputs: _Outputs) -> int:
    with outputs.open(cfg["output"]) as handle:
        count = 0
        for raw in ingest_documents(cfg["input"], cfg["format"]):
            handle.write(_document_record(clean_document(raw)) + "\n")
            count += 1
    log.info("normalized %d documents", count)
    return EX_OK


def _annotated_sentences(path: str) -> Iterator[AnnotatedSentence]:
    """Stream the sentences of an annotation file; the unknown POS tags
    mapped to X are logged in one warning, with their counts, once the stream
    ends. A malformed file's error names the file."""
    warnings: Counter = Counter()
    try:
        yield from parse_annotations(path, warn_counter=warnings)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if warnings:
        log.warning("unknown POS tags mapped to X: %s", dict(warnings))


def _cmd_chunk_stats(cfg: dict[str, Any], outputs: _Outputs) -> int:
    stats = chunk_stats(_annotated_sentences(cfg["annotations"]), max_chunk_len=cfg["max_chunk_len"])
    _emit_json(
        {
            "histogram": {str(k): v for k, v in stats.histogram.items()},
            "mean": stats.mean,
            "sd": stats.sd,
            "token_nc_prob": stats.token_nc_prob,
        },
        cfg["output"], outputs,
    )
    return EX_OK


def _cmd_tokenize_stats(cfg: dict[str, Any], outputs: _Outputs) -> int:
    vocab = load_vocab(cfg["vocab"])
    with open(cfg["input"], encoding="utf-8") as handle:
        # Streamed one line at a time, so memory stays flat in the input size.
        stats = corpus_split_stats(filter(None, map(str.strip, handle)), vocab)
    _emit_json(
        {
            "mean_split_ratio": stats.mean_split_ratio,
            "encoding_hist": {str(k): v for k, v in stats.encoding_hist.items()},
            "word_hist": {str(k): v for k, v in stats.word_hist.items()},
        },
        cfg["output"], outputs,
    )
    return EX_OK


def _masking_config(cfg: dict[str, Any], vocab_size: int, mask_piece_id: int, seq_len_key: str = "max_seq_len") -> MaskingConfig:
    if cfg["strategy"] == "lim" and cfg["p_nc"] is None:
        raise ValueError("--p-nc is required with --strategy lim")
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


def _load_masking_vocab(cfg: dict[str, Any]) -> tuple[Vocabulary, MaskingConfig]:
    vocab = load_vocab(cfg["vocab"])
    if cfg["mask_piece"] not in vocab:
        raise ValueError(f"vocabulary has no mask piece {cfg['mask_piece']!r}")
    return vocab, _masking_config(cfg, vocab.size, vocab.id_of(cfg["mask_piece"]))


def _annotated_sequences(cfg: dict[str, Any], vocab: Vocabulary) -> Iterator[TokenizedSequence]:
    """Stream the encoded sentences of the annotation file, one per sentence,
    with ``doc_id`` ``sent-0``, ``sent-1``, ... in file order.

    None is empty: a parsed sentence has a token, every token encodes to at
    least one piece (``[UNK]`` at worst), and ``--max-seq-len`` is at least 1.
    """
    for i, sent in enumerate(_annotated_sentences(cfg["annotations"])):
        yield sequence_from_annotated(sent, vocab, cfg["max_seq_len"], doc_id=f"sent-{i}")


def _cmd_make_pretraining_data(cfg: dict[str, Any], outputs: _Outputs) -> int:
    vocab, config = _load_masking_vocab(cfg)
    count = 0
    with outputs.open(cfg["output"]) as handle:
        for seq, row in mask_sequences(_annotated_sequences(cfg, vocab), config):
            handle.write(example_to_json_line(build_example(seq, config, row), config) + "\n")
            count += 1
    log.info("wrote %d examples", count)
    return EX_OK


def _cmd_verify_masking(cfg: dict[str, Any], outputs: _Outputs) -> int:
    config = _masking_config(cfg, vocab_size=1, mask_piece_id=0, seq_len_key="seq_len")
    blocks = flagged_sequences(
        cfg["n"], seq_len=cfg["seq_len"], p_y1=cfg["p_y1"], seed=cfg["seed"]
    )
    report = empirical_mask_report(
        tally_blocks(blocks, config),
        cfg["mask_prob"],
        cfg["p_nc"] if cfg["strategy"] == "lim" else None,
    )
    _emit_json(dataclasses.asdict(report), cfg["output"], outputs)
    if report.abs_error is None:
        log.error("conditional masking probability is undefined on this corpus")
        return EX_FAIL
    if report.abs_error > cfg["tolerance"]:
        log.error(
            "abs_error %.5f exceeds tolerance %.5f", report.abs_error, cfg["tolerance"]
        )
        return EX_TOLERANCE
    return EX_OK


def _cmd_make_ipc(cfg: dict[str, Any], outputs: _Outputs) -> int:
    counters: Counter = Counter()
    with outputs.open(cfg["output"]) as handle:
        count = 0
        for example in build_ipc_examples(read_patent_records(cfg["input"]), counters):
            handle.write(_ipc_record(example) + "\n")
            count += 1
    log.info("wrote %d examples, skipped: %s", count, dict(counters) or "none")
    return EX_OK


def _cmd_make_pairs(cfg: dict[str, Any], outputs: _Outputs) -> int:
    counters: Counter = Counter()
    rng = random.Random(cfg["seed"])
    pairs = list(
        build_similarity_pairs(read_patent_records(cfg["input"]), rng, counters)
    )
    files = {cfg["output"]: pairs}
    if cfg["train_frac"] is not None:
        splits = split_dataset(
            pairs, cfg["train_frac"], cfg["seed"], key=lambda p: tuple(sorted((p.id_a, p.id_b)))
        )
        base, ext = os.path.splitext(cfg["output"])
        files.update((f"{base}.{name}{ext}", items) for name, items in splits.items())
    quoted = _Quoted()
    for path, items in files.items():
        with outputs.open(path) as handle:
            for pair in items:
                handle.write(_pair_record(pair, quoted) + "\n")
    log.info("wrote %d pairs, dropped: %s", len(pairs), dict(counters) or "none")
    return EX_OK


def _cmd_train_tiny(cfg: dict[str, Any], outputs: _Outputs) -> int:
    vocab, masking_config = _load_masking_vocab(cfg)
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
    metrics, _ = train(_annotated_sequences(cfg, vocab), masking_config, train_config)
    with outputs.open(cfg["output"]) as handle:
        write_metrics_csv(metrics, handle)
    log.info("wrote %d metric rows", len(metrics))
    return EX_OK


_INTEGER_KEY = re.compile(r"-?[0-9]+")


def _load_histogram(path: str, key: str | None) -> Counter:
    """The value -> count table of a JSON object of integer values and their
    counts, the whole file or, with ``key``, that key of a report object
    (``chunk-stats``, ``tokenize-stats``); keys naming the same integer add
    up. A count must be a non-negative JSON integer."""
    with open(path, encoding="utf-8") as handle:
        try:
            histogram = json.load(handle)
        except ValueError as exc:
            raise ValueError(f"{path}: histogram file is not JSON: {exc}") from exc
    if key is not None:
        if not isinstance(histogram, dict) or key not in histogram:
            raise ValueError(f"{path}: report has no {key!r} histogram")
        histogram = histogram[key]
    if not isinstance(histogram, dict):
        raise ValueError(f"histogram file must hold a JSON object: {path}")
    counts: Counter = Counter()
    for key, count in histogram.items():
        if not _INTEGER_KEY.fullmatch(key):
            raise ValueError(f"{path}: histogram key {key!r} is not an integer")
        if type(count) is not int or count < 0:
            raise ValueError(
                f"{path}: count of key {key!r} must be a non-negative integer, got {json.dumps(count)}"
            )
        counts[int(key)] += count
    return counts


def _cmd_ks_compare(cfg: dict[str, Any], outputs: _Outputs) -> int:
    key = cfg["histogram"]
    result = ks_from_counts(_load_histogram(cfg["a"], key), _load_histogram(cfg["b"], key))
    _emit_json(dataclasses.asdict(result), cfg["output"], outputs)
    return EX_OK


_REQUIRED = object()

# A range is (accepts, rule): checked once the options are resolved, so that
# a bad value is a validation failure that names its flag.
_AT_LEAST_ZERO = (lambda v: v >= 0, "must be >= 0")
_FINITE_AT_LEAST_ZERO = (lambda v: 0 <= v < math.inf, "must be finite and >= 0")
_AT_LEAST_ONE = (lambda v: v >= 1, "must be >= 1")
_OPEN_UNIT = (lambda v: 0.0 < v < 1.0, "must be in (0, 1)")
_PROBABILITY = (lambda v: 0.0 <= v <= 1.0, "must be in [0, 1]")

# An option is (flag, type or tuple of choices, default or _REQUIRED, help),
# with its range as an optional fifth element; the flag's dest is its
# config-file and sidecar key.
_ANNOTATIONS = ("--annotations", str, _REQUIRED, "annotation TSV: surface, POS tag, chunk id")
_VOCAB = ("--vocab", str, _REQUIRED, "vocabulary file, one piece per line")
_REPORT = ("--output", str, None, "report path (default: stdout)")
_MASK_PROB = ("--mask-prob", float, 0.15, None, _OPEN_UNIT)
_MAX_PRED = ("--max-pred", int, 20, "most masked positions per sequence", _AT_LEAST_ONE)
_SEED = ("--seed", int, 0, None, _AT_LEAST_ZERO)
# Unset by default: masking reads it only under lim, so mlm rejects it.
_LIM_P_NC = ("--p-nc", float, None, "lim: chance that a sequence masks only chunk tokens", _PROBABILITY)
_MASKING_OPTIONS = [
    ("--strategy", STRATEGIES, "mlm", "mask uniformly (mlm) or within one chunk pool (lim)"),
    _LIM_P_NC,
    _MASK_PROB,
    _MAX_PRED,
    ("--max-seq-len", int, 128, "pieces kept per sentence", _AT_LEAST_ONE),
    _SEED,
    ("--mask-piece", str, "[MASK]", None),
]

# Each subcommand: (handler, help, options).
_SUBCOMMANDS = {
    "normalize": (_cmd_normalize, "clean documents and split them into sentences", [
        ("--input", str, _REQUIRED, "documents, JSONL or TSV"),
        ("--format", ("jsonl", "tsv"), "jsonl", None),
        ("--output", str, _REQUIRED, None),
    ]),
    "chunk-stats": (_cmd_chunk_stats, "chunk-length and token-membership statistics", [
        _ANNOTATIONS,
        ("--max-chunk-len", int, 10, "longest chunk counted in the histogram", _AT_LEAST_ONE),
        _REPORT,
    ]),
    "tokenize-stats": (_cmd_tokenize_stats, "split-ratio statistics for a vocabulary", [
        ("--input", str, _REQUIRED, "text file, one sentence per line"),
        _VOCAB,
        _REPORT,
    ]),
    "make-pretraining-data": (_cmd_make_pretraining_data, "generate masked pre-training examples", [
        _ANNOTATIONS,
        _VOCAB,
        ("--output", str, _REQUIRED, "examples JSONL path"),
        *_MASKING_OPTIONS,
    ]),
    "verify-masking": (_cmd_verify_masking, "check conditional masking probabilities on synthetic data", [
        ("--strategy", STRATEGIES, "lim", "mask uniformly (mlm) or within one chunk pool (lim)"),
        ("--p-nc", float, 0.75, "lim: chance that a sequence masks only chunk tokens", _PROBABILITY),
        ("--n", int, 100000, "number of synthetic sequences", _AT_LEAST_ONE),
        ("--seq-len", int, 128, None, _AT_LEAST_ONE),
        ("--p-y1", float, 0.507, "token-level chunk probability", _PROBABILITY),
        _MASK_PROB,
        _MAX_PRED,
        _SEED,
        ("--tolerance", float, 0.005, "largest accepted abs_error", _AT_LEAST_ZERO),
        _REPORT,
    ]),
    "make-ipc": (_cmd_make_ipc, "build subclass classification examples", [
        ("--input", str, _REQUIRED, "patent records JSONL"),
        ("--output", str, _REQUIRED, None),
    ]),
    "make-pairs": (_cmd_make_pairs, "build citation similarity pairs", [
        ("--input", str, _REQUIRED, "patent records JSONL"),
        ("--output", str, _REQUIRED, None),
        _SEED,
        ("--train-frac", float, None, "also write a train/test split", _PROBABILITY),
    ]),
    "train-tiny": (_cmd_train_tiny, "train the tiny reference masked LM", [
        _ANNOTATIONS,
        _VOCAB,
        ("--output", str, _REQUIRED, "metrics CSV path"),
        *_MASKING_OPTIONS,
        ("--lr", float, 0.5, None, _FINITE_AT_LEAST_ZERO),
        ("--steps", int, 1000, None, _AT_LEAST_ZERO),
        ("--batch-size", int, 32, None, _AT_LEAST_ONE),
        ("--eval-every", int, 100, None, _AT_LEAST_ONE),
        ("--context-radius", int, 0, "context pieces on each side; 0 means the whole sequence", _AT_LEAST_ZERO),
        ("--hidden-dim", int, 8, None, _AT_LEAST_ONE),
        ("--eval-fraction", float, 0.1, "held-out share of the sequences", _OPEN_UNIT),
    ]),
    "ks-compare": (_cmd_ks_compare, "two-sample KS test over two histogram files", [
        ("--a", str, _REQUIRED, "first histogram JSON file (length -> count)"),
        ("--b", str, _REQUIRED, "second histogram JSON file"),
        ("--histogram", ("histogram", "encoding_hist", "word_hist"), None,
         "compare this histogram of two chunk-stats or tokenize-stats reports"),
        _REPORT,
    ]),
}


def _check_ranges(subcommand: str, cfg: dict[str, Any]) -> None:
    for flag, _, _, _, *checks in _SUBCOMMANDS[subcommand][2]:
        value = cfg[_dest(flag)]
        for accepts, rule in checks:
            if value is not None and not accepts(value):
                raise ValueError(f"{flag} {rule}, got {value}")


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    """Return the top-level parser and each subcommand's parser by name."""
    parser = _Parser(prog="lingmask", description=__doc__)
    parser.add_argument(
        "--version",
        action="version",
        version=f"lingmask {__version__} (example-format {FORMAT_VERSION})",
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="also log what the run did (INFO)"
    )
    sub = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")
    subparsers = {}
    for name, (_, help_text, options) in _SUBCOMMANDS.items():
        p = subparsers[name] = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON file of option values (flags override)")
        p.add_argument("--sidecar", help="where to write the resolved config")
        for flag, kind, _, option_help, *_ in options:
            if isinstance(kind, tuple):
                p.add_argument(flag, choices=kind, help=option_help)
            else:
                p.add_argument(flag, type=kind, help=option_help)
    return parser, subparsers


def _resolve(parser: _Parser, argv: list[str], args: argparse.Namespace) -> dict[str, Any]:
    """Merge CLI flags over config-file values over defaults.

    Config-file values are parsed by the subcommand's parser like the flags,
    as if they came before them, so they get the same checks and the flags
    win. A JSON null leaves an option unset, and a ``"subcommand"`` key must
    name this subcommand. Where ``--p-nc`` has no default, setting it under
    ``--strategy mlm``, which ignores it, is a usage error.
    """
    options = _SUBCOMMANDS[args.subcommand][2]
    if args.config:
        with open(args.config, encoding="utf-8") as handle:
            try:
                file_cfg = json.load(handle)
            except ValueError as exc:
                parser.error(f"config file is not JSON: {args.config}: {exc}")
        if not isinstance(file_cfg, dict):
            parser.error(f"config file must hold a JSON object: {args.config}")
        written_by = file_cfg.pop("subcommand", args.subcommand)
        if written_by != args.subcommand:
            parser.error(f"config file {args.config} is for {written_by}, not {args.subcommand}")
        flags = {_dest(flag): flag for flag, *_ in options}
        unknown = sorted(set(file_cfg) - set(flags))
        if unknown:
            parser.error(f"unknown config keys: {', '.join(unknown)}")
        from_file = [f"{flags[k]}={v}" for k, v in file_cfg.items() if v is not None]
        flag_args = argv[argv.index(args.subcommand) + 1 :]
        try:
            args = parser.parse_args([*from_file, *flag_args])
        except _UsageError as exc:
            parser.error(f"config file {args.config}: {exc}")
    resolved: dict[str, Any] = {}
    for flag, _, default, *_ in options:
        key = _dest(flag)
        value = getattr(args, key)
        if value is None:
            if default is _REQUIRED:
                parser.error(f"missing required option {flag}")
            value = default
        resolved[key] = value
    if _LIM_P_NC in options and resolved["strategy"] == "mlm" and resolved["p_nc"] is not None:
        parser.error("--p-nc applies only to --strategy lim")
    return resolved


def run(argv: list[str]) -> int:
    """Parse and execute one invocation; returns the exit code."""
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s %(message)s")
    parser, subparsers = _build_parser()
    level = log.level
    try:
        # argparse reports a subcommand's unknown flags from the top-level
        # parser; report them from the subcommand's own parser instead.
        args, unknown = parser.parse_known_args(argv)
        if args.verbose:
            log.setLevel(logging.INFO)
        if unknown:
            subparsers.get(args.subcommand, parser).error(
                f"unrecognized arguments: {' '.join(unknown)}"
            )
        if args.subcommand is None:
            parser.error("a subcommand is required")
        cfg = _resolve(subparsers[args.subcommand], argv, args)
        _check_ranges(args.subcommand, cfg)
        outputs = _Outputs()
        try:
            code = _SUBCOMMANDS[args.subcommand][0](cfg, outputs)
            if code == EX_OK:
                _write_sidecar(args.subcommand, cfg, args.sidecar, outputs)
            outputs.commit()
        finally:
            outputs.discard()
        return code
    except _UsageError as exc:
        exc.parser.print_usage(sys.stderr)
        print(f"lingmask: error: {exc}", file=sys.stderr)
        return EX_USAGE
    except OSError as exc:
        print(f"lingmask: i/o error: {exc}", file=sys.stderr)
        return EX_IOERR
    except (ValueError, RuntimeError) as exc:
        print(f"lingmask: error: {exc}", file=sys.stderr)
        return EX_FAIL
    finally:
        # basicConfig acts once per process, so a -v must not outlive its run;
        # the caller's own level comes back either way.
        log.setLevel(level)


def main(argv: list[str] | None = None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
