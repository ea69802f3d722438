"""Untraced time of each stage of make-pretraining-data, verify-masking and
train-tiny, in one process.

Usage: python3 tools/stage_times.py [--sentences 20000] [--seed 2]
           [--repeat 5]

Generates the benchmark's ``pretrain`` corpus (``perfbench/gen.py``) at the
given number of sentences, as ``tools/rss_by_corpus_size.py`` does, then
imports ``lingmask`` from this checkout's ``src`` and times, in this
process and without any tracer, each stage of ``make-pretraining-data
--strategy lim`` on its own, each on the previous stage's output, with the
benchmark's ``--p-nc`` (``perfbench/run.py``'s ``P_NC``):

* ``parse``: ``parse_annotations`` over the whole file;
* ``encode``: ``sequence_from_annotated`` for every sentence, against a
  vocabulary loaded afresh for each repetition, so its word memo starts
  empty as in a run of the command;
* ``mask_batches``: the masked rows of every 64-sequence batch;
* ``rows_build``: ``mask_sequences``' per-batch row checks and slicing,
  replaying the batches ``mask_batches`` gave, and ``build_example`` for
  every row;
* ``json``: ``example_to_json_line`` for every example;
* ``write``: the records written to a file, one ``write`` each;
* ``cli_run``: the whole command through ``lingmask.cli.run``, whose
  records must equal the ones the stages wrote.

Then, as the benchmark's ``verify-law`` workload runs it (``VERIFY_N``
sequences of ``VERIFY_SEQ_LEN`` pieces, ``--strategy lim`` with ``P_NC``,
``--seed`` as given), each stage of ``verify-masking``:

* ``flagged_sequences``: every block of synthetic flags;
* ``tally_blocks``: the tallies of those blocks, read from a list;
* ``empirical_mask_report``: the report over those tallies;
* ``cli_run``: the whole command through ``lingmask.cli.run``, whose report
  must equal the stages'.

Then, as the benchmark's ``tiny-lm`` workload runs it (its ``tiny`` corpus,
``train-tiny --strategy mlm`` with ``TINY_STEPS``, ``TINY_EVAL_EVERY`` and
``TINY_BATCH``, ``--seed`` as given), each stage of ``train-tiny``:

* ``prepare``: ``parse_annotations`` and ``sequence_from_annotated`` for
  every sentence, against a vocabulary loaded afresh for each repetition;
* ``pack_corpus``: the masked, packed table of those sequences;
* ``train``: ``tinylm.train`` on those sequences, which packs them again;
* ``write``: ``write_metrics_csv`` to a file;
* ``cli_run``: the whole command through ``lingmask.cli.run``, whose CSV
  must equal the one the stages wrote.

Prints one JSON object: the best of ``--repeat`` repetitions of each
``make-pretraining-data`` stage in seconds, every repetition's times, the
input's sentence and piece counts, ``stages_share`` (the stages' best times
summed, over ``cli_run``'s), the same figures for ``verify-masking`` under
``verify_law`` and for ``train-tiny`` under ``tiny_lm`` (whose share leaves
out ``pack_corpus``, a part of ``train``), and the versions and bytecode
state the figures were taken with. Without valid cached bytecode every
fresh process compiles the package from source, which moves start-up and
peak memory but none of the in-process times here. Exits 1 if a stage's
best time is not positive, or if the stages wrote other records, reported
otherwise or wrote another CSV than the command.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import importlib.util
import json
import logging
import os
import platform
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

from rss_by_corpus_size import ROOT, generate  # also puts perfbench/ on the path
from run import (  # the benchmark's settings
    P_NC,
    TINY_BATCH,
    TINY_EVAL_EVERY,
    TINY_STEPS,
    VERIFY_N,
    VERIFY_SEQ_LEN,
    VERIFY_TOLERANCE,
)
import gen  # the benchmark's input generator

STAGES = ("parse", "encode", "mask_batches", "rows_build", "json", "write", "cli_run")
LAW_STAGES = ("flagged_sequences", "tally_blocks", "empirical_mask_report", "cli_run")
TINY_STAGES = ("prepare", "pack_corpus", "train", "write", "cli_run")


def bytecode_state() -> dict:
    """Whether ``lingmask``'s modules have bytecode that a fresh process
    would load: ``cached`` of ``modules`` have a ``__pycache__`` file whose
    header names the source's current mtime and size."""
    sources = sorted((ROOT / "src" / "lingmask").glob("*.py"))
    cached = 0
    for source in sources:
        try:
            header = Path(importlib.util.cache_from_source(str(source))).read_bytes()[:16]
        except OSError:
            continue
        stat = source.stat()
        flags, mtime, size = (int.from_bytes(header[k : k + 4], "little") for k in (4, 8, 12))
        cached += flags == 0 and mtime == int(stat.st_mtime) & 0xFFFFFFFF and size == stat.st_size & 0xFFFFFFFF
    return {
        "dont_write_bytecode": sys.dont_write_bytecode,
        "modules": len(sources),
        "cached": cached,
    }


def timer(times: dict[str, float]):
    """``timed(stage, fn)``: calls ``fn`` after a collection, records its
    seconds in ``times[stage]`` and returns its result."""

    def timed(stage, fn):
        gc.collect()
        t0 = time.perf_counter()
        result = fn()
        times[stage] = time.perf_counter() - t0
        return result

    return timed


def repetition(tsv: str, vocab_path: str, out_dir: str, seed: int) -> tuple[dict, dict]:
    """One pass over every stage; returns each stage's seconds and the
    input's counts."""
    from lingmask import cli, masking
    from lingmask.chunker import parse_annotations
    from lingmask.subword import load_vocab

    times: dict[str, float] = {}
    timed = timer(times)
    vocab = load_vocab(vocab_path)
    config = masking.MaskingConfig(
        strategy="lim", p_nc=P_NC, seed=seed,
        mask_piece_id=vocab.id_of("[MASK]"), vocab_size=vocab.size,
    )
    sentences = timed("parse", lambda: list(parse_annotations(tsv, Counter())))
    sequences = timed("encode", lambda: [
        masking.sequence_from_annotated(sent, vocab, config.max_seq_len, doc_id=f"sent-{i}")
        for i, sent in enumerate(sentences)
    ])
    batches = timed("mask_batches", lambda: list(masking.mask_batches(sequences, config)))
    replay = masking.mask_batches
    masking.mask_batches = lambda *_: iter(batches)
    try:
        examples = timed("rows_build", lambda: [
            masking.build_example(seq, config, row) for seq, row in masking.mask_sequences(sequences, config)
        ])
    finally:
        masking.mask_batches = replay
    lines = timed("json", lambda: [masking.example_to_json_line(example, config) for example in examples])

    def write():
        with open(os.path.join(out_dir, "stage.jsonl"), "w", encoding="utf-8", newline="\n") as handle:
            for line in lines:
                handle.write(line + "\n")

    timed("write", write)
    argv = [
        "make-pretraining-data", "--annotations", tsv, "--vocab", vocab_path,
        "--strategy", "lim", "--p-nc", str(P_NC), "--seed", str(seed),
        "--output", os.path.join(out_dir, "run.jsonl"),
    ]
    code = timed("cli_run", lambda: cli.run(argv))
    if code != 0:
        raise SystemExit(f"lingmask {' '.join(argv)} exited {code}")
    if Path(out_dir, "stage.jsonl").read_bytes() != Path(out_dir, "run.jsonl").read_bytes():
        raise SystemExit("the stages wrote other records than the command")
    return times, {"sentences": len(sentences), "pieces": sum(len(seq.pieces) for seq in sequences)}


def law_repetition(out_dir: str, seed: int) -> dict:
    """One pass over every stage of verify-masking; returns each stage's
    seconds."""
    from lingmask import cli, masking, stats

    times: dict[str, float] = {}
    timed = timer(times)
    config = masking.MaskingConfig(strategy="lim", p_nc=P_NC, seed=seed, max_seq_len=VERIFY_SEQ_LEN)
    blocks = timed("flagged_sequences", lambda: list(stats.flagged_sequences(VERIFY_N, seq_len=VERIFY_SEQ_LEN, seed=seed)))
    tallies = timed("tally_blocks", lambda: list(stats.tally_blocks(blocks, config)))
    report = timed("empirical_mask_report", lambda: stats.empirical_mask_report(tallies, config))
    output = os.path.join(out_dir, "verify.json")
    argv = [
        "verify-masking", "--strategy", "lim", "--p-nc", str(P_NC), "--n", str(VERIFY_N),
        "--seq-len", str(VERIFY_SEQ_LEN), "--tolerance", str(VERIFY_TOLERANCE),
        "--seed", str(seed), "--output", output,
    ]
    code = timed("cli_run", lambda: cli.run(argv))
    if code != 0:
        raise SystemExit(f"lingmask {' '.join(argv)} exited {code}")
    if json.loads(Path(output).read_text(encoding="utf-8")) != dataclasses.asdict(report):
        raise SystemExit("the verify-masking stages reported otherwise than the command")
    return times


def tiny_repetition(tsv: str, vocab_path: str, out_dir: str, seed: int) -> tuple[dict, int]:
    """One pass over every stage of train-tiny; returns each stage's
    seconds and the number of sentences."""
    from lingmask import cli, masking, tinylm
    from lingmask.chunker import parse_annotations
    from lingmask.subword import load_vocab

    times: dict[str, float] = {}
    timed = timer(times)
    vocab = load_vocab(vocab_path)
    config = masking.MaskingConfig(seed=seed, mask_piece_id=vocab.id_of("[MASK]"), vocab_size=vocab.size)
    train_config = tinylm.TrainingConfig(
        steps=TINY_STEPS, batch_size=TINY_BATCH, eval_every=TINY_EVAL_EVERY, seed=seed
    )
    sequences = timed("prepare", lambda: [
        masking.sequence_from_annotated(sent, vocab, config.max_seq_len, doc_id=f"sent-{i}")
        for i, sent in enumerate(parse_annotations(tsv, Counter()))
    ])
    timed("pack_corpus", lambda: tinylm.pack_corpus(sequences, config))
    metrics, _ = timed("train", lambda: tinylm.train(sequences, config, train_config))

    def write():
        with open(os.path.join(out_dir, "stage.csv"), "w", encoding="utf-8", newline="\n") as handle:
            tinylm.write_metrics_csv(metrics, handle)

    timed("write", write)
    argv = [
        "train-tiny", "--annotations", tsv, "--vocab", vocab_path, "--strategy", "mlm",
        "--steps", str(TINY_STEPS), "--eval-every", str(TINY_EVAL_EVERY),
        "--batch-size", str(TINY_BATCH), "--seed", str(seed),
        "--output", os.path.join(out_dir, "run.csv"),
    ]
    code = timed("cli_run", lambda: cli.run(argv))
    if code != 0:
        raise SystemExit(f"lingmask {' '.join(argv)} exited {code}")
    if Path(out_dir, "stage.csv").read_bytes() != Path(out_dir, "run.csv").read_bytes():
        raise SystemExit("the train-tiny stages wrote another CSV than the command")
    return times, len(sequences)


def stage_figures(best: dict[str, float], runs: dict[str, list[float]], within: tuple[str, ...] = ()) -> dict:
    """Each stage's best and every repetition's seconds, and the stages'
    best times summed over the whole command's (the last stage), leaving
    out the stages ``within`` another."""
    *stages, command = best
    return {
        "best_s": {stage: round(t, 6) for stage, t in best.items()},
        "runs_s": {stage: [round(t, 6) for t in times] for stage, times in runs.items()},
        "stages_share": round(sum(best[stage] for stage in stages if stage not in within) / best[command], 3),
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sentences", type=int, default=20_000)
    parser.add_argument("--seed", type=int, default=2)
    parser.add_argument("--repeat", type=int, default=5, help="repetitions; each stage reports its best")
    args = parser.parse_args(argv)
    if args.sentences < 1 or args.repeat < 1:
        parser.error("--sentences and --repeat must be at least 1")

    bytecode = bytecode_state()  # before lingmask is imported
    sys.path.insert(0, str(ROOT / "src"))
    import numpy

    # The command's warning on unknown POS tags would print once per repetition.
    logging.getLogger("lingmask").setLevel(logging.ERROR)
    runs: dict[str, list[float]] = {stage: [] for stage in STAGES}
    law_runs: dict[str, list[float]] = {stage: [] for stage in LAW_STAGES}
    tiny_runs: dict[str, list[float]] = {stage: [] for stage in TINY_STAGES}
    with tempfile.TemporaryDirectory() as tmp:
        generate(args.sentences, args.seed, tmp)
        gen.make_corpus(args.seed, tmp, "tiny")
        tiny_tsv, tiny_vocab = os.path.join(tmp, "tiny.tsv"), os.path.join(tmp, "tiny.vocab.txt")
        tsv, vocab = os.path.join(tmp, "pretrain.tsv"), os.path.join(tmp, "pretrain.vocab.txt")
        for _ in range(args.repeat):
            times, counts = repetition(tsv, vocab, tmp, args.seed)
            for stage in STAGES:
                runs[stage].append(times[stage])
            times = law_repetition(tmp, args.seed)
            for stage in LAW_STAGES:
                law_runs[stage].append(times[stage])
            times, tiny_sentences = tiny_repetition(tiny_tsv, tiny_vocab, tmp, args.seed)
            for stage in TINY_STAGES:
                tiny_runs[stage].append(times[stage])
    best = {stage: min(runs[stage]) for stage in STAGES}
    law_best = {stage: min(law_runs[stage]) for stage in LAW_STAGES}
    tiny_best = {stage: min(tiny_runs[stage]) for stage in TINY_STAGES}
    report = {
        "sentences": counts["sentences"],
        "pieces": counts["pieces"],
        "seed": args.seed,
        "repeat": args.repeat,
        **stage_figures(best, runs),
        "verify_law": {
            "sequences": VERIFY_N,
            "seq_len": VERIFY_SEQ_LEN,
            "p_nc": P_NC,
            **stage_figures(law_best, law_runs),
        },
        "tiny_lm": {
            "sentences": tiny_sentences,
            "steps": TINY_STEPS,
            "batch_size": TINY_BATCH,
            "eval_every": TINY_EVAL_EVERY,
            **stage_figures(tiny_best, tiny_runs, within=("pack_corpus",)),
        },
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "bytecode": bytecode,
    }
    print(json.dumps(report, indent=2))
    not_positive = [stage for stage in STAGES if not best[stage] > 0]
    not_positive += [f"verify_law.{stage}" for stage in LAW_STAGES if not law_best[stage] > 0]
    not_positive += [f"tiny_lm.{stage}" for stage in TINY_STAGES if not tiny_best[stage] > 0]
    if not_positive:
        raise SystemExit(f"stages with a best time that is not positive: {not_positive}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
