"""Traced run of one lingmask command, for the benchmark's per-layer numbers.

Usage: python3 perfbench/tracer.py STATS_JSON SPANS_JSONL -- <lingmask arguments>

Runs ``lingmask.cli.run(argv)`` in this process after replacing each public
function listed in ``TARGETS`` with a timing wrapper. A wrapper goes on the
name its caller looks up: the package imports with ``from .x import y``, so
``encode_word`` as called by ``sequence_from_annotated`` lives at
``lingmask.masking.encode_word``.

Every wrapped call, and every step of a wrapped generator, is a frame on one
stack. Its duration is added to the enclosing frame's child time, so a name's
self time is its busy time minus its children's, and the self times of all
layers add up to the command's traced wall time. A wrapper's own bookkeeping
is charged to the call it wraps. Calls made per word or per record are only
aggregated (count, busy, child); the others are also kept as spans
``[id, parent id, name, start, end]`` and written to SPANS_JSONL when the run
ends. Counts taken at the same boundaries go to STATS_JSON.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter
from time import perf_counter

# (module, attribute, traced name, kind); the layer is the name's first part.
# kind: "span" keeps one span per call, "call" aggregates, "gen" aggregates
# each step of the generator the function returns.
TARGETS = [
    ("lingmask.cli", "parse_annotations", "chunker.parse_annotations", "gen"),
    ("lingmask.cli", "load_vocab", "subword.load_vocab", "span"),
    ("lingmask.masking", "encode_word", "subword.encode_word", "call"),
    ("lingmask.cli", "sequence_from_annotated", "masking.sequence_from_annotated", "call"),
    ("lingmask.cli", "sequence_rng", "masking.sequence_rng", "call"),
    ("lingmask.tinylm", "sequence_rng", "masking.sequence_rng", "call"),
    ("lingmask.cli", "build_example", "masking.build_example", "span"),
    ("lingmask.tinylm", "build_example", "masking.build_example", "span"),
    ("lingmask.cli", "example_to_json_line", "masking.example_to_json_line", "call"),
    ("lingmask.cli", "flagged_sequences", "stats.flagged_sequences", "gen"),
    ("lingmask.cli", "empirical_mask_report", "stats.empirical_mask_report", "span"),
    ("lingmask.cli", "train", "tinylm.train", "span"),
    ("lingmask.tinylm", "grad_and_step", "tinylm.grad_and_step", "span"),
    ("lingmask.tinylm", "loss_and_grads", "tinylm.loss_and_grads", "call"),
    ("lingmask.tinylm", "evaluate", "tinylm.evaluate", "span"),
    ("lingmask.cli", "write_metrics_csv", "tinylm.write_metrics_csv", "span"),
    ("lingmask.cli", "ingest_documents", "corpus.ingest_documents", "gen"),
    ("lingmask.cli", "clean_document", "corpus.clean_document", "call"),
    ("lingmask.corpus", "normalize_text", "corpus.normalize_text", "call"),
    ("lingmask.datasets", "normalize_text", "corpus.normalize_text", "call"),
    ("lingmask.corpus", "split_sentences", "corpus.split_sentences", "call"),
    ("lingmask.cli", "read_patent_records", "datasets.read_patent_records", "gen"),
    ("lingmask.cli", "build_ipc_examples", "datasets.build_ipc_examples", "gen"),
    ("lingmask.cli", "build_similarity_pairs", "datasets.build_similarity_pairs", "gen"),
    ("lingmask.cli", "split_dataset", "datasets.split_dataset", "span"),
]
ROOT = "cli.run"


class Tracer:
    """Frame stack, per-name totals, spans and counts of one traced run."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # frames: [child seconds, span id]
        self.stats: dict[str, list] = {}  # name -> [calls, busy seconds, child seconds]
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.params: dict = {}
        self.words: set[str] = set()
        self._last_id = 0

    def _open(self, keep: bool) -> tuple[list | None, list]:
        parent = self.stack[-1] if self.stack else None
        if keep:
            self._last_id += 1
            span_id = self._last_id
        else:
            span_id = parent[1] if parent else 0
        frame = [0.0, span_id]
        self.stack.append(frame)
        return parent, frame

    def _close(self, name: str, keep: bool, parent: list | None, frame: list, t0: float) -> None:
        self.stack.pop()
        t1 = perf_counter()
        duration = t1 - t0
        totals = self.stats.get(name)
        if totals is None:
            totals = self.stats[name] = [0, 0.0, 0.0]
        totals[0] += 1
        totals[1] += duration
        totals[2] += frame[0]
        if parent is not None:
            parent[0] += duration
        if keep:
            self.spans.append((frame[1], parent[1] if parent else 0, name, t0, t1))

    def call(self, name, fn, keep=False, hook=None, pre=None):
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            parent, frame = self._open(keep)
            try:
                before = pre() if pre else None
                result = fn(*args, **kwargs)
                if hook:
                    hook(args, kwargs, result, before)
                return result
            finally:
                self._close(name, keep, parent, frame, t0)

        return wrapper

    def generator(self, name, fn, on_item=None, on_end=None):
        def wrapper(*args, **kwargs):
            steps = iter(fn(*args, **kwargs))
            while True:
                t0 = perf_counter()
                parent, frame = self._open(False)
                try:
                    item = next(steps)
                    if on_item:
                        on_item(item)
                except StopIteration:
                    if on_end:
                        on_end(args, kwargs)
                    return
                finally:
                    self._close(name, False, parent, frame, t0)
                yield item

        return wrapper

    # Counts taken at the layer boundaries -------------------------------

    def _sentence(self, sentence) -> None:
        self.counts["chunker.sentences"] += 1
        self.counts["chunker.tokens"] += len(sentence.tokens)
        self.counts["chunker.chunk_tokens"] += sum(sentence.y)

    def _parse_end(self, args, kwargs) -> None:
        warnings = kwargs.get("warn_counter", args[1] if len(args) > 1 else None)
        self.counts["chunker.unknown_pos"] += sum(warnings.values()) if warnings else 0

    def _encoded(self, args, kwargs, pieces, _) -> None:
        self.words.add(args[0])
        self.counts["subword.pieces"] += len(pieces)
        if len(pieces) == 1 and pieces[0] == args[1].unk_piece:
            self.counts["subword.unk_words"] += 1

    def _sequence(self, args, kwargs, seq, pieces_before) -> None:
        self.counts["masking.sequences"] += 1
        self.counts["masking.sequence_pieces"] += len(seq.pieces)
        if self.counts["subword.pieces"] - pieces_before > len(seq.pieces):
            self.counts["masking.truncated"] += 1

    def _example(self, args, kwargs, example, _) -> None:
        seq, config = args[0], args[1]
        flags = seq.y
        n_chunk = sum(flags)
        counts = self.counts
        counts["masking.examples"] += 1
        counts["masking.nc_examples"] += example.branch == "nc"
        counts["masking.single_pool"] += n_chunk == 0 or n_chunk == len(flags)
        counts["masking.slots"] += len(flags)
        counts["masking.chunk_slots"] += n_chunk
        counts["masking.masked_chunk"] += sum(1 for p in example.masked_positions if flags[p])
        self.params.update(mask_prob=config.mask_prob, p_nc=config.p_nc, strategy=config.strategy)

    def _json_line(self, args, kwargs, line, _) -> None:
        self.counts["masking.output_bytes"] += len(line.encode("utf-8")) + 1

    def _batch(self, args, kwargs, result, _) -> None:
        self.counts["tinylm.steps"] += 1
        self.counts["tinylm.slots"] += sum(len(example.labels) for example in args[0])

    def _pair(self, pair) -> None:
        self.counts["datasets.pairs"] += 1

    def _pairs_end(self, args, kwargs) -> None:
        counters = kwargs.get("counters", args[2] if len(args) > 2 else None)
        dropped = sum(counters.values()) if counters else 0
        self.counts["datasets.pair_candidates"] += self.counts["datasets.pairs"] // 2 + dropped

    def install(self) -> list[str]:
        """Wrap every target that exists; return the names of those that do not."""
        hooks = {
            "subword.encode_word": {"hook": self._encoded},
            "masking.sequence_from_annotated": {
                "hook": self._sequence,
                "pre": lambda: self.counts["subword.pieces"],
            },
            "masking.build_example": {"hook": self._example},
            "masking.example_to_json_line": {"hook": self._json_line},
            "tinylm.grad_and_step": {"hook": self._batch},
        }
        gen_hooks = {
            "chunker.parse_annotations": {"on_item": self._sentence, "on_end": self._parse_end},
            "datasets.build_similarity_pairs": {"on_item": self._pair, "on_end": self._pairs_end},
        }
        missing = []
        for module_name, attribute, name, kind in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attribute, None)
            if fn is None:
                missing.append(f"{module_name}.{attribute}")
            elif kind == "gen":
                setattr(module, attribute, self.generator(name, fn, **gen_hooks.get(name, {})))
            else:
                setattr(module, attribute, self.call(name, fn, keep=kind == "span", **hooks.get(name, {})))
        return missing


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 64
    stats_path, spans_path, command = argv[0], argv[1], argv[3:]
    tracer = Tracer()
    missing = tracer.install()
    cli = importlib.import_module("lingmask.cli")
    run = tracer.call(ROOT, cli.run, keep=True)
    cpu0 = time.process_time()
    rc = run(command)
    cpu_s = time.process_time() - cpu0
    with open(spans_path, "w", encoding="utf-8") as handle:
        for span in tracer.spans:
            handle.write(json.dumps(span) + "\n")
    counts = dict(tracer.counts, **{"subword.distinct_words": len(tracer.words)})
    with open(stats_path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "argv": command,
                "rc": rc,
                "wall_s": tracer.stats[ROOT][1],
                "cpu_s": cpu_s,
                "stats": tracer.stats,
                "counts": counts,
                "params": tracer.params,
                "unwrapped": missing,
            },
            handle,
        )
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
