"""Output checks for the lingmask benchmark.

Each check reads a command's output files and the generator's truth and
returns ``(failed_items, problems)``. The checks rely on documented behaviour
only (record layout, the greedy encoding, the masking law, dataset contracts),
never on a particular random stream, so a legitimate change of the RNG or of
extra record fields still passes. Like the generator, this module does not
import ``lingmask``.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from typing import Callable

Result = tuple[int, list[str]]

# The realized p(mask | chunk) must lie within this many standard errors of
# the law's prediction.
LAW_Z_LIMIT = 5.0


def score_command(returncode: int, items: int, check: Callable[[], Result]) -> Result:
    """A non-zero exit fails every item of the command; otherwise run the check."""
    if returncode != 0:
        return items, [f"exit code {returncode}"]
    try:
        failed, problems = check()
    except OSError as exc:
        return items, [f"output unreadable: {exc}"]
    return min(items, failed), problems


def _read_lines(path: str) -> list[str]:
    with open(path, encoding="utf-8") as handle:
        return handle.read().split("\n")


def _jsonl(path: str, expected: int, problems: list[str]) -> tuple[list, int]:
    """Parse a JSONL file; unparsable, missing and surplus records count as failed."""
    lines = _read_lines(path)
    if lines and lines[-1] == "":
        lines.pop()
    else:
        problems.append(f"{path}: last line is not newline-terminated")
    records, failed = [], 0
    for line in lines[:expected]:
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            records.append(None)
            failed += 1
    if len(lines) != expected:
        problems.append(f"{path}: {len(lines)} records, expected {expected}")
        failed += abs(len(lines) - expected)
    return records, failed


def mask_budget(n_pieces: int, mask_prob: float, max_pred: int) -> int:
    """round(mask_prob * length), at least one, at most max_pred."""
    return min(max_pred, max(1, int(round(mask_prob * n_pieces))))


def check_pretraining(path: str, truth: dict, *, mask_prob: float, max_pred: int, p_nc: float) -> Result:
    """``make-pretraining-data --strategy lim`` output against the source sequences.

    Per record: it parses; input ids keep every unmasked source piece;
    positions are strictly increasing and in bounds; labels are the source
    pieces at those positions; the mask count follows the budget; weights are
    1.0 per slot then 0.0 padding to ``max_pred``; all positions share one
    chunk flag, which matches the branch tag. Over the corpus: the
    realized p(mask | chunk) lies within ``LAW_Z_LIMIT`` standard errors of
    the law mask_prob * p_nc / p(chunk), evaluated per sequence with that
    sequence's mask budget and pool sizes (the only form of the law that holds
    exactly when sentences differ in length).
    """
    sequences = truth["sequences"]
    vocab_size = truth["vocab_size"]
    problems: list[str] = []
    records, failed = _jsonl(path, len(sequences), problems)
    masked_chunk = 0
    expected_chunk = variance = 0.0
    for index, (record, (ids, flags)) in enumerate(zip(records, sequences)):
        error = record is None or _record_error(record, ids, flags, vocab_size, mask_prob, max_pred)
        if error:
            failed += 1
            if len(problems) < 5:
                problems.append(f"record {index}: {error if error is not True else 'unparsable'}")
            continue
        n_chunk = sum(flags)
        masked_chunk += sum(flags[p] for p in record["masked_positions"])
        count = min(mask_budget(len(ids), mask_prob, max_pred), n_chunk)
        share = p_nc if 0 < n_chunk < len(ids) else float(n_chunk == len(ids))
        expected_chunk += count * share
        variance += count * count * share * (1.0 - share)
    if failed == 0:
        z = (masked_chunk - expected_chunk) / math.sqrt(variance) if variance else 0.0
        if abs(z) > LAW_Z_LIMIT:
            problems.append(f"p(mask | chunk) is {z:+.1f} standard errors from the law")
            failed = len(sequences)
    return failed, problems


def _record_error(
    record: dict,
    ids: list[int],
    flags: list[bool],
    vocab_size: int,
    mask_prob: float,
    max_pred: int,
) -> str | None:
    try:
        input_ids = record["input_ids"]
        positions = record["masked_positions"]
        labels = record["labels"]
        weights = record["weights"]
    except (KeyError, TypeError):
        return "missing field"
    if not isinstance(input_ids, list) or len(input_ids) != len(ids):
        return "input_ids length differs from the source sequence"
    if not isinstance(positions, list) or not all(isinstance(p, int) for p in positions):
        return "masked_positions is not a list of integers"
    if any(b <= a for a, b in zip(positions, positions[1:])):
        return "masked positions not strictly increasing"
    if positions and not (0 <= positions[0] and positions[-1] < len(ids)):
        return "masked position out of bounds"
    if labels != [ids[p] for p in positions]:
        return "labels differ from the source pieces"
    masked = set(positions)
    if any(input_ids[k] != ids[k] for k in range(len(ids)) if k not in masked):
        return "an unmasked piece changed"
    if any(not (isinstance(input_ids[p], int) and 0 <= input_ids[p] < vocab_size) for p in positions):
        return "replacement id outside the vocabulary"
    if weights != [1.0] * len(positions) + [0.0] * (max_pred - len(positions)):
        return "weights are not 1.0 per slot then 0.0 padding"
    budget = mask_budget(len(ids), mask_prob, max_pred)
    pool_flags = {flags[p] for p in positions}
    if len(pool_flags) != 1:
        return "lim positions mix chunk and non-chunk pieces"
    flag = pool_flags.pop()
    if record.get("branch") != ("nc" if flag else "non_nc"):
        return "branch tag does not match the masked pool"
    if len(positions) != min(budget, sum(1 for f in flags if f == flag)):
        return "mask count differs from min(budget, pool size)"
    return None


def check_verify(path: str, *, n: int, seq_len: int, tolerance: float) -> Result:
    """``verify-masking`` report: complete, and abs_error within tolerance."""
    try:
        with open(path, encoding="utf-8") as handle:
            report = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        return n, [f"report unreadable: {exc}"]
    problems = []
    if report.get("n_sequences") != n or report.get("n_tokens") != n * seq_len:
        problems.append("report does not cover every sequence")
    error = report.get("abs_error")
    if not isinstance(error, (int, float)) or not error <= tolerance:
        problems.append(f"abs_error {error} exceeds tolerance {tolerance}")
    return (n if problems else 0), problems


def check_metrics_csv(path: str, *, steps: int, eval_every: int, batch_size: int) -> Result:
    """``train-tiny`` metrics: one row per step plus the eval rows, all finite,
    and the final eval loss below the step-0 eval loss."""
    items = steps * batch_size
    expected: list[tuple[int, int]] = [(0, 1)]
    for step in range(1, steps + 1):
        expected.append((step, 0))
        if step % eval_every == 0 or step == steps:
            expected.append((step, 1))
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle))
        header, body = rows[0], rows[1:]
        keys = [(int(r[0]), int(r[4])) for r in body]
        losses = [[float(v) for v in r[1:4]] for r in body]
    except (OSError, IndexError, ValueError) as exc:
        return items, [f"metrics unreadable: {exc}"]
    if header != ["step", "total_loss", "nc_token_loss", "non_nc_token_loss", "eval"]:
        return items, [f"unexpected header {header}"]
    if keys != expected:
        return items, [f"{len(keys)} rows, expected {len(expected)} in step order"]
    bad_steps = sum(1 for (step, is_eval), row in zip(keys, losses) if not is_eval and not all(map(math.isfinite, row)))
    problems = [f"{bad_steps} step rows with a non-finite loss"] if bad_steps else []
    evals = [row for (_, is_eval), row in zip(keys, losses) if is_eval]
    if not all(math.isfinite(v) for row in evals for v in row):
        return items, problems + ["non-finite eval loss"]
    if not evals[-1][0] < evals[0][0]:
        return items, problems + [f"final eval loss {evals[-1][0]} not below step-0 {evals[0][0]}"]
    return bad_steps * batch_size, problems


def check_normalized(path: str, truth: dict) -> Result:
    """``normalize``: one record per document, with exactly the expected sentences."""
    expected = truth["doc_sentences"]
    problems: list[str] = []
    records, failed = _jsonl(path, len(expected), problems)
    for record, (doc_id, sentences) in zip(records, expected):
        if record is not None and record != {"id": doc_id, "sentences": sentences}:
            failed += 1
            if len(problems) < 5:
                problems.append(f"document {doc_id}: sentences differ")
    return failed, problems


def check_ipc(path: str, truth: dict) -> Result:
    """``make-ipc``: one example per eligible record, labelled with its
    most frequent subclass (smallest first on ties)."""
    labels = truth["ipc_labels"]
    problems: list[str] = []
    records, failed = _jsonl(path, len(labels), problems)
    for index, (record, label) in enumerate(zip(records, labels)):
        if record is None:
            continue
        if not (isinstance(record.get("text"), str) and record["text"]) or record.get("label") != label:
            failed += 1
            if len(problems) < 5:
                problems.append(f"example {index}: expected label {label}, got {record.get('label')}")
    return failed, problems


def check_pairs(path: str, train_path: str, test_path: str, truth: dict, *, train_frac: float) -> Result:
    """``make-pairs``: positives are known X-citation pairs, each at most once;
    every kept positive has exactly one negative with the same citing side that
    is not a citation partner; labels are balanced; and the split partitions
    the pairs without separating the two orientations of a pair."""
    items = truth["patents"]
    positives = truth["positives"]
    known = set(positives)
    related = {frozenset(p) for p in positives}
    pool = {pub for pair in positives for pub in pair}
    try:
        records = [json.loads(line) for line in _read_lines(path) if line]
        train = [json.loads(line) for line in _read_lines(train_path) if line]
        test = [json.loads(line) for line in _read_lines(test_path) if line]
        pairs = [(r["id_a"], r["id_b"], r["label"], r["text_a"], r["text_b"]) for r in records]
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
        return items, [f"pairs unreadable: {exc}"]
    problems = []
    pos = [(a, b) for a, b, label, _, _ in pairs if label is True]
    neg = [(a, b) for a, b, label, _, _ in pairs if label is False]
    if len(pos) + len(neg) != len(pairs) or len(pos) != len(neg):
        problems.append(f"labels unbalanced: {len(pos)} positive, {len(neg)} negative")
    if len(set(pos)) != len(pos) or not set(pos) <= known:
        problems.append("a positive is duplicated or not an X-citation pair")
    # Only a negative draw hitting the anchor itself (about 1/|pool| per
    # positive) or ten related draws in a row may drop a positive.
    if len(pos) < 0.98 * len(positives):
        problems.append(f"{len(pos)} of {len(positives)} positives kept")
    if sorted(a for a, _ in neg) != sorted(a for a, _ in pos):
        problems.append("negatives do not pair one-to-one with positive anchors")
    if any(b not in pool or frozenset((a, b)) in related for a, b in neg):
        problems.append("a negative is a citation partner or outside the pool")
    if not all(text_a and text_b for _, _, _, text_a, text_b in pairs):
        problems.append("a pair has an empty text")
    split = sorted(map(json.dumps, train + test))
    if split != sorted(map(json.dumps, records)):
        problems.append("train and test do not partition the pairs")
    train_keys = {frozenset((r["id_a"], r["id_b"])) for r in train}
    if any(frozenset((r["id_a"], r["id_b"])) in train_keys for r in test):
        problems.append("a pair's orientations straddle the split")
    # Whole groups go to train until it reaches its target size.
    target = round(train_frac * len(records))
    largest = max(Counter(frozenset((r["id_a"], r["id_b"])) for r in records).values(), default=1)
    if not target <= len(train) < target + largest:
        problems.append(f"train split has {len(train)} of {len(records)} pairs, target {target}")
    return (items if problems else 0), problems
