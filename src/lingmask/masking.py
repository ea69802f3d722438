"""Masked pre-training example generation, plain and chunk-aware.

Two position-selection strategies are supported:

* ``mlm``: mask positions are drawn uniformly without replacement from the
  whole sequence.
* ``lim``: one coin per sequence decides the candidate pool. With probability
  ``p_nc`` the pool is the chunk-flagged positions (branch ``nc``), otherwise
  the unflagged positions (branch ``non_nc``). Positions are then drawn
  uniformly from that pool alone, so every example's masked positions share
  one flag value. When the selected pool is empty the other pool is used and
  the branch tag follows; when the pool is smaller than the mask budget the
  whole pool is masked.

Setting ``p_nc`` equal to the corpus token-level chunk probability makes the
two strategies statistically indistinguishable, which the stats module
verifies empirically.

Replacement at the selected positions follows the standard 80/10/10 policy
(mask piece / random piece / keep), applied identically under both strategies.
Per sequence, the draw order is fixed: branch coin (lim only), position
sample, then one replacement draw per position in ascending position order,
so a (seed, ordinal) pair fully determines the output.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from .chunker import AnnotatedSentence
from .subword import Vocabulary, encode_word

STRATEGIES = ("mlm", "lim")
BRANCHES = ("nc", "non_nc", "n/a")

# Version of the JSONL example record layout, reported by the CLI.
FORMAT_VERSION = 1


@dataclass
class MaskingConfig:
    """Generation parameters; defaults follow standard pre-training practice
    (masking probability 0.15, at most 20 predictions, sequences of 128)."""

    mask_prob: float = 0.15
    max_pred: int = 20
    max_seq_len: int = 128
    strategy: str = "mlm"
    p_nc: float | None = None
    mask_frac: float = 0.8
    random_frac: float = 0.1
    keep_frac: float = 0.1
    seed: int = 0
    mask_piece_id: int = 0
    vocab_size: int = 1

    def __post_init__(self) -> None:
        if not 0.0 < self.mask_prob < 1.0:
            raise ValueError(f"mask_prob must be in (0, 1), got {self.mask_prob}")
        if self.max_pred < 1:
            raise ValueError(f"max_pred must be >= 1, got {self.max_pred}")
        if self.max_seq_len < 1:
            raise ValueError(f"max_seq_len must be >= 1, got {self.max_seq_len}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy: {self.strategy!r}")
        if abs(self.mask_frac + self.random_frac + self.keep_frac - 1.0) > 1e-9:
            raise ValueError("replacement fractions must sum to 1")
        if min(self.mask_frac, self.random_frac, self.keep_frac) < 0:
            raise ValueError("replacement fractions must be non-negative")
        if self.strategy == "lim":
            if self.p_nc is None:
                raise ValueError("strategy 'lim' requires p_nc")
            if not 0.0 <= self.p_nc <= 1.0:
                raise ValueError(f"p_nc must be in [0, 1], got {self.p_nc}")
        if self.vocab_size < 1:
            raise ValueError(f"vocab_size must be >= 1, got {self.vocab_size}")
        if not 0 <= self.mask_piece_id < self.vocab_size:
            raise ValueError("mask_piece_id must be a valid piece id")


@dataclass
class TokenizedSequence:
    """A piece-id sequence with per-piece chunk flags."""

    pieces: list[int]
    y: list[bool]
    doc_id: str = ""

    def __post_init__(self) -> None:
        if len(self.y) != len(self.pieces):
            raise ValueError("chunk flags must align with pieces")


@dataclass
class MaskedExample:
    """One pre-training instance.

    ``weights`` has length ``max_pred``: 1.0 for each real prediction slot,
    0.0 for padding, so downstream loss code can consume fixed-width batches.
    """

    input_ids: list[int]
    masked_positions: list[int]
    labels: list[int]
    weights: list[float]
    strategy_tag: str
    branch: str
    doc_id: str = ""

    def __post_init__(self) -> None:
        n = len(self.masked_positions)
        if len(self.labels) != n:
            raise ValueError("labels must align with masked positions")
        if any(b <= a for a, b in zip(self.masked_positions, self.masked_positions[1:])):
            raise ValueError("masked positions must be strictly increasing")
        if self.masked_positions and not (
            0 <= self.masked_positions[0] and self.masked_positions[-1] < len(self.input_ids)
        ):
            raise ValueError("masked position out of bounds")
        if self.strategy_tag not in STRATEGIES:
            raise ValueError(f"unknown strategy tag: {self.strategy_tag!r}")
        if self.branch not in BRANCHES:
            raise ValueError(f"unknown branch tag: {self.branch!r}")
        if self.weights != [1.0] * n + [0.0] * (len(self.weights) - n):
            raise ValueError("weights must be 1.0 per real slot then 0.0 padding")


def sequence_rng(seed: int, ordinal: int) -> random.Random:
    """Per-sequence generator derived from the root seed and sequence ordinal.

    String seeding hashes with SHA-512 internally, so the derivation is stable
    across runs, platforms, and worker processes.
    """
    return random.Random(f"{seed}:{ordinal}")


def select_mask_count(seq_len: int, config: MaskingConfig) -> int:
    """Number of positions to mask: round(mask_prob * length), at least one,
    capped at max_pred."""
    if seq_len < 1:
        raise ValueError(f"seq_len must be >= 1, got {seq_len}")
    return min(config.max_pred, max(1, int(round(config.mask_prob * seq_len))))


def _pad_weights(n_masked: int, max_pred: int) -> list[float]:
    return [1.0] * n_masked + [0.0] * (max_pred - n_masked)


def _apply_replacements(
    input_ids: list[int], positions: list[int], config: MaskingConfig, rng: random.Random
) -> None:
    mask_cut = config.mask_frac
    random_cut = config.mask_frac + config.random_frac
    for position in positions:
        draw = rng.random()
        if draw < mask_cut:
            input_ids[position] = config.mask_piece_id
        elif draw < random_cut:
            input_ids[position] = rng.randrange(config.vocab_size)
        # else: keep the original piece


def build_example(
    seq: TokenizedSequence, config: MaskingConfig, rng: random.Random
) -> MaskedExample:
    """Mask positions of ``seq`` drawn from the pool the strategy picks: every
    position (``mlm``) or a single chunk-membership pool (``lim``)."""
    n_pieces = len(seq.pieces)
    if n_pieces == 0:
        raise ValueError("cannot mask an empty sequence")
    if config.strategy == "lim":
        pool_nc = [k for k, flag in enumerate(seq.y) if flag]
        pool_non = [k for k, flag in enumerate(seq.y) if not flag]
        if rng.random() < config.p_nc:
            pool, branch = pool_nc, "nc"
        else:
            pool, branch = pool_non, "non_nc"
        if not pool:
            # Fallback keeps corpus coverage: use the other pool and tag honestly.
            pool, branch = (pool_non, "non_nc") if branch == "nc" else (pool_nc, "nc")
    else:
        pool, branch = range(n_pieces), "n/a"
    count = min(select_mask_count(n_pieces, config), len(pool))
    positions = sorted(rng.sample(pool, count))
    input_ids = list(seq.pieces)
    labels = [seq.pieces[p] for p in positions]
    _apply_replacements(input_ids, positions, config, rng)
    return MaskedExample(
        input_ids=input_ids,
        masked_positions=positions,
        labels=labels,
        weights=_pad_weights(len(positions), config.max_pred),
        strategy_tag=config.strategy,
        branch=branch,
        doc_id=seq.doc_id,
    )


def sequence_from_annotated(
    sent: AnnotatedSentence, vocab: Vocabulary, max_seq_len: int, doc_id: str = ""
) -> TokenizedSequence:
    """Encode an annotated sentence into piece ids with inherited chunk flags.

    Every piece of a word carries that word's flag; the sequence is truncated
    to ``max_seq_len`` pieces.
    """
    piece_ids: list[int] = []
    flags: list[bool] = []
    for token, flag in zip(sent.tokens, sent.y):
        for piece in encode_word(token.surface, vocab):
            piece_ids.append(vocab.id_of(piece))
            flags.append(flag)
    return TokenizedSequence(
        pieces=piece_ids[:max_seq_len], y=flags[:max_seq_len], doc_id=doc_id
    )


def example_to_json_line(example: MaskedExample) -> str:
    """Serialize one example to its JSONL record (stable key order)."""
    return json.dumps(
        {
            "input_ids": example.input_ids,
            "masked_positions": example.masked_positions,
            "labels": example.labels,
            "weights": example.weights,
            "strategy": example.strategy_tag,
            "branch": example.branch,
            "doc_id": example.doc_id,
        },
        ensure_ascii=False,
    )
