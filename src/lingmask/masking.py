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

Randomness comes in blocks of ``BLOCK`` consecutive sequences (by ordinal).
Each block has one stream of the Philox4x32-10 counter-based generator,
keyed by ``(seed, block index)`` (``sequence_rng``). The stream is laid out
in the same four regions for every block, however many rows it holds, in
this order:

1. ``BLOCK`` branch coins, one per row (reserved under ``mlm`` too);
2. ``max_seq_len x BLOCK`` position keys, position-major;
3. ``max_pred x BLOCK`` replacement words, then as many random-id words,
   slot-major.

Each value is one 32-bit word. A sequence masks the positions of its pool
with the smallest keys, which is a uniform sample without replacement; its
``j``-th masked position, in ascending order, takes slot ``j``'s replacement
words. Because Philox is counter-based, only the words a batch of rows needs
are computed, and an example depends only on the seed, its ordinal and its
own sequence: the output for a corpus prefix is a prefix of the output for
the whole corpus, and how the work is batched does not matter.

``draw_rows`` is the one function that knows this layout, and ``mask_rows``
its one caller: for a batch of rows of a block it returns the masked
positions of all rows as one flat array, with per-row counts, branches and
the aligned replacement ids. ``mask_sequences`` (pre-training examples),
``stats.tally_block`` (the law check) and ``tinylm.pack_corpus`` (the tiny
LM's table) all mask through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from json.encoder import encode_basestring
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .chunker import AnnotatedSentence
from .subword import Vocabulary, encode_word

STRATEGIES = ("mlm", "lim")
BRANCHES = ("nc", "non_nc", "n/a")

# Version of the JSONL example record layout, reported by the CLI.
FORMAT_VERSION = 2

# Sequences per random block; part of the example format.
BLOCK = 256


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


_U64 = np.uint64
_LOW = _U64(0xFFFFFFFF)
_PHILOX_M0, _PHILOX_M1 = _U64(0xD2511F53), _U64(0xCD9E8D57)
_PHILOX_W0, _PHILOX_W1 = 0x9E3779B9, 0xBB67AE85


def philox4x32(counter, key) -> np.ndarray:
    """The Philox4x32-10 block cipher (Salmon et al., SC'11, "Parallel random
    numbers: as easy as 1, 2, 3") on counters ``(c0, c1, c2, c3)`` under the
    key ``(k0, k1)``: 32-bit words, held as uint64 scalars or 1-d arrays
    that broadcast together. Returns the (4, n) output words."""
    c0, c1, c2, c3 = np.broadcast_arrays(*(np.atleast_1d(np.asarray(c, dtype=_U64)) for c in counter))
    k0, k1 = (int(k) for k in key)
    for _ in range(10):
        # Two products, not one stacked array: a (2, n) temporary this large
        # would be mapped afresh by the allocator every round.
        p0, p1 = c0 * _PHILOX_M0, c2 * _PHILOX_M1
        c0, c1, c2, c3 = (p1 >> 32) ^ c1 ^ k0, p1 & _LOW, (p0 >> 32) ^ c3 ^ k1, p0 & _LOW
        k0, k1 = (k0 + _PHILOX_W0) & 0xFFFFFFFF, (k1 + _PHILOX_W1) & 0xFFFFFFFF
    return np.stack([c0, c1, c2, c3])


class Philox:
    """One stream of Philox4x32-10, computed with numpy.

    Word ``i`` of stream ``stream`` under the 64-bit ``key`` is word
    ``i % 4`` of the cipher applied to the counter
    ``(i // 4, stream mod 2**32, stream >> 32, 0)``, so any words of the
    stream can be computed without the ones before them. The tiny LM draws
    its initial weights from a stream of its own. (``numpy.random`` has
    Philox too, but importing it loads OpenSSL through ``secrets``, which
    costs about 6 MB of resident memory and 15 ms; no module of this package
    imports it.)
    """

    def __init__(self, key: int, stream: int) -> None:
        self._key = (key & 0xFFFFFFFF, (key >> 32) & 0xFFFFFFFF)
        self._stream = (stream & 0xFFFFFFFF, (stream >> 32) & 0xFFFFFFFF)

    def words(self, groups: np.ndarray) -> np.ndarray:
        """Words ``4 g`` to ``4 g + 3`` of each group ``g``, in order."""
        counter = (groups.ravel(), *self._stream, 0)
        return philox4x32(counter, self._key).T.reshape(*groups.shape[:-1], -1)


def sequence_rng(seed: int, block: int) -> Philox:
    """The stream of block ``block`` (sequences ``block * BLOCK`` onwards):
    Philox keyed by the root seed, stream number ``block``.

    A block's words depend only on (seed, block), never on which blocks were
    drawn before, so any block can be drawn on its own.
    """
    return Philox(seed % 2**64, block)


class Draws(NamedTuple):
    """Words of some rows of a block, each a (rows, columns) array; the
    leading columns of a region, or None where not drawn."""

    coins: np.ndarray | None
    keys: np.ndarray
    replace: np.ndarray | None
    ids: np.ndarray | None


def draw_rows(
    rng: Philox, config: MaskingConfig, first: int, rows: int, span: int, replacements: bool = True
) -> Draws:
    """The words of rows ``first`` to ``first + rows - 1`` of a block.

    A block's stream holds four regions, one after the other: branch coins
    (1 column), position keys (max_seq_len columns), replacement words and
    random-id words (max_pred columns each). Column ``j`` of a region is
    ``BLOCK`` consecutive words, one per row. Only what is asked for is
    computed: the coins under ``lim``, the first ``span`` key columns and,
    with ``replacements``, the first ``min(max_pred, span)`` columns of the
    last two regions.
    """
    if first < 0 or rows < 1 or first + rows > BLOCK or span > config.max_seq_len:
        raise ValueError(f"a block holds at most {BLOCK} rows of at most max_seq_len positions")
    width = min(config.max_pred, span)
    starts = (0, 1, 1 + config.max_seq_len, 1 + config.max_seq_len + config.max_pred)
    wanted = (int(config.strategy == "lim"), span, width * replacements, width * replacements)
    columns = np.concatenate([start + np.arange(n) for start, n in zip(starts, wanted)])
    skip = first % 4
    groups = (columns * BLOCK + first - skip)[:, None] // 4 + np.arange((skip + rows + 3) // 4)
    words = rng.words(groups)[:, skip : skip + rows].T
    parts = np.split(words, np.cumsum(wanted)[:-1], axis=1)
    return Draws(*(part if n else None for part, n in zip(parts, wanted)))


def mask_budget(lengths: np.ndarray, config: MaskingConfig) -> np.ndarray:
    """Positions to mask per sequence length: round(mask_prob * length)
    (half to even, as Python's ``round``), at least one, at most max_pred."""
    if lengths.size and lengths.min() < 1:
        raise ValueError("cannot mask an empty sequence")
    return np.clip(np.rint(config.mask_prob * lengths), 1, config.max_pred).astype(np.int64)


class MaskedRows(NamedTuple):
    """Masked positions chosen for some rows of a block, as flat arrays.

    ``positions`` holds each row's masked positions in ascending order, the
    rows one after another: row ``i`` owns ``counts[i]`` of them.
    ``replacements`` is aligned with ``positions``: the piece id written
    there, the mask piece, a random piece or -1 to keep the piece (80/10/10);
    it is None when not drawn. ``nc`` says whether each row's pool is its
    chunk-flagged positions; it is None under ``mlm``.
    """

    positions: np.ndarray
    counts: np.ndarray
    nc: np.ndarray | None
    replacements: np.ndarray | None


def mask_rows(
    flags: np.ndarray,
    lengths: np.ndarray,
    config: MaskingConfig,
    rng: Philox,
    first: int = 0,
    replacements: bool = True,
) -> MaskedRows:
    """Choose the masked positions of rows ``first``, ``first + 1``, ... of
    the block whose stream is ``rng``, and with ``replacements`` what each
    is replaced by.

    ``flags`` is a (rows, span) boolean array of chunk flags, False past
    each row's length, where ``span`` is the longest length (``flag_grid``).
    """
    rows, span = flags.shape
    draws = draw_rows(rng, config, first, rows, span, replacements)
    pool = np.arange(span) < lengths[:, None]
    nc = None
    if config.strategy == "lim":
        n_chunk = np.count_nonzero(flags, axis=1)
        # An empty chosen pool falls back to the other one.
        nc = np.where(draws.coins[:, 0] < config.p_nc * 2**32, n_chunk > 0, n_chunk == lengths)
        pool &= flags == nc[:, None]
    counts = np.minimum(mask_budget(lengths, config), np.count_nonzero(pool, axis=1))

    # The count smallest keys within the pool are a uniform sample of it. A
    # key is a 32-bit word above its position, so keys never tie.
    keys = (draws.keys << _U64(32)) | np.arange(span, dtype=_U64)
    keys[~pool] = np.iinfo(_U64).max
    width = min(config.max_pred, span)
    smallest = np.sort(np.partition(keys, width - 1, axis=1)[:, :width], axis=1)
    filled = np.arange(width) < counts[:, None]
    # Sorting each row with the unused columns past any position leaves its
    # own positions first, in ascending order.
    positions = np.sort(np.where(filled, (smallest & _LOW).astype(np.int64), span), axis=1)[filled]
    if not replacements:
        return MaskedRows(positions, counts, nc, None)
    replace = draws.replace[filled]
    random_ids = ((draws.ids[filled] * _U64(config.vocab_size)) >> _U64(32)).astype(np.int64)
    ids = np.where(
        replace < config.mask_frac * 2**32,
        config.mask_piece_id,
        np.where(replace < (config.mask_frac + config.random_frac) * 2**32, random_ids, -1),
    )
    return MaskedRows(positions, counts, nc, ids)


def flag_grid(seqs: Sequence[TokenizedSequence], config: MaskingConfig) -> tuple[np.ndarray, np.ndarray]:
    """The chunk flags of ``seqs`` as ``mask_rows`` takes them: a (rows,
    longest length) boolean grid, False past each row's length, and the
    lengths. A sequence longer than ``max_seq_len`` raises ``ValueError``."""
    lengths = np.fromiter((len(seq.y) for seq in seqs), np.int64, len(seqs))
    span = int(lengths.max())
    if span > config.max_seq_len:
        raise ValueError(f"sequence longer than max_seq_len {config.max_seq_len}")
    flags = np.zeros((len(seqs), span), dtype=bool)
    flags[np.arange(span) < lengths[:, None]] = np.fromiter(
        chain.from_iterable(seq.y for seq in seqs), bool, int(lengths.sum())
    )
    return flags, lengths


class MaskRow(NamedTuple):
    """One sequence's masks, as ``build_example`` applies them."""

    branch: str
    positions: list[int]
    replacements: list[int]


def mask_sequences(
    seqs: Sequence[TokenizedSequence], config: MaskingConfig, rng: Philox, first: int = 0
) -> Iterator[MaskRow]:
    """Masks of the sequences that are rows ``first``, ``first + 1``, ... of
    the block whose stream is ``rng``; yields one row per sequence."""
    masked = mask_rows(*flag_grid(seqs, config), config, rng, first)
    branches = (
        ["n/a"] * len(seqs)
        if masked.nc is None
        else ["nc" if nc else "non_nc" for nc in masked.nc.tolist()]
    )
    # One flat list per field, sliced row by row as the rows are consumed.
    positions, replacements = masked.positions.tolist(), masked.replacements.tolist()
    ends = masked.counts.cumsum().tolist()
    return (
        MaskRow(branch, positions[start:end], replacements[start:end])
        for branch, start, end in zip(branches, [0, *ends], ends)
    )


def _pad_weights(n_masked: int, max_pred: int) -> list[float]:
    return [1.0] * n_masked + [0.0] * (max_pred - n_masked)


def build_example(seq: TokenizedSequence, config: MaskingConfig, row: MaskRow) -> MaskedExample:
    """Apply one sequence's row of ``mask_sequences`` to it."""
    input_ids = list(seq.pieces)
    for position, piece in zip(row.positions, row.replacements):
        if piece >= 0:
            input_ids[position] = piece
    return MaskedExample(
        input_ids=input_ids,
        masked_positions=row.positions,
        labels=[seq.pieces[p] for p in row.positions],
        weights=_pad_weights(len(row.positions), config.max_pred),
        strategy_tag=config.strategy,
        branch=row.branch,
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


_INT = {int}


@lru_cache(maxsize=256)
def _weights_text(n_masked: int, max_pred: int) -> str:
    return repr(_pad_weights(n_masked, max_pred))


def example_to_json_line(example: MaskedExample) -> str:
    """Serialize one example to its JSONL record (stable key order).

    The bytes are those of ``json.dumps(record, ensure_ascii=False)``: an int
    list's ``repr`` is its JSON text, the strategy and branch tags are ASCII
    names from fixed sets, and ``doc_id`` is escaped by the function
    ``json.dumps`` uses. A list that is not a list of Python ints (a numpy
    integer's or a bool's ``repr`` is not the JSON of an int) raises
    ``TypeError``, as does a ``doc_id`` that is not a ``str``.
    """
    ids, positions, labels = example.input_ids, example.masked_positions, example.labels
    if not (
        type(ids) is type(positions) is type(labels) is list
        and {*map(type, ids), *map(type, positions), *map(type, labels)} <= _INT
    ):
        raise TypeError("input_ids, masked_positions and labels must be lists of int")
    weights = _weights_text(len(positions), len(example.weights))
    return (
        f'{{"input_ids": {ids!r}, "masked_positions": {positions!r}, '
        f'"labels": {labels!r}, "weights": {weights}, "strategy": "{example.strategy_tag}", '
        f'"branch": "{example.branch}", "doc_id": {encode_basestring(example.doc_id)}}}'
    )
