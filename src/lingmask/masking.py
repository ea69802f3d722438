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

Setting ``p_nc`` equal to the corpus token-level chunk probability gives the
two strategies the same conditional masking rates only on equal-length
sequences whose budget ``mask_prob * length`` needs no rounding. The stats
module checks the law on fixed-length synthetic sequences, which come close;
on real text, of varied lengths, the two strategies' rates differ.

Replacement at the selected positions follows the standard 80/10/10 policy
(``MASK_FRAC`` mask piece / ``RANDOM_FRAC`` random piece / keep), applied
identically under both strategies.

Randomness comes in blocks of ``BLOCK`` consecutive sequences (by ordinal).
Each block has one stream of the Philox4x32-10 counter-based generator:
stream number ``block index`` under the key ``seed`` (``sequence_rng``,
which also draws the tiny LM's initial weights). Callers number rows:
row ``n`` of a stream of sequences is row ``n % BLOCK`` of block
``n // BLOCK``'s stream, and only ``draw_rows`` applies this rule. Every
block's stream has the same layout, in this order:

1. ``BLOCK`` branch coins, one per row (reserved under ``mlm`` too);
2. ``max_seq_len x BLOCK`` position keys, position-major;
3. ``max_pred x BLOCK`` replacement words, then as many random-id words,
   slot-major.

Each value is one 32-bit word. A sequence masks the positions of its pool
with the smallest keys, which is a uniform sample without replacement; its
``j``-th masked position, in ascending order, takes slot ``j``'s replacement
words. Because Philox is counter-based, only the words a batch of rows needs
are computed (the keys of its longest row, and the replacement words of as
many slots as its largest mask budget), and an example depends only on the
seed, its ordinal and its own sequence: the output for a corpus prefix is a
prefix of the output for the whole corpus, and how the work is batched does
not matter. The stream number is a counter word, so one cipher call can
serve several blocks, and any run of rows of the stream, within a block or
across blocks, is drawn at once.

``draw_rows`` is the one function that knows this layout. It has two
callers. ``mask_rows``, for a grid of rows from a given row of the stream
on, returns the masked positions of all rows as one flat array, with
per-row counts, branches and the aligned chunk flags and replacement ids.
``lim_counts`` returns only each row's masked and masked chunk-flagged
counts under ``lim``, which is all the law check reads: it draws the coins
alone, because every masked position of a row has the flag of its pool, so
a row's counts follow from its coin, its length and its number of
chunk-flagged positions. Both apply one pool rule (``_lim_pools``).
``mask_batches`` masks a stream of sequences ``_BATCH`` rows at a time;
``mask_sequences`` (pre-training examples) and ``tinylm.pack_corpus`` (the
tiny LM's table) read it. ``TokenizedSequence`` checks nothing when built:
``mask_batches``, which every consumer reads, checks once per batch that
each sequence's flags align with its pieces. ``mask_sequences`` checks once
per batch what ``MaskedExample`` checks when built directly: that each row's
masked positions are strictly increasing and within its length. So
``build_example`` builds its examples without running those checks again.
``stats.tally_blocks`` (the law check) counts grids of synthetic rows
numbered the same way: under ``mlm`` from the positions ``mask_rows``
chooses, one grid at a time, under ``lim`` with ``lim_counts`` once per run
of up to 16 blocks.

The kernel is laid out for numpy. ``philox4x32`` runs its rounds in place on
one (4, n) array, so a round allocates nothing. ``draw_rows`` lays a batch's
words out row-major with one copy, so each region is a column slice of a
C-contiguous (rows, columns) array. ``mask_rows`` builds its keys in place on
those contiguous rows, where ``np.partition`` runs about three times faster
than on a transposed layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, islice
from json.encoder import encode_basestring
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .chunker import AnnotatedSentence
from .subword import Vocabulary, encode_word

STRATEGIES = ("mlm", "lim")
BRANCHES = ("nc", "non_nc", "n/a")

# Version of the JSONL example record layout, reported by the CLI.
FORMAT_VERSION = 2

# Sequences per random block; part of the example format.
BLOCK = 256

# Shares of masked positions given the mask piece and a random piece.
MASK_FRAC, RANDOM_FRAC = 0.8, 0.1


@dataclass
class MaskingConfig:
    """Generation parameters; defaults follow standard pre-training practice
    (masking probability 0.15, at most 20 predictions, sequences of 128)."""

    mask_prob: float = 0.15
    max_pred: int = 20
    max_seq_len: int = 128
    strategy: str = "mlm"
    p_nc: float | None = None
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
        if self.strategy == "lim":
            if self.p_nc is None:
                raise ValueError("strategy 'lim' requires p_nc")
            if not 0.0 <= self.p_nc <= 1.0:
                raise ValueError(f"p_nc must be in [0, 1], got {self.p_nc}")
        if self.vocab_size < 1:
            raise ValueError(f"vocab_size must be >= 1, got {self.vocab_size}")
        if not 0 <= self.mask_piece_id < self.vocab_size:
            raise ValueError("mask_piece_id must be a valid piece id")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.seed >= 2**64:
            raise ValueError(f"seed must be < 2**64, got {self.seed}")


@dataclass
class TokenizedSequence:
    """A piece-id sequence with per-piece chunk flags. Their alignment is
    checked by ``mask_batches``, not here."""

    pieces: list[int]
    y: list[bool]
    doc_id: str = ""


@dataclass
class MaskedExample:
    """One pre-training instance. Its record's ``weights`` and ``strategy``
    are the same for the whole run and come from the config when it is
    written (``example_to_json_line``)."""

    input_ids: list[int]
    masked_positions: list[int]
    labels: list[int]
    branch: str
    doc_id: str = ""

    def __post_init__(self) -> None:
        if len(self.labels) != len(self.masked_positions):
            raise ValueError("labels must align with masked positions")
        if any(b <= a for a, b in zip(self.masked_positions, self.masked_positions[1:])):
            raise ValueError("masked positions must be strictly increasing")
        if self.masked_positions and not (
            0 <= self.masked_positions[0] and self.masked_positions[-1] < len(self.input_ids)
        ):
            raise ValueError("masked position out of bounds")
        if self.branch not in BRANCHES:
            raise ValueError(f"unknown branch tag: {self.branch!r}")


_U64 = np.uint64
_LOW = _U64(0xFFFFFFFF)
_PHILOX_M0, _PHILOX_M1 = _U64(0xD2511F53), _U64(0xCD9E8D57)
_PHILOX_W0, _PHILOX_W1 = 0x9E3779B9, 0xBB67AE85


def philox4x32(counter, key) -> np.ndarray:
    """The Philox4x32-10 block cipher (Salmon et al., SC'11, "Parallel random
    numbers: as easy as 1, 2, 3") on counters ``(c0, c1, c2, c3)`` under the
    key ``(k0, k1)``: 32-bit words, held as uint64 scalars or 1-d arrays
    that broadcast together. Returns the (4, n) output words.

    The counters are copied into the result, and the ten rounds update it in
    place through two product buffers (``out=`` products, shifts and masks,
    then ``^=``), so a round allocates nothing and the caller's arrays are
    never written."""
    counter = [np.asarray(c, dtype=_U64) for c in counter]
    state = np.empty((4, np.broadcast(*(np.atleast_1d(c) for c in counter)).size), dtype=_U64)
    for word, c in zip(state, counter):
        word[...] = c
    c0, c1, c2, c3 = state
    p0, p1 = np.empty_like(c0), np.empty_like(c0)
    k0, k1 = (int(k) for k in key)
    for _ in range(10):
        np.multiply(c0, _PHILOX_M0, out=p0)
        np.multiply(c2, _PHILOX_M1, out=p1)
        # (c0, c1, c2, c3) <- (hi(p1) ^ c1 ^ k0, lo(p1), hi(p0) ^ c3 ^ k1, lo(p0))
        np.right_shift(p1, _U64(32), out=c0)
        c0 ^= c1
        c0 ^= _U64(k0)
        np.bitwise_and(p1, _LOW, out=c1)
        np.right_shift(p0, _U64(32), out=c2)
        c2 ^= c3
        c2 ^= _U64(k1)
        np.bitwise_and(p0, _LOW, out=c3)
        k0, k1 = (k0 + _PHILOX_W0) & 0xFFFFFFFF, (k1 + _PHILOX_W1) & 0xFFFFFFFF
    return state


def sequence_rng(seed: int, stream: int | np.ndarray, groups: np.ndarray) -> np.ndarray:
    """Words ``4 g`` to ``4 g + 3`` of Philox stream ``stream`` under the
    root ``seed``, for each counter group ``g`` of ``groups``: the (4, n)
    cipher output at counters ``(g, stream mod 2**32, stream >> 32, 0)``
    under the two 32-bit halves of ``seed mod 2**64``. ``stream`` is an int
    or an array aligned with ``groups``.

    A word depends only on (seed, stream, its index), so any words of any
    streams are computed at once: ``draw_rows`` reads the streams of masking
    blocks, and the tiny LM its own stream. (``numpy.random`` has Philox
    too, but importing it loads OpenSSL through ``secrets``, which costs
    about 6 MB of resident memory and 15 ms; no module of this package
    imports it.)
    """
    seed %= 2**64
    return philox4x32((groups, stream & 0xFFFFFFFF, stream >> 32, 0), (seed & 0xFFFFFFFF, seed >> 32))


def draw_rows(
    config: MaskingConfig, start: int, rows: int, span: int, width: int = 0
) -> tuple[np.ndarray | None, ...]:
    """The words of rows ``start`` to ``start + rows - 1`` of the stream, in
    one block or across any number of them: coins, keys, replacement and
    random-id words, each the leading columns of its region as a (rows,
    columns) array, or None.

    A block's stream holds the four regions one after the other: coins (1
    column), keys (max_seq_len columns) and the last two (max_pred columns
    each). Column ``j`` of a region is ``BLOCK`` consecutive words, one per
    row, whatever the number of columns drawn. Only what is asked for is
    computed: the coins under ``lim``, the first ``span`` key columns and
    the first ``width`` columns of the last two regions, the most positions
    any of the rows masks (0 for none). One cipher call
    computes the words of every block the rows touch, each counter carrying
    its block's stream number. The words are laid out row-major with one
    copy: each region is a column slice of one C-contiguous (rows, columns)
    array, whose rows follow each other across block boundaries.
    """
    if start < 0:
        raise ValueError(f"rows are numbered from 0, got start {start}")
    if rows < 1:
        raise ValueError("no rows to draw")
    if span > config.max_seq_len:
        raise ValueError(f"span {span} exceeds max_seq_len {config.max_seq_len}")
    if not 0 <= width <= config.max_pred:
        raise ValueError(f"width {width} outside 0 to max_pred {config.max_pred}")
    starts = (0, 1, 1 + config.max_seq_len, 1 + config.max_seq_len + config.max_pred)
    wanted = (int(config.strategy == "lim"), span, width, width)
    columns = np.concatenate([at + np.arange(n) for at, n in zip(starts, wanted)])
    # A counter serves four consecutive rows of one column, and a block's
    # BLOCK rows are whole groups of four, so no counter spans two blocks.
    skip, per_block = start % 4, BLOCK // 4
    streams, groups = np.divmod(np.arange((start - skip) // 4, (start + rows + 3) // 4), per_block)
    stream = int(streams[0]) if streams[0] == streams[-1] else np.repeat(streams, len(columns))
    state = sequence_rng(config.seed, stream, (groups[:, None] + columns * per_block).ravel())
    # Word w of the counter of group g and column c is state[w, g, c]; the
    # copy puts it in row 4 g + w - skip.
    words = state.reshape(4, len(groups), -1).transpose(1, 0, 2).reshape(-1, len(columns))[skip : skip + rows]
    parts = np.split(words, np.cumsum(wanted)[:-1], axis=1)
    return tuple(part if n else None for part, n in zip(parts, wanted))


def mask_budget(lengths: np.ndarray, config: MaskingConfig) -> np.ndarray:
    """Positions to mask per sequence length: round(mask_prob * length)
    (half to even, as Python's ``round``), at least one, at most max_pred."""
    if lengths.size and lengths.min() < 1:
        raise ValueError("cannot mask an empty sequence")
    return np.clip(np.rint(config.mask_prob * lengths), 1, config.max_pred).astype(np.int64)


def _lim_pools(
    coins: np.ndarray, n_chunk: np.ndarray, lengths: np.ndarray, budget: np.ndarray, config: MaskingConfig
) -> tuple[np.ndarray, np.ndarray]:
    """The pool rule of ``lim``: each row's branch (True for its
    chunk-flagged positions) and how many positions it masks.

    A coin below ``p_nc * 2**32`` chooses the chunk-flagged pool, any other
    coin the unflagged one; an empty chosen pool falls back to the other one.
    A row masks its budget, or its whole pool when that is smaller.
    """
    nc = np.where(coins < config.p_nc * 2**32, n_chunk > 0, n_chunk == lengths)
    return nc, np.minimum(budget, np.where(nc, n_chunk, lengths - n_chunk))


class MaskedRows(NamedTuple):
    """Masked positions chosen for some rows of a block, as flat arrays.

    ``positions`` holds each row's masked positions in ascending order, the
    rows one after another: row ``i`` owns ``counts[i]`` of them. ``chunk``
    and ``replacements`` are aligned with ``positions``: the chunk flag
    there, and the piece id written there, the mask piece, a random piece or
    -1 to keep the piece (80/10/10); ``replacements`` is None when not
    drawn. ``nc`` says whether each row's pool is its chunk-flagged
    positions; it is None under ``mlm``.
    """

    positions: np.ndarray
    counts: np.ndarray
    nc: np.ndarray | None
    chunk: np.ndarray
    replacements: np.ndarray | None


def mask_rows(
    flags: np.ndarray,
    lengths: np.ndarray,
    config: MaskingConfig,
    start: int = 0,
    replacements: bool = True,
) -> MaskedRows:
    """Choose the masked positions of rows ``start``, ``start + 1``, ... of
    the stream, and with ``replacements`` what each is replaced by. The rows
    may span any number of blocks (``draw_rows``).

    ``flags`` is a (rows, span) boolean array of chunk flags, False past
    each row's length, where ``span`` is the longest length. The keys are
    sorted, and the replacement words drawn, only as far as the largest
    mask budget of the rows.
    """
    rows, span = flags.shape
    budget = mask_budget(lengths, config)  # rejects an empty row before any draw
    width = int(budget.max(initial=0))  # no rows give 0, which draw_rows rejects
    coins, key_words, replace, id_words = draw_rows(config, start, rows, span, width * replacements)
    # Positions outside each row's pool: past its length (a block of full
    # rows has none) and, under lim, of the other flag value.
    outside = np.arange(span) >= lengths[:, None] if lengths.min() < span else None
    # Under mlm the pool is the whole row, which a budget never exceeds.
    nc, counts = None, budget
    if config.strategy == "lim":
        nc, counts = _lim_pools(coins[:, 0], np.count_nonzero(flags, axis=1), lengths, budget, config)
        other = flags != nc[:, None]
        outside = other if outside is None else outside | other

    # The count smallest keys within the pool are a uniform sample of it. A
    # key is a 32-bit word above its position, so keys never tie; outside the
    # pool every bit is set. Built in place: a masked assignment costs more
    # than the rest of the key pass together.
    keys = np.left_shift(key_words, _U64(32))
    keys |= np.arange(span, dtype=_U64)
    if outside is not None:
        keys |= np.negative(outside, dtype=_U64)
    keys.partition(width - 1, axis=1)
    smallest = np.sort(keys[:, :width], axis=1)
    filled = np.arange(width) < counts[:, None]
    # Sorting each row with the unused columns past any position leaves its
    # own positions first, in ascending order.
    positions = np.sort(np.where(filled, (smallest & _LOW).astype(np.int64), span), axis=1)[filled]
    # Under lim every masked position of a row has the flag of its pool.
    chunk = flags[np.repeat(np.arange(rows), counts), positions] if nc is None else np.repeat(nc, counts)
    if not replacements:
        return MaskedRows(positions, counts, nc, chunk, None)
    replace = replace[filled]
    random_ids = ((id_words[filled] * _U64(config.vocab_size)) >> _U64(32)).astype(np.int64)
    ids = np.where(
        replace < MASK_FRAC * 2**32,
        config.mask_piece_id,
        np.where(replace < (MASK_FRAC + RANDOM_FRAC) * 2**32, random_ids, -1),
    )
    return MaskedRows(positions, counts, nc, chunk, ids)


def lim_counts(
    n_chunk: np.ndarray, lengths: np.ndarray, config: MaskingConfig, start: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """How many positions ``mask_rows`` masks under ``lim`` in each of rows
    ``start``, ``start + 1``, ... of the stream, and how many of those are
    chunk-flagged, as two arrays with one entry per row, from each row's
    length and number of chunk-flagged positions alone.

    A row's masked positions all have the flag of its pool, so its counts
    follow from its coin and those two numbers: only the coins are drawn,
    in one cipher call for all the rows, whatever blocks they span.
    """
    if config.strategy != "lim":
        raise ValueError(f"lim_counts needs strategy 'lim', got {config.strategy!r}")
    if lengths.size and lengths.max() > config.max_seq_len:
        raise ValueError(f"span {lengths.max()} exceeds max_seq_len {config.max_seq_len}")
    budget = mask_budget(lengths, config)
    coins, *_ = draw_rows(config, start, len(lengths), 0)
    nc, counts = _lim_pools(coins[:, 0], n_chunk, lengths, budget, config)
    return counts, np.where(nc, counts, 0)


# Sequences masked at a time: a divisor of BLOCK, so a batch is rows of one
# block and its counters share one stream number. Small batches keep each
# stage's working set warm and memory low and flat when a caller parses and
# encodes its sequences as they are masked.
_BATCH = 64


def mask_batches(
    sequences: Iterable[TokenizedSequence], config: MaskingConfig, replacements: bool = True
) -> Iterator[tuple[list[TokenizedSequence], MaskedRows]]:
    """Mask ``sequences`` in order, ``_BATCH`` at a time; yields each batch
    with its ``MaskedRows``.

    Sequence ``n`` is row ``n`` of the stream. A sequence whose flags do not
    align with its pieces, or that is longer than ``max_seq_len``, raises
    ``ValueError``.
    """
    sequences = iter(sequences)
    for index, batch in enumerate(iter(lambda: list(islice(sequences, _BATCH)), [])):
        if any(len(seq.y) != len(seq.pieces) for seq in batch):
            raise ValueError("chunk flags must align with pieces")
        lengths = np.fromiter((len(seq.y) for seq in batch), np.int64, len(batch))
        span = int(lengths.max())
        if span > config.max_seq_len:
            raise ValueError(f"sequence longer than max_seq_len {config.max_seq_len}")
        flags = np.zeros((len(batch), span), dtype=bool)
        flags[np.arange(span) < lengths[:, None]] = np.fromiter(
            chain.from_iterable(seq.y for seq in batch), bool, int(lengths.sum())
        )
        yield batch, mask_rows(flags, lengths, config, index * _BATCH, replacements)


class MaskRow(NamedTuple):
    """One sequence's masks, as ``build_example`` applies them."""

    branch: str
    positions: list[int]
    replacements: list[int]


def _check_rows(masked: MaskedRows, lengths: np.ndarray) -> None:
    """What ``MaskedExample`` checks of its positions, for all the rows of a
    batch at once: each row's masked positions are strictly increasing and
    below its length. Raises ``ValueError``."""
    positions = masked.positions
    rows = np.repeat(np.arange(len(lengths)), masked.counts)
    if positions.size and not ((positions >= 0).all() and (positions < lengths[rows]).all()):
        raise ValueError("masked position out of bounds")
    # Within bounds, row r's position p has the key r * span + p, and every
    # key of a row is below every key of the next: the keys increase
    # throughout if and only if each row's positions do.
    if (np.diff(rows * lengths.max() + positions) <= 0).any():
        raise ValueError("masked positions must be strictly increasing")


def mask_sequences(
    sequences: Iterable[TokenizedSequence], config: MaskingConfig
) -> Iterator[tuple[TokenizedSequence, MaskRow]]:
    """The rows of ``mask_batches``: yields each sequence with its masks,
    whose positions are checked a batch at a time (``_check_rows``)."""
    for batch, masked in mask_batches(sequences, config):
        _check_rows(masked, np.fromiter((len(seq.pieces) for seq in batch), np.int64, len(batch)))
        branches = (
            ["n/a"] * len(batch)
            if masked.nc is None
            else ["nc" if nc else "non_nc" for nc in masked.nc.tolist()]
        )
        # One flat list per field, sliced row by row as the rows are consumed.
        positions, replacements = masked.positions.tolist(), masked.replacements.tolist()
        ends = masked.counts.cumsum().tolist()
        for seq, branch, start, end in zip(batch, branches, [0, *ends], ends):
            yield seq, MaskRow(branch, positions[start:end], replacements[start:end])


def build_example(seq: TokenizedSequence, config: MaskingConfig, row: MaskRow) -> MaskedExample:
    """Apply one sequence's row of ``mask_sequences`` to it.

    ``mask_sequences`` checks the rows a batch at a time (``_check_rows``),
    so the example is built without ``MaskedExample``'s checks. A row that
    did not come from ``mask_sequences`` is therefore not checked at all: a
    position of -1 would overwrite the last piece. Construct
    ``MaskedExample`` directly for a checked example."""
    pieces, positions = seq.pieces, row.positions
    input_ids = list(pieces)
    for position, piece in zip(positions, row.replacements):
        if piece >= 0:
            input_ids[position] = piece
    example = object.__new__(MaskedExample)
    example.input_ids = input_ids
    example.masked_positions = positions
    example.labels = [pieces[p] for p in positions]
    example.branch = row.branch
    example.doc_id = seq.doc_id
    return example


def sequence_from_annotated(
    sent: AnnotatedSentence, vocab: Vocabulary, max_seq_len: int, doc_id: str = ""
) -> TokenizedSequence:
    """Encode an annotated sentence into piece ids with inherited chunk flags.

    Every piece of a word carries that word's flag; the sequence is truncated
    to ``max_seq_len`` pieces.
    """
    ids = vocab.ids
    piece_ids: list[int] = []
    flags: list[bool] = []
    for token, flag in zip(sent.tokens, sent.y):
        pieces = encode_word(token.surface, vocab)
        if len(pieces) == 1:
            piece_ids.append(ids[pieces[0]])
            flags.append(flag)
        else:
            piece_ids += map(ids.__getitem__, pieces)
            flags += [flag] * len(pieces)
    del piece_ids[max_seq_len:], flags[max_seq_len:]
    return TokenizedSequence(piece_ids, flags, doc_id)


_INT = {int}


@lru_cache(maxsize=256)
def _weights_text(n_masked: int, max_pred: int) -> str:
    return repr([1.0] * n_masked + [0.0] * (max_pred - n_masked))


def example_to_json_line(example: MaskedExample, config: MaskingConfig) -> str:
    """Serialize one example of a run with ``config`` to its JSONL record
    (stable key order). ``weights`` is 1.0 per masked position then 0.0 up
    to ``max_pred``, and ``strategy`` is the config's.

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
    weights = _weights_text(len(positions), config.max_pred)
    return (
        f'{{"input_ids": {ids!r}, "masked_positions": {positions!r}, '
        f'"labels": {labels!r}, "weights": {weights}, "strategy": "{config.strategy}", '
        f'"branch": "{example.branch}", "doc_id": {encode_basestring(example.doc_id)}}}'
    )
