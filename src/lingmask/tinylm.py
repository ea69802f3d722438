"""A minimal trainable masked-LM head for desk-scale strategy comparisons.

The encoder is a deliberate stand-in for a deep network: the hidden vector of
a masked position is the mean embedding of the unmasked pieces in its context
window (radius 0 means the whole sequence). The output layer and the
cross-entropy loss over prediction slots are implemented exactly, so masking
strategies can be compared end to end without a transformer. Training is
plain gradient descent to keep optimizer effects out of the comparison.

A context-row x vocabulary matrix of context-piece counts turns the encoder
and its backward pass into dense matrix products over a whole batch. At radius
0 all prediction slots of an example see the same context, so they share one
row; at a positive radius each slot has its own. A training step runs one such
pass. Its clamped per-slot NLL vector goes through the same class sums and
means as an eval block's, so a step row reports the batch's total, chunk and
non-chunk losses from before the update, computed as an eval row's are, and
eval rows report the held-out set.

The corpus is masked once and packed into one table of flat arrays
(``PackedExamples``): every piece id with -1 at the masked positions, and per
slot its position, label and chunk flag, plus per-example offsets into both.
``train`` builds it batch by batch (``pack_corpus``): a batch's pieces are
flattened once, its masked positions and their chunk flags come from
``masking.mask_batches``, as ``mask_sequences`` draws them, and its rows of
the table are written with array operations, with no example object and no
replacement words, which the table would blank anyway. Its memory grows with
pieces and slots, not with examples x V. Every entry point takes a batch of
this table: a training batch or an eval block is gathered from it by index
with a few array operations, and its count matrix comes from one
``bincount``; no step or eval block loops over its examples in Python. The
held-out split and the epoch orders are index arrays into the table.
"""

from __future__ import annotations

import csv
import logging
import math
import random
from collections import Counter
from dataclasses import dataclass
from itertools import chain, count
from typing import Iterable, Iterator, NamedTuple, TextIO

import numpy as np

from .masking import MaskingConfig, TokenizedSequence, mask_batches, sequence_rng

# Not called here: the benchmark's tracer (perfbench/tracer.py) lists this
# name among the attributes it wraps.
from .masking import build_example  # noqa: F401

log = logging.getLogger(__name__)

PROB_CLAMP = 1e-12

# The Philox stream of the initial weights: a masking block's stream is its
# block index, which never comes near this.
INIT_STREAM = 2**64 - 1


@dataclass
class TinyLmParams:
    """Embedding table plus the output projection of the masked-LM head."""

    embeddings: np.ndarray
    w_mlm: np.ndarray
    b_mlm: np.ndarray
    context_radius: int

    def __post_init__(self) -> None:
        v, h = self.embeddings.shape
        if h < 1:
            raise ValueError("hidden dimension must be >= 1")
        if self.w_mlm.shape != (v, h) or self.b_mlm.shape != (v,):
            raise ValueError("output layer shapes must match the embedding table")
        if self.context_radius < 0:
            raise ValueError("context_radius must be >= 0")
        for arr in (self.embeddings, self.w_mlm, self.b_mlm):
            if not np.all(np.isfinite(arr)):
                raise ValueError("parameters must be finite")

    @classmethod
    def init(
        cls, vocab_size: int, hidden_dim: int, context_radius: int = 0, seed: int = 0
    ) -> "TinyLmParams":
        """Embeddings, then output weights, uniform on [-0.05, 0.05): one
        32-bit word each, from the Philox stream ``INIT_STREAM`` under
        ``seed``. Biases start at zero."""
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        if seed >= 2**64:
            raise ValueError(f"seed must be < 2**64, got {seed}")
        size = vocab_size * hidden_dim
        words = sequence_rng(seed, INIT_STREAM, np.arange((2 * size + 3) // 4)).T.ravel()
        weights = words[: 2 * size] * (0.1 / 2**32) - 0.05
        return cls(
            embeddings=weights[:size].reshape(vocab_size, hidden_dim),
            w_mlm=weights[size:].reshape(vocab_size, hidden_dim),
            b_mlm=np.zeros(vocab_size),
            context_radius=context_radius,
        )

    @property
    def vocab_size(self) -> int:
        return self.embeddings.shape[0]


EVAL_BLOCK = 32  # held-out examples per forward pass; bounds the context-row x V matrices


class NonFiniteError(ValueError):
    """Logits or updated parameters that are not finite."""


class ExampleSlots(NamedTuple):
    """The prediction slots of one packed example (views into its table).

    Only ``PackedBatch.__iter__`` yields these. They exist for the benchmark
    tracer's ``_batch`` hook, which counts a step's slots by iterating its
    batch (ROADMAP item 5).
    """

    masked_positions: np.ndarray
    labels: np.ndarray
    chunk: np.ndarray


@dataclass
class PackedExamples:
    """Masked examples as flat arrays plus per-example offsets.

    Example ``k`` owns pieces ``piece_offsets[k]:piece_offsets[k + 1]`` and
    slots ``slot_offsets[k]:slot_offsets[k + 1]``. ``ids`` holds every piece
    id of the input with -1 at the masked positions, so it is the example's
    visible context; per slot there is its position in the example, its
    label and whether its piece is in a chunk. Every slot weighs 1.
    """

    ids: np.ndarray
    piece_offsets: np.ndarray
    positions: np.ndarray
    labels: np.ndarray
    chunk: np.ndarray
    slot_offsets: np.ndarray

    def __len__(self) -> int:
        return len(self.piece_offsets) - 1


@dataclass
class PackedBatch:
    """The examples at ``index`` of a packed table, in that order.

    Training steps and eval blocks gather from the table by index. Iterating
    yields each example's slots; it exists for the benchmark tracer's
    ``_batch`` hook, which counts a step's slots that way (ROADMAP item 5).
    """

    table: PackedExamples
    index: np.ndarray

    def __len__(self) -> int:
        return len(self.index)

    def __iter__(self) -> Iterator[ExampleSlots]:
        table = self.table
        for k in self.index:
            start, stop = table.slot_offsets[k], table.slot_offsets[k + 1]
            yield ExampleSlots(
                table.positions[start:stop],
                table.labels[start:stop],
                table.chunk[start:stop],
            )


def pack_corpus(corpus: Iterable[TokenizedSequence], config: MaskingConfig) -> PackedExamples:
    """Mask the non-empty sequences of ``corpus`` and pack them into one table.

    The masked positions and their chunk flags are those of ``mask_batches``.
    No replacement words are drawn, since the table blanks every masked
    position whatever its replacement, and no example object is built: a
    batch's pieces are flattened once, and the rest is array operations on
    the batch.
    """
    # Each list starts with what an empty corpus needs: no pieces or slots,
    # and the leading 0 of the offsets.
    ids, positions, chunk = [np.zeros(0, np.intc)], [np.zeros(0, np.intc)], [np.zeros(0, bool)]
    lengths, counts = [np.zeros(1, np.int64)], [np.zeros(1, np.int64)]
    sequences = (s for s in corpus if s.pieces)
    for batch, masked in mask_batches(sequences, config, replacements=False):
        batch_lengths = np.fromiter((len(s.pieces) for s in batch), np.int64, len(batch))
        ids.append(np.fromiter(chain.from_iterable(s.pieces for s in batch), np.intc, int(batch_lengths.sum())))
        positions.append(masked.positions.astype(np.intc))
        chunk.append(masked.chunk)
        lengths.append(batch_lengths)
        counts.append(masked.counts)
    flat_ids, flat_positions = np.concatenate(ids), np.concatenate(positions)
    piece_offsets, slot_offsets = np.concatenate(lengths).cumsum(), np.concatenate(counts).cumsum()
    masked = piece_offsets[:-1].repeat(np.diff(slot_offsets)) + flat_positions
    labels = flat_ids[masked]
    flat_ids[masked] = -1
    chunk_flags = np.concatenate(chunk)
    return PackedExamples(flat_ids, piece_offsets, flat_positions, labels, chunk_flags, slot_offsets)


def _ranges(starts: np.ndarray, stops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The concatenated ``arange(start, stop)`` of each pair, and for each
    element the index of its pair."""
    lengths = stops - starts
    owner = np.repeat(np.arange(len(lengths)), lengths)
    ends = np.cumsum(lengths)
    return np.arange(ends[-1] if len(ends) else 0) + (starts - ends + lengths)[owner], owner


def _encode(
    batch: PackedBatch, params: TinyLmParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Batched context encoder over the prediction slots of ``batch``.

    Returns ``(counts, sizes, hidden, rows, slots)``: the row x V matrix
    ``C`` of unmasked context-piece counts with one row per distinct context,
    the context size ``n`` of each row (at least 1), ``H = C @ E / n``, the
    row of each slot, and each slot's index in the table. At
    ``context_radius`` 0 the context is the whole sequence, so each example
    is one row, shared by its slots; otherwise each slot is a row of the
    pieces within the radius. Either way a row is one range of the table's
    pieces. A row with an empty context gets a zero hidden vector.
    """
    table, index, radius = batch.table, batch.index, params.context_radius
    slots, slot_example = _ranges(table.slot_offsets[index], table.slot_offsets[index + 1])
    starts, stops = table.piece_offsets[index], table.piece_offsets[index + 1]
    if radius:
        first, positions = starts[slot_example], table.positions[slots]
        lo = first + np.maximum(positions - radius, 0)
        hi = np.minimum(first + positions + radius + 1, stops[slot_example])
        rows = np.arange(len(slots))
    else:
        lo, hi, rows = starts, stops, slot_example
    pieces, row = _ranges(lo, hi)
    ids = table.ids[pieces]
    visible = ids >= 0  # masked pieces are not context
    v = params.vocab_size
    counts = np.bincount(row[visible] * v + ids[visible], minlength=len(lo) * v)
    counts = counts.reshape(len(lo), v).astype(float)
    sizes = np.maximum(counts.sum(axis=1), 1.0)
    return counts, sizes, counts @ params.embeddings / sizes[:, None], rows, slots


def predict(hidden: np.ndarray, params: TinyLmParams) -> np.ndarray:
    """Probability rows softmax(W h + b), stabilized by max subtraction."""
    logits = hidden @ params.w_mlm.T
    logits += params.b_mlm
    if not np.isfinite(logits).all():
        raise NonFiniteError("non-finite logits")
    logits -= logits.max(axis=-1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=-1, keepdims=True)
    return logits


def _slot_nll(picked: np.ndarray, clamp_counter: Counter | None = None) -> np.ndarray:
    """-log of the slots' label probabilities ``picked``, clamped at 1e-12.

    When there is a ``clamp_counter`` and some probability is clamped, the
    count is added to it, so the counter gains a key only once something is
    clamped. Without a counter the clamp is applied and not counted.
    """
    clamped = picked < PROB_CLAMP
    if clamp_counter is not None and clamped.any():
        clamp_counter["clamped_probs"] += int(clamped.sum())
    return -np.log(np.maximum(picked, PROB_CLAMP))


def _class_sums(chunk: np.ndarray, nll: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """NLL sums and slot counts of all, chunk and non-chunk slots, given each
    slot's chunk flag and NLL."""
    classes = np.array([np.ones(len(nll)), chunk, ~chunk], dtype=float)
    return (classes * nll).sum(axis=1), classes.sum(axis=1)


def _means(sums: np.ndarray, totals: np.ndarray) -> tuple[float, float, float]:
    """Means, nan for a class without slots."""
    total, nc, non = (float(s / t) if t > 0 else math.nan for s, t in zip(sums, totals))
    return total, nc, non


def loss_and_grads(
    batch: PackedBatch,
    params: TinyLmParams,
    clamp_counter: Counter | None = None,
) -> tuple[tuple[float, float, float], dict[str, np.ndarray]]:
    """Forward and analytic backward pass over a batch, as dense matmuls.

    Returns ``((total, chunk, non_chunk), grads)``: the mean clamped NLL over
    the batch's ``N`` slots and over its chunk and non-chunk slots, computed
    as ``evaluate`` computes them (nan for a class without slots), and the
    gradients of the total by parameter name. With ``dZ`` the total's
    gradient at the context rows' logits (a row's softmax times its slot
    count over ``N``, minus each slot's ``onehot(label) / N``):
    ``db = dZ.sum(0)``, ``dW = dZ.T @ H`` and ``dE = C.T @ ((dZ @ W) / n)``.
    Clamped probabilities are counted as ``_slot_nll`` does.
    """
    counts, sizes, hidden, rows, slots = _encode(batch, params)
    if not len(slots):
        raise ValueError("no prediction slots in the batch")
    probs = predict(hidden, params)
    labels = batch.table.labels[slots]
    nll = _slot_nll(probs[rows, labels], clamp_counter)
    scale = np.full(len(slots), 1.0 / len(slots))
    dlogits = probs * np.bincount(rows, scale, minlength=len(probs))[:, None]
    np.subtract.at(dlogits, (rows, labels), scale)
    grads = {
        "embeddings": counts.T @ ((dlogits @ params.w_mlm) / sizes[:, None]),
        "w_mlm": dlogits.T @ hidden,
        "b_mlm": dlogits.sum(axis=0),
    }
    return _means(*_class_sums(batch.table.chunk[slots], nll)), grads


def grad_and_step(
    batch: PackedBatch,
    params: TinyLmParams,
    lr: float,
    clamp_counter: Counter | None = None,
) -> tuple[float, float, float]:
    """One plain gradient-descent update of ``params``, in place; returns the
    batch's pre-step (total, chunk, non-chunk) losses of ``loss_and_grads``.
    An update that would leave a parameter non-finite raises
    ``NonFiniteError`` and changes nothing."""
    if not 0 <= lr < math.inf:
        raise ValueError(f"learning rate must be finite and >= 0, got {lr}")
    losses, grads = loss_and_grads(batch, params, clamp_counter)
    updated = {name: getattr(params, name) - lr * grad for name, grad in grads.items()}
    if not all(np.isfinite(value).all() for value in updated.values()):
        raise NonFiniteError("non-finite parameters after the update")
    for name, value in updated.items():
        getattr(params, name)[...] = value
    return losses


def evaluate(
    batch: PackedBatch,
    params: TinyLmParams,
    clamp_counter: Counter | None = None,
) -> tuple[float, float, float]:
    """(total, chunk-slot, non-chunk-slot) mean NLL over fixed examples.

    A class with no slots reports nan. ``EVAL_BLOCK`` examples go through
    each forward pass.
    """
    table = batch.table
    sums, totals = np.zeros(3), np.zeros(3)
    for start in range(0, len(batch), EVAL_BLOCK):
        block = PackedBatch(table, batch.index[start : start + EVAL_BLOCK])
        _, _, hidden, rows, slots = _encode(block, params)
        nll = _slot_nll(predict(hidden, params)[rows, table.labels[slots]], clamp_counter)
        block_sums, block_totals = _class_sums(table.chunk[slots], nll)
        sums += block_sums
        totals += block_totals
    if not totals[0] > 0:
        raise ValueError("no prediction slots to evaluate")
    return _means(sums, totals)


@dataclass
class TrainingConfig:
    lr: float = 0.5
    steps: int = 1000
    batch_size: int = 32
    eval_every: int = 100
    seed: int = 0
    context_radius: int = 0
    hidden_dim: int = 8
    eval_fraction: float = 0.1

    def __post_init__(self) -> None:
        if not 0 <= self.lr < math.inf:
            raise ValueError("lr must be finite and >= 0")
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if self.batch_size < 1 or self.eval_every < 1 or self.hidden_dim < 1:
            raise ValueError("batch_size, eval_every, and hidden_dim must be >= 1")
        if not 0.0 < self.eval_fraction < 1.0:
            raise ValueError("eval_fraction must be in (0, 1)")


@dataclass
class MetricsRow:
    step: int
    total_loss: float
    nc_token_loss: float
    non_nc_token_loss: float
    is_eval: bool


def train(
    corpus: Iterable[TokenizedSequence],
    masking_config: MaskingConfig,
    train_config: TrainingConfig,
) -> tuple[list[MetricsRow], TinyLmParams]:
    """Train the tiny head on statically masked examples from ``corpus``.

    Each non-empty sequence of the corpus is masked once with the masking
    seed and packed into one table (``pack_corpus``). The table is split into
    train and held-out examples with the training seed, and the held-out set
    is re-evaluated at step 0, every ``eval_every`` steps, and at the end. A
    step row reports the training batch's total, chunk and non-chunk losses
    from the one forward pass before that step's update; eval rows carry
    ``is_eval`` and report the held-out set. Raises ``RuntimeError`` naming
    the step once logits or parameters stop being finite. Clamped label
    probabilities are counted over the run and logged once, also when the
    run diverges.
    """

    table = pack_corpus(corpus, masking_config)
    if not len(table):
        raise ValueError("empty corpus")
    order = list(range(len(table)))
    random.Random(f"{train_config.seed}:split").shuffle(order)
    eval_n = max(1, int(round(train_config.eval_fraction * len(table))))
    eval_set = PackedBatch(table, np.array(order[:eval_n], dtype=np.int64))
    train_index = np.array(order[eval_n:], dtype=np.int64)
    if train_config.steps > 0 and not len(train_index):
        raise ValueError("corpus too small: no training sequences after held-out split")

    params = TinyLmParams.init(
        vocab_size=masking_config.vocab_size,
        hidden_dim=train_config.hidden_dim,
        context_radius=train_config.context_radius,
        seed=train_config.seed,
    )

    metrics: list[MetricsRow] = []
    clamps: Counter = Counter()

    def eval_row(step: int) -> None:
        metrics.append(MetricsRow(step, *evaluate(eval_set, params, clamps), True))

    def batches() -> Iterator[np.ndarray]:
        """Example indices of each batch; a batch may span two epochs."""
        pending = train_index[:0]
        for epoch in count():
            epoch_order = list(range(len(train_index)))
            random.Random(f"{train_config.seed}:epoch:{epoch}").shuffle(epoch_order)
            pending = np.concatenate((pending, train_index[epoch_order]))
            while len(pending) >= train_config.batch_size:
                yield pending[: train_config.batch_size]
                pending = pending[train_config.batch_size :]

    # Every overflow ends at a finiteness check that names the step, so
    # numpy's warnings would only say the same thing first.
    step = 0
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            eval_row(0)
            for step, index in zip(range(1, train_config.steps + 1), batches()):
                losses = grad_and_step(PackedBatch(table, index), params, train_config.lr, clamps)
                metrics.append(MetricsRow(step, *losses, False))
                if step % train_config.eval_every == 0 or step == train_config.steps:
                    eval_row(step)
        except NonFiniteError as err:
            raise RuntimeError(f"training diverged at step {step}: {err}") from err
        finally:
            if clamps:
                log.warning("clamped %d zero label probabilities in this run", clamps["clamped_probs"])
    return metrics, params


def write_metrics_csv(rows: Iterable[MetricsRow], handle: TextIO) -> None:
    """CSV with columns step, total_loss, nc_token_loss, non_nc_token_loss, eval,
    written to a text handle that does not translate newlines."""
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(["step", "total_loss", "nc_token_loss", "non_nc_token_loss", "eval"])
    for row in rows:
        losses = (row.total_loss, row.nc_token_loss, row.non_nc_token_loss)
        writer.writerow([row.step, *map(repr, losses), int(row.is_eval)])
