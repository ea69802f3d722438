"""A minimal trainable masked-LM head for desk-scale strategy comparisons.

The encoder is a deliberate stand-in for a deep network: the hidden vector of
a masked position is the mean embedding of the unmasked pieces in its context
window (radius 0 means the whole sequence). The output layer, the weighted
cross-entropy loss over prediction slots, and the padding-weight mechanism are
implemented exactly, so masking strategies can be compared end to end without
a transformer. Training is plain gradient descent to keep optimizer effects
out of the comparison.

A context-row x vocabulary matrix of context-piece counts turns the encoder
and its backward pass into dense matrix products over a whole batch. At radius
0 all prediction slots of an example see the same context, so they share one
row; at a positive radius each slot has its own. A training step runs one such
pass, and one clamped per-slot NLL vector gives its loss and the loss of each
slot class; its step row reports the batch's losses from before the update,
and eval rows report the held-out set.
"""

from __future__ import annotations

import csv
import logging
import math
import random
from collections import Counter
from dataclasses import dataclass
from itertools import count, islice
from typing import Iterable, Iterator, Sequence

import numpy as np

from .masking import (
    BLOCK,
    MaskedExample,
    MaskingConfig,
    TokenizedSequence,
    build_example,
    mask_sequences,
    sequence_rng,
)

log = logging.getLogger(__name__)

PROB_CLAMP = 1e-12


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
        rng = np.random.default_rng(seed)
        return cls(
            embeddings=rng.uniform(-0.05, 0.05, (vocab_size, hidden_dim)),
            w_mlm=rng.uniform(-0.05, 0.05, (vocab_size, hidden_dim)),
            b_mlm=np.zeros(vocab_size),
            context_radius=context_radius,
        )

    @property
    def vocab_size(self) -> int:
        return self.embeddings.shape[0]

    @property
    def hidden_dim(self) -> int:
        return self.embeddings.shape[1]


EVAL_BLOCK = 32  # held-out examples per forward pass; bounds the context-row x V matrices
Pair = tuple[MaskedExample, Sequence[bool]]  # an example and its sequence's chunk flags


def _encode(
    examples: Sequence[MaskedExample], params: TinyLmParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Batched context encoder over the prediction slots of ``examples``.

    Returns ``(counts, sizes, hidden, rows)``: the row x V matrix ``C`` of
    unmasked context-piece counts with one row per distinct context, the
    context size ``n`` of each row (at least 1), ``H = C @ E / n``, and the
    row of each slot. At ``context_radius`` 0 the context is the whole
    sequence, so each example is one row, shared by its slots; otherwise each
    slot is a row of the pieces within the radius. A row with an empty
    context gets a zero hidden vector.
    """
    lengths = np.array([len(ex.input_ids) for ex in examples], dtype=int)
    ids = np.zeros((len(examples), int(lengths.max(initial=0))), dtype=int)
    for row, example in zip(ids, examples):
        row[: len(example.input_ids)] = example.input_ids
    slot_ex = np.repeat(np.arange(len(examples)), [len(ex.masked_positions) for ex in examples])
    slot_pos = np.array([p for ex in examples for p in ex.masked_positions], dtype=int)
    visible = np.arange(ids.shape[1]) < lengths[:, None]
    visible[slot_ex, slot_pos] = False  # masked pieces are not context
    if params.context_radius:
        window = visible[slot_ex]
        window &= np.abs(np.arange(ids.shape[1]) - slot_pos[:, None]) <= params.context_radius
        owner, rows = slot_ex, np.arange(len(slot_ex))
    else:
        window, owner, rows = visible, np.arange(len(examples)), slot_ex
    row, column = np.nonzero(window)
    v = params.vocab_size
    counts = np.bincount(row * v + ids[owner[row], column], minlength=len(owner) * v)
    counts = counts.reshape(len(owner), v).astype(float)
    sizes = np.maximum(counts.sum(axis=1), 1.0)
    return counts, sizes, counts @ params.embeddings / sizes[:, None], rows


def predict(hidden: np.ndarray, params: TinyLmParams) -> np.ndarray:
    """Probability rows softmax(W h + b), stabilized by max subtraction."""
    logits = hidden @ params.w_mlm.T + params.b_mlm
    if not np.all(np.isfinite(logits)):
        raise ValueError("non-finite logits")
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def _slot_nll(
    picked: np.ndarray, weights: np.ndarray, clamp_counter: Counter | None = None
) -> np.ndarray:
    """-log of the slots' label probabilities ``picked``, clamped at 1e-12;
    clamps on real (weighted) slots are counted and logged."""
    clamped = (picked < PROB_CLAMP) & (weights > 0)
    if clamped.any():
        count = int(clamped.sum())
        log.warning("clamped %d zero label probabilities", count)
        if clamp_counter is not None:
            clamp_counter["clamped_probs"] += count
    return -np.log(np.maximum(picked, PROB_CLAMP))


def mlm_loss(
    predictions: np.ndarray,
    labels: Sequence[int],
    weights: Sequence[float],
    clamp_counter: Counter | None = None,
) -> float:
    """Weighted mean negative log-likelihood over prediction slots.

    sum_ij -log(p_ij[label_ij]) w_ij / sum_ij w_ij. Padding slots carry
    weight 0 and contribute nothing. Probabilities are clamped at 1e-12;
    clamps on real slots are counted and logged.
    """
    probs = np.asarray(predictions, dtype=float)
    label_arr = np.asarray(labels, dtype=int)
    weight_arr = np.asarray(weights, dtype=float)
    if probs.ndim != 2 or label_arr.shape != (probs.shape[0],) or weight_arr.shape != (
        probs.shape[0],
    ):
        raise ValueError("predictions, labels, and weights must align")
    total_weight = float(weight_arr.sum())
    if total_weight == 0.0:
        raise ValueError("no prediction slots: all weights are zero")
    picked = probs[np.arange(probs.shape[0]), label_arr]
    nll = _slot_nll(picked, weight_arr, clamp_counter)
    return float(np.sum(nll * weight_arr) / total_weight)


def _slot_targets(examples: Sequence[MaskedExample]) -> tuple[np.ndarray, np.ndarray]:
    """Labels and weights of the prediction slots of ``examples``, in order."""
    labels = [label for ex in examples for label in ex.labels]
    weights = [w for ex in examples for w in ex.weights[: len(ex.labels)]]
    return np.array(labels, dtype=int), np.array(weights, dtype=float)


def _class_sums(
    pairs: Sequence[Pair], nll: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Weighted NLL sums and weight totals of all, chunk and non-chunk slots,
    given the slot NLL and weights of the pairs' examples."""
    chunk = np.array([bool(f[p]) for ex, f in pairs for p in ex.masked_positions], dtype=bool)
    classes = np.stack([weights, weights * chunk, weights * ~chunk])
    return (classes * nll).sum(axis=1), classes.sum(axis=1)


def _means(sums: np.ndarray, totals: np.ndarray) -> list[float]:
    """Weighted means, nan for a class without weight."""
    return [float(s / t) if t > 0 else math.nan for s, t in zip(sums, totals)]


def loss_and_grads(
    batch: Sequence[MaskedExample], params: TinyLmParams
) -> tuple[float, dict[str, np.ndarray]]:
    """Forward and analytic backward pass over a batch, as dense matmuls.

    The loss is ``mlm_loss`` with the examples' weights. With ``dZ`` its
    gradient at the context rows' logits (a row's softmax times its slots'
    summed ``w/W``, minus each slot's ``onehot(label) w/W``):
    ``db = dZ.sum(0)``, ``dW = dZ.T @ H`` and ``dE = C.T @ ((dZ @ W) / n)``.
    ``grads["nll"]`` and ``grads["weights"]`` also hold the slots' clamped
    NLL and weights, so callers can split the loss by slot class.
    """
    counts, sizes, hidden, rows = _encode(batch, params)
    probs = predict(hidden, params)
    labels, weights = _slot_targets(batch)
    total_weight = weights.sum()
    if total_weight == 0.0:
        raise ValueError("no prediction slots: all weights are zero")
    nll = _slot_nll(probs[rows, labels], weights)
    scale = weights / total_weight
    dlogits = probs * np.bincount(rows, scale, minlength=len(probs))[:, None]
    np.subtract.at(dlogits, (rows, labels), scale)
    grads = {
        "embeddings": counts.T @ ((dlogits @ params.w_mlm) / sizes[:, None]),
        "w_mlm": dlogits.T @ hidden,
        "b_mlm": dlogits.sum(axis=0),
        "nll": nll,
        "weights": weights,
    }
    return float(np.sum(nll * weights) / total_weight), grads


def grad_and_step(
    batch: Sequence[MaskedExample], params: TinyLmParams, lr: float
) -> tuple[TinyLmParams, float, tuple[np.ndarray, np.ndarray]]:
    """One plain gradient-descent update; returns the pre-step loss and the
    slots' pre-step NLL and weights."""
    if lr < 0:
        raise ValueError(f"learning rate must be >= 0, got {lr}")
    loss, grads = loss_and_grads(batch, params)
    slots = grads.pop("nll"), grads.pop("weights")
    if not all(np.all(np.isfinite(grad)) for grad in grads.values()):
        raise ValueError("non-finite gradient")
    for name, grad in grads.items():
        getattr(params, name)[...] -= lr * grad
    return params, loss, slots


def evaluate(pairs: Sequence[Pair], params: TinyLmParams) -> tuple[float, float, float]:
    """(total, chunk-slot, non-chunk-slot) weighted mean NLL over fixed examples.

    A class with no slots reports nan. ``EVAL_BLOCK`` examples go through
    each forward pass.
    """
    sums, totals = np.zeros(3), np.zeros(3)
    for start in range(0, len(pairs), EVAL_BLOCK):
        block = pairs[start : start + EVAL_BLOCK]
        examples = [example for example, _ in block]
        _, _, hidden, rows = _encode(examples, params)
        labels, weights = _slot_targets(examples)
        nll = _slot_nll(predict(hidden, params)[rows, labels], weights)
        block_sums, block_totals = _class_sums(block, nll, weights)
        sums += block_sums
        totals += block_totals
    if not totals[0] > 0:
        raise ValueError("no prediction slots to evaluate")
    total, nc_loss, non_loss = _means(sums, totals)
    return total, nc_loss, non_loss


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
        if self.lr < 0:
            raise ValueError("lr must be >= 0")
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

    The corpus is split into train and held-out parts with the training seed,
    examples are generated once per sequence with the masking seed, and the
    held-out set is re-evaluated at step 0, every ``eval_every`` steps, and at
    the end. A step row reports the training batch's total, chunk and
    non-chunk losses from the one forward pass before that step's update;
    eval rows carry ``is_eval`` and report the held-out set. Raises if the
    loss stops being finite.
    """
    sequences = [s for s in corpus if s.pieces]
    if not sequences:
        raise ValueError("empty corpus")
    pairs = []
    for index in range(0, len(sequences), BLOCK):
        block = sequences[index : index + BLOCK]
        rng = sequence_rng(masking_config.seed, index // BLOCK)
        for seq, row in zip(block, mask_sequences(block, masking_config, rng)):
            pairs.append((build_example(seq, masking_config, row), seq.y))
    order = list(range(len(pairs)))
    random.Random(f"{train_config.seed}:split").shuffle(order)
    eval_n = max(1, int(round(train_config.eval_fraction * len(pairs))))
    eval_pairs = [pairs[i] for i in order[:eval_n]]
    train_pairs = [pairs[i] for i in order[eval_n:]]
    if train_config.steps > 0 and not train_pairs:
        raise ValueError("corpus too small: no training sequences after held-out split")

    params = TinyLmParams.init(
        vocab_size=masking_config.vocab_size,
        hidden_dim=train_config.hidden_dim,
        context_radius=train_config.context_radius,
        seed=train_config.seed,
    )

    metrics: list[MetricsRow] = []

    def eval_row(step: int) -> None:
        total, nc, non = evaluate(eval_pairs, params)
        metrics.append(MetricsRow(step, total, nc, non, True))

    def shuffled_epochs() -> Iterator[Pair]:
        for epoch in count():
            epoch_order = list(range(len(train_pairs)))
            random.Random(f"{train_config.seed}:epoch:{epoch}").shuffle(epoch_order)
            yield from (train_pairs[i] for i in epoch_order)

    eval_row(0)
    stream = shuffled_epochs()
    for step in range(1, train_config.steps + 1):
        batch_pairs = list(islice(stream, train_config.batch_size))
        batch = [example for example, _ in batch_pairs]
        params, loss, slots = grad_and_step(batch, params, train_config.lr)
        if not math.isfinite(loss):
            raise RuntimeError(f"training diverged at step {step}: loss={loss}")
        _, batch_nc, batch_non = _means(*_class_sums(batch_pairs, *slots))
        metrics.append(MetricsRow(step, loss, batch_nc, batch_non, False))
        if step % train_config.eval_every == 0 or step == train_config.steps:
            eval_row(step)
    return metrics, params


def write_metrics_csv(rows: Iterable[MetricsRow], path: str) -> None:
    """CSV with columns step, total_loss, nc_token_loss, non_nc_token_loss, eval."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["step", "total_loss", "nc_token_loss", "non_nc_token_loss", "eval"])
        for row in rows:
            losses = (row.total_loss, row.nc_token_loss, row.non_nc_token_loss)
            writer.writerow([row.step, *map(repr, losses), int(row.is_eval)])
