"""A minimal trainable masked-LM head for desk-scale strategy comparisons.

The encoder is a deliberate stand-in for a deep network: the hidden vector of
a masked position is the mean embedding of the unmasked pieces in its context
window (radius 0 means the whole sequence). The output layer, the weighted
cross-entropy loss over prediction slots, and the padding-weight mechanism are
implemented exactly, so masking strategies can be compared end to end without
a transformer. Training is plain gradient descent to keep optimizer effects
out of the comparison.

A slot x vocabulary matrix of context-piece counts turns the encoder and its
backward pass into dense matrix products over a whole batch. A training step
runs one such pass; its step row reports the batch's losses from before the
update, and eval rows report the held-out set.
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

from .masking import MaskedExample, MaskingConfig, TokenizedSequence, build_example, sequence_rng

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


EVAL_BLOCK = 32  # held-out examples per forward pass; bounds the slot x V matrices
Pair = tuple[MaskedExample, Sequence[bool]]  # an example and its sequence's chunk flags


def _encode(
    examples: Sequence[MaskedExample], params: TinyLmParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched context encoder over the prediction slots of ``examples``.

    Returns ``(counts, sizes, hidden)``: the slot x V matrix ``C`` of
    unmasked context-piece counts within ``context_radius`` (0: the whole
    sequence), the context size ``n`` of each slot (at least 1), and
    ``H = C @ E / n``. A slot with an empty context gets a zero hidden row.
    """
    lengths = np.array([len(ex.input_ids) for ex in examples], dtype=int)
    ids = np.zeros((len(examples), int(lengths.max(initial=0))), dtype=int)
    for row, example in zip(ids, examples):
        row[: len(example.input_ids)] = example.input_ids
    slot_ex = np.repeat(np.arange(len(examples)), [len(ex.masked_positions) for ex in examples])
    slot_pos = np.array([p for ex in examples for p in ex.masked_positions], dtype=int)
    visible = np.arange(ids.shape[1]) < lengths[:, None]
    visible[slot_ex, slot_pos] = False  # masked pieces are not context
    window = visible[slot_ex]
    if params.context_radius:
        window &= np.abs(np.arange(ids.shape[1]) - slot_pos[:, None]) <= params.context_radius
    slot, column = np.nonzero(window)
    v = params.vocab_size
    counts = np.bincount(slot * v + ids[slot_ex[slot], column], minlength=len(slot_ex) * v)
    counts = counts.reshape(len(slot_ex), v).astype(float)
    sizes = np.maximum(counts.sum(axis=1), 1.0)
    return counts, sizes, counts @ params.embeddings / sizes[:, None]


def context_encode(
    example: MaskedExample, params: TinyLmParams
) -> tuple[np.ndarray, np.ndarray]:
    """Hidden vectors for the masked positions of one example.

    Returns ``(hidden, empty)`` where ``hidden`` is (n_masked, H) and
    ``empty`` flags positions whose context window contained no unmasked
    piece (their hidden vector is zero).
    """
    counts, _, hidden = _encode([example], params)
    return hidden, ~counts.any(axis=1)


def predict(hidden: np.ndarray, params: TinyLmParams) -> np.ndarray:
    """Probability rows softmax(W h + b), stabilized by max subtraction."""
    logits = hidden @ params.w_mlm.T + params.b_mlm
    if not np.all(np.isfinite(logits)):
        raise ValueError("non-finite logits")
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


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
    clamped = (picked < PROB_CLAMP) & (weight_arr > 0)
    if clamped.any():
        count = int(clamped.sum())
        log.warning("clamped %d zero label probabilities", count)
        if clamp_counter is not None:
            clamp_counter["clamped_probs"] += count
    picked = np.maximum(picked, PROB_CLAMP)
    return float(np.sum(-np.log(picked) * weight_arr) / total_weight)


def _slot_targets(examples: Sequence[MaskedExample]) -> tuple[np.ndarray, np.ndarray]:
    """Labels and weights of the prediction slots of ``examples``, in order."""
    labels = [label for ex in examples for label in ex.labels]
    weights = [w for ex in examples for w in ex.weights[: len(ex.labels)]]
    return np.array(labels, dtype=int), np.array(weights, dtype=float)


def _slot_losses(probs: np.ndarray, pairs: Sequence[Pair]) -> tuple[np.ndarray, np.ndarray]:
    """``mlm_loss`` (nan without weight) and weight sum of all, chunk and
    non-chunk slots, given the slot probabilities of the pairs' examples."""
    labels, weights = _slot_targets([example for example, _ in pairs])
    chunk = np.array([bool(f[p]) for ex, f in pairs for p in ex.masked_positions], dtype=bool)
    classes = (weights, weights * chunk, weights * ~chunk)
    totals = np.array([w.sum() for w in classes])
    losses = [mlm_loss(probs, labels, w) if t > 0 else math.nan for w, t in zip(classes, totals)]
    return np.array(losses), totals


def loss_and_grads(
    batch: Sequence[MaskedExample], params: TinyLmParams
) -> tuple[float, dict[str, np.ndarray]]:
    """Forward and analytic backward pass over a batch, as dense matmuls.

    The loss is ``mlm_loss`` with the examples' weights. With ``dZ`` its
    gradient at the logits: ``db = dZ.sum(0)``, ``dW = dZ.T @ H`` and
    ``dE = C.T @ ((dZ @ W) / n)``. ``grads["probs"]`` also holds the slot
    probabilities, so callers can split the loss by slot class.
    """
    counts, sizes, hidden = _encode(batch, params)
    probs = predict(hidden, params)
    labels, weights = _slot_targets(batch)
    loss = mlm_loss(probs, labels, weights)
    scale = weights / weights.sum()
    dlogits = probs * scale[:, None]
    dlogits[np.arange(len(labels)), labels] -= scale
    grads = {
        "embeddings": counts.T @ ((dlogits @ params.w_mlm) / sizes[:, None]),
        "w_mlm": dlogits.T @ hidden,
        "b_mlm": dlogits.sum(axis=0),
        "probs": probs,
    }
    return loss, grads


def grad_and_step(
    batch: Sequence[MaskedExample], params: TinyLmParams, lr: float
) -> tuple[TinyLmParams, float, np.ndarray]:
    """One plain gradient-descent update; returns the pre-step loss and slot probabilities."""
    if lr < 0:
        raise ValueError(f"learning rate must be >= 0, got {lr}")
    loss, grads = loss_and_grads(batch, params)
    probs = grads.pop("probs")
    if not all(np.all(np.isfinite(grad)) for grad in grads.values()):
        raise ValueError("non-finite gradient")
    for name, grad in grads.items():
        getattr(params, name)[...] -= lr * grad
    return params, loss, probs


def evaluate(pairs: Sequence[Pair], params: TinyLmParams) -> tuple[float, float, float]:
    """(total, chunk-slot, non-chunk-slot) weighted mean NLL over fixed examples.

    A class with no slots reports nan. ``EVAL_BLOCK`` examples go through
    each forward pass.
    """
    sums, totals = np.zeros(3), np.zeros(3)
    for start in range(0, len(pairs), EVAL_BLOCK):
        block = pairs[start : start + EVAL_BLOCK]
        probs = predict(_encode([example for example, _ in block], params)[2], params)
        losses, weights = _slot_losses(probs, block)
        sums += np.where(weights > 0, losses, 0.0) * weights
        totals += weights
    if not totals[0] > 0:
        raise ValueError("no prediction slots to evaluate")
    total, nc_loss, non_loss = (float(s / t) if t > 0 else math.nan for s, t in zip(sums, totals))
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
    pairs = [
        (build_example(seq, masking_config, sequence_rng(masking_config.seed, i)), seq.y)
        for i, seq in enumerate(sequences)
    ]
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
        params, loss, probs = grad_and_step(batch, params, train_config.lr)
        if not math.isfinite(loss):
            raise RuntimeError(f"training diverged at step {step}: loss={loss}")
        (_, batch_nc, batch_non), _ = _slot_losses(probs, batch_pairs)
        metrics.append(MetricsRow(step, loss, float(batch_nc), float(batch_non), False))
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
