import json
import logging
import math
import os
import random
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from lingmask import tinylm
from lingmask.masking import (
    BLOCK,
    MaskedExample,
    MaskingConfig,
    TokenizedSequence,
    build_example,
    mask_rows,
    philox4x32,
)
from lingmask.tinylm import (
    EVAL_BLOCK,
    MetricsRow,
    NonFiniteError,
    PackedBatch,
    PackedExamples,
    TinyLmParams,
    TrainingConfig,
    _encode,
    evaluate,
    grad_and_step,
    loss_and_grads,
    pack_corpus,
    predict,
    train,
    write_metrics_csv,
)

from test_masking import grid, rows_of


class Example(NamedTuple):
    """A hand-made example: its piece ids, its masked positions, their labels
    (any ids, not necessarily the pieces there), and its sequence's chunk
    flags (None: every slot is non-chunk)."""

    input_ids: list
    masked_positions: list
    labels: list
    flags: list | None = None


def packed(examples) -> PackedBatch:
    """A batch of all ``examples`` in order, written straight into a table,
    one example after another: the per-example layout of ``pack_corpus``."""
    ids, positions, labels, chunk = [], [], [], []
    piece_offsets, slot_offsets = [0], [0]
    for ex in examples:
        ids += [-1 if k in ex.masked_positions else t for k, t in enumerate(ex.input_ids)]
        positions += ex.masked_positions
        labels += ex.labels
        chunk += [ex.flags is not None and ex.flags[p] for p in ex.masked_positions]
        piece_offsets.append(len(ids))
        slot_offsets.append(len(labels))
    table = PackedExamples(
        np.array(ids, np.intc),
        np.array(piece_offsets, np.int64),
        np.array(positions, np.intc),
        np.array(labels, np.intc),
        np.array(chunk, bool),
        np.array(slot_offsets, np.int64),
    )
    return PackedBatch(table, np.arange(len(table)))


def _slot_hidden(example, params):
    """Per-slot hidden vectors of one example, and which slots had an empty context."""
    counts, _, hidden, rows, _ = _encode(packed([example]), params)
    return hidden[rows], ~counts.any(axis=1)[rows]


class TestInit:
    @pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
    def test_uniform_deterministic_weights(self, seed):
        params = TinyLmParams.init(7, 5, seed=seed)
        again = TinyLmParams.init(7, 5, seed=seed)
        for weights in (params.embeddings, params.w_mlm):
            assert weights.shape == (7, 5)
            assert (-0.05 <= weights).all() and (weights <= 0.05).all()
        assert (params.embeddings == again.embeddings).all() and (params.w_mlm == again.w_mlm).all()
        assert not np.array_equal(params.embeddings, params.w_mlm)
        assert not params.b_mlm.any()
        other = TinyLmParams.init(7, 5, seed=seed - 1 if seed else 1)
        assert not np.array_equal(params.embeddings, other.embeddings)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_weights_are_the_words_of_the_init_stream(self, seed):
        # Embeddings, then output weights: words 0 to 2 V H - 1 of Philox
        # stream 2**64 - 1 under the seed, word i being word i % 4 of the
        # cipher at counter (i // 4, 2**32 - 1, 2**32 - 1, 0). V H = 35, so
        # the last counter's last two words are not used.
        vocab_size, hidden_dim = 7, 5
        params = TinyLmParams.init(vocab_size, hidden_dim, seed=seed)
        key = (seed % 2**32, seed >> 32)
        words = [
            int(philox4x32((i // 4, 2**32 - 1, 2**32 - 1, 0), key)[i % 4, 0])
            for i in range(2 * vocab_size * hidden_dim)
        ]
        expected = [w * 0.1 / 2**32 - 0.05 for w in words]
        assert params.embeddings.ravel().tolist() == expected[: vocab_size * hidden_dim]
        assert params.w_mlm.ravel().tolist() == expected[vocab_size * hidden_dim :]

    def test_spread_covers_the_interval(self):
        weights = TinyLmParams.init(100, 8, seed=3).embeddings
        assert weights.min() < -0.045 and weights.max() > 0.045
        assert abs(weights.mean()) < 0.005

    @pytest.mark.parametrize(
        "seed,message", [(-1, "seed must be >= 0, got -1"), (2**64, f"seed must be < 2**64, got {2**64}")]
    )
    def test_seed_outside_64_bits_rejected(self, seed, message):
        # The weights key on the seed's 64 bits, so 2**64 would give seed 0's.
        with pytest.raises(ValueError, match=re.escape(message)):
            TinyLmParams.init(3, 2, seed=seed)


class TestContextEncode:
    def test_identical_context_embeddings_mean_to_themselves(self):
        params = TinyLmParams.init(5, 3, context_radius=0, seed=0)
        params.embeddings[:] = 0.25
        ex = Example([0, 1, 2, 3], [1], [2])
        hidden, empty = _slot_hidden(ex, params)
        assert np.allclose(hidden[0], 0.25)
        assert not empty.any()

    def test_empty_window_is_flagged_zero(self):
        params = TinyLmParams.init(5, 3, context_radius=1, seed=0)
        ex = Example([0, 1, 2], [0, 1, 2], [0, 1, 2])  # everything masked
        hidden, empty = _slot_hidden(ex, params)
        assert empty.all()
        assert np.all(hidden == 0.0)

    def test_hand_computed_mean(self):
        params = TinyLmParams.init(4, 2, context_radius=0, seed=0)
        params.embeddings[:] = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [0.0, 0.0]])
        ex = Example([0, 1, 2], [1], [3])
        hidden, _ = _slot_hidden(ex, params)
        assert np.allclose(hidden[0], [(1 + 5) / 2, (2 + 6) / 2])

    def test_radius_limits_window(self):
        params = TinyLmParams.init(4, 2, context_radius=1, seed=0)
        params.embeddings[:] = np.array([[1.0, 1.0], [2.0, 2.0], [4.0, 4.0], [8.0, 8.0]])
        ex = Example([0, 1, 2, 3], [2], [0])
        hidden, _ = _slot_hidden(ex, params)
        assert np.allclose(hidden[0], [5.0, 5.0])  # mean of positions 1 and 3


class TestPredict:
    def test_zero_weights_give_uniform(self):
        params = TinyLmParams.init(6, 4, seed=0)
        params.w_mlm[:] = 0.0
        params.b_mlm[:] = 0.0
        probs = predict(np.ones((3, 4)), params)
        assert np.allclose(probs, 1 / 6)

    def test_bias_concentration(self):
        params = TinyLmParams.init(4, 2, seed=0)
        params.w_mlm[:] = 0.0
        params.b_mlm[:] = np.array([30.0, -30.0, -30.0, -30.0])
        probs = predict(np.zeros((1, 2)), params)
        assert probs[0, 0] > 0.999999

    def test_matches_direct_oracle(self):
        rng = np.random.default_rng(7)
        params = TinyLmParams.init(9, 5, seed=1)
        hidden = rng.normal(size=(4, 5))
        probs = predict(hidden, params)
        logits = hidden @ params.w_mlm.T + params.b_mlm
        oracle = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        assert np.allclose(probs, oracle, atol=1e-9)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert (probs >= 0).all()

    def test_non_finite_logits_rejected(self):
        params = TinyLmParams.init(3, 2, seed=0)
        with pytest.raises(ValueError, match="non-finite"):
            predict(np.array([[np.inf, 1.0]]), params)


def _bias_only(probs):
    """Parameters whose every slot predicts ``probs``: zero weights, and
    biases whose softmax is ``probs`` (a zero probability is a bias of -1000,
    whose exponential underflows to 0)."""
    params = TinyLmParams.init(len(probs), 2, seed=0)
    params.w_mlm[:] = 0.0
    with np.errstate(divide="ignore"):
        params.b_mlm[:] = np.maximum(np.log(probs), -1000.0)
    return params


class TestMlmLoss:
    def test_uniform_equals_log_vocab(self):
        batch = packed([Example([0, 1, 2, 3], [0, 2], [0, 3]), Example([3, 1, 2], [0, 1, 2], [1, 2, 0])])
        (loss, _, _), _ = loss_and_grads(batch, _bias_only(np.full(4, 0.25)))
        assert abs(loss - math.log(4)) < 1e-12

    def test_perfect_predictions_give_zero(self):
        batch = packed([Example([0, 1, 2], [0, 2], [1, 1]), Example([2, 2], [1], [1])])
        (loss, _, _), _ = loss_and_grads(batch, _bias_only(np.eye(4)[1]))
        assert loss == 0.0

    def test_hand_summed_weighted_mean(self):
        # The loss is the mean over slots, so the 3-slot example weighs three
        # times the 1-slot one: not the mean of the two examples' means.
        batch = packed([Example([0, 1], [1], [0]), Example([2, 0, 1], [0, 1, 2], [1, 2, 0])])
        (loss, _, _), _ = loss_and_grads(batch, _bias_only(np.array([0.7, 0.2, 0.1])))
        expected = (-math.log(0.7) - math.log(0.2) - math.log(0.1) - math.log(0.7)) / 4
        assert loss == pytest.approx(expected, rel=1e-12)

    def test_all_zero_weights_rejected(self):
        # The table has slots, but the batch picks only slot-less examples.
        table = packed([Example([1, 2, 3], [], []), Example([0, 1], [0], [1]), Example([2], [], [])]).table
        with pytest.raises(ValueError, match="no prediction slots"):
            loss_and_grads(PackedBatch(table, np.array([0, 2, 0])), TinyLmParams.init(4, 2, seed=0))

    def test_batch_without_slots_rejected(self):
        params = TinyLmParams.init(4, 2, seed=0)
        for batch in (packed([Example([1, 2, 3], [], [])]), packed([])):
            with pytest.raises(ValueError, match="no prediction slots"):
                loss_and_grads(batch, params)

    def test_zero_probability_clamped_and_counted(self):
        counter = Counter()
        params = _bias_only(np.array([1.0, 0.0]))
        (loss, _, _), _ = loss_and_grads(packed([Example([0, 0], [0], [1])]), params, clamp_counter=counter)
        assert loss == pytest.approx(-math.log(1e-12))
        assert counter["clamped_probs"] == 1

    def test_batch_permutation_invariance(self):
        rng = random.Random(0)
        params = TinyLmParams.init(5, 3, context_radius=1, seed=2)
        batch = packed([_random_example(rng, 5) for _ in range(6)])
        perm = np.array(rng.sample(range(6), 6))
        permuted = PackedBatch(batch.table, perm)
        (loss, _, _), _ = loss_and_grads(batch, params)
        assert loss_and_grads(permuted, params)[0][0] == pytest.approx(loss, rel=1e-12)

    def test_duplicated_batch_keeps_loss(self):
        rng = random.Random(1)
        params = TinyLmParams.init(4, 3, seed=3)
        batch = packed([_random_example(rng, 4) for _ in range(3)])
        twice = PackedBatch(batch.table, np.concatenate([batch.index, batch.index]))
        (loss, _, _), _ = loss_and_grads(batch, params)
        assert loss_and_grads(twice, params)[0][0] == pytest.approx(loss, rel=1e-12)

    def test_padding_slots_change_nothing(self):
        # Slot-less examples in a batch add a context but no prediction slot.
        rng = random.Random(2)
        examples = [_random_example(rng, 4) for _ in range(2)] + [Example([1, 3, 2], [], [])] * 2
        table = packed(examples).table
        for radius in (0, 1):
            params = TinyLmParams.init(4, 3, context_radius=radius, seed=5)
            (unpadded_loss, _, _), unpadded = loss_and_grads(PackedBatch(table, np.array([0, 1])), params)
            (padded_loss, _, _), padded = loss_and_grads(PackedBatch(table, np.array([2, 0, 3, 1, 2])), params)
            assert padded_loss == unpadded_loss
            for name, grad in unpadded.items():
                assert np.allclose(padded[name], grad, rtol=0, atol=1e-15)


class TestGradients:
    def test_bias_gradient_matches_identity(self):
        params = TinyLmParams.init(4, 3, seed=2)
        ex = Example([0, 1, 2, 3], [1, 2], [3, 0])
        hidden, _ = _slot_hidden(ex, params)
        probs = predict(hidden, params)
        _, grads = loss_and_grads(packed([ex]), params)
        expected = np.zeros(4)
        for i, label in enumerate(ex.labels):
            row = probs[i].copy()
            row[label] -= 1.0
            expected += row / len(ex.labels)
        assert np.allclose(grads["b_mlm"], expected, atol=1e-12)

    def test_zero_learning_rate_keeps_params(self):
        params = TinyLmParams.init(5, 3, seed=3)
        before = params.embeddings.copy(), params.w_mlm.copy(), params.b_mlm.copy()
        ex = Example([0, 1, 2, 3, 4], [2], [1])
        loss, _, _ = grad_and_step(packed([ex]), params, lr=0.0)
        assert loss > 0
        assert np.array_equal(params.embeddings, before[0])
        assert np.array_equal(params.w_mlm, before[1])
        assert np.array_equal(params.b_mlm, before[2])

    def test_batch_matches_per_slot_loop(self):
        rng = random.Random(1)
        worst = 0.0
        for trial in range(20):
            params = TinyLmParams.init(7, 3, context_radius=rng.choice([0, 1, 2]), seed=trial)
            batch = [_random_example(rng, 7) for _ in range(rng.randrange(1, 5))]
            # An example without masked positions has a context but no slots.
            batch.insert(rng.randrange(len(batch) + 1), Example([1, 2, 3], [], []))
            (loss, _, _), grads = loss_and_grads(packed(batch), params)
            ref_loss, ref_grads = _loop_loss_and_grads(batch, params)
            worst = max(worst, abs(loss - ref_loss))
            for name, ref in ref_grads.items():
                worst = max(worst, float(np.abs(grads[name] - ref).max()))
        # Summation order differs; float64 keeps the gap near machine epsilon.
        assert worst < 1e-12

    def test_negative_learning_rate_rejected(self):
        params = TinyLmParams.init(3, 2, seed=0)
        with pytest.raises(ValueError):
            grad_and_step(packed([Example([0, 1], [0], [1])]), params, lr=-0.1)
        with pytest.raises(ValueError, match="finite"):
            grad_and_step(packed([Example([0, 1], [0], [1])]), params, lr=math.inf)

    def test_overflowing_update_raises_and_keeps_params(self):
        # The label's bias gradient is about -0.8, so the update takes its
        # bias from 1.5e308 past the largest float.
        params = TinyLmParams.init(5, 3, seed=3)
        params.b_mlm[:] = 1.5e308
        before = params.embeddings.copy(), params.w_mlm.copy(), params.b_mlm.copy()
        with np.errstate(over="ignore"):
            with pytest.raises(NonFiniteError, match="non-finite parameters"):
                grad_and_step(packed([Example([0, 1, 2, 3, 4], [2], [1])]), params, lr=1e308)
        assert np.array_equal(params.embeddings, before[0])
        assert np.array_equal(params.w_mlm, before[1])
        assert np.array_equal(params.b_mlm, before[2])

    def test_finite_differences_small(self):
        rng = random.Random(0)
        cases = []
        for trial in range(5):
            params = TinyLmParams.init(6, 3, context_radius=rng.choice([0, 1]), seed=trial)
            batch = packed(
                Example(
                    [rng.randrange(6) for _ in range(5)],
                    sorted(rng.sample(range(5), 2)),
                    [rng.randrange(6), rng.randrange(6)],
                )
                for _ in range(2)
            )
            cases.append((params, batch))
        # The second example masks every position, so its context is empty.
        params = TinyLmParams.init(6, 3, context_radius=0, seed=5)
        batch = packed([Example([0, 1, 2, 3, 4], [1, 3], [2, 0]), Example([4, 5], [0, 1], [4, 5])])
        (loss, _, _), grads = loss_and_grads(batch, params)
        _, alone = loss_and_grads(PackedBatch(batch.table, batch.index[:1]), params)
        assert math.isfinite(loss)
        # Its slots only reweight the first example's: 2 of the batch's 4 slots.
        assert np.allclose(grads["embeddings"], alone["embeddings"] * 2 / 4, atol=1e-15)
        cases.append((params, batch))
        for params, batch in cases:
            _, grads = loss_and_grads(batch, params)
            eps = 1e-5
            for name in ("embeddings", "w_mlm", "b_mlm"):
                arr = getattr(params, name)
                it = np.nditer(arr, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    orig = arr[idx]
                    arr[idx] = orig + eps
                    (up, _, _), _ = loss_and_grads(batch, params)
                    arr[idx] = orig - eps
                    (down, _, _), _ = loss_and_grads(batch, params)
                    arr[idx] = orig
                    fd = (up - down) / (2 * eps)
                    assert abs(grads[name][idx] - fd) / max(
                        abs(grads[name][idx]), abs(fd), 1e-6
                    ) < 1e-4


def _random_example(rng, vocab_size):
    """An example of 1-8 pieces with 1-6 masked positions and random labels."""
    length = rng.randrange(1, 9)
    positions = sorted(rng.sample(range(length), rng.randrange(1, min(length, 6) + 1)))
    return Example(
        [rng.randrange(vocab_size) for _ in range(length)],
        positions,
        [rng.randrange(vocab_size) for _ in positions],
    )


def _loop_slots(batch, params):
    """Per-slot forward reference: one context mean per slot, in slot order.

    Yields ``(probs, label, hidden, context)`` for each prediction slot.
    """
    for ex in batch:
        visible = [k for k in range(len(ex.input_ids)) if k not in ex.masked_positions]
        for position, label in zip(ex.masked_positions, ex.labels):
            radius = params.context_radius
            context = [
                ex.input_ids[k] for k in visible if radius == 0 or abs(k - position) <= radius
            ]
            hidden = np.zeros(params.embeddings.shape[1])
            if context:
                hidden = params.embeddings[context].mean(axis=0)
            yield predict(hidden[None, :], params)[0], label, hidden, context


def _loop_evaluate(examples, params):
    """Per-slot reference for ``evaluate``: class means of -log p(label)."""
    sums, totals = [0.0] * 3, [0.0] * 3
    for ex in examples:
        for (probs, label, _, _), position in zip(_loop_slots([ex], params), ex.masked_positions):
            for k in (0, 1 if ex.flags[position] else 2):
                sums[k] -= math.log(probs[label])
                totals[k] += 1
    return [s / t if t else math.nan for s, t in zip(sums, totals)]


def _loop_loss_and_grads(batch, params):
    """Per-slot reference for ``loss_and_grads``: one context mean per slot."""
    names = ("embeddings", "w_mlm", "b_mlm")
    grads = {name: np.zeros_like(getattr(params, name)) for name in names}
    slots = list(_loop_slots(batch, params))
    loss = 0.0
    for probs, label, hidden, context in slots:
        loss -= math.log(probs[label]) / len(slots)
        dlogits = probs / len(slots)
        dlogits[label] -= 1.0 / len(slots)
        grads["b_mlm"] += dlogits
        grads["w_mlm"] += np.outer(dlogits, hidden)
        for piece in context:
            grads["embeddings"][piece] += params.w_mlm.T @ dlogits / len(context)
    return loss, grads


def _topic_sequences(n, seed):
    rng = random.Random(seed)
    out = []
    for i in range(n):
        flags = [k % 2 == 0 for k in range(8)]
        pieces = [rng.randrange(2, 6) if f else rng.randrange(6, 10) for f in flags]
        out.append(TokenizedSequence(pieces, flags, f"d{i}"))
    return out


class TestTrain:
    def _configs(self, steps, seed=0):
        masking = MaskingConfig(
            strategy="mlm", max_seq_len=8, seed=seed, mask_piece_id=0, vocab_size=10
        )
        training = TrainingConfig(
            lr=0.3, steps=steps, batch_size=4, eval_every=2, seed=seed, hidden_dim=4
        )
        return masking, training

    def test_zero_steps_yields_initial_eval_only(self):
        masking, training = self._configs(0)
        metrics, _ = train(_topic_sequences(30, 0), masking, training)
        assert len(metrics) == 1
        assert metrics[0].is_eval and metrics[0].step == 0

    def test_deterministic_metric_series(self):
        masking, training = self._configs(6)
        a, _ = train(_topic_sequences(30, 0), masking, training)
        b, _ = train(_topic_sequences(30, 0), masking, training)
        # Float reprs round-trip exactly, and a step whose batch lacks a class
        # reports nan for it, which == would call unequal to itself.
        assert repr(a) == repr(b)

    def test_loss_decreases_on_learnable_data(self):
        # The held-out set has six masked slots, so one run's final eval loss
        # is noisy; it must fall on average over ten seeds, and in most runs.
        changes = []
        for seed in range(10):
            masking, training = self._configs(60, seed=seed)
            metrics, _ = train(_topic_sequences(60, 1), masking, training)
            evals = [m for m in metrics if m.is_eval]
            changes.append(evals[-1].total_loss - evals[0].total_loss)
        assert sum(changes) < 0
        assert sum(change < 0 for change in changes) >= 6

    def test_step_rows_come_from_the_pre_update_pass(self):
        # lim with p_nc=1 masks chunk slots only, so a step row's chunk loss is
        # its total loss, and it has no non-chunk slots.
        masking = MaskingConfig(
            strategy="lim", p_nc=1.0, max_seq_len=8, seed=0, mask_piece_id=0, vocab_size=10
        )
        _, training = self._configs(6)
        metrics, _ = train(_topic_sequences(30, 0), masking, training)
        steps = [m for m in metrics if not m.is_eval]
        assert len(steps) == 6
        for row in steps:
            assert row.nc_token_loss == row.total_loss
            assert math.isnan(row.non_nc_token_loss)

    def test_divergence_aborts(self):
        # At lr 1e9 the parameters stay finite until the logits overflow; at
        # lr 1e308 the first update overflows. Either way the error names the
        # step, and numpy warns of nothing (warnings fail the test suite).
        masking, _ = self._configs(40)
        for lr in (1e9, 1e308):
            training = TrainingConfig(
                lr=lr, steps=40, batch_size=4, eval_every=40, seed=0, hidden_dim=4
            )
            with pytest.raises(RuntimeError, match=r"^training diverged at step \d+: non-finite"):
                train(_topic_sequences(30, 0), masking, training)

    def test_clamps_logged_once_per_run(self, caplog):
        # At lr 1e9 many forward passes clamp before the run diverges; the
        # run's total is logged once, as it aborts.
        masking, _ = self._configs(40)
        training = TrainingConfig(lr=1e9, steps=40, batch_size=4, eval_every=40, seed=0, hidden_dim=4)
        with caplog.at_level(logging.WARNING, logger="lingmask.tinylm"):
            with pytest.raises(RuntimeError, match="training diverged"):
                train(_topic_sequences(30, 0), masking, training)
        clamp_lines = [r.getMessage() for r in caplog.records if "clamped" in r.getMessage()]
        assert len(clamp_lines) == 1
        assert re.fullmatch(r"clamped [1-9]\d* zero label probabilities in this run", clamp_lines[0])

    @pytest.mark.parametrize("lr", [math.inf, math.nan, -0.5])
    def test_lr_must_be_finite_and_non_negative(self, lr):
        with pytest.raises(ValueError, match="lr must be finite and >= 0"):
            TrainingConfig(lr=lr)

    def test_empty_corpus_rejected(self):
        masking, training = self._configs(1)
        with pytest.raises(ValueError, match="empty corpus"):
            train([], masking, training)

    def test_metrics_csv(self, tmp_path):
        rows = [MetricsRow(0, 1.5, 1.25, float("nan"), True)]
        path = tmp_path / "metrics.csv"
        with open(path, "w", encoding="utf-8", newline="") as handle:
            write_metrics_csv(rows, handle)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,total_loss,nc_token_loss,non_nc_token_loss,eval"
        assert lines[1] == "0,1.5,1.25,nan,1"


class TestEvaluate:
    @pytest.mark.parametrize("radius", [0, 2])
    @pytest.mark.parametrize("strategy,p_nc", [("mlm", None), ("lim", 0.5), ("lim", 1.0)])
    def test_step_losses_are_the_eval_losses_of_the_batch(self, radius, strategy, p_nc):
        # A step row and an eval row come from one computation: at lr 0 the
        # step reports, bit for bit, what evaluate reports for its batch of
        # at most EVAL_BLOCK examples. lim at p_nc 1 masks chunk slots only,
        # so both report nan for the non-chunk class.
        masking = MaskingConfig(
            strategy=strategy, p_nc=p_nc, max_seq_len=8, seed=0, mask_piece_id=0, vocab_size=10
        )
        table = pack_corpus(_topic_sequences(EVAL_BLOCK, 0), masking)
        batch = PackedBatch(table, np.arange(len(table))[::-1])
        params = TinyLmParams.init(10, 4, context_radius=radius, seed=1)
        want = evaluate(batch, params)
        assert repr(grad_and_step(batch, params, lr=0.0)) == repr(want)
        assert math.isnan(want[2]) == (p_nc == 1.0)

    def test_per_class_split(self):
        params = TinyLmParams.init(6, 3, seed=4)
        ex = Example([0, 1, 2, 3], [0, 1], [2, 3], [True, False, True, False])
        total, nc, non = evaluate(packed([ex]), params)
        assert total == pytest.approx((nc + non) / 2)

    @pytest.mark.parametrize("radius", [0, 2])
    def test_matches_per_slot_loop(self, radius):
        rng = random.Random(radius)
        params = TinyLmParams.init(9, 4, context_radius=radius, seed=3)
        examples = []
        for i in range(2 * EVAL_BLOCK + 5):
            if i == 3:
                # Every position masked: the slots' context is empty.
                examples.append(Example([4, 5, 6], [0, 1, 2], [1, 2, 3], [True, False, True]))
                continue
            ex = _random_example(rng, 9)
            flags = [rng.random() < 0.5 for _ in ex.input_ids]
            if EVAL_BLOCK <= i < 2 * EVAL_BLOCK:
                flags = [True] * len(flags)  # this block has no non-chunk slot
            examples.append(ex._replace(flags=flags))
        for got, want in zip(evaluate(packed(examples), params), _loop_evaluate(examples, params)):
            assert abs(got - want) < 1e-12
        chunk_only = [ex._replace(flags=[True] * len(ex.input_ids)) for ex in examples]
        got, want = evaluate(packed(chunk_only), params), _loop_evaluate(chunk_only, params)
        assert math.isnan(got[2]) and math.isnan(want[2])
        for g, w in zip(got[:2], want[:2]):
            assert abs(g - w) < 1e-12

    def test_missing_class_is_nan(self):
        params = TinyLmParams.init(6, 3, seed=4)
        ex = Example([0, 1, 2, 3], [0], [2], [True, True, True, True])
        _, nc, non = evaluate(packed([ex]), params)
        assert math.isnan(non) and not math.isnan(nc)


class TestPacked:
    def _examples(self, n, seed):
        rng = random.Random(seed)
        examples = []
        for _ in range(n):
            ex = _random_example(rng, 9)
            examples.append(ex._replace(flags=[rng.random() < 0.5 for _ in ex.input_ids]))
        examples.append(Example([1, 2, 3], [], [], [True, True, True]))  # no slots
        return examples

    def test_table_holds_each_example(self):
        corpus = _topic_sequences(30, 0)
        config = MaskingConfig(strategy="lim", p_nc=0.75, max_seq_len=8, seed=3, vocab_size=10)
        table = pack_corpus(corpus, config)
        assert len(table) == len(corpus)
        index = np.array([3, 29, 0, 3, 7])
        for k, slots in zip(index, PackedBatch(table, index)):
            seq, positions = corpus[k], slots.masked_positions.tolist()
            pieces = table.ids[table.piece_offsets[k] : table.piece_offsets[k + 1]]
            assert pieces.tolist() == [-1 if p in positions else t for p, t in enumerate(seq.pieces)]
            assert slots.labels.tolist() == [seq.pieces[p] for p in positions]
            assert slots.chunk.tolist() == [seq.y[p] for p in positions]

    def test_batch_iterates_its_gathered_slots(self):
        # The benchmark's tracer counts a step's slots by iterating its batch.
        table = packed(self._examples(20, 1)).table
        params = TinyLmParams.init(9, 3, seed=0)
        for index in (np.array([5, 20, 5, 0]), np.arange(len(table)), np.array([20])):
            batch = PackedBatch(table, index)
            slots = _encode(batch, params)[4]
            assert sum(len(ex.labels) for ex in batch) == len(slots)
            assert table.labels[slots].tolist() == [
                label for ex in batch for label in ex.labels.tolist()
            ]

    def test_lim_with_p_nc_one_packs_chunk_slots_only(self):
        corpus = _topic_sequences(40, 2)
        config = MaskingConfig(strategy="lim", p_nc=1.0, max_seq_len=8, seed=1, vocab_size=10)
        table = pack_corpus(corpus, config)
        assert len(table.chunk) == len(table.labels) > 0
        assert table.chunk.all()

    def test_examples_without_flags_are_non_chunk(self):
        corpus = [TokenizedSequence(s.pieces, [False] * len(s.pieces)) for s in _topic_sequences(20, 4)]
        config = MaskingConfig(strategy="lim", p_nc=0.75, max_seq_len=8, seed=2, vocab_size=10)
        table = pack_corpus(corpus, config)
        assert len(table.chunk) == len(table.labels) > 0
        assert not table.chunk.any()

    def test_flags_must_align(self):
        seq = TokenizedSequence([1, 2, 3], [True, False, True])
        seq.pieces.append(4)
        with pytest.raises(ValueError, match="chunk flags must align"):
            pack_corpus([seq], MaskingConfig(max_seq_len=8, vocab_size=10))

    def test_empty_table(self):
        table = pack_corpus([], MaskingConfig(max_seq_len=8, vocab_size=10))
        assert len(table) == 0
        assert list(PackedBatch(table, np.arange(0))) == []
        with pytest.raises(ValueError, match="no prediction slots"):
            evaluate(PackedBatch(table, np.arange(0)), TinyLmParams.init(3, 2, seed=0))


def _per_example_table(corpus, config):
    """One ``build_example`` per sequence, masked a whole block at a time
    with ``mask_rows`` from the block's first row, written into a table one
    example at a time: what ``pack_corpus`` replaces."""

    def examples():
        sequences = [s for s in corpus if s.pieces]
        for index in range(0, len(sequences), BLOCK):
            block = sequences[index : index + BLOCK]
            masked = mask_rows(*grid(block), config, index)
            for seq, row in zip(block, rows_of(masked)):
                ex = build_example(seq, config, row)
                yield Example(ex.input_ids, ex.masked_positions, ex.labels, seq.y)

    return packed(examples()).table


class TestPackCorpus:
    MAX_SEQ_LEN = 12

    def _corpus(self, n, seed):
        """``n`` non-empty sequences with empty ones among them: lengths 1 to
        ``MAX_SEQ_LEN`` (the first sequence has exactly that many pieces),
        and some sequences all chunk or all non-chunk."""
        rng = random.Random(seed)
        corpus = []
        for i in range(n):
            if i % 37 == 5:
                corpus.append(TokenizedSequence([], [], f"empty-{i}"))
            length = self.MAX_SEQ_LEN if i == 0 else rng.randint(1, self.MAX_SEQ_LEN)
            share = rng.choice([0.0, 0.5, 1.0, rng.random()])
            flags = [rng.random() < share for _ in range(length)]
            corpus.append(TokenizedSequence([rng.randrange(20) for _ in range(length)], flags, f"d{i}"))
        return corpus

    @pytest.mark.parametrize("n", [BLOCK + 1, 2 * BLOCK + 7])
    @pytest.mark.parametrize("strategy, p_nc", [("mlm", None), ("lim", 0.75), ("lim", 1.0)])
    def test_equals_per_example_packing(self, n, strategy, p_nc):
        config = MaskingConfig(
            strategy=strategy, p_nc=p_nc, max_seq_len=self.MAX_SEQ_LEN, max_pred=3,
            seed=n, mask_piece_id=1, vocab_size=20,
        )
        corpus = self._corpus(n, seed=n)
        got, want = pack_corpus(corpus, config), _per_example_table(corpus, config)
        assert len(got) == n
        for field in want.__dataclass_fields__:
            got_field, want_field = getattr(got, field), getattr(want, field)
            assert got_field.dtype == want_field.dtype, field
            assert np.array_equal(got_field, want_field), field

    def test_empty_corpus(self):
        config = MaskingConfig(max_seq_len=self.MAX_SEQ_LEN, vocab_size=20)
        table = pack_corpus([TokenizedSequence([], [])], config)
        assert len(table) == 0 and len(table.labels) == 0

    def test_longer_than_max_seq_len_rejected(self):
        config = MaskingConfig(max_seq_len=3, vocab_size=20)
        with pytest.raises(ValueError, match="longer than max_seq_len 3"):
            pack_corpus([TokenizedSequence([1, 2, 3, 4], [True] * 4)], config)

    def test_train_builds_no_example(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an example object was built")

        monkeypatch.setattr(tinylm, "build_example", refuse)
        monkeypatch.setattr(MaskedExample, "__post_init__", refuse)
        masking = MaskingConfig(max_seq_len=8, mask_piece_id=0, vocab_size=10)
        training = TrainingConfig(steps=3, batch_size=4, hidden_dim=4)
        metrics, _ = train(_topic_sequences(30, 0), masking, training)
        assert [m.step for m in metrics if not m.is_eval] == [1, 2, 3]


def test_tracer_sees_every_step(tmp_path, annotated_corpus):
    """``perfbench/tracer.py`` wraps the tinylm entry points and counts the
    slots of every step's batch."""
    root = Path(__file__).resolve().parents[1]
    tsv, vocab = annotated_corpus
    stats, spans = tmp_path / "stats.json", tmp_path / "spans.jsonl"
    steps = 7
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [
            sys.executable, str(root / "perfbench" / "tracer.py"), str(stats), str(spans), "--",
            "train-tiny", "--annotations", tsv, "--vocab", vocab, "--steps", str(steps),
            "--batch-size", "4", "--eval-every", "3", "--output", str(tmp_path / "metrics.csv"),
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(stats.read_text())
    assert report["rc"] == 0
    assert report["unwrapped"] == []
    assert report["stats"]["tinylm.grad_and_step"][0] == steps
    assert report["counts"]["tinylm.steps"] == steps
    assert report["counts"]["tinylm.slots"] > 0
