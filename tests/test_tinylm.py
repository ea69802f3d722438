import math
import random
from collections import Counter

import numpy as np
import pytest

from lingmask.masking import MaskedExample, MaskingConfig, TokenizedSequence
from lingmask.tinylm import (
    MetricsRow,
    TinyLmParams,
    TrainingConfig,
    context_encode,
    evaluate,
    grad_and_step,
    loss_and_grads,
    mlm_loss,
    predict,
    train,
    write_metrics_csv,
)


def example(input_ids, positions, labels, max_pred=6, **kwargs):
    return MaskedExample(
        input_ids=input_ids,
        masked_positions=positions,
        labels=labels,
        weights=[1.0] * len(positions) + [0.0] * (max_pred - len(positions)),
        strategy_tag=kwargs.get("strategy_tag", "mlm"),
        branch=kwargs.get("branch", "n/a"),
    )


class TestContextEncode:
    def test_identical_context_embeddings_mean_to_themselves(self):
        params = TinyLmParams.init(5, 3, context_radius=0, seed=0)
        params.embeddings[:] = 0.25
        ex = example([0, 1, 2, 3], [1], [2])
        hidden, empty = context_encode(ex, params)
        assert np.allclose(hidden[0], 0.25)
        assert not empty.any()

    def test_empty_window_is_flagged_zero(self):
        params = TinyLmParams.init(5, 3, context_radius=1, seed=0)
        ex = example([0, 1, 2], [0, 1, 2], [0, 1, 2])  # everything masked
        hidden, empty = context_encode(ex, params)
        assert empty.all()
        assert np.all(hidden == 0.0)

    def test_hand_computed_mean(self):
        params = TinyLmParams.init(4, 2, context_radius=0, seed=0)
        params.embeddings[:] = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [0.0, 0.0]])
        ex = example([0, 1, 2], [1], [3])
        hidden, _ = context_encode(ex, params)
        assert np.allclose(hidden[0], [(1 + 5) / 2, (2 + 6) / 2])

    def test_radius_limits_window(self):
        params = TinyLmParams.init(4, 2, context_radius=1, seed=0)
        params.embeddings[:] = np.array([[1.0, 1.0], [2.0, 2.0], [4.0, 4.0], [8.0, 8.0]])
        ex = example([0, 1, 2, 3], [2], [0])
        hidden, _ = context_encode(ex, params)
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


class TestMlmLoss:
    def test_uniform_equals_log_vocab(self):
        probs = np.full((5, 4), 0.25)
        loss = mlm_loss(probs, [0, 3, 1, 2, 0], [1.0] * 5)
        assert abs(loss - math.log(4)) < 1e-12

    def test_perfect_predictions_give_zero(self):
        probs = np.eye(4)[[0, 1, 2]]
        assert mlm_loss(probs, [0, 1, 2], [1.0, 1.0, 1.0]) == 0.0

    def test_hand_summed_weighted_mean(self):
        probs = np.array([[0.7, 0.3], [0.2, 0.8], [0.5, 0.5], [0.9, 0.1]])
        labels = [0, 1, 1, 0]
        weights = [1.0, 1.0, 0.0, 1.0]
        expected = (-math.log(0.7) - math.log(0.8) - math.log(0.9)) / 3
        assert mlm_loss(probs, labels, weights) == pytest.approx(expected, rel=1e-12)

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValueError, match="no prediction slots"):
            mlm_loss(np.full((2, 2), 0.5), [0, 1], [0.0, 0.0])

    def test_zero_probability_clamped_and_counted(self):
        counter = Counter()
        probs = np.array([[1.0, 0.0]])
        loss = mlm_loss(probs, [1], [1.0], clamp_counter=counter)
        assert loss == pytest.approx(-math.log(1e-12))
        assert counter["clamped_probs"] == 1

    def test_batch_permutation_invariance(self):
        rng = np.random.default_rng(0)
        probs = rng.dirichlet(np.ones(5), size=6)
        labels = rng.integers(0, 5, size=6)
        weights = np.array([1.0, 1.0, 1.0, 0.0, 1.0, 1.0])
        perm = rng.permutation(6)
        assert mlm_loss(probs, labels, weights) == pytest.approx(
            mlm_loss(probs[perm], labels[perm], weights[perm]), rel=1e-12
        )

    def test_duplicated_batch_keeps_loss(self):
        rng = np.random.default_rng(1)
        probs = rng.dirichlet(np.ones(4), size=3)
        labels = [0, 2, 1]
        weights = [1.0, 1.0, 0.0]
        once = mlm_loss(probs, labels, weights)
        twice = mlm_loss(
            np.vstack([probs, probs]), labels * 2, weights * 2
        )
        assert twice == pytest.approx(once, rel=1e-12)

    def test_padding_slots_change_nothing(self):
        rng = np.random.default_rng(2)
        probs = rng.dirichlet(np.ones(4), size=2)
        unpadded = mlm_loss(probs, [1, 3], [1.0, 1.0])
        padded_probs = np.vstack([probs, np.full((3, 4), 0.25)])
        padded = mlm_loss(padded_probs, [1, 3, 0, 0, 0], [1.0, 1.0, 0.0, 0.0, 0.0])
        assert padded == unpadded


class TestGradients:
    def test_bias_gradient_matches_identity(self):
        params = TinyLmParams.init(4, 3, seed=2)
        ex = example([0, 1, 2, 3], [1, 2], [3, 0])
        hidden, _ = context_encode(ex, params)
        probs = predict(hidden, params)
        _, grads = loss_and_grads([ex], params)
        expected = np.zeros(4)
        for i, label in enumerate(ex.labels):
            row = probs[i].copy()
            row[label] -= 1.0
            expected += row / len(ex.labels)
        assert np.allclose(grads["b_mlm"], expected, atol=1e-12)

    def test_zero_learning_rate_keeps_params(self):
        params = TinyLmParams.init(5, 3, seed=3)
        before = params.embeddings.copy(), params.w_mlm.copy(), params.b_mlm.copy()
        ex = example([0, 1, 2, 3, 4], [2], [1])
        _, loss, _ = grad_and_step([ex], params, lr=0.0)
        assert loss > 0
        assert np.array_equal(params.embeddings, before[0])
        assert np.array_equal(params.w_mlm, before[1])
        assert np.array_equal(params.b_mlm, before[2])

    def test_batch_matches_per_slot_loop(self):
        rng = random.Random(1)
        worst = 0.0
        for trial in range(20):
            params = TinyLmParams.init(7, 3, context_radius=rng.choice([0, 1, 2]), seed=trial)
            batch = []
            for _ in range(rng.randrange(1, 5)):
                length = rng.randrange(1, 9)
                positions = sorted(rng.sample(range(length), rng.randrange(1, min(length, 6) + 1)))
                batch.append(
                    example(
                        [rng.randrange(7) for _ in range(length)],
                        positions,
                        [rng.randrange(7) for _ in positions],
                    )
                )
            loss, grads = loss_and_grads(batch, params)
            ref_loss, ref_grads = _loop_loss_and_grads(batch, params)
            worst = max(worst, abs(loss - ref_loss))
            for name, ref in ref_grads.items():
                worst = max(worst, float(np.abs(grads[name] - ref).max()))
        # Summation order differs; float64 keeps the gap near machine epsilon.
        assert worst < 1e-12

    def test_negative_learning_rate_rejected(self):
        params = TinyLmParams.init(3, 2, seed=0)
        with pytest.raises(ValueError):
            grad_and_step([example([0, 1], [0], [1], max_pred=2)], params, lr=-0.1)

    def test_finite_differences_small(self):
        rng = random.Random(0)
        cases = []
        for trial in range(5):
            params = TinyLmParams.init(6, 3, context_radius=rng.choice([0, 1]), seed=trial)
            batch = [
                example(
                    [rng.randrange(6) for _ in range(5)],
                    sorted(rng.sample(range(5), 2)),
                    [rng.randrange(6), rng.randrange(6)],
                )
                for _ in range(2)
            ]
            cases.append((params, batch))
        # The second example masks every position, so its context is empty.
        params = TinyLmParams.init(6, 3, context_radius=0, seed=5)
        batch = [example([0, 1, 2, 3, 4], [1, 3], [2, 0]), example([4, 5], [0, 1], [4, 5])]
        loss, grads = loss_and_grads(batch, params)
        _, alone = loss_and_grads(batch[:1], params)
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
                    up, _ = loss_and_grads(batch, params)
                    arr[idx] = orig - eps
                    down, _ = loss_and_grads(batch, params)
                    arr[idx] = orig
                    fd = (up - down) / (2 * eps)
                    assert abs(grads[name][idx] - fd) / max(
                        abs(grads[name][idx]), abs(fd), 1e-6
                    ) < 1e-4


def _loop_loss_and_grads(batch, params):
    """Per-slot reference for ``loss_and_grads``: one context mean per slot."""
    names = ("embeddings", "w_mlm", "b_mlm")
    grads = {name: np.zeros_like(getattr(params, name)) for name in names}
    slots = []
    for ex in batch:
        visible = [k for k in range(len(ex.input_ids)) if k not in ex.masked_positions]
        for position, label in zip(ex.masked_positions, ex.labels):
            radius = params.context_radius
            context = [
                ex.input_ids[k] for k in visible if radius == 0 or abs(k - position) <= radius
            ]
            hidden = np.zeros(params.hidden_dim)
            if context:
                hidden = params.embeddings[context].mean(axis=0)
            slots.append((predict(hidden[None, :], params)[0], label, hidden, context))
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
        assert a == b

    def test_loss_decreases_on_learnable_data(self):
        masking, training = self._configs(60)
        metrics, _ = train(_topic_sequences(60, 1), masking, training)
        evals = [m for m in metrics if m.is_eval]
        assert evals[-1].total_loss < evals[0].total_loss

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
        masking, _ = self._configs(40)
        training = TrainingConfig(
            lr=1e9, steps=40, batch_size=4, eval_every=40, seed=0, hidden_dim=4
        )
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises((ValueError, RuntimeError)):
                train(_topic_sequences(30, 0), masking, training)

    def test_empty_corpus_rejected(self):
        masking, training = self._configs(1)
        with pytest.raises(ValueError, match="empty corpus"):
            train([], masking, training)

    def test_metrics_csv(self, tmp_path):
        rows = [MetricsRow(0, 1.5, 1.25, float("nan"), True)]
        path = tmp_path / "metrics.csv"
        write_metrics_csv(rows, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "step,total_loss,nc_token_loss,non_nc_token_loss,eval"
        assert lines[1] == "0,1.5,1.25,nan,1"


class TestEvaluate:
    def test_per_class_split(self):
        params = TinyLmParams.init(6, 3, seed=4)
        seq_flags = [True, False, True, False]
        ex = example([0, 1, 2, 3], [0, 1], [2, 3], max_pred=4)
        total, nc, non = evaluate([(ex, seq_flags)], params)
        assert total == pytest.approx((nc + non) / 2)

    def test_missing_class_is_nan(self):
        params = TinyLmParams.init(6, 3, seed=4)
        ex = example([0, 1, 2, 3], [0], [2], max_pred=4)
        _, nc, non = evaluate([(ex, [True, True, True, True])], params)
        assert math.isnan(non) and not math.isnan(nc)
