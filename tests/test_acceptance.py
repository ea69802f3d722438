"""Acceptance suite.

Each test checks one contract of the artifact at its stated tolerance and
prints a PASS/FAIL line (run with ``pytest -s`` to see them as they happen).
The split-ratio ordering check needs external vocabulary and corpus files and
skips itself when the LINGMASK_* environment variables are unset.
"""

import json
import math
import os
import random
import time
from collections import Counter

import numpy as np
import pytest

from lingmask.cli import EX_OK, main
from lingmask.datasets import build_ipc_examples, build_similarity_pairs, read_patent_records
from lingmask.masking import MaskingConfig, TokenizedSequence
from lingmask.stats import empirical_mask_report, flagged_sequences, ks_two_sample, tally_blocks
from lingmask.subword import corpus_split_stats, encode_sentence, encode_word, load_vocab
from lingmask.tinylm import TinyLmParams, TrainingConfig, loss_and_grads, train

from test_datasets import EXPECTED_LABELS, EXPECTED_POSITIVES
from test_tinylm import Example, packed


def _criterion(name: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def _masking_report(strategy, p_nc, n=100_000, seed=7):
    config = MaskingConfig(strategy=strategy, p_nc=p_nc, seed=seed, max_seq_len=128)
    blocks = flagged_sequences(n, seq_len=128, p_y1=0.507, seed=seed)
    return empirical_mask_report(tally_blocks(blocks, config), config)


class TestConditionalMaskingLaw:
    def test_lim_conditional_probabilities(self, tmp_path):
        started = time.monotonic()
        report_path = tmp_path / "report.json"
        code = main(
            [
                "verify-masking",
                "--strategy", "lim",
                "--p-nc", "0.75",
                "--n", "100000",
                "--seed", "7",
                "--tolerance", "0.005",
                "--output", str(report_path),
            ]
        )
        elapsed = time.monotonic() - started
        report = json.loads(report_path.read_text())
        expected_y0 = 0.15 * (1 - 0.75) / (1 - 0.507)
        err_y1 = abs(report["p_mask_given_y1"] - 0.222)
        err_y0 = abs(report["p_mask_given_y0"] - expected_y0)
        _criterion(
            "conditional masking law: p(mask|y=1) = 0.222 +/- 0.005",
            code == EX_OK and err_y1 <= 0.005,
            f"p1={report['p_mask_given_y1']:.4f}, err={err_y1:.4f}",
        )
        _criterion(
            "conditional masking law: p(mask|y=0) = 0.076 +/- 0.005",
            err_y0 <= 0.005,
            f"p0={report['p_mask_given_y0']:.4f}, err={err_y0:.4f}",
        )
        _criterion(
            "conditional masking law: runtime under 60 s",
            elapsed < 60.0,
            f"{elapsed:.1f}s for 100k sequences",
        )


class TestMlmReduction:
    def test_special_case_recovers_plain_masking(self):
        lim = _masking_report("lim", 0.507)
        mlm = _masking_report("mlm", None)
        err = abs(lim.p_mask_given_y1 - 0.15)
        _criterion(
            "reduction: |p(mask|y=1) - 0.15| < 0.005 at p_nc = p(y=1)",
            err < 0.005,
            f"p1={lim.p_mask_given_y1:.4f}",
        )
        pooled = math.hypot(lim.se_mask_given_y1, mlm.se_mask_given_y1)
        diff = abs(lim.p_mask_given_y1 - mlm.p_mask_given_y1)
        _criterion(
            "reduction: strategies agree within 3 pooled standard errors",
            diff < 3 * pooled,
            f"diff={diff:.5f}, 3*pooled_se={3 * pooled:.5f}",
        )


class TestReferenceTokenization:
    def test_three_vocabularies(self, data_dir):
        cases = [
            ("vocab_general.txt", ["f", "##em", "##to"], 5 / 3),
            ("vocab_scientific.txt", ["fem", "##to"], 4 / 3),
            ("vocab_patent.txt", ["femto"], 1.0),
        ]
        ok = True
        details = []
        for filename, pieces, ratio in cases:
            vocab = load_vocab(str(data_dir / filename))
            got_pieces = encode_word("femto", vocab)
            got_ratio = encode_sentence("femto access point", vocab).split_ratio
            ok = ok and got_pieces == pieces and got_ratio == ratio
            details.append(f"{filename}: {got_pieces} ratio {got_ratio:.3f}")
        _criterion("reference tokenization of 'femto access point'", ok, "; ".join(details))


class TestSplitRatioOrdering:
    def test_public_vocabulary_ordering(self):
        general = os.environ.get("LINGMASK_GENERAL_VOCAB")
        scientific = os.environ.get("LINGMASK_SCIENTIFIC_VOCAB")
        sentences_path = os.environ.get("LINGMASK_PATENT_SENTENCES")
        if not (general and scientific and sentences_path):
            pytest.skip(
                "set LINGMASK_GENERAL_VOCAB, LINGMASK_SCIENTIFIC_VOCAB, and "
                "LINGMASK_PATENT_SENTENCES to run the data-dependent check"
            )
        with open(sentences_path, encoding="utf-8") as handle:
            sentences = [line.strip() for line in handle if line.strip()]
        assert len(sentences) >= 10_000, "need at least 10k sentences"
        general_stats = corpus_split_stats(sentences, load_vocab(general))
        scientific_stats = corpus_split_stats(sentences, load_vocab(scientific))
        ok = (
            general_stats.mean_split_ratio > scientific_stats.mean_split_ratio
            and abs(general_stats.mean_split_ratio - 1.29) <= 0.05
            and abs(scientific_stats.mean_split_ratio - 1.21) <= 0.05
        )
        _criterion(
            "split-ratio ordering on user-supplied data",
            ok,
            f"general={general_stats.mean_split_ratio:.3f}, "
            f"scientific={scientific_stats.mean_split_ratio:.3f}",
        )


def _brute_force_loss(examples, params):
    """Mean -log p(label) over every slot, in plain Python from E, W and b:
    each slot's hidden vector is the mean embedding of the unmasked pieces
    within the radius, and p is the softmax of W h + b, clamped at 1e-12."""
    e, w, b = params.embeddings.tolist(), params.w_mlm.tolist(), params.b_mlm.tolist()
    total, slots = 0.0, 0
    for ex in examples:
        for position, label in zip(ex.masked_positions, ex.labels):
            context = [
                piece
                for k, piece in enumerate(ex.input_ids)
                if k not in ex.masked_positions
                and (params.context_radius == 0 or abs(k - position) <= params.context_radius)
            ]
            size = max(len(context), 1)
            hidden = [sum(e[piece][j] for piece in context) / size for j in range(len(e[0]))]
            logits = [sum(wj * hj for wj, hj in zip(row, hidden)) + bias for row, bias in zip(w, b)]
            top = max(logits)
            p = math.exp(logits[label] - top) / sum(math.exp(z - top) for z in logits)
            total -= math.log(max(p, 1e-12))
            slots += 1
    return total / slots


class TestLossExactness:
    def test_against_brute_force(self):
        rng = random.Random(12)
        worst = 0.0
        for trial in range(1000):
            v = rng.randrange(2, 11)
            radius = rng.choice([0, 1, 2])
            params = TinyLmParams.init(v, rng.randrange(1, 5), context_radius=radius, seed=trial)
            # Spread the parameters so label probabilities range far from 1/V.
            for arr in (params.embeddings, params.w_mlm):
                arr *= 40.0
            params.b_mlm[:] = [rng.uniform(-2.0, 2.0) for _ in range(v)]
            examples = []
            for _ in range(rng.randrange(1, 5)):
                length = rng.randrange(1, 9)
                positions = sorted(rng.sample(range(length), rng.randrange(0, min(length, 6) + 1)))
                ids = [rng.randrange(v) for _ in range(length)]
                examples.append(Example(ids, positions, [rng.randrange(v) for _ in positions]))
            if not any(ex.masked_positions for ex in examples):
                examples.append(Example([0, 1 % v], [1], [rng.randrange(v)]))
            (fast, _, _), _ = loss_and_grads(packed(examples), params)
            slow = _brute_force_loss(examples, params)
            worst = max(worst, abs(fast - slow) / max(abs(slow), 1e-30))
        _criterion(
            "loss matches brute force on 1000 random batches (rel <= 1e-10)",
            worst <= 1e-10,
            f"worst rel diff {worst:.2e}",
        )

    def test_uniform_prediction_equals_log_vocab(self):
        worst = 0.0
        for v in (2, 4, 5, 8):
            params = TinyLmParams.init(v, 3, seed=v)
            for arr in (params.embeddings, params.w_mlm, params.b_mlm):
                arr[...] = 0.0
            examples = [
                Example([i % v for i in range(7)], [0, 3, 5], [i % v for i in range(3)]),
                Example([1 % v] * 4, [2], [v - 1]),
            ]
            (loss, _, _), _ = loss_and_grads(packed(examples), params)
            worst = max(worst, abs(loss - math.log(v)))
        _criterion(
            "uniform predictions score ln V (abs <= 1e-12)",
            worst <= 1e-12,
            f"worst abs diff {worst:.2e}",
        )


class TestGradientCorrectness:
    def test_finite_differences(self):
        rng = random.Random(2024)
        eps = 1e-5
        worst = 0.0
        for trial in range(100):
            v = rng.randrange(4, 21)
            h = rng.randrange(2, 9)
            params = TinyLmParams.init(v, h, context_radius=rng.choice([0, 1, 2]), seed=trial)
            examples = []
            for _ in range(rng.randrange(1, 3)):
                length = rng.randrange(4, 8)
                positions = sorted(rng.sample(range(length), rng.randrange(1, 4)))
                ids = [rng.randrange(v) for _ in range(length)]
                examples.append(Example(ids, positions, [rng.randrange(v) for _ in positions]))
            batch = packed(examples)
            _, grads = loss_and_grads(batch, params)
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
                    analytic = grads[name][idx]
                    rel = abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-6)
                    worst = max(worst, rel)
            assert worst < 1e-4, f"trial {trial}: rel error {worst:.2e}"
        _criterion(
            "analytic gradients match central differences on 100 instances",
            worst < 1e-4,
            f"worst rel error {worst:.2e}",
        )


def _brute_force_d(a, b):
    best = 0.0
    for x in sorted(set(a) | set(b)):
        fa = sum(1 for v in a if v <= x) / len(a)
        fb = sum(1 for v in b if v <= x) / len(b)
        best = max(best, abs(fa - fb))
    return best


class TestKsOracle:
    def test_scan_equals_brute_force(self):
        rng = random.Random(31)
        exact = 0
        for _ in range(500):
            a = [rng.randrange(0, 12) for _ in range(rng.randrange(1, 51))]
            b = [rng.randrange(0, 12) for _ in range(rng.randrange(1, 51))]
            if ks_two_sample(a, b).d_statistic == _brute_force_d(a, b):
                exact += 1
        edge_ok = (
            ks_two_sample([1, 2, 3], [1, 2, 3]).d_statistic == 0.0
            and ks_two_sample([1, 2], [3, 4]).d_statistic == 1.0
        )
        _criterion(
            "KS statistic equals brute force on 500 random pairs, with exact edges",
            exact == 500 and edge_ok,
            f"{exact}/500 exact",
        )


CHUNK_POSITIONS = (1, 2, 3, 9, 10, 11)
MARKER_POSITIONS = (0, 8)
TOPIC_SEQ_LEN = 16
TOPIC_VOCAB = 13  # 0-1 topic markers, 2-5 topic chunk words, 6-11 shared noise, 12 mask


def _topic_corpus(n, seed):
    """Sequences whose chunk tokens are predictable from visible topic markers."""
    rng = random.Random(f"corpus:{seed}")
    corpus = []
    for i in range(n):
        topic = rng.randrange(2)
        pieces, flags = [], []
        for position in range(TOPIC_SEQ_LEN):
            if position in MARKER_POSITIONS:
                pieces.append(topic)
                flags.append(False)
            elif position in CHUNK_POSITIONS:
                pieces.append(2 + 2 * topic + rng.randrange(2))
                flags.append(True)
            else:
                pieces.append(6 + rng.randrange(6))
                flags.append(False)
        corpus.append(TokenizedSequence(pieces, flags, f"doc-{i}"))
    return corpus


def _final_nc_loss(strategy, p_nc, seed):
    corpus = _topic_corpus(2000, seed)
    masking = MaskingConfig(
        strategy=strategy,
        p_nc=p_nc,
        max_seq_len=TOPIC_SEQ_LEN,
        seed=seed,
        mask_piece_id=12,
        vocab_size=TOPIC_VOCAB,
    )
    training = TrainingConfig(
        lr=0.5, steps=2000, batch_size=32, eval_every=500, seed=seed,
        context_radius=0, hidden_dim=8,
    )
    metrics, _ = train(corpus, masking, training)
    return [m for m in metrics if m.is_eval][-1].nc_token_loss


class TestDirectionalEffect:
    def test_chunk_focused_masking_wins_on_chunk_tokens(self):
        started = time.monotonic()
        wins = 0
        details = []
        for seed in (101, 102, 103, 104, 105):
            lim_loss = _final_nc_loss("lim", 1.0, seed)
            mlm_loss_value = _final_nc_loss("mlm", None, seed)
            wins += lim_loss <= mlm_loss_value
            details.append(f"seed {seed}: {lim_loss:.3f} vs {mlm_loss_value:.3f}")
        elapsed = time.monotonic() - started
        _criterion(
            "held-out chunk-token loss: lim (p_nc=1) beats mlm in >= 4 of 5 seeds",
            wins >= 4,
            f"{wins}/5 wins; " + "; ".join(details),
        )
        _criterion(
            "directional experiment: runtime under 5 min",
            elapsed < 300.0,
            f"{elapsed:.0f}s",
        )


class TestDatasetBuilders:
    def test_ipc_labels_match_hand_computation(self, patents_path):
        counters = Counter()
        examples = list(build_ipc_examples(read_patent_records(patents_path), counters))
        got = [e.label for e in examples]
        expected = [EXPECTED_LABELS[p] for p in sorted(EXPECTED_LABELS)]
        _criterion(
            "classification labels match hand-computed most-frequent subclasses",
            got == expected and counters["invalid_tag"] == 1,
            f"{len(got)} labels, tie case included",
        )

    def test_similarity_pair_contracts(self, patents_path):
        pairs = list(
            build_similarity_pairs(read_patent_records(patents_path), random.Random(5), Counter())
        )
        positives = {(p.id_a, p.id_b) for p in pairs if p.label}
        related = {frozenset(p) for p in EXPECTED_POSITIVES}
        no_self = all(p.id_a != p.id_b for p in pairs)
        no_collision = all(
            frozenset((p.id_a, p.id_b)) not in related for p in pairs if not p.label
        )
        fraction = sum(p.label for p in pairs) / len(pairs)
        _criterion(
            "similarity pairs: X-only positives, no self pairs, clean negatives, balanced",
            positives <= EXPECTED_POSITIVES
            and no_self
            and no_collision
            and abs(fraction - 0.5) <= 0.05,
            f"{len(pairs)} pairs, positive fraction {fraction:.3f}",
        )


class TestGeneratorDeterminism:
    def _run_twice(self, argv_builder, tmp_path, name):
        out_a = tmp_path / f"{name}_a.out"
        out_b = tmp_path / f"{name}_b.out"
        assert main(argv_builder(str(out_a))) == EX_OK
        assert main(argv_builder(str(out_b))) == EX_OK
        return out_a.read_bytes() == out_b.read_bytes()

    def test_all_generators_are_byte_stable(self, tmp_path, annotated_corpus, patents_path):
        tsv, vocab = annotated_corpus
        results = {}

        results["make-pretraining-data"] = self._run_twice(
            lambda out: [
                "make-pretraining-data",
                "--annotations", tsv, "--vocab", vocab,
                "--strategy", "lim", "--p-nc", "0.75",
                "--seed", "11", "--output", out,
            ],
            tmp_path,
            "mpd",
        )
        results["make-pairs"] = self._run_twice(
            lambda out: ["make-pairs", "--input", patents_path, "--seed", "5", "--output", out],
            tmp_path,
            "pairs",
        )
        results["make-ipc"] = self._run_twice(
            lambda out: ["make-ipc", "--input", patents_path, "--output", out],
            tmp_path,
            "ipc",
        )
        results["train-tiny"] = self._run_twice(
            lambda out: [
                "train-tiny",
                "--annotations", tsv, "--vocab", vocab,
                "--steps", "5", "--batch-size", "4", "--seed", "2", "--output", out,
            ],
            tmp_path,
            "tiny",
        )
        results["verify-masking"] = self._run_twice(
            lambda out: [
                "verify-masking",
                "--strategy", "lim", "--p-nc", "0.75",
                "--n", "2000", "--seed", "3", "--tolerance", "0.05", "--output", out,
            ],
            tmp_path,
            "verify",
        )
        bad = [name for name, ok in results.items() if not ok]
        _criterion(
            "generator subcommands are byte-identical under a fixed seed",
            not bad,
            "all stable" if not bad else f"unstable: {bad}",
        )
