import json
import random

import pytest

from lingmask.chunker import AnnotatedSentence, AnnotatedToken
from lingmask.masking import (
    MaskedExample,
    MaskingConfig,
    TokenizedSequence,
    build_example,
    select_mask_count,
    sequence_from_annotated,
    sequence_rng,
)
from lingmask.subword import Vocabulary


def make_seq(n, flagged=(), doc_id="d"):
    return TokenizedSequence(
        pieces=list(range(10, 10 + n)),
        y=[k in flagged for k in range(n)],
        doc_id=doc_id,
    )


def config(**kwargs):
    kwargs.setdefault("vocab_size", 50)
    kwargs.setdefault("mask_piece_id", 1)
    return MaskingConfig(**kwargs)


class TestConfig:
    def test_defaults_and_policy_sum(self):
        cfg = config()
        assert cfg.mask_prob == 0.15
        assert cfg.max_pred == 20
        assert cfg.max_seq_len == 128
        with pytest.raises(ValueError):
            config(mask_frac=0.9, random_frac=0.2, keep_frac=0.1)

    def test_lim_requires_p_nc(self):
        with pytest.raises(ValueError, match="requires p_nc"):
            config(strategy="lim")

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            config(strategy="spans")


class TestSelectMaskCount:
    @pytest.mark.parametrize("seq_len,expected", [(128, 19), (3, 1), (200, 20), (10, 2), (1, 1)])
    def test_count_rule(self, seq_len, expected):
        assert select_mask_count(seq_len, config()) == expected

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            select_mask_count(0, config())


class TestBuildMlm:
    def test_counts_and_padding(self):
        example = build_example(make_seq(10), config(), random.Random(0))
        assert len(example.masked_positions) == 2
        assert example.weights == [1.0, 1.0] + [0.0] * 18
        assert example.strategy_tag == "mlm" and example.branch == "n/a"
        assert example.labels == [make_seq(10).pieces[p] for p in example.masked_positions]

    def test_pure_mask_policy(self):
        cfg = config(mask_frac=1.0, random_frac=0.0, keep_frac=0.0)
        example = build_example(make_seq(10), cfg, random.Random(1))
        for position in example.masked_positions:
            assert example.input_ids[position] == cfg.mask_piece_id

    def test_keep_policy_preserves_ids(self):
        cfg = config(mask_frac=0.0, random_frac=0.0, keep_frac=1.0)
        seq = make_seq(10)
        example = build_example(seq, cfg, random.Random(1))
        assert example.input_ids == seq.pieces

    def test_deterministic(self):
        a = build_example(make_seq(12), config(), random.Random(42))
        b = build_example(make_seq(12), config(), random.Random(42))
        assert a == b

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            build_example(make_seq(0), config(), random.Random(0))


class TestBuildLim:
    def test_forced_nc_branch(self):
        seq = make_seq(10, flagged=range(10))
        example = build_example(seq, config(strategy="lim", p_nc=1.0), random.Random(0))
        assert example.branch == "nc"
        assert all(seq.y[p] for p in example.masked_positions)

    def test_forced_non_nc_branch(self):
        seq = make_seq(10, flagged=(0, 1))
        example = build_example(seq, config(strategy="lim", p_nc=0.0), random.Random(0))
        assert example.branch == "non_nc"
        assert not any(seq.y[p] for p in example.masked_positions)

    def test_empty_pool_falls_back(self):
        seq = make_seq(8)  # no flagged positions at all
        example = build_example(seq, config(strategy="lim", p_nc=1.0), random.Random(0))
        assert example.branch == "non_nc"
        assert example.masked_positions

    def test_small_pool_fully_masked(self):
        seq = make_seq(40, flagged=(3, 17))  # budget is 6, pool only 2
        example = build_example(seq, config(strategy="lim", p_nc=1.0), random.Random(5))
        assert example.masked_positions == [3, 17]
        assert example.branch == "nc"

    @pytest.mark.parametrize("trial", range(50))
    def test_branch_purity(self, trial):
        rng = random.Random(trial)
        seq = TokenizedSequence(
            pieces=[rng.randrange(50) for _ in range(20)],
            y=[rng.random() < 0.4 for _ in range(20)],
        )
        if not any(seq.y):
            seq.y[0] = True
        example = build_example(
            seq, config(strategy="lim", p_nc=0.6), random.Random(trial + 1000)
        )
        values = {seq.y[p] for p in example.masked_positions}
        assert values == {example.branch == "nc"}

    def test_weight_sum_matches_positions(self):
        for trial in range(20):
            seq = make_seq(15, flagged=(1, 2, 3))
            example = build_example(
                seq, config(strategy="lim", p_nc=0.5), random.Random(trial)
            )
            assert sum(example.weights) == len(example.masked_positions)


class TestExampleValidation:
    def test_positions_strictly_increasing(self):
        with pytest.raises(ValueError):
            MaskedExample([1, 2, 3], [1, 1], [2, 3], [1.0, 1.0], "mlm", "n/a")

    def test_position_bounds(self):
        with pytest.raises(ValueError):
            MaskedExample([1, 2, 3], [5], [2], [1.0], "mlm", "n/a")

    def test_weight_pattern(self):
        with pytest.raises(ValueError):
            MaskedExample([1, 2, 3], [0], [1], [0.0, 1.0], "mlm", "n/a")


class TestSequenceFromAnnotated:
    def _vocab(self):
        return Vocabulary(["[UNK]", "[MASK]", "val", "##ve", "pump"])

    def test_pieces_inherit_word_flags(self):
        sent = AnnotatedSentence(
            tokens=[AnnotatedToken("valve", "NOUN"), AnnotatedToken("pump", "NOUN")],
            chunk_spans=[(0, 1)],
        )
        seq = sequence_from_annotated(sent, self._vocab(), max_seq_len=128, doc_id="s0")
        assert seq.pieces == [2, 3, 4]
        assert seq.y == [True, True, False]

    def test_truncation(self):
        sent = AnnotatedSentence(
            tokens=[AnnotatedToken("valve", "NOUN"), AnnotatedToken("pump", "NOUN")],
            chunk_spans=[(0, 2)],
        )
        seq = sequence_from_annotated(sent, self._vocab(), max_seq_len=2)
        assert len(seq.pieces) == 2 and len(seq.y) == 2


class TestDeterminism:
    def test_seed_and_order_fix_output(self):
        cfg = config(strategy="lim", p_nc=0.75, seed=11)
        corpus = [make_seq(20, flagged=(0, 1, 5, 9), doc_id=f"s{i}") for i in range(50)]

        def generate():
            return [
                build_example(seq, cfg, sequence_rng(cfg.seed, i))
                for i, seq in enumerate(corpus)
            ]

        assert generate() == generate()

    def test_different_ordinals_differ(self):
        cfg = config(seed=11)
        seq = make_seq(30)
        a = build_example(seq, cfg, sequence_rng(11, 0))
        b = build_example(seq, cfg, sequence_rng(11, 1))
        assert a != b
