import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lingmask.chunker import AnnotatedSentence, AnnotatedToken
from lingmask.masking import (
    BLOCK,
    BRANCHES,
    STRATEGIES,
    MaskedExample,
    MaskingConfig,
    TokenizedSequence,
    Philox,
    build_example,
    draw_rows,
    example_to_json_line,
    mask_budget,
    mask_rows,
    mask_sequences,
    philox4x32,
    sequence_from_annotated,
    sequence_rng,
)
from lingmask.subword import Vocabulary

import scalar_masking
from conftest import JSON_TEXT


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


def mask_one(seq, cfg, block=0):
    """The example of ``seq`` as the first sequence of block ``block``."""
    [row] = mask_sequences([seq], cfg, sequence_rng(cfg.seed, block))
    return build_example(seq, cfg, row)


def mask_many(seqs, cfg):
    """Rows of ``seqs`` masked in consecutive blocks, as the CLI does."""
    rows = []
    for index in range(0, len(seqs), BLOCK):
        rows += mask_sequences(seqs[index : index + BLOCK], cfg, sequence_rng(cfg.seed, index // BLOCK))
    return rows


def chi_square_limit(df, z=3.72):
    """Upper tail of chi-square(df) at about p = 1e-4 (Wilson-Hilferty)."""
    return df * (1 - 2 / (9 * df) + z * math.sqrt(2 / (9 * df))) ** 3


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
        assert mask_budget(np.array([seq_len]), config()).tolist() == [expected]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            mask_budget(np.array([3, 0]), config())

    @pytest.mark.parametrize("mask_prob", [0.05, 0.15, 0.25, 0.5, 0.9])
    @pytest.mark.parametrize("max_pred", [1, 5, 20])
    def test_budget_equals_scalar_rule_at_every_length(self, mask_prob, max_pred):
        cfg = config(mask_prob=mask_prob, max_pred=max_pred, max_seq_len=200)
        lengths = np.arange(1, cfg.max_seq_len + 1)
        expected = [scalar_masking.select_mask_count(int(n), cfg) for n in lengths]
        assert mask_budget(lengths, cfg).tolist() == expected


class TestBuildMlm:
    def test_counts_and_padding(self):
        example = mask_one(make_seq(10), config())
        assert len(example.masked_positions) == 2
        assert example.weights == [1.0, 1.0] + [0.0] * 18
        assert example.strategy_tag == "mlm" and example.branch == "n/a"
        assert example.labels == [make_seq(10).pieces[p] for p in example.masked_positions]

    def test_pure_mask_policy(self):
        cfg = config(mask_frac=1.0, random_frac=0.0, keep_frac=0.0)
        example = mask_one(make_seq(10), cfg, block=1)
        for position in example.masked_positions:
            assert example.input_ids[position] == cfg.mask_piece_id

    def test_keep_policy_preserves_ids(self):
        cfg = config(mask_frac=0.0, random_frac=0.0, keep_frac=1.0)
        seq = make_seq(10)
        example = mask_one(seq, cfg, block=1)
        assert example.input_ids == seq.pieces

    def test_deterministic(self):
        a = mask_one(make_seq(12), config(seed=42))
        b = mask_one(make_seq(12), config(seed=42))
        assert a == b

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            mask_one(make_seq(0), config())


class TestBuildLim:
    def test_forced_nc_branch(self):
        seq = make_seq(10, flagged=range(10))
        example = mask_one(seq, config(strategy="lim", p_nc=1.0))
        assert example.branch == "nc"
        assert all(seq.y[p] for p in example.masked_positions)

    def test_forced_non_nc_branch(self):
        seq = make_seq(10, flagged=(0, 1))
        example = mask_one(seq, config(strategy="lim", p_nc=0.0))
        assert example.branch == "non_nc"
        assert not any(seq.y[p] for p in example.masked_positions)

    def test_empty_pool_falls_back(self):
        seq = make_seq(8)  # no flagged positions at all
        example = mask_one(seq, config(strategy="lim", p_nc=1.0))
        assert example.branch == "non_nc"
        assert example.masked_positions

    def test_small_pool_fully_masked(self):
        seq = make_seq(40, flagged=(3, 17))  # budget is 6, pool only 2
        example = mask_one(seq, config(strategy="lim", p_nc=1.0), block=5)
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
        example = mask_one(seq, config(strategy="lim", p_nc=0.6), block=trial + 1000)
        values = {seq.y[p] for p in example.masked_positions}
        assert values == {example.branch == "nc"}

    def test_weight_sum_matches_positions(self):
        for trial in range(20):
            seq = make_seq(15, flagged=(1, 2, 3))
            example = mask_one(seq, config(strategy="lim", p_nc=0.5), block=trial)
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


# Reference form of an example record: the dict the record holds, through
# json.dumps. The writer builds the same bytes from pieces.
def _oracle_example_line(example):
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


BIG_INTS = st.one_of(st.integers(-(2**70), 2**70), st.integers(0, 40))


@st.composite
def examples(draw):
    input_ids = draw(st.lists(BIG_INTS, min_size=1, max_size=40))
    positions = sorted(draw(st.sets(st.integers(0, len(input_ids) - 1), max_size=len(input_ids))))
    max_pred = len(positions) + draw(st.integers(0, 25))
    return MaskedExample(
        input_ids=input_ids,
        masked_positions=positions,
        labels=draw(st.lists(BIG_INTS, min_size=len(positions), max_size=len(positions))),
        weights=[1.0] * len(positions) + [0.0] * (max_pred - len(positions)),
        strategy_tag=draw(st.sampled_from(STRATEGIES)),
        branch=draw(st.sampled_from(BRANCHES)),
        doc_id=draw(JSON_TEXT),
    )


class TestExampleJsonLine:
    @given(examples())
    def test_equals_json_dumps(self, example):
        assert example_to_json_line(example) == _oracle_example_line(example)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("input_ids", [np.int64(3), 4, 5]),
            ("labels", [np.int32(4)]),
            ("masked_positions", [True]),
            ("input_ids", [3, False, 5]),
            ("input_ids", (3, 4, 5)),
            ("doc_id", 7),
            ("doc_id", None),
        ],
        ids=["numpy-id", "numpy-label", "bool-position", "bool-id", "tuple", "int-doc-id", "none-doc-id"],
    )
    def test_rejects_non_json_values(self, field, value):
        example = MaskedExample([3, 4, 5], [1], [4], [1.0, 0.0], "mlm", "n/a", "d")
        setattr(example, field, value)
        with pytest.raises(TypeError):
            example_to_json_line(example)


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
        corpus = [make_seq(20, flagged=(0, 1, 5, 9), doc_id=f"s{i}") for i in range(300)]

        def generate():
            return [build_example(seq, cfg, row) for seq, row in zip(corpus, mask_many(corpus, cfg))]

        assert generate() == generate()

    def test_different_ordinals_differ(self):
        cfg = config(seed=11)
        seq = make_seq(30)
        first, second = mask_sequences([seq, seq], cfg, sequence_rng(11, 0))
        assert first != second
        assert mask_one(seq, cfg, block=0) != mask_one(seq, cfg, block=1)
        assert mask_one(seq, cfg) != mask_one(seq, config(seed=12))

    def test_row_depends_only_on_seed_ordinal_and_sequence(self):
        cfg = config(strategy="lim", p_nc=0.5, seed=3, max_seq_len=16)
        rng = random.Random(0)
        corpus = [
            make_seq(rng.randrange(1, 17), flagged=set(rng.sample(range(16), 5)))
            for _ in range(BLOCK + 40)
        ]
        full = mask_many(corpus, cfg)
        for n in (1, 100, BLOCK, BLOCK + 1):
            assert mask_many(corpus[:n], cfg) == full[:n]
        other = corpus[:7] + [make_seq(16, flagged=range(16))] + corpus[8:]
        changed = mask_many(other, cfg)
        assert changed[:7] == full[:7] and changed[8:] == full[8:]


def _pool(seq, row):
    if row.branch == "n/a":
        return list(range(len(seq.y)))
    return [k for k, flag in enumerate(seq.y) if flag == (row.branch == "nc")]


class TestBlockSampler:
    """The block sampler against the scalar sampler of format 1."""

    def _mixed_block(self, cfg, seed):
        rng = random.Random(seed)
        corpus = []
        for _ in range(BLOCK):
            n = rng.randrange(1, cfg.max_seq_len + 1)
            corpus.append(make_seq(n, flagged={k for k in range(n) if rng.random() < 0.4}))
        return corpus

    @pytest.mark.parametrize("strategy,p_nc", [("mlm", None), ("lim", 0.5), ("lim", 0.9)])
    @pytest.mark.parametrize("mask_prob", [0.15, 0.5])
    def test_mask_count_and_pool(self, strategy, p_nc, mask_prob):
        cfg = config(strategy=strategy, p_nc=p_nc, mask_prob=mask_prob, max_seq_len=16, max_pred=5)
        corpus = self._mixed_block(cfg, seed=int(mask_prob * 100))
        for seq, row in zip(corpus, mask_many(corpus, cfg)):
            pool = _pool(seq, row)
            budget = scalar_masking.select_mask_count(len(seq.y), cfg)
            assert len(row.positions) == min(budget, len(pool))
            assert set(row.positions) <= set(pool)
            assert row.positions == sorted(set(row.positions))
            if strategy == "lim":
                # The chosen pool is never empty while the sequence is not.
                assert pool

    def test_padding_never_leaks_past_a_row_length(self):
        cfg = config(strategy="lim", p_nc=0.5, max_seq_len=16, max_pred=20)
        corpus = self._mixed_block(cfg, seed=9)
        lengths = np.array([len(seq.y) for seq in corpus])
        flags = np.zeros((BLOCK, 16), dtype=bool)
        for i, seq in enumerate(corpus):
            flags[i, : len(seq.y)] = seq.y
        masked = mask_rows(flags, lengths, cfg, sequence_rng(0, 0))
        assert masked.counts.sum() == len(masked.positions) == len(masked.replacements)
        owner = np.repeat(np.arange(BLOCK), masked.counts)
        assert (masked.positions < lengths[owner]).all()
        # Each position lies in its row's chosen pool.
        assert (flags[owner, masked.positions] == masked.nc[owner]).all()

    def test_nc_share_is_p_nc(self):
        cfg = config(strategy="lim", p_nc=0.3)
        corpus = [make_seq(10, flagged=(0, 1, 2, 3))] * (20 * BLOCK)
        nc = sum(row.branch == "nc" for row in mask_many(corpus, cfg))
        n = len(corpus)
        z = (nc - n * cfg.p_nc) / math.sqrt(n * cfg.p_nc * (1 - cfg.p_nc))
        assert abs(z) < 4

    @pytest.mark.parametrize("strategy,p_nc", [("mlm", None), ("lim", 1.0)])
    def test_inclusion_is_uniform_over_the_pool_and_matches_scalar(self, strategy, p_nc):
        cfg = config(strategy=strategy, p_nc=p_nc, mask_prob=0.3, seed=4)
        seq = make_seq(10, flagged=(1, 3, 4, 7, 8, 9))
        n = 20 * BLOCK
        block_counts = np.zeros(10)
        for row in mask_many([seq] * n, cfg):
            block_counts[row.positions] += 1
        scalar_counts = np.zeros(10)
        for trial in range(n):
            scalar_counts[scalar_masking.build_example(seq, cfg, random.Random(trial)).masked_positions] += 1
        pool = [k for k in range(10) if strategy == "mlm" or seq.y[k]]
        outside = [k for k in range(10) if k not in pool]
        assert block_counts[outside].sum() == 0 and scalar_counts[outside].sum() == 0
        observed = block_counts[pool]
        expected = observed.sum() / len(pool)
        assert ((observed - expected) ** 2 / expected).sum() < chi_square_limit(len(pool) - 1)
        # Homogeneity of the two samplers' inclusion counts (equal totals).
        both = (observed + scalar_counts[pool]) / 2
        statistic = (((observed - both) ** 2 + (scalar_counts[pool] - both) ** 2) / both).sum()
        assert statistic < chi_square_limit(len(pool) - 1)

    @pytest.mark.parametrize("flagged,p_nc,branch", [(range(8), 0.0, "nc"), ((), 1.0, "non_nc")])
    def test_single_pool_falls_back(self, flagged, p_nc, branch):
        cfg = config(strategy="lim", p_nc=p_nc)
        seq = make_seq(8, flagged=flagged)
        for row in mask_many([seq] * BLOCK, cfg):
            assert row.branch == branch
            assert len(row.positions) == scalar_masking.select_mask_count(8, cfg)

    def test_replacement_frequencies(self):
        cfg = config(mask_prob=0.2, max_pred=20, vocab_size=50, mask_piece_id=0, seed=8)
        rows = mask_many([make_seq(100)] * (4 * BLOCK), cfg)
        draws = [piece for row in rows for piece in row.replacements]
        n = len(draws)
        shares = {
            "mask": (sum(p == 0 for p in draws), 0.8 + 0.1 / 50),
            "random": (sum(p > 0 for p in draws), 0.1 * 49 / 50),
            "keep": (sum(p == -1 for p in draws), 0.1),
        }
        for name, (hits, share) in shares.items():
            z = (hits - n * share) / math.sqrt(n * share * (1 - share))
            assert abs(z) < 4, name
        # Random ids spread evenly over the vocabulary (id 0 is also the mask).
        per_id = np.bincount([p for p in draws if p > 0], minlength=50)[1:]
        expected = per_id.sum() / 49
        assert ((per_id - expected) ** 2 / expected).sum() < chi_square_limit(48)

    def test_examples_apply_their_rows(self):
        cfg = config(strategy="lim", p_nc=0.5, vocab_size=50, mask_piece_id=1)
        corpus = self._mixed_block(config(max_seq_len=24), seed=2)
        for seq, row in zip(corpus, mask_many(corpus, cfg)):
            example = build_example(seq, cfg, row)
            assert example.labels == [seq.pieces[p] for p in row.positions]
            for k, piece in enumerate(example.input_ids):
                if k in row.positions and row.replacements[row.positions.index(k)] >= 0:
                    assert piece == row.replacements[row.positions.index(k)]
                else:
                    assert piece == seq.pieces[k]

    def test_rejects_oversized_blocks(self):
        cfg = config(max_seq_len=8)
        with pytest.raises(ValueError, match="longer than max_seq_len"):
            mask_sequences([make_seq(9)], cfg, sequence_rng(0, 0))
        with pytest.raises(ValueError, match="at most"):
            mask_sequences([make_seq(4)] * (BLOCK + 1), cfg, sequence_rng(0, 0))
        with pytest.raises(ValueError, match="at most"):
            mask_sequences([make_seq(4)] * 2, cfg, sequence_rng(0, 0), first=BLOCK - 1)


class TestPhilox:
    # Known-answer vectors of Philox4x32-10 published with Random123
    # (counter, key, output).
    KAT = [
        ((0, 0, 0, 0), (0, 0), (0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8)),
        ((0xFFFFFFFF,) * 4, (0xFFFFFFFF,) * 2, (0x408F276D, 0x41C83B0E, 0xA20BC7C6, 0x6D5451FD)),
        (
            (0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344),
            (0xA4093822, 0x299F31D0),
            (0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1),
        ),
    ]

    @pytest.mark.parametrize("counter,key,expected", KAT)
    def test_known_answers(self, counter, key, expected):
        assert philox4x32(counter, key).ravel().tolist() == list(expected)

    def test_vectorized_equals_one_counter_at_a_time(self):
        groups = np.array([[0, 1, 7], [2**32 - 1, 5, 6]])
        stream = Philox(key=2**40 + 3, stream=2**33 + 9)
        words = stream.words(groups)
        assert words.shape == (2, 12)
        for (i, j), group in np.ndenumerate(groups):
            one = philox4x32((int(group), 9, 2, 0), ((2**40 + 3) % 2**32, 2**8)).ravel()
            assert words[i, 4 * j : 4 * j + 4].tolist() == one.tolist()

    def test_blocks_and_seeds_get_distinct_streams(self):
        groups = np.arange(4)[None, :]
        streams = [sequence_rng(seed, block).words(groups).tolist() for seed in (0, 1, -1) for block in (0, 1)]
        assert len({str(words) for words in streams}) == len(streams)

    @pytest.mark.parametrize("strategy,p_nc", [("mlm", None), ("lim", 0.5)])
    def test_rows_drawn_in_batches_equal_rows_drawn_whole(self, strategy, p_nc):
        cfg = config(strategy=strategy, p_nc=p_nc, max_seq_len=12, max_pred=4)
        rng = sequence_rng(7, 3)
        whole = draw_rows(rng, cfg, 0, BLOCK, 12)
        for first, rows in ((0, 64), (64, 64), (5, 3), (250, 6)):
            part = draw_rows(rng, cfg, first, rows, 9)
            for got, full in zip(part, whole):
                if full is None:
                    assert got is None
                else:
                    assert np.array_equal(got, full[first : first + rows, : got.shape[1]])
        bare = draw_rows(rng, cfg, 0, BLOCK, 12, replacements=False)
        assert bare.replace is None and bare.ids is None
        assert np.array_equal(bare.keys, whole.keys)

    def test_batched_cli_rows_equal_whole_block_rows(self):
        cfg = config(strategy="lim", p_nc=0.5, max_seq_len=16)
        rng = random.Random(1)
        corpus = [
            make_seq(rng.randrange(1, 17), flagged=set(rng.sample(range(16), 6)))
            for _ in range(BLOCK)
        ]
        whole = list(mask_sequences(corpus, cfg, sequence_rng(2, 0)))
        batched = []
        for first in range(0, BLOCK, 64):
            batched += mask_sequences(corpus[first : first + 64], cfg, sequence_rng(2, 0), first)
        assert batched == whole
