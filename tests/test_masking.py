import json
import math
import random
import re

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from lingmask.chunker import AnnotatedSentence, AnnotatedToken
from lingmask.masking import (
    BLOCK,
    BRANCHES,
    MASK_FRAC,
    RANDOM_FRAC,
    STRATEGIES,
    MaskedExample,
    MaskingConfig,
    MaskRow,
    TokenizedSequence,
    build_example,
    draw_rows,
    example_to_json_line,
    lim_counts,
    mask_batches,
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


def record_of(example, cfg):
    """The JSONL record the writer makes of ``example``, as a dict."""
    return json.loads(example_to_json_line(example, cfg))


def grid(seqs):
    """The chunk flags of ``seqs`` as ``mask_rows`` takes them: a (rows,
    longest length) grid, False past each row's length, and the lengths."""
    lengths = np.array([len(seq.y) for seq in seqs])
    flags = np.zeros((len(seqs), lengths.max()), dtype=bool)
    for i, seq in enumerate(seqs):
        flags[i, : len(seq.y)] = seq.y
    return flags, lengths


def rows_of(masked):
    """The ``MaskRow`` of each row of a ``mask_rows`` result."""
    ends = masked.counts.cumsum().tolist()
    branches = ["n/a"] * len(ends) if masked.nc is None else ["nc" if nc else "non_nc" for nc in masked.nc]
    return [
        MaskRow(branch, masked.positions[start:end].tolist(), masked.replacements[start:end].tolist())
        for branch, start, end in zip(branches, [0, *ends], ends)
    ]


def counted(flags, lengths, cfg, start=0):
    """Each row's masked and masked chunk-flagged counts, as the law check
    takes them: ``lim_counts`` under lim, read off ``mask_rows`` under mlm."""
    if cfg.strategy == "lim":
        return lim_counts(np.count_nonzero(flags, axis=1), lengths, cfg, start)
    masked = mask_rows(flags, lengths, cfg, start, replacements=False)
    owner = np.repeat(np.arange(len(flags)), masked.counts)
    return masked.counts, np.bincount(owner[masked.chunk], minlength=len(flags))


def mask_one(seq, cfg, block=0):
    """The example of ``seq`` as the first sequence of block ``block``."""
    [row] = rows_of(mask_rows(*grid([seq]), cfg, block * BLOCK))
    return build_example(seq, cfg, row)


def mask_many(seqs, cfg):
    """The rows of ``seqs``, as the CLI masks them."""
    return [row for _, row in mask_sequences(seqs, cfg)]


def chi_square_limit(df, z=3.72):
    """Upper tail of chi-square(df) at about p = 1e-4 (Wilson-Hilferty)."""
    return df * (1 - 2 / (9 * df) + z * math.sqrt(2 / (9 * df))) ** 3


class TestConfig:
    def test_defaults_and_policy_sum(self):
        cfg = config()
        assert cfg.mask_prob == 0.15
        assert cfg.max_pred == 20
        assert cfg.max_seq_len == 128
        assert (MASK_FRAC, RANDOM_FRAC) == (0.8, 0.1)

    def test_lim_requires_p_nc(self):
        with pytest.raises(ValueError, match="requires p_nc"):
            config(strategy="lim")

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            config(strategy="spans")

    @pytest.mark.parametrize(
        "seed,message", [(-1, "seed must be >= 0, got -1"), (2**64, f"seed must be < 2**64, got {2**64}")]
    )
    def test_seed_outside_64_bits_rejected(self, seed, message):
        # Masks key on the seed's 64 bits, so -1 and 2**64 would alias
        # 2**64 - 1 and 0.
        with pytest.raises(ValueError, match=re.escape(message)):
            config(seed=seed)
        assert config(seed=2**64 - 1).seed == 2**64 - 1


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
        assert example.branch == "n/a"
        record = record_of(example, config())
        assert record["weights"] == [1.0, 1.0] + [0.0] * 18
        assert record["strategy"] == "mlm"
        assert example.labels == [make_seq(10).pieces[p] for p in example.masked_positions]

    def test_deterministic(self):
        a = mask_one(make_seq(12), config(seed=42))
        b = mask_one(make_seq(12), config(seed=42))
        assert a == b

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError, match="cannot mask an empty sequence"):
            mask_one(make_seq(0), config())
        with pytest.raises(ValueError, match="cannot mask an empty sequence"):
            list(mask_sequences([make_seq(0)], config()))


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
        cfg = config(strategy="lim", p_nc=0.5, max_pred=4)
        for trial in range(20):
            seq = make_seq(15, flagged=(1, 2, 3))
            example = mask_one(seq, cfg, block=trial)
            record = record_of(example, cfg)
            assert len(record["weights"]) == cfg.max_pred
            assert sum(record["weights"]) == len(example.masked_positions)
            assert record["strategy"] == "lim"


class TestExampleValidation:
    def test_positions_strictly_increasing(self):
        with pytest.raises(ValueError):
            MaskedExample([1, 2, 3], [1, 1], [2, 3], "n/a")

    def test_position_bounds(self):
        with pytest.raises(ValueError):
            MaskedExample([1, 2, 3], [5], [2], "n/a")


# Reference form of an example record: the dict the record holds, through
# json.dumps, with the run's weights and strategy from its config. The writer
# builds the same bytes from pieces.
def _oracle_example_line(example, cfg):
    n = len(example.masked_positions)
    return json.dumps(
        {
            "input_ids": example.input_ids,
            "masked_positions": example.masked_positions,
            "labels": example.labels,
            "weights": [1.0] * n + [0.0] * (cfg.max_pred - n),
            "strategy": cfg.strategy,
            "branch": example.branch,
            "doc_id": example.doc_id,
        },
        ensure_ascii=False,
    )


BIG_INTS = st.one_of(st.integers(-(2**70), 2**70), st.integers(0, 40))


@st.composite
def examples(draw):
    """An example and the config of its run: ``max_pred`` at least its slot
    count, and either strategy."""
    input_ids = draw(st.lists(BIG_INTS, min_size=1, max_size=40))
    positions = sorted(draw(st.sets(st.integers(0, len(input_ids) - 1), max_size=len(input_ids))))
    example = MaskedExample(
        input_ids=input_ids,
        masked_positions=positions,
        labels=draw(st.lists(BIG_INTS, min_size=len(positions), max_size=len(positions))),
        branch=draw(st.sampled_from(BRANCHES)),
        doc_id=draw(JSON_TEXT),
    )
    strategy = draw(st.sampled_from(STRATEGIES))
    cfg = config(
        max_pred=draw(st.integers(max(1, len(positions)), len(positions) + 25)),
        strategy=strategy,
        p_nc=0.5 if strategy == "lim" else None,
    )
    return example, cfg


class TestExampleJsonLine:
    @given(examples())
    def test_equals_json_dumps(self, example_and_config):
        example, cfg = example_and_config
        assert example_to_json_line(example, cfg) == _oracle_example_line(example, cfg)

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
        example = MaskedExample([3, 4, 5], [1], [4], "n/a", "d")
        setattr(example, field, value)
        with pytest.raises(TypeError):
            example_to_json_line(example, config(max_pred=2))


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

    # "abab" is ab ##ab, "ca" is c ##a; "d" and "ac" have no decomposition
    # and encode to [UNK].
    PIECES = ["[UNK]", "[MASK]", "a", "b", "ab", "c", "##a", "##b", "##ab"]

    @given(
        words=st.lists(st.tuples(st.text("abcd", min_size=1, max_size=6), st.booleans()), min_size=1, max_size=30),
        max_seq_len=st.integers(1, 40),
    )
    @example(words=[("abab", True), ("d", False), ("ca", True), ("ac", True)], max_seq_len=4)
    def test_equals_per_piece_lookup(self, words, max_seq_len):
        flags = [flag for _, flag in words]
        starts = [k for k, flag in enumerate(flags) if flag and (k == 0 or not flags[k - 1])]
        ends = [k + 1 for k, flag in enumerate(flags) if flag and (k + 1 == len(flags) or not flags[k + 1])]
        sent = AnnotatedSentence([AnnotatedToken(word, "NOUN") for word, _ in words], list(zip(starts, ends)))
        assert sent.y == flags
        got = sequence_from_annotated(sent, Vocabulary(self.PIECES), max_seq_len, doc_id="s")
        assert got == scalar_masking.sequence_from_annotated(sent, Vocabulary(self.PIECES), max_seq_len, doc_id="s")


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
        (_, first), (_, second) = mask_sequences([seq, seq], cfg)
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
        for batch, masked in mask_batches(corpus, cfg):
            flags, _ = grid(batch)
            owner = np.repeat(np.arange(len(batch)), masked.counts)
            assert np.array_equal(masked.chunk, flags[owner, masked.positions])

    def test_padding_never_leaks_past_a_row_length(self):
        cfg = config(strategy="lim", p_nc=0.5, max_seq_len=16, max_pred=20)
        corpus = self._mixed_block(cfg, seed=9)
        flags, lengths = grid(corpus)
        masked = mask_rows(flags, lengths, cfg)
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
            list(mask_sequences([make_seq(9)], cfg))
        with pytest.raises(ValueError, match="numbered from 0, got start -1"):
            draw_rows(cfg, -1, 2, 4)
        with pytest.raises(ValueError, match="no rows to draw"):
            draw_rows(cfg, 0, 0, 4)
        with pytest.raises(ValueError, match="span 9 exceeds max_seq_len 8"):
            draw_rows(cfg, 0, 2, 9)
        with pytest.raises(ValueError, match="width 21 outside 0 to max_pred 20"):
            draw_rows(cfg, 0, 2, 4, 21)
        with pytest.raises(ValueError, match="width -1 outside 0 to max_pred 20"):
            draw_rows(cfg, 0, 2, 4, -1)
        with pytest.raises(ValueError, match="span 9 exceeds max_seq_len 8"):
            lim_counts(np.array([3]), np.array([9]), config(strategy="lim", p_nc=0.5, max_seq_len=8))
        with pytest.raises(ValueError, match="lim_counts needs strategy 'lim', got 'mlm'"):
            lim_counts(np.array([3]), np.array([4]), cfg)
        with pytest.raises(ValueError, match="no rows to draw"):
            lim_counts(np.array([], dtype=int), np.array([], dtype=int), config(strategy="lim", p_nc=0.5))

    @pytest.mark.parametrize("change", ["grown", "shrunk"])
    def test_rejects_pieces_changed_after_construction(self, change):
        # TokenizedSequence checks nothing; mask_batches checks alignment.
        seq = make_seq(3, flagged=(0,))
        if change == "grown":
            seq.pieces.append(5)
        else:
            seq.pieces.pop()
        with pytest.raises(ValueError, match="chunk flags must align with pieces"):
            list(mask_sequences([make_seq(4), seq], config()))


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

    # One stream for every counter, or one per counter; a negative seed is
    # taken mod 2**64.
    @pytest.mark.parametrize("seed", [2**40 + 3, -1])
    @pytest.mark.parametrize("streams", [[2**33 + 9] * 6, [2**33 + 9, 0, 2**32 + 1, 2**64 - 1, 7, 7]])
    def test_vectorized_equals_one_counter_at_a_time(self, seed, streams):
        groups = np.array([0, 1, 7, 2**32 - 1, 5, 6])
        stream = streams[0] if len(set(streams)) == 1 else np.array(streams, dtype=np.uint64)
        words = sequence_rng(seed, stream, groups)
        assert words.shape == (4, len(groups))
        key = (seed % 2**32, seed % 2**64 >> 32)
        for j, (group, s) in enumerate(zip(groups.tolist(), streams)):
            one = philox4x32((group, s % 2**32, s >> 32, 0), key).ravel()
            assert words[:, j].tolist() == one.tolist()

    def test_counters_are_left_unchanged(self):
        # The rounds run in place on a copy of the counters: uint64 arrays,
        # which need no conversion, must not be written either.
        counters = [np.arange(6, dtype=np.uint64) + k for k in (0, 2**31, 7)] + [np.arange(6) + 2**32 - 6]
        before = [c.copy() for c in counters]
        philox4x32(counters, (3, 4))
        for c, copy in zip(counters, before):
            assert c.dtype == copy.dtype and np.array_equal(c, copy)

    @pytest.mark.parametrize("index", range(4))
    def test_scalar_counters_broadcast_with_an_array_counter(self, index):
        column = np.array([0, 1, 2**32 - 1, 12345, 7], dtype=np.uint64)
        scalars = [9, 2**31, 0, 2**32 - 1]

        def counter(value):
            return tuple(value if k == index else scalars[k] for k in range(4))

        words = philox4x32(counter(column), (5, 2**32 - 6))
        assert words.shape == (4, len(column))
        for j, value in enumerate(column.tolist()):
            assert words[:, j].tolist() == philox4x32(counter(value), (5, 2**32 - 6)).ravel().tolist()

    @pytest.mark.parametrize("first,rows", [(0, 13), (5, 13), (250, 6)])
    @pytest.mark.parametrize("strategy,p_nc,replacements", [("lim", 0.5, True), ("mlm", None, False)])
    def test_draw_rows_follow_the_stream_layout(self, strategy, p_nc, replacements, first, rows):
        # Column c of a region is BLOCK consecutive stream words, one per row:
        # row r takes word (region start + c) * BLOCK + first + r, and word i
        # is word i % 4 of the cipher at counter (i // 4, block mod 2**32,
        # block >> 32, 0) under the seed's two halves. Block 2**32 + 5 sets
        # the high word of the stream number.
        # A width of 2 is below min(max_pred, span): its words are the
        # leading columns of the full draw.
        seed, max_seq_len, max_pred, span = 2**40 + 7, 12, 4, 9
        cfg = config(strategy=strategy, p_nc=p_nc, max_seq_len=max_seq_len, max_pred=max_pred, seed=seed)
        for block in (3, 2**32 + 5):

            def word(i):
                counter = (i // 4, block % 2**32, block >> 32, 0)
                return int(philox4x32(counter, (seed % 2**32, seed >> 32))[i % 4, 0])

            full = draw_rows(cfg, block * BLOCK + first, rows, span, max_pred * replacements)
            for replaced in (max_pred, 2) if replacements else (0,):
                regions = {
                    "coins": (0, int(strategy == "lim")),
                    "keys": (1, span),
                    "replace": (1 + max_seq_len, replaced),
                    "ids": (1 + max_seq_len + max_pred, replaced),
                }
                draws = draw_rows(cfg, block * BLOCK + first, rows, span, replaced)
                for (start, width), got, whole in zip(regions.values(), draws, full):
                    if not width:
                        assert got is None
                        continue
                    expected = [[word((start + c) * BLOCK + first + r) for c in range(width)] for r in range(rows)]
                    assert got.tolist() == expected
                    assert np.array_equal(got, whole[:, :width])
                    # Rows are contiguous, which the key passes of mask_rows rely on.
                    assert got.strides[1] == got.itemsize

    def test_blocks_and_seeds_get_distinct_streams(self):
        groups = np.arange(4)
        streams = [sequence_rng(seed, block, groups).tolist() for seed in (0, 1, -1) for block in (0, 1)]
        assert len({str(words) for words in streams}) == len(streams)

    @pytest.mark.parametrize("strategy,p_nc", [("mlm", None), ("lim", 0.5)])
    def test_rows_drawn_in_batches_equal_rows_drawn_whole(self, strategy, p_nc):
        cfg = config(strategy=strategy, p_nc=p_nc, max_seq_len=12, max_pred=4, seed=7)
        whole = draw_rows(cfg, 3 * BLOCK, BLOCK, 12, 4)
        for first, rows in ((0, 64), (64, 64), (5, 3), (250, 6)):
            part = draw_rows(cfg, 3 * BLOCK + first, rows, 9, 4)
            for got, full in zip(part, whole):
                if full is None:
                    assert got is None
                else:
                    assert np.array_equal(got, full[first : first + rows, : got.shape[1]])
        _, bare_keys, bare_replace, bare_ids = draw_rows(cfg, 3 * BLOCK, BLOCK, 12)
        assert bare_replace is None and bare_ids is None
        assert np.array_equal(bare_keys, whole[1])

    @staticmethod
    def _by_block(start, rows):
        """The (start, rows) of each block's share of rows ``start`` to
        ``start + rows - 1``."""
        shares = []
        while rows:
            share = min(rows, BLOCK - start % BLOCK)
            shares.append((start, share))
            start, rows = start + share, rows - share
        return shares

    # Runs that start and end mid-block, one that ends on a boundary, and
    # runs past stream 2**32, whose counters carry a high stream word of 1.
    RUNS = [(100, 700), (2 * BLOCK - 1, 2), (5, 2 * BLOCK - 5), (2**32 * BLOCK - 3, 10), (2**32 * BLOCK + 7, 300)]

    @pytest.mark.parametrize("start,rows", RUNS)
    @pytest.mark.parametrize("strategy,p_nc,replacements", [("lim", 0.5, True), ("mlm", None, False)])
    def test_draw_rows_across_blocks_equal_block_by_block_draws(self, strategy, p_nc, replacements, start, rows):
        cfg = config(strategy=strategy, p_nc=p_nc, max_seq_len=12, max_pred=4, seed=2**40 + 7)
        run = draw_rows(cfg, start, rows, 9, 4 * replacements)
        shares = [draw_rows(cfg, first, n, 9, 4 * replacements) for first, n in self._by_block(start, rows)]
        for got, parts in zip(run, zip(*shares)):
            if got is None:
                assert parts == (None,) * len(shares)
            else:
                assert np.array_equal(got, np.concatenate(parts))
                assert got.strides[1] == got.itemsize

    @pytest.mark.parametrize("start,rows", RUNS)
    @pytest.mark.parametrize("strategy,p_nc", [("mlm", None), ("lim", 0.5)])
    def test_mask_rows_and_counts_across_blocks_equal_block_by_block(self, strategy, p_nc, start, rows):
        cfg = config(strategy=strategy, p_nc=p_nc, max_seq_len=16, seed=4)
        rng = random.Random(start)
        corpus = [make_seq(rng.randrange(1, 17), flagged=set(rng.sample(range(16), 6))) for _ in range(rows)]
        flags, lengths = grid(corpus)
        run = mask_rows(flags, lengths, cfg, start)
        counts = counted(flags, lengths, cfg, start)
        row_shares, count_shares = [], []
        for first, n in self._by_block(start, rows):
            at = slice(first - start, first - start + n)
            row_shares += rows_of(mask_rows(flags[at], lengths[at], cfg, first))
            count_shares.append(counted(flags[at], lengths[at], cfg, first))
        assert rows_of(run) == row_shares
        for got, parts in zip(counts, zip(*count_shares)):
            assert got.tolist() == np.concatenate(parts).tolist()
        # The counts are those of the chosen positions, whose flags are read
        # off the grid.
        assert counts[0].tolist() == run.counts.tolist()
        owner = np.repeat(np.arange(rows), run.counts)
        assert counts[1].tolist() == np.bincount(owner[flags[owner, run.positions]], minlength=rows).tolist()

    def test_batched_cli_rows_equal_whole_block_rows(self):
        # mask_sequences masks a block in batches of 64 rows.
        cfg = config(strategy="lim", p_nc=0.5, max_seq_len=16, seed=2)
        rng = random.Random(1)
        corpus = [
            make_seq(rng.randrange(1, 17), flagged=set(rng.sample(range(16), 6)))
            for _ in range(BLOCK)
        ]
        whole = rows_of(mask_rows(*grid(corpus), cfg))
        assert mask_many(corpus, cfg) == whole
