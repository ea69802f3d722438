import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lingmask import masking, stats
from lingmask.masking import (
    BLOCK,
    MaskingConfig,
    TokenizedSequence,
    build_example,
    mask_batches,
    mask_rows,
    mask_sequences,
    philox4x32,
)
from lingmask.stats import (
    MaskTally,
    _splitmix64,
    empirical_mask_report,
    expected_conditional_mask_prob,
    flagged_sequences,
    ks_from_counts,
    ks_two_sample,
    tally_blocks,
)

from scalar_masking import tally_pairs


class TestExpectedConditional:
    def test_reference_values(self):
        assert expected_conditional_mask_prob(0.15, 0.75, 0.507) == pytest.approx(
            0.15 * 0.75 / 0.507
        )
        assert round(expected_conditional_mask_prob(0.15, 0.75, 0.507), 2) == 0.22
        assert expected_conditional_mask_prob(0.15, 1.0, 0.5) == pytest.approx(0.30)

    def test_reduction_is_exact(self):
        assert expected_conditional_mask_prob(0.15, 0.507, 0.507) == 0.15

    @given(
        st.floats(0.01, 1.0, allow_nan=False),
        st.floats(0.01, 1.0, allow_nan=False),
    )
    def test_reduction_identity_property(self, mask_prob, p):
        assert expected_conditional_mask_prob(mask_prob, p, p) == mask_prob

    def test_zero_p_y1_rejected(self):
        with pytest.raises(ValueError):
            expected_conditional_mask_prob(0.15, 0.75, 0.0)

    def test_inconsistent_parameterization_rejected(self):
        with pytest.raises(ValueError, match="inconsistent"):
            expected_conditional_mask_prob(0.9, 1.0, 0.1)


def _report(strategy, p_nc, n, seed=3, seq_len=64, p_y1=0.5):
    cfg = MaskingConfig(strategy=strategy, p_nc=p_nc, seed=seed, max_seq_len=seq_len)
    blocks = flagged_sequences(n, seq_len=seq_len, p_y1=p_y1, seed=seed)
    return empirical_mask_report(tally_blocks(blocks, cfg), cfg)


class TestEmpiricalReport:
    def test_mlm_is_flag_independent(self):
        report = _report("mlm", None, 4000)
        assert report.p_mask_given_y1 == pytest.approx(report.p_mask_given_y0, abs=0.01)
        assert report.p_mask_given_y1 == pytest.approx(0.15, abs=0.01)
        assert report.abs_error < 0.01

    def test_forced_nc_branch_starves_non_chunk_positions(self):
        report = _report("lim", 1.0, 2000)
        # Fallback never fires here (both pools are always populated).
        assert report.p_mask_given_y0 == 0.0
        assert report.p_mask_given_y1 > 0.2

    def test_undefined_conditional_reported_as_none(self):
        report = _report("mlm", None, 200, p_y1=0.0)
        assert report.p_mask_given_y1 is None
        assert report.expected_p_mask_given_y1 == 0.15
        assert report.abs_error is None
        assert report.p_mask_given_y0 == pytest.approx(0.15, abs=0.02)

    def test_mlm_expects_mask_prob_whatever_its_p_nc(self):
        # p_nc is read only under lim: an mlm config that carries one masks
        # and reports exactly as one that does not.
        report = _report("mlm", 0.75, 1000)
        assert report.expected_p_mask_given_y1 == 0.15
        assert report == _report("mlm", None, 1000)

    @pytest.mark.parametrize("mask_prob,p_nc", [(0.15, 0.75), (0.15, 0.4), (0.3, 0.2)])
    def test_lim_expects_the_law(self, mask_prob, p_nc):
        # 40 of 100 tokens flagged, 6 of them masked.
        tally = MaskTally(*(np.array([v]) for v in (100, 40, 10, 6)))
        report = empirical_mask_report([tally], MaskingConfig(mask_prob=mask_prob, strategy="lim", p_nc=p_nc))
        assert report.p_y1 == 0.4
        assert report.expected_p_mask_given_y1 == expected_conditional_mask_prob(mask_prob, p_nc, 0.4)
        assert report.abs_error == abs(0.15 - report.expected_p_mask_given_y1)

    def test_lim_without_flagged_tokens_expects_nothing(self):
        # The law divides by p(y=1).
        report = _report("lim", 0.75, 200, p_y1=0.0)
        assert report.p_mask_given_y1 is None
        assert report.expected_p_mask_given_y1 is None
        assert report.abs_error is None

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError):
            empirical_mask_report(iter(()), MaskingConfig())

    def test_misaligned_flags_rejected(self):
        cfg = MaskingConfig(seed=0, max_seq_len=8)
        seq = TokenizedSequence([0] * 8, [True] * 8)
        [(_, row)] = mask_sequences([seq], cfg)
        with pytest.raises(ValueError):
            empirical_mask_report(tally_pairs([(build_example(seq, cfg, row), [True])]), cfg)

    @pytest.mark.parametrize("masked,masked_chunk", [(3, 4), (3, -1), (8, 0), (5, 5)])
    def test_inconsistent_tally_rejected(self, masked, masked_chunk):
        # 8 tokens, 4 of them flagged.
        tally = MaskTally(*(np.array([v]) for v in (8, 4, masked, masked_chunk)))
        with pytest.raises(ValueError, match="exceed"):
            empirical_mask_report([tally], MaskingConfig())

    def test_sums_within_a_tally_are_exact(self):
        # Two sequences of 2**31 unflagged tokens, 2**30 and 2**29 of them
        # masked: their sums of k0**2 (2**63) and a0 * k0 fit no int64, so
        # one two-row tally must report what two one-row tallies do.
        lengths, masked = np.array([2**31, 2**31]), np.array([2**30, 2**29])
        zeros = np.zeros(2, dtype=np.int64)
        split = [MaskTally(lengths[i : i + 1], zeros[:1], masked[i : i + 1], zeros[:1]) for i in range(2)]
        joint = empirical_mask_report([MaskTally(lengths, zeros, masked, zeros)], MaskingConfig())
        assert joint == empirical_mask_report(split, MaskingConfig())
        assert joint.p_mask_given_y0 == 0.375
        assert joint.se_mask_given_y0 == pytest.approx(0.0884, abs=1e-4)

    def test_sums_across_tallies_are_exact(self):
        # Four one-row tallies of 2**31 unflagged tokens, 2**30 of them
        # masked: every sequence has the same rate, so the spread is exactly
        # 0. The sums of k0**2 (2**64) and a0 * k0 (2**63) fit no int64; an
        # accumulator that wrapped would give a standard error of about 0.43.
        tally = MaskTally(*(np.array([v]) for v in (2**31, 0, 2**30, 0)))
        report = empirical_mask_report([tally] * 4, MaskingConfig())
        assert report.n_tokens == 2**33
        assert report.p_mask_given_y0 == 0.5
        assert report.se_mask_given_y0 == 0.0

    @pytest.mark.parametrize("strategy,p_nc", [("mlm", None), ("lim", 0.75)])
    def test_block_tallies_equal_example_tallies(self, strategy, p_nc):
        # tally_blocks counts exactly what the examples of the same sequences hold.
        cfg = MaskingConfig(strategy=strategy, p_nc=p_nc, seed=5, max_seq_len=32)
        blocks = list(flagged_sequences(600, seq_len=32, p_y1=0.4, seed=5))
        seqs = [TokenizedSequence([0] * 32, row) for flags in blocks for row in flags.tolist()]
        pairs = [(build_example(seq, cfg, row), seq.y) for seq, row in mask_sequences(seqs, cfg)]
        tallies = tally_blocks(blocks, cfg)
        assert empirical_mask_report(tallies, cfg) == empirical_mask_report(tally_pairs(pairs), cfg)

    @pytest.mark.parametrize("seq_len,max_pred", [(3, 2), (7, 20), (32, 20)])
    @pytest.mark.parametrize("p_y1", [0.0, 0.02, 0.4, 0.97, 1.0])
    @pytest.mark.parametrize("strategy,p_nc", [("mlm", None), ("lim", 0.0), ("lim", 0.3), ("lim", 0.75), ("lim", 1.0)])
    def test_tally_blocks_mask_row_n_as_row_n_of_the_stream(self, strategy, p_nc, p_y1, seq_len, max_pred):
        # Grids of 100, 156, 256 and 100 rows, then the 88 rows of a partial
        # last block: each starts at the row after the last one of the grids
        # before it. The counts are read off the positions mask_rows chooses,
        # which under lim tally_blocks never draws. p_y1 0 and 1 empty one
        # pool of every row, so the fallback fires both ways, and short rows
        # saturate their pools.
        cfg = MaskingConfig(strategy=strategy, p_nc=p_nc, seed=5, max_seq_len=seq_len, max_pred=max_pred)
        flags = np.concatenate(list(flagged_sequences(700, seq_len=seq_len, p_y1=p_y1, seed=5)))
        starts = [0, 100, 256, 512, 612]
        grids = np.split(flags, starts[1:])
        tallies = list(tally_blocks(grids, cfg))
        assert len(tallies) == len(grids) == 5
        for start, rows, tally in zip(starts, grids, tallies):
            lengths = np.full(len(rows), seq_len)
            masked = mask_rows(rows, lengths, cfg, start, replacements=False)
            owner = np.repeat(np.arange(len(rows)), masked.counts)
            assert tally.lengths.tolist() == lengths.tolist()
            assert tally.chunk.tolist() == rows.sum(axis=1).tolist()
            assert tally.masked.tolist() == masked.counts.tolist()
            assert tally.masked_chunk.tolist() == np.bincount(
                owner[rows[owner, masked.positions]], minlength=len(rows)
            ).tolist()

    @pytest.mark.parametrize("grid_rows", [64, 128])
    @pytest.mark.parametrize("strategy,p_nc", [("mlm", None), ("lim", 0.75)])
    def test_tally_blocks_equal_mask_batches_for_any_grid_size(self, strategy, p_nc, grid_rows):
        cfg = MaskingConfig(strategy=strategy, p_nc=p_nc, seed=5, max_seq_len=16)
        flags = np.concatenate(list(flagged_sequences(512, seq_len=16, seed=3)))
        tallies = list(tally_blocks(np.split(flags, len(flags) // grid_rows), cfg))
        seqs = [TokenizedSequence([0] * 16, row) for row in flags.tolist()]
        masked, masked_chunk = [], []
        for batch, rows in mask_batches(seqs, cfg, replacements=False):
            owner = np.repeat(np.arange(len(batch)), rows.counts)
            masked += rows.counts.tolist()
            masked_chunk += np.bincount(owner[rows.chunk], minlength=len(batch)).tolist()
        assert np.concatenate([tally.masked for tally in tallies]).tolist() == masked
        assert np.concatenate([tally.masked_chunk for tally in tallies]).tolist() == masked_chunk

    @pytest.mark.parametrize("strategy,p_nc,columns", [("lim", 0.75, 1), ("mlm", None, 128)])
    def test_tally_blocks_compute_only_the_words_they_read(self, monkeypatch, strategy, p_nc, columns):
        # 256-row grids of 128-piece rows. Under lim only the coin column,
        # BLOCK // 4 Philox counters per block, in one call per run of up to
        # 16 blocks (40 blocks: three runs); under mlm the 128 key columns,
        # one call per grid.
        blocks = 40 if strategy == "lim" else 3
        computed = []

        def counting(counter, key):
            words = philox4x32(counter, key)
            computed.append(words.shape[1])
            return words

        monkeypatch.setattr(masking, "philox4x32", counting)
        cfg = MaskingConfig(strategy=strategy, p_nc=p_nc, seed=5)
        tallies = list(tally_blocks(flagged_sequences(blocks * BLOCK, seed=3), cfg))
        assert len(tallies) == blocks
        assert sum(computed) == columns * BLOCK // 4 * blocks
        if strategy == "lim":
            assert len(computed) <= math.ceil(blocks / 16)
        else:
            assert computed == [columns * BLOCK // 4] * blocks

    @pytest.mark.parametrize("strategy,p_nc", [("mlm", None), ("lim", 0.75)])
    def test_tally_blocks_reject_rows_longer_than_max_seq_len(self, strategy, p_nc):
        cfg = MaskingConfig(strategy=strategy, p_nc=p_nc, seed=5, max_seq_len=8)
        with pytest.raises(ValueError, match="span 9 exceeds max_seq_len 8"):
            next(tally_blocks(flagged_sequences(10, seq_len=9, seed=3), cfg))

    @pytest.mark.parametrize("strategy,p_nc", [("mlm", None), ("lim", 0.75)])
    @pytest.mark.parametrize("n,grid_rows", [(300, 100), (5000, 700), (5000, 4097)])
    def test_tally_blocks_count_grids_across_blocks_as_block_by_block(self, strategy, p_nc, n, grid_rows):
        # Grids that start and end mid-block, and under lim coin runs that
        # do too, count what the positions mask_rows chooses one block at a
        # time hold.
        cfg = MaskingConfig(strategy=strategy, p_nc=p_nc, seed=5, max_seq_len=16)
        by_block = list(flagged_sequences(n, seq_len=16, seed=3))
        grids = np.split(np.concatenate(by_block), range(grid_rows, n, grid_rows))
        tallies = list(tally_blocks(grids, cfg))
        assert [len(tally.masked) for tally in tallies] == [len(grid) for grid in grids]
        masked, masked_chunk = [], []
        for b, block in enumerate(by_block):
            chosen = mask_rows(block, np.full(len(block), 16), cfg, b * BLOCK, replacements=False)
            owner = np.repeat(np.arange(len(block)), chosen.counts)
            masked += chosen.counts.tolist()
            masked_chunk += np.bincount(owner[block[owner, chosen.positions]], minlength=len(block)).tolist()
        assert np.concatenate([t.masked for t in tallies]).tolist() == masked
        assert np.concatenate([t.masked_chunk for t in tallies]).tolist() == masked_chunk
        assert np.concatenate([t.chunk for t in tallies]).tolist() == np.concatenate(by_block).sum(axis=1).tolist()

    @pytest.mark.parametrize("strategy,p_nc", [("mlm", None), ("lim", 0.75)])
    def test_tally_blocks_give_an_empty_grid_an_empty_tally(self, strategy, p_nc):
        # Empty grids first, mid-stream and last: each gets a tally of no
        # rows and moves no row's place in the stream. A stream of empty
        # grids alone holds no sequence.
        cfg = MaskingConfig(strategy=strategy, p_nc=p_nc, seed=5, max_seq_len=16)
        flags = np.concatenate(list(flagged_sequences(300, seq_len=16, seed=3)))
        grids = np.split(flags, [0, 100, 100, 300])
        tallies = list(tally_blocks(grids, cfg))
        assert [len(tally.masked) for tally in tallies] == [0, 100, 0, 200, 0]
        for tally in tallies[::2]:
            assert all(len(field) == 0 for field in tally)
        whole = list(tally_blocks([grids[1], grids[3]], cfg))
        for got, expected in zip(tallies[1::2], whole):
            for field, want in zip(got, expected):
                assert field.tolist() == want.tolist()
        empty = list(tally_blocks(np.split(flags[:0], [0]), cfg))
        assert [len(tally.masked) for tally in empty] == [0, 0]
        with pytest.raises(ValueError, match="empty example stream"):
            empirical_mask_report(iter(empty), cfg)

    def test_counts(self):
        report = _report("mlm", None, 100, seq_len=32)
        assert report.n_sequences == 100
        assert report.n_tokens == 3200

    def test_error_converges_under_doubling(self):
        # The absolute error stays inside its 99% envelope as the corpus
        # doubles: a shrinking statistical part (2.58 se) plus the fixed
        # count-rounding offset (the builder masks round(0.15 * 128) = 19
        # positions, not 19.2).
        seq_len, p_y1 = 128, 0.507
        rounding_gap = abs(0.15 - round(0.15 * seq_len) / seq_len)
        previous_bound = None
        for n in (2000, 4000, 8000):
            report = _report("lim", 0.75, n, seed=21, seq_len=seq_len, p_y1=p_y1)
            bound = rounding_gap * 0.75 / report.p_y1 + 2.58 * report.se_mask_given_y1
            assert report.abs_error <= bound
            if previous_bound is not None:
                assert bound < previous_bound
            previous_bound = bound


def _brute_force_d(a, b):
    points = sorted(set(a) | set(b))
    best = 0.0
    for x in points:
        fa = sum(1 for v in a if v <= x) / len(a)
        fb = sum(1 for v in b if v <= x) / len(b)
        best = max(best, abs(fa - fb))
    return best


class TestKs:
    def test_identical_samples(self):
        result = ks_two_sample([1, 2, 3], [1, 2, 3])
        assert result.d_statistic == 0.0
        assert result.p_value == 1.0

    def test_disjoint_supports(self):
        assert ks_two_sample([1, 2], [3, 4]).d_statistic == 1.0

    def test_quarter_case(self):
        assert ks_two_sample([1, 2, 3, 4], [1, 2, 3, 10]).d_statistic == 0.25

    def test_sample_sizes_recorded(self):
        result = ks_two_sample([1.5, 2.5], [0.5, 1.5, 9.0])
        assert (result.n1, result.n2) == (2, 3)

    def test_large_disjoint_samples_give_tiny_p(self):
        result = ks_two_sample(list(range(50)), list(range(100, 150)))
        assert result.d_statistic == 1.0
        assert result.p_value < 0.001

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            ks_two_sample([], [1])

    @given(
        st.lists(st.integers(0, 10), min_size=1, max_size=50),
        st.lists(st.integers(0, 10), min_size=1, max_size=50),
    )
    def test_scan_equals_brute_force_and_symmetry(self, a, b):
        result = ks_two_sample(a, b)
        assert result.d_statistic == _brute_force_d(a, b)
        assert result.d_statistic == ks_two_sample(b, a).d_statistic
        assert 0.0 <= result.d_statistic <= 1.0
        assert 0.0 <= result.p_value <= 1.0


def _merged_scan_d(a, b):
    """D by a merged scan of the two sorted samples, advancing past each
    distinct value in both (the scan ``ks_two_sample`` ran before it counted
    its samples)."""
    a, b = sorted(a), sorted(b)
    i = j = 0
    d = 0.0
    while i < len(a) or j < len(b):
        value = a[i] if j >= len(b) or (i < len(a) and a[i] <= b[j]) else b[j]
        while i < len(a) and a[i] == value:
            i += 1
        while j < len(b) and b[j] == value:
            j += 1
        d = max(d, abs(i / len(a) - j / len(b)))
    return d


def _expand(counts):
    return [value for value, count in counts.items() for _ in range(count)]


# Count tables over a few values, so the two samples tie often; a value may
# have count 0. Each table has at least one count.
_COUNTS = st.dictionaries(st.integers(-3, 6), st.integers(0, 9), max_size=8).filter(
    lambda counts: sum(counts.values()) > 0
)


class TestKsFromCounts:
    @given(_COUNTS, _COUNTS)
    def test_equals_the_expanded_samples(self, counts_a, counts_b):
        a, b = _expand(counts_a), _expand(counts_b)
        result = ks_from_counts(counts_a, counts_b)
        assert result == ks_two_sample(a, b)
        assert result.d_statistic == _merged_scan_d(a, b) == _brute_force_d(a, b)
        assert (result.n1, result.n2) == (len(a), len(b))

    def test_large_counts_need_no_expansion(self):
        result = ks_from_counts({3: 10**12}, {3: 1, 4: 1})
        assert result.d_statistic == 0.5
        assert (result.n1, result.n2) == (10**12, 2)

    @pytest.mark.parametrize(
        "counts_a, counts_b, error",
        [({1: 0}, {1: 1}, "non-empty"), ({}, {1: 1}, "non-empty"), ({1: -1, 2: 2}, {1: 1}, "non-negative")],
    )
    def test_invalid_tables_rejected(self, counts_a, counts_b, error):
        with pytest.raises(ValueError, match=error):
            ks_from_counts(counts_a, counts_b)


def _splitmix64_reference(seed, k):
    """The k-th output of SplitMix64 seeded with ``seed``, in Python ints."""
    z = (seed + k * 0x9E3779B97F4A7C15) % 2**64
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 % 2**64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB % 2**64
    return z ^ (z >> 31)


class TestFlaggedSequences:
    @pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
    def test_hash_matches_reference(self, seed):
        states = np.arange(1, 9, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15) + np.uint64(seed)
        assert _splitmix64(states).tolist() == [_splitmix64_reference(seed, k) for k in range(1, 9)]

    def test_flags_are_hash_words_below_threshold(self):
        # Flag 2k is the low word of hash k + 1 and flag 2k + 1 its high
        # word. 1 - 2**-32 sets the largest threshold below 2**32, and
        # 1 - 2**-33 rounds to a threshold of 2**32, as 1 does. 255 rows of
        # 7 pieces are one block of an odd number of flags, whose last hash
        # gives one flag.
        for n, seq_len, p_y1 in ((300, 16, 0.3), (255, 7, 0.3), (300, 16, 1 - 2**-32), (300, 16, 1 - 2**-33)):
            flags = np.concatenate(list(flagged_sequences(n, seq_len=seq_len, p_y1=p_y1, seed=9))).ravel()
            threshold = round(p_y1 * 2**32)
            expected = [
                _splitmix64_reference(9, i // 2 + 1) >> (32 * (i % 2)) & 0xFFFFFFFF < threshold
                for i in range(len(flags))
            ]
            assert flags.tolist() == expected

    @pytest.mark.parametrize("n,seq_len", [(555, 7), (300, 16)])
    def test_one_hash_call_per_block_of_half_its_flags(self, monkeypatch, n, seq_len):
        # 43 rows of 7 pieces end the first corpus on an odd 301 flags.
        hashed = []

        def counting(states):
            hashed.append(len(states))
            return _splitmix64(states)

        monkeypatch.setattr(stats, "_splitmix64", counting)
        blocks = list(flagged_sequences(n, seq_len=seq_len, seed=3))
        assert hashed == [math.ceil(block.size / 2) for block in blocks]
        assert [len(block) for block in blocks] == [min(BLOCK, n - e) for e in range(0, n, BLOCK)]

    @pytest.mark.parametrize("seed", [4, 2**64 - 1])
    def test_deterministic(self, seed):
        a = [b.tolist() for b in flagged_sequences(300, seq_len=16, p_y1=0.5, seed=seed)]
        b = [b.tolist() for b in flagged_sequences(300, seq_len=16, p_y1=0.5, seed=seed)]
        assert a == b
        other = [b.tolist() for b in flagged_sequences(300, seq_len=16, p_y1=0.5, seed=seed - 1)]
        assert a != other

    def test_prefix_of_longer_corpus(self):
        short = np.concatenate(list(flagged_sequences(300, seq_len=16, seed=2)))
        long = np.concatenate(list(flagged_sequences(600, seq_len=16, seed=2)))
        assert (long[:300] == short).all()

    @pytest.mark.parametrize("n", [255, 513])
    def test_prefix_ending_on_an_odd_flag_count(self, n):
        # 255 * 7 and 513 * 7 flags are odd: the shorter corpus keeps only
        # the low word of its last hash, whose high word starts the next row.
        short = np.concatenate(list(flagged_sequences(n, seq_len=7, p_y1=0.5, seed=2)))
        long = np.concatenate(list(flagged_sequences(n + 45, seq_len=7, p_y1=0.5, seed=2)))
        assert short.size % 2 == 1
        assert (long[:n] == short).all()

    @pytest.mark.parametrize("p_y1,expected", [(0.0, False), (1.0, True)])
    def test_extreme_rates(self, p_y1, expected):
        blocks = list(flagged_sequences(300, seq_len=16, p_y1=p_y1, seed=2**64 - 1))
        assert [block.shape for block in blocks] == [(256, 16), (44, 16)]
        for block in blocks:
            assert block.dtype == bool and (block == expected).all()

    @pytest.mark.parametrize("n,seq_len", [(500, 64), (50_000, 128)])
    def test_shapes_and_rate(self, n, seq_len):
        blocks = list(flagged_sequences(n, seq_len=seq_len, p_y1=0.507, seed=1))
        assert [b.shape for b in blocks] == [(min(256, n - e), seq_len) for e in range(0, n, 256)]
        flags = n * seq_len
        hits = sum(int(b.sum()) for b in blocks)
        assert hits / flags == pytest.approx(0.507, abs=0.01)
        assert abs(hits - flags * 0.507) / math.sqrt(flags * 0.507 * 0.493) < 4

    @pytest.mark.parametrize(
        "n,seq_len,p_y1,seed,message",
        [
            (0, 128, 0.5, 0, "n_sequences must be >= 1, got 0"),
            (10, 0, 0.5, 0, "seq_len must be >= 1, got 0"),
            (10, -3, 0.5, 0, "seq_len must be >= 1, got -3"),
            (1, 128, 1.5, 0, "p_y1 must be in [0, 1], got 1.5"),
            (1, 128, -0.1, 0, "p_y1 must be in [0, 1], got -0.1"),
            (1, 128, 0.5, -1, "seed must be >= 0, got -1"),
            (1, 128, 0.5, 2**64, f"seed must be < 2**64, got {2**64}"),
        ],
    )
    def test_bad_arguments(self, n, seq_len, p_y1, seed, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            list(flagged_sequences(n, seq_len=seq_len, p_y1=p_y1, seed=seed))
