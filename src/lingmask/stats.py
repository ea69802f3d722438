"""Verification machinery: masking-probability algebra and estimators, the
two-sample Kolmogorov-Smirnov test, and synthetic flagged corpora.

The conditional masking law says that when masking is restricted to
chunk-flagged positions with branch probability p_nc, the chance that a given
flagged token gets masked is mask_prob * p_nc / p(y=1); choosing
p_nc = p(y=1) recovers the plain strategy's mask_prob. The empirical report
estimates both conditionals from per-sequence mask counts and compares the
flagged one with what the run's ``MaskingConfig`` expects (``mask_prob``
under ``mlm``, the law under ``lim``), so the law can be checked end to
end. ``tally_blocks`` counts them for grids of synthetic
sequences, numbered as one stream, with the rules of the sampler that
writes pre-training data. Under ``mlm`` it draws each grid's positions
(``masking.mask_rows``) and counts their flags. Under ``lim`` it reads only
each sequence's branch coin, since every masked position has its pool's
flag, and draws the coins of up to 16 blocks of sequences in one call
(``masking.lim_counts``). ``flagged_sequences`` generates the flags, two
from each SplitMix64 value, one block of sequences per hash call.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .masking import BLOCK, MaskingConfig, lim_counts, mask_rows


def _law(mask_prob: float, p_nc: float, p_y1: float) -> float:
    """mask_prob * p_nc / p_y1; ``p_nc == p_y1`` returns ``mask_prob``
    exactly (the reduction to the plain strategy is an algebraic identity and
    must not pick up float round-off)."""
    return mask_prob if p_nc == p_y1 else mask_prob * p_nc / p_y1


def expected_conditional_mask_prob(mask_prob: float, p_nc: float, p_y1: float) -> float:
    """Analytic p(masked | flagged) = mask_prob * p_nc / p_y1, exactly
    ``mask_prob`` when ``p_nc == p_y1``.

    All arguments must lie in (0, 1], and so must the result.
    """
    for name, value in (("mask_prob", mask_prob), ("p_nc", p_nc), ("p_y1", p_y1)):
        if not 0.0 < value <= 1.0:
            raise ValueError(f"{name} must be in (0, 1], got {value}")
    result = _law(mask_prob, p_nc, p_y1)
    if result > 1.0:
        raise ValueError(
            f"inconsistent parameterization: mask_prob * p_nc / p_y1 = {result:.4f} > 1"
        )
    return result


@dataclass
class MaskProbReport:
    """Empirical conditional masking probabilities over an example stream.

    Standard errors are delta-method estimates for the ratio estimators,
    clustered by sequence (mask decisions within one sequence are correlated
    because they share the branch coin and the fixed mask budget).
    """

    n_sequences: int
    n_tokens: int
    p_y1: float
    p_mask_given_y1: float | None
    p_mask_given_y0: float | None
    expected_p_mask_given_y1: float | None
    abs_error: float | None
    se_mask_given_y1: float | None
    se_mask_given_y0: float | None


def _ratio_and_se(
    num: float, den: float, num_sq: float, den_sq: float, cross: float
) -> tuple[float | None, float | None]:
    if den <= 0:
        return None, None
    ratio = num / den
    # Var(sum a / sum b) ~= sum (a_j - R b_j)^2 / (sum b)^2 over sequences j.
    spread = max(0.0, num_sq - 2.0 * ratio * cross + ratio * ratio * den_sq)
    return ratio, math.sqrt(spread) / den


class MaskTally(NamedTuple):
    """Per-sequence counts of one grid of rows: length, chunk-flagged tokens,
    masked tokens and masked chunk-flagged tokens, one entry per sequence."""

    lengths: np.ndarray
    chunk: np.ndarray
    masked: np.ndarray
    masked_chunk: np.ndarray


# Rows whose branch coins the lim law check draws in one cipher call: 16
# blocks, enough to spread the call's fixed cost, while memory stays flat at
# any corpus size.
_COIN_RUN = 16 * BLOCK


def tally_blocks(blocks: Iterable[np.ndarray], config: MaskingConfig) -> Iterator[MaskTally]:
    """Count the masks of grids of full-length flag rows, numbered as one
    stream (each grid's rows follow the rows before it), so the counts are
    those of the masks ``mask_sequences`` gives the same sequences whatever
    the grid sizes, across block boundaries too.

    Each grid's flags are counted once. Under ``mlm`` each grid's positions
    are drawn as it arrives (``mask_rows``) and the chunk-flagged ones
    counted per row. Under ``lim`` the grids are read ahead, keeping only
    each row's length and chunk count, until they hold ``_COIN_RUN`` rows
    (16 blocks) or the stream ends; then ``lim_counts`` draws the coins of
    the whole run in one call. A grid of no rows gets a tally of no rows
    under either strategy, and draws nothing.
    """
    start = 0
    if config.strategy == "mlm":
        for flags in blocks:
            rows, seq_len = flags.shape
            lengths = np.full(rows, seq_len)
            masked = masked_chunk = np.zeros(0, dtype=np.int64)
            if rows:
                chosen = mask_rows(flags, lengths, config, start, replacements=False)
                owner = np.repeat(np.arange(rows), chosen.counts)
                masked, masked_chunk = chosen.counts, np.bincount(owner[chosen.chunk], minlength=rows)
            start += rows
            yield MaskTally(lengths, np.count_nonzero(flags, axis=1), masked, masked_chunk)
        return
    for run in _counted_runs(blocks):
        yield from _lim_tallies(run, config, start)
        start += sum(len(n_chunk) for _, n_chunk in run)


def _counted_runs(blocks: Iterable[np.ndarray]) -> Iterator[list[tuple[int, np.ndarray]]]:
    """Each grid's row length and per-row chunk counts, in runs of grids
    that hold at least ``_COIN_RUN`` rows; the last run may hold fewer."""
    run, rows = [], 0
    for flags in blocks:
        run.append((flags.shape[1], np.count_nonzero(flags, axis=1)))
        rows += len(flags)
        if rows >= _COIN_RUN:
            yield run
            run, rows = [], 0
    if run:
        yield run


def _lim_tallies(run: list[tuple[int, np.ndarray]], config: MaskingConfig, start: int) -> Iterator[MaskTally]:
    """The tallies of one run of grids whose first row is row ``start``: a
    generator, so its arrays are freed before the next run is read, and each
    tally gets copies, so a tally the caller keeps does not keep them."""
    lengths = np.repeat([seq_len for seq_len, _ in run], [len(n_chunk) for _, n_chunk in run])
    masked = masked_chunk = np.zeros(0, dtype=np.int64)
    if len(lengths):
        masked, masked_chunk = lim_counts(np.concatenate([n_chunk for _, n_chunk in run]), lengths, config, start)
    end = 0
    for seq_len, n_chunk in run:
        begin, end = end, end + len(n_chunk)
        yield MaskTally(np.full(len(n_chunk), seq_len), n_chunk, masked[begin:end].copy(), masked_chunk[begin:end].copy())


def empirical_mask_report(tallies: Iterable[MaskTally], config: MaskingConfig) -> MaskProbReport:
    """Estimate p(masked | flag) from per-sequence counts masked with
    ``config``, and compare it with what ``config`` expects: ``mask_prob``
    under ``mlm`` (whatever ``p_nc`` it carries), the law under ``lim``. A
    corpus with no flagged tokens reports the conditional as undefined
    (None), never as 0, and under ``lim`` its expectation too.
    """
    # Per sequence (k1, a1, k0, a0): chunk-flagged tokens and how many of
    # them are masked, then the same for unflagged tokens. The sums across
    # tallies are object arrays, which add each int64 term as a Python int,
    # so they stay exact at any corpus size, where a fixed-width accumulator
    # would wrap silently.
    n_sequences = 0
    sums, products = np.zeros(4, dtype=object), np.zeros((4, 4), dtype=object)
    for tally in tallies:
        k1, a1 = tally.chunk.astype(np.int64), tally.masked_chunk.astype(np.int64)
        counts = np.stack([k1, a1, tally.lengths - k1, tally.masked - a1])
        masked, flagged = counts[1::2], counts[::2]
        if (masked < 0).any() or (masked > flagged).any():
            raise ValueError("masked counts exceed their flag counts")
        # Every count now lies in [0, length], so one tally's sums of
        # products are at most rows * max(length)**2; past int64 they are
        # taken over Python ints.
        rows = counts.shape[1]
        if rows and rows * int(tally.lengths.max()) ** 2 >= 2**63:
            counts = counts.astype(object)
        n_sequences += rows
        sums += counts.sum(axis=1)
        products += counts @ counts.T

    if n_sequences == 0:
        raise ValueError("empty example stream")

    y1_slots, masked_y1, y0_slots, masked_y0 = sums
    n_tokens = y1_slots + y0_slots
    p_y1 = y1_slots / n_tokens
    p1, se1 = _ratio_and_se(masked_y1, y1_slots, products[1, 1], products[0, 0], products[1, 0])
    p0, se0 = _ratio_and_se(masked_y0, y0_slots, products[3, 3], products[2, 2], products[3, 2])

    expected: float | None = config.mask_prob
    if config.strategy == "lim":
        expected = _law(config.mask_prob, config.p_nc, p_y1) if p_y1 > 0 else None
    abs_error = abs(p1 - expected) if p1 is not None and expected is not None else None

    return MaskProbReport(
        n_sequences=n_sequences,
        n_tokens=n_tokens,
        p_y1=p_y1,
        p_mask_given_y1=p1,
        p_mask_given_y0=p0,
        expected_p_mask_given_y1=expected,
        abs_error=abs_error,
        se_mask_given_y1=se1,
        se_mask_given_y0=se0,
    )


@dataclass
class KsResult:
    """Two-sample Kolmogorov-Smirnov statistic and asymptotic p-value."""

    d_statistic: float
    p_value: float
    n1: int
    n2: int


def ks_two_sample(sample_a: Sequence[float], sample_b: Sequence[float]) -> KsResult:
    """Two-sample KS test: ``ks_from_counts`` on the samples' value counts."""
    return ks_from_counts(Counter(sample_a), Counter(sample_b))


def ks_from_counts(counts_a: Mapping[float, int], counts_b: Mapping[float, int]) -> KsResult:
    """Exact D of the two samples given as value -> count tables; asymptotic
    p-value.

    D is the largest ECDF difference over the distinct values of the pooled
    sample, taken by one scan of the sorted union of the keys with running
    counts, so ties need no special case and memory grows with the distinct
    values, not with the counts. The p-value uses the Kolmogorov survival
    series Q(lambda) = 2 sum_{k>=1} (-1)^(k-1) exp(-2 k^2 lambda^2), truncated
    at k = 100, with lambda = (sqrt(n_e) + 0.12 + 0.11 / sqrt(n_e)) D and
    n_e = n1 n2 / (n1 + n2).
    """
    if min(counts_a.values(), default=0) < 0 or min(counts_b.values(), default=0) < 0:
        raise ValueError("counts must be non-negative")
    n1, n2 = sum(counts_a.values()), sum(counts_b.values())
    if n1 == 0 or n2 == 0:
        raise ValueError("both samples must be non-empty")
    i = j = 0
    d = 0.0
    for value in sorted(counts_a.keys() | counts_b.keys()):
        i += counts_a.get(value, 0)
        j += counts_b.get(value, 0)
        diff = abs(i / n1 - j / n2)
        if diff > d:
            d = diff
    n_e = n1 * n2 / (n1 + n2)
    lam = (math.sqrt(n_e) + 0.12 + 0.11 / math.sqrt(n_e)) * d
    if lam <= 0.0:
        p_value = 1.0
    else:
        series = sum(
            (-1.0) ** (k - 1) * math.exp(-2.0 * k * k * lam * lam)
            for k in range(1, 101)
        )
        p_value = min(1.0, max(0.0, 2.0 * series))
    return KsResult(d_statistic=d, p_value=p_value, n1=n1, n2=n2)


_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_SPLITMIX_M1, _SPLITMIX_M2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)


def _splitmix64(states: np.ndarray) -> np.ndarray:
    """SplitMix64's output function (Steele, Lea & Flood, OOPSLA 2014, "Fast
    splittable pseudorandom number generators"), applied in place to a uint64
    array of states. The generator seeded with ``seed`` outputs the hash of
    ``seed + k * 0x9E3779B97F4A7C15`` (mod 2**64) as its ``k``-th value.
    Array arithmetic wraps silently, where numpy scalars would warn. The
    three shifts share one scratch array."""
    shifted = np.empty_like(states)
    states ^= np.right_shift(states, np.uint64(30), out=shifted)
    states *= _SPLITMIX_M1
    states ^= np.right_shift(states, np.uint64(27), out=shifted)
    states *= _SPLITMIX_M2
    states ^= np.right_shift(states, np.uint64(31), out=shifted)
    return states


def flagged_sequences(
    n_sequences: int,
    seq_len: int = 128,
    p_y1: float = 0.507,
    seed: int = 0,
) -> Iterator[np.ndarray]:
    """Synthetic corpus of iid Bernoulli chunk flags, in blocks of ``BLOCK``
    sequences: (rows, seq_len) boolean arrays, so memory stays flat at any
    corpus size. Masking-probability statistics depend only on the flags.

    Each SplitMix64 value from ``seed`` gives two flags of the corpus
    (row-major): flag ``2k`` is set when the low 32 bits of the ``k + 1``-th
    value are below ``round(p_y1 * 2**32)``, and flag ``2k + 1`` when its
    high 32 bits are, so a shorter corpus is a prefix of a longer one.
    """
    if n_sequences < 1:
        raise ValueError(f"n_sequences must be >= 1, got {n_sequences}")
    if seq_len < 1:
        raise ValueError(f"seq_len must be >= 1, got {seq_len}")
    if not 0.0 <= p_y1 <= 1.0:
        raise ValueError(f"p_y1 must be in [0, 1], got {p_y1}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if seed >= 2**64:
        raise ValueError(f"seed must be < 2**64, got {seed}")
    threshold = round(p_y1 * 2**32)
    if threshold < 2**32:
        below, limit = np.less, np.uint32(threshold)
    else:  # 2**32 fits no uint32, and every word is at most 2**32 - 1
        below, limit = np.less_equal, np.uint32(2**32 - 1)
    # k * gamma for the k of a block's states, half as many as its flags;
    # each block adds its own start, and one buffer (128 KB at 128-piece
    # rows) holds its states, hashed in place. A block starts on an even
    # flag, since BLOCK is even, so its first state yields its first two
    # flags. The little-endian view puts each value's low word first.
    states_per_block = (min(BLOCK, n_sequences) * seq_len + 1) // 2
    steps = np.arange(1, states_per_block + 1, dtype=np.uint64) * np.uint64(_SPLITMIX_GAMMA)
    states = np.empty_like(steps)
    for emitted in range(0, n_sequences, BLOCK):
        size = min(BLOCK, n_sequences - emitted) * seq_len
        n = (size + 1) // 2
        start = np.uint64((seed + emitted * seq_len // 2 * _SPLITMIX_GAMMA) % 2**64)
        words = _splitmix64(np.add(steps[:n], start, out=states[:n])).astype("<u8", copy=False).view("<u4")
        flags = np.empty(size, dtype=bool)
        below(words[:size], limit, out=flags)
        yield flags.reshape(-1, seq_len)
