"""Verification machinery: masking-probability algebra and estimators, the
two-sample Kolmogorov-Smirnov test, and synthetic flagged corpora.

The conditional masking law says that when masking is restricted to
chunk-flagged positions with branch probability p_nc, the chance that a given
flagged token gets masked is mask_prob * p_nc / p(y=1); choosing
p_nc = p(y=1) recovers the plain strategy's mask_prob. The empirical report
estimates both conditionals from per-sequence mask counts (``tally_block``
counts them for a block of synthetic sequences, masked by the sampler that
writes pre-training data), so the law can be checked end to end.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .masking import BLOCK, MaskingConfig, Philox, mask_rows


def expected_conditional_mask_prob(mask_prob: float, p_nc: float, p_y1: float) -> float:
    """Analytic p(masked | flagged) = mask_prob * p_nc / p_y1.

    All arguments must lie in (0, 1]. ``p_nc == p_y1`` returns ``mask_prob``
    exactly (the reduction to the plain strategy is an algebraic identity and
    must not pick up float round-off).
    """
    for name, value in (("mask_prob", mask_prob), ("p_nc", p_nc), ("p_y1", p_y1)):
        if not 0.0 < value <= 1.0:
            raise ValueError(f"{name} must be in (0, 1], got {value}")
    if p_nc == p_y1:
        return mask_prob
    result = mask_prob * p_nc / p_y1
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
    """Per-sequence counts of one block: length, chunk-flagged tokens, masked
    tokens and masked chunk-flagged tokens (one array entry per sequence)."""

    lengths: np.ndarray
    chunk: np.ndarray
    masked: np.ndarray
    masked_chunk: np.ndarray


def tally_block(flags: np.ndarray, config: MaskingConfig, rng: Philox) -> MaskTally:
    """Mask a block of full-length flag rows and count it."""
    rows, seq_len = flags.shape
    lengths = np.full(rows, seq_len)
    masked = mask_rows(flags, lengths, config, rng, replacements=False)
    owner = np.repeat(np.arange(rows), masked.counts)
    masked_chunk = np.bincount(owner[flags[owner, masked.positions]], minlength=rows)
    return MaskTally(lengths, np.count_nonzero(flags, axis=1), masked.counts, masked_chunk)


def empirical_mask_report(
    tallies: Iterable[MaskTally],
    mask_prob: float,
    p_nc: float | None = None,
) -> MaskProbReport:
    """Estimate p(masked | flag) from per-sequence counts.

    ``p_nc`` of None means plain masking, whose expected conditional equals
    ``mask_prob``. A corpus with no flagged tokens reports the conditional as
    undefined (None), never as 0.
    """
    n_sequences = n_tokens = y1_slots = masked_y1 = masked_y0 = 0
    s_a1_sq = s_k1_sq = s_a1_k1 = s_a0_sq = s_k0_sq = s_a0_k0 = 0

    for tally in tallies:
        k1, a1 = tally.chunk.astype(np.int64), tally.masked_chunk.astype(np.int64)
        k0, a0 = tally.lengths - k1, tally.masked - a1
        if (a1 < 0).any() or (a1 > k1).any() or (a0 < 0).any() or (a0 > k0).any():
            raise ValueError("masked counts exceed their flag counts")
        n_sequences += len(k1)
        n_tokens += int(tally.lengths.sum())
        y1_slots += int(k1.sum())
        masked_y1 += int(a1.sum())
        masked_y0 += int(a0.sum())
        s_a1_sq += int(a1 @ a1)
        s_k1_sq += int(k1 @ k1)
        s_a1_k1 += int(a1 @ k1)
        s_a0_sq += int(a0 @ a0)
        s_k0_sq += int(k0 @ k0)
        s_a0_k0 += int(a0 @ k0)

    if n_sequences == 0:
        raise ValueError("empty example stream")

    y0_slots = n_tokens - y1_slots
    p_y1 = y1_slots / n_tokens
    p1, se1 = _ratio_and_se(masked_y1, y1_slots, s_a1_sq, s_k1_sq, s_a1_k1)
    p0, se0 = _ratio_and_se(masked_y0, y0_slots, s_a0_sq, s_k0_sq, s_a0_k0)

    if p_nc is None:
        expected: float | None = mask_prob
    elif p_y1 > 0:
        expected = mask_prob if p_nc == p_y1 else mask_prob * p_nc / p_y1
    else:
        expected = None
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
    Array arithmetic wraps silently, where numpy scalars would warn."""
    states ^= states >> np.uint64(30)
    states *= _SPLITMIX_M1
    states ^= states >> np.uint64(27)
    states *= _SPLITMIX_M2
    states ^= states >> np.uint64(31)
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

    Flag ``i`` of the corpus (row-major) is set when the high 32 bits of the
    ``i + 1``-th SplitMix64 value from ``seed`` are below
    ``round(p_y1 * 2**32)``, so a shorter corpus is a prefix of a longer one.
    """
    if n_sequences < 1:
        raise ValueError(f"n_sequences must be >= 1, got {n_sequences}")
    if not 0.0 <= p_y1 <= 1.0:
        raise ValueError(f"p_y1 must be in [0, 1], got {p_y1}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    threshold = round(p_y1 * 2**32)
    # k * gamma for the k of one block's flags; each block adds its own start.
    steps = np.arange(1, min(BLOCK, n_sequences) * seq_len + 1, dtype=np.uint64) * np.uint64(_SPLITMIX_GAMMA)
    for emitted in range(0, n_sequences, BLOCK):
        rows = min(BLOCK, n_sequences - emitted)
        start = np.uint64((seed + emitted * seq_len * _SPLITMIX_GAMMA) % 2**64)
        hashes = _splitmix64(steps[: rows * seq_len] + start)
        yield (hashes >> np.uint64(32) < threshold).reshape(rows, seq_len)
