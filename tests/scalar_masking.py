"""The per-sequence scalar sampler of example format 1, kept as an oracle of
the draw distribution for the block sampler in ``lingmask.masking``, a
per-piece encoder kept as an oracle of ``masking.sequence_from_annotated``,
and a converter from (example, flags) pairs to the counts of
``lingmask.stats.empirical_mask_report``."""

import random

import numpy as np

from lingmask.chunker import AnnotatedSentence
from lingmask.masking import MASK_FRAC, RANDOM_FRAC, MaskedExample, MaskingConfig, TokenizedSequence
from lingmask.stats import MaskTally
from lingmask.subword import Vocabulary, encode_word


def sequence_from_annotated(
    sent: AnnotatedSentence, vocab: Vocabulary, max_seq_len: int, doc_id: str = ""
) -> TokenizedSequence:
    """Each piece of each word looked up with ``vocab.id_of`` and given its
    word's flag, cut at ``max_seq_len`` pieces."""
    piece_ids: list[int] = []
    flags: list[bool] = []
    for token, flag in zip(sent.tokens, sent.y):
        for piece in encode_word(token.surface, vocab):
            piece_ids.append(vocab.id_of(piece))
            flags.append(flag)
    return TokenizedSequence(pieces=piece_ids[:max_seq_len], y=flags[:max_seq_len], doc_id=doc_id)


def select_mask_count(seq_len: int, config: MaskingConfig) -> int:
    """round(mask_prob * length), at least one, capped at max_pred."""
    if seq_len < 1:
        raise ValueError(f"seq_len must be >= 1, got {seq_len}")
    return min(config.max_pred, max(1, int(round(config.mask_prob * seq_len))))


def build_example(seq: TokenizedSequence, config: MaskingConfig, rng: random.Random) -> MaskedExample:
    """Branch coin (lim only), position sample, then one replacement draw per
    position in ascending order."""
    n_pieces = len(seq.pieces)
    if n_pieces == 0:
        raise ValueError("cannot mask an empty sequence")
    if config.strategy == "lim":
        pool_nc = [k for k, flag in enumerate(seq.y) if flag]
        pool_non = [k for k, flag in enumerate(seq.y) if not flag]
        if rng.random() < config.p_nc:
            pool, branch = pool_nc, "nc"
        else:
            pool, branch = pool_non, "non_nc"
        if not pool:
            pool, branch = (pool_non, "non_nc") if branch == "nc" else (pool_nc, "nc")
    else:
        pool, branch = range(n_pieces), "n/a"
    count = min(select_mask_count(n_pieces, config), len(pool))
    positions = sorted(rng.sample(pool, count))
    input_ids = list(seq.pieces)
    for position in positions:
        draw = rng.random()
        if draw < MASK_FRAC:
            input_ids[position] = config.mask_piece_id
        elif draw < MASK_FRAC + RANDOM_FRAC:
            input_ids[position] = rng.randrange(config.vocab_size)
    return MaskedExample(
        input_ids=input_ids,
        masked_positions=positions,
        labels=[seq.pieces[p] for p in positions],
        branch=branch,
        doc_id=seq.doc_id,
    )


def tally_pairs(pairs) -> list[MaskTally]:
    """One ``MaskTally`` holding every (example, per-position flags) pair."""
    rows = []
    for example, flags in pairs:
        if len(flags) != len(example.input_ids):
            raise ValueError("flags must align with example input ids")
        positions = example.masked_positions
        rows.append((len(flags), sum(flags), len(positions), sum(1 for p in positions if flags[p])))
    return [MaskTally(*(np.array(column) for column in zip(*rows)))] if rows else []
