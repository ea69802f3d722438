"""Chunk-aware masked-LM pre-training data generation and corpus analysis.

The package covers the full desk-scale pipeline: document cleaning, noun-chunk
annotation and statistics, subword encoding with split-ratio analysis, masked
example generation under plain (mlm) and chunk-aware (lim) strategies,
verification of the resulting masking probabilities, downstream dataset
construction from patent records, and a tiny trainable masked-LM head for
end-to-end strategy comparisons.
"""

__version__ = "0.1.0"

from .chunker import AnnotatedSentence, AnnotatedToken, ChunkStats, chunk_stats, extract_noun_chunks
from .corpus import CleanDocument, RawDocument, clean_document, normalize_text, split_sentences
from .masking import MaskedExample, MaskingConfig, TokenizedSequence, build_example, mask_batches, mask_sequences
from .stats import KsResult, MaskProbReport, empirical_mask_report, expected_conditional_mask_prob, ks_from_counts, ks_two_sample, tally_blocks
from .subword import Encoding, Vocabulary, encode_sentence, encode_word, load_vocab

__all__ = [
    "__version__",
    "AnnotatedSentence",
    "AnnotatedToken",
    "ChunkStats",
    "CleanDocument",
    "Encoding",
    "KsResult",
    "MaskProbReport",
    "MaskedExample",
    "MaskingConfig",
    "RawDocument",
    "TokenizedSequence",
    "Vocabulary",
    "build_example",
    "chunk_stats",
    "clean_document",
    "empirical_mask_report",
    "encode_sentence",
    "encode_word",
    "expected_conditional_mask_prob",
    "extract_noun_chunks",
    "ks_from_counts",
    "ks_two_sample",
    "load_vocab",
    "mask_batches",
    "mask_sequences",
    "normalize_text",
    "split_sentences",
    "tally_blocks",
]
