"""Subword encoding against a fixed vocabulary, plus split-ratio statistics.

Words are encoded with greedy longest-match-first lookup: the first piece of a
word carries no marker, every following piece carries the continuation prefix
``##`` (``CONTINUATION_PREFIX``), and a word with no complete decomposition
becomes the unknown piece ``[UNK]`` (``UNK_PIECE``). The split ratio of a
sentence is the number of emitted pieces divided by the number of
whitespace-separated words; 1.0 means the vocabulary covers every word in
full.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable


CONTINUATION_PREFIX = "##"
UNK_PIECE = "[UNK]"


@dataclass
class Vocabulary:
    """An ordered piece inventory; piece ids are list positions."""

    pieces: list[str]
    unk_piece = UNK_PIECE  # not a field; perfbench/tracer.py reads it
    _piece_to_id: dict[str, int] = field(init=False, repr=False, compare=False)
    _max_body_chars: int = field(init=False, repr=False, compare=False)
    _word_pieces: dict[str, tuple[str, ...]] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        if not self.pieces:
            raise ValueError("vocabulary is empty")
        self._piece_to_id = {}
        for i, piece in enumerate(self.pieces):
            if piece in self._piece_to_id:
                raise ValueError(f"duplicate piece: {piece}")
            self._piece_to_id[piece] = i
        if UNK_PIECE not in self._piece_to_id:
            raise ValueError(f"vocabulary has no unknown piece {UNK_PIECE!r}")
        cp = CONTINUATION_PREFIX
        self._max_body_chars = max(
            len(p) - len(cp) if p.startswith(cp) and len(p) > len(cp) else len(p)
            for p in self.pieces
        )

    @property
    def size(self) -> int:
        return len(self.pieces)

    def __contains__(self, piece: str) -> bool:
        return piece in self._piece_to_id

    def id_of(self, piece: str) -> int:
        try:
            return self._piece_to_id[piece]
        except KeyError:
            raise ValueError(f"piece not in vocabulary: {piece!r}") from None


def load_vocab(path: str) -> Vocabulary:
    """Load a one-piece-per-line vocabulary file; line order assigns ids."""
    pieces: list[str] = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            piece = line.strip()
            if not piece:
                raise ValueError(f"empty piece at line {lineno}")
            pieces.append(piece)
    if not pieces:
        raise ValueError(f"empty vocabulary file: {path}")
    return Vocabulary(pieces)


def encode_word(word: str, vocab: Vocabulary) -> list[str]:
    """Encode one word with greedy longest-match-first lookup.

    Returns ``[UNK_PIECE]`` when no complete decomposition exists; otherwise
    stripping continuation prefixes and concatenating reproduces the word.

    The pieces of each distinct word are memoized on ``vocab`` (the memo
    grows with the number of distinct words encoded), so the lookup and the
    whitespace check run once per distinct word; every call returns a fresh
    list. The memo holds the vocabulary's own piece strings, so it adds one
    tuple per distinct word and no piece text. A rejected word is not
    memoized and raises on every call.
    """
    pieces = vocab._word_pieces.get(word)
    if pieces is None:
        pieces = vocab._word_pieces[word] = tuple(_greedy_pieces(word, vocab))
    return list(pieces)


def _greedy_pieces(word: str, vocab: Vocabulary) -> list[str]:
    if not word or any(ch.isspace() for ch in word):
        raise ValueError(f"word must be non-empty and whitespace-free: {word!r}")
    pieces: list[str] = []
    start = 0
    n = len(word)
    while start < n:
        prefix = CONTINUATION_PREFIX if start else ""
        end = min(n, start + vocab._max_body_chars)
        piece_id = None
        while end > start:
            piece_id = vocab._piece_to_id.get(prefix + word[start:end])
            if piece_id is not None:
                break
            end -= 1
        if piece_id is None:
            return [UNK_PIECE]
        pieces.append(vocab.pieces[piece_id])  # the vocabulary's own string
        start = end
    return pieces


@dataclass
class Encoding:
    """Subword encoding of one sentence."""

    pieces: list[str]
    word_count: int
    split_ratio: float


def encode_sentence(sentence: str, vocab: Vocabulary) -> Encoding:
    """Encode a whitespace-tokenized sentence word by word."""
    words = sentence.split()
    if not words:
        raise ValueError("cannot encode an empty sentence")
    pieces: list[str] = []
    for word in words:
        pieces.extend(encode_word(word, vocab))
    return Encoding(
        pieces=pieces,
        word_count=len(words),
        split_ratio=len(pieces) / len(words),
    )


@dataclass
class SplitRatioStats:
    """Corpus-level encoding statistics."""

    mean_split_ratio: float
    encoding_hist: dict[int, int]
    word_hist: dict[int, int]


def corpus_split_stats(sentences: Iterable[str], vocab: Vocabulary) -> SplitRatioStats:
    """Mean per-sentence split ratio and integer length histograms."""
    ratio_sum = 0.0
    n = 0
    encoding_hist: Counter[int] = Counter()
    word_hist: Counter[int] = Counter()
    for sentence in sentences:
        encoding = encode_sentence(sentence, vocab)
        ratio_sum += encoding.split_ratio
        encoding_hist[len(encoding.pieces)] += 1
        word_hist[encoding.word_count] += 1
        n += 1
    if n == 0:
        raise ValueError("empty sentence stream")
    return SplitRatioStats(
        mean_split_ratio=ratio_sum / n,
        encoding_hist=dict(sorted(encoding_hist.items())),
        word_hist=dict(sorted(word_hist.items())),
    )
