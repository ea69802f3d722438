"""Noun-chunk annotations of POS-tagged sentences and chunk-length statistics.

Chunk spans come from an external annotation file (one token per line,
``surface<TAB>pos<TAB>chunk_id``, blank line between sentences). Per-token
membership flags are derived from the spans.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Iterator

UPOS_TAGS = frozenset(
    {
        "ADJ", "ADP", "ADV", "AUX", "CCONJ", "DET", "INTJ", "NOUN", "NUM",
        "PART", "PRON", "PROPN", "PUNCT", "SCONJ", "SYM", "VERB", "X",
    }
)

DEFAULT_MAX_CHUNK_LEN = 10


@dataclass(frozen=True, slots=True)
class AnnotatedToken:
    surface: str
    pos: str

    def __post_init__(self) -> None:
        if not self.surface:
            raise ValueError("token surface must be non-empty")
        if self.pos not in UPOS_TAGS:
            raise ValueError(f"unknown POS tag: {self.pos!r}")


def spans_to_flags(spans: list[tuple[int, int]], n_tokens: int) -> list[bool]:
    """Expand half-open chunk spans into per-token membership flags."""
    flags = [False] * n_tokens
    for start, end in spans:
        for k in range(start, end):
            flags[k] = True
    return flags


@dataclass
class AnnotatedSentence:
    """POS-tagged tokens with chunk spans and derived membership flags."""

    tokens: list[AnnotatedToken]
    chunk_spans: list[tuple[int, int]]
    y: list[bool] = field(init=False)

    def __post_init__(self) -> None:
        n = len(self.tokens)
        prev_end = 0
        for start, end in self.chunk_spans:
            if start < 0 or end > n or start >= end:
                raise ValueError(f"span out of bounds: [{start}, {end}) over {n} tokens")
            if start < prev_end:
                raise ValueError(f"overlapping spans at [{start}, {end})")
            prev_end = end
        self.y = spans_to_flags(self.chunk_spans, n)


# Each POS tag as one shared string, so every token of a tag holds the same one.
_POS = {tag: tag for tag in UPOS_TAGS}
_UNSEEN = object()  # a chunk column not yet seen; None is the chunk id of "-"
# A chunk column other than "-": ASCII digits with no leading zero, so that
# each id has one spelling. Unlike with a bare int(), "1_0", " 3", "+3",
# "٣", "03", "00" and "-0" are not read as the ids of "10", "3" and "0".
_CHUNK_ID = re.compile(r"0|-?[1-9][0-9]*")


def parse_annotations(path: str, warn_counter: Counter) -> Iterator[AnnotatedSentence]:
    """Stream annotated sentences from a TSV annotation file.

    ``chunk_id`` is ``-`` for tokens outside any chunk and a per-sentence
    integer (ASCII digits with no leading zero, an optional leading ``-``
    before a non-zero one) shared by all tokens of one chunk; a chunk's
    tokens must be contiguous. A token surface holds no whitespace. Unknown
    POS tags are mapped to X and counted in ``warn_counter``, by tag, at
    every line that has one; the caller reports the counts.

    A line is looked up by its two parts, split at its last tab: the head
    (``surface<TAB>pos``) maps to its shared, frozen token and the chunk
    column to its chunk id. Only a valid line caches its parts, so a line
    whose parts are both cached is valid, and costs one split and two
    dictionary lookups; any other line is validated in full. The memo holds
    one token per distinct (surface, POS) and one id per distinct chunk
    column, so it grows with the vocabulary, not with the lines. Tokens,
    flags and spans are built in the same pass. Errors still name the first
    offending line.
    """
    heads: dict[str, AnnotatedToken] = {}  # "surface\tPOS" -> token
    unknown_tags: dict[str, str] = {}  # head whose POS tag is unknown -> that tag
    chunk_ids: dict[str, int | None] = {}  # chunk column, newline kept -> chunk id
    tokens: list[AnnotatedToken] = []
    flags: list[bool] = []
    spans: list[tuple[int, int]] = []
    seen: set[int] = set()  # chunk ids opened in this sentence
    open_id: int | None = None  # chunk of the previous line
    start = 0  # where the open chunk starts
    broken: int | None = None  # first chunk id found not contiguous
    with open(path, encoding="utf-8") as handle:
        # One more blank line ends the last sentence at the line after the file.
        for lineno, line in enumerate(chain(handle, ["\n"]), start=1):
            head, _, column = line.rpartition("\t")
            token = heads.get(head)
            cid = chunk_ids.get(column, _UNSEEN)
            if token is None or cid is _UNSEEN:
                if line.strip():
                    token, cid = _parse_line(line, lineno, heads, unknown_tags, chunk_ids)
                else:
                    token = cid = None
            if cid != open_id:
                if open_id is not None:
                    spans.append((start, len(tokens)))
                if cid is not None:
                    if cid in seen and broken is None:
                        broken = cid
                    seen.add(cid)
                    start = len(tokens)
                open_id = cid
            if token is None:
                if tokens:
                    if broken is not None:
                        raise ValueError(
                            f"chunk id {broken} not contiguous in sentence ending at line {lineno}"
                        )
                    # The spans were built in order from contiguous chunks and
                    # flags is their expansion, so skip re-checking them.
                    sentence = object.__new__(AnnotatedSentence)
                    sentence.tokens, sentence.chunk_spans, sentence.y = tokens, spans, flags
                    yield sentence
                    tokens, flags, spans, seen = [], [], [], set()
                continue
            if token.pos == "X" and head in unknown_tags:
                warn_counter[unknown_tags[head]] += 1
            tokens.append(token)
            flags.append(cid is not None)


def _parse_line(
    line: str,
    lineno: int,
    heads: dict[str, AnnotatedToken],
    unknown_tags: dict[str, str],
    chunk_ids: dict[str, int | None],
) -> tuple[AnnotatedToken, int | None]:
    """Validate one non-blank annotation line into its token and chunk id,
    and cache its head and chunk column for the lines that repeat them.

    The token is the one cached under ``surface<TAB>pos`` (pos after mapping
    an unknown tag to X), or is made and cached there.
    """
    columns = line.rstrip("\n").split("\t")
    if len(columns) != 3:
        raise ValueError(
            f"expected 3 tab-separated columns at line {lineno}, got {len(columns)}"
        )
    surface, tag, chunk_field = columns
    if not surface:
        raise ValueError(f"empty token surface at line {lineno}")
    if any(ch.isspace() for ch in surface):
        raise ValueError(f"whitespace in token surface at line {lineno}")
    if chunk_field == "-":
        cid: int | None = None
    elif _CHUNK_ID.fullmatch(chunk_field):
        cid = int(chunk_field)
    else:
        raise ValueError(f"invalid chunk id {chunk_field!r} at line {lineno}")
    head, _, column = line.rpartition("\t")
    pos = _POS.get(tag)
    if pos is None:
        unknown_tags[head] = tag
        pos = _POS["X"]
    key = f"{surface}\t{pos}"
    token = heads.get(key)
    if token is None:
        token = heads[key] = AnnotatedToken(surface, pos)
    heads[head] = token
    chunk_ids[column] = cid
    return token, cid


@dataclass
class ChunkStats:
    """Distribution of (length-filtered) chunk lengths plus token-level stats."""

    histogram: dict[int, int]
    mean: float
    sd: float
    token_nc_prob: float


def chunk_stats(
    corpus: Iterable[AnnotatedSentence], max_chunk_len: int = DEFAULT_MAX_CHUNK_LEN
) -> ChunkStats:
    """Aggregate chunk-length and token-membership statistics over a corpus.

    The histogram, mean, and population sd cover chunks of at most
    ``max_chunk_len`` tokens; ``token_nc_prob`` is the fraction of all tokens
    carrying a chunk flag.
    """
    if max_chunk_len < 1:
        raise ValueError(f"max_chunk_len must be >= 1, got {max_chunk_len}")
    length_counts: Counter[int] = Counter()
    n_tokens = 0
    n_chunk_tokens = 0
    for sentence in corpus:
        n_tokens += len(sentence.tokens)
        n_chunk_tokens += sum(sentence.y)
        for start, end in sentence.chunk_spans:
            if end - start <= max_chunk_len:
                length_counts[end - start] += 1
    if n_tokens == 0:
        raise ValueError("empty corpus: no tokens seen")
    total = sum(length_counts.values())
    if total:
        mean = sum(l * c for l, c in length_counts.items()) / total
        var = sum(c * (l - mean) ** 2 for l, c in length_counts.items()) / total
    else:
        mean = 0.0
        var = 0.0
    return ChunkStats(
        histogram=dict(sorted(length_counts.items())),
        mean=mean,
        sd=math.sqrt(var),
        token_nc_prob=n_chunk_tokens / n_tokens,
    )
