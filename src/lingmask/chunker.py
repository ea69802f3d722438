"""Noun-chunk detection over POS-tagged sentences and chunk-length statistics.

Chunk spans either come from an external annotation file (one token per line,
``surface<TAB>pos<TAB>chunk_id``, blank line between sentences) or from the
built-in rule grammar. A noun chunk is the maximal token sequence matching

    DET? (ADJ | NUM | NOUN | PROPN | PUNCT-between-two-nominals)* (NOUN | PROPN)

so every chunk ends in a noun or proper noun and never contains a verb.
Per-token membership flags are derived from the spans.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator

log = logging.getLogger(__name__)

UPOS_TAGS = frozenset(
    {
        "ADJ", "ADP", "ADV", "AUX", "CCONJ", "DET", "INTJ", "NOUN", "NUM",
        "PART", "PRON", "PROPN", "PUNCT", "SCONJ", "SYM", "VERB", "X",
    }
)

_NOMINAL = frozenset({"NOUN", "PROPN"})
_CHUNK_BODY = frozenset({"ADJ", "NUM", "NOUN", "PROPN"})

DEFAULT_MAX_CHUNK_LEN = 10


@dataclass(frozen=True)
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


def extract_noun_chunks(tokens: list[AnnotatedToken]) -> list[tuple[int, int]]:
    """Find maximal noun-chunk spans with the rule grammar.

    Spans are disjoint, sorted, and each ends at its last nominal token.
    Punctuation is absorbed only between two nominals (hyphenated compounds).
    """
    if not tokens:
        raise ValueError("tokens must be non-empty")
    pos = [t.pos for t in tokens]
    n = len(pos)
    spans: list[tuple[int, int]] = []
    i = 0
    while i < n:
        start = i
        k = i + 1 if pos[i] == "DET" else i
        last_nominal = -1
        while k < n:
            if pos[k] in _CHUNK_BODY:
                if pos[k] in _NOMINAL:
                    last_nominal = k
                k += 1
            elif (
                pos[k] == "PUNCT"
                and k > start
                and k + 1 < n
                and pos[k - 1] in _NOMINAL
                and pos[k + 1] in _NOMINAL
            ):
                k += 1
            else:
                break
        if last_nominal >= 0:
            spans.append((start, last_nominal + 1))
            i = last_nominal + 1
        else:
            i = start + 1
    return spans


def filter_chunks(
    spans: list[tuple[int, int]], max_len: int = DEFAULT_MAX_CHUNK_LEN
) -> list[tuple[int, int]]:
    """Drop spans longer than ``max_len`` tokens, preserving order."""
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    return [(s, e) for s, e in spans if e - s <= max_len]


def sentence_from_tokens(tokens: list[AnnotatedToken]) -> AnnotatedSentence:
    """Annotate a token list with the built-in rule chunker."""
    return AnnotatedSentence(tokens=tokens, chunk_spans=extract_noun_chunks(tokens))


# One validated annotation line: token, chunk id, and the unknown POS tag it
# carried (None when the tag is a known one).
_LineEntry = tuple[AnnotatedToken, int | None, str | None]


def parse_annotations(
    path: str, warn_counter: Counter | None = None
) -> Iterator[AnnotatedSentence]:
    """Stream annotated sentences from a TSV annotation file.

    ``chunk_id`` is ``-`` for tokens outside any chunk and a per-sentence
    integer shared by all tokens of one chunk; a chunk's tokens must be
    contiguous. Unknown POS tags are mapped to X and counted in
    ``warn_counter`` when given; without a counter, each is logged.

    Each distinct raw line is split, validated and converted once per call;
    later occurrences reuse its (frozen) token and chunk id, so sentences share
    token objects and a repeated line costs one dictionary lookup. Lines that
    differ only in their chunk id share one token too, so the memo holds one
    token per distinct (surface, POS) and one small entry per distinct line.
    Errors still name the first offending line, and unknown tags are counted
    or logged on every occurrence.
    """
    memo: dict[str, _LineEntry] = {}  # raw line -> its entry
    tokens: dict[tuple[str, str], AnnotatedToken] = {}  # (surface, POS) -> token
    entries: list[_LineEntry] = []
    lineno = 0
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            entry = memo.get(line)
            if entry is None:
                if not line.strip():
                    if entries:
                        yield _sentence(entries, lineno)
                        entries = []
                    continue
                entry = memo[line] = _parse_line(line, lineno, tokens)
            if entry[2] is not None:
                if warn_counter is not None:
                    warn_counter[entry[2]] += 1
                else:
                    log.warning("unknown POS tag %r at line %d mapped to X", entry[2], lineno)
            entries.append(entry)
    if entries:
        yield _sentence(entries, lineno + 1)


def _sentence(entries: list[_LineEntry], lineno: int) -> AnnotatedSentence:
    """Build one sentence from its line entries; ``lineno`` is the line after it."""
    spans: list[tuple[int, int]] = []
    open_id: int | None = None
    start = 0
    seen: set[int] = set()
    for k, (_, cid, _) in enumerate(entries):
        if cid != open_id:
            if open_id is not None:
                spans.append((start, k))
            if cid is not None:
                if cid in seen:
                    raise ValueError(
                        f"chunk id {cid} not contiguous in sentence ending at line {lineno}"
                    )
                seen.add(cid)
                start = k
            open_id = cid
    if open_id is not None:
        spans.append((start, len(entries)))
    return AnnotatedSentence(tokens=[entry[0] for entry in entries], chunk_spans=spans)


def _parse_line(
    line: str, lineno: int, tokens: dict[tuple[str, str], AnnotatedToken]
) -> _LineEntry:
    """Validate one non-blank annotation line into (token, chunk id, unknown tag).

    The token is taken from ``tokens`` by (surface, POS), or made and added.
    """
    columns = line.rstrip("\n").split("\t")
    if len(columns) != 3:
        raise ValueError(
            f"expected 3 tab-separated columns at line {lineno}, got {len(columns)}"
        )
    surface, pos, chunk_field = columns
    if not surface:
        raise ValueError(f"empty token surface at line {lineno}")
    unknown = None
    if pos not in UPOS_TAGS:
        unknown, pos = pos, "X"
    if chunk_field == "-":
        cid: int | None = None
    else:
        try:
            cid = int(chunk_field)
        except ValueError as exc:
            raise ValueError(
                f"invalid chunk id {chunk_field!r} at line {lineno}"
            ) from exc
    token = tokens.get((surface, pos))
    if token is None:
        token = tokens[surface, pos] = AnnotatedToken(surface, pos)
    return token, cid, unknown


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
        for start, end in filter_chunks(sentence.chunk_spans, max_chunk_len):
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
