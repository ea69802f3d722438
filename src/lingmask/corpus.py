"""Document ingestion, text normalization, and sentence splitting.

Raw documents (patent sections or any technical text) are cleaned by
collapsing whitespace and removing formula spans, then split into sentences
with a small deterministic rule set. All functions here are pure, so document
streams can be processed by any number of workers and reassembled by id.

Input formats:
  * JSONL: one object per line, UTF-8, fields ``id`` (required), ``text``
    (required), ``section`` (optional, defaults to "other").
  * TSV: two tab-separated columns, ``id`` and ``text``, no header.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Iterator

SECTIONS = frozenset({"title", "abstract", "claims", "description", "other"})

# Characters that mark a token as formula-like when adjacent to a digit or
# another non-alphanumeric character.
_FORMULA_OPERATORS = frozenset("=∑∫^")

_DOLLAR_SPAN = re.compile(r"\$[^$]*\$")


@dataclass
class RawDocument:
    """One raw input document: opaque id, text, and source section."""

    id: str
    text: str
    section: str = "other"

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("document id must be non-empty")
        if self.section not in SECTIONS:
            raise ValueError(f"unknown section: {self.section!r}")


@dataclass
class CleanDocument:
    """A normalized document as an ordered list of sentences."""

    id: str
    sentences: list[str] = field(default_factory=list)


def _is_formula_token(token: str) -> bool:
    """Apply the token-level formula heuristics.

    A whitespace-delimited token is treated as a formula fragment when it
    contains one of ``= sum-sign integral-sign ^`` directly adjacent to a digit
    or a non-alphanumeric character, or when more than half of its characters
    are non-alphanumeric. String methods decide the second rule first, so only
    tokens that hold an operator reach the per-character loop.
    """
    if token.isalnum():
        return False
    if (len(token) - sum(map(str.isalnum, token))) * 2 > len(token):
        return True
    if _FORMULA_OPERATORS.isdisjoint(token):
        return False
    for i, ch in enumerate(token):
        if ch not in _FORMULA_OPERATORS:
            continue
        for j in (i - 1, i + 1):
            if 0 <= j < len(token):
                neighbor = token[j]
                if neighbor.isdigit() or not neighbor.isalnum():
                    return True
    return False


def normalize_text(raw: str) -> str:
    """Clean one text: drop formula spans, collapse whitespace.

    ``$...$`` spans are removed first (non-overlapping, paired left to right,
    replaced by a space so unrelated fragments never merge). The text is then
    whitespace-split, formula-like tokens are dropped, and the remainder is
    re-joined with single spaces. Total and idempotent; never increases the
    character count.
    """
    text = _DOLLAR_SPAN.sub(" ", raw)
    kept = [tok for tok in text.split() if not _is_formula_token(tok)]
    return " ".join(kept)


# Terminators are not sentence boundaries when the text so far ends in one of
# these abbreviations.
_ABBREVIATIONS = ("Fig.", "No.", "e.g.", "i.e.", "et al.", "U.S.")

# A terminator followed by a space: the only places a boundary can be.
_CANDIDATE = re.compile(r"[.!?] ")


def split_sentences(clean: str) -> list[str]:
    """Split normalized text into sentences.

    A boundary is a ``. ! ?`` followed by a space and an uppercase letter,
    unless the text up to the terminator ends with a known abbreviation.
    Joining the result with single spaces reconstructs the input exactly.
    """
    sentences: list[str] = []
    start = 0
    for match in _CANDIDATE.finditer(clean):
        i = match.start()
        if i + 2 >= len(clean) or not clean[i + 2].isupper():
            continue
        prefix = clean[start : i + 1]
        if prefix.endswith(_ABBREVIATIONS):
            continue
        sentences.append(prefix)
        start = i + 2
    tail = clean[start:]
    if tail:
        sentences.append(tail)
    return sentences


def clean_document(doc: RawDocument) -> CleanDocument:
    """Normalize one raw document and split it into sentences."""
    return CleanDocument(id=doc.id, sentences=split_sentences(normalize_text(doc.text)))


def _jsonl_documents(path: str) -> Iterator[RawDocument]:
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"malformed record at line {lineno}: {exc}") from exc
            if not isinstance(record, dict):
                raise ValueError(f"malformed record at line {lineno}: not an object")
            for name in ("id", "text"):
                if not isinstance(record.get(name), str) or (
                    name == "id" and not record[name]
                ):
                    if name not in record:
                        raise ValueError(f"missing field: {name} at line {lineno}")
                    raise ValueError(f"invalid field: {name} at line {lineno}")
            section = record.get("section", "other")
            if not isinstance(section, str) or section.lower() not in SECTIONS:
                section = "other"
            else:
                section = section.lower()
            yield RawDocument(id=record["id"], text=record["text"], section=section)


def _tsv_documents(path: str) -> Iterator[RawDocument]:
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            columns = line.rstrip("\n").split("\t")
            if len(columns) != 2:
                raise ValueError(
                    f"expected 2 tab-separated columns at line {lineno}, got {len(columns)}"
                )
            doc_id, text = columns
            if not doc_id:
                raise ValueError(f"missing field: id at line {lineno}")
            yield RawDocument(id=doc_id, text=text)


def ingest_documents(path: str, format: str = "jsonl") -> Iterator[RawDocument]:
    """Stream documents from ``path`` in file order.

    Malformed records raise ValueError naming the offending line.
    """
    if format == "jsonl":
        return _jsonl_documents(path)
    if format == "tsv":
        return _tsv_documents(path)
    raise ValueError(f"unknown input format: {format!r}")
