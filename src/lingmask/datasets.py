"""Downstream dataset builders from patent records: subclass classification
examples and citation-based similarity pairs.

Input is JSONL with fields ``pub_number``, ``title``, ``abstract``, ``claims``,
``description``, ``ipc`` (semicolon-joined string or list), and ``citations``
(list of objects with ``pub`` and ``category``). Classification labels are the
4-character subclass level of the classification codes; similarity positives
are X-category citation pairs, the category that marks novelty-defeating
relatedness.
"""

from __future__ import annotations

import json
import logging
import random
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

from .corpus import normalize_text

log = logging.getLogger(__name__)

_SUBCLASS = re.compile(r"^[A-Z]\d{2}[A-Z]")


@dataclass
class Citation:
    cited_pub_number: str
    category: str

    def __post_init__(self) -> None:
        if not isinstance(self.cited_pub_number, str):
            raise ValueError(f"cited pub must be a string: {self.cited_pub_number!r}")
        if len(self.category) != 1:
            raise ValueError(f"citation category must be a single letter: {self.category!r}")


@dataclass
class PatentRecord:
    pub_number: str
    title: str = ""
    abstract: str = ""
    claims: str = ""
    description: str = ""
    ipc_tags: list[str] = field(default_factory=list)
    citations: list[Citation] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not isinstance(self.pub_number, str) or not self.pub_number:
            raise ValueError(f"pub_number must be a non-empty string: {self.pub_number!r}")
        for name in ("title", "abstract", "claims", "description"):
            if not isinstance(getattr(self, name), str):
                raise ValueError(f"{name} must be a string: {getattr(self, name)!r}")


@dataclass
class IpcExample:
    text: str
    label: str

    def __post_init__(self) -> None:
        if not _SUBCLASS.fullmatch(self.label):
            raise ValueError(f"label is not a subclass code: {self.label!r}")


@dataclass
class SimilarityPair:
    text_a: str
    text_b: str
    id_a: str
    id_b: str
    label: bool

    def __post_init__(self) -> None:
        if self.id_a == self.id_b:
            raise ValueError("similarity pair must join two distinct patents")


def ipc_subclass(full_tag: str) -> str:
    """Truncate a classification code to its 4-character subclass.

    "A61K 31/00" -> "A61K"; leading/trailing whitespace and case are
    normalized first.
    """
    tag = full_tag.strip().upper()
    if not _SUBCLASS.match(tag):
        raise ValueError(f"malformed IPC tag: {full_tag!r}")
    return tag[:4]


def _citation(raw: object) -> Citation:
    if not isinstance(raw, dict) or not isinstance(raw.get("category"), str):
        raise ValueError(f"citation must be an object with a string category: {raw!r}")
    return Citation(cited_pub_number=raw["pub"], category=raw["category"].strip().upper())


def read_patent_records(path: str) -> Iterator[PatentRecord]:
    """Stream patent records from JSONL; errors carry the line number."""
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            try:
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise ValueError(f"record must be a JSON object: {record!r}")
                ipc = record.get("ipc", [])
                if isinstance(ipc, str):
                    tags = [t.strip() for t in ipc.split(";") if t.strip()]
                elif isinstance(ipc, list):
                    tags = [str(t).strip() for t in ipc if str(t).strip()]
                else:
                    raise ValueError(f"ipc must be a string or a list: {ipc!r}")
                citations = [_citation(c) for c in record.get("citations", [])]
                yield PatentRecord(
                    pub_number=record["pub_number"],
                    title=record.get("title", ""),
                    abstract=record.get("abstract", ""),
                    claims=record.get("claims", ""),
                    description=record.get("description", ""),
                    ipc_tags=tags,
                    citations=citations,
                )
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"invalid patent record at line {lineno}: {exc}") from exc


def build_ipc_examples(
    records: Iterable[PatentRecord], counters: Counter | None = None
) -> Iterator[IpcExample]:
    """One classification example per record with usable tags and claims.

    The label is the most frequent subclass among the record's tags, smallest
    subclass first on ties. Records with no valid tag or empty claims are
    skipped and counted.
    """
    if counters is None:
        counters = Counter()
    for record in records:
        subclasses = []
        for tag in record.ipc_tags:
            try:
                subclasses.append(ipc_subclass(tag))
            except ValueError:
                counters["invalid_tag"] += 1
        if not subclasses:
            counters["skipped_no_valid_tags"] += 1
            continue
        text = normalize_text(record.claims)
        if not text:
            counters["skipped_empty_claims"] += 1
            continue
        tally = Counter(subclasses)
        label = min(tally, key=lambda sub: (-tally[sub], sub))
        yield IpcExample(text=text, label=label)


def build_similarity_pairs(
    records: Iterable[PatentRecord],
    rng: random.Random,
    counters: Counter | None = None,
) -> Iterator[SimilarityPair]:
    """Positive pairs from X-category citations plus sampled negatives.

    Positives are the ordered (citing, cited) X-citation pairs whose two texts
    are both available, deduplicated. For each positive's citing side one
    negative partner is sampled uniformly from the patents participating in
    positive pairs; drawing the anchor itself drops the positive and its
    negative, and a draw that is a true citation partner of the anchor is
    redrawn (at most 10 times, then both are dropped). The output is shuffled
    and balanced per construction.

    The records are read once, as a stream: of each record only its id, its
    normalized claims and its X citations are kept, so memory grows with the
    claims texts and citation pairs, not with titles, abstracts or
    descriptions. The citation pairs are checked once every text is known.
    When a ``pub_number`` repeats, the last record of that id supplies its
    text; repeats are counted as ``repeated_pub_number`` and logged once.
    """
    if counters is None:
        counters = Counter()
    texts: dict[str, str] = {}
    cited_pairs: list[tuple[str, str]] = []  # every X citation, in input order
    repeated = 0
    first_repeated = None
    for record in records:
        if record.pub_number in texts:
            repeated += 1
            if first_repeated is None:
                first_repeated = record.pub_number
        texts[record.pub_number] = normalize_text(record.claims)
        cited_pairs.extend(
            (record.pub_number, citation.cited_pub_number)
            for citation in record.citations
            if citation.category == "X"
        )
    if repeated:
        counters["repeated_pub_number"] += repeated
        log.warning(
            "%d record(s) repeat an earlier pub_number (first: %r); "
            "each id keeps the claims of its last record",
            repeated,
            first_repeated,
        )

    positives: list[tuple[str, str]] = []
    seen: set[tuple[str, str]] = set()
    for pair in cited_pairs:
        citing, cited = pair
        if citing == cited:
            counters["skipped_self_citation"] += 1
            continue
        if cited not in texts:
            counters["skipped_unknown_cited"] += 1
            continue
        if not texts[citing] or not texts[cited]:
            counters["skipped_missing_text"] += 1
            continue
        if pair in seen:
            counters["skipped_duplicate_citation"] += 1
            continue
        seen.add(pair)
        positives.append(pair)
    if not positives:
        raise ValueError("no X-category citation pairs in input")

    related: set[frozenset[str]] = {frozenset(p) for p in positives}
    pool = sorted({pub for pair in positives for pub in pair})

    output: list[SimilarityPair] = []
    for citing, cited in positives:
        partner = None
        for _ in range(10):
            candidate = pool[rng.randrange(len(pool))]
            if candidate == citing:
                counters["dropped_same_doc"] += 1
                break
            if frozenset((citing, candidate)) in related:
                continue
            partner = candidate
            break
        else:
            counters["dropped_no_negative"] += 1
        if partner is None:
            continue
        output.append(
            SimilarityPair(texts[citing], texts[cited], citing, cited, True)
        )
        output.append(
            SimilarityPair(texts[citing], texts[partner], citing, partner, False)
        )
    rng.shuffle(output)
    yield from output


def split_dataset(
    stream: Iterable,
    fractions: Sequence[float],
    seed: int,
    key: Callable | None = None,
) -> dict[str, list]:
    """Seed-deterministic disjoint train/test split.

    Items sharing a ``key`` value always land in the same split (used to keep
    both orientations of an unordered similarity pair together).
    """
    if len(fractions) != 2:
        raise ValueError("fractions must be (train, test)")
    if min(fractions) < 0 or abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"fractions must be non-negative and sum to 1: {fractions}")
    items = list(stream)
    groups: dict = {}
    for ordinal, item in enumerate(items):
        groups.setdefault(key(item) if key is not None else ordinal, []).append(item)
    order = list(groups.values())
    random.Random(seed).shuffle(order)
    target_train = round(fractions[0] * len(items))
    train: list = []
    test: list = []
    for group in order:
        if len(train) < target_train:
            train.extend(group)
        else:
            test.extend(group)
    return {"train": train, "test": test}
