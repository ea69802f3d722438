"""Downstream dataset builders from patent records: subclass classification
examples and citation-based similarity pairs.

Input is JSONL with fields ``pub_number``, ``title``, ``abstract``, ``claims``,
``description``, ``ipc`` (semicolon-joined string or list of strings), and
``citations`` (list of objects with ``pub`` and ``category``).
``read_patent_records`` is the one place a line is checked. Of each record
it keeps what the builders read: ``pub_number``, ``claims``, the tags and
the citations, each a ``(pub, category)`` tuple. ``title``, ``abstract``
and ``description`` must be strings but are not kept. The records and the
builders' outputs are plain data that check nothing when built.

Classification labels are the 4-character subclass level of the
classification codes; similarity positives are X-category citation pairs,
the category that marks novelty-defeating relatedness.
"""

from __future__ import annotations

import json
import logging
import random
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from .corpus import normalize_text

log = logging.getLogger(__name__)

_SUBCLASS = re.compile(r"^[A-Z]\d{2}[A-Z]")


@dataclass(slots=True)
class PatentRecord:
    """What the builders read of one record. A citation is a
    ``(cited pub_number, category)`` pair."""

    pub_number: str
    claims: str = ""
    ipc_tags: list[str] = field(default_factory=list)
    citations: list[tuple[str, str]] = field(default_factory=list)


@dataclass
class IpcExample:
    text: str
    label: str


@dataclass(slots=True)
class SimilarityPair:
    text_a: str
    text_b: str
    id_a: str
    id_b: str
    label: bool


def ipc_subclass(full_tag: str) -> str:
    """Truncate a classification code to its 4-character subclass.

    "A61K 31/00" -> "A61K"; leading/trailing whitespace and case are
    normalized first.
    """
    tag = full_tag.strip().upper()
    if not _SUBCLASS.match(tag):
        raise ValueError(f"malformed IPC tag: {full_tag!r}")
    return tag[:4]


def _citation(raw: object) -> tuple[str, str]:
    if not isinstance(raw, dict) or not isinstance(raw.get("category"), str):
        raise ValueError(f"citation must be an object with a string category: {raw!r}")
    if "pub" not in raw:
        raise ValueError("missing field: pub")
    pub, category = raw["pub"], raw["category"].strip().upper()
    if not isinstance(pub, str):
        raise ValueError(f"cited pub must be a string: {pub!r}")
    if len(category) != 1:
        raise ValueError(f"citation category must be a single letter: {category!r}")
    return pub, category


def read_patent_records(path: str) -> Iterator[PatentRecord]:
    """Stream patent records from JSONL; errors carry the line number.

    A record with several faults is reported for the first, in this order:
    not an object, no ``pub_number``, ``ipc``, ``citations``, each citation
    in turn, ``pub_number`` not a non-empty string, a text field not a
    string.
    """
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            try:
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise ValueError(f"record must be a JSON object: {record!r}")
                if "pub_number" not in record:
                    raise ValueError("missing field: pub_number")
                ipc = record.get("ipc", [])
                if isinstance(ipc, str):
                    tags = [t.strip() for t in ipc.split(";") if t.strip()]
                elif isinstance(ipc, list) and all(isinstance(t, str) for t in ipc):
                    tags = [t.strip() for t in ipc if t.strip()]
                else:
                    raise ValueError(f"ipc must be a string or a list of strings: {ipc!r}")
                citations = record.get("citations", [])
                if not isinstance(citations, list):
                    raise ValueError(f"citations must be a list of objects: {citations!r}")
                citations = [_citation(c) for c in citations]
                pub_number = record["pub_number"]
                if not isinstance(pub_number, str) or not pub_number:
                    raise ValueError(f"pub_number must be a non-empty string: {pub_number!r}")
                for name in ("title", "abstract", "claims", "description"):
                    if not isinstance(record.get(name, ""), str):
                        raise ValueError(f"{name} must be a string: {record[name]!r}")
                yield PatentRecord(pub_number, record.get("claims", ""), tags, citations)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"invalid patent record at line {lineno}: {exc}") from exc


def build_ipc_examples(records: Iterable[PatentRecord], counters: Counter) -> Iterator[IpcExample]:
    """One classification example per record with usable tags and claims.

    The label is the most frequent subclass among the record's tags, smallest
    subclass first on ties. Records with no valid tag or empty claims are
    skipped and counted.
    """
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
    counters: Counter,
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
            (record.pub_number, cited) for cited, category in record.citations if category == "X"
        )
    if repeated:
        counters["repeated_pub_number"] += repeated
        log.warning(
            "%d record(s) repeat an earlier pub_number (first: %r); "
            "each id keeps the claims of its last record",
            repeated,
            first_repeated,
        )

    # The kept pairs, in input order: one dict is the duplicate check, the
    # negatives' relatedness test and the order of the output's positives.
    positives: dict[tuple[str, str], None] = {}
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
        if pair in positives:
            counters["skipped_duplicate_citation"] += 1
            continue
        positives[pair] = None
    if not positives:
        raise ValueError("no X-category citation pairs in input")

    pool = sorted({pub for pair in positives for pub in pair})

    output: list[SimilarityPair] = []
    for citing, cited in positives:
        partner = None
        for _ in range(10):
            candidate = pool[rng.randrange(len(pool))]
            if candidate == citing:
                counters["dropped_same_doc"] += 1
                break
            if (citing, candidate) in positives or (candidate, citing) in positives:
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


def split_dataset(items: Iterable, train_frac: float, seed: int, key: Callable) -> dict[str, list]:
    """Seed-deterministic disjoint train/test split of whole groups.

    Items sharing a ``key`` value form one group and always land in the same
    split (used to keep both orientations of an unordered similarity pair
    together). The groups, in order of first appearance, are shuffled with
    ``seed``; in that order a group goes to train if train holds fewer than
    ``round(train_frac * len(items))`` items so far, and to test otherwise.
    """
    if not 0 <= train_frac <= 1:
        raise ValueError(f"train_frac must be in [0, 1], got {train_frac}")
    items = list(items)
    groups: dict = {}
    for item in items:
        groups.setdefault(key(item), []).append(item)
    order = list(groups.values())
    random.Random(seed).shuffle(order)
    target_train = round(train_frac * len(items))
    train: list = []
    test: list = []
    for group in order:
        if len(train) < target_train:
            train.extend(group)
        else:
            test.extend(group)
    return {"train": train, "test": test}
