import json
import logging
import math
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from lingmask.cli import EX_FAIL, EX_OK, main
from lingmask.datasets import (
    _SUBCLASS,
    PatentRecord,
    SimilarityPair,
    build_ipc_examples,
    build_similarity_pairs,
    ipc_subclass,
    read_patent_records,
    split_dataset,
)

EXPECTED_LABELS = {
    "P01": "A61K",
    "P02": "A61K",  # A61K twice vs G06F once
    "P03": "A61K",  # tie with G06F, lexicographically smallest wins
    "P04": "G06F",
    "P05": "H04L",
    "P06": "B29C",
    "P07": "A01B",  # the malformed tag is skipped
    "P10": "F16H",
    "P11": "G06N",
    "P12": "G06N",
    "P13": "H01L",
    "P14": "B60L",
    "P15": "E04B",
    "P16": "A23L",
    "P17": "C08F",
    "P18": "D21H",
    "P19": "G02B",
    "P20": "H02J",
}

EXPECTED_POSITIVES = {
    ("P01", "P02"),
    ("P02", "P01"),
    ("P03", "P04"),
    ("P05", "P06"),
    ("P11", "P13"),
    ("P14", "P16"),
    ("P17", "P18"),
}

# Small citation graphs: one record per id, then a few repeated ids; each
# record mostly has claims and cites known ids, itself or an unknown id,
# mostly with category X.
GRAPH_IDS = ["P0", "P1", "P2", "P3", "P4", "P5"]
_GRAPH_RECORD = st.tuples(
    st.sampled_from([True, True, True, False]),
    st.lists(
        st.tuples(st.sampled_from(GRAPH_IDS + ["Q9"]), st.sampled_from("XXXY")), min_size=1, max_size=3
    ),
)
CITATION_GRAPHS = st.builds(
    lambda firsts, repeats: list(zip(GRAPH_IDS, firsts)) + repeats,
    st.lists(_GRAPH_RECORD, min_size=len(GRAPH_IDS), max_size=len(GRAPH_IDS)),
    st.lists(st.tuples(st.sampled_from(GRAPH_IDS), _GRAPH_RECORD), max_size=2),
)

# Record sets as the reader yields them: repeated ids, blank or empty claims,
# well-formed, malformed and arbitrary tags, and citations of known ids, of
# the record itself and of an unknown id.
_TAGS = st.one_of(
    st.sampled_from(["A61K 31/00", "g06f17/00", "H04L", "B29C45/00", "XYZ", "1234"]), st.text(max_size=6)
)
RECORD_SETS = st.lists(
    st.builds(
        PatentRecord,
        st.sampled_from(GRAPH_IDS),
        st.sampled_from(["a claim", "a claim", "", " \t "]),
        st.lists(_TAGS, max_size=3),
        st.lists(st.tuples(st.sampled_from(GRAPH_IDS + ["Q9"]), st.sampled_from("XXXY")), max_size=3),
    ),
    min_size=3,
    max_size=12,
)


class _InputOrder(random.Random):
    """The same draws, but a shuffle that keeps the order, so the builder's
    output is each kept positive followed by its negative, in input order."""

    def shuffle(self, x):
        pass


class TestIpcSubclass:
    @pytest.mark.parametrize(
        "tag,expected",
        [
            ("A61K 31/00", "A61K"),
            ("a61k", "A61K"),
            (" h04l 29/06 ", "H04L"),
            ("B29C45/00", "B29C"),
        ],
    )
    def test_truncation(self, tag, expected):
        assert ipc_subclass(tag) == expected

    @pytest.mark.parametrize("tag", ["XYZ", "1234", "A6K1", ""])
    def test_malformed(self, tag):
        with pytest.raises(ValueError, match="malformed IPC tag"):
            ipc_subclass(tag)


class TestReadRecords:
    def test_fixture_parses(self, patents_path):
        records = list(read_patent_records(patents_path))
        assert len(records) == 20
        by_id = {r.pub_number: r for r in records}
        assert by_id["P02"].ipc_tags == ["A61K 31/00", "A61K 38/00", "G06F 17/00"]
        assert by_id["P03"].ipc_tags == ["A61K 31/00", "G06F 17/00"]  # list form
        assert by_id["P08"].ipc_tags == []
        assert by_id["P14"].citations == [("P16", "X")]  # category upcased

    def test_error_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"pub_number": "A"}\n{"nope": 1}\n', encoding="utf-8")
        with pytest.raises(ValueError, match="line 2"):
            list(read_patent_records(str(path)))

    @pytest.mark.parametrize(
        "record,field",
        [
            ({"nope": 1}, "pub_number"),
            ({"pub_number": "P1", "citations": [{"category": "X"}]}, "pub"),
        ],
        ids=["no-pub-number", "no-cited-pub"],
    )
    def test_missing_field_is_named(self, tmp_path, record, field):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"pub_number": "A"}\n' + json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(ValueError) as excinfo:
            list(read_patent_records(str(path)))
        assert str(excinfo.value) == f"invalid patent record at line 2: missing field: {field}"

    @pytest.mark.parametrize(
        "record,message",
        [
            ({"ipc": 7, "citations": None}, "missing field: pub_number"),
            ({"pub_number": 5, "citations": None, "ipc": 7}, "ipc must be a string or a list of strings: 7"),
            ({"pub_number": 5, "citations": None}, "citations must be a list of objects: None"),
            ({"pub_number": "P1", "citations": "P2"}, "citations must be a list of objects: 'P2'"),
            (
                {"pub_number": "P1", "citations": {"pub": "P2", "category": "X"}},
                "citations must be a list of objects: {'pub': 'P2', 'category': 'X'}",
            ),
            (
                {"pub_number": "", "citations": [{"pub": "A", "category": "xy"}, {"category": "X"}]},
                "citation category must be a single letter: 'XY'",
            ),
            (
                {"pub_number": "P1", "citations": [{"pub": 7, "category": "XY"}]},
                "cited pub must be a string: 7",
            ),
            ({"pub_number": "", "title": 5, "claims": 6}, "pub_number must be a non-empty string: ''"),
            ({"pub_number": "P1", "description": 6, "claims": 5, "title": 4}, "title must be a string: 4"),
            ({"pub_number": "P1", "description": 6, "claims": 5}, "claims must be a string: 5"),
        ],
        ids=["pub-number-before-ipc", "ipc-before-citations", "null-citations-before-id-type",
             "string-citations", "object-citations", "citation-before-id-type",
             "cited-pub-before-category", "id-type-before-texts", "title-first-text",
             "claims-before-description"],
    )
    def test_first_fault_is_named(self, tmp_path, record, message):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"pub_number": "A"}\n' + json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(ValueError) as excinfo:
            list(read_patent_records(str(path)))
        assert str(excinfo.value) == f"invalid patent record at line 2: {message}"

    @pytest.mark.parametrize(
        "record",
        [
            {"pub_number": 123},
            {"pub_number": ["P1"]},
            {"pub_number": "P1", "citations": [{"pub": 7, "category": "X"}]},
            {"pub_number": "P1", "citations": [{"pub": None, "category": "X"}]},
        ],
        ids=["int-id", "list-id", "int-cited", "null-cited"],
    )
    def test_non_string_ids_rejected(self, tmp_path, record):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"pub_number": "A"}\n' + json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="invalid patent record at line 2: .*must be"):
            list(read_patent_records(str(path)))

    @pytest.mark.parametrize("subcommand", ["make-ipc", "make-pairs"])
    @pytest.mark.parametrize(
        "record",
        [
            [1, 2],
            {"pub_number": "P1", "title": None},
            {"pub_number": "P1", "abstract": ["a"]},
            {"pub_number": "P1", "claims": 5},
            {"pub_number": "P1", "description": {"text": "d"}},
            {"pub_number": "P1", "citations": [["P2", "X"]]},
            {"pub_number": "P1", "citations": [{"pub": "P2", "category": 5}]},
            {"pub_number": "P1", "citations": [{"pub": "P2"}]},
            {"pub_number": "P1", "ipc": {"A61K 31/00": 1}},
            {"pub_number": "P1", "ipc": [7, ["A61K 31/00"]]},
        ],
        ids=["array", "null-title", "list-abstract", "int-claims", "object-description",
             "array-citation", "int-category", "no-category", "object-ipc", "list-element-ipc"],
    )
    def test_wrongly_typed_fields_fail_on_their_line(self, tmp_path, capsys, subcommand, record):
        path = tmp_path / "bad.jsonl"
        good = {"pub_number": "A", "claims": "a claim", "ipc": "A61K 31/00"}
        path.write_text(json.dumps(good) + "\n" + json.dumps(record) + "\n", encoding="utf-8")
        out = tmp_path / "out.jsonl"
        assert main([subcommand, "--input", str(path), "--output", str(out)]) == EX_FAIL
        assert "error: invalid patent record at line 2: " in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [path]


class TestIpcExamples:
    def test_hand_computed_labels(self, patents_path):
        counters = Counter()
        examples = list(
            build_ipc_examples(read_patent_records(patents_path), counters)
        )
        assert len(examples) == len(EXPECTED_LABELS)
        # Claims are unique per record, so key the comparison on a claim word.
        labels = [e.label for e in examples]
        assert labels == [EXPECTED_LABELS[p] for p in sorted(EXPECTED_LABELS)]
        assert counters["invalid_tag"] == 1
        assert counters["skipped_no_valid_tags"] == 1
        assert counters["skipped_empty_claims"] == 1

    def test_distinct_labels_bounded_by_input_subclasses(self, patents_path):
        records = list(read_patent_records(patents_path))
        input_subclasses = set()
        for record in records:
            for tag in record.ipc_tags:
                try:
                    input_subclasses.add(ipc_subclass(tag))
                except ValueError:
                    pass
        labels = {e.label for e in build_ipc_examples(records, Counter())}
        assert labels <= input_subclasses

    def test_text_is_normalized_claims(self):
        record = PatentRecord(pub_number="Z1", claims="a\t\tpump   here", ipc_tags=["A01B 1/00"])
        example = next(iter(build_ipc_examples([record], Counter())))
        assert example.text == "a pump here"
        assert example.label == "A01B"


class TestSimilarityPairs:
    def _pairs(self, patents_path, seed=5):
        counters = Counter()
        pairs = list(
            build_similarity_pairs(read_patent_records(patents_path), random.Random(seed), counters)
        )
        return pairs, counters

    def test_only_x_citations_become_positives(self, patents_path):
        pairs, counters = self._pairs(patents_path)
        positives = {(p.id_a, p.id_b) for p in pairs if p.label}
        assert positives <= EXPECTED_POSITIVES
        # Anything missing was dropped by the same-document rule, never silently.
        dropped = (
            counters["dropped_same_doc"] + counters["dropped_no_negative"]
        )
        assert len(positives) + dropped == len(EXPECTED_POSITIVES)
        assert counters["skipped_unknown_cited"] == 1  # P15 -> P99
        assert counters["skipped_missing_text"] == 1  # P10 -> P09 (empty claims)

    def test_no_self_pairs_and_no_false_negatives(self, patents_path):
        pairs, _ = self._pairs(patents_path)
        related = {frozenset(p) for p in EXPECTED_POSITIVES}
        for pair in pairs:
            assert pair.id_a != pair.id_b
            if not pair.label:
                assert frozenset((pair.id_a, pair.id_b)) not in related

    @given(CITATION_GRAPHS, st.integers(0, 2**16))
    def test_negatives_unlinked_and_positives_deduplicated_in_input_order(self, graph, seed):
        records = [
            PatentRecord(
                pub_number=pub,
                claims="a claim" if has_claims else "",
                citations=citations,
            )
            for pub, (has_claims, citations) in graph
        ]
        # Oracle: the first occurrence of each usable X pair, in input order,
        # with the last record of an id supplying its text.
        has_text = {r.pub_number: bool(r.claims) for r in records}
        expected = []
        for r in records:
            for cited, category in r.citations:
                pair = (r.pub_number, cited)
                usable = category == "X" and pair[0] != pair[1] and has_text.get(pair[1], False)
                if usable and has_text[pair[0]] and pair not in expected:
                    expected.append(pair)
        linked = {
            frozenset((r.pub_number, cited))
            for r in records
            for cited, category in r.citations
            if category == "X"
        }
        counters = Counter()
        if not expected:
            with pytest.raises(ValueError, match="no X-category"):
                list(build_similarity_pairs(records, _InputOrder(seed), counters))
            return
        pairs = list(build_similarity_pairs(records, _InputOrder(seed), counters))
        kept, negatives = pairs[0::2], pairs[1::2]
        assert all(p.label for p in kept) and not any(p.label for p in negatives)
        for positive, negative in zip(kept, negatives):
            assert negative.id_a == positive.id_a != negative.id_b
            assert frozenset((negative.id_a, negative.id_b)) not in linked
        positives = [(p.id_a, p.id_b) for p in kept]
        remaining = iter(expected)
        assert all(pair in remaining for pair in positives)  # an ordered subsequence
        dropped = counters["dropped_same_doc"] + counters["dropped_no_negative"]
        assert len(positives) + dropped == len(expected)
        # The shuffled output holds the same pairs.
        shuffled = list(build_similarity_pairs(records, random.Random(seed), Counter()))
        assert sorted(shuffled, key=repr) == sorted(pairs, key=repr)

    def test_balanced_output(self, patents_path):
        for seed in range(8):
            pairs, _ = self._pairs(patents_path, seed=seed)
            fraction = sum(p.label for p in pairs) / len(pairs)
            assert fraction == pytest.approx(0.5, abs=0.05)

    def test_deterministic(self, patents_path):
        assert self._pairs(patents_path, seed=9)[0] == self._pairs(patents_path, seed=9)[0]

    def test_no_x_citations_rejected(self):
        records = [
            PatentRecord(pub_number="A", claims="text a", citations=[("B", "Y")]),
            PatentRecord(pub_number="B", claims="text b"),
        ]
        with pytest.raises(ValueError, match="no X-category"):
            list(build_similarity_pairs(records, random.Random(0), Counter()))

    def test_pair_is_slotted(self):
        # make-pairs holds every pair of a run at once; slots keep each small.
        assert not hasattr(SimilarityPair("t", "u", "A", "B", True), "__dict__")

    def test_repeated_pub_number_keeps_last_record_and_warns_once(self, caplog):
        records = [
            PatentRecord(pub_number="A", claims="text a", citations=[("B", "X")]),
            PatentRecord(pub_number="B", claims="text b", citations=[("A", "X")]),
            PatentRecord(pub_number="B", claims="text b again"),
            PatentRecord(pub_number="A", claims=""),
        ]
        counters = Counter()
        with caplog.at_level(logging.WARNING, logger="lingmask.datasets"):
            with pytest.raises(ValueError, match="no X-category"):
                list(build_similarity_pairs(records, random.Random(0), counters))
        # The last A has no claims, so both pairs of A drop as before.
        assert counters == Counter({"repeated_pub_number": 2, "skipped_missing_text": 2})
        assert [r.getMessage() for r in caplog.records] == [
            "2 record(s) repeat an earlier pub_number (first: 'B'); "
            "each id keeps the claims of its last record"
        ]

    def test_peak_memory_ignores_unused_fields(self, tmp_path, patents_path):
        # make-pairs uses only ids, claims and citations, so padding every
        # record's title, abstract and description must not be held at once.
        pad = " ".join(["padding"] * 6250)  # 50 kB
        with open(patents_path, encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle]
        padded = tmp_path / "padded.jsonl"
        with open(padded, "w", encoding="utf-8") as handle:
            for record in records:
                record.update(title=pad, abstract=pad, description=pad)
                handle.write(json.dumps(record) + "\n")
        total_padding = 3 * len(pad) * len(records)

        def peak(path):
            argv = ["make-pairs", "--input", str(path), "--seed", "5", "--train-frac", "0.8",
                    "--output", str(tmp_path / "pairs.jsonl")]
            tracemalloc.start()
            try:
                assert main(argv) == EX_OK
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(patents_path)  # warm-up: one-time allocations of the first run
        assert peak(padded) - peak(patents_path) < total_padding / 4


class TestBuilderGuarantees:
    """What the output types do not check: every label is a subclass code
    and every pair joins two distinct patents."""

    @staticmethod
    def _assert_guarantees(records, seed):
        for example in build_ipc_examples(records, Counter()):
            assert _SUBCLASS.fullmatch(example.label)
        try:
            pairs = list(build_similarity_pairs(records, random.Random(seed), Counter()))
        except ValueError as exc:
            assert str(exc) == "no X-category citation pairs in input"
            return 0
        assert all(pair.id_a != pair.id_b for pair in pairs)
        return len(pairs)

    def test_fixture(self, patents_path):
        records = list(read_patent_records(patents_path))
        assert all(self._assert_guarantees(records, seed) for seed in range(8))

    @given(RECORD_SETS, st.integers(0, 2**16))
    def test_generated_records(self, records, seed):
        self._assert_guarantees(records, seed)


class TestSplitDataset:
    def test_exact_sizes(self):
        splits = split_dataset(range(100), 0.8, seed=1, key=lambda i: i)
        assert len(splits["train"]) == 80
        assert len(splits["test"]) == 20
        assert sorted(splits["train"] + splits["test"]) == list(range(100))

    def test_seed_determinism(self):
        a = split_dataset(range(50), 0.5, seed=7, key=lambda i: i)
        b = split_dataset(range(50), 0.5, seed=7, key=lambda i: i)
        assert a == b

    def test_pair_orientations_stay_together(self):
        pairs = []
        for i in range(30):
            pairs.append(SimilarityPair("x", "y", f"a{i}", f"b{i}", True))
            pairs.append(SimilarityPair("y", "x", f"b{i}", f"a{i}", False))
        splits = split_dataset(pairs, 0.5, seed=3, key=lambda p: tuple(sorted((p.id_a, p.id_b))))
        for name in ("train", "test"):
            ids = {tuple(sorted((p.id_a, p.id_b))) for p in splits[name]}
            others = {"train": "test", "test": "train"}[name]
            other_ids = {tuple(sorted((p.id_a, p.id_b))) for p in splits[others]}
            assert not ids & other_ids

    @pytest.mark.parametrize("train_frac", [-0.2, 1.2, math.nan])
    def test_train_frac_outside_unit_interval_rejected(self, train_frac):
        with pytest.raises(ValueError, match=r"train_frac must be in \[0, 1\]"):
            split_dataset(range(10), train_frac, seed=0, key=lambda i: i)
