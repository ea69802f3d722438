import json

import pytest
from hypothesis import given, strategies as st

from lingmask.corpus import (
    _ABBREVIATIONS,
    _DOLLAR_SPAN,
    _FORMULA_OPERATORS,
    CleanDocument,
    RawDocument,
    clean_document,
    ingest_documents,
    normalize_text,
    split_sentences,
)


# Reference versions: the plain per-character loops that state each rule
# directly. The library checks the same rules with string scans.
def _oracle_is_formula_token(token):
    for i, ch in enumerate(token):
        if ch not in _FORMULA_OPERATORS:
            continue
        for j in (i - 1, i + 1):
            if 0 <= j < len(token):
                neighbor = token[j]
                if neighbor.isdigit() or not neighbor.isalnum():
                    return True
    non_alnum = sum(1 for ch in token if not ch.isalnum())
    return non_alnum * 2 > len(token)


def _oracle_normalize_text(raw):
    text = _DOLLAR_SPAN.sub(" ", raw)
    return " ".join(tok for tok in text.split() if not _oracle_is_formula_token(tok))


def _oracle_split_sentences(clean):
    sentences = []
    start = 0
    for i, ch in enumerate(clean):
        if ch not in ".!?":
            continue
        if i + 2 >= len(clean) or clean[i + 1] != " " or not clean[i + 2].isupper():
            continue
        prefix = clean[start : i + 1]
        if any(prefix.endswith(abbr) for abbr in _ABBREVIATIONS):
            continue
        sentences.append(prefix)
        start = i + 2
    tail = clean[start:]
    if tail:
        sentences.append(tail)
    return sentences


# Text weighted toward the characters the rules look at: operators, dollar
# signs, terminators, whitespace, ASCII and non-ASCII digits, uppercase
# letters and common punctuation.
_RULE_TEXT = st.lists(
    st.one_of(
        st.sampled_from(list("=∑∫^$")),
        st.sampled_from([".", "!", "?", ". ", "! ", "? "]),
        st.sampled_from([" ", " ", " ", "\t", "  "]),
        st.sampled_from(list("0123456789²٣")),
        st.sampled_from(list("ABCXYZÄΩ")),
        st.sampled_from(list("abcxyzé")),
        st.sampled_from(list("_-,()")),
        st.sampled_from(list(_ABBREVIATIONS)),
    ),
    max_size=60,
).map("".join)


class TestNormalize:
    def test_whitespace_collapse(self):
        assert normalize_text("a\t\tb   c") == "a b c"

    def test_dollar_span_removed(self):
        assert normalize_text("energy $E = mc^2$ here") == "energy here"

    def test_empty(self):
        assert normalize_text("") == ""

    def test_newlines_become_spaces(self):
        assert normalize_text("one\ntwo\r\nthree") == "one two three"

    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("x ^2 y", "x y"),  # operator next to a digit
            ("sum ∑=3 here", "sum here"),  # operator next to a symbol
            ("a ::: b", "a b"),  # mostly non-alphanumeric token
            ("state-of-the-art stays", "state-of-the-art stays"),
            ("x=y stays", "x=y stays"),  # operator between plain letters
            ("a $x$ b $y$ c", "a b c"),
        ],
    )
    def test_formula_token_rules(self, raw, expected):
        assert normalize_text(raw) == expected

    @given(st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=200))
    def test_idempotent_and_never_longer(self, raw):
        once = normalize_text(raw)
        assert normalize_text(once) == once
        assert len(once) <= len(raw)


class TestAgainstReference:
    @given(_RULE_TEXT)
    def test_normalize_text(self, raw):
        assert normalize_text(raw) == _oracle_normalize_text(raw)

    @given(_RULE_TEXT)
    def test_split_sentences(self, text):
        assert split_sentences(text) == _oracle_split_sentences(text)
        clean = normalize_text(text)
        assert split_sentences(clean) == _oracle_split_sentences(clean)

    @pytest.mark.parametrize("text", [
        "Fig. A", "U.S. Patent", "et al. B", "A cat.", "Stop!", "Why?",
        "Why? Yes", "Stop! Go", "a.  B", "a. B", "=3", "^", "∑∑", "x²=y",
        "(a),", "x ^2 y", "",
    ])
    def test_edges(self, text):
        assert normalize_text(text) == _oracle_normalize_text(text)
        assert split_sentences(text) == _oracle_split_sentences(text)


class TestSplitSentences:
    @pytest.mark.parametrize(
        "clean,expected",
        [
            ("A cat. A dog.", ["A cat.", "A dog."]),
            ("Fig. 1 shows X.", ["Fig. 1 shows X."]),
            ("one sentence", ["one sentence"]),
            ("", []),
            ("Run! Stop now? Yes.", ["Run!", "Stop now?", "Yes."]),
            ("See e.g. The device.", ["See e.g. The device."]),
            ("Made in the U.S. The end.", ["Made in the U.S. The end."]),
            ("lower case. not split", ["lower case. not split"]),
        ],
    )
    def test_examples(self, clean, expected):
        assert split_sentences(clean) == expected

    @given(
        st.lists(
            st.sampled_from(["Alpha beta.", "Gamma delta!", "Epsilon?", "Zeta eta."]),
            min_size=1,
            max_size=6,
        )
    )
    def test_join_reconstructs_normalized_text(self, parts):
        text = normalize_text(" ".join(parts))
        assert " ".join(split_sentences(text)) == text


class TestDomainTypes:
    def test_raw_document_requires_id(self):
        with pytest.raises(ValueError):
            RawDocument(id="", text="x")

    def test_raw_document_rejects_unknown_section(self):
        with pytest.raises(ValueError):
            RawDocument(id="d", text="x", section="figures")

    def test_clean_document_pipeline(self):
        doc = clean_document(RawDocument(id="d", text="A\tcat. A dog."))
        assert doc == CleanDocument(id="d", sentences=["A cat.", "A dog."])


class TestIngest:
    def _write(self, path, lines):
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def test_jsonl_order_and_count(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        self._write(
            path,
            [
                json.dumps({"id": "a", "text": "one", "section": "claims"}),
                json.dumps({"id": "b", "text": "two"}),
                json.dumps({"id": "c", "text": "three", "section": "weird"}),
            ],
        )
        docs = list(ingest_documents(str(path)))
        assert [d.id for d in docs] == ["a", "b", "c"]
        assert docs[0].section == "claims"
        assert docs[1].section == "other"
        assert docs[2].section == "other"

    def test_jsonl_missing_text(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        self._write(path, [json.dumps({"id": "a", "text": "x"}), json.dumps({"id": "b"})])
        with pytest.raises(ValueError, match="missing field: text at line 2"):
            list(ingest_documents(str(path)))

    def test_jsonl_malformed(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        self._write(path, ["{not json"])
        with pytest.raises(ValueError, match="line 1"):
            list(ingest_documents(str(path)))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        path.write_text("", encoding="utf-8")
        assert list(ingest_documents(str(path))) == []

    def test_tsv(self, tmp_path):
        path = tmp_path / "docs.tsv"
        self._write(path, ["a\tone two", "b\tthree"])
        docs = list(ingest_documents(str(path), format="tsv"))
        assert [(d.id, d.text, d.section) for d in docs] == [
            ("a", "one two", "other"),
            ("b", "three", "other"),
        ]

    def test_tsv_wrong_columns(self, tmp_path):
        path = tmp_path / "docs.tsv"
        self._write(path, ["a\tb\tc"])
        with pytest.raises(ValueError, match="line 1"):
            list(ingest_documents(str(path), format="tsv"))

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError, match="unknown input format"):
            list(ingest_documents(str(tmp_path / "x"), format="xml"))
