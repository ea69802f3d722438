import pytest
from hypothesis import given, strategies as st

from lingmask.subword import (
    Vocabulary,
    corpus_split_stats,
    encode_sentence,
    encode_word,
    load_vocab,
)


class TestLoadVocab:
    def test_ids_follow_line_order(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("[UNK]\nfemto\na\n##b\nc\n", encoding="utf-8")
        vocab = load_vocab(str(path))
        assert vocab.size == 5
        assert [vocab.id_of(p) for p in ("[UNK]", "femto", "a", "##b", "c")] == [0, 1, 2, 3, 4]
        assert "femto" in vocab and "zz" not in vocab

    def test_duplicate_rejected(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("[UNK]\nabc\nabc\n", encoding="utf-8")
        with pytest.raises(ValueError, match="duplicate piece: abc"):
            load_vocab(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ValueError, match="empty vocabulary"):
            load_vocab(str(path))

    def test_missing_unk_rejected(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("a\nb\n", encoding="utf-8")
        with pytest.raises(ValueError, match="no unknown piece"):
            load_vocab(str(path))

    def test_blank_line_rejected(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("[UNK]\n\nb\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 2"):
            load_vocab(str(path))


class TestEncodeWord:
    def test_three_reference_encodings(self, general_vocab, scientific_vocab, patent_vocab):
        assert encode_word("femto", general_vocab) == ["f", "##em", "##to"]
        assert encode_word("femto", scientific_vocab) == ["fem", "##to"]
        assert encode_word("femto", patent_vocab) == ["femto"]

    def test_unencodable_falls_back_to_unk(self, patent_vocab):
        assert encode_word("zzz", patent_vocab) == ["[UNK]"]

    def test_rejects_empty_or_spaced(self, patent_vocab):
        with pytest.raises(ValueError):
            encode_word("", patent_vocab)
        with pytest.raises(ValueError):
            encode_word("two words", patent_vocab)

    def test_returned_list_is_a_fresh_copy(self, general_vocab):
        first = encode_word("femto", general_vocab)
        first.append("##zz")
        first[0] = "[UNK]"
        assert encode_word("femto", general_vocab) == ["f", "##em", "##to"]

    def test_pieces_are_the_vocabulary_strings(self):
        # The memo keeps the vocabulary's own strings, not copies of them.
        vocab = Vocabulary(pieces=["[UNK]", "fe", "##m", "##to"])
        for _ in range(2):
            pieces = encode_word("femto", vocab)
            assert pieces == ["fe", "##m", "##to"]
            assert all(any(p is q for q in vocab.pieces) for p in pieces)

    def test_spaced_word_rejected_on_every_call(self, patent_vocab):
        for _ in range(3):
            with pytest.raises(ValueError, match="whitespace-free"):
                encode_word("two words", patent_vocab)

    @given(st.lists(st.text(alphabet="abcdz", min_size=1, max_size=8), max_size=20))
    def test_warmed_vocab_encodes_like_a_fresh_one(self, words):
        pieces = ["[UNK]", "ab", "abc", "##cd", "a", "b", "c", "##a", "##b", "##c", "##d"]
        warmed = Vocabulary(pieces)
        for word in words:
            encode_word(word, warmed)
        for word in reversed(words):
            assert encode_word(word, warmed) == encode_word(word, Vocabulary(pieces))

    @given(st.text(alphabet="abcd", min_size=1, max_size=12))
    def test_round_trip_with_char_closed_vocab(self, word):
        vocab = Vocabulary(
            ["[UNK]", "ab", "##cd", "a", "b", "c", "d", "##a", "##b", "##c", "##d"]
        )
        pieces = encode_word(word, vocab)
        rebuilt = pieces[0] + "".join(p[2:] for p in pieces[1:])
        assert rebuilt == word

    @given(st.text(alphabet="abcd", min_size=1, max_size=12))
    def test_greediness(self, word):
        vocab = Vocabulary(
            ["[UNK]", "ab", "abc", "##cd", "a", "b", "c", "d", "##a", "##b", "##c", "##d"]
        )
        pieces = encode_word(word, vocab)
        cursor = 0
        for i, piece in enumerate(pieces):
            body = piece[2:] if i > 0 else piece
            end = cursor + len(body)
            if end < len(word):
                extended = ("##" if i > 0 else "") + word[cursor : end + 1]
                assert extended not in vocab
            cursor = end


class TestEncodeSentence:
    def test_reference_split_ratios(self, general_vocab, scientific_vocab, patent_vocab):
        for vocab, n_pieces, ratio in (
            (general_vocab, 5, 5 / 3),
            (scientific_vocab, 4, 4 / 3),
            (patent_vocab, 3, 1.0),
        ):
            enc = encode_sentence("femto access point", vocab)
            assert len(enc.pieces) == n_pieces
            assert enc.word_count == 3
            assert enc.split_ratio == ratio

    def test_fully_covered_sentence_has_ratio_one(self, patent_vocab):
        assert encode_sentence("point access femto", patent_vocab).split_ratio == 1.0

    def test_empty_sentence_rejected(self, patent_vocab):
        with pytest.raises(ValueError):
            encode_sentence("   ", patent_vocab)

    def test_ratio_at_least_one(self, general_vocab):
        for sentence in ("femto", "access point", "femto femto access"):
            assert encode_sentence(sentence, general_vocab).split_ratio >= 1.0


class TestCorpusSplitStats:
    def test_mean_of_ratios(self, scientific_vocab):
        # "access point" -> 2 pieces (1.0); "femto access" -> 3 pieces (1.5).
        stats = corpus_split_stats(["access point", "femto access"], scientific_vocab)
        assert stats.mean_split_ratio == pytest.approx(1.25)
        assert stats.encoding_hist == {2: 1, 3: 1}
        assert stats.word_hist == {2: 2}

    def test_covering_vocab_aligns_histograms(self, patent_vocab):
        stats = corpus_split_stats(["femto access", "the point", "access"], patent_vocab)
        assert stats.mean_split_ratio == 1.0
        assert stats.encoding_hist == stats.word_hist

    def test_empty_stream_rejected(self, patent_vocab):
        with pytest.raises(ValueError):
            corpus_split_stats([], patent_vocab)

    def test_nested_vocabulary_monotonicity(self):
        # Brute-force check on a small corpus: every addition is a full corpus
        # word that is not a proper prefix of another corpus word, so the
        # greedy encoder can only get shorter.
        corpus = ["valve pump seal", "pump housing valve", "seal housing pump"]
        chars = sorted({c for s in corpus for c in s if c != " "})
        base = ["[UNK]"] + chars + ["##" + c for c in chars]
        words = ["valve", "pump", "seal", "housing"]
        smaller = Vocabulary(base)
        for k in range(1, len(words) + 1):
            larger = Vocabulary(base + words[:k])
            assert set(smaller.pieces) <= set(larger.pieces)
            small_stats = corpus_split_stats(corpus, smaller)
            large_stats = corpus_split_stats(corpus, larger)
            assert large_stats.mean_split_ratio <= small_stats.mean_split_ratio
            for sentence in corpus:
                assert len(encode_sentence(sentence, larger).pieces) <= len(
                    encode_sentence(sentence, smaller).pieces
                )
            smaller = larger
