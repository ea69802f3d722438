import dataclasses
import math
import re
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from lingmask.chunker import (
    AnnotatedSentence,
    AnnotatedToken,
    chunk_stats,
    parse_annotations,
)
from rule_chunker import extract_noun_chunks, sentence_from_tokens


def toks(*pairs):
    return [AnnotatedToken(surface, pos) for surface, pos in pairs]


class TestGrammar:
    def test_det_adj_noun(self):
        assert extract_noun_chunks(
            toks(("the", "DET"), ("hydraulic", "ADJ"), ("valve", "NOUN"))
        ) == [(0, 3)]

    def test_no_nominal_material(self):
        assert extract_noun_chunks(toks(("runs", "VERB"), ("over", "ADP"))) == []

    def test_punct_bridge_and_verb_break(self):
        spans = extract_noun_chunks(
            toks(
                ("disk", "NOUN"), ("-", "PUNCT"), ("insulator", "NOUN"),
                ("is", "VERB"), ("a", "DET"), ("device", "NOUN"),
            )
        )
        assert spans == [(0, 3), (4, 6)]

    def test_chunk_must_end_in_nominal(self):
        # Trailing adjective is not absorbed.
        assert extract_noun_chunks(
            toks(("the", "DET"), ("pump", "NOUN"), ("large", "ADJ"))
        ) == [(0, 2)]

    def test_bare_det_is_no_chunk(self):
        assert extract_noun_chunks(toks(("the", "DET"), ("runs", "VERB"))) == []

    def test_punct_needs_nominals_on_both_sides(self):
        assert extract_noun_chunks(
            toks(("large", "ADJ"), ("-", "PUNCT"), ("pump", "NOUN"))
        ) == [(2, 3)]

    def test_empty_tokens_rejected(self):
        with pytest.raises(ValueError):
            extract_noun_chunks([])

    @given(
        st.lists(
            st.sampled_from(["DET", "ADJ", "NUM", "NOUN", "PROPN", "VERB", "ADP", "PUNCT"]),
            min_size=1,
            max_size=12,
        )
    )
    def test_spans_disjoint_sorted_verb_free(self, tags):
        tokens = [AnnotatedToken(f"w{i}", tag) for i, tag in enumerate(tags)]
        spans = extract_noun_chunks(tokens)
        prev_end = 0
        for start, end in spans:
            assert prev_end <= start < end <= len(tags)
            assert "VERB" not in tags[start:end]
            assert tags[end - 1] in ("NOUN", "PROPN")
            prev_end = end


class TestFlagsSpansRoundTrip:
    def test_flag_derivation(self):
        sent = AnnotatedSentence(
            tokens=toks(("a", "DET"), ("b", "NOUN"), ("c", "VERB")),
            chunk_spans=[(0, 2)],
        )
        assert sent.y == [True, True, False]

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlapping spans"):
            AnnotatedSentence(
                tokens=toks(("a", "NOUN"), ("b", "NOUN"), ("c", "NOUN")),
                chunk_spans=[(0, 2), (1, 3)],
            )

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValueError, match="span out of bounds"):
            AnnotatedSentence(tokens=toks(("a", "NOUN")), chunk_spans=[(0, 2)])


class TestParseAnnotations:
    def _write(self, path, text):
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_basic(self, tmp_path):
        path = self._write(
            tmp_path / "ann.tsv",
            "the\tDET\t0\nvalve\tNOUN\t0\nturns\tVERB\t-\n\n"
            "pump\tNOUN\t1\nhousing\tNOUN\t1\n",
        )
        sentences = list(parse_annotations(path, Counter()))
        assert len(sentences) == 2
        assert sentences[0].chunk_spans == [(0, 2)]
        assert sentences[0].y == [True, True, False]
        assert sentences[1].chunk_spans == [(0, 2)]

    def test_unknown_pos_maps_to_x(self, tmp_path):
        path = self._write(tmp_path / "ann.tsv", "w\tNOUNX\t-\n")
        counter = Counter()
        sentences = list(parse_annotations(path, warn_counter=counter))
        assert sentences[0].tokens[0].pos == "X"
        assert counter == Counter({"NOUNX": 1})

    def test_non_contiguous_chunk(self, tmp_path):
        path = self._write(tmp_path / "ann.tsv", "a\tNOUN\t0\nb\tVERB\t-\nc\tNOUN\t0\n")
        with pytest.raises(ValueError, match="not contiguous"):
            list(parse_annotations(path, Counter()))

    def test_bad_columns(self, tmp_path):
        path = self._write(tmp_path / "ann.tsv", "a\tNOUN\n")
        with pytest.raises(ValueError, match="line 1"):
            list(parse_annotations(path, Counter()))

    # spaCy tags a run of whitespace as a SPACE token. A surface holding any
    # whitespace, a no-break space too, is no word to the subword encoder.
    @pytest.mark.parametrize("line", [" \tSPACE\t-", "red valve\tNOUN\t0", "a\u00a0b\tNOUN\t0"])
    def test_whitespace_in_surface_rejected(self, tmp_path, line):
        path = self._write(tmp_path / "ann.tsv", f"the\tDET\t0\n{line}\n")
        with pytest.raises(ValueError, match=r"^whitespace in token surface at line 2$"):
            list(parse_annotations(path, Counter()))

    def test_empty_file(self, tmp_path):
        path = self._write(tmp_path / "ann.tsv", "")
        assert list(parse_annotations(path, Counter())) == []

    def test_repeated_unknown_pos_line_counted_each_time(self, tmp_path):
        path = self._write(tmp_path / "ann.tsv", "w\tNOUNX\t-\nw\tNOUNX\t-\n")
        counter = Counter()
        sentences = list(parse_annotations(path, warn_counter=counter))
        assert counter == Counter({"NOUNX": 2})
        assert [t.pos for t in sentences[0].tokens] == ["X", "X"]

    def test_malformed_line_after_repeats_names_its_own_line(self, tmp_path):
        path = self._write(tmp_path / "ann.tsv", "valve\tNOUN\t0\n\n" * 50 + "valve\tNOUN\n")
        with pytest.raises(ValueError, match="columns at line 101, got 2"):
            list(parse_annotations(path, Counter()))

    def test_repeated_lines_share_one_frozen_token(self, tmp_path):
        path = self._write(tmp_path / "ann.tsv", "valve\tNOUN\t0\n\nvalve\tNOUN\t0\n")
        first, second = parse_annotations(path, Counter())
        assert first.tokens[0] is second.tokens[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            first.tokens[0].surface = "pump"

    def test_lines_differing_in_chunk_id_share_one_token(self, tmp_path):
        path = self._write(
            tmp_path / "ann.tsv",
            "valve\tNOUN\t0\nvalve\tVERB\t-\n\n"
            "the\tDET\t3\nvalve\tNOUN\t3\nvalve\tNOUN\t-\nvalve\tNOUNX\t7\n",
        )
        counter = Counter()
        tokens = [t for s in parse_annotations(path, warn_counter=counter) for t in s.tokens]
        assert [(t.surface, t.pos) for t in tokens] == [
            ("valve", "NOUN"), ("valve", "VERB"), ("the", "DET"),
            ("valve", "NOUN"), ("valve", "NOUN"), ("valve", "X"),
        ]
        nouns = [t for t in tokens if t.pos == "NOUN"]
        assert all(t is nouns[0] for t in nouns)
        assert counter == Counter({"NOUNX": 1})

    def test_line_of_parts_seen_on_other_lines(self, tmp_path):
        # Its head and its chunk column were each cached from other lines.
        path = self._write(
            tmp_path / "ann.tsv",
            "valve\tNOUN\t-\npump\tNOUN\t0\n\npump\tNOUN\t-\nvalve\tNOUN\t0\n",
        )
        first, second = parse_annotations(path, Counter())
        assert [(t.surface, t.pos) for t in second.tokens] == [("pump", "NOUN"), ("valve", "NOUN")]
        assert second.chunk_spans == [(1, 2)]
        assert second.y == [False, True]
        assert second.tokens[0] is first.tokens[1] and second.tokens[1] is first.tokens[0]

    def test_bad_chunk_id_after_its_head_names_its_own_line(self, tmp_path):
        # int() would read all but the first as 10, 3, 3, 3, 0, 0 and 7; the
        # last three are other spellings of ids that have one.
        for chunk_id in ["x", "1_0", " 3", "+3", "\u0663", "00", "-0", "007"]:
            path = self._write(tmp_path / "ann.tsv", f"valve\tNOUN\t0\n\nvalve\tNOUN\t{chunk_id}\n")
            with pytest.raises(ValueError, match=f"invalid chunk id {re.escape(repr(chunk_id))} at line 3$"):
                list(parse_annotations(path, Counter()))

    def test_negative_chunk_id_accepted(self, tmp_path):
        path = self._write(tmp_path / "ann.tsv", "a\tNOUN\t-7\nb\tNOUN\t-7\nc\tVERB\t-\n")
        (sentence,) = parse_annotations(path, Counter())
        assert sentence.chunk_spans == [(0, 2)]

    @pytest.mark.parametrize("line", ["valve\tNOUN\tNOUN\t0\n", "a\tvalve\tNOUN\t0\n"])
    def test_four_columns_ending_in_a_seen_chunk_column_name_their_line(self, tmp_path, line):
        path = self._write(tmp_path / "ann.tsv", "valve\tNOUN\t0\n\n" + line)
        with pytest.raises(ValueError, match="columns at line 3, got 4$"):
            list(parse_annotations(path, Counter()))

    @pytest.mark.parametrize(
        "text,ending",
        [
            ("a\tNOUN\t0\nb\tVERB\t-\nc\tNOUN\t0\n\nd\tNOUN\t-\n", 4),
            ("d\tNOUN\t-\n\na\tNOUN\t0\nb\tVERB\t-\nc\tNOUN\t0\n", 6),
            ("d\tNOUN\t-\n\na\tNOUN\t0\nb\tVERB\t-\nc\tNOUN\t0", 6),
        ],
        ids=["mid-file", "last-sentence", "no-final-newline"],
    )
    def test_non_contiguous_chunk_names_where_its_sentence_ends(self, tmp_path, text, ending):
        path = self._write(tmp_path / "ann.tsv", text)
        with pytest.raises(
            ValueError, match=f"^chunk id 0 not contiguous in sentence ending at line {ending}$"
        ):
            list(parse_annotations(path, Counter()))

    def test_bad_line_after_a_broken_chunk_is_reported_first(self, tmp_path):
        # The whole sentence is read before its chunks are checked.
        path = self._write(tmp_path / "ann.tsv", "a\tNOUN\t0\nb\tVERB\t-\nc\tNOUN\t0\nd\tNOUN\n")
        with pytest.raises(ValueError, match="columns at line 4, got 2$"):
            list(parse_annotations(path, Counter()))

    def test_unknown_tag_shares_the_token_of_its_x_line(self, tmp_path):
        path = self._write(tmp_path / "ann.tsv", "w\tNOUNX\t0\n\nw\tX\t-\nw\tNOUNX\t-\n")
        counter = Counter()
        first, second = parse_annotations(path, warn_counter=counter)
        assert counter == Counter({"NOUNX": 2})
        assert first.tokens[0] is second.tokens[0] is second.tokens[1]
        assert first.tokens[0] == AnnotatedToken("w", "X")

    def test_tokens_of_one_tag_share_one_pos_string(self, tmp_path):
        path = self._write(tmp_path / "ann.tsv", "valve\tNOUN\t0\npump\tNOUN\t-\nw\tNOUNX\t-\n")
        valve, pump, w = next(parse_annotations(path, warn_counter=Counter())).tokens
        assert valve.pos is pump.pos
        assert w.pos is next(parse_annotations(self._write(tmp_path / "x.tsv", "v\tX\t-\n"), Counter())).tokens[0].pos
        assert not hasattr(valve, "__dict__")

    def test_sentences_equal_validated_ones(self, annotated_corpus):
        # Parsed sentences are built without re-running the span checks;
        # the validating constructor must agree with every one of them.
        sentences = list(parse_annotations(annotated_corpus[0], Counter()))
        assert len(sentences) == 120
        for sentence in sentences:
            validated = AnnotatedSentence(list(sentence.tokens), list(sentence.chunk_spans))
            assert sentence == validated
            assert sentence.y == validated.y


class TestChunkStats:
    def _sentence(self, n_tokens, span_lengths):
        spans = []
        cursor = 0
        for length in span_lengths:
            spans.append((cursor, cursor + length))
            cursor += length
        tokens = toks(*((f"w{i}", "NOUN") for i in range(n_tokens)))
        return AnnotatedSentence(tokens=tokens, chunk_spans=spans)

    def test_hand_arithmetic(self):
        stats = chunk_stats([self._sentence(10, [2, 2, 4])])
        assert stats.mean == pytest.approx(8 / 3, abs=1e-12)
        assert stats.sd == pytest.approx(math.sqrt(8 / 9), abs=1e-12)
        assert stats.token_nc_prob == pytest.approx(0.8)
        assert stats.histogram == {2: 2, 4: 1}

    def test_no_chunks(self):
        stats = chunk_stats([self._sentence(4, [])])
        assert stats.token_nc_prob == 0.0
        assert stats.histogram == {}
        assert stats.mean == 0.0 and stats.sd == 0.0

    def test_chunks_over_the_limit_leave_the_histogram(self):
        stats = chunk_stats([self._sentence(23, [2, 11, 10])], max_chunk_len=10)
        assert stats.histogram == {2: 1, 10: 1}
        assert stats.mean == 6.0
        assert stats.token_nc_prob == 1.0

    def test_limit_one_keeps_singletons(self):
        stats = chunk_stats([self._sentence(8, [1, 2, 1])], max_chunk_len=1)
        assert stats.histogram == {1: 2}

    def test_limit_below_one_rejected(self):
        with pytest.raises(ValueError, match="max_chunk_len must be >= 1, got 0"):
            chunk_stats([self._sentence(2, [1])], max_chunk_len=0)

    def test_long_chunks_filtered_from_histogram_not_flags(self):
        stats = chunk_stats([self._sentence(12, [11])])
        assert stats.histogram == {}
        assert stats.token_nc_prob == pytest.approx(11 / 12)

    def test_empty_corpus(self):
        with pytest.raises(ValueError):
            chunk_stats([])

    def test_mean_matches_histogram_weighting(self):
        stats = chunk_stats([self._sentence(20, [1, 2, 3, 5]), self._sentence(9, [4, 4])])
        total = sum(stats.histogram.values())
        weighted = sum(k * v for k, v in stats.histogram.items()) / total
        assert abs(stats.mean - weighted) < 1e-12

    def test_exact_target_fraction(self):
        # 1000 tokens with 169 three-token chunks puts exactly 507 tokens in chunks.
        stats = chunk_stats([self._sentence(1000, [3] * 169)])
        assert stats.token_nc_prob == pytest.approx(0.507, abs=1e-12)


class TestBuiltInAnnotator:
    def test_sentence_from_tokens(self):
        sent = sentence_from_tokens(
            toks(("the", "DET"), ("pump", "NOUN"), ("turns", "VERB"))
        )
        assert sent.chunk_spans == [(0, 2)]
        assert sent.y == [True, True, False]
