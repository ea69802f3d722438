"""A rule grammar that chunks POS-tagged tokens, used to write the synthetic
annotation files of the tests. A noun chunk is the maximal token sequence
matching

    DET? (ADJ | NUM | NOUN | PROPN | PUNCT-between-two-nominals)* (NOUN | PROPN)

so every chunk ends in a noun or proper noun and never contains a verb.
"""

from lingmask.chunker import AnnotatedSentence, AnnotatedToken

_NOMINAL = frozenset({"NOUN", "PROPN"})
_CHUNK_BODY = frozenset({"ADJ", "NUM", "NOUN", "PROPN"})


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


def sentence_from_tokens(tokens: list[AnnotatedToken]) -> AnnotatedSentence:
    """Annotate a token list with the rule grammar."""
    return AnnotatedSentence(tokens=tokens, chunk_spans=extract_noun_chunks(tokens))
