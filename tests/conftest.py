import random
from pathlib import Path

import pytest
from hypothesis import strategies as st

from lingmask.chunker import AnnotatedToken
from lingmask.subword import Vocabulary, load_vocab
from rule_chunker import sentence_from_tokens

DATA_DIR = Path(__file__).parent / "data"


# Strings weighted toward what JSON escapes or passes through as is: quotes,
# backslashes, control characters, U+2028/U+2029, non-ASCII and astral
# characters.
JSON_TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from(['"', "\\", "\x00", "\n", "\t", "\x1f", "\x7f", "\u2028", "\u2029", "é", "\U0001f600"]),
        st.characters(),
    ),
    max_size=30,
)


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture(scope="session")
def general_vocab() -> Vocabulary:
    return load_vocab(str(DATA_DIR / "vocab_general.txt"))


@pytest.fixture(scope="session")
def scientific_vocab() -> Vocabulary:
    return load_vocab(str(DATA_DIR / "vocab_scientific.txt"))


@pytest.fixture(scope="session")
def patent_vocab() -> Vocabulary:
    return load_vocab(str(DATA_DIR / "vocab_patent.txt"))


@pytest.fixture(scope="session")
def patents_path() -> str:
    return str(DATA_DIR / "patents.jsonl")


_WORDS = {
    "DET": ["the", "a", "this"],
    "ADJ": ["hydraulic", "modular", "rotary", "sealed"],
    "NOUN": ["valve", "pump", "housing", "sensor", "disk", "ring"],
    "VERB": ["drives", "contains", "rotates", "seals"],
    "ADP": ["with", "over", "inside"],
    "PUNCT": ["-"],
}


def make_annotated_corpus(tsv_path: Path, vocab_path: Path, n_sentences: int, seed: int) -> None:
    """Write a synthetic POS/chunk annotation TSV and a covering vocabulary."""
    rng = random.Random(seed)
    surfaces = set()
    with open(tsv_path, "w", encoding="utf-8", newline="\n") as handle:
        for _ in range(n_sentences):
            pattern = rng.choice(
                [
                    ["DET", "ADJ", "NOUN", "VERB", "ADP", "DET", "NOUN"],
                    ["NOUN", "PUNCT", "NOUN", "VERB", "DET", "ADJ", "ADJ", "NOUN"],
                    ["DET", "NOUN", "VERB", "ADP", "NOUN"],
                    ["ADJ", "NOUN", "NOUN", "VERB", "DET", "NOUN", "ADP", "NOUN"],
                ]
            )
            tokens = [AnnotatedToken(rng.choice(_WORDS[tag]), tag) for tag in pattern]
            surfaces.update(t.surface for t in tokens)
            sentence = sentence_from_tokens(tokens)
            chunk_of = {}
            for cid, (start, end) in enumerate(sentence.chunk_spans):
                for k in range(start, end):
                    chunk_of[k] = cid
            for k, token in enumerate(tokens):
                cid = chunk_of.get(k)
                handle.write(f"{token.surface}\t{token.pos}\t{'-' if cid is None else cid}\n")
            handle.write("\n")
    pieces = ["[UNK]", "[MASK]"] + sorted(surfaces)
    with open(vocab_path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(pieces) + "\n")


@pytest.fixture(scope="session")
def annotated_corpus(tmp_path_factory) -> tuple[str, str]:
    """Paths to a 120-sentence annotation TSV and its vocabulary file."""
    base = tmp_path_factory.mktemp("corpus")
    tsv, vocab = base / "annotations.tsv", base / "vocab.txt"
    make_annotated_corpus(tsv, vocab, n_sentences=120, seed=13)
    return str(tsv), str(vocab)


@pytest.fixture(scope="session")
def multi_block_corpus(tmp_path_factory) -> tuple[str, str]:
    """Paths to a 600-sentence annotation TSV, which spans three masking
    blocks, and its vocabulary file."""
    base = tmp_path_factory.mktemp("multi_block_corpus")
    tsv, vocab = base / "annotations.tsv", base / "vocab.txt"
    make_annotated_corpus(tsv, vocab, n_sentences=600, seed=17)
    return str(tsv), str(vocab)
