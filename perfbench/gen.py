"""Seeded input generator for the lingmask benchmark.

Standalone on purpose: it imports only the standard library, never
``lingmask``, so a change to the program cannot change the bytes a workload
receives. The same seed always gives the same files; ``manifest`` records the
sha256 and the properties of every input so two commits can be shown to have
received the same bytes.

Besides the files, each ``make_*`` function returns the *truth* the output
checks need (expected piece ids, chunk flags, record counts, labels). It is
derived from the generator's own construction and from an independent
re-implementation of the documented greedy longest-match encoding, never from
the program under test.

Usage: python3 perfbench/gen.py --workload pretrain-lim --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import random
import sys

UNK = "[UNK]"
MASK = "[MASK]"
CONT = "##"
MAX_SEQ_LEN = 128

# Letters q, j and z never occur in a vocabulary piece, so words built with
# them have no complete decomposition and encode to [UNK].
_ONSETS = "b c d f g h k l m n p r s t v w br cl dr fl gr pl pr st tr".split()
_VOWELS = "a e i o u ae io".split()
_CODAS = ["", "", "", "n", "r", "s", "t", "l", "m"]
_UNK_STEMS = ["qz", "zj", "jq", "qoz", "zaj"]

_DETS = ["the", "a", "an", "this", "each", "said", "such"]
_ADPS = ["of", "in", "with", "on", "for", "by", "to", "from", "between", "within"]
_CONJS = ["and", "or"]
_AUXS = ["is", "are", "may", "can"]
_PRONS = ["it", "which", "they"]
_PUNCT_IN_CHUNK = "-"
_UNKNOWN_TAGS = ["SPACE", "_SP", "NFP"]

# Sentence mix; the special kinds are fixed counts, not probabilities, so every
# seed gives the same number of each.
_NO_CHUNK_SHARE = 0.02
_ALL_CHUNK_SHARE = 0.02
_LONG_SHARE = 0.003
_UNKNOWN_POS_SHARE = 0.0005


def _zipf_cum(n: int, s: float = 1.07) -> list[float]:
    total = 0.0
    cum = []
    for rank in range(1, n + 1):
        total += 1.0 / rank**s
        cum.append(total)
    return cum


class Lexicon:
    """Zipf-ranked content words over a syllable inventory, plus a vocabulary.

    Every syllable is a piece both word-initially and as a continuation, so
    every word without q/j/z decomposes; the most frequent ``whole_share`` of
    each content class is also a whole-word piece, so frequent words stay one
    piece and rarer ones split into several.
    """

    def __init__(
        self,
        rng: random.Random,
        n_syllables: int,
        sizes: dict[str, int],
        whole_share: float,
        unk_share: float,
    ) -> None:
        syllables: dict[str, None] = {}
        while len(syllables) < n_syllables:
            syllables[rng.choice(_ONSETS) + rng.choice(_VOWELS) + rng.choice(_CODAS)] = None
        self.syllables = list(syllables)
        taken: set[str] = set(_DETS + _ADPS + _CONJS + _AUXS + _PRONS)
        self.words: dict[str, list[str]] = {}
        for pos, size in sizes.items():
            words: list[str] = []
            while len(words) < size:
                n_syl = rng.choices((1, 2, 3, 4), weights=(2, 5, 3, 1))[0]
                word = "".join(rng.choice(self.syllables) for _ in range(n_syl))
                if rng.random() < unk_share:
                    word = rng.choice(_UNK_STEMS) + word
                if word not in taken:
                    taken.add(word)
                    words.append(word)
            self.words[pos] = words
        self.cum = {pos: _zipf_cum(len(ws)) for pos, ws in self.words.items()}
        # One Zipf-weighted pool over all classes for running prose.
        self.prose_pool: list[str] = []
        prose_weights: list[float] = []
        for pos, share in (("NOUN", 5.0), ("ADJ", 2.0), ("VERB", 2.0), ("ADV", 0.5)):
            if pos in self.words:
                cum = self.cum[pos]
                self.prose_pool.extend(self.words[pos])
                prose_weights.extend(share * (b - a) / cum[-1] for a, b in zip([0.0] + cum, cum))
        function_words = _ADPS + _DETS
        self.prose_pool.extend(function_words)
        prose_weights.extend([3.0 / len(function_words)] * len(function_words))
        self.prose_cum = list(itertools.accumulate(prose_weights))

        pieces: dict[str, None] = dict.fromkeys(["[PAD]", UNK, "[CLS]", "[SEP]", MASK])
        for word in _DETS + _ADPS + _CONJS + _AUXS + _PRONS + [",", ".", ";", "-"]:
            pieces[word] = None
        for digit in "0123456789":
            pieces[digit] = None
            pieces[CONT + digit] = None
        for syl in self.syllables:
            pieces[syl] = None
            pieces[CONT + syl] = None
        for words in self.words.values():
            for word in words[: int(len(words) * whole_share)]:
                if not any(stem in word for stem in "qjz"):
                    pieces[word] = None
        self.pieces = list(pieces)
        self.piece_id = {p: i for i, p in enumerate(self.pieces)}
        self.max_body = max(
            len(p) - len(CONT) if p.startswith(CONT) and len(p) > len(CONT) else len(p)
            for p in self.pieces
        )
        self._memo: dict[str, list[int]] = {}

    def word(self, rng: random.Random, pos: str) -> str:
        return rng.choices(self.words[pos], cum_weights=self.cum[pos])[0]

    def encode(self, word: str) -> list[int]:
        """Piece ids by greedy longest-match-first, [UNK] when incomplete."""
        ids = self._memo.get(word)
        if ids is not None:
            return ids
        ids = []
        start, n = 0, len(word)
        while start < n:
            prefix = CONT if start else ""
            end = min(n, start + self.max_body)
            while end > start and prefix + word[start:end] not in self.piece_id:
                end -= 1
            if end == start:
                ids = [self.piece_id[UNK]]
                break
            ids.append(self.piece_id[prefix + word[start:end]])
            start = end
        self._memo[word] = ids
        return ids


# ---------------------------------------------------------------------------
# Annotated corpus (make-pretraining-data, train-tiny)


def _noun_phrase(rng: random.Random, lex: Lexicon, rare: bool = False) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    if rng.random() < 0.5:
        tokens.append((rng.choice(_DETS), "DET"))
    for _ in range(rng.choices((0, 1, 2), weights=(6, 3, 1))[0]):
        tokens.append((lex.word(rng, "ADJ"), "ADJ"))
    if rng.random() < 0.05:
        tokens.append((str(rng.randrange(1, 100)), "NUM"))
    nouns = rng.choices((1, 2, 3), weights=(7, 2, 1))[0]
    for k in range(nouns):
        if k and rng.random() < 0.1:
            tokens.append((_PUNCT_IN_CHUNK, "PUNCT"))
        pos = "PROPN" if rng.random() < 0.05 else "NOUN"
        if rare:
            word = rng.choice(lex.words[pos])
        else:
            word = lex.word(rng, pos)
        tokens.append((word, pos))
    return tokens


def _sentence(rng: random.Random, lex: Lexicon, kind: str) -> list[tuple[str, str, int | None]]:
    """One sentence as (surface, pos, chunk id or None) triples."""
    out: list[tuple[str, str, int | None]] = []
    chunk = 0

    def add_np(rare: bool = False) -> None:
        nonlocal chunk
        out.extend((s, p, chunk) for s, p in _noun_phrase(rng, lex, rare))
        chunk += 1

    def add_word(surface: str, pos: str) -> None:
        out.append((surface, pos, None))

    if kind == "all_chunk":
        add_np()
        return out
    if kind == "no_chunk":
        add_word(rng.choice(_PRONS), "PRON")
        add_word(rng.choice(_AUXS), "AUX")
        add_word(lex.word(rng, "VERB"), "VERB")
        for _ in range(rng.randrange(0, 3)):
            add_word(lex.word(rng, "ADV"), "ADV")
        add_word(".", "PUNCT")
        return out
    add_np()
    if rng.random() < 0.5:
        add_word(rng.choice(_AUXS), "AUX")
    add_word(lex.word(rng, "VERB"), "VERB")
    if rng.random() < 0.5:
        add_word(lex.word(rng, "ADV"), "ADV")
    add_np()
    if rng.random() < 0.4:
        add_word(rng.choice(_PRONS), "PRON")
        add_word(rng.choice(_AUXS), "AUX")
        add_word(lex.word(rng, "VERB"), "VERB")
        add_word(rng.choice(_ADPS), "ADP")
    n_pp = rng.choices((0, 1, 2, 3, 4), weights=(2, 4, 3, 2, 1))[0]
    if kind == "long":
        n_pp = 40
    for _ in range(n_pp):
        add_word(rng.choice(_ADPS), "ADP")
        add_np(rare=kind == "long")
        if rng.random() < 0.15:
            add_word(",", "PUNCT")
    if rng.random() < 0.3:
        add_word(rng.choice(_CONJS), "CCONJ")
        add_word(lex.word(rng, "VERB"), "VERB")
        add_np()
    add_word(".", "PUNCT")
    return out


_CORPUS_SIZES = {
    # workload prefix -> (sentences, syllables, content-class sizes, whole-word share)
    "pretrain": (
        20_000,
        120,
        {"NOUN": 4000, "PROPN": 300, "ADJ": 800, "VERB": 500, "ADV": 120},
        0.35,
    ),
    "tiny": (
        3_000,
        30,
        {"NOUN": 300, "PROPN": 20, "ADJ": 60, "VERB": 40, "ADV": 10},
        0.4,
    ),
}


def make_corpus(seed: int, out_dir: str, prefix: str) -> tuple[dict, dict]:
    """Write ``<prefix>.tsv`` and ``<prefix>.vocab.txt``; return (files, truth)."""
    n_sentences, n_syl, sizes, whole_share = _CORPUS_SIZES[prefix]
    rng = random.Random(f"lingmask-bench:{prefix}:{seed}")
    lex = Lexicon(rng, n_syl, sizes, whole_share, unk_share=0.02)
    kinds = ["normal"] * n_sentences
    specials = rng.sample(range(n_sentences), int(n_sentences * (_NO_CHUNK_SHARE + _ALL_CHUNK_SHARE + _LONG_SHARE)))
    n_no = int(n_sentences * _NO_CHUNK_SHARE)
    n_all = int(n_sentences * _ALL_CHUNK_SHARE)
    for k, index in enumerate(specials):
        kinds[index] = "no_chunk" if k < n_no else "all_chunk" if k < n_no + n_all else "long"
    unknown_pos_left = int(n_sentences * _UNKNOWN_POS_SHARE)

    sequences: list[tuple[list[int], list[bool]]] = []
    n_tokens = n_chunk_tokens = over_limit = single_pool = unk_words = 0
    distinct: set[str] = set()
    unk_id = lex.piece_id[UNK]
    tsv_path = os.path.join(out_dir, f"{prefix}.tsv")
    with open(tsv_path, "w", encoding="utf-8", newline="\n") as handle:
        for index, kind in enumerate(kinds):
            tokens = _sentence(rng, lex, kind)
            ids: list[int] = []
            flags: list[bool] = []
            lines = []
            for surface, pos, cid in tokens:
                if unknown_pos_left and pos == "ADV" and index % 7 == 0:
                    pos = rng.choice(_UNKNOWN_TAGS)
                    unknown_pos_left -= 1
                lines.append(f"{surface}\t{pos}\t{'-' if cid is None else cid}\n")
                pieces = lex.encode(surface)
                unk_words += pieces == [unk_id]
                ids.extend(pieces)
                flags.extend([cid is not None] * len(pieces))
                distinct.add(surface)
            handle.write("".join(lines) + "\n")
            n_tokens += len(tokens)
            n_chunk_tokens += sum(cid is not None for _, _, cid in tokens)
            over_limit += len(ids) > MAX_SEQ_LEN
            ids, flags = ids[:MAX_SEQ_LEN], flags[:MAX_SEQ_LEN]
            single_pool += all(flags) or not any(flags)
            sequences.append((ids, flags))
    vocab_path = os.path.join(out_dir, f"{prefix}.vocab.txt")
    with open(vocab_path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lex.pieces) + "\n")
    n_pieces = sum(len(ids) for ids, _ in sequences)
    truth = {
        "sequences": sequences,
        "vocab_size": len(lex.pieces),
        "properties": {
            "sentences": n_sentences,
            "tokens": n_tokens,
            "pieces": n_pieces,
            "vocab_pieces": len(lex.pieces),
            "distinct_word_share": len(distinct) / n_tokens,
            "chunk_token_share": n_chunk_tokens / n_tokens,
            "chunk_piece_share": sum(sum(f) for _, f in sequences) / n_pieces,
            "over_128_share": over_limit / n_sentences,
            "single_pool_share": single_pool / n_sentences,
            "unk_word_share": unk_words / n_tokens,
            "unknown_pos_tokens": int(n_sentences * _UNKNOWN_POS_SHARE) - unknown_pos_left,
        },
    }
    return {"annotations": tsv_path, "vocab": vocab_path}, truth


# ---------------------------------------------------------------------------
# Documents and patents (normalize, make-ipc, make-pairs)

# Tokens the documented formula heuristics drop: an operator next to a digit
# or a non-alphanumeric character, or mostly non-alphanumeric characters.
_FORMULA_TOKENS = ["x=2", "n^2", "∑=", "++", "(i)", "--", "%"]
_FORMULA_SPANS = ["$x^2 + y$", "$\\alpha = 0.5$", "$E=mc^2$", "$\\sum_i w_i$"]
# Inserted mid-sentence; the abbreviation rule keeps each from ending a sentence.
_ABBREVIATED = [["see", "Fig.", "3"], ["e.g.", "Water"], ["U.S.", "Patent"], ["et", "al.", "Smith"], ["No.", "5"]]
_OPENERS = ["The", "A", "Each", "This", "In", "Said"]
_WHITESPACE = [" ", " ", " ", "  ", "\t", "\n", " \n "]

_PATENT_SIZES = {"documents": 4_000, "patents": 6_400}
_SUBCLASSES = 80


def _prose(rng: random.Random, lex: Lexicon, n_words: int, noisy: bool) -> tuple[str, str]:
    """One sentence as (raw text, expected normalized text)."""
    clean = [rng.choice(_OPENERS)] + rng.choices(lex.prose_pool, cum_weights=lex.prose_cum, k=n_words)
    if rng.random() < 0.2:
        at = rng.randrange(1, len(clean) - 1)
        clean[at] += ","
    if noisy and rng.random() < 0.3:
        at = rng.randrange(2, len(clean))
        clean[at:at] = rng.choice(_ABBREVIATED)
    clean[-1] += "."
    raw = list(clean)
    if noisy:
        for _ in range(rng.choices((0, 1, 2), weights=(4, 3, 1))[0]):
            at = rng.randrange(1, len(raw))
            raw.insert(at, rng.choice(_FORMULA_TOKENS + _FORMULA_SPANS))
    gaps = rng.choices(_WHITESPACE, k=len(raw) - 1) if noisy else [" "] * (len(raw) - 1)
    text = "".join(tok + gap for tok, gap in zip(raw, gaps)) + raw[-1]
    return text, " ".join(clean)


def _paragraph(rng: random.Random, lex: Lexicon, n_sent: int, noisy: bool) -> tuple[str, list[str]]:
    raws, cleans = [], []
    for _ in range(n_sent):
        raw, clean = _prose(rng, lex, rng.randrange(6, 22), noisy)
        raws.append(raw)
        cleans.append(clean)
    return (rng.choice(_WHITESPACE[:3])).join(raws), cleans


def _ipc_tag(rng: random.Random, subclasses: list[str], cum: list[float]) -> tuple[str, str | None]:
    """A classification tag and its subclass, or a malformed tag and None."""
    if rng.random() < 0.08:
        return rng.choice(["12AB", "A6", "XYZ 1/00", "-", "a1bc"]), None
    sub = rng.choices(subclasses, cum_weights=cum)[0]
    tag = f"{sub} {rng.randrange(1, 99)}/{rng.randrange(0, 100):02d}"
    if rng.random() < 0.1:
        tag = " " + tag.lower() + " "
    return tag, sub


def make_patents(seed: int, out_dir: str) -> tuple[dict, dict]:
    """Write ``docs.jsonl`` and ``patents.jsonl``; return (files, truth)."""
    rng = random.Random(f"lingmask-bench:patents:{seed}")
    lex = Lexicon(rng, 80, {"NOUN": 2000, "ADJ": 400, "VERB": 300}, 0.3, unk_share=0.0)

    docs_path = os.path.join(out_dir, "docs.jsonl")
    doc_sentences: list[tuple[str, list[str]]] = []
    with open(docs_path, "w", encoding="utf-8", newline="\n") as handle:
        for i in range(_PATENT_SIZES["documents"]):
            text, sentences = _paragraph(rng, lex, rng.randrange(3, 9), noisy=True)
            doc_id = f"D{i:06d}"
            record = {"id": doc_id, "text": text}
            if rng.random() < 0.8:
                record["section"] = rng.choice(["abstract", "claims", "Description", "title", "bogus"])
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")
            doc_sentences.append((doc_id, sentences))

    subclasses: dict[str, None] = {}
    while len(subclasses) < _SUBCLASSES:
        subclasses[f"{rng.choice('ABCDEFGH')}{rng.randrange(1, 100):02d}{rng.choice('ABCDEFGHJKLMN')}"] = None
    sub_list = list(subclasses)
    sub_cum = _zipf_cum(len(sub_list))
    n_pat = _PATENT_SIZES["patents"]
    pubs = [f"P{i:06d}" for i in range(n_pat)]

    patents_path = os.path.join(out_dir, "patents.jsonl")
    ipc_labels: list[str] = []
    has_text: list[bool] = []
    citations_of: list[list[tuple[str, str]]] = []
    with open(patents_path, "w", encoding="utf-8", newline="\n") as handle:
        for i, pub in enumerate(pubs):
            roll = rng.random()
            if roll < 0.015:
                claims = ""
            elif roll < 0.025:
                claims = rng.choice(_FORMULA_SPANS) + " " + rng.choice(_FORMULA_TOKENS)
            else:
                claims, _ = _paragraph(rng, lex, rng.randrange(1, 4), noisy=True)
            has_text.append(roll >= 0.025)
            tags, subs = [], []
            for _ in range(rng.choices((1, 2, 3, 4), weights=(4, 3, 2, 1))[0]):
                tag, sub = _ipc_tag(rng, sub_list, sub_cum)
                tags.append(tag)
                if sub is not None:
                    subs.append(sub)
            if subs and has_text[-1]:
                tally: dict[str, int] = {}
                for sub in subs:
                    tally[sub] = tally.get(sub, 0) + 1
                ipc_labels.append(min(tally, key=lambda s: (-tally[s], s)))
            cites: list[tuple[str, str]] = []
            for _ in range(rng.choices((0, 1, 2, 3, 5), weights=(2, 3, 3, 2, 1))[0]):
                roll = rng.random()
                target = (
                    pub if roll < 0.02
                    else f"Q{rng.randrange(10**6):06d}" if roll < 0.05
                    else pubs[rng.randrange(n_pat)]
                )
                category = rng.choices(("X", "Y", "A", " x", "X "), weights=(4, 3, 3, 0.3, 0.3))[0]
                cites.append((target, category))
            if cites and rng.random() < 0.05:
                cites.append(cites[0])
            citations_of.append(cites)
            description, _ = _paragraph(rng, lex, rng.randrange(2, 6), noisy=False)
            record = {
                "pub_number": pub,
                "title": " ".join(lex.word(rng, "NOUN") for _ in range(3)),
                "abstract": _paragraph(rng, lex, 2, noisy=False)[0],
                "claims": claims,
                "description": description,
                "ipc": ";".join(tags) if rng.random() < 0.5 else tags,
                "citations": [{"pub": t, "category": c} for t, c in cites],
            }
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")

    # X-citation positives as documented for make-pairs: self-citations,
    # unknown cited ids, pairs missing a text and duplicates are skipped.
    text_of = dict(zip(pubs, has_text))
    positives: list[tuple[str, str]] = []
    seen: set[tuple[str, str]] = set()
    for pub, cites in zip(pubs, citations_of):
        for target, category in cites:
            pair = (pub, target)
            if category.strip().upper() != "X" or target == pub or target not in text_of:
                continue
            if not (text_of[pub] and text_of[target]) or pair in seen:
                continue
            seen.add(pair)
            positives.append(pair)

    truth = {
        "doc_sentences": doc_sentences,
        "ipc_labels": ipc_labels,
        "positives": positives,
        "patents": n_pat,
        "properties": {
            "documents": len(doc_sentences),
            "document_sentences": sum(len(s) for _, s in doc_sentences),
            "patents": n_pat,
            "ipc_examples_expected": len(ipc_labels),
            "x_positives_expected": len(positives),
            "citations": sum(len(c) for c in citations_of),
        },
    }
    return {"documents": docs_path, "patents": patents_path}, truth


# ---------------------------------------------------------------------------


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def manifest(files: dict[str, str], properties: dict) -> dict:
    """sha256 and size of every input file plus the input's properties."""
    return {
        "inputs": {
            name: {"file": os.path.basename(path), "sha256": sha256_file(path), "bytes": os.path.getsize(path)}
            for name, path in files.items()
        },
        "properties": properties,
    }


def make_inputs(workload: str, seed: int, out_dir: str) -> tuple[dict, dict]:
    """Generate the input files of one workload; verify-law has none."""
    if workload == "pretrain-lim":
        return make_corpus(seed, out_dir, "pretrain")
    if workload == "tiny-lm":
        return make_corpus(seed, out_dir, "tiny")
    if workload == "patents":
        return make_patents(seed, out_dir)
    if workload == "verify-law":
        return {}, {"properties": {}}
    raise ValueError(f"unknown workload: {workload}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    files, truth = make_inputs(args.workload, args.seed, args.out)
    print(json.dumps(manifest(files, truth["properties"]), indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
