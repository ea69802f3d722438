"""Golden sha256 digests of the generator outputs on the committed fixtures.

A digest changes only in a deliberate commit that says why in CHANGES.md; a
change to example records also bumps ``FORMAT_VERSION``. The sidecars are not
hashed, because they record the paths of the run; instead each run is replayed
from its sidecar and must reproduce the same digest.
"""

import hashlib

import pytest

from lingmask.cli import EX_OK, main

GOLDEN = {
    # Example format 2: masks come from one Philox stream per block of BLOCK
    # sequences (make-pretraining-data, verify-masking and train-tiny).
    # verify-masking's synthetic flags come from SplitMix64 hashes of their
    # index, and train-tiny's initial weights from Philox stream 2**64 - 1.
    "make-pretraining-data-mlm": "fac45905c378431d8aaee9f0fcac216924c2e775f1f47277cefe7d4ec162d2b6",
    "make-pretraining-data-lim": "f261557c896ac1ec55993ca519f66b4452eb228f8543c7a26e3796bb2d332746",
    "verify-masking": "0ba69e8e9f0601aadc9a6d08d773c9cedbbc8d747103a7175a9d82a2fb5a17d0",
    # Under mlm the law check chooses positions; under lim it reads only the
    # branch coins. With p_y1 0.97 and 7-piece rows the unflagged pool is
    # often empty, so the fallback fires.
    "verify-masking-mlm": "b24e1de7161b280c066cb65d771c3bdd59f669455d72d78aa07fab2c86ed86ca",
    "verify-masking-lim-fallback": "bcbbac1917e6ee91ddddf676976041a9403ec76a6a7676ccd86d32779589ff59",
    "make-ipc": "cf3cee2be23442165060a2d5ed16f9317c47caf1d557fe4c189260e3bd24feb9",
    "make-pairs": "c740f45d92d7ad65e29a12ac960e1129477c10eca324c9f0079ea4067dd9cabb",
    # documents.jsonl holds formula spans, operator tokens, abbreviations and
    # non-ASCII digits, so this pins the formula rules and the sentence splitter.
    "normalize": "3066951d731990dc413a8f0a853b76f1b3421f390a2b103cbf7f4cc71a535582",
    # Step rows take all three losses from the pre-update pass.
    "train-tiny": "14c21d64fbf4c74eb02ed61e1535a69b63b0933238113c6a0c393871a7c1d01e",
    # Each slot's context is the unmasked pieces within two of it.
    "train-tiny-radius-2": "7bf203a85d6cd1f20034695f7d764a7df10147b71c3e1717efd914b6b569c24d",
    # lim with p_nc 1 masks chunk pieces only: step rows have nan non-chunk losses.
    "train-tiny-lim-chunk-only": "7c85339362ce752307dbbabfaa4135d9f17ce96262fa035fc3047f4abf01b571",
    # 600 sentences: masks from three blocks' streams, the last one partial.
    "train-tiny-multi-block": "03202a617283b753ee1bfdd48a0619d37400b415927e9883241ae70a5ad14599",
    # The chunk spans of annotated_corpus, as the annotation file gives them.
    "chunk-stats": "dd2cce860b9dabf58b923a6bb8f44ab7d341fc69ffe20d523902ee9d22189f1f",
    # sentences.txt holds a blank line, padded and multi-piece words and an
    # unknown word.
    "tokenize-stats": "41d3e7e9271d0bb41ae41d8fd8f17c99ade0103f388ba126eecbf38eb1b7590a",
}

# make-pairs --seed 5 --train-frac 0.8: the split files (the unsplit output
# is the "make-pairs" digest).
SPLIT_GOLDEN = {
    "train": "435046cad34912c9a4342f72906d823faa5e67e769313de9a78e6d7c2d880471",
    "test": "4bfb631280f41941d630f5bedb4c0ab276de11616f6b093e048e97c9c7a2e720",
}


def _argv(name, annotations, vocab, patents, data_dir, out):
    return {
        "make-pretraining-data-mlm": [
            "make-pretraining-data", "--annotations", annotations, "--vocab", vocab,
            "--strategy", "mlm", "--seed", "11",
        ],
        "make-pretraining-data-lim": [
            "make-pretraining-data", "--annotations", annotations, "--vocab", vocab,
            "--strategy", "lim", "--p-nc", "0.75", "--seed", "11",
        ],
        "verify-masking": [
            "verify-masking", "--strategy", "lim", "--p-nc", "0.75",
            "--n", "2000", "--seed", "3", "--tolerance", "0.05",
        ],
        "verify-masking-mlm": [
            "verify-masking", "--strategy", "mlm",
            "--n", "2000", "--seed", "3", "--tolerance", "0.05",
        ],
        "verify-masking-lim-fallback": [
            "verify-masking", "--strategy", "lim", "--p-nc", "0.3", "--p-y1", "0.97",
            "--seq-len", "7", "--n", "2000", "--seed", "3", "--tolerance", "1",
        ],
        "make-ipc": ["make-ipc", "--input", patents],
        "make-pairs": ["make-pairs", "--input", patents, "--seed", "5"],
        "normalize": ["normalize", "--input", str(data_dir / "documents.jsonl")],
        "chunk-stats": ["chunk-stats", "--annotations", annotations],
        "tokenize-stats": [
            "tokenize-stats", "--input", str(data_dir / "sentences.txt"),
            "--vocab", str(data_dir / "vocab_patent.txt"),
        ],
        "train-tiny": [
            "train-tiny", "--annotations", annotations, "--vocab", vocab,
            "--steps", "5", "--batch-size", "4", "--seed", "2",
        ],
        "train-tiny-radius-2": [
            "train-tiny", "--annotations", annotations, "--vocab", vocab,
            "--steps", "5", "--batch-size", "4", "--seed", "2", "--context-radius", "2",
        ],
        "train-tiny-lim-chunk-only": [
            "train-tiny", "--annotations", annotations, "--vocab", vocab,
            "--strategy", "lim", "--p-nc", "1.0",
            "--steps", "5", "--batch-size", "4", "--seed", "2",
        ],
        "train-tiny-multi-block": [
            "train-tiny", "--annotations", annotations, "--vocab", vocab,
            "--strategy", "lim", "--p-nc", "0.75",
            "--steps", "5", "--batch-size", "4", "--seed", "2",
        ],
    }[name] + ["--output", out]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_digest(name, tmp_path, annotated_corpus, multi_block_corpus, patents_path, data_dir):
    annotations, vocab = multi_block_corpus if name == "train-tiny-multi-block" else annotated_corpus
    out = tmp_path / "out"
    replay = tmp_path / "replay"
    argv = _argv(name, annotations, vocab, patents_path, data_dir, str(out))
    assert main(argv) == EX_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[name]
    assert main([argv[0], "--config", f"{out}.config.json", "--output", str(replay)]) == EX_OK
    assert hashlib.sha256(replay.read_bytes()).hexdigest() == GOLDEN[name]


def test_split_digests(tmp_path, patents_path):
    out = tmp_path / "out"
    argv = ["make-pairs", "--input", patents_path, "--seed", "5", "--train-frac", "0.8"]
    assert main([*argv, "--output", str(out)]) == EX_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN["make-pairs"]
    for name, digest in SPLIT_GOLDEN.items():
        assert hashlib.sha256((tmp_path / f"out.{name}").read_bytes()).hexdigest() == digest
