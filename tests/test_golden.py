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
    "make-pretraining-data-mlm": "31f7ca8cfcc094e279537325445e3fdf83eef5cd959bc8c9fb80f2b236b4c3de",
    "make-pretraining-data-lim": "4b944fec9cdf4c7574b94aaf187772f330758d011c3049e2818389b90f9a2610",
    "verify-masking": "f3ac737f101353122b1ad41c724697fca348c88c3eb735c09cfb6fadc7a23831",
    "make-ipc": "cf3cee2be23442165060a2d5ed16f9317c47caf1d557fe4c189260e3bd24feb9",
    "make-pairs": "c740f45d92d7ad65e29a12ac960e1129477c10eca324c9f0079ea4067dd9cabb",
    # documents.jsonl holds formula spans, operator tokens, abbreviations and
    # non-ASCII digits, so this pins the formula rules and the sentence splitter.
    "normalize": "3066951d731990dc413a8f0a853b76f1b3421f390a2b103cbf7f4cc71a535582",
    # Step rows take all three losses from the pre-update pass, and the batched
    # encoder sums in a different order than the per-slot loops it replaced.
    "train-tiny": "b9a0938169a5f38c3d2681e2f4c3d6e954af41d02350a81a0a22abc47649723b",
}


def _argv(name, annotations, vocab, patents, documents, out):
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
        "make-ipc": ["make-ipc", "--input", patents],
        "make-pairs": ["make-pairs", "--input", patents, "--seed", "5"],
        "normalize": ["normalize", "--input", documents],
        "train-tiny": [
            "train-tiny", "--annotations", annotations, "--vocab", vocab,
            "--steps", "5", "--batch-size", "4", "--seed", "2",
        ],
    }[name] + ["--output", out]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_digest(name, tmp_path, annotated_corpus, patents_path, data_dir):
    annotations, vocab = annotated_corpus
    out = tmp_path / "out"
    replay = tmp_path / "replay"
    documents = str(data_dir / "documents.jsonl")
    argv = _argv(name, annotations, vocab, patents_path, documents, str(out))
    assert main(argv) == EX_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[name]
    assert main([argv[0], "--config", f"{out}.config.json", "--output", str(replay)]) == EX_OK
    assert hashlib.sha256(replay.read_bytes()).hexdigest() == GOLDEN[name]
