"""Tests of the benchmark itself: the generator, the output checks, failure
counting and the tracer's time accounting. Run with ``python -m pytest perfbench``."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import gen
import run

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def small_inputs(monkeypatch):
    """Shrink the generator so a test runs the real CLI in well under a second."""
    monkeypatch.setitem(gen._CORPUS_SIZES, "pretrain", (600,) + gen._CORPUS_SIZES["pretrain"][1:])
    monkeypatch.setitem(gen._CORPUS_SIZES, "tiny", (400,) + gen._CORPUS_SIZES["tiny"][1:])
    monkeypatch.setattr(gen, "_PATENT_SIZES", {"documents": 200, "patents": 400})


def lingmask(*args: str) -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-m", "lingmask.cli", *args], env=env, cwd=ROOT, capture_output=True).returncode


def rewrite_record(path: str, index: int, edit) -> None:
    lines = Path(path).read_text().splitlines()
    record = json.loads(lines[index])
    edit(record)
    lines[index] = json.dumps(record)
    Path(path).write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("workload", ["pretrain-lim", "tiny-lm", "patents"])
def test_generator_is_deterministic_per_seed(tmp_path, small_inputs, workload):
    digests = []
    for name, seed in (("a", 3), ("b", 3), ("c", 4)):
        (tmp_path / name).mkdir()
        files, truth = gen.make_inputs(workload, seed, str(tmp_path / name))
        digests.append(gen.manifest(files, truth["properties"]))
    assert digests[0] == digests[1]
    assert digests[0]["inputs"] != digests[2]["inputs"]


@pytest.fixture
def pretraining(tmp_path, small_inputs):
    files, truth = gen.make_inputs("pretrain-lim", 5, str(tmp_path))
    out = str(tmp_path / "examples.jsonl")
    rc = lingmask(
        "make-pretraining-data", "--annotations", files["annotations"], "--vocab", files["vocab"],
        "--strategy", "lim", "--p-nc", "0.75", "--seed", "5", "--output", out,
    )
    assert rc == 0
    return out, truth


def check_pretraining(out, truth):
    return checks.check_pretraining(out, truth, mask_prob=0.15, max_pred=20, p_nc=0.75)


def test_pretraining_check_accepts_program_output(pretraining):
    assert check_pretraining(*pretraining) == (0, [])


def test_pretraining_check_rejects_wrong_label(pretraining):
    out, truth = pretraining
    rewrite_record(out, 3, lambda r: r["labels"].__setitem__(0, r["labels"][0] + 1))
    failed, problems = check_pretraining(out, truth)
    assert failed == 1 and "labels" in problems[0]


def test_pretraining_check_rejects_bad_weights(pretraining):
    out, truth = pretraining
    rewrite_record(out, 5, lambda r: r["weights"].__setitem__(-1, 1.0))
    failed, problems = check_pretraining(out, truth)
    assert failed == 1 and "weights" in problems[0]


def test_pretraining_check_rejects_mixed_pool(pretraining):
    out, truth = pretraining
    index = next(i for i, (ids, flags) in enumerate(truth["sequences"]) if 0 < sum(flags) < len(flags) and len(flags) > 8)
    flags = truth["sequences"][index][1]

    def mix(record):
        positions = record["masked_positions"]
        other = next(k for k in range(len(flags)) if flags[k] != flags[positions[0]])
        record["masked_positions"] = sorted(positions[1:] + [other])
        record["labels"] = [truth["sequences"][index][0][p] for p in record["masked_positions"]]
        record["input_ids"] = list(truth["sequences"][index][0])

    rewrite_record(out, index, mix)
    failed, _ = check_pretraining(out, truth)
    assert failed == 1


def test_pretraining_check_rejects_truncated_file(pretraining):
    out, truth = pretraining
    data = Path(out).read_bytes()
    Path(out).write_bytes(data[: len(data) // 2])
    failed, problems = check_pretraining(out, truth)
    assert failed >= len(truth["sequences"]) // 2 - 1
    assert any("records" in p for p in problems)


def test_nonzero_exit_fails_every_item():
    assert checks.score_command(74, 1000, lambda: (0, [])) == (1000, ["exit code 74"])
    assert checks.score_command(0, 1000, lambda: (3, ["x"])) == (3, ["x"])


def test_missing_output_fails_every_item(tmp_path):
    failed, problems = checks.score_command(0, 7, lambda: checks.check_ipc(str(tmp_path / "none"), {"ipc_labels": [1]}))
    assert failed == 7 and "unreadable" in problems[0]


def test_verify_check(tmp_path):
    report = str(tmp_path / "verify.json")
    assert lingmask("verify-masking", "--strategy", "lim", "--p-nc", "0.75", "--n", "3000", "--tolerance", "0.02", "--output", report) == 0
    assert checks.check_verify(report, n=3000, seq_len=128, tolerance=0.02) == (0, [])
    data = json.loads(Path(report).read_text())
    data["abs_error"] = 0.03
    Path(report).write_text(json.dumps(data))
    assert checks.check_verify(report, n=3000, seq_len=128, tolerance=0.02)[0] == 3000


def test_metrics_check(tmp_path, small_inputs):
    files, _ = gen.make_inputs("tiny-lm", 2, str(tmp_path))
    metrics = str(tmp_path / "metrics.csv")
    rc = lingmask(
        "train-tiny", "--annotations", files["annotations"], "--vocab", files["vocab"], "--strategy", "mlm",
        "--steps", "60", "--eval-every", "20", "--seed", "2", "--output", metrics,
    )
    assert rc == 0
    assert checks.check_metrics_csv(metrics, steps=60, eval_every=20, batch_size=32) == (0, [])
    lines = Path(metrics).read_text().splitlines()
    Path(metrics).write_text("\n".join(lines[:-3]) + "\n")
    assert checks.check_metrics_csv(metrics, steps=60, eval_every=20, batch_size=32)[0] == 60 * 32
    lines[5] = lines[5].replace(lines[5].split(",")[1], "nan", 1)
    Path(metrics).write_text("\n".join(lines) + "\n")
    assert checks.check_metrics_csv(metrics, steps=60, eval_every=20, batch_size=32)[0] == 32


def test_patent_checks(tmp_path, small_inputs):
    files, truth = gen.make_inputs("patents", 4, str(tmp_path))
    clean, ipc, pairs = (str(tmp_path / n) for n in ("clean.jsonl", "ipc.jsonl", "pairs.jsonl"))
    train, test = str(tmp_path / "pairs.train.jsonl"), str(tmp_path / "pairs.test.jsonl")
    assert lingmask("normalize", "--input", files["documents"], "--output", clean) == 0
    assert lingmask("make-ipc", "--input", files["patents"], "--output", ipc) == 0
    assert lingmask("make-pairs", "--input", files["patents"], "--seed", "4", "--train-frac", "0.8", "--output", pairs) == 0
    assert checks.check_normalized(clean, truth) == (0, [])
    assert checks.check_ipc(ipc, truth) == (0, [])
    assert checks.check_pairs(pairs, train, test, truth, train_frac=0.8) == (0, [])

    rewrite_record(clean, 2, lambda r: r["sentences"].pop())
    assert checks.check_normalized(clean, truth)[0] == 1
    rewrite_record(ipc, 0, lambda r: r.__setitem__("label", "Z99Z"))
    assert checks.check_ipc(ipc, truth)[0] == 1
    rewrite_record(pairs, 0, lambda r: r.__setitem__("label", not r["label"]))
    failed, problems = checks.check_pairs(pairs, train, test, truth, train_frac=0.8)
    assert failed == truth["patents"] and any("unbalanced" in p for p in problems)


def test_failures_count_against_attempted_items(tmp_path):
    out = tmp_path / "out.txt"
    out.write_text("a")
    workload = run.Workload(
        [
            run.Command(["first"], 10, [str(out)], lambda: (2, ["two bad"])),
            run.Command(["second"], 5, [str(out)], lambda: (0, [])),
        ],
        None,
        {},
    )
    problems: list[str] = []
    first, second = run.Rep(items=15), run.Rep(items=15)
    reference = run.score(workload, first, [0, 0], None, problems)
    assert first.failed == 2
    run.score(workload, second, [0, 1], reference, problems)
    assert second.failed == 5
    out.write_text("b")
    third = run.Rep(items=15)
    run.score(workload, third, [0, 0], reference, problems)
    assert third.failed == 15
    assert run.tally([first, second, third]) == (45, 22)


def test_traced_layer_self_times_sum_to_wall(tmp_path, small_inputs):
    files, _ = gen.make_inputs("pretrain-lim", 1, str(tmp_path))
    stats, spans = tmp_path / "stats.json", tmp_path / "spans.jsonl"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [
        "make-pretraining-data", "--annotations", files["annotations"], "--vocab", files["vocab"],
        "--strategy", "lim", "--p-nc", "0.75", "--output", str(tmp_path / "out.jsonl"),
    ]
    tracer = str(Path(run.__file__).with_name("tracer.py"))
    assert subprocess.run([sys.executable, tracer, str(stats), str(spans), "--", *argv], env=env, cwd=ROOT).returncode == 0
    traced = json.loads(stats.read_text())
    assert traced["unwrapped"] == []
    metrics = run.per_layer([traced], [str(spans)])
    layers = sum(metrics[f"{layer}.self_s"] for layer in ("chunker", "subword", "masking", "cli"))
    assert math.isclose(layers, metrics["trace.wall_s"], abs_tol=1e-6)
    assert metrics["chunker.sentences"] == 600
    assert metrics["masking.build_example.calls"] == 600
    assert metrics["subword.encode_word.calls"] == metrics["chunker.tokens"]


def test_reference_scales_times_to_reference_speed():
    reference = run.Reference()
    reference.after(1.0)
    assert sum(reference.units) >= run.REF_SHARE * 1.0
    reference.units = [2 * run.REF_UNIT_S] * 4  # a host at half the reference speed
    assert math.isclose(reference.scale(), 0.5)
