"""lingmask benchmark: seeded inputs, fresh CLI processes, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The benchmark generates the workload's inputs
from the seed (``perfbench/gen.py``, which does not import lingmask), then
runs the workload's ``python -m lingmask.cli`` commands as fresh processes,
one at a time, for at least ``--seconds`` seconds and at least ``MIN_REPS``
repetitions. The first repetition's outputs are checked in full
(``perfbench/checks.py``); every later one must be byte-identical to it.

Workloads (one closed-loop client; each command waits for the previous one):

* ``pretrain-lim``: ``make-pretraining-data --strategy lim --p-nc 0.75`` on a
  20k-sentence Zipfian annotated corpus. Parse, encode, masking and writing
  all carry weight; an item is an example written.
* ``verify-law``: ``verify-masking --strategy lim --p-nc 0.75 --n 50000`` on
  the command's own 128-piece synthetic sequences. Per-sequence masking and
  the statistics dominate; parsing and encoding are bypassed. An item is a
  sequence checked.
* ``tiny-lm``: ``train-tiny --strategy mlm`` for 300 steps on a 3k-sentence
  corpus with a 270-piece vocabulary. The training loop dominates; an item is
  a training example consumed (steps x batch).
* ``patents``: ``normalize`` on 4k documents, then ``make-ipc`` and
  ``make-pairs --train-frac 0.8`` on 6.4k patent records; an item is a record
  read, summed over the three commands.

End-to-end metrics (``--trace 0``), times in reference-speed seconds (below):

* ``wall_s``: launch of the first command to exit of the last; includes set-up.
  Mean over the repetitions of the run.
* ``setup_s``: a fresh interpreter importing ``lingmask.cli`` and loading the
  workload's vocabulary, if it has one. Median of at least ``SETUP_PROBES``
  probes spread over the run.
* ``items_per_s``: all items of the run / (all wall time - processes x setup_s).
* ``peak_rss_mb``: the largest ``ru_maxrss`` of a repetition's processes;
  median over the repetitions.
* ``ok_frac``: 1 - failed items / attempted items. An end-to-end metric must
  never read 0, so the failed share is reported through its complement;
  ``failed_frac`` is printed alongside it.

Reference-speed seconds. On a shared host the CPU speed a run gets drifts by
30-60 % over minutes as other tenants come and go, so raw times of the same
code differ by more than any useful bound between runs a few minutes apart
(ten 25-second windows of ``tiny-lm`` on a 2-vCPU VM: interquartile range
0.15-0.22 of the median, for the mean, median, best or 10th percentile of
the window alike). The benchmark therefore times a fixed pure-Python
computation like the workloads' (``reference_unit``: word counts, random
draws, JSON; independent of lingmask) between the processes it launches, for
``REF_SHARE`` of the run, and scales every time by
``REF_UNIT_S`` / the reference's mean unit time in that run: a time in
reference-speed seconds is what it would have been on a host where one unit
takes ``REF_UNIT_S``. A change to lingmask leaves the reference untouched, so
it moves the scaled time exactly as much as the raw one; host drift moves
both. The benchmark and every process it starts run on one CPU, so that the
reference samples the CPU the commands run on. With the processes free to
use both vCPUs and a tight int/str loop as the reference, the workloads'
times moved with the reference's only to the power 0.5-0.6. The raw figures
and the reference are printed and recorded as well.

``--trace 1`` alternates untraced repetitions with traced ones
(``perfbench/tracer.py``) and reports the per-layer metrics of ``PER_LAYER_UNITS``
plus the tracing overhead, traced minus untraced wall time.

Every run writes a record to ``.perfbench/results/``: the environment, the
input manifest (sha256 and properties of every input), each repetition's raw
figures and every problem found; a traced run also keeps its spans there. The
last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402

ROOT = HERE.parent
WORK = ROOT / ".perfbench"

MIN_REPS = 3
SETUP_PROBES = 9
# The reference computation takes this share of the time spent in launched
# processes; one unit takes about REF_UNIT_S on the 2-vCPU VM the benchmark
# was defined on (Python 3.11).
REF_SHARE = 0.2
REF_UNIT_S = 0.011
REF_WORDS = 12_000
# A run must end within 180 s even if commands hang: no repetition starts after
# STOP_STARTING_AFTER_S, and each of its (at most three) commands is killed
# after COMMAND_TIMEOUT_S.
COMMAND_TIMEOUT_S = 30
STOP_STARTING_AFTER_S = 60

P_NC = 0.75
MASK_PROB = 0.15
MAX_PRED = 20
VERIFY_N = 50_000
VERIFY_SEQ_LEN = 128
VERIFY_TOLERANCE = 0.005
TINY_STEPS = 300
TINY_EVAL_EVERY = 100
TINY_BATCH = 32
TRAIN_FRAC = 0.8

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}

PER_LAYER_UNITS = {
    "chunker.parse_annotations.busy_s": "s",
    "chunker.sentences": "count",
    "chunker.tokens": "count",
    "chunker.chunk_token_share": "ratio",
    "chunker.unknown_pos": "count",
    "chunker.self_s": "s",
    "subword.encode_word.calls": "count",
    "subword.encode_word.busy_s": "s",
    "subword.distinct_word_share": "ratio",
    "subword.pieces_per_word": "pieces/word",
    "subword.unk_share": "ratio",
    "subword.self_s": "s",
    "masking.sequence_from_annotated.self_s": "s",
    "masking.truncated_share": "ratio",
    "masking.pieces_per_seq": "pieces/seq",
    "masking.sequence_rng.calls": "count",
    "masking.sequence_rng.busy_s": "s",
    "masking.build_example.calls": "count",
    "masking.build_example.busy_s": "s",
    "masking.build_example.us_p50": "us",
    "masking.build_example.us_p99": "us",
    "masking.nc_branch_share": "ratio",
    "masking.single_pool_share": "ratio",
    "masking.law_abs_error": "prob",
    "masking.example_to_json_line.busy_s": "s",
    "masking.output_bytes": "bytes",
    "masking.self_s": "s",
    "cli.self_s": "s",
    "cli.cpu_s": "s",
    "stats.flagged_sequences.busy_s": "s",
    "stats.empirical_mask_report.self_s": "s",
    "stats.self_s": "s",
    "tinylm.grad_and_step.calls": "count",
    "tinylm.grad_and_step.busy_s": "s",
    "tinylm.grad_and_step.ms_p50": "ms",
    "tinylm.grad_and_step.ms_p99": "ms",
    "tinylm.loss_and_grads.busy_s": "s",
    "tinylm.evaluate.calls": "count",
    "tinylm.evaluate.busy_s": "s",
    "tinylm.evaluate.ms_p50": "ms",
    "tinylm.slots_per_step": "slots/step",
    "tinylm.self_s": "s",
    "corpus.normalize_text.calls": "count",
    "corpus.normalize_text.busy_s": "s",
    "corpus.split_sentences.busy_s": "s",
    "corpus.self_s": "s",
    "datasets.read_patent_records.busy_s": "s",
    "datasets.build_ipc_examples.self_s": "s",
    "datasets.build_similarity_pairs.self_s": "s",
    "datasets.pairs_kept_share": "ratio",
    "datasets.self_s": "s",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
}
LAYERS = ("chunker", "subword", "masking", "cli", "stats", "tinylm", "corpus", "datasets")


@dataclass
class Command:
    """One ``lingmask`` invocation of a workload and how to check it."""

    args: list[str]
    items: int
    outputs: list[str]
    check: Callable[[], checks.Result]


@dataclass
class Workload:
    commands: list[Command]
    vocab: str | None
    manifest: dict


@dataclass
class Rep:
    wall_s: float = 0.0
    peak_rss_mb: float = 0.0
    items: int = 0
    failed: int = 0
    traced: list[dict] = field(default_factory=list)
    spans: list[str] = field(default_factory=list)


def build_workload(name: str, seed: int, inputs: Path, out: Path) -> Workload:
    files, truth = gen.make_inputs(name, seed, str(inputs))
    manifest = gen.manifest(files, truth["properties"])
    if name == "pretrain-lim":
        examples = str(out / "examples.jsonl")
        command = Command(
            ["make-pretraining-data", "--annotations", files["annotations"], "--vocab", files["vocab"],
             "--strategy", "lim", "--p-nc", str(P_NC), "--seed", str(seed), "--output", examples],
            len(truth["sequences"]),
            [examples],
            lambda: checks.check_pretraining(examples, truth, mask_prob=MASK_PROB, max_pred=MAX_PRED, p_nc=P_NC),
        )
        return Workload([command], files["vocab"], manifest)
    if name == "verify-law":
        report = str(out / "verify.json")
        command = Command(
            ["verify-masking", "--strategy", "lim", "--p-nc", str(P_NC), "--n", str(VERIFY_N),
             "--tolerance", str(VERIFY_TOLERANCE), "--seed", str(seed), "--output", report],
            VERIFY_N,
            [report],
            lambda: checks.check_verify(report, n=VERIFY_N, seq_len=VERIFY_SEQ_LEN, tolerance=VERIFY_TOLERANCE),
        )
        manifest["properties"] = {"sequences": VERIFY_N, "seq_len": VERIFY_SEQ_LEN, "p_y1": 0.507}
        return Workload([command], None, manifest)
    if name == "tiny-lm":
        metrics = str(out / "metrics.csv")
        command = Command(
            ["train-tiny", "--annotations", files["annotations"], "--vocab", files["vocab"],
             "--strategy", "mlm", "--steps", str(TINY_STEPS), "--eval-every", str(TINY_EVAL_EVERY),
             "--batch-size", str(TINY_BATCH), "--seed", str(seed), "--output", metrics],
            TINY_STEPS * TINY_BATCH,
            [metrics],
            lambda: checks.check_metrics_csv(metrics, steps=TINY_STEPS, eval_every=TINY_EVAL_EVERY, batch_size=TINY_BATCH),
        )
        return Workload([command], files["vocab"], manifest)
    if name == "patents":
        clean, ipc, pairs = (str(out / f) for f in ("clean.jsonl", "ipc.jsonl", "pairs.jsonl"))
        train, test = str(out / "pairs.train.jsonl"), str(out / "pairs.test.jsonl")
        commands = [
            Command(
                ["normalize", "--input", files["documents"], "--format", "jsonl", "--output", clean],
                len(truth["doc_sentences"]),
                [clean],
                lambda: checks.check_normalized(clean, truth),
            ),
            Command(
                ["make-ipc", "--input", files["patents"], "--output", ipc],
                truth["patents"],
                [ipc],
                lambda: checks.check_ipc(ipc, truth),
            ),
            Command(
                ["make-pairs", "--input", files["patents"], "--seed", str(seed),
                 "--train-frac", str(TRAIN_FRAC), "--output", pairs],
                truth["patents"],
                [pairs, train, test],
                lambda: checks.check_pairs(pairs, train, test, truth, train_frac=TRAIN_FRAC),
            ),
        ]
        return Workload(commands, None, manifest)
    raise ValueError(f"unknown workload: {name}")


WORKLOADS = ("pretrain-lim", "verify-law", "tiny-lm", "patents")


# ---------------------------------------------------------------------------
# Processes


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # One BLAS thread: runs stay single-client with at most nproc processes.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def reference_text() -> str:
    rng = random.Random(7)
    letters = "abcdefghijklmnopqrst"
    return " ".join("".join(rng.choice(letters) for _ in range(rng.randint(2, 9))) for _ in range(REF_WORDS))


def reference_unit(text: str) -> int:
    """A fixed computation of the kind the workloads do: word counts, random draws, JSON."""
    rng = random.Random(11)
    counts: dict[str, int] = {}
    for word in text.split():
        counts[word] = counts.get(word, 0) + 1
    records = [{"ids": [rng.randrange(1000) for _ in range(20)], "word": w} for w in list(counts)[:600]]
    decoded = json.loads(json.dumps(records))
    return len(sorted(counts, key=counts.get)) + len(decoded)


class Reference:
    """Host speed, sampled with ``reference_unit`` between launched processes."""

    def __init__(self) -> None:
        self.text = reference_text()
        reference_unit(self.text)  # warm-up
        self.busy_s = 0.0
        self.units: list[float] = []

    def after(self, wall: float) -> None:
        """Top the reference up to REF_SHARE of the time spent in processes."""
        self.busy_s += wall
        while sum(self.units) < REF_SHARE * self.busy_s:
            t0 = time.perf_counter()
            reference_unit(self.text)
            self.units.append(time.perf_counter() - t0)

    def scale(self) -> float:
        """Factor from raw seconds of this run to reference-speed seconds."""
        return REF_UNIT_S * len(self.units) / sum(self.units)


class Launcher:
    """Client of ``spawn.py``, which runs every command of a run (see there why).

    After each process it samples the host speed (``Reference``).
    """

    def __init__(self, env: dict[str, str], log: Path) -> None:
        self.env, self.log = env, str(log)
        self.reference = Reference()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "spawn.py")], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )

    def run(self, argv: list[str]) -> tuple[int, float, float]:
        """Run one process to exit; return (exit code, wall seconds, max RSS in MB)."""
        request = {"argv": argv, "env": self.env, "cwd": str(ROOT), "log": self.log, "timeout": COMMAND_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the process launcher exited")
        reply = json.loads(reply)
        self.reference.after(reply["wall_s"])
        return reply["rc"], reply["wall_s"], reply["rss_mb"]

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=COMMAND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def setup_probe(vocab: str | None, launcher: Launcher) -> float:
    code = "import sys, lingmask.cli\nfrom lingmask.subword import load_vocab\n"
    if vocab:
        code += "load_vocab(sys.argv[1])\n"
    argv = [sys.executable, "-c", code] + ([vocab] if vocab else [])
    rc, wall, _ = launcher.run(argv)
    if rc != 0:
        raise RuntimeError(f"set-up probe failed with exit code {rc}; see {launcher.log}")
    return wall


def run_rep(workload: Workload, launcher: Launcher, traced_dir: Path | None) -> tuple[Rep, list[int]]:
    rep = Rep()
    codes = []
    for index, command in enumerate(workload.commands):
        if traced_dir is None:
            argv = [sys.executable, "-m", "lingmask.cli", *command.args]
        else:
            stats = traced_dir / f"stats-{index}.json"
            spans = traced_dir / f"spans-{index}.jsonl"
            argv = [sys.executable, str(HERE / "tracer.py"), str(stats), str(spans), "--", *command.args]
        rc, wall, rss = launcher.run(argv)
        codes.append(rc)
        rep.wall_s += wall
        rep.peak_rss_mb = max(rep.peak_rss_mb, rss)
        rep.items += command.items
        if traced_dir is not None and rc == 0:
            with open(stats, encoding="utf-8") as handle:
                rep.traced.append(json.load(handle))
            rep.spans.append(str(spans))
    return rep, codes


def output_digest(command: Command) -> list[str]:
    return [gen.sha256_file(path) if os.path.exists(path) else "missing" for path in command.outputs]


def score(workload: Workload, rep: Rep, codes: list[int], reference: list | None, problems: list[str]) -> list:
    """Count a repetition's failed items and return the reference digests.

    The first repetition (no reference yet) is checked in full and its output
    digests become the reference; a later one fails every item of a command
    whose outputs are not byte-identical to the reference.
    """
    digests = [output_digest(command) for command in workload.commands]
    for index, (command, rc) in enumerate(zip(workload.commands, codes)):
        if reference is None:
            failed, found = checks.score_command(rc, command.items, command.check)
        elif rc != 0:
            failed, found = command.items, [f"exit code {rc}"]
        elif digests[index] != reference[index]:
            failed, found = command.items, ["output differs from the first run with this seed"]
        else:
            failed, found = 0, []
        rep.failed += failed
        problems.extend(f"{command.args[0]}: {p}" for p in found)
    return digests if reference is None else reference


def tally(reps: list[Rep]) -> tuple[int, int]:
    """(attempted, failed) items over all repetitions, traced ones included."""
    return sum(r.items for r in reps), sum(r.failed for r in reps)


# ---------------------------------------------------------------------------
# Metrics


def percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def per_layer(traced: list[dict], spans: list[str]) -> dict[str, float]:
    """Per-layer metrics of one traced repetition (all its commands merged)."""
    stats: dict[str, list[float]] = {}
    counts: dict[str, float] = {}
    params: dict = {}
    for run in traced:
        for name, values in run["stats"].items():
            totals = stats.setdefault(name, [0, 0.0, 0.0])
            for k in range(3):
                totals[k] += values[k]
        for name, value in run["counts"].items():
            counts[name] = counts.get(name, 0) + value
        params.update(run["params"])
    durations: dict[str, list[float]] = {}
    for path in spans:
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                _, _, name, start, end = json.loads(line)
                durations.setdefault(name, []).append(end - start)

    def calls(name: str) -> float:
        return stats.get(name, [0, 0.0, 0.0])[0]

    def busy(name: str) -> float:
        return stats.get(name, [0, 0.0, 0.0])[1]

    def self_s(name: str) -> float:
        totals = stats.get(name, [0, 0.0, 0.0])
        return totals[1] - totals[2]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def count(name: str) -> float:
        return counts.get(name, 0)

    layer_self = {layer: sum(self_s(n) for n in stats if n.split(".")[0] == layer) for layer in LAYERS}
    wall = sum(run["wall_s"] for run in traced)
    chunk_share = ratio(count("masking.chunk_slots"), count("masking.slots"))
    if params.get("strategy") == "lim" and chunk_share:
        law = params["mask_prob"] * params["p_nc"] / chunk_share
    else:
        law = params.get("mask_prob", 0.0)
    realized = ratio(count("masking.masked_chunk"), count("masking.chunk_slots"))
    words = calls("subword.encode_word")
    metrics = {
        "chunker.parse_annotations.busy_s": busy("chunker.parse_annotations"),
        "chunker.sentences": count("chunker.sentences"),
        "chunker.tokens": count("chunker.tokens"),
        "chunker.chunk_token_share": ratio(count("chunker.chunk_tokens"), count("chunker.tokens")),
        "chunker.unknown_pos": count("chunker.unknown_pos"),
        "subword.encode_word.calls": words,
        "subword.encode_word.busy_s": busy("subword.encode_word"),
        "subword.distinct_word_share": ratio(count("subword.distinct_words"), words),
        "subword.pieces_per_word": ratio(count("subword.pieces"), words),
        "subword.unk_share": ratio(count("subword.unk_words"), words),
        "masking.sequence_from_annotated.self_s": self_s("masking.sequence_from_annotated"),
        "masking.truncated_share": ratio(count("masking.truncated"), count("masking.sequences")),
        "masking.pieces_per_seq": ratio(count("masking.slots"), count("masking.examples")),
        "masking.sequence_rng.calls": calls("masking.sequence_rng"),
        "masking.sequence_rng.busy_s": busy("masking.sequence_rng"),
        "masking.build_example.calls": calls("masking.build_example"),
        "masking.build_example.busy_s": busy("masking.build_example"),
        "masking.build_example.us_p50": 1e6 * percentile(durations.get("masking.build_example", []), 0.50),
        "masking.build_example.us_p99": 1e6 * percentile(durations.get("masking.build_example", []), 0.99),
        "masking.nc_branch_share": ratio(count("masking.nc_examples"), count("masking.examples")),
        "masking.single_pool_share": ratio(count("masking.single_pool"), count("masking.examples")),
        "masking.law_abs_error": abs(realized - law) if count("masking.chunk_slots") else 0.0,
        "masking.example_to_json_line.busy_s": busy("masking.example_to_json_line"),
        "masking.output_bytes": count("masking.output_bytes"),
        "cli.cpu_s": sum(run["cpu_s"] for run in traced),
        "stats.flagged_sequences.busy_s": busy("stats.flagged_sequences"),
        "stats.empirical_mask_report.self_s": self_s("stats.empirical_mask_report"),
        "tinylm.grad_and_step.calls": calls("tinylm.grad_and_step"),
        "tinylm.grad_and_step.busy_s": busy("tinylm.grad_and_step"),
        "tinylm.grad_and_step.ms_p50": 1e3 * percentile(durations.get("tinylm.grad_and_step", []), 0.50),
        "tinylm.grad_and_step.ms_p99": 1e3 * percentile(durations.get("tinylm.grad_and_step", []), 0.99),
        "tinylm.loss_and_grads.busy_s": busy("tinylm.loss_and_grads"),
        "tinylm.evaluate.calls": calls("tinylm.evaluate"),
        "tinylm.evaluate.busy_s": busy("tinylm.evaluate"),
        "tinylm.evaluate.ms_p50": 1e3 * percentile(durations.get("tinylm.evaluate", []), 0.50),
        "tinylm.slots_per_step": ratio(count("tinylm.slots"), count("tinylm.steps")),
        "corpus.normalize_text.calls": calls("corpus.normalize_text"),
        "corpus.normalize_text.busy_s": busy("corpus.normalize_text"),
        "corpus.split_sentences.busy_s": busy("corpus.split_sentences"),
        "datasets.read_patent_records.busy_s": busy("datasets.read_patent_records"),
        "datasets.build_ipc_examples.self_s": self_s("datasets.build_ipc_examples"),
        "datasets.build_similarity_pairs.self_s": self_s("datasets.build_similarity_pairs"),
        "datasets.pairs_kept_share": ratio(count("datasets.pairs") / 2, count("datasets.pair_candidates")),
        "trace.wall_s": wall,
        "trace.unattributed_s": wall - sum(layer_self.values()),
    }
    metrics.update({f"{layer}.self_s": value for layer, value in layer_self.items()})
    return metrics


# ---------------------------------------------------------------------------


def environment(seed: int, workload: str, trace: int, nproc: int, cpu: int) -> dict:
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
        else:
            commit = ref
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.machine(),
        "nproc": nproc,
        "pinned_cpu": cpu,
        "blas_threads": {var: child_env()[var] for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": commit,
    }


def measure(args: argparse.Namespace, launcher: Launcher, run_dir: Path, results: Path) -> tuple[dict, dict]:
    """Run one workload; return the result line and the full record."""
    inputs, out = run_dir / "inputs", run_dir / "out"
    inputs.mkdir()
    out.mkdir()
    workload = build_workload(args.workload, args.seed, inputs, out)
    started = time.perf_counter()

    setup_probe(workload.vocab, launcher)  # warm-up: byte-compiles the package once
    # Probes are spread between the repetitions so that they sample the same
    # machine conditions as the commands.
    probes = [setup_probe(workload.vocab, launcher) for _ in range(3)]

    problems: list[str] = []
    plain: list[Rep] = []
    traced: list[Rep] = []
    reference = None
    clock = time.perf_counter()
    durations: list[float] = []
    while True:
        rep_started = time.perf_counter()
        rep, codes = run_rep(workload, launcher, None)
        reference = score(workload, rep, codes, reference, problems)
        plain.append(rep)
        if args.trace:
            traced_dir = run_dir / f"trace-{len(traced)}"
            traced_dir.mkdir()
            rep, codes = run_rep(workload, launcher, traced_dir)
            score(workload, rep, codes, reference, problems)
            traced.append(rep)
        probes.append(setup_probe(workload.vocab, launcher))
        durations.append(time.perf_counter() - rep_started)
        # Stop before a repetition that would end past --seconds.
        elapsed = time.perf_counter() - clock
        enough = len(plain) >= (1 if args.trace else MIN_REPS)
        if enough and elapsed + statistics.median(durations) > args.seconds:
            break
        if time.perf_counter() - started > STOP_STARTING_AFTER_S:
            break

    while len(probes) < SETUP_PROBES:
        probes.append(setup_probe(workload.vocab, launcher))
    scale = launcher.reference.scale()
    setup = statistics.median(probes)
    attempted, failed = tally(plain + traced)
    n_commands = len(workload.commands)
    wall = statistics.mean(r.wall_s for r in plain)
    if args.trace:
        # All per-layer figures come from one traced repetition, the fastest,
        # so that its layer self times add up to its traced wall time.
        complete = [r for r in traced if len(r.traced) == n_commands]
        metrics = dict.fromkeys(PER_LAYER_UNITS, 0.0)
        if complete:
            best = min(complete, key=lambda r: sum(run["wall_s"] for run in r.traced))
            metrics.update(per_layer(best.traced, best.spans))
            for index, path in enumerate(best.spans):
                shutil.copy(path, results.with_suffix(f".spans-{index}.jsonl"))
        metrics["trace.overhead_s"] = statistics.mean(r.wall_s for r in traced) - wall
        units = PER_LAYER_UNITS
    else:
        busy = sum(r.wall_s for r in plain) - len(plain) * n_commands * setup
        metrics = {
            "wall_s": wall * scale,
            "setup_s": setup * scale,
            "items_per_s": sum(r.items for r in plain) / (busy * scale),
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in plain),
            "ok_frac": 1.0 - failed / attempted,
        }
        units = END_TO_END_UNITS
    record = {
        "environment": environment(args.seed, args.workload, args.trace, *args.cpus),
        "manifest": workload.manifest,
        "setup_probes_s": probes,
        "reference": {"unit_s": launcher.reference.units, "scale": scale, "ref_unit_s": REF_UNIT_S},
        "reps": [{"wall_s": r.wall_s, "peak_rss_mb": r.peak_rss_mb, "items": r.items, "failed": r.failed} for r in plain],
        "traced_reps": [{"wall_s": r.wall_s, "items": r.items, "failed": r.failed} for r in traced],
        "problems": problems,
        "metrics": metrics,
    }
    with open(results, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    return result, record


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="lingmask benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "lingmask" / "cli.py").is_file():
        print(f"lingmask sources not found under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    # The benchmark and every process it starts share one CPU (see the module
    # docstring); nproc is recorded as it was before.
    allowed = os.sched_getaffinity(0)
    args.cpus = (len(allowed), min(allowed))
    os.sched_setaffinity(0, {min(allowed)})

    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    results = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    run_dir = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir()
    launcher = Launcher(child_env(), run_dir / "stderr.log")
    try:
        result, record = measure(args, launcher, run_dir, results)
    finally:
        launcher.close()
        shutil.rmtree(run_dir, ignore_errors=True)

    env = record["environment"]
    print(f"lingmask benchmark  workload={args.workload} seed={args.seed} trace={args.trace}")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items() if k not in ("workload", "seed", "trace")))
    for name, entry in record["manifest"]["inputs"].items():
        print(f"input {name}: {entry['file']} sha256={entry['sha256']} bytes={entry['bytes']}")
    print("input properties: " + json.dumps(record["manifest"]["properties"], sort_keys=True))
    print(f"repetitions: {len(record['reps'])} untraced, {len(record['traced_reps'])} traced")
    walls = [r["wall_s"] for r in record["reps"]]
    probes = record["setup_probes_s"]
    units = record["reference"]["unit_s"]
    print(
        f"raw wall_s over {len(walls)} repetitions: best {min(walls):.4f} mean {statistics.mean(walls):.4f} "
        f"slowest {max(walls):.4f}; raw setup_s over {len(probes)} probes: best {min(probes):.4f} "
        f"median {statistics.median(probes):.4f} slowest {max(probes):.4f}"
    )
    print(
        f"reference: {len(units)} units, mean {statistics.mean(units):.5f} s (reference host {REF_UNIT_S} s); "
        f"times below are raw x {record['reference']['scale']:.4f}"
    )
    for problem in record["problems"][:20]:
        print(f"problem: {problem}")
    for name, entry in result["metrics"].items():
        print(f"{args.workload}  {name} = {entry['value']:.6g} {entry['unit']}")
    print(f"{args.workload}  failed_frac = {result['failed'] / result['attempted']:.6g} ratio ({result['failed']}/{result['attempted']})")
    print(f"record: {results.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
