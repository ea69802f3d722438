"""Peak memory of make-pretraining-data as the annotation corpus grows.

Usage: python3 tools/rss_by_corpus_size.py [--sizes 20000 100000] [--seed 1]
           [--runs 1] [--max-growth-mb MB]

Generates the benchmark's ``pretrain`` corpus (``perfbench/gen.py``: same
vocabulary and Zipfian draws) at each number of sentences, by overriding the
generator's sentence count at run time, and runs ``make-pretraining-data
--strategy lim`` with the benchmark's ``--p-nc`` (``perfbench/run.py``'s
``P_NC``) on each as its own child process. A run's peak RSS is the child's
``ru_maxrss``. Generation runs in a separate process too: a child's
``ru_maxrss`` starts from the memory of the process that forked it, so this
process stays small.

Prints one JSON object: per size, each run's peak RSS (MB) and wall seconds,
and ``growth_mb``, the largest size's median peak minus the smallest's. With
``--max-growth-mb``, exits 1 when the growth exceeds it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from run import P_NC  # noqa: E402  the benchmark's pretrain-lim setting


def generate(n_sentences: int, seed: int, out_dir: str) -> None:
    """Write ``pretrain.tsv`` and ``pretrain.vocab.txt`` with ``n_sentences``."""
    import gen

    _, *rest = gen._CORPUS_SIZES["pretrain"]
    gen._CORPUS_SIZES["pretrain"] = (n_sentences, *rest)
    gen.make_corpus(seed, out_dir, "pretrain")


def peak_rss(argv: list[str], env: dict[str, str]) -> tuple[float, float]:
    """Run ``argv`` to exit; return its peak RSS in MB and its wall seconds."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    return usage.ru_maxrss / 1024.0, wall


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[20_000, 100_000])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--runs", type=int, default=1, help="runs per size")
    parser.add_argument("--max-growth-mb", type=float, default=None)
    # Internal: generate one corpus into DIR, in a process of its own.
    parser.add_argument("--generate", nargs=2, metavar=("SENTENCES", "DIR"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.generate:
        generate(int(args.generate[0]), args.seed, args.generate[1])
        return 0

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    sizes = sorted(args.sizes)
    report: dict = {"seed": args.seed, "sizes": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for size in sizes:
            out = Path(tmp) / str(size)
            out.mkdir()
            subprocess.run(
                [sys.executable, __file__, "--generate", str(size), str(out), "--seed", str(args.seed)],
                check=True,
            )
            command = [
                sys.executable, "-m", "lingmask.cli", "make-pretraining-data",
                "--annotations", str(out / "pretrain.tsv"), "--vocab", str(out / "pretrain.vocab.txt"),
                "--strategy", "lim", "--p-nc", str(P_NC), "--seed", str(args.seed),
                "--output", str(out / "examples.jsonl"),
            ]
            runs = [peak_rss(command, env) for _ in range(args.runs)]
            report["sizes"][str(size)] = {
                "peak_rss_mb": [round(rss, 2) for rss, _ in runs],
                "wall_s": [round(wall, 3) for _, wall in runs],
            }
    medians = [statistics.median(report["sizes"][str(s)]["peak_rss_mb"]) for s in sizes]
    report["growth_mb"] = round(medians[-1] - medians[0], 2)
    print(json.dumps(report, indent=2))
    if args.max_growth_mb is not None and report["growth_mb"] > args.max_growth_mb:
        print(
            f"peak RSS grew by {report['growth_mb']} MB from {sizes[0]} to {sizes[-1]} sentences"
            f" (allowed: {args.max_growth_mb} MB)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
