"""Peak memory of verify-masking as the number of sequences grows.

Usage: python3 tools/rss_by_law_size.py [--sizes 50000 500000]
           [--max-growth-mb MB]

Runs ``verify-masking --n N`` at each size under ``lim``, with the
benchmark's ``--p-nc`` (``perfbench/run.py``'s ``P_NC``), and under
``mlm``, each run its own child process; a run's peak RSS is the child's
``ru_maxrss`` (``rss_by_corpus_size.peak_rss``).

Prints one JSON object: per strategy, each size's peak RSS (MB) and wall
seconds, and ``growth_mb``, the largest size's peak minus the smallest's.
With ``--max-growth-mb``, exits 1 when either strategy's growth exceeds it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

from rss_by_corpus_size import P_NC, ROOT, peak_rss

STRATEGIES = {"lim": ["--strategy", "lim", "--p-nc", str(P_NC)], "mlm": ["--strategy", "mlm"]}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[50_000, 500_000])
    parser.add_argument("--max-growth-mb", type=float, default=None)
    args = parser.parse_args(argv)

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    sizes = sorted(args.sizes)
    report: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        for strategy, options in STRATEGIES.items():
            runs = {}
            for size in sizes:
                command = [
                    sys.executable, "-m", "lingmask.cli", "verify-masking", *options,
                    "--n", str(size), "--tolerance", "1", "--output", str(Path(tmp) / "report.json"),
                ]
                rss, wall = peak_rss(command, env)
                runs[str(size)] = {"peak_rss_mb": round(rss, 2), "wall_s": round(wall, 3)}
            growth = runs[str(sizes[-1])]["peak_rss_mb"] - runs[str(sizes[0])]["peak_rss_mb"]
            report[strategy] = {"sizes": runs, "growth_mb": round(growth, 2)}
    print(json.dumps(report, indent=2))
    over = [s for s, r in report.items() if args.max_growth_mb is not None and r["growth_mb"] > args.max_growth_mb]
    for strategy in over:
        print(
            f"{strategy}: peak RSS grew by {report[strategy]['growth_mb']} MB from n={sizes[0]} to n={sizes[-1]}"
            f" (allowed: {args.max_growth_mb} MB)",
            file=sys.stderr,
        )
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
