"""Process launcher for the benchmark.

Reads one JSON request per line on stdin (``argv``, ``env``, ``cwd``, ``log``,
``timeout``), runs that command to exit with its output appended to ``log``,
and answers with one JSON line: exit code, wall seconds from launch to exit,
and the child's peak RSS from ``wait4``.

It is a separate, small process because a child's ``ru_maxrss`` starts from
the memory of the process that forked it: forking from the benchmark itself,
which holds the generated inputs' truth, would report the benchmark's size
instead of the command's.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["log"], "ab") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                request["argv"],
                env=request["env"],
                cwd=request["cwd"],
                stdin=subprocess.DEVNULL,
                stdout=log,
                stderr=log,
            )
            timer = threading.Timer(request["timeout"], proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"rc": proc.returncode, "wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0}
        print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
