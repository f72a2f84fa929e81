"""Stage launcher: runs one command per request and reports its cost.

Reads one JSON request per line on stdin (``argv``, ``env``, ``log``), runs
the command with its output sent to ``log``, and answers with one JSON line
holding the exit code, the wall time and the child's own peak RSS.

On Linux a child's ``ru_maxrss`` starts from the memory high-water mark of
the image it replaces at exec, which is its parent's (shared after vfork,
copied after fork).  Stage processes spawned by the benchmark process, which
holds the generated corpus and the numpy counts, would all report at least
its peak; spawned by this small process they report their own.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["log"], "w", encoding="utf-8") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(
                request["argv"], env=request["env"],
                stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT,
            )
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"returncode": proc.returncode, "wall_s": wall, "peak_mb": usage.ru_maxrss / 1024.0}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
