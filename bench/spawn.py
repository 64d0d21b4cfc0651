"""Child-process launcher for the benchmark.

Reads one JSON job per line on stdin (``argv``, ``out``, ``err``) and
answers each with one JSON line: wall seconds, peak RSS in MB and exit
code.  On Linux a child's ``ru_maxrss`` starts from the resident size of
the process that spawned it (exec records the old address space's peak),
so children are launched from this small process rather than from the
benchmark, whose own size grows with the outputs it checks.
"""

import json
import os
import subprocess
import sys
import threading
import time

#: a command that runs longer than this is killed and reported as failed
TIMEOUT_S = 150.0


def main() -> None:
    for line in sys.stdin:
        job = json.loads(line)
        with open(job["out"], "wb") as out, open(job["err"], "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(job["argv"], stdout=out, stderr=err, stdin=subprocess.DEVNULL)
            timer = threading.Timer(TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024.0, "code": proc.returncode}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
