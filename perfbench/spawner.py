"""Runs the benchmark's child processes, one at a time, on behalf of run.py.

On Linux a child's ``ru_maxrss`` also counts the resident set of the process
that spawned it, as it stood at exec. run.py holds numpy, scipy and the
reference distances, so it spawns every child through this small process
instead; each reported peak RSS is then the child's own.

Protocol, one JSON object per line: read ``{"argv", "cwd", "out", "err"}`` on
stdin, run the command with stdout and stderr sent to the named files, reap it
with ``os.wait4`` and answer ``{"code", "wall_s", "cpu_s", "maxrss_kb"}`` on stdout.
Exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["out"], "wb") as out, open(req["err"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                req["argv"], cwd=req["cwd"], stdin=subprocess.DEVNULL, stdout=out, stderr=err
            )
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {
            "code": proc.returncode,
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss,
        }
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
