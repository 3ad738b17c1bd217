"""Run one command; print its wall time, peak RSS and exit code as one JSON line.

    python3 bench/spawn.py <log-file> <timeout-seconds> <command...>

The runner starts every timed command through this small process. Linux
carries a process's peak-RSS record across fork and exec, so a command
started directly by the runner, which holds the corpora and the check data,
would report the runner's peak RSS whenever that is the larger. This process
stays small, so the command's reported peak is its own.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time


def main(argv: list[str]) -> int:
    log, timeout_s, command = argv[0], float(argv[1]), argv[2:]
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(command, stdin=subprocess.DEVNULL, stdout=out, stderr=out)
        signal.signal(signal.SIGTERM, lambda *_: proc.kill())
        watchdog = threading.Timer(timeout_s, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"wall_s": wall, "rss_kb": usage.ru_maxrss, "exit": proc.returncode}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
