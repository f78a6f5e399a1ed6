"""Start timed child processes on behalf of the benchmark; keep this process small.

    python3 perfbench/launcher.py   (started by harness.Launcher, not by hand)

Reads one JSON request per line on stdin ({"cmd", "stdout", "stderr",
"timeout_s"}), runs the command to its exit, and answers with one JSON line
({"wall_s", "cpu_s", "rss_kb", "code"}).  Exits at the end of stdin.

Why a separate process: the kernel's peak-RSS figure for a child that was
started by vfork (as subprocess does) includes the peak RSS of the process
that started it.  The benchmark holds whole width tables while it checks
them; this helper never does, so the figure it reports is the child's own.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time


def run(cmd: list, stdout: str, stderr: str, timeout_s: float) -> dict:
    """Wall time from just before the fork until the exit is seen; rusage of the child."""
    lock, done = threading.Lock(), []
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err)

        def kill():
            with lock:
                if not done:
                    os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(timeout_s, kill)
        timer.start()
        try:
            # wait without reaping, so the timer can never signal a reused pid
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - start
        finally:
            with lock:
                done.append(True)
            timer.cancel()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_kb": usage.ru_maxrss, "code": proc.returncode}


def main() -> int:
    for line in sys.stdin:
        reply = run(**json.loads(line))
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
