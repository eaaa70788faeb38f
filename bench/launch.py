"""Spawns and times the CLI commands for run.py, from a process that stays small.

Linux carries a process's peak resident set across exec. A child spawned by
the benchmark would therefore count the benchmark's own peak in its
ru_maxrss, and the benchmark's checks hold large arrays. A child spawned from
here counts only its own peak.

Protocol: one JSON request per stdin line, {"argv": [...], "stdout": path or
null}; one JSON reply per stdout line, {"wall", "cpu", "rss_mb", "code"}.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time

COMMAND_LIMIT = 150.0  # seconds before a hung command's process group is killed


def kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run(argv: list, stdout_path) -> dict:
    """Wall time, user + system CPU, peak RSS and exit code of one command and its workers.

    os.wait4 reports the rusage of the child together with the children it
    reaped, so pool workers are included in CPU and in the peak RSS.
    """
    out = open(stdout_path, "wb") if stdout_path else subprocess.DEVNULL
    os.sync()  # earlier steps' pending writeback stays out of this step's time
    try:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, start_new_session=True)
        timer = threading.Timer(COMMAND_LIMIT, kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:  # stopping: take the command down too
            kill_group(proc.pid)
            os.waitpid(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if stdout_path:
            out.close()
    kill_group(proc.pid)  # pool workers outliving their parent
    return {"wall": wall, "cpu": ru.ru_utime + ru.ru_stime,
            "rss_mb": ru.ru_maxrss / 1024.0, "code": proc.returncode}


def main() -> None:
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    for line in sys.stdin:
        req = json.loads(line)
        print(json.dumps(run(req["argv"], req["stdout"])), flush=True)


if __name__ == "__main__":
    main()
