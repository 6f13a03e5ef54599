"""Child-process starter for run.py.

    python perfbench/spawner.py

Reads one JSON request per stdin line, {"argv", "out", "err", "timeout"},
runs `python argv` with stdout and stderr sent to the two files, and writes
one JSON reply per stdout line, {"exit", "wall_s", "peak_rss_mb"}.  Any
"{spawn_ns}" in argv becomes the CLOCK_MONOTONIC reading taken just before
the start.  A child that outlives its timeout is killed and reported with
exit null.

Peak RSS comes from os.wait4 of that one child.  Linux carries the peak RSS
of the process that starts a child into the child's own figure, so children
start from this small process rather than from run.py, whose memory grows
while it checks large outputs.
"""
import json
import os
import signal
import sys
import time


class Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise Timeout


def _terminate(signum, frame):
    raise SystemExit(1)


def run(request):
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, request["out"], flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, request["err"], flags, 0o644)]
    start = time.monotonic_ns()
    argv = [arg.replace("{spawn_ns}", str(start)) for arg in request["argv"]]
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], os.environ,
                         file_actions=actions)
    code = usage = None
    signal.setitimer(signal.ITIMER_REAL, request["timeout"])
    try:
        _, status, usage = os.wait4(pid, 0)
        code = os.waitstatus_to_exitcode(status)
    except Timeout:
        pass
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if usage is None:  # timed out, or this process is being stopped
            os.kill(pid, signal.SIGKILL)
            _, _, usage = os.wait4(pid, 0)
    return {"exit": code, "wall_s": (time.monotonic_ns() - start) / 1e9,
            "peak_rss_mb": usage.ru_maxrss / 1024.0}


def main():
    signal.signal(signal.SIGALRM, _alarm)
    signal.signal(signal.SIGTERM, _terminate)
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
