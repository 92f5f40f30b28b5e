"""Spawns the CLI children on behalf of the benchmark process.

On Linux a child's ru_maxrss starts from the peak RSS of the process it was
spawned from, so children spawned by the benchmark process, which holds the
large instances in memory, would report the benchmark's memory as theirs.
This launcher is started while the benchmark is still small and spawns every
child from its own small address space.

Protocol: one JSON request per line on stdin, {"argv", "cwd", "env",
"stdout", "stderr", "timeout"}; one JSON reply per line on stdout,
{"code", "start", "end", "rss_mb"}, with start and end as time.monotonic()
stamps. It exits when stdin closes.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time


def spawn(req: dict) -> dict:
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(req["argv"], stdout=out, stderr=err,
                                cwd=req["cwd"], env=req["env"])
        timer = threading.Timer(req["timeout"], os.kill, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "start": start, "end": end, "rss_mb": usage.ru_maxrss / 1024}


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(spawn(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
