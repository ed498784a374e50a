"""One compile daemon for the serve-gallery workload, in its own process.

    python3 perfbench/serve_daemon.py --store PATH [--workers 2]

Prints ``{"url": ..., "pid": ...}`` on one line once it serves, runs until
its standard input closes, then prints ``{"peakRssMb": ...}`` -- the peak
resident memory summed over the daemon and its worker processes -- and
exits.  The store is handed to the service through ``ServeConfig`` so
nothing is exported through the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import List


def child_pids(pid: int) -> List[int]:
    out: List[int] = []
    for task in Path(f"/proc/{pid}/task").glob("*/children"):
        out += [int(x) for x in task.read_text().split()]
    return out


def peak_kib(pid: int) -> int:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", required=True)
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args()

    from repro.serve.daemon import ServeDaemon
    from repro.serve.service import ServeConfig

    daemon = ServeDaemon(ServeConfig(workers=args.workers, store_path=args.store)).start()
    print(json.dumps({"url": daemon.url, "pid": os.getpid()}), flush=True)
    try:
        # wait for EOF on the raw descriptor: a blocked sys.stdin.read()
        # holds the buffer lock that forked pool workers need to close stdin
        while os.read(0, 4096):
            pass
        pids = [os.getpid()] + child_pids(os.getpid())
        peak = sum(peak_kib(p) for p in pids) / 1024.0
    finally:
        daemon.shutdown()
    for pid in pids[1:]:  # the workers shutdown killed: reap them before exiting
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass  # already reaped by the pool
    print(json.dumps({"peakRssMb": peak, "processes": len(pids)}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
