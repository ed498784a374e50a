"""serve-gallery: the compile daemon under a closed loop of two clients.

Setup starts a clean daemon (two workers, a store in the run's scratch
directory, no chaos) in its own process, compiles every gallery program
in process for the reference answers and sends one untimed warm-up pass.
The timed region is a closed loop: two client threads send ``POST
/v1/compile`` requests cycling through the gallery in a seeded order,
every third one resilient.  Each ``ok`` response must equal the
in-process compile of the same source.

Round trips are scaled by the host speed like every other time
(``core.HostSpeed``), sampled in the client thread just before each
request, so under load.  The scaled round trip still shows a daemon
regression in full: in the closed loop the daemon always has two
requests in flight, so the loop competes with the same number of busy
threads however much CPU a request takes.  README.md, "Steadiness",
gives the check (a worker that burns 3 ms more CPU per request) and why
samples taken while the daemon is idle do not work on this host.

Like ``repro-fuse loadgen`` (urllib), clients open one connection per
request.  On a keep-alive connection every response currently waits
~40 ms: the daemon writes headers and body in two sends, and Nagle's
algorithm holds the body until the client's delayed ACK.
"""

from __future__ import annotations

import http.client
import json
import re
import subprocess
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from perfbench import inputs, oracles
from perfbench.core import ROOT, child_env, median, p90, typical
from perfbench.wl_compile import session
from perfbench.workload import Workload

CLIENTS = 2
WORKERS = 2
START_TIMEOUT_S = 60.0
_STORE_HITS = re.compile(r"store: (\d+) L2 hit")


class Daemon:
    """The daemon subprocess: started, probed, and stopped with its workers."""

    def __init__(self, store: str) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "serve_daemon.py"),
             "--store", store, "--workers", str(WORKERS)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=child_env(), cwd=str(ROOT),
            text=True,
        )
        line = self._readline(START_TIMEOUT_S)
        if not line:
            self.stop()
            raise RuntimeError("serve daemon did not start")
        info = json.loads(line)
        host_port = info["url"].split("//", 1)[1]
        self.host, port = host_port.rsplit(":", 1)
        self.port = int(port)
        self.peak_rss_mb: Optional[float] = None

    def _readline(self, timeout: float) -> str:
        box: List[str] = []
        reader = threading.Thread(target=lambda: box.append(self.proc.stdout.readline()))
        reader.daemon = True
        reader.start()
        reader.join(timeout)
        return box[0] if box else ""

    def stop(self) -> None:
        """Close stdin (the daemon's stop signal) and wait for it to exit."""
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                line = self._readline(30.0)
                if line:
                    self.peak_rss_mb = float(json.loads(line)["peakRssMb"])
                self.proc.wait(timeout=30.0)
            except (subprocess.TimeoutExpired, OSError, ValueError, KeyError):
                self.proc.kill()
                self.proc.wait(timeout=30.0)
        self.proc.stdout.close()

    def call(self, method: str, path: str, body: Optional[Dict[str, Any]] = None) -> Any:
        """One request on a fresh connection; returns ``(status, JSON body)``."""
        conn = http.client.HTTPConnection(self.host, self.port, timeout=60.0)
        try:
            data = None if body is None else json.dumps(body).encode()
            conn.request(method, path, body=data, headers={
                "Content-Type": "application/json", "Connection": "close"})
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read())
        finally:
            conn.close()

    def compile(self, body: Dict[str, Any]) -> Dict[str, Any]:
        return self.call("POST", "/v1/compile", body)[1]


def request(key: str, src: str, resilient: bool) -> Dict[str, Any]:
    return {"name": key, "source": src, "resilient": resilient}


class ServeGallery(Workload):
    name = "serve-gallery"

    daemon: Optional[Daemon] = None
    #: Peak memory of the last daemon stopped (the one the timed region used).
    last_peak: Optional[float] = None

    def setup(self) -> None:
        work = self.fresh_dir("serve")
        self.programs = inputs.gallery_sources()
        self.expected: Dict[Tuple[str, bool], Dict[str, Any]] = {}
        for key, src in self.programs:
            for resilient in (False, True):
                s = session(work / "reference.db")
                out = s.fuse_program_resilient(src) if resilient else s.fuse_program(src)
                self.expected[(key, resilient)] = oracles.serve_reference(out, resilient)
            self.lap()
        self.daemon = Daemon(str(work / "store.db"))
        self.lap()
        for key, src in self.programs:
            for resilient in (False, True):
                resp = self.daemon.compile(request(key, src, resilient))
                self.tally.check(
                    oracles.serve_problems(resp, self.expected[(key, resilient)]),
                    f"{key} warm-up",
                )
            self.lap()

    def teardown(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()
            self.last_peak = self.daemon.peak_rss_mb
            self.daemon = None

    def peak_rss_mb(self) -> Optional[float]:
        return self.last_peak

    def measure(self, seconds: float) -> Tuple[Dict[str, float], Dict[str, float]]:
        assert self.daemon is not None
        order = inputs.round_order(self.seed, 0, self.programs)
        lock = threading.Lock()
        state = {"next": 0}
        rows: List[Dict[str, Any]] = []
        deadline = time.perf_counter() + seconds

        def client() -> None:
            daemon = self.daemon
            while time.perf_counter() < deadline:
                with lock:
                    k = state["next"]
                    state["next"] += 1
                key, src = order[k % len(order)]
                resilient = k % 3 == 2
                try:
                    with self.rec.span("serve.request", input=key,
                                       resilient=resilient) as ms:
                        resp = daemon.compile(request(key, src, resilient))
                except (OSError, http.client.HTTPException, ValueError) as exc:
                    self.tally.fail(f"{key}: {type(exc).__name__}: {exc}")
                    continue
                problems = oracles.serve_problems(resp, self.expected[(key, resilient)])
                self.tally.check(problems, f"{key} {'resilient' if resilient else 'strict'}")
                with lock:
                    rows.append({"rtt": ms[0], "raw": ms[1], "key": key,
                                 "resilient": resilient, "ok": not problems, "resp": resp})

        start = time.perf_counter()
        threads = [threading.Thread(target=client, name=f"client-{i}") for i in range(CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(seconds + 120.0)
        elapsed = time.perf_counter() - start
        return self.report(rows, elapsed)

    def report(
        self, rows: List[Dict[str, Any]], elapsed: float
    ) -> Tuple[Dict[str, float], Dict[str, float]]:
        def by_class(value: Callable[[Dict[str, Any]], float],
                     keep: Callable[[Dict[str, Any]], bool]) -> Dict[str, List[float]]:
            out: Dict[str, List[float]] = {}
            for r in rows:
                if keep(r):
                    out.setdefault(f"{r['key']}/{r['resilient']}", []).append(value(r))
            return out

        # envelope times are the daemon's own wall clock: compare raw with raw
        for r in rows:
            e = r["resp"]
            r["overhead"] = (None if e.get("queueMs") is None or e.get("workerMs") is None
                             else r["raw"] - e["queueMs"] - e["workerMs"])
        timed = [r for r in rows if r["overhead"] is not None]

        def rtt(r: Dict[str, Any]) -> float:
            return float(r["rtt"])

        def scaled_overhead(r: Dict[str, Any]) -> float:
            return float(r["overhead"] * r["rtt"] / r["raw"])

        e2e = {
            "latency_ms_p50": typical(by_class(rtt, lambda r: True)),
            "latency_ms_p90": p90([r["rtt"] for r in rows]),
            "mode2_ms_p50": typical(by_class(rtt, lambda r: r["resilient"])),
            "mode3_ms_p50": typical(by_class(rtt, lambda r: not r["resilient"])),
            "mode4_ms_p50": typical(by_class(scaled_overhead,
                                             lambda r: r["overhead"] is not None)),
        }
        envs = [r["resp"] for r in rows]
        per = {
            "serve.queue_ms": median([r["resp"]["queueMs"] for r in timed]),
            "serve.worker_ms": median([r["resp"]["workerMs"] for r in timed]),
            "serve.overhead_ms": median([r["overhead"] for r in timed]),
            "serve.retries": float(sum(int(e.get("retries") or 0) for e in envs)),
            "serve.store_hits": float(sum(
                int(m.group(1)) for e in envs for note in e.get("notes") or []
                for m in [_STORE_HITS.search(note)] if m
            )),
            "serve.shed": float(sum(1 for e in envs if e.get("status") == "shed")),
        }
        self.info = {"requests": len(rows),
                     "ok_per_s": round(sum(1 for r in rows if r["ok"]) / elapsed, 2)}
        return e2e, per
