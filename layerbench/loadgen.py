"""Daemon control and the open-loop load generator for the service workloads.

The generator is one process with two threads, each holding at most one
HTTP connection at a time: a *sender* that POSTs uploads, and a *poller*
that GETs ``/result/<id>`` for every outstanding submission once per
round, one round per millisecond, until the result is terminal.

* **Open loop**: the sender fires each request at its scheduled instant
  whether or not earlier ones have finished, and a request's latency runs
  from that *scheduled* instant to the poll that sees its verdict, so a
  stall also charges the requests queued behind it.  How late the sender
  ran is recorded per request.
* **Saturation**: the sender keeps a fixed number of submissions
  outstanding, sending the next one as soon as the poller retires one.

All instants are ``time.monotonic`` readings, the clock the layer
ledger's spans use.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

#: A submission with no terminal result after this long counts as failed.
ANSWER_TIMEOUT_S = 30.0


@dataclass
class Request:
    """One upload and the answer the daemon must give for it."""

    body: bytes
    verdict: str
    events: int
    kind: str
    #: scheduled offset from the open phase's start (None: saturation)
    at: Optional[float] = None
    # Filled in by the generator.
    scheduled: float = 0.0
    post_sent: float = 0.0
    post_done: float = 0.0
    seen: float = 0.0
    status: int = 0
    sid: str = ""
    result: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return (
            self.status == 202
            and self.result.get("state") == "done"
            and self.result.get("verdict") == self.verdict
            and self.result.get("events") == self.events
        )


def vm_hwm_mb(pid: int) -> float:
    """A live process's peak resident set (``VmHWM``); 0 once it has
    exited (a zombie has no memory map left to report)."""
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0.0
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def _call(port: int, method: str, path: str, body: Optional[bytes] = None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=ANSWER_TIMEOUT_S)
    try:
        conn.request(method, path, body=body)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


class Daemon:
    """One ``repro serve`` process, from spawn to its first 200 on
    ``/healthz`` (:attr:`setup_s`) to a graceful stop."""

    def __init__(self, argv: List[str], cwd: Path, env: Dict[str, str],
                 log: Path) -> None:
        self.started = start = time.monotonic()
        self._log = log
        with open(log, "wb") as out:
            self.proc = subprocess.Popen(
                argv, cwd=str(cwd), env=env, stdout=out,
                stderr=subprocess.STDOUT, start_new_session=True,
            )
        try:
            self.port = self._await_port(start + 60.0)
            while _call(self.port, "GET", "/healthz")[0] != 200:
                time.sleep(0.002)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.monotonic() - start

    def _await_port(self, deadline: float) -> int:
        marker = b"listening on http://"
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"daemon exited early:\n{self._log.read_text()}"
                )
            for line in self._log.read_bytes().splitlines():
                if marker in line:
                    address = line.split(marker, 1)[1].split()[0]
                    return int(address.rsplit(b":", 1)[1])
            time.sleep(0.002)
        raise RuntimeError("daemon did not report its port within 60 s")

    def scrape(self) -> Dict[str, float]:
        """Unlabeled samples of the daemon's ``/metrics`` exposition."""
        status, body = _call(self.port, "GET", "/metrics")
        samples: Dict[str, float] = {}
        for line in body.decode().splitlines():
            if line and not line.startswith("#") and "{" not in line:
                name, _, value = line.partition(" ")
                samples[name] = float(value)
        return samples

    def peak_rss_mb(self) -> float:
        """Peak resident set (``VmHWM``) of the daemon plus its workers."""
        pids = [self.proc.pid]
        children = Path(f"/proc/{self.proc.pid}/task/{self.proc.pid}/children")
        pids += [int(p) for p in children.read_text().split()]
        return sum(vm_hwm_mb(pid) for pid in pids)

    def stop(self) -> None:
        """SIGTERM (graceful drain), then make sure the whole process
        group is gone and reaped."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()


class Generator:
    """Drives one daemon through an open-loop phase then a saturation
    phase; every request's outcome lands on its :class:`Request`."""

    def __init__(self, port: int, outstanding: int) -> None:
        self.port = port
        self._cond = threading.Condition()
        self._pending: List[Request] = []
        self._slots = threading.Semaphore(outstanding)
        self._sending = False

    def _post(self, request: Request) -> None:
        request.post_sent = time.monotonic()
        try:
            status, body = _call(self.port, "POST", "/submit", request.body)
        except OSError:
            status, body = 0, b"{}"
        request.post_done = time.monotonic()
        request.status = status
        if status == 202:
            request.sid = json.loads(body)["id"]
            with self._cond:
                self._pending.append(request)
                self._cond.notify()
        else:
            self._retire(request)

    def _retire(self, request: Request) -> None:
        if request.at is None:  # saturation requests hold a slot
            self._slots.release()

    def _send_open(self, plan: List[Request], start: float) -> None:
        for request in plan:
            request.scheduled = start + request.at
            delay = request.scheduled - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            self._post(request)

    def _send_saturated(self, plan: List[Request], end: float) -> List[Request]:
        sent = []
        for request in plan:
            while not self._slots.acquire(timeout=0.05):
                if time.monotonic() >= end:
                    return sent
            if time.monotonic() >= end:
                self._slots.release()
                return sent
            request.scheduled = time.monotonic()
            self._post(request)
            sent.append(request)
        return sent

    def _poll(self) -> None:
        while True:
            with self._cond:
                while not self._pending and self._sending:
                    self._cond.wait(0.05)
                if not self._pending and not self._sending:
                    return
                batch = list(self._pending)
            done = []
            for request in batch:
                try:
                    status, body = _call(
                        self.port, "GET", f"/result/{request.sid}"
                    )
                except OSError:
                    status, body = 0, b"{}"
                now = time.monotonic()
                result = json.loads(body) if status == 200 else {}
                if result.get("state") in ("done", "failed"):
                    request.seen, request.result = now, result
                    done.append(request)
                elif now - request.post_sent > ANSWER_TIMEOUT_S:
                    done.append(request)  # unanswered: stays not ok
            if done:
                with self._cond:
                    for request in done:
                        self._pending.remove(request)
                for request in done:
                    self._retire(request)
            time.sleep(0.001)

    def run(self, open_plan: List[Request], saturation: List[Request],
            saturation_s: float) -> Dict[str, Any]:
        """Run both phases; returns the saturation phase's bounds and the
        saturation requests actually sent."""
        self._sending = True
        out: Dict[str, Any] = {"saturation_sent": []}

        def send() -> None:
            try:
                self._send_open(open_plan, time.monotonic())
                with self._cond:  # let the open phase settle first
                    while self._pending:
                        self._cond.wait(0.01)
                out["start"] = time.monotonic()
                out["end"] = out["start"] + saturation_s
                out["saturation_sent"] = self._send_saturated(
                    saturation, out["end"]
                )
            finally:
                with self._cond:
                    self._sending = False
                    self._cond.notify_all()

        threads = [threading.Thread(target=self._poll, name="poller"),
                   threading.Thread(target=send, name="sender")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return out
