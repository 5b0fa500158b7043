"""Start and stop ``repro serve`` from the checkout, as its own process."""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading

from benchstats import covered
from harness import pid_peak_rss_mb

_LISTENING = re.compile(r"listening on (http://\S+)")


class ServerProcess:
    """``python -m repro serve --port 0`` with every other flag at its default.

    Use as a context manager: the process is interrupted (its graceful
    drain path) on exit, killed if it does not stop, and always waited for.
    """

    def __init__(self, root, start_timeout: float = 60.0) -> None:
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            cwd=str(root),
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        self.url: str | None = None
        self._ready = threading.Event()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        if not self._ready.wait(start_timeout) or self.url is None:
            self.close()
            raise RuntimeError("repro serve did not report its address")

    def _drain(self) -> None:
        # Keep reading so the server never blocks on a full stdout pipe.
        for line in self.proc.stdout:
            match = _LISTENING.search(line)
            if match and self.url is None:
                self.url = match.group(1)
                self._ready.set()
        self._ready.set()

    @property
    def pid(self) -> int:
        return self.proc.pid

    def peak_rss_mb(self) -> float:
        return pid_peak_rss_mb(self.proc.pid)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=15)
        self._reader.join(timeout=15)
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def request_trees(client, since_wall: float, paths) -> list[dict]:
    """The server's ``http.request`` span trees (from ``/debug/traces``)
    for ``paths`` that started at or after ``since_wall``."""
    return [
        root for root in client.traces()
        if root["name"] == "http.request" and root["start_time"] >= since_wall
        and root.get("attributes", {}).get("path") in paths
    ]


def http_self_ms(root: dict) -> float:
    """The HTTP layer's own time in one request tree: the root span minus
    the time its children (broker calls) cover."""
    start = root["start_time"]
    duration = root["duration_ms"] / 1000.0
    children = [(c["start_time"], c["start_time"] + c["duration_ms"] / 1000.0)
                for c in root.get("children", ())]
    return (duration - covered((start, start + duration), children)) * 1000.0
