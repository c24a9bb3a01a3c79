"""Driving ``repro serve`` from outside: spawn, HTTP client, shutdown.

The client is the benchmark's own (``http.client``), so a change to the
program's client module cannot change what is measured.  One keep-alive
connection carries the script; it is closed before ``POST /shutdown``,
which goes out on a fresh ``Connection: close`` connection.  An idle
keep-alive connection would hold the daemon's graceful drain open (its
server joins every handler thread on close), see NOTES.md.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from common import ROOT, child_env

#: Seconds a daemon may take to print its serving line.
START_TIMEOUT = 60.0
#: Seconds a graceful shutdown may take before it counts as failed.
SHUTDOWN_TIMEOUT = 10.0
#: Seconds any one request may take.
REQUEST_TIMEOUT = 120.0


def serve_accepts_backend() -> bool:
    """Does ``repro serve`` still take ``--backend``?"""
    completed = subprocess.run(
        [sys.executable, "-m", "repro", "serve", "--help"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=60,
    )
    return "--backend" in completed.stdout


class Daemon:
    """One ``repro serve`` process on an ephemeral loopback port.

    With *own_group* the daemon leads its own process group, so
    :meth:`kill` also reaches any worker it forked.
    """

    def __init__(self, work: Path, backend: bool, own_group: bool = True):
        command = [sys.executable, "-m", "repro", "serve", "--host",
                   "127.0.0.1", "--port", "0", "--jobs", "1"]
        if backend:
            command += ["--backend", "columnar"]
        self._stderr = open(work / f"serve-{time.monotonic_ns()}.log", "wb")
        self.own_group = own_group
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            stderr=self._stderr, start_new_session=own_group,
        )
        self.host, self.port = self._wait_serving()

    def _wait_serving(self) -> Tuple[str, int]:
        deadline = time.monotonic() + START_TIMEOUT
        stdout = self.process.stdout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([stdout], [], [], 0.5)
            if ready:
                line = stdout.readline().decode().strip()
                if line.startswith("serving on http://"):
                    host, port = line.rsplit("/", 1)[1].rsplit(":", 1)
                    return host, int(port)
                if not line and self.process.poll() is not None:
                    break
        self.kill()
        raise RuntimeError("repro serve did not print its serving line")

    @property
    def pid(self) -> int:
        return self.process.pid

    def pin_with_caller(self) -> None:
        """Run every daemon thread and the caller on one CPU.

        The closed-loop client waits while the daemon works, so the two
        never compete; sharing the CPU makes the caller's calibration
        loop measure the speed of the CPU the daemon runs on.
        """
        cpu = {min(os.sched_getaffinity(0))}
        os.sched_setaffinity(0, cpu)
        for thread in os.listdir(f"/proc/{self.pid}/task"):
            os.sched_setaffinity(int(thread), cpu)

    def vm_hwm_mib(self) -> float:
        """Peak resident set (``VmHWM``) of the daemon so far."""
        with open(f"/proc/{self.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM line in /proc status")

    def shutdown(self, client: Optional["Client"]) -> bool:
        """Close *client*, ask for a graceful stop, wait for the exit.

        False when the daemon is still running after the timeout (it is
        then killed, so nothing outlives the run either way).
        """
        if client is not None:
            client.close()
        try:
            connection = http.client.HTTPConnection(
                self.host, self.port, timeout=SHUTDOWN_TIMEOUT
            )
            connection.request("POST", "/shutdown", body=b"{}", headers={
                "Content-Type": "application/json", "Connection": "close",
            })
            connection.getresponse().read()
            connection.close()
            self.process.wait(timeout=SHUTDOWN_TIMEOUT)
            clean = self.process.returncode == 0
        except (OSError, http.client.HTTPException,
                subprocess.TimeoutExpired):
            clean = False
        self.kill()
        return clean

    def kill(self) -> None:
        """Stop the daemon (and, leading a group, its workers) for good."""
        if self.own_group:
            try:
                os.killpg(self.process.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
        elif self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        self.process.stdout.close()
        self._stderr.close()


class Client:
    """Keep-alive JSON client; every call returns (status, body, seconds).

    The time runs from sending the request to having read the whole
    reply; encoding the request and decoding the reply are outside it.
    """

    def __init__(self, host: str, port: int):
        self.connection = http.client.HTTPConnection(
            host, port, timeout=REQUEST_TIMEOUT
        )

    def call(self, method: str, route: str,
             payload: Optional[Dict[str, Any]] = None
             ) -> Tuple[int, Dict[str, Any], float]:
        body = json.dumps(payload).encode() if payload is not None else None
        headers = {"Content-Type": "application/json"} if body else {}
        start = time.perf_counter()
        self.connection.request(method, route, body=body, headers=headers)
        response = self.connection.getresponse()
        raw = response.read()
        seconds = time.perf_counter() - start
        return response.status, json.loads(raw), seconds

    def register(self, csv_path: Path) -> Tuple[int, Dict[str, Any], float]:
        return self.call("POST", "/sessions",
                         {"name": "bench", "csv_path": str(csv_path)})

    def close(self) -> None:
        self.connection.close()


def served_cover(document: Dict[str, Any]) -> List[Tuple[List[str], str]]:
    """The (lhs names, rhs name) pairs of a served cover document."""
    return [(fd["lhs"], fd["rhs"]) for fd in document["cover"]["fds"]]
