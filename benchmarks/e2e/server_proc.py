"""The product under test, started the way a user starts it.

``python -m repro serve <dir> --port 0 --base-rate R`` runs as a child
process; the harness owns its whole life.  The harness does nothing else
while a server starts: preparing op lists on the other core at the same
time made the start read 2 s (55 %) longer.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.client import ReproClient

from benchmarks.e2e.config import BASE_RATE, ROOT, WORK_DIR

_BANNER = re.compile(r"on http://([\d.]+):(\d+)")
START_TIMEOUT_S = 120.0
STOP_GRACE_S = 10.0


class ServerDied(RuntimeError):
    """The server exited (or never came up); carries its stderr tail."""


class ServerProcess:
    """One ``repro serve`` child process."""

    def __init__(self, dataset: Path) -> None:
        self.dataset = dataset
        self.port: int | None = None
        self._proc: subprocess.Popen | None = None
        WORK_DIR.mkdir(parents=True, exist_ok=True)
        stem = WORK_DIR / f"server-{os.getpid()}-{id(self):x}"
        self._out_path = stem.with_suffix(".out")
        self._err_path = stem.with_suffix(".err")

    # -- start ---------------------------------------------------------
    def start(self) -> float:
        """Spawn the server and wait for it; returns spawn-to-first-200 seconds."""
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONUNBUFFERED="1")
        spawned_at = time.perf_counter()
        with open(self._out_path, "wb") as out, open(self._err_path, "wb") as err:
            self._proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve", str(self.dataset),
                    "--port", "0", "--base-rate", str(BASE_RATE),
                ],
                stdout=out, stderr=err, stdin=subprocess.DEVNULL, env=env, cwd=str(ROOT),
            )
        try:
            self._await_healthy(spawned_at + START_TIMEOUT_S)
        except ServerDied as error:
            tail = self.stderr_tail()
            self.stop()
            raise ServerDied(f"{error}\n{tail}") from None
        return time.perf_counter() - spawned_at

    def _await_healthy(self, deadline: float) -> None:
        while self.port is None:
            match = _BANNER.search(self._out_path.read_text(errors="replace"))
            if match:
                self.port = int(match.group(2))
            elif self._proc.poll() is not None:
                raise ServerDied(f"server exited {self._proc.returncode} before serving")
            elif time.perf_counter() > deadline:
                raise ServerDied("server printed no banner in time")
            else:
                time.sleep(0.005)
        with self.client(timeout=5.0) as client:
            while not client.healthz().get("ok"):
                if time.perf_counter() > deadline:
                    raise ServerDied("server never became healthy")
                time.sleep(0.005)

    # -- observe -------------------------------------------------------
    @property
    def pid(self) -> int:
        return self._proc.pid

    def require_alive(self) -> None:
        if self._proc.poll() is not None:
            raise ServerDied(
                f"server exited {self._proc.returncode} mid-run\n{self.stderr_tail()}"
            )

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the server process, in MiB."""
        status = Path(f"/proc/{self.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1)) / 1024.0

    def client(self, timeout: float = 60.0) -> ReproClient:
        return ReproClient(port=self.port, timeout=timeout)

    def stats(self) -> dict:
        with self.client() as client:
            return client.stats()

    def stderr_tail(self, lines: int = 15) -> str:
        try:
            text = self._err_path.read_text(errors="replace")
        except OSError:
            return ""
        return "\n".join(text.splitlines()[-lines:])

    # -- stop ----------------------------------------------------------
    def stop(self) -> None:
        """SIGINT, wait ten seconds, then kill; always reaps (idempotent)."""
        proc = self._proc
        if proc is not None and proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(STOP_GRACE_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        for path in (self._out_path, self._err_path):
            path.unlink(missing_ok=True)

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def shm_segments() -> set[str]:
    """Names currently in ``/dev/shm`` (the process backend's arena lives there)."""
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def surviving_children() -> list[int]:
    """PIDs of live child processes of this harness (must be empty at exit)."""
    me = os.getpid()
    alive = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            fields = Path(f"/proc/{entry}/stat").read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == me and fields[0] != "Z":
            alive.append(int(entry))
    return alive
