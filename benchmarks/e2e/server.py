"""Start, watch and stop the ``repro serve`` subprocess under test.

The server is the program exactly as a user starts it —
``python -m repro.cli serve --data DIR --port 0`` with default flags (plus
``--algorithm`` on the sharded lane) — in its own session so that forked
scatter workers die with it.  Hygiene rules: the ``serving on`` line is
awaited with a timeout, stderr goes to a file in the run's scratch
directory, and every exit path ends in SIGTERM + wait (SIGKILL to the
whole session if that is ignored).
"""

from __future__ import annotations

import os
import re
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

from env import SRC

_SERVING = re.compile(r"serving on http://([^:\s]+):(\d+)")


class ServerError(OSError):
    """The server did not come up, or went away."""


def peak_rss_mb(pid: int | str) -> float:
    """``VmHWM`` of a process (a pid, or ``"self"``) in MB; 0.0 once gone."""
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0.0
    match = re.search(r"VmHWM:\s+(\d+) kB", status)
    return int(match.group(1)) / 1024.0 if match else 0.0


class ServeProcess:
    """One ``repro serve`` subprocess."""

    def __init__(self, data_dir: Path, log_path: Path, extra_args=()):
        self._command = [
            sys.executable, "-m", "repro.cli", "serve",
            "--data", str(data_dir), "--port", "0", *extra_args,
        ]
        self._log_path = log_path
        self._log = None
        self._process: subprocess.Popen | None = None
        self.address: tuple[str, int] | None = None

    @property
    def pid(self) -> int:
        return self._process.pid

    def alive(self) -> bool:
        return self._process is not None and self._process.poll() is None

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.pid)

    def start(self, timeout_s: float = 60.0) -> None:
        """Spawn the server and wait for its ``serving on`` line."""
        self._log = self._log_path.open("wb")
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED="1")
        self._process = subprocess.Popen(
            self._command,
            stdout=subprocess.PIPE,
            stderr=self._log,
            env=env,
            start_new_session=True,
        )
        deadline = time.monotonic() + timeout_s
        seen = b""
        fd = self._process.stdout.fileno()
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self.stop()
                raise ServerError(f"no 'serving on' line within {timeout_s:.0f} s")
            ready, _, _ = select.select([fd], [], [], remaining)
            if not ready:
                continue
            chunk = os.read(fd, 4096)
            if not chunk:
                self.stop()
                raise ServerError(
                    "server exited before serving; stderr: "
                    + self._log_path.read_text(errors="replace")[-500:]
                )
            seen += chunk
            match = _SERVING.search(seen.decode("latin-1"))
            if match:
                self.address = (match.group(1), int(match.group(2)))
                return

    def stop(self) -> None:
        """SIGTERM, wait; SIGKILL the session if it lingers.  Idempotent."""
        process = self._process
        if process is not None:
            if process.poll() is None:
                process.terminate()
                try:
                    process.wait(timeout=15)
                except subprocess.TimeoutExpired:
                    pass
            try:  # stragglers of the session (forked scatter workers)
                os.killpg(process.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
            process.wait()
            process.stdout.close()
            self._process = None
        if self._log is not None:
            self._log.close()
            self._log = None

    def __enter__(self) -> ServeProcess:
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
