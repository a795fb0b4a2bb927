"""Load generation: one client in a closed loop.

`spawn` runs one CLI request and returns only after the process has exited
and its output has been read to the last byte.  `Launcher` runs `spawn` in
a small separate process (this file run as a script): a child's ru_maxrss
starts from the RSS of the process that forks it, and the benchmark's own
memory grows as it parses outputs.  `Worker` feeds library calls, one at a
time, to a single long-lived worker process.  Both enforce a per-request
timeout; a request that hits it is killed and counted as failed.
"""

from __future__ import annotations

import json
import os
import selectors
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

TIMEOUT_S = 30.0
HERE = Path(__file__).resolve().parent


@dataclass
class Outcome:
    code: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    timed_out: bool = False


def program_env(src: Path) -> dict:
    """Environment for the program: `src` on the path, bytecode caching on.

    An installed package keeps its compiled bytecode, so only the first
    call after a change compiles (in the set-up's warm-up);
    PYTHONDONTWRITEBYTECODE would make every call recompile the package.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn(cmd: list[str], env: dict, timeout: float = TIMEOUT_S) -> Outcome:
    """Run `cmd` to completion; wall time is spawn to the last output byte."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env)
    out_fd, err_fd = proc.stdout.fileno(), proc.stderr.fileno()
    chunks: dict[int, list[bytes]] = {out_fd: [], err_fd: []}
    timed_out = False
    with selectors.DefaultSelector() as sel:
        sel.register(out_fd, selectors.EVENT_READ)
        sel.register(err_fd, selectors.EVENT_READ)
        while sel.get_map():
            left = start + timeout - time.perf_counter()
            if left <= 0:
                timed_out = True
                proc.kill()
                break
            for key, _ in sel.select(left):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fd].append(data)
                else:
                    sel.unregister(key.fd)
    wall = time.perf_counter() - start
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Outcome(code=proc.returncode,
                   stdout=b"".join(chunks[out_fd]).decode(),
                   stderr=b"".join(chunks[err_fd]).decode(errors="replace"),
                   wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                   maxrss_kb=usage.ru_maxrss, timed_out=timed_out)


def cli_command(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "hueckel_green", *argv]


class Launcher:
    """A small process that spawns CLI requests and reports their rusage."""

    def __init__(self, env: dict):
        self._proc = subprocess.Popen([sys.executable, str(HERE / "client.py")],
                                      stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, env=env)

    def run(self, cmd: list[str]) -> Outcome:
        self._proc.stdin.write((json.dumps(cmd) + "\n").encode())
        self._proc.stdin.flush()
        head = json.loads(self._proc.stdout.readline())
        out = self._proc.stdout.read(head.pop("out_bytes")).decode()
        err = self._proc.stdout.read(head.pop("err_bytes")).decode(errors="replace")
        return Outcome(stdout=out, stderr=err, **head)

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait()
        self._proc.stdout.close()


def _serve_launches() -> None:
    """Launcher side: one JSON argv per stdin line; header line plus bytes back."""
    sink = sys.stdout.buffer
    for line in sys.stdin:
        o = spawn(json.loads(line), None)
        out, err = o.stdout.encode(), o.stderr.encode()
        head = {"code": o.code, "wall_s": o.wall_s, "cpu_s": o.cpu_s,
                "maxrss_kb": o.maxrss_kb, "timed_out": o.timed_out,
                "out_bytes": len(out), "err_bytes": len(err)}
        sink.write(json.dumps(head).encode() + b"\n" + out + err)
        sink.flush()


class Worker:
    """One worker process running `worker.py`, fed one call at a time."""

    def __init__(self, env: dict):
        self._env = env
        self._proc: subprocess.Popen | None = None
        self._buf = b""
        self.start()

    def start(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, env=self._env)
        self._buf = b""

    def call(self, req: dict, timeout: float = TIMEOUT_S) -> tuple[dict | None, float]:
        """Send one call; return (reply or None on timeout/crash, round trip)."""
        start = time.perf_counter()
        line = json.dumps({"op": req["op"], "params": req["params"]}) + "\n"
        try:
            self._proc.stdin.write(line.encode())
            self._proc.stdin.flush()
        except BrokenPipeError:
            self.restart()
            return None, time.perf_counter() - start
        raw = self._readline(start + timeout)
        elapsed = time.perf_counter() - start
        if raw is None:
            self._proc.kill()
            self.restart()
            return None, elapsed
        return json.loads(raw), elapsed

    def _readline(self, deadline: float) -> bytes | None:
        fd = self._proc.stdout.fileno()
        with selectors.DefaultSelector() as sel:
            sel.register(fd, selectors.EVENT_READ)
            while b"\n" not in self._buf:
                left = deadline - time.perf_counter()
                if left <= 0 or not sel.select(left):
                    return None
                data = os.read(fd, 1 << 20)
                if not data:
                    return None
                self._buf += data
        line, _, self._buf = self._buf.partition(b"\n")
        return line

    def restart(self) -> None:
        self.close()
        self.start()

    def close(self) -> None:
        proc, self._proc = self._proc, None
        if proc is None:
            return
        try:
            proc.stdin.close()
        except BrokenPipeError:
            pass
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()


if __name__ == "__main__":
    _serve_launches()
