"""Server lifecycle and HTTP load for the ``serve_mixed`` workload.

Load comes from one process: each loop runs ``connections`` threads, each
owning one keep-alive ``http.client`` connection.  Every timestamp is on
the system-wide monotonic clock, like the spans of the traced server.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "Client",
    "Server",
    "closed_loop",
    "open_loop",
    "serve_command",
    "server_env",
    "start_server",
    "stop_server",
]

#: Generator lateness beyond this makes an open-loop request invalid as a
#: measurement of the server: it was sent late for the client's own reasons.
LATE_LIMIT_S = 0.005


@dataclass
class Server:
    process: subprocess.Popen
    port: int
    workers: list[int] = field(default_factory=list)
    log: object = None


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _children(pid: int) -> list[int]:
    try:
        text = Path(f"/proc/{pid}/task/{pid}/children").read_text()
    except OSError:
        return []
    return [int(token) for token in text.split()]


def running(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")


def start_server(
    command: list[str],
    env: dict,
    cwd: Path,
    log_path: Path,
    timeout_s: float = 60.0,
) -> Server:
    """Spawn ``command + ['--port', PORT]`` and wait for ``/healthz``.

    The port is ephemeral: picked free by the OS just before the spawn
    (and retried if another process takes it first).
    """
    for __ in range(3):
        port = _free_port()
        log = open(log_path, "ab")
        process = subprocess.Popen(
            [*command, "--port", str(port)],
            cwd=cwd,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=log,
        )
        server = Server(process, port, log=log)
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline and process.poll() is None:
            try:
                status, __ = Client(port, timeout_s=1.0).get("/healthz")
            except (http.client.HTTPException, OSError):
                time.sleep(0.01)
                continue
            if status == 200:
                server.workers = _children(process.pid)
                return server
        stop_server(server)
    raise RuntimeError(f"server did not answer /healthz; see {log_path}")


def stop_server(server: Server, grace_s: float = 5.0) -> list[str]:
    """SIGINT (the clean ``serve_forever`` exit), then audit the workers.

    Returns the problems found: a non-zero exit code, a server that had to
    be killed, or a worker process still running ``grace_s`` after its
    parent exited (SIGKILLed here, so nothing is left behind).
    """
    problems = []
    process = server.process
    if process.poll() is None:
        process.send_signal(signal.SIGINT)
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
            problems.append("server ignored SIGINT and was killed")
    if process.returncode != 0:
        problems.append(f"server exited with code {process.returncode}")
    deadline = time.monotonic() + grace_s
    for pid in server.workers:
        while running(pid) and time.monotonic() < deadline:
            time.sleep(0.02)
        if running(pid):
            os.kill(pid, signal.SIGKILL)
            problems.append(f"worker {pid} outlived the server")
    if server.log is not None:
        server.log.close()
    return problems


class Client:
    """One keep-alive connection; reconnects after a transport error."""

    def __init__(self, port: int, timeout_s: float = 120.0) -> None:
        self.port = port
        self.timeout_s = timeout_s
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout_s)

    def _call(self, method: str, path: str, body: bytes | None) -> tuple[int, bytes]:
        headers = {"Content-Type": "application/json"} if body else {}
        try:
            self.conn.request(method, path, body=body, headers=headers)
            response = self.conn.getresponse()
            return response.status, response.read()
        except (http.client.HTTPException, OSError):
            self.conn.close()
            self.conn = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=self.timeout_s
            )
            raise

    def get(self, path: str) -> tuple[int, bytes]:
        return self._call("GET", path, None)

    def post(self, path: str, document: dict) -> tuple[int, bytes]:
        return self._call("POST", path, json.dumps(document).encode("utf-8"))


@dataclass
class Record:
    """One request: ``due`` is when it should have been sent (closed loop:
    when it was sent), ``late`` the generator's own oversleep (open loop,
    idle sender only; else ``None``)."""

    index: int
    due: float
    sent: float
    done: float
    status: int
    body: bytes
    late: float | None = None


def _post_record(client: Client, index: int, document: dict, due: float, late=None):
    sent = time.monotonic()
    try:
        status, body = client.post("/generate", document)
    except (http.client.HTTPException, OSError) as exc:
        status, body = 0, repr(exc).encode()
    return Record(index, due, sent, time.monotonic(), status, body, late)


def _run_threads(target, connections: int) -> None:
    threads = [threading.Thread(target=target) for __ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def closed_loop(
    port: int,
    documents: list[dict],
    seconds: float,
    min_count: int,
    connections: int = 2,
) -> tuple[list[Record], float]:
    """Each connection sends its next request when the previous returns.

    Runs until ``seconds`` have passed and ``min_count`` requests were
    sent (at most ``len(documents)``); returns the records and wall time.
    """
    lock = threading.Lock()
    state = {"next": 0}
    records: list[Record] = []
    start = time.monotonic()

    def claim() -> int | None:
        with lock:
            index = state["next"]
            elapsed = time.monotonic() - start
            if index >= len(documents) or (index >= min_count and elapsed >= seconds):
                return None
            state["next"] += 1
            return index

    def sender() -> None:
        client = Client(port)
        while (index := claim()) is not None:
            record = _post_record(client, index, documents[index], time.monotonic())
            with lock:
                records.append(record)

    _run_threads(sender, connections)
    return sorted(records, key=lambda r: r.index), time.monotonic() - start


def open_loop(
    port: int,
    documents: list[dict],
    rate: float,
    connections: int = 2,
) -> list[Record]:
    """Send ``documents[i]`` at ``start + i / rate`` regardless of replies.

    Latency is ``done - due``: a request that waits for a free connection
    because earlier replies are slow is charged that wait.
    """
    lock = threading.Lock()
    state = {"next": 0}
    records: list[Record] = []
    start = time.monotonic() + 0.05

    def claim() -> int | None:
        with lock:
            index = state["next"]
            if index >= len(documents):
                return None
            state["next"] += 1
            return index

    def sender() -> None:
        client = Client(port)
        while (index := claim()) is not None:
            due = start + index / rate
            wait = due - time.monotonic()
            late = None
            if wait > 0:
                time.sleep(wait)
                late = time.monotonic() - due
            record = _post_record(client, index, documents[index], due, late)
            with lock:
                records.append(record)

    _run_threads(sender, connections)
    return sorted(records, key=lambda r: r.index)


def server_env(src: Path) -> dict:
    """The child environment: this interpreter's settings, ``src`` importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    return env


def serve_command(archive: Path, flags: list[str], span_dir: Path | None) -> list[str]:
    """``python -m repro serve``, or the traced wrapper when ``span_dir``."""
    if span_dir is None:
        return [sys.executable, "-m", "repro", "serve", str(archive), *flags]
    wrapper = Path(__file__).with_name("traced_serve.py")
    return [sys.executable, str(wrapper), str(span_dir), "serve", str(archive), *flags]
