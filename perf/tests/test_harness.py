"""Tests of the benchmark harness itself: hooks, span accounting, load."""

from __future__ import annotations

import json
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

import hooks
import loadgen

PERF = Path(__file__).resolve().parents[1]


def _targets():
    return [hooks._resolve(module, attribute) for module, attribute, __ in hooks.HOOKS]


def test_install_then_uninstall_restores_the_original_objects():
    before = _targets()
    handle = hooks.install(hooks.Tracer())
    try:
        for owner, name, original in before:
            assert vars(owner)[name] is not original, name
    finally:
        hooks.uninstall(handle)
    for owner, name, original in before:
        assert vars(owner)[name] is original, name


def test_a_missing_target_fails_by_name_and_replaces_nothing():
    before = _targets()
    table = [*hooks.HOOKS, ("repro.core.model", "CPGAN.no_such_method", "core.model")]
    with pytest.raises(hooks.HookError, match="CPGAN.no_such_method"):
        hooks.install(hooks.Tracer(), table)
    for owner, name, original in before:
        assert vars(owner)[name] is original, name


def test_self_time_subtracts_direct_children_only():
    def span(id_, name, start, end, parent=0):
        return {"id": id_, "name": name, "start": start, "end": end, "parent": parent, "pid": 1}

    spans = [
        span(1, "root", 0.0, 10.0),
        span(2, "child", 1.0, 5.0, parent=1),
        span(3, "grandchild", 2.0, 3.0, parent=2),
        span(4, "child", 6.0, 7.0, parent=1),
    ]
    assert hooks.self_times(spans) == {"root": 5.0, "child": 4.0, "grandchild": 1.0}


class _SlowHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    delay_s = 0.1

    def do_POST(self):  # noqa: N802
        self.rfile.read(int(self.headers["Content-Length"]))
        time.sleep(self.delay_s)
        body = json.dumps({"ok": True}).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def test_open_loop_times_each_request_from_its_due_time():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _SlowHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        # One connection, 100 ms per reply, one request due every 50 ms:
        # the queue grows, and request i waits ~i * 50 ms for the connection.
        documents = [{"i": i} for i in range(6)]
        records = loadgen.open_loop(
            server.server_address[1], documents, rate=20.0, connections=1
        )
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()
    assert [r.status for r in records] == [200] * 6
    from_due = [r.done - r.due for r in records]
    from_send = [r.done - r.sent for r in records]
    assert from_due[-1] >= 0.1 + 5 * 0.05 - 0.01
    assert all(later > earlier for earlier, later in zip(from_due, from_due[1:]))
    assert max(from_send) < 0.25  # service time alone stays ~100 ms
    assert records[0].late is not None and records[-1].late is None


def test_smoke_reports_every_declared_metric_within_a_minute():
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(PERF / "run.py"), "--smoke"],
        cwd=PERF.parent,
        capture_output=True,
        text=True,
        timeout=300,
    )
    elapsed = time.monotonic() - start
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    assert elapsed < 60, f"smoke took {elapsed:.1f} s"
