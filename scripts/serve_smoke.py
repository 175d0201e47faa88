"""End-to-end smoke test for the serving stack, run by CI.

Fits a tiny CPGAN, stands up the real HTTP server on an ephemeral port,
and round-trips the public API: ``POST /generate`` must return a
well-formed graph payload, a repeated request must be served from the
sample cache with identical edges, a cache hit on a keep-alive
connection must come back well inside the ~40 ms a Nagle/delayed-ACK
stall would cost, and ``GET /models`` / ``/metrics`` / ``/healthz`` must
all answer 200.  The checks run twice, in thread mode and with two worker
processes, and the two ``/metrics`` documents must have the same sections
and keys apart from ``processes``.  Exits non-zero on the first violation.

Usage::

    PYTHONPATH=src python scripts/serve_smoke.py
"""

from __future__ import annotations

import http.client
import json
import sys
import tempfile
import threading
import time
import urllib.request
from pathlib import Path

from repro.core import CPGAN, CPGANConfig, save_model
from repro.datasets import load
from repro.serve import GenerationService, ModelRegistry, build_server


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}", file=sys.stderr)
        sys.exit(1)
    print(f"  ok: {message}")


def get(base: str, path: str) -> tuple[int, dict]:
    with urllib.request.urlopen(base + path, timeout=30) as response:
        return response.status, json.loads(response.read().decode())


def post(base: str, path: str, payload: dict) -> tuple[int, dict]:
    request = urllib.request.Request(
        base + path,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        return response.status, json.loads(response.read().decode())


def keep_alive_posts(port: int, payload: dict, count: int) -> list[tuple[dict, float]]:
    """``count`` POSTs of ``payload`` over one keep-alive connection:
    each response document with its round-trip time in seconds."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    results = []
    try:
        for __ in range(count):
            started = time.perf_counter()
            conn.request(
                "POST",
                "/generate",
                body=json.dumps(payload),
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            document = json.loads(response.read().decode())
            results.append((document, time.perf_counter() - started))
            check(response.status == 200, "keep-alive /generate answers 200")
    finally:
        conn.close()
    return results


def key_paths(document: dict, prefix: str = "") -> set[str]:
    """Every nested key of ``document``; ``[]`` marks a list's items."""
    paths = set()
    for key, value in document.items():
        path = prefix + key
        paths.add(path)
        if isinstance(value, dict):
            paths |= key_paths(value, path + ".")
        elif isinstance(value, list):
            for item in value:
                paths |= key_paths(item, path + "[].")
    return paths


def smoke(archive: Path, num_nodes: int, worker_processes: int) -> dict:
    """Round-trip every endpoint; return the final ``/metrics`` document."""
    registry = ModelRegistry()
    registry.register("citeseer", archive)
    service = GenerationService(
        registry, workers=2, queue_size=16, worker_processes=worker_processes
    )
    server = build_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    service.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    print(f"serving on {base} (worker_processes={worker_processes})")
    try:
        status, health = get(base, "/healthz")
        check(status == 200 and health["status"] == "ok", "/healthz is ok")

        status, models = get(base, "/models")
        check(status == 200, "/models answers 200")
        check(
            models["models"][0]["name"] == "citeseer",
            "/models lists the registered model",
        )

        status, payload = post(
            base, "/generate", {"model": "citeseer", "seed": 1}
        )
        check(status == 200, "/generate answers 200")
        check(
            payload["num_nodes"] == num_nodes,
            "generated graph has the fitted node count",
        )
        check(
            payload["num_edges"] == len(payload["edges"]) > 0,
            "edge list is non-empty and consistent with num_edges",
        )
        check(
            all(
                len(edge) == 2
                and 0 <= edge[0] < payload["num_nodes"]
                and 0 <= edge[1] < payload["num_nodes"]
                for edge in payload["edges"]
            ),
            "every edge is a valid node pair",
        )

        status, repeat = post(
            base, "/generate", {"model": "citeseer", "seed": 1}
        )
        check(status == 200 and repeat["cache_hit"], "repeat is a cache hit")
        check(
            repeat["edges"] == payload["edges"],
            "repeat request returns identical edges",
        )

        # Keep-alive is the fast path: a response split across two
        # sends with Nagle on stalls ~40 ms on the client's delayed
        # ACK.  The first call generates; the repeats are cache hits
        # (best of three, so one scheduling hiccup cannot fail CI).
        (first, __), *hits = keep_alive_posts(
            server.server_address[1], {"model": "citeseer", "seed": 2}, 4
        )
        check(not first["cache_hit"], "first keep-alive call generates")
        check(
            all(doc["cache_hit"] for doc, __ in hits),
            "keep-alive repeats are cache hits",
        )
        best_ms = min(seconds for __, seconds in hits) * 1e3
        check(
            best_ms < 20.0,
            f"keep-alive cache hit returns in {best_ms:.1f} ms (< 20 ms)",
        )

        status, metrics = get(base, "/metrics")
        check(status == 200, "/metrics answers 200")
        check(
            metrics["requests"]["completed"] == 2
            and metrics["cache"]["hits"] == 4,
            "metrics count 2 generated requests and 4 cache hits",
        )
        return metrics
    finally:
        server.shutdown()
        server.server_close()
        service.stop(drain=False)
        thread.join(timeout=5)


def main() -> int:
    print("fitting a tiny model ...")
    graph = load("citeseer", scale=0.02, seed=0).graph
    model = CPGAN(CPGANConfig(epochs=2, seed=0)).fit(graph)

    with tempfile.TemporaryDirectory() as tmp:
        archive = Path(tmp) / "citeseer.npz"
        save_model(model, archive)
        keys = {
            processes: key_paths(smoke(archive, graph.num_nodes, processes))
            for processes in (0, 2)
        }

    pool_keys = {k for k in keys[2] if k.split(".")[0] == "processes"}
    check(
        pool_keys and keys[0] == keys[2] - pool_keys,
        "/metrics has the same sections and keys in both modes "
        "apart from processes",
    )
    print("serve smoke: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
