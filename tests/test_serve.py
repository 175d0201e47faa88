"""Tests for repro.serve: cache, registry, service, and the HTTP API."""

import contextlib
import http.client
import json
import socket
import statistics
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core import CPGAN, CPGANConfig, CheckpointError, save_model
from repro.core.persistence import write_archive
from repro.datasets import community_graph
from repro.serve import (
    GenerationRequest,
    GenerationService,
    ModelRegistry,
    Overloaded,
    RequestExpired,
    SampleCache,
    ServiceStopping,
    build_server,
    cache_key,
)


def tiny_config(**kwargs):
    defaults = dict(
        input_dim=4, node_embedding_dim=8, hidden_dim=16, latent_dim=8,
        pool_size=8, epochs=6, sample_size=80, seed=0,
    )
    defaults.update(kwargs)
    return CPGANConfig(**defaults)


@pytest.fixture(scope="module")
def fitted(tmp_path_factory):
    """One fitted tiny model saved as an archive, shared by the module."""
    graph, __ = community_graph(60, 3, 5.0, seed=0)
    model = CPGAN(tiny_config()).fit(graph)
    path = tmp_path_factory.mktemp("models") / "toy.npz"
    save_model(model, path)
    return model, path


@pytest.fixture()
def registry(fitted):
    __, path = fitted
    reg = ModelRegistry(max_loaded=2)
    reg.register("toy", path)
    return reg


class TestSampleCache:
    def test_key_is_param_order_insensitive(self):
        a = cache_key("m", 1, None, {"noise_scale": 0.5, "latent_source": "prior"})
        b = cache_key("m", 1, None, {"latent_source": "prior", "noise_scale": 0.5})
        assert a == b

    def test_key_distinguishes_requests(self):
        base = cache_key("m", 1, None, {})
        assert cache_key("m", 2, None, {}) != base
        assert cache_key("other", 1, None, {}) != base
        assert cache_key("m", 1, 50, {}) != base
        assert cache_key("m", 1, None, {"noise_scale": 2.0}) != base

    def test_hit_miss_accounting(self, fitted):
        model, __ = fitted
        graph = model.generate(seed=0)
        cache = SampleCache(capacity=4)
        key = cache_key("toy", 0, None, {})
        assert cache.get(key) is None
        cache.put(key, graph)
        assert cache.get(key) is graph
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["hit_rate"] == pytest.approx(0.5)

    def test_lru_eviction_order(self, fitted):
        model, __ = fitted
        graph = model.generate(seed=0)
        cache = SampleCache(capacity=2)
        cache.put(("a",), graph)
        cache.put(("b",), graph)
        assert cache.get(("a",)) is graph  # touch "a" so "b" is now LRU
        cache.put(("c",), graph)
        assert cache.get(("b",)) is None
        assert cache.get(("a",)) is graph
        assert cache.stats()["evictions"] == 1

    def test_zero_capacity_disables(self, fitted):
        model, __ = fitted
        cache = SampleCache(capacity=0)
        cache.put(("a",), model.generate(seed=0))
        assert len(cache) == 0
        assert cache.get(("a",)) is None

    def test_mutating_a_hit_cannot_corrupt_later_hits(self, fitted):
        """Regression: ``get`` hands every hit the same Graph object — a
        caller mutating its CSR arrays used to silently corrupt all later
        responses for that key.  Entries are frozen on ``put``, so the
        mutation now fails loudly and the cached bits stay intact."""
        model, __ = fitted
        cache = SampleCache(capacity=4)
        key = cache_key("toy", 0, None, {})
        cache.put(key, model.generate(seed=0))
        first = cache.get(key)
        with pytest.raises(ValueError, match="read-only"):
            first.adjacency.data[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            first.adjacency.indices[0] = 59
        with pytest.raises(ValueError, match="read-only"):
            first.degrees[0] = 10**6
        second = cache.get(key)
        assert second == model.generate(seed=0)

    def test_served_responses_are_frozen(self, registry):
        """The same guarantee end to end: a response that went through the
        service cannot be mutated into corrupting a later cache hit."""
        with GenerationService(registry, workers=1) as service:
            first = service.generate(GenerationRequest("toy", seed=21))
            with pytest.raises(ValueError, match="read-only"):
                first.graph.adjacency.data[0] = 0.0
            second = service.generate(GenerationRequest("toy", seed=21))
        assert second.cache_hit
        assert second.graph == first.graph


class TestModelRegistry:
    def test_register_reports_metadata(self, registry, fitted):
        model, __ = fitted
        info = registry.describe("toy")
        assert info["nodes"] == 60
        assert info["edges"] == model._require_fitted().num_edges
        assert info["provenance"]["epochs_trained"] == 6
        assert not info["loaded"]

    def test_register_missing_file(self, tmp_path):
        reg = ModelRegistry()
        with pytest.raises(FileNotFoundError):
            reg.register("ghost", tmp_path / "nope.npz")

    def test_register_rejects_garbage(self, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"this is not an npz archive")
        with pytest.raises(CheckpointError):
            ModelRegistry().register("bad", path)

    def test_register_rejects_training_checkpoint(self, tmp_path):
        path = tmp_path / "ckpt.npz"
        write_archive(
            path,
            {"x": np.zeros(1)},
            {"kind": "training_checkpoint", "version": 1},
        )
        with pytest.raises(CheckpointError, match="checkpoint"):
            ModelRegistry().register("ckpt", path)

    def test_discover_skips_bad_files(self, fitted, tmp_path):
        __, good = fitted
        directory = tmp_path / "zoo"
        directory.mkdir()
        (directory / "good.npz").write_bytes(good.read_bytes())
        (directory / "broken.npz").write_bytes(b"junk")
        reg = ModelRegistry()
        assert reg.discover(directory) == ["good"]
        assert "good" in reg
        assert str(directory / "broken.npz") in reg.rejected

    def test_lease_loads_and_releases(self, registry):
        with registry.lease("toy") as model:
            assert isinstance(model, CPGAN)
            assert registry.describe("toy")["refs"] == 1
        assert registry.describe("toy")["refs"] == 0
        assert registry.describe("toy")["loaded"]  # stays warm
        assert registry.stats()["cold_loads"] == 1
        with registry.lease("toy"):
            pass
        assert registry.stats()["warm_acquires"] == 1

    def test_lru_eviction_respects_refcounts(self, fitted, tmp_path):
        __, path = fitted
        reg = ModelRegistry(max_loaded=1)
        reg.register("a", path)
        reg.register("b", path)
        model_a = reg.acquire("a")
        # "a" is pinned (refs=1): acquiring "b" must not evict it.
        with reg.lease("b"):
            assert reg.describe("a")["loaded"]
        reg.release("a")
        # Now "a" has refs=0 and is LRU; the next acquire evicts it.
        with reg.lease("b"):
            assert not reg.describe("a")["loaded"]
        assert reg.stats()["evictions"] >= 1
        assert model_a is not None

    def test_release_unacquired_raises(self, registry):
        with pytest.raises(RuntimeError):
            registry.release("toy")

    def test_unknown_model_raises(self, registry):
        with pytest.raises(KeyError):
            registry.acquire("nope")


class TestGenerationService:
    def test_matches_direct_generation(self, registry, fitted):
        model, __ = fitted
        with GenerationService(registry, workers=2) as service:
            result = service.generate(GenerationRequest("toy", seed=5))
        assert result.graph == model.generate(seed=5)
        assert not result.cache_hit

    def test_bit_identical_across_worker_pool_sizes(self, fitted):
        """Acceptance: same request, workers=1 vs workers=4, same bits."""
        __, path = fitted
        seeds = [0, 1, 2, 3, 4, 5, 6, 7]
        edge_sets = {}
        for workers in (1, 4):
            reg = ModelRegistry()
            reg.register("toy", path)
            # cache_entries=0 forces every request through a worker.
            with GenerationService(
                reg, workers=workers, cache_entries=0
            ) as service:
                pendings = [
                    service.submit(GenerationRequest("toy", seed=s))
                    for s in seeds
                ]
                edge_sets[workers] = [
                    p.result(60.0).graph.edge_array() for p in pendings
                ]
        for one, four in zip(edge_sets[1], edge_sets[4]):
            np.testing.assert_array_equal(one, four)

    def test_repeat_request_hits_cache(self, registry):
        with GenerationService(registry, workers=1) as service:
            first = service.generate(GenerationRequest("toy", seed=9))
            second = service.generate(GenerationRequest("toy", seed=9))
        assert not first.cache_hit
        assert second.cache_hit
        assert second.graph is first.graph
        assert service.metrics()["cache"]["hits"] == 1

    def test_param_overrides_apply_per_request(self, registry, fitted):
        model, __ = fitted
        request = GenerationRequest(
            "toy", seed=3, params={"latent_source": "prior"}
        )
        with GenerationService(registry, workers=1) as service:
            result = service.generate(request)
        cfg = model.generation_config(latent_source="prior")
        assert result.graph == model.generate(seed=3, config=cfg)
        # Shared model state must be untouched by the override.
        assert model.config.latent_source == tiny_config().latent_source

    def test_rejects_unknown_param(self, registry):
        service = GenerationService(registry)
        with pytest.raises(ValueError, match="epochs"):
            service.submit(GenerationRequest("toy", params={"epochs": 1}))

    def test_rejects_unknown_model(self, registry):
        service = GenerationService(registry)
        with pytest.raises(KeyError):
            service.submit(GenerationRequest("nope"))

    def test_generation_threads_bit_identical(self, fitted):
        """The service-level thread knob never changes generated bits."""
        __, path = fitted
        edge_sets = {}
        for threads in (1, 4):
            reg = ModelRegistry()
            reg.register("toy", path)
            with GenerationService(
                reg, workers=1, cache_entries=0, generation_threads=threads
            ) as service:
                edge_sets[threads] = [
                    service.generate(
                        GenerationRequest("toy", seed=s)
                    ).graph.edge_array()
                    for s in (0, 3)
                ]
        for serial, threaded in zip(edge_sets[1], edge_sets[4]):
            np.testing.assert_array_equal(serial, threaded)

    def test_generation_threads_validated(self, registry):
        with pytest.raises(ValueError, match="generation_threads"):
            GenerationService(registry, generation_threads=0)

    def test_repair_sampler_is_a_cache_and_coalesce_axis(self):
        """Dense (contract v1) and factored (contract v2) requests must
        never share a cache entry or ride in one micro-batch."""
        dense = GenerationRequest(
            "toy", seed=1, params={"repair_sampler": "dense"}
        )
        factored = GenerationRequest(
            "toy", seed=1, params={"repair_sampler": "factored"}
        )
        assert dense.key() != factored.key()
        assert dense.coalesce_key() != factored.coalesce_key()

    def test_repair_sampler_param_accepted_and_applied(self, registry, fitted):
        model, __ = fitted
        request = GenerationRequest(
            "toy", seed=5, params={"repair_sampler": "factored"}
        )
        with GenerationService(registry, workers=1) as service:
            result = service.generate(request)
            metrics = service.metrics()
        cfg = model.generation_config(repair_sampler="factored")
        assert result.graph == model.generate(seed=5, config=cfg)
        repair = metrics["repair"]["by_sampler"]
        assert repair["factored"]["samples"] >= 1
        assert repair["factored"]["repair_s"] >= 0.0
        assert (
            repair["factored"]["repair_accepted"]
            <= repair["factored"]["repair_proposals"]
        )

    def test_repair_metrics_accumulate_across_batch(self, registry):
        """Coalesced batches feed the repair accumulator too."""
        service = GenerationService(registry, workers=1, max_batch_size=4)
        requests = [
            GenerationRequest(
                "toy", seed=s, params={"repair_sampler": "factored"}
            )
            for s in range(3)
        ]
        # Enqueue before starting so one worker drains them as one batch.
        pending = [service.submit(r) for r in requests]
        service.start()
        for p in pending:
            p.result(60.0)
        service.stop()
        snapshot = service.metrics()["repair"]["by_sampler"]["factored"]
        assert snapshot["samples"] == 3
        batching = service.metrics()["batching"]
        assert batching["coalesced_requests"] >= 2

    def test_solo_hierarchical_request_counts_one_sample(self, registry):
        """Regression: a hierarchical request served alone used to be
        missing from the repair ``samples`` total."""
        request = GenerationRequest(
            "toy", seed=2, params={"generation_mode": "hierarchical"}
        )
        with GenerationService(registry, workers=1, max_batch_size=1) as service:
            service.generate(request)
            metrics = service.metrics()
        assert metrics["batching"]["histogram"] == {"1": 1}
        assert metrics["repair"]["by_sampler"]["dense"]["samples"] == 1

    def test_metrics_uptime_and_start_time(self, registry):
        import time

        before = time.time()
        service = GenerationService(registry)
        metrics = service.metrics()
        # Uptime comes from the monotonic clock (immune to wall-clock
        # steps); the absolute start instant is reported separately.
        assert 0.0 <= metrics["uptime_s"] < 60.0
        assert before <= metrics["started_at_unix"] <= time.time()
        later = service.metrics()
        assert later["uptime_s"] >= metrics["uptime_s"]
        assert later["started_at_unix"] == metrics["started_at_unix"]
        assert metrics["queue"]["generation_threads"] == 1

    def test_negative_seed_rejected_before_queueing(self, registry):
        """Regression: a negative seed used to fail deep inside NumPy's
        SeedSequence on a worker; it must be a clean ValueError at submit."""
        service = GenerationService(registry)
        with pytest.raises(ValueError, match="seed must be a non-negative"):
            service.submit(GenerationRequest("toy", seed=-1))
        assert service.metrics()["requests"]["submitted"] == 0

    def test_submit_after_stop_raises(self, registry):
        service = GenerationService(registry, workers=1).start()
        service.generate(GenerationRequest("toy", seed=0))
        service.stop()
        with pytest.raises(ServiceStopping):
            service.submit(GenerationRequest("toy", seed=1))
        assert service.metrics()["requests"]["rejected"] == 1
        # ServiceStopping is an Overloaded, so HTTP keeps its 503 mapping.
        assert issubclass(ServiceStopping, Overloaded)

    def test_stop_drain_is_bounded_under_live_submits(self, registry):
        """Regression: ``stop(drain=True)`` joined the queue while submit
        could still feed it — with a live front end the drain never
        terminated.  The closing flag bounds it by the backlog at stop."""
        import threading
        import time

        service = GenerationService(registry, workers=1, queue_size=32).start()
        backlog = [
            service.submit(GenerationRequest("toy", seed=s, num_nodes=120))
            for s in range(4)
        ]
        stopper = threading.Thread(target=service.stop)
        stopper.start()
        # Hammer submit while the drain runs: every attempt must either be
        # rejected with ServiceStopping or complete normally — and the
        # drain must finish regardless.
        rejected = 0
        deadline = time.monotonic() + 60
        while stopper.is_alive() and time.monotonic() < deadline:
            try:
                service.submit(GenerationRequest("toy", seed=999))
            except ServiceStopping:
                rejected += 1
                time.sleep(0.002)
        stopper.join(timeout=60)
        assert not stopper.is_alive(), "stop(drain=True) hung under load"
        for pending in backlog:
            pending.result(60.0)
        assert rejected >= 1

    def test_expired_request_never_generates(self, registry, monkeypatch):
        """Regression: a request whose caller had already given up (HTTP
        504) was still generated once a worker reached it.  It is dropped
        before ``generate_batch`` and counted as ``expired``; a live
        request drained into the same batch is still served."""
        calls = []
        generate_batch = CPGAN.generate_batch

        def recording(self, seeds, *args, **kwargs):
            calls.append(list(seeds))
            return generate_batch(self, seeds, *args, **kwargs)

        monkeypatch.setattr(CPGAN, "generate_batch", recording)
        service = GenerationService(registry, workers=1, max_batch_size=4)
        # Queued before the workers exist, so the tiny deadline has passed
        # by the time the worker drains both into one batch.
        expired = service.submit(GenerationRequest("toy", seed=41), timeout=1e-6)
        live = service.submit(GenerationRequest("toy", seed=42))
        service.start()
        try:
            with pytest.raises(RequestExpired):
                expired.result(60.0)
            assert not live.result(60.0).cache_hit
        finally:
            service.stop()
        assert calls == [[42]]
        requests = service.metrics()["requests"]
        assert requests["expired"] == 1
        assert requests["failed"] == 0
        assert requests["completed"] == 1

    def test_backpressure_when_queue_full(self, registry):
        """Acceptance: a full queue rejects immediately, without blocking."""
        service = GenerationService(
            registry, workers=1, queue_size=2, retry_after_s=0.25
        )
        # No workers running yet: the queue fills deterministically.
        pending = [
            service.submit(GenerationRequest("toy", seed=s)) for s in (0, 1)
        ]
        with pytest.raises(Overloaded) as excinfo:
            service.submit(GenerationRequest("toy", seed=2))
        assert excinfo.value.retry_after_s == 0.25
        assert service.metrics()["requests"]["rejected"] == 1
        # Starting the workers drains the backlog.
        service.start()
        for p in pending:
            p.result(60.0)
        service.stop()
        assert service.queue_depth == 0


@contextlib.contextmanager
def _http_server(path, **service_kwargs):
    """A registry+service+HTTP stack for ``path`` on an ephemeral port."""
    reg = ModelRegistry()
    reg.register("toy", path)
    service = GenerationService(reg, **service_kwargs)
    server = build_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    service.start()
    try:
        yield server, service
    finally:
        server.shutdown()
        server.server_close()
        service.stop(drain=False)
        thread.join(timeout=5)


@pytest.fixture(scope="module")
def http_stack(fitted):
    """A full registry+service+HTTP stack on an ephemeral port."""
    __, path = fitted
    with _http_server(path, workers=2, queue_size=8) as (server, service):
        yield f"http://127.0.0.1:{server.server_address[1]}", service


def _get(url):
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, json.loads(response.read().decode())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode())


def _read_until_closed(conn: socket.socket, timeout: float) -> bytes:
    """Everything the server sends until it closes (or goes quiet)."""
    conn.settimeout(timeout)
    chunks = []
    try:
        while chunk := conn.recv(65536):
            chunks.append(chunk)
    except (socket.timeout, ConnectionResetError):
        pass
    return b"".join(chunks)


def _post(url, payload):
    data = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
    request = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.loads(response.read().decode()), {}
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode()), dict(error.headers)


@pytest.mark.parametrize("processes", [0, 2])
def test_malformed_params_are_400_before_any_worker(fitted, processes):
    """Regression: a list ``noise_scale`` broke the cache key and a string
    one broke a worker, both as 500s counted under ``failed``.  Each
    value is now checked against its CPGANConfig field at submit."""
    __, path = fitted
    with _http_server(path, worker_processes=processes) as (server, __):
        base = f"http://127.0.0.1:{server.server_address[1]}"
        for params in (
            {"noise_scale": [1]},
            {"noise_scale": "x"},
            {"hier_level": 1.5},
            {"candidate_factor": True},
            {"assembly_strategy": "threshold"},
        ):
            status, payload, __ = _post(
                base + "/generate", {"model": "toy", "params": params}
            )
            assert status == 400, payload
            assert next(iter(params)) in payload["error"]
        __, metrics = _get(base + "/metrics")
        assert metrics["requests"]["failed"] == 0
        assert metrics["requests"]["submitted"] == 0
        status, __, __ = _post(
            base + "/generate", {"model": "toy", "params": {"noise_scale": 1}}
        )
        assert status == 200


class TestHTTPAPI:
    def test_healthz(self, http_stack):
        base, __ = http_stack
        status, payload = _get(base + "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["models"] == 1

    def test_models_listing(self, http_stack):
        base, __ = http_stack
        status, payload = _get(base + "/models")
        assert status == 200
        (info,) = payload["models"]
        assert info["name"] == "toy"
        assert info["nodes"] == 60

    def test_generate_round_trip(self, http_stack, fitted):
        model, __ = fitted
        base, __ = http_stack
        status, payload, __ = _post(base + "/generate", {"model": "toy", "seed": 4})
        assert status == 200
        expected = model.generate(seed=4)
        assert payload["num_nodes"] == expected.num_nodes
        assert payload["num_edges"] == expected.num_edges
        np.testing.assert_array_equal(
            np.asarray(payload["edges"]), expected.edge_array()
        )

    def test_generate_repeat_is_cache_hit(self, http_stack):
        base, __ = http_stack
        __, first, __ = _post(base + "/generate", {"model": "toy", "seed": 11})
        __, second, __ = _post(base + "/generate", {"model": "toy", "seed": 11})
        assert second["cache_hit"]
        assert second["edges"] == first["edges"]

    def test_unknown_model_404(self, http_stack):
        base, __ = http_stack
        status, payload, __ = _post(base + "/generate", {"model": "nope"})
        assert status == 404
        assert "nope" in payload["error"]

    def test_bad_json_400(self, http_stack):
        base, __ = http_stack
        status, __, __ = _post(base + "/generate", b"{not json")
        assert status == 400

    def test_unknown_field_400(self, http_stack):
        base, __ = http_stack
        status, payload, __ = _post(
            base + "/generate", {"model": "toy", "temperature": 2.0}
        )
        assert status == 400
        assert "temperature" in payload["error"]

    def test_removed_generation_mode_400(self, http_stack):
        """``generation_mode`` is an allowed param, but 'dense' is no
        longer a valid value: a clean 400 naming the field."""
        base, __ = http_stack
        status, payload, __ = _post(
            base + "/generate",
            {"model": "toy", "params": {"generation_mode": "dense"}},
        )
        assert status == 400
        assert "generation_mode" in payload["error"]

    def test_unknown_endpoint_404(self, http_stack):
        base, __ = http_stack
        status, payload = _get(base + "/metricz")
        assert status == 404
        assert "metricz" in payload["error"]

    def test_metrics_document(self, http_stack):
        base, __ = http_stack
        status, payload = _get(base + "/metrics")
        assert status == 200
        for section in ("requests", "latency", "queue", "cache", "registry"):
            assert section in payload
        assert payload["queue"]["workers"] == 2

    def test_negative_seed_is_clean_400(self, http_stack):
        """Regression: -1 used to surface NumPy's SeedSequence internals
        as a 500; it must be a clean 400 naming the field."""
        base, __ = http_stack
        status, payload, __ = _post(
            base + "/generate", {"model": "toy", "seed": -1}
        )
        assert status == 400
        assert "seed" in payload["error"]
        assert "SeedSequence" not in payload["error"]

    def test_client_disconnect_mid_response_is_counted(self, http_stack):
        """Regression: a client closing its socket mid-response made the
        handler thread traceback with BrokenPipeError.  It must be
        swallowed, counted once in /metrics, and leave the server
        serving."""
        import struct

        base, service = http_stack
        port = int(base.rsplit(":", 1)[1])
        before = service.metrics()["requests"]["dropped_responses"]
        body = json.dumps({"model": "toy", "seed": 37}).encode()
        conn = socket.create_connection(("127.0.0.1", port), timeout=10)
        # SO_LINGER with zero timeout makes close() send an RST, so the
        # server's response write fails deterministically.
        conn.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
        conn.sendall(
            b"POST /generate HTTP/1.1\r\n"
            b"Host: localhost\r\n"
            b"Content-Type: application/json\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode()
            + body
        )
        conn.close()
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            dropped = service.metrics()["requests"]["dropped_responses"]
            if dropped > before:
                break
            time.sleep(0.02)
        # The buffered writer keeps unsent bytes after the failed send;
        # the stdlib's closing flushes must not count the drop again.
        time.sleep(0.2)
        assert service.metrics()["requests"]["dropped_responses"] == before + 1
        # The handler thread survived; the server keeps serving.
        status, __, ___ = _post(base + "/generate", {"model": "toy", "seed": 4})
        assert status == 200

    @pytest.mark.parametrize(
        "path, length, expected",
        [
            ("/generate", "2000000", 400),  # over the body limit
            ("/generate", "twelve", 400),   # not an integer
            ("/nope", None, 404),           # no route reads the body
        ],
    )
    def test_unread_body_closes_the_connection(
        self, http_stack, path, length, expected
    ):
        """Regression: a reply sent without reading the request body kept
        the connection open, so the body was parsed as the next request —
        here a smuggled ``GET /healthz`` that got its own 200."""
        base, __ = http_stack
        port = int(base.rsplit(":", 1)[1])
        smuggled = b"GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n"
        length = length or str(len(smuggled))
        with socket.create_connection(("127.0.0.1", port), timeout=10) as conn:
            conn.sendall(
                f"POST {path} HTTP/1.1\r\nHost: localhost\r\n".encode()
                + f"Content-Length: {length}\r\n\r\n".encode()
                + smuggled
            )
            received = _read_until_closed(conn, 2.0)
        assert received.startswith(f"HTTP/1.1 {expected} ".encode())
        assert b"Connection: close" in received
        assert received.count(b"HTTP/1.1 ") == 1

    def test_read_body_keeps_the_connection_open(self, http_stack):
        """A 400 after the body was read leaves nothing to smuggle, so
        the keep-alive connection stays usable."""
        base, __ = http_stack
        conn = http.client.HTTPConnection(base[len("http://"):], timeout=30)
        try:
            conn.request("POST", "/generate", body=b"{not json")
            response = conn.getresponse()
            response.read()
            assert response.status == 400
            assert response.getheader("Connection") is None
            conn.request("GET", "/healthz")
            assert conn.getresponse().status == 200
        finally:
            conn.close()

    def test_overloaded_returns_503_with_retry_after(self, fitted):
        """Acceptance: full queue → 503 + Retry-After, not a hang."""
        __, path = fitted
        reg = ModelRegistry()
        reg.register("toy", path)
        service = GenerationService(
            reg, workers=1, queue_size=1, retry_after_s=0.5
        )
        server = build_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            # Workers not started: one submit fills the queue for sure.
            backlog = service.submit(GenerationRequest("toy", seed=0))
            status, payload, headers = _post(
                base + "/generate", {"model": "toy", "seed": 1}
            )
            assert status == 503
            assert payload["retry_after_s"] == 0.5
            # RFC 9110: the header is integer seconds, rounded up and
            # never 0; the fractional hint lives in the JSON body.
            assert headers.get("Retry-After") == "1"
            # Draining afterwards completes the queued request.
            service.start()
            backlog.result(60.0)
        finally:
            server.shutdown()
            server.server_close()
            service.stop(drain=False)
            thread.join(timeout=5)


class TestKeepAliveTransport:
    """A keep-alive response leaves in one send on a TCP_NODELAY socket,
    so a cache hit costs its work rather than a delayed-ACK round."""

    @pytest.mark.parametrize("worker_processes", [0, 2])
    def test_keep_alive_cache_hits_are_fast(self, fitted, worker_processes):
        """Regression: the body went out in a second send behind the
        headers with Nagle on, so every keep-alive response waited for
        the client's delayed ACK (~40 ms median on Linux loopback)."""
        __, path = fitted
        body = json.dumps({"model": "toy", "seed": 3})
        headers = {"Content-Type": "application/json"}
        timings = []
        with _http_server(
            path, workers=2, worker_processes=worker_processes
        ) as (server, __):
            conn = http.client.HTTPConnection(
                "127.0.0.1", server.server_address[1], timeout=60
            )
            try:
                for i in range(21):
                    started = time.perf_counter()
                    conn.request("POST", "/generate", body=body, headers=headers)
                    response = conn.getresponse()
                    payload = json.loads(response.read())
                    elapsed = time.perf_counter() - started
                    assert response.status == 200
                    if i == 0:  # generates and fills the cache
                        sock = conn.sock
                        continue
                    assert conn.sock is sock, "connection was not kept alive"
                    assert payload["cache_hit"]
                    timings.append(elapsed)
            finally:
                conn.close()
        assert len(timings) == 20
        assert statistics.median(timings) < 0.020

    def test_expect_100_continue_is_not_buffered(self, http_stack):
        """The buffered writer must not hold back the interim 100 that a
        client waits for before it sends its body."""
        base, __ = http_stack
        port = int(base.rsplit(":", 1)[1])
        body = json.dumps({"model": "toy", "seed": 4}).encode()
        with socket.create_connection(("127.0.0.1", port), timeout=5) as conn:
            conn.sendall(
                b"POST /generate HTTP/1.1\r\nHost: localhost\r\n"
                b"Expect: 100-continue\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode()
            )
            assert conn.recv(65536).startswith(b"HTTP/1.1 100 ")
            conn.sendall(body)
            assert conn.recv(65536).startswith(b"HTTP/1.1 200 ")

    def test_accepted_socket_has_nodelay(self, fitted, monkeypatch):
        __, path = fitted
        seen = []
        with _http_server(path, workers=1) as (server, __):
            handler = server.RequestHandlerClass
            setup = handler.setup

            def recording_setup(self):
                setup(self)
                seen.append(
                    self.connection.getsockopt(
                        socket.IPPROTO_TCP, socket.TCP_NODELAY
                    )
                )

            monkeypatch.setattr(handler, "setup", recording_setup)
            status, __ = _get(f"http://127.0.0.1:{server.server_address[1]}/healthz")
        assert status == 200
        assert seen and all(seen)
