"""Process-pool serving tier: routing, bit-identity, and supervision.

The tier's hard invariant is that moving workers into processes changes
*where* a request runs and nothing else: the same ``(model, seed,
params)`` must return a bit-identical graph at every process count, with
coalescing on or off.  The rest of the suite covers the hardened
lifecycle — cache-hot rendezvous routing, worker-death recovery with
exactly-once re-dispatch, stop semantics, and the metrics summed over
processes.
"""

import os
import signal
import socket
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

import repro
from repro.core import CPGAN, CPGANConfig, save_model
from repro.datasets import community_graph
from repro.serve import (
    GenerationRequest,
    GenerationService,
    ModelRegistry,
    Overloaded,
    RequestExpired,
    ServiceStopping,
    route_key,
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
    graph, __ = community_graph(60, 3, 5.0, seed=0)
    model = CPGAN(tiny_config()).fit(graph)
    path = tmp_path_factory.mktemp("models") / "toy.npz"
    save_model(model, path)
    return model, path


def _service(path, processes, **kwargs):
    registry = ModelRegistry()
    registry.register("toy", path)
    kwargs.setdefault("workers", 1)
    return GenerationService(
        registry, worker_processes=processes, **kwargs
    )


class TestRouteKey:
    def test_deterministic_and_in_range(self):
        for processes in (1, 2, 4, 7):
            for seed in range(32):
                index = route_key("toy", seed, processes)
                assert 0 <= index < processes
                assert index == route_key("toy", seed, processes)

    def test_single_process_takes_everything(self):
        assert all(route_key("m", s, 1) == 0 for s in range(16))

    def test_keys_spread_across_processes(self):
        hit = {route_key("toy", seed, 4) for seed in range(64)}
        assert hit == {0, 1, 2, 3}

    def test_model_name_participates(self):
        routes_a = [route_key("alpha", s, 4) for s in range(64)]
        routes_b = [route_key("beta", s, 4) for s in range(64)]
        assert routes_a != routes_b

    def test_rejects_empty_pool(self):
        with pytest.raises(ValueError, match="processes"):
            route_key("toy", 0, 0)


class TestBitIdentity:
    """Acceptance: identical graphs at 1/2/4 processes, coalescing on/off."""

    @pytest.mark.parametrize("processes", [1, 2, 4])
    @pytest.mark.parametrize("max_batch_size", [1, 8])
    def test_matches_direct_generate(self, fitted, processes, max_batch_size):
        model, path = fitted
        service = _service(
            path, processes, cache_entries=0, max_batch_size=max_batch_size
        )
        service.start()
        try:
            requests = [
                GenerationRequest("toy", seed=3),
                GenerationRequest("toy", seed=11),
                GenerationRequest("toy", seed=3),      # repeat, uncached
                GenerationRequest("toy", seed=7, num_nodes=50),
                GenerationRequest("toy", seed=11),
            ]
            pendings = [service.submit(r) for r in requests]
            for request, pending in zip(requests, pendings):
                expected = model.generate(request.seed, request.num_nodes)
                assert pending.result(120.0).graph == expected
        finally:
            service.stop()

    def test_process_count_never_changes_bits(self, fitted):
        """The same request served by differently-sized pools agrees."""
        __, path = fitted
        graphs = []
        for processes in (1, 2):
            service = _service(path, processes, cache_entries=0)
            service.start()
            try:
                result = service.submit(
                    GenerationRequest("toy", seed=13)
                ).result(120.0)
            finally:
                service.stop()
            graphs.append(result.graph)
        assert graphs[0] == graphs[1]


class TestLifecycle:
    def test_repeat_lands_on_the_hot_cache(self, fitted):
        """Rendezvous routing pins a key to one process, so the repeat is
        a cache hit even though each process caches independently."""
        __, path = fitted
        service = _service(path, 2, cache_entries=8)
        service.start()
        try:
            first = service.submit(GenerationRequest("toy", seed=5)).result(120.0)
            assert not first.cache_hit
            second = service.submit(GenerationRequest("toy", seed=5)).result(120.0)
            assert second.cache_hit
            assert second.graph == first.graph
        finally:
            service.stop()

    def test_metrics_expose_the_pool(self, fitted):
        __, path = fitted
        service = _service(path, 2, cache_entries=4)
        service.start()
        try:
            service.submit(GenerationRequest("toy", seed=1)).result(120.0)
            metrics = service.metrics()
        finally:
            service.stop()
        assert metrics["queue"]["worker_processes"] == 2
        pool = metrics["processes"]
        assert pool["count"] == 2
        assert pool["start_method"] in ("fork", "spawn", "forkserver")
        assert len(pool["workers"]) == 2
        for worker in pool["workers"]:
            assert worker["alive"]
            assert worker["pid"] > 0
            assert worker["restarts"] == 0
        assert sum(w["routed"] for w in pool["workers"]) == 1
        # Child counts sum into the usual top-level sections.
        assert metrics["cache"]["misses"] >= 1
        assert metrics["batching"]["requests"] >= 1

    def test_registry_counts_sum_the_workers(self, fitted):
        """Each worker process loads the model at spawn, so once every
        process has answered, ``registry`` reports one cold load and one
        resident model per process.  The parent's own facts (``models``,
        ``max_loaded``, ``rejected``) are not summed."""
        __, path = fitted
        processes = 2
        seeds = [
            next(s for s in range(64) if route_key("toy", s, processes) == i)
            for i in range(processes)
        ]
        service = _service(path, processes)
        service.start()
        try:
            for seed in seeds:
                pending = service.submit(GenerationRequest("toy", seed=seed))
                pending.result(120.0)
            metrics = service.metrics()
        finally:
            service.stop()
        assert all(w["routed"] == 1 for w in metrics["processes"]["workers"])
        registry = metrics["registry"]
        assert registry["cold_loads"] == processes
        assert registry["loaded"] == processes
        assert registry["warm_acquires"] >= processes
        assert registry["evictions"] == 0
        assert registry["models"] == 1
        assert registry["max_loaded"] == service.registry.max_loaded
        assert registry["rejected"] == 0

    def test_submit_before_start_is_an_error(self, fitted):
        __, path = fitted
        service = _service(path, 2)
        with pytest.raises(RuntimeError, match="started"):
            service.submit(GenerationRequest("toy", seed=0))

    def test_submit_after_stop_raises_stopping(self, fitted):
        __, path = fitted
        service = _service(path, 2)
        service.start()
        service.stop()
        with pytest.raises(ServiceStopping):
            service.submit(GenerationRequest("toy", seed=0))
        assert service.metrics()["requests"]["rejected"] == 1

    def test_negative_seed_rejected_before_dispatch(self, fitted):
        __, path = fitted
        service = _service(path, 2)
        service.start()
        try:
            with pytest.raises(ValueError, match="seed"):
                service.submit(GenerationRequest("toy", seed=-1))
        finally:
            service.stop()

    def test_expired_request_never_generates(self, fitted, monkeypatch):
        """The deadline crosses the IPC boundary: a worker process drops a
        request whose deadline passed in transit, never generating it,
        and the parent counts it as ``expired``.  Forked workers inherit
        a ``generate_batch`` that fails the test if it runs."""
        __, path = fitted

        def refuse(self, *args, **kwargs):
            raise AssertionError("generate_batch ran for an expired request")

        monkeypatch.setattr(CPGAN, "generate_batch", refuse)
        service = _service(path, 2, mp_start_method="fork")
        service.start()
        try:
            pending = service.submit(
                GenerationRequest("toy", seed=41), timeout=1e-6
            )
            with pytest.raises(RequestExpired):
                pending.result(120.0)
            requests = service.metrics()["requests"]
        finally:
            service.stop()
        assert requests["expired"] == 1
        assert requests["failed"] == 0
        assert requests["completed"] == 0

    def test_restart_after_stop(self, fitted):
        model, path = fitted
        service = _service(path, 1, cache_entries=0)
        for __ in range(2):
            service.start()
            try:
                result = service.submit(
                    GenerationRequest("toy", seed=2)
                ).result(120.0)
                assert result.graph == model.generate(2)
            finally:
                service.stop()


class TestWorkerDeath:
    def test_killed_worker_is_replaced_and_requests_recover(self, fitted):
        """SIGKILL a worker mid-flight: every pending either resolves with
        the correct graph (re-dispatched once) or fails with a clean
        RuntimeError — never hangs — and the pool keeps serving."""
        model, path = fitted
        service = _service(path, 2, cache_entries=0)
        service.start()
        try:
            victim = route_key("toy", 0, 2)
            seeds = [s for s in range(64) if route_key("toy", s, 2) == victim]
            seeds = seeds[:4]
            pendings = [
                service.submit(GenerationRequest("toy", seed=s)) for s in seeds
            ]
            workers = service.metrics()["processes"]["workers"]
            os.kill(workers[victim]["pid"], signal.SIGKILL)

            outcomes = []
            for seed, pending in zip(seeds, pendings):
                try:
                    result = pending.result(120.0)
                except RuntimeError as error:
                    outcomes.append(("failed", str(error)))
                else:
                    assert result.graph == model.generate(seed)
                    outcomes.append(("ok", None))
            assert len(outcomes) == len(seeds)

            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if service.metrics()["requests"]["worker_restarts"] >= 1:
                    break
                time.sleep(0.05)
            metrics = service.metrics()
            assert metrics["requests"]["worker_restarts"] >= 1
            replacement = metrics["processes"]["workers"][victim]
            assert replacement["restarts"] >= 1
            assert replacement["pid"] != workers[victim]["pid"]

            # The replacement serves the same key bit-identically.
            after = service.submit(
                GenerationRequest("toy", seed=seeds[0])
            ).result(120.0)
            assert after.graph == model.generate(seeds[0])
        finally:
            service.stop()

    def test_per_process_backpressure(self, fitted):
        """A saturated process answers Overloaded instead of queueing
        unboundedly; other processes stay reachable."""
        __, path = fitted
        service = _service(path, 2, queue_size=2, cache_entries=0)
        service.start()
        try:
            victim = route_key("toy", 0, 2)
            seeds = [s for s in range(64) if route_key("toy", s, 2) == victim]
            accepted, rejected = [], 0
            for s in seeds[:8]:
                try:
                    accepted.append(
                        service.submit(GenerationRequest("toy", seed=s))
                    )
                except Overloaded:
                    rejected += 1
            assert rejected > 0
            for pending in accepted:
                pending.result(120.0)
        finally:
            service.stop()


def _is_running(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie awaiting its reaper."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(
    not Path("/proc/self/task").exists(), reason="needs Linux procfs"
)
class TestServeSignals:
    def test_sigterm_stops_worker_processes(self, fitted):
        """Regression: SIGTERM to ``repro serve --worker-processes`` left
        its worker processes running with parent 1.  It must shut down
        through the SIGINT path: exit 0, every child gone."""
        __, path = fitted
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
        server = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", str(path),
                "--worker-processes", "2", "--port", str(port),
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        children: list[int] = []
        try:
            deadline = time.monotonic() + 60
            while True:
                try:
                    url = f"http://127.0.0.1:{port}/healthz"
                    with urllib.request.urlopen(url, timeout=2):
                        break
                except OSError:
                    assert server.poll() is None, "server exited early"
                    assert time.monotonic() < deadline, "server never healthy"
                    time.sleep(0.1)
            children_file = Path(
                f"/proc/{server.pid}/task/{server.pid}/children"
            )
            children = [int(pid) for pid in children_file.read_text().split()]
            assert len(children) >= 2
            server.send_signal(signal.SIGTERM)
            assert server.wait(timeout=30) == 0
            deadline = time.monotonic() + 5
            alive = children
            while alive and time.monotonic() < deadline:
                time.sleep(0.05)
                alive = [pid for pid in alive if _is_running(pid)]
            assert not alive, f"orphaned worker processes {alive}"
        finally:
            if server.poll() is None:
                server.kill()
                server.wait()
            for pid in children:  # never leak workers when the test fails
                if _is_running(pid):
                    os.kill(pid, signal.SIGKILL)
