"""Micro-batched generation: kernel, model, and serve-queue coalescing.

The load-bearing property throughout is bit-identity: batching S requests
into one sweep must never change any request's graph, for any batch
composition, node-count mix, or thread count.  Everything else (batch
metrics, autosizing, timeouts) rides on top of that contract.
"""

import numpy as np
import pytest

from repro.core import CPGAN, CPGANConfig, save_model
from repro.core.decoder import topk_pair_candidates, topk_pair_candidates_batch
from repro.datasets import community_graph
from repro.serve import (
    GenerationRequest,
    GenerationService,
    ModelRegistry,
    autosize_serving,
)
from repro.serve.metrics import batching_section
from repro.trace import Counts, counting


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


def _feature_stack(num_samples, n, d, seed=0):
    """Per-sample feature matrices with *different* norm profiles, so each
    sample's bound-descending block order and seed split differ — the case
    that would expose any shared-schedule shortcut in the batched kernel."""
    rng = np.random.default_rng(seed)
    gs = rng.normal(size=(num_samples, n, d))
    for s in range(num_samples):
        rows = rng.permutation(n)[: n // 3]
        gs[s, rows] *= 1.0 + 3.0 * rng.random()
    return gs


class TestBatchedKernel:
    @pytest.mark.parametrize("threads", [1, 4])
    def test_stack_matches_solo(self, threads, scoring_pool):
        """Acceptance: batched scoring is bit-identical to S solo runs."""
        gs = _feature_stack(5, 70, 8, seed=1)
        k = 120
        batched = topk_pair_candidates_batch(
            gs, k, row_block=16, threads=threads
        )
        assert len(batched) == 5
        for s in range(5):
            solo = topk_pair_candidates(gs[s], k, row_block=16, threads=threads)
            for got, want in zip(batched[s], solo):
                np.testing.assert_array_equal(got, want)
        assert bool(scoring_pool) == (threads > 1)

    def test_threads_never_change_bits(self, scoring_pool):
        gs = _feature_stack(3, 50, 6, seed=2)
        serial = topk_pair_candidates_batch(gs, 60, row_block=16, threads=1)
        threaded = topk_pair_candidates_batch(gs, 60, row_block=16, threads=4)
        for a, b in zip(serial, threaded):
            for got, want in zip(a, b):
                np.testing.assert_array_equal(got, want)
        assert len(scoring_pool) == 3

    def test_single_sample_stack_is_the_solo_kernel(self):
        g = _feature_stack(1, 40, 5, seed=4)[0]
        batched = topk_pair_candidates_batch(g[np.newaxis], 30)
        solo = topk_pair_candidates(g, 30)
        for got, want in zip(batched[0], solo):
            np.testing.assert_array_equal(got, want)

    def test_empty_stack(self):
        assert topk_pair_candidates_batch(np.zeros((0, 5, 3)), 4) == []

    @pytest.mark.parametrize("shape,k", [((3, 4, 2), 0), ((2, 1, 2), 5)])
    def test_degenerate_k_or_n(self, shape, k):
        rng = np.random.default_rng(0)
        out = topk_pair_candidates_batch(rng.normal(size=shape), k)
        assert len(out) == shape[0]
        for u, v, score in out:
            assert u.size == v.size == score.size == 0
            assert u.dtype == np.int64 and v.dtype == np.int64

    def test_rejects_2d_input(self):
        with pytest.raises(ValueError, match="samples, nodes, features"):
            topk_pair_candidates_batch(np.zeros((4, 3)), 2)


class TestGenerateBatch:
    def test_matches_sequential_generate(self, fitted):
        """Acceptance: every batch slot is bit-identical to its solo run."""
        model, __ = fitted
        seeds = [3, 11, 3, 7, 42]
        batch = model.generate_batch(seeds)
        for seed, graph in zip(seeds, batch):
            assert graph == model.generate(seed)

    def test_mixed_num_nodes(self, fitted):
        model, __ = fitted
        seeds = [0, 1, 2, 3]
        sizes = [50, 80, 50, None]
        batch = model.generate_batch(seeds, sizes)
        for seed, size, graph in zip(seeds, sizes, batch):
            assert graph == model.generate(seed, size)

    @pytest.mark.parametrize("threads", [1, 4])
    def test_thread_count_never_changes_bits(
        self, fitted, threads, scoring_pool
    ):
        model, __ = fitted
        cfg = model.generation_config(generation_threads=threads)
        batch = model.generate_batch([5, 6, 5], config=cfg)
        assert len(scoring_pool) == (3 if threads > 1 else 0)
        for seed, graph in zip([5, 6, 5], batch):
            assert graph == model.generate(seed)

    def test_degenerate_node_counts(self, fitted):
        model, __ = fitted
        batch = model.generate_batch([0, 1], [1, 2])
        assert batch[0] == model.generate(0, 1)
        assert batch[1] == model.generate(1, 2)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_counts_are_the_sum_of_solo_runs(self, fitted, dtype):
        """The ``topk_*``, ``repair_*`` and ``samples`` totals of a batch
        (what ``/metrics`` and the benchmark read) equal the sum over solo
        ``generate`` calls, duplicate seeds included.  One scoring thread:
        with more, how many blocks a stale threshold lets through depends
        on thread timing."""
        model, __ = fitted
        cfg = model.generation_config(generation_dtype=dtype)
        seeds = [3, 11, 3, 7]
        with counting() as batch:
            model.generate_batch(seeds, config=cfg)
        solo = Counts()
        for seed in seeds:
            with counting() as one:
                model.generate(seed, config=cfg)
            solo.add(one)
        names = [
            name for name in solo
            if name.startswith(("topk_", "repair_")) or name == "samples"
        ]
        assert {"samples", "topk_blocks", "repair_isolated"} <= set(names)
        for name in names:
            if name != "repair_s":  # wall-clock seconds
                assert batch[name] == solo[name], name
        assert batch["samples"] == len(seeds)

    @pytest.mark.parametrize("num_nodes", [0, -5])
    def test_rejects_num_nodes_below_one(self, fitted, num_nodes):
        """0 used to fall back to the fitted size, -5 to fail in numpy."""
        model, __ = fitted
        with pytest.raises(ValueError, match="num_nodes must be >= 1"):
            model.generate(seed=0, num_nodes=num_nodes)

    def test_empty_seed_list(self, fitted):
        model, __ = fitted
        assert model.generate_batch([]) == []

    def test_num_nodes_length_mismatch(self, fitted):
        model, __ = fitted
        with pytest.raises(ValueError, match="2 entries for 3 seeds"):
            model.generate_batch([0, 1, 2], [10, 20])

    def test_dense_fallback_matches(self, fitted):
        model, __ = fitted
        cfg = model.generation_config(assembly_strategy="bernoulli")
        batch = model.generate_batch([1, 4], config=cfg)
        for seed, graph in zip([1, 4], batch):
            prepared = model._prepare_generation(seed, None, cfg)
            assert graph == model._generate_dense(prepared, "bernoulli")


def _service(path, **kwargs):
    reg = ModelRegistry()
    reg.register("toy", path)
    return GenerationService(reg, **kwargs)


class TestServiceCoalescing:
    def test_coalesced_batch_is_bit_identical(self, fitted):
        """Acceptance: queued same-key requests coalesce, and every
        response matches the solo generate for its seed."""
        model, path = fitted
        service = _service(
            path, workers=1, cache_entries=0, max_batch_size=4
        )
        seeds = [0, 1, 0, 2, 1, 3]
        # Workers are not started yet, so the queue fills deterministically
        # and the single worker must coalesce the backlog.
        pendings = [
            service.submit(GenerationRequest("toy", seed=s)) for s in seeds
        ]
        service.start()
        try:
            for seed, pending in zip(seeds, pendings):
                assert pending.result(60.0).graph == model.generate(seed)
        finally:
            service.stop()
        batching = service.metrics()["batching"]
        assert batching["requests"] == len(seeds)
        assert batching["coalesced_requests"] > 0
        assert max(int(size) for size in batching["histogram"]) <= 4

    def test_batch_populates_cache_per_seed(self, fitted):
        __, path = fitted
        service = _service(path, workers=1, cache_entries=8, max_batch_size=4)
        pendings = [
            service.submit(GenerationRequest("toy", seed=s)) for s in (0, 1, 2)
        ]
        service.start()
        try:
            for pending in pendings:
                assert not pending.result(60.0).cache_hit
            for s in (0, 1, 2):
                assert service.generate(GenerationRequest("toy", seed=s)).cache_hit
        finally:
            service.stop()

    def test_mixed_keys_split_batches(self, fitted):
        """A non-matching follower is carried, not dropped or misbatched."""
        model, path = fitted
        service = _service(path, workers=1, cache_entries=0, max_batch_size=8)
        requests = [
            GenerationRequest("toy", seed=0),
            GenerationRequest("toy", seed=1, num_nodes=50),
            GenerationRequest("toy", seed=0, num_nodes=50),
            GenerationRequest("toy", seed=2),
        ]
        pendings = [service.submit(r) for r in requests]
        service.start()
        try:
            for request, pending in zip(requests, pendings):
                expected = model.generate(request.seed, request.num_nodes)
                assert pending.result(60.0).graph == expected
        finally:
            service.stop()
        # Four requests but only two distinct coalesce keys interleaved:
        # the carry pattern yields more than one batch, none oversized.
        batching = service.metrics()["batching"]
        assert batching["batches"] >= 2
        assert batching["requests"] == 4

    def test_max_batch_size_one_disables_coalescing(self, fitted):
        __, path = fitted
        service = _service(path, workers=1, cache_entries=0, max_batch_size=1)
        pendings = [
            service.submit(GenerationRequest("toy", seed=s)) for s in (0, 1, 2)
        ]
        service.start()
        try:
            for pending in pendings:
                pending.result(60.0)
        finally:
            service.stop()
        batching = service.metrics()["batching"]
        assert batching["histogram"] == {"1": 3}
        assert batching["coalesced_fraction"] == 0.0

    def test_knob_validation(self, fitted):
        __, path = fitted
        with pytest.raises(ValueError, match="max_batch_size"):
            _service(path, max_batch_size=0)
        with pytest.raises(ValueError, match="request_timeout_s"):
            _service(path, request_timeout_s=0.0)

    def test_metrics_report_new_knobs(self, fitted):
        __, path = fitted
        service = _service(path, max_batch_size=5, request_timeout_s=7.5)
        metrics = service.metrics()
        assert metrics["queue"]["request_timeout_s"] == 7.5
        assert metrics["batching"]["max_batch_size"] == 5
        assert metrics["batching"]["batches"] == 0


class TestAutosizeAndHistogram:
    def test_autosize_shapes(self):
        assert autosize_serving(1) == {
            "workers": 2, "generation_threads": 1, "worker_processes": 0,
        }
        assert autosize_serving(4) == {
            "workers": 4, "generation_threads": 1, "worker_processes": 4,
        }
        assert autosize_serving(16) == {
            "workers": 8, "generation_threads": 2, "worker_processes": 8,
        }
        assert autosize_serving(64) == {
            "workers": 8, "generation_threads": 8, "worker_processes": 8,
        }

    def test_autosize_uses_host_cpu_count(self):
        sized = autosize_serving()
        assert sized["workers"] >= 2
        assert sized["generation_threads"] >= 1
        assert sized["worker_processes"] >= 0

    def test_histogram_rendering(self):
        """The renderer derives the batching section from raw batch-size
        counts, and orders the histogram by size even after summing the
        counts of several worker processes ("4" before "10")."""
        sizes = Counts()
        for size in (1, 1, 3, 4):
            sizes.add({size: 1})
        section = batching_section(sizes, max_batch_size=8)
        assert section["batches"] == 4
        assert section["requests"] == 9
        assert section["coalesced_requests"] == 7
        assert section["coalesced_fraction"] == pytest.approx(7 / 9)
        assert section["histogram"] == {"1": 2, "3": 1, "4": 1}
        summed = Counts()
        for shipped in (sizes.snapshot(), {10: 1}):
            summed.add(shipped)
        section = batching_section(summed, max_batch_size=16)
        assert list(section["histogram"]) == ["1", "3", "4", "10"]
        assert section["batches"] == 5
        assert section["requests"] == 19
        assert section["coalesced_fraction"] == pytest.approx(17 / 19)
