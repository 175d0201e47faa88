"""Tests for the ambient counter primitive (``repro.trace``)."""

import contextvars
import pickle
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core import CPGAN, CPGANConfig
from repro.datasets import community_graph
from repro.trace import Counts, count, counting


class TestCounting:
    def test_count_outside_counting_is_a_no_op(self):
        count(samples=1, repair_sampler="dense")
        with counting() as counts:
            pass
        assert counts == {}

    def test_numbers_add_and_labels_keep_the_last_write(self):
        with counting() as counts:
            count(samples=1, repair_s=0.5, repair_sampler="dense")
            count(samples=2, repair_s=0.25, repair_sampler="factored")
        assert counts == {
            "samples": 3,
            "repair_s": 0.75,
            "repair_sampler": "factored",
        }

    def test_nested_blocks_count_into_the_innermost(self):
        with counting() as outer:
            count(samples=1)
            with counting() as inner:
                count(samples=10)
            count(samples=1)
        assert outer == {"samples": 2}
        assert inner == {"samples": 10}

    def test_threads_never_see_each_others_counts(self):
        """Each serve worker thread counts into its own block."""
        barrier = threading.Barrier(2)
        results = {}

        def work(name: str, step: int) -> None:
            with counting() as counts:
                barrier.wait()
                for __ in range(2000):
                    count(samples=step)
                barrier.wait()
            results[name] = dict(counts)

        threads = [
            threading.Thread(target=work, args=(name, step))
            for name, step in (("a", 1), ("b", 3))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert results == {"a": {"samples": 2000}, "b": {"samples": 6000}}

    def test_pool_threads_sharing_one_block_lose_no_update(self):
        """Pool threads running in copies of the caller's context all add
        into the caller's block; a lost read-modify-write shows as a short
        total."""
        workers, calls = 8, 2000

        def work() -> None:
            for __ in range(calls):
                count(samples=1, repair_s=0.5)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with counting() as counts:
                with ThreadPoolExecutor(max_workers=workers) as pool:
                    futures = [
                        pool.submit(contextvars.copy_context().run, work)
                        for __ in range(workers)
                    ]
                    for future in futures:
                        future.result(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert counts == {
            "samples": workers * calls,
            "repair_s": 0.5 * workers * calls,
        }

    def test_snapshot_is_a_plain_picklable_dict(self):
        """Worker processes ship their counts over IPC: the snapshot must
        pickle, which the lock-carrying ``Counts`` itself does not."""
        counts = Counts()
        counts.add({("dense", "samples"): 2, 3: 1, "hits": 4})
        snapshot = counts.snapshot()
        assert type(snapshot) is dict
        assert pickle.loads(pickle.dumps(snapshot)) == counts
        counts.add({"hits": 1})
        assert snapshot["hits"] == 4


@pytest.fixture(scope="module")
def trained():
    graph, __ = community_graph(120, 5, 6.0, seed=0)
    config = CPGANConfig(
        input_dim=4, node_embedding_dim=8, hidden_dim=16, latent_dim=8,
        pool_size=8, epochs=6, sample_size=120, seed=0,
    )
    return CPGAN(config).fit(graph)


def test_hier_pool_propagates_counts(trained):
    """Counts from hier worker threads reach the caller's block: totals at
    ``hier_workers=3`` equal the serial run's."""
    totals = {}
    for workers in (1, 3):
        cfg = trained.generation_config(
            generation_mode="hierarchical",
            repair_sampler="factored",
            hier_workers=workers,
        )
        with counting() as counts:
            trained.generate(seed=5, config=cfg)
        totals[workers] = counts
    serial, pooled = totals[1], totals[3]
    assert serial["hier_communities"] >= 2
    assert serial["topk_blocks"] > 0 and "repair_isolated" in serial
    assert pooled.keys() == serial.keys()
    for key in serial.keys() - {"repair_s"}:  # wall-clock differs
        assert pooled[key] == serial[key], key
