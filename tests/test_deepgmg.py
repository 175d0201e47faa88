"""Tests for the DeepGMG-lite sequential generator."""

import numpy as np
import pytest

from repro.baselines import NotFittedError
from repro.baselines.learned import DeepGMG
from repro.datasets import community_graph


@pytest.fixture(scope="module")
def trained():
    graph, __ = community_graph(60, 3, 5.0, seed=0)
    return DeepGMG(epochs=5).fit(graph), graph


class TestDeepGMG:
    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            DeepGMG().generate()

    def test_generates_valid_graph(self, trained):
        model, graph = trained
        out = model.generate(seed=0)
        assert out.num_nodes == graph.num_nodes
        assert out.num_edges > 0

    def test_edge_count_same_order_of_magnitude(self, trained):
        model, graph = trained
        counts = [model.generate(seed=s).num_edges for s in range(3)]
        assert 0.3 * graph.num_edges < np.mean(counts) < 3.0 * graph.num_edges

    def test_deterministic(self, trained):
        model, __ = trained
        assert model.generate(seed=9) == model.generate(seed=9)

    def test_losses_finite(self, trained):
        model, __ = trained
        assert len(model.losses) == 5
        assert np.all(np.isfinite(model.losses))

    def test_max_edges_per_node_respected(self):
        graph, __ = community_graph(40, 2, 6.0, seed=1)
        model = DeepGMG(epochs=3, max_edges_per_node=2).fit(graph)
        out = model.generate(seed=0)
        # New-node degree at insertion is capped at 2; later nodes can still
        # raise earlier nodes' degrees, so only the cap's effect on edges
        # per added node is bounded.
        assert out.num_edges <= 2 * out.num_nodes

    def test_sequential_cost_grows_superlinearly(self):
        """DeepGMG's per-node re-encoding makes training cost grow faster
        than linearly in n — the §II-B2 scalability criticism."""
        import time

        def fit_time(n):
            # Min of 3 fits: a one-off stall on a shared host only ever
            # adds time, so the minimum is the stable estimate.
            graph, __ = community_graph(n, max(n // 20, 2), 5.0, seed=2)
            times = []
            for _ in range(3):
                start = time.perf_counter()
                DeepGMG(epochs=1).fit(graph)
                times.append(time.perf_counter() - start)
            return min(times)

        # Warm-up fit: the first fit pays one-off import and allocation
        # costs that would otherwise land on the small size only.
        DeepGMG(epochs=1).fit(community_graph(40, 2, 5.0, seed=2)[0])
        small = fit_time(40)
        large = fit_time(160)
        assert large > 2.0 * small
