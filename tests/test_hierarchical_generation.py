"""Tests for the two-level community-parallel pipeline (``repro.hier``)."""

import numpy as np
import pytest

from repro.community import louvain
from repro.core import CPGAN, CPGANConfig
from repro.datasets import community_graph
from repro.graphs import Graph, read_edge_list
from repro.hier import plan_partition, sample_cross_edges, sample_supergraph
from repro.hier.pipeline import _partition_labels
from repro.trace import counting


@pytest.fixture(scope="module")
def trained():
    graph, __ = community_graph(120, 5, 6.0, seed=0)
    config = CPGANConfig(
        input_dim=4, node_embedding_dim=8, hidden_dim=16, latent_dim=8,
        pool_size=8, epochs=20, sample_size=120, seed=0,
    )
    return CPGAN(config).fit(graph), graph


def _distinct_upper(edges: np.ndarray) -> None:
    """Rows are distinct ``u < v`` pairs (order not required)."""
    assert edges.ndim == 2 and edges.shape[1] == 2
    assert np.all(edges[:, 0] < edges[:, 1])
    codes = edges[:, 0] * (edges.max() + 1) + edges[:, 1]
    assert np.unique(codes).size == codes.size


def _canonical(edges: np.ndarray) -> None:
    """Distinct ``u < v`` pairs in ``(u, v)`` lexicographic order."""
    _distinct_upper(edges)
    order = np.lexsort((edges[:, 1], edges[:, 0]))
    np.testing.assert_array_equal(order, np.arange(edges.shape[0]))


class TestPlanner:
    def _plan(self, trained):
        model, graph = trained
        cfg = model.config
        labels = _partition_labels(model, graph, cfg)
        return plan_partition(graph, labels, labels, graph.num_edges), labels

    def test_budgets_sum_to_target(self, trained):
        plan, __ = self._plan(trained)
        assert int(plan.intra_budgets.sum()) + int(plan.cross_total) == (
            plan.target_edges
        )

    def test_intra_budgets_within_caps(self, trained):
        plan, __ = self._plan(trained)
        caps = plan.sizes * (plan.sizes - 1) // 2
        assert np.all(plan.intra_budgets <= caps)
        assert np.all(plan.intra_budgets >= 0)

    def test_communities_partition_the_nodes(self, trained):
        plan, labels = self._plan(trained)
        union = np.concatenate(plan.communities)
        assert np.unique(union).size == union.size == plan.num_nodes
        for c, members in enumerate(plan.communities):
            np.testing.assert_array_equal(labels[members], c)

    def test_pair_index_is_canonical(self, trained):
        plan, __ = self._plan(trained)
        if plan.pair_index.size:
            assert np.all(plan.pair_index[:, 0] < plan.pair_index[:, 1])

    def test_supergraph_respects_pair_caps(self, trained):
        plan, __ = self._plan(trained)
        rng = np.random.default_rng(0)
        pairs, counts = sample_supergraph(plan, rng)
        assert int(counts.sum()) <= plan.cross_total
        sizes = plan.sizes
        for (a, b), count in zip(pairs, counts):
            assert count >= 1
            assert count <= sizes[a] * sizes[b]


class TestStitcher:
    def test_budget_and_block_membership(self, trained):
        model, __ = trained
        cfg = model.config
        latents = model._prepare_generation(7, None, cfg).latents
        g = model.decoder.edge_features_numpy(latents)
        members_a = np.arange(0, 40, dtype=np.int64)
        members_b = np.arange(40, 90, dtype=np.int64)
        with counting() as counts:
            edges = sample_cross_edges(
                g, members_a, members_b, 60, np.random.default_rng(3)
            )
        assert edges.shape == (60, 2)
        _distinct_upper(edges)
        lo, hi = np.minimum(edges[:, 0], edges[:, 1]), np.maximum(
            edges[:, 0], edges[:, 1]
        )
        assert np.all(np.isin(lo, members_a))
        assert np.all(np.isin(hi, members_b))
        assert counts["cross_proposals"] >= 60

    def test_deterministic_for_fixed_stream(self, trained):
        model, __ = trained
        cfg = model.config
        latents = model._prepare_generation(7, None, cfg).latents
        g = model.decoder.edge_features_numpy(latents)
        a = np.arange(0, 30, dtype=np.int64)
        b = np.arange(30, 75, dtype=np.int64)
        e1 = sample_cross_edges(g, a, b, 40, np.random.default_rng(11))
        e2 = sample_cross_edges(g, a, b, 40, np.random.default_rng(11))
        np.testing.assert_array_equal(e1, e2)

    def test_budget_clipped_to_block_capacity(self, trained):
        model, __ = trained
        cfg = model.config
        latents = model._prepare_generation(7, None, cfg).latents
        g = model.decoder.edge_features_numpy(latents)
        a = np.array([0, 1], dtype=np.int64)
        b = np.array([2, 3], dtype=np.int64)
        edges = sample_cross_edges(g, a, b, 100, np.random.default_rng(5))
        assert edges.shape[0] == 4  # full bipartite block


class TestHierarchicalGeneration:
    def test_bit_identical_across_worker_counts(self, trained):
        model, __ = trained
        graphs = [
            model.generate(
                seed=5,
                config=model.generation_config(
                    generation_mode="hierarchical", hier_workers=workers
                ),
            )
            for workers in (1, 3, 8)
        ]
        for other in graphs[1:]:
            np.testing.assert_array_equal(
                graphs[0].edge_array(), other.edge_array()
            )

    def test_exact_edge_budget(self, trained):
        model, graph = trained
        cfg = model.generation_config(generation_mode="hierarchical")
        generated = model.generate(seed=2, config=cfg)
        assert generated.num_nodes == graph.num_nodes
        assert generated.num_edges == graph.num_edges
        _canonical(generated.edge_array())

    def test_scaled_generation(self, trained):
        model, __ = trained
        cfg = model.generation_config(generation_mode="hierarchical")
        generated = model.generate(seed=3, num_nodes=300, config=cfg)
        assert generated.num_nodes == 300
        _canonical(generated.edge_array())

    def test_distinct_seeds_distinct_graphs(self, trained):
        model, __ = trained
        cfg = model.generation_config(generation_mode="hierarchical")
        g1 = model.generate(seed=1, config=cfg)
        g2 = model.generate(seed=2, config=cfg)
        assert not np.array_equal(g1.edge_array(), g2.edge_array())

    def test_hier_level_changes_partition(self, trained):
        model, graph = trained
        cfg0 = model.generation_config(generation_mode="hierarchical")
        cfg_coarse = model.generation_config(
            generation_mode="hierarchical", hier_level=10
        )
        labels_fine = _partition_labels(model, graph, cfg0)
        labels_coarse = _partition_labels(model, graph, cfg_coarse)
        assert np.unique(labels_coarse).size <= np.unique(labels_fine).size

    def test_stats_telemetry(self, trained):
        model, __ = trained
        cfg = model.generation_config(generation_mode="hierarchical")
        with counting() as counts:
            model.generate(seed=4, config=cfg)
        assert counts["hier_communities"] >= 2
        assert counts["hier_intra_edges"] + counts["hier_cross_edges"] > 0
        assert counts["hier_budget_clipped"] >= 0
        assert counts["samples"] == 1

    def test_generate_batch_matches_single(self, trained):
        model, __ = trained
        cfg = model.generation_config(generation_mode="hierarchical")
        batch = model.generate_batch([7, 8], config=cfg)
        single = model.generate(seed=8, config=cfg)
        np.testing.assert_array_equal(
            batch[1].edge_array(), single.edge_array()
        )

    def test_generate_to_file_matches_in_memory(self, trained, tmp_path):
        model, __ = trained
        cfg = model.generation_config(generation_mode="hierarchical")
        path = tmp_path / "hier.txt"
        written = model.generate_to_file(path, seed=6, config=cfg)
        streamed = read_edge_list(path)
        in_memory = model.generate(seed=6, config=cfg)
        assert streamed.num_edges == written
        np.testing.assert_array_equal(
            streamed.edge_array(), in_memory.edge_array()
        )

    def test_louvain_fallback_without_ground_truth(self, trained):
        model, graph = trained
        saved = model._ground_truth
        model._ground_truth = None
        try:
            cfg = model.generation_config(generation_mode="hierarchical")
            generated = model.generate(seed=9, config=cfg)
            assert generated.num_edges == graph.num_edges
            labels = _partition_labels(model, graph, cfg)
            expected = louvain(graph, seed=model.config.seed).membership
            __, compact = np.unique(expected, return_inverse=True)
            np.testing.assert_array_equal(labels, compact)
        finally:
            model._ground_truth = saved

    def test_community_structure_preserved(self, trained):
        from repro.metrics import evaluate_community_preservation

        model, graph = trained
        cfg = model.generation_config(generation_mode="hierarchical")
        samples = [model.generate(seed=s, config=cfg) for s in (1, 2, 3)]
        report = evaluate_community_preservation(graph, samples)
        assert report.nmi > 0.15


class TestConfigValidation:
    def test_hierarchical_mode_accepted(self):
        CPGANConfig(generation_mode="hierarchical")

    def test_bernoulli_assembly_rejected(self):
        with pytest.raises(ValueError):
            CPGANConfig(
                generation_mode="hierarchical", assembly_strategy="bernoulli"
            )

    def test_hier_workers_positive(self):
        with pytest.raises(ValueError):
            CPGANConfig(hier_workers=0)

    def test_hier_level_non_negative(self):
        with pytest.raises(ValueError):
            CPGANConfig(hier_level=-1)


class TestPlannerEdgeCases:
    def test_single_community_all_intra(self):
        graph = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
        labels = np.zeros(6, dtype=np.int64)
        plan = plan_partition(graph, labels, labels, 5)
        assert plan.cross_total == 0
        assert int(plan.intra_budgets.sum()) == 5

    def test_zero_target_edges(self):
        graph = Graph.from_edges(4, [(0, 1), (2, 3)])
        labels = np.array([0, 0, 1, 1], dtype=np.int64)
        plan = plan_partition(graph, labels, labels, 0)
        assert int(plan.intra_budgets.sum()) == 0
        assert plan.cross_total == 0

    def test_singleton_communities_get_no_intra_budget(self):
        graph = Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
        labels = np.array([0, 0, 0, 1, 2], dtype=np.int64)
        plan = plan_partition(graph, labels, labels, 3)
        sizes = plan.sizes
        assert np.all(plan.intra_budgets[sizes < 2] == 0)
