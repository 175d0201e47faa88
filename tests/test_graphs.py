"""Tests for the graph substrate (repro.graphs) against NetworkX oracles."""

import networkx as nx
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import (
    Graph,
    assemble_graph,
    average_clustering,
    characteristic_path_length,
    clustering_coefficients,
    degree_histogram,
    degree_proportional_sample,
    gini_index,
    graph_statistics,
    powerlaw_exponent,
    read_edge_list,
    sample_subgraph,
    spectral_embedding,
    triangle_count,
    uniform_sample,
    write_edge_list,
)
from repro.graphs.graph import _canonical_order


def random_graph(n=30, p=0.15, seed=0) -> tuple[Graph, nx.Graph]:
    g_nx = nx.gnp_random_graph(n, p, seed=seed)
    g = Graph.from_edges(n, list(g_nx.edges()))
    return g, g_nx


class TestCanonicalOrder:
    """``_canonical_order`` is ``np.lexsort((v, u))`` for unique pairs."""

    @pytest.mark.parametrize("n", [2, 7, 1000, 1_000_000])
    def test_matches_lexsort_on_random_unique_pairs(self, n):
        rng = np.random.default_rng(n)
        u = rng.integers(0, n, size=20_000)
        v = rng.integers(0, n, size=20_000)
        # The largest keys: n² − 1 overflows int32 and ~1e12 needs int64.
        u = np.concatenate([u, [n - 1, n - 1, 0]])
        v = np.concatenate([v, [n - 1, 0, n - 1]])
        __, first = np.unique(u * n + v, return_index=True)
        pick = rng.permutation(first)
        # int32 inputs: the helper must widen before it multiplies.
        u, v = u[pick].astype(np.int32), v[pick].astype(np.int32)
        assert np.array_equal(_canonical_order(u, v, n), np.lexsort((v, u)))

    def test_from_canonical_edges_matches_validated_constructor(self):
        rng = np.random.default_rng(3)
        n = 500
        pairs = rng.integers(0, n, size=(4000, 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        pairs = np.unique(np.sort(pairs, axis=1), axis=0)
        fast = Graph.from_canonical_edges(n, rng.permutation(pairs))
        slow = Graph.from_edges(n, pairs.tolist())
        assert np.array_equal(fast.adjacency.indptr, slow.adjacency.indptr)
        assert np.array_equal(fast.adjacency.indices, slow.adjacency.indices)
        assert np.array_equal(fast.edge_array(), pairs)


class TestGraph:
    def test_from_edges_basic(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert g.num_nodes == 4
        assert g.num_edges == 3
        assert g.has_edge(1, 2)
        assert not g.has_edge(0, 3)

    def test_self_loops_and_duplicates_dropped(self):
        g = Graph.from_edges(3, [(0, 0), (0, 1), (1, 0), (0, 1)])
        assert g.num_edges == 1

    def test_asymmetric_adjacency_rejected(self):
        a = np.zeros((3, 3))
        a[0, 1] = 1.0
        with pytest.raises(ValueError, match="symmetric"):
            Graph(a)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            Graph(np.zeros((2, 3)))

    def test_edge_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="range"):
            Graph.from_edges(2, [(0, 5)])

    def test_weights_binarised(self):
        a = np.array([[0, 3.0], [3.0, 0]])
        g = Graph(a)
        assert g.to_dense()[0, 1] == 1.0

    def test_neighbors_sorted(self):
        g = Graph.from_edges(5, [(2, 4), (2, 0), (2, 3)])
        np.testing.assert_array_equal(g.neighbors(2), [0, 3, 4])

    def test_degrees_match_networkx(self):
        g, g_nx = random_graph()
        expected = np.array([d for _, d in sorted(g_nx.degree())])
        np.testing.assert_array_equal(g.degrees, expected)

    def test_edges_iterate_once(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        assert sorted(g.edges()) == [(0, 1), (2, 3)]

    def test_edge_array_shape(self):
        g, __ = random_graph()
        arr = g.edge_array()
        assert arr.shape == (g.num_edges, 2)
        assert np.all(arr[:, 0] < arr[:, 1])

    @staticmethod
    def _triu_reference(g: Graph) -> np.ndarray:
        coo = sp.triu(g.adjacency, k=1).tocoo()
        return np.column_stack([coo.row, coo.col]).astype(np.int64)

    @pytest.mark.parametrize(
        "graph",
        [
            *(random_graph(n, p, seed)[0]
              for n, p, seed in [(30, 0.15, 0), (80, 0.05, 1), (200, 0.02, 2)]),
            Graph.empty(0),
            Graph.empty(7),
            # trailing isolated nodes 6..9
            Graph.from_edges(10, [(0, 5), (1, 2), (2, 5), (3, 4)]),
            Graph.from_canonical_edges(
                9, np.array([[0, 3], [0, 8], [1, 2], [2, 7], [4, 5]])
            ),
            Graph.from_canonical_edges(4, np.empty((0, 2), dtype=np.int64)),
        ],
        ids=lambda g: repr(g),
    )
    def test_edge_array_matches_triu_reference(self, graph):
        """The CSR read-off equals the sp.triu construction it replaced:
        same values, same row-major order, int64, C-contiguous."""
        arr = graph.edge_array()
        np.testing.assert_array_equal(arr, self._triu_reference(graph))
        assert arr.dtype == np.int64
        assert arr.shape == (graph.num_edges, 2)
        assert arr.flags.c_contiguous
        assert list(graph.edges()) == [tuple(e) for e in arr.tolist()]

    def test_edge_array_matches_reference_on_canonical_random(self):
        rng = np.random.default_rng(3)
        for n in (5, 50, 500):
            pairs = rng.integers(0, n, size=(4 * n, 2))
            pairs = np.unique(np.sort(pairs, axis=1), axis=0)
            pairs = pairs[pairs[:, 0] < pairs[:, 1]]
            g = Graph.from_canonical_edges(n, pairs)
            np.testing.assert_array_equal(g.edge_array(), self._triu_reference(g))
            np.testing.assert_array_equal(g.edge_array(), pairs)

    def test_edges_yield_python_ints(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        assert all(type(x) is int for edge in g.edges() for x in edge)

    def test_subgraph_induced(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        sub = g.subgraph(np.array([1, 2, 3]))
        assert sub.num_nodes == 3
        assert sub.num_edges == 2

    def test_largest_connected_component(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (3, 4)])
        lcc = g.largest_connected_component()
        assert lcc.num_nodes == 3
        assert lcc.num_edges == 2

    def test_equality(self):
        g1 = Graph.from_edges(3, [(0, 1)])
        g2 = Graph.from_edges(3, [(0, 1)])
        g3 = Graph.from_edges(3, [(0, 2)])
        assert g1 == g2
        assert g1 != g3

    def test_empty_graph(self):
        g = Graph.empty(5)
        assert g.num_edges == 0
        assert g.mean_degree() == 0.0


class TestStats:
    def test_triangle_count_oracle(self):
        g, g_nx = random_graph(40, 0.2, seed=3)
        expected = np.array([t for _, t in sorted(nx.triangles(g_nx).items())])
        np.testing.assert_allclose(triangle_count(g), expected)

    def test_clustering_oracle(self):
        g, g_nx = random_graph(40, 0.2, seed=4)
        expected = np.array([c for _, c in sorted(nx.clustering(g_nx).items())])
        np.testing.assert_allclose(clustering_coefficients(g), expected, atol=1e-12)

    def test_average_clustering_oracle(self):
        g, g_nx = random_graph(35, 0.25, seed=5)
        np.testing.assert_allclose(
            average_clustering(g), nx.average_clustering(g_nx), atol=1e-12
        )

    def test_cpl_exact_oracle(self):
        g, g_nx = random_graph(30, 0.2, seed=6)
        giant = max(nx.connected_components(g_nx), key=len)
        sub_nx = g_nx.subgraph(giant)
        g_lcc = g.largest_connected_component()
        np.testing.assert_allclose(
            characteristic_path_length(g_lcc, max_sources=1000),
            nx.average_shortest_path_length(sub_nx),
            rtol=1e-9,
        )

    def test_cpl_sampled_close_to_exact(self):
        g, __ = random_graph(200, 0.05, seed=7)
        g = g.largest_connected_component()
        exact = characteristic_path_length(g, max_sources=10_000)
        approx = characteristic_path_length(
            g, max_sources=64, rng=np.random.default_rng(1)
        )
        assert abs(exact - approx) / exact < 0.15

    def test_cpl_trivial_graphs(self):
        assert characteristic_path_length(Graph.empty(5)) == 0.0
        assert characteristic_path_length(Graph.empty(0)) == 0.0

    def test_degree_histogram_sums_to_one(self):
        g, __ = random_graph()
        hist = degree_histogram(g)
        np.testing.assert_allclose(hist.sum(), 1.0)

    def test_degree_histogram_padding(self):
        g = Graph.from_edges(3, [(0, 1)])
        hist = degree_histogram(g, max_degree=5)
        assert hist.shape == (6,)

    def test_gini_bounds_and_known_values(self):
        assert gini_index(np.array([1.0, 1, 1, 1])) == pytest.approx(0.0)
        # All mass on one node approaches 1 - 1/n.
        assert gini_index(np.array([0.0, 0, 0, 10])) == pytest.approx(0.75)

    def test_gini_on_graph(self):
        g, __ = random_graph()
        value = gini_index(g)
        assert 0.0 <= value < 1.0

    def test_powerlaw_exponent_recovers_alpha(self):
        rng = np.random.default_rng(0)
        alpha = 2.5
        # Inverse-CDF sampling of a continuous power law with k_min = 1.
        u = rng.random(20_000)
        samples = (1.0 - u) ** (-1.0 / (alpha - 1.0))
        est = powerlaw_exponent(samples, k_min=1.0, discrete=False)
        assert abs(est - alpha) < 0.2

    def test_powerlaw_exponent_discrete_degrees(self):
        # The (k_min - 0.5) discrete correction is accurate for k_min >~ 6
        # (Clauset et al. 2009, §3.5); we test in that regime.
        rng = np.random.default_rng(1)
        alpha = 2.2
        u = rng.random(200_000)
        samples = np.floor((1.0 - u) ** (-1.0 / (alpha - 1.0))).astype(int)
        est = powerlaw_exponent(samples, k_min=6.0, discrete=True)
        assert abs(est - alpha) < 0.15

    def test_graph_statistics_row(self):
        g, __ = random_graph()
        stats = graph_statistics(g)
        assert stats.num_nodes == 30
        assert "CPL=" in stats.row()


class TestSpectral:
    def test_embedding_shape_and_determinism(self):
        g, __ = random_graph(50, 0.1, seed=8)
        e1 = spectral_embedding(g, dim=4)
        e2 = spectral_embedding(g, dim=4)
        assert e1.shape == (50, 4)
        np.testing.assert_allclose(e1, e2)

    def test_embedding_small_graph_fallback(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        emb = spectral_embedding(g, dim=8)
        assert emb.shape[0] == 4
        assert np.all(np.isfinite(emb))

    def test_embedding_separates_two_blocks(self):
        """Two dense blocks joined by one edge must separate spectrally."""
        edges = [(i, j) for i in range(5) for j in range(i + 1, 5)]
        edges += [(i, j) for i in range(5, 10) for j in range(i + 1, 10)]
        edges += [(0, 5)]
        g = Graph.from_edges(10, edges)
        emb = spectral_embedding(g, dim=2)
        # Second eigenvector should have opposite sign across blocks.
        signs_a = np.sign(emb[1:5, 1])
        signs_b = np.sign(emb[6:, 1])
        assert np.all(signs_a == signs_a[0])
        assert np.all(signs_b == signs_b[0])
        assert signs_a[0] != signs_b[0]


class TestSampling:
    def test_degree_proportional_no_replacement(self):
        g, __ = random_graph(40, 0.2, seed=9)
        nodes = degree_proportional_sample(g, 20, np.random.default_rng(0))
        assert len(set(nodes.tolist())) == 20

    def test_degree_proportional_prefers_hubs(self):
        # Star graph: hub 0 has degree 20, leaves degree 1.
        g = Graph.from_edges(21, [(0, i) for i in range(1, 21)])
        rng = np.random.default_rng(0)
        hits = sum(0 in degree_proportional_sample(g, 5, rng) for _ in range(200))
        assert hits > 150  # hub selected with P = 0.5 each draw, >> uniform

    def test_degree_sample_isolated_only_when_needed(self):
        g = Graph.from_edges(5, [(0, 1)])  # nodes 2,3,4 isolated
        rng = np.random.default_rng(0)
        nodes = degree_proportional_sample(g, 2, rng)
        assert set(nodes.tolist()) == {0, 1}
        nodes = degree_proportional_sample(g, 4, rng)
        assert {0, 1}.issubset(set(nodes.tolist()))

    def test_uniform_sample_size_clamped(self):
        g, __ = random_graph(10, 0.3)
        nodes = uniform_sample(g, 99, np.random.default_rng(0))
        assert len(nodes) == 10

    def test_sample_subgraph_strategies(self):
        g, __ = random_graph(30, 0.2, seed=10)
        for strategy in ("degree", "uniform"):
            nodes, sub = sample_subgraph(g, 10, np.random.default_rng(1), strategy)
            assert sub.num_nodes == 10
            assert np.all(np.diff(nodes) > 0)
        with pytest.raises(ValueError):
            sample_subgraph(g, 10, np.random.default_rng(1), "banana")


class TestAssembly:
    def make_scores(self, n=20, seed=0):
        rng = np.random.default_rng(seed)
        return rng.random((n, n))

    def test_edge_count_respected(self):
        g = assemble_graph(self.make_scores(), 30, np.random.default_rng(0))
        assert g.num_edges == 30

    def test_edge_count_clamped_to_complete_graph(self):
        g = assemble_graph(self.make_scores(5), 9999, np.random.default_rng(0))
        assert g.num_edges == 10

    def test_categorical_topk_avoids_isolated_nodes(self):
        """Paper §III-G: step 1 gives every node a chance of an edge."""
        n = 30
        scores = self.make_scores(n, seed=1) + 0.01
        g = assemble_graph(
            scores, n, np.random.default_rng(0), strategy="categorical_topk"
        )
        isolated = int((g.degrees == 0).sum())
        g_topk = assemble_graph(scores, n, strategy="topk")
        isolated_topk = int((g_topk.degrees == 0).sum())
        assert isolated <= isolated_topk

    def test_topk_is_deterministic(self):
        scores = self.make_scores()
        g1 = assemble_graph(scores, 25, strategy="topk")
        g2 = assemble_graph(scores, 25, strategy="topk")
        assert g1 == g2

    def test_topk_picks_highest_scores(self):
        scores = np.zeros((4, 4))
        scores[0, 1] = scores[1, 0] = 0.9
        scores[2, 3] = scores[3, 2] = 0.8
        scores[0, 2] = scores[2, 0] = 0.1
        g = assemble_graph(scores, 2, strategy="topk")
        assert g.has_edge(0, 1)
        assert g.has_edge(2, 3)

    def test_bernoulli_strategy_runs(self):
        g = assemble_graph(
            self.make_scores(), 30, np.random.default_rng(0), strategy="bernoulli"
        )
        assert g.num_nodes == 20

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            assemble_graph(self.make_scores(), 5, strategy="nope")

    @settings(max_examples=25, deadline=None)
    @given(st.integers(3, 15), st.integers(1, 20), st.integers(0, 10_000))
    def test_property_edge_budget_never_exceeded(self, n, m, seed):
        rng = np.random.default_rng(seed)
        g = assemble_graph(rng.random((n, n)), m, rng)
        assert g.num_edges <= min(m, n * (n - 1) // 2)


class TestIO:
    def test_roundtrip(self, tmp_path):
        g, __ = random_graph(25, 0.2, seed=11)
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        g2 = read_edge_list(path)
        assert g == g2

    def test_roundtrip_with_isolated_tail_nodes(self, tmp_path):
        g = Graph.from_edges(10, [(0, 1)])
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        assert read_edge_list(path).num_nodes == 10

    def test_read_snap_style_without_header(self, tmp_path):
        path = tmp_path / "snap.txt"
        path.write_text("# comment\n0 1\n1 2\n")
        g = read_edge_list(path)
        assert g.num_nodes == 3
        assert g.num_edges == 2
