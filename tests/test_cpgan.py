"""Integration tests for the full CPGAN model (training + generation)."""

import numpy as np
import pytest

from repro.baselines import ErdosRenyi, NotFittedError
from repro.core import CPGAN, CPGANConfig, edge_set_nll, sample_non_edges, split_edges
from repro.datasets import community_graph
from repro.graphs import Graph
from repro.metrics import evaluate_community_preservation


def tiny_config(**kwargs):
    defaults = dict(
        input_dim=4,
        node_embedding_dim=8,
        hidden_dim=16,
        latent_dim=8,
        pool_size=8,
        epochs=25,
        sample_size=80,
        seed=0,
    )
    defaults.update(kwargs)
    return CPGANConfig(**defaults)


@pytest.fixture(scope="module")
def trained():
    """One trained CPGAN shared across the read-only tests of this module."""
    graph, labels = community_graph(80, 4, 6.0, mixing=0.08, seed=0)
    model = CPGAN(tiny_config(epochs=60)).fit(graph)
    return model, graph, labels


class TestProtocol:
    def test_generate_before_fit(self):
        with pytest.raises(NotFittedError):
            CPGAN(tiny_config()).generate()

    def test_fit_returns_self(self):
        graph, __ = community_graph(60, 3, 5.0, seed=1)
        model = CPGAN(tiny_config(epochs=5))
        assert model.fit(graph) is model

    def test_generated_graph_basic_properties(self, trained):
        model, graph, __ = trained
        out = model.generate(seed=1)
        assert out.num_nodes == graph.num_nodes
        assert out.num_edges == graph.num_edges

    def test_generation_deterministic_given_seed(self, trained):
        model, __, ___ = trained
        assert model.generate(seed=3) == model.generate(seed=3)

    def test_generation_varies_with_seed(self, trained):
        model, __, ___ = trained
        assert model.generate(seed=3) != model.generate(seed=4)

    def test_history_populated(self, trained):
        model, __, ___ = trained
        assert len(model.history.total) == 60
        assert len(model.history.discriminator) == 60
        assert np.all(np.isfinite(model.history.total))

    def test_training_reduces_loss(self, trained):
        model, __, ___ = trained
        first = np.mean(model.history.reconstruction[:5])
        last = np.mean(model.history.reconstruction[-5:])
        assert last < first


class TestQuality:
    def test_preserves_communities_better_than_er(self, trained):
        model, graph, __ = trained
        ours = evaluate_community_preservation(graph, model.generate(seed=1))
        er = evaluate_community_preservation(
            graph, ErdosRenyi().fit(graph).generate(seed=1)
        )
        assert ours.nmi > er.nmi
        assert ours.ari > er.ari

    def test_posterior_latents_identity_preserving(self, trained):
        model, graph, __ = trained
        latents_a = model._latents.sample(
            graph.num_nodes, np.random.default_rng(0), keep_identity=True
        )
        latents_b = model._latents.sample(
            graph.num_nodes, np.random.default_rng(1), keep_identity=True
        )
        # Same posterior means, different noise draws.
        corr = np.corrcoef(latents_a[0].ravel(), latents_b[0].ravel())[0, 1]
        assert corr > 0.5


class TestGenerationModes:
    def test_arbitrary_size_generation(self, trained):
        model, graph, __ = trained
        out = model.generate(seed=0, num_nodes=50)
        assert out.num_nodes == 50
        expected = round(graph.num_edges * 50 / graph.num_nodes)
        assert abs(out.num_edges - expected) <= expected

    def test_prior_latent_source(self):
        graph, __ = community_graph(60, 3, 5.0, seed=2)
        model = CPGAN(tiny_config(epochs=10, latent_source="prior")).fit(graph)
        out = model.generate(seed=0)
        assert out.num_nodes == 60

    def test_edge_probabilities_shape_and_range(self, trained):
        model, graph, __ = trained
        pairs = graph.edge_array()[:10]
        probs = model.edge_probabilities(pairs)
        assert probs.shape == (10,)
        assert np.all((probs >= 0) & (probs <= 1))

    def test_edge_probabilities_discriminate(self, trained):
        model, graph, __ = trained
        pos = graph.edge_array()
        neg = sample_non_edges(graph, len(pos), np.random.default_rng(0))
        assert model.edge_probabilities(pos).mean() > model.edge_probabilities(
            neg
        ).mean()


class TestVariants:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(decoder_mode="concat"),            # CPGAN-C
            dict(use_variational=False),            # CPGAN-noV
            dict(use_hierarchy=False),              # CPGAN-noH
        ],
    )
    def test_variant_trains_and_generates(self, kwargs):
        graph, __ = community_graph(60, 3, 5.0, seed=3)
        model = CPGAN(tiny_config(epochs=8, **kwargs)).fit(graph)
        out = model.generate(seed=0)
        assert out.num_nodes == 60

    def test_nov_has_zero_kl(self):
        graph, __ = community_graph(60, 3, 5.0, seed=3)
        model = CPGAN(tiny_config(epochs=5, use_variational=False)).fit(graph)
        assert all(k == 0.0 for k in model.history.kl)

    def test_noh_has_zero_clustering_loss(self):
        graph, __ = community_graph(60, 3, 5.0, seed=3)
        model = CPGAN(tiny_config(epochs=5, use_hierarchy=False)).fit(graph)
        assert all(c == 0.0 for c in model.history.clustering)

    def test_uniform_sampling_strategy(self):
        graph, __ = community_graph(120, 4, 5.0, seed=4)
        model = CPGAN(
            tiny_config(epochs=5, sample_size=40, sampling_strategy="uniform")
        ).fit(graph)
        assert model.generate(seed=0).num_nodes == 120


class TestMemoryEstimate:
    def test_grows_linearly_in_n(self):
        model = CPGAN(tiny_config())
        small = model.estimated_peak_memory(1_000)
        large = model.estimated_peak_memory(100_000)
        assert large < 150 * small  # linear-ish, not quadratic

    def test_dominated_by_sample_size_term_for_small_n(self):
        a = CPGAN(tiny_config(sample_size=64)).estimated_peak_memory(100)
        b = CPGAN(tiny_config(sample_size=256)).estimated_peak_memory(100)
        assert b > a


class TestReconstructionHelpers:
    def test_split_edges_proportions(self):
        graph, __ = community_graph(100, 4, 6.0, seed=5)
        split = split_edges(graph, test_fraction=0.2, seed=0)
        assert len(split.test_edges) == round(0.2 * graph.num_edges)
        assert len(split.train_edges) + len(split.test_edges) == graph.num_edges
        assert split.train_graph.num_edges == len(split.train_edges)

    def test_split_disjoint(self):
        graph, __ = community_graph(100, 4, 6.0, seed=5)
        split = split_edges(graph, seed=1)
        train = set(map(tuple, split.train_edges.tolist()))
        test = set(map(tuple, split.test_edges.tolist()))
        assert not train & test

    def test_split_invalid_fraction(self):
        graph, __ = community_graph(50, 3, 5.0, seed=6)
        with pytest.raises(ValueError):
            split_edges(graph, test_fraction=0.0)

    def test_sample_non_edges_valid(self):
        graph, __ = community_graph(60, 3, 5.0, seed=7)
        non = sample_non_edges(graph, 30, np.random.default_rng(0))
        assert len(non) == 30
        for u, v in non:
            assert not graph.has_edge(int(u), int(v))
            assert u != v

    def test_edge_set_nll_perfect_prediction(self):
        nll = edge_set_nll(np.ones(5) * 0.999, np.ones(5) * 0.001)
        assert nll < 0.01

    def test_edge_set_nll_wrong_prediction_large(self):
        nll = edge_set_nll(np.ones(5) * 0.01, np.ones(5) * 0.99)
        assert nll > 4.0
