"""Tests for the learning-based baseline generators."""

import numpy as np
import pytest

from repro.baselines import (
    CondGenR,
    ErdosRenyi,
    Graphite,
    GraphRNNS,
    NetGAN,
    NotFittedError,
    SBMGNN,
    VGAE,
)
from repro.baselines.learned import (
    DeepGMG,
    GRANLite,
    NetGANAdversarial,
    bfs_bandwidth,
    bfs_order,
    sample_random_walks,
)
from repro.baselines.learned.common import baseline_parameters
from repro.core import CPGAN, CPGANConfig, CheckpointError, sample_non_edges
from repro.train import Callback, Checkpoint
from repro.datasets import community_graph
from repro.graphs import Graph
from repro.metrics import evaluate_community_preservation

FAST = {
    VGAE: dict(epochs=30),
    Graphite: dict(epochs=30),
    SBMGNN: dict(epochs=30),
    GraphRNNS: dict(epochs=5),
    NetGAN: dict(num_walks=500),
    CondGenR: dict(epochs=30),
}


#: Every autograd-trained baseline, at sizes that train in well under a
#: second on a 40-node graph.
AUTOGRAD = {
    VGAE: dict(hidden_dim=8, latent_dim=4, feature_dim=4),
    Graphite: dict(hidden_dim=8, latent_dim=4, feature_dim=4),
    SBMGNN: dict(num_blocks=4, hidden_dim=8, feature_dim=4),
    CondGenR: dict(hidden_dim=8, latent_dim=4, feature_dim=4),
    GraphRNNS: dict(hidden_dim=8, max_bandwidth=8),
    GRANLite: dict(block_size=8, hidden_dim=8),
    DeepGMG: dict(hidden_dim=8, max_edges_per_node=4),
    NetGANAdversarial: dict(
        embed_dim=4, hidden_dim=8, latent_dim=4, walk_length=4,
        batch_size=8, assembly_walks=64,
    ),
}


@pytest.fixture(scope="module")
def graph():
    g, __ = community_graph(80, 4, 6.0, mixing=0.1, seed=0)
    return g


@pytest.fixture(scope="module")
def small_graph():
    g, __ = community_graph(40, 3, 5.0, seed=1)
    return g


@pytest.mark.parametrize("cls", list(AUTOGRAD))
def test_every_parameter_is_trained(cls, small_graph):
    """Two epochs move every trainable array: none sits outside the
    optimizers (same seed, so epochs=0 is the initialisation)."""
    untrained = cls(epochs=0, **AUTOGRAD[cls]).fit(small_graph)
    trained = cls(epochs=2, **AUTOGRAD[cls]).fit(small_graph)
    before = baseline_parameters(untrained)
    after = baseline_parameters(trained)
    assert len(before) == len(after)
    frozen = [
        i for i, (a, b) in enumerate(zip(before, after))
        if np.array_equal(a.data, b.data)
    ]
    assert frozen == []


class TestProtocol:
    @pytest.mark.parametrize("cls", list(FAST))
    def test_fit_generate(self, cls, graph):
        model = cls(**FAST[cls]).fit(graph)
        out = model.generate(seed=0)
        assert out.num_nodes == graph.num_nodes
        assert out.num_edges > 0

    @pytest.mark.parametrize("cls", list(FAST))
    def test_unfitted_raises(self, cls):
        with pytest.raises(NotFittedError):
            cls(**FAST[cls]).generate()

    @pytest.mark.parametrize("cls", list(FAST))
    def test_deterministic(self, cls, graph):
        model = cls(**FAST[cls]).fit(graph)
        assert model.generate(seed=7) == model.generate(seed=7)

    @pytest.mark.parametrize("cls", [VGAE, Graphite, SBMGNN, CondGenR])
    def test_losses_decrease(self, cls, graph):
        model = cls(**FAST[cls]).fit(graph)
        assert np.mean(model.losses[-5:]) < np.mean(model.losses[:5])

    @pytest.mark.parametrize("cls", [VGAE, Graphite, SBMGNN, CondGenR, NetGAN])
    def test_quadratic_memory_estimate(self, cls):
        model = cls(**FAST[cls])
        small = model.estimated_peak_memory(1_000)
        large = model.estimated_peak_memory(10_000)
        assert large == pytest.approx(100 * small, rel=0.01)


class _Kill(Callback):
    """Raises at the end of a chosen epoch, as a killed run would stop."""

    def __init__(self, at_epoch):
        self.at_epoch = at_epoch

    def on_epoch_end(self, trainer, state):
        if state.epoch == self.at_epoch:
            raise KeyboardInterrupt("simulated kill")


def _traces(model):
    return {
        name: [v.hex() for v in values]
        for name, values in vars(model).items()
        if name.endswith("losses")
    }


class TestStockCheckpoint:
    """The stock Checkpoint callback writes every autograd-trained baseline
    into the one training-checkpoint format, and ``fit(resume_from=...)``
    finishes a killed run bit-identically: weights, Adam moments, RNG state
    and traces all come back."""

    @pytest.mark.parametrize("cls", list(AUTOGRAD))
    def test_checkpoints_written_and_restorable(
        self, cls, small_graph, tmp_path
    ):
        kwargs = dict(epochs=5, **AUTOGRAD[cls])
        reference = cls(**kwargs).fit(small_graph)
        with pytest.raises(KeyboardInterrupt):
            cls(**kwargs).fit(
                small_graph,
                callbacks=[
                    Checkpoint(tmp_path / "ckpt_{epoch}.npz", every=2),
                    _Kill(at_epoch=3),
                ],
            )
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt_2.npz"]

        resumed = cls(**kwargs).fit(
            small_graph, resume_from=tmp_path / "ckpt_2.npz"
        )
        for restored, expected in zip(
            baseline_parameters(resumed), baseline_parameters(reference),
            strict=True,
        ):
            np.testing.assert_array_equal(restored.data, expected.data)
        traces = _traces(reference)
        assert traces and all(len(t) == 5 for t in traces.values())
        assert _traces(resumed) == traces
        assert resumed.generate(seed=3) == reference.generate(seed=3)

    def test_wrong_model_rejected(self, small_graph, tmp_path):
        vgae = tmp_path / "vgae.npz"
        VGAE(epochs=2, **AUTOGRAD[VGAE]).fit(
            small_graph, callbacks=[Checkpoint(vgae, every=2)]
        )
        with pytest.raises(CheckpointError, match="VGAE checkpoint"):
            SBMGNN(epochs=2, **AUTOGRAD[SBMGNN]).fit(
                small_graph, resume_from=vgae
            )
        with pytest.raises(CheckpointError, match="VGAE checkpoint"):
            CPGAN().fit(resume_from=vgae)

        cpgan = tmp_path / "cpgan.npz"
        CPGAN(CPGANConfig(epochs=2, hidden_dim=8, latent_dim=4)).fit(
            small_graph, callbacks=[Checkpoint(cpgan, every=2)]
        )
        with pytest.raises(CheckpointError, match="CPGAN checkpoint"):
            VGAE(epochs=2, **AUTOGRAD[VGAE]).fit(
                small_graph, resume_from=cpgan
            )

    def test_different_graph_rejected(self, small_graph, graph, tmp_path):
        path = tmp_path / "vgae.npz"
        VGAE(epochs=2, **AUTOGRAD[VGAE]).fit(
            small_graph, callbacks=[Checkpoint(path, every=2)]
        )
        with pytest.raises(CheckpointError, match="do not match"):
            VGAE(epochs=2, **AUTOGRAD[VGAE]).fit(graph, resume_from=path)


class TestVGAEFamily:
    def test_vgae_preserves_communities(self, graph):
        model = VGAE(epochs=60).fit(graph)
        report = evaluate_community_preservation(graph, model.generate(seed=1))
        er = evaluate_community_preservation(
            graph, ErdosRenyi().fit(graph).generate(seed=1)
        )
        assert report.nmi > er.nmi

    def test_vgae_edge_probabilities_discriminate(self, graph):
        model = VGAE(epochs=60).fit(graph)
        pos = graph.edge_array()
        neg = sample_non_edges(graph, len(pos), np.random.default_rng(0))
        assert model.edge_probabilities(pos).mean() > model.edge_probabilities(
            neg
        ).mean()

    def test_graphite_edge_probabilities(self, graph):
        model = Graphite(epochs=40).fit(graph)
        pos = graph.edge_array()[:20]
        probs = model.edge_probabilities(pos)
        assert probs.shape == (20,)
        assert np.all((probs >= 0) & (probs <= 1))


class TestSBMGNN:
    def test_memberships_nonnegative(self, graph):
        model = SBMGNN(epochs=30).fit(graph)
        assert np.all(model._memberships >= 0)

    def test_edge_probabilities(self, graph):
        model = SBMGNN(epochs=30).fit(graph)
        pos = graph.edge_array()
        neg = sample_non_edges(graph, len(pos), np.random.default_rng(0))
        assert model.edge_probabilities(pos).mean() > model.edge_probabilities(
            neg
        ).mean()


class TestGraphRNN:
    def test_bfs_order_is_permutation(self, graph):
        order = bfs_order(graph)
        assert sorted(order.tolist()) == list(range(graph.num_nodes))

    def test_bfs_order_covers_disconnected(self):
        g = Graph.from_edges(5, [(0, 1), (3, 4)])
        order = bfs_order(g)
        assert sorted(order.tolist()) == [0, 1, 2, 3, 4]

    def test_bandwidth_path_graph(self):
        g = Graph.from_edges(5, [(i, i + 1) for i in range(4)])
        order = bfs_order(g)
        assert bfs_bandwidth(g, order) == 1

    def test_strips_roundtrip_edge_count(self, graph):
        model = GraphRNNS(epochs=1)
        model.bandwidth = graph.num_nodes
        strips = model._strips(graph)
        assert int(strips.sum()) == graph.num_edges

    def test_bandwidth_capped(self, graph):
        model = GraphRNNS(epochs=1, max_bandwidth=8).fit(graph)
        assert model.bandwidth <= 8

    def test_memory_estimate_uses_bandwidth(self):
        model = GraphRNNS()
        pessimistic = model.estimated_peak_memory(1_000)
        model.bandwidth = 10
        fitted = model.estimated_peak_memory(1_000)
        assert fitted < pessimistic


class TestNetGAN:
    def test_walks_follow_edges(self, graph):
        rng = np.random.default_rng(0)
        walks = sample_random_walks(graph, 50, 8, rng)
        for walk in walks[:10]:
            for a, b in zip(walk[:-1], walk[1:]):
                assert graph.has_edge(int(a), int(b)) or a == b

    def test_scores_symmetric_nonnegative(self, graph):
        model = NetGAN(num_walks=500).fit(graph)
        np.testing.assert_allclose(model._scores, model._scores.T, atol=1e-9)
        assert np.all(model._scores >= 0)
        assert np.all(np.diag(model._scores) == 0)

    def test_preserves_communities_strongly(self, graph):
        """Random-walk scores concentrate inside communities."""
        model = NetGAN(num_walks=2000).fit(graph)
        report = evaluate_community_preservation(graph, model.generate(seed=1))
        assert report.nmi > 0.5

    def test_tiny_graph_fallback(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        model = NetGAN(num_walks=50, rank=10).fit(g)
        assert model.generate(seed=0).num_nodes == 4


class TestCondGen:
    def test_graph_level_code_shape(self, graph):
        model = CondGenR(epochs=20).fit(graph)
        assert model._graph_mu.shape == (1, model.latent_dim)

    def test_edge_probabilities_range(self, graph):
        model = CondGenR(epochs=20).fit(graph)
        probs = model.edge_probabilities(graph.edge_array()[:15])
        assert np.all((probs >= 0) & (probs <= 1))
