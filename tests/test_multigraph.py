"""Tests for set-of-graphs CPGAN training (paper §III-A surface)."""

import numpy as np
import pytest

from repro.core import CPGANConfig, CPGANMultiGraph
from repro.datasets import community_graph
from repro.metrics import evaluate_community_preservation


def tiny_config(**kwargs):
    defaults = dict(
        input_dim=4, node_embedding_dim=8, hidden_dim=16, latent_dim=8,
        pool_size=8, epochs=30, sample_size=100, seed=0,
    )
    defaults.update(kwargs)
    return CPGANConfig(**defaults)


@pytest.fixture(scope="module")
def trained():
    graphs = [
        community_graph(70, 4, 6.0, seed=s)[0] for s in range(3)
    ]
    # 90 epochs = 30 round-robin passes per graph.
    model = CPGANMultiGraph(tiny_config(epochs=90)).fit(graphs)
    return model, graphs


class TestMultiGraph:
    def test_num_graphs(self, trained):
        model, graphs = trained
        assert model.num_graphs == 3

    def test_generate_each_graph(self, trained):
        model, graphs = trained
        for i, graph in enumerate(graphs):
            out = model.generate(seed=1, graph_index=i)
            assert out.num_nodes == graph.num_nodes
            assert out.num_edges == graph.num_edges

    def test_graph_index_out_of_range(self, trained):
        model, __ = trained
        with pytest.raises(IndexError):
            model.generate(graph_index=9)

    def test_single_graph_accepted(self):
        graph, __ = community_graph(50, 3, 5.0, seed=7)
        model = CPGANMultiGraph(tiny_config(epochs=5)).fit(graph)
        assert model.num_graphs == 1
        assert model.generate(seed=0).num_nodes == 50

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            CPGANMultiGraph(tiny_config()).fit([])

    def test_deterministic_per_graph(self, trained):
        model, __ = trained
        a = model.generate(seed=2, graph_index=1)
        b = model.generate(seed=2, graph_index=1)
        assert a == b

    def test_generate_leaves_no_sticky_state(self, trained):
        """Regression: ``generate(graph_index=i)`` used to swap the model's
        own snapshot, so later batch and file calls simulated graph i."""
        model, __ = trained
        before = model.generate_batch([3])[0]
        model.generate(seed=0, graph_index=1)
        assert model.generate_batch([3])[0] == before
        assert model.generate(seed=3) == before

    def test_generate_accepts_config(self, trained):
        model, graphs = trained
        cfg = model.generation_config(latent_source="prior")
        out = model.generate(seed=2, graph_index=1, config=cfg)
        assert out.num_nodes == graphs[1].num_nodes
        assert out == model.generate(seed=2, graph_index=1, config=cfg)
        assert out != model.generate(seed=2, graph_index=1)

    def test_graphs_generate_distinct_outputs(self, trained):
        model, __ = trained
        a = model.generate(seed=2, graph_index=0)
        b = model.generate(seed=2, graph_index=1)
        assert a != b

    def test_shared_networks_transfer_structure(self, trained):
        """Every training graph's simulation preserves some of its own
        community structure — the shared networks didn't collapse onto a
        single graph."""
        model, graphs = trained
        for i, graph in enumerate(graphs):
            report = evaluate_community_preservation(
                graph, model.generate(seed=1, graph_index=i)
            )
            assert report.nmi > 0.25

    def test_epochs_round_robin_history(self, trained):
        model, __ = trained
        assert len(model.history.total) == 90


from repro.train import Callback


class _Bomb(Callback):
    """Kills training at a chosen epoch to simulate a crashed run."""

    def __init__(self, at_epoch):
        self.at_epoch = at_epoch

    def on_epoch_end(self, trainer, state):
        if state.epoch == self.at_epoch:
            raise KeyboardInterrupt("simulated kill")


class TestMultiGraphResume:
    """save/restore_training_checkpoint extended to the set-of-graphs
    trainer: kill-and-resume reproduces the uninterrupted run bit for bit."""

    @staticmethod
    def _graphs():
        return [community_graph(50, 3, 5.0, seed=s)[0] for s in range(2)]

    def test_kill_and_resume_bitwise_identical(self, tmp_path):
        config = tiny_config(epochs=12)
        graphs = self._graphs()

        reference = CPGANMultiGraph(config).fit(graphs)
        ref_losses = [f"{x:.17g}" for x in reference.history.total]
        ref_edges = reference.generate(seed=3, graph_index=1).edge_array()

        ckpt = tmp_path / "multi_{epoch}.npz"
        # The user callback fires before the checkpoint callback, so the
        # bomb must go off one epoch after the checkpoint write.
        with pytest.raises(KeyboardInterrupt):
            CPGANMultiGraph(config).fit(
                graphs,
                callbacks=[_Bomb(at_epoch=6)],
                checkpoint_path=ckpt,
                checkpoint_every=5,
            )
        mid = tmp_path / "multi_5.npz"
        assert mid.exists()

        resumed = CPGANMultiGraph().fit(resume_from=mid)
        assert resumed.num_graphs == 2
        assert [f"{x:.17g}" for x in resumed.history.total] == ref_losses
        assert np.array_equal(
            resumed.generate(seed=3, graph_index=1).edge_array(), ref_edges
        )

    def test_resume_verifies_graph_set(self, tmp_path):
        from repro.core import CheckpointError

        config = tiny_config(epochs=4)
        graphs = self._graphs()
        path = tmp_path / "multi.npz"
        CPGANMultiGraph(config).fit(graphs, checkpoint_path=path)
        # Passing the matching set verifies silently.
        CPGANMultiGraph().fit(graphs, resume_from=path)
        # A subset (or any mismatched set) is rejected.
        with pytest.raises(CheckpointError):
            CPGANMultiGraph().fit(graphs[:1], resume_from=path)

    def test_single_graph_model_rejects_multigraph_checkpoint(self, tmp_path):
        from repro.core import CPGAN, CheckpointError

        config = tiny_config(epochs=4)
        path = tmp_path / "multi.npz"
        CPGANMultiGraph(config).fit(self._graphs(), checkpoint_path=path)
        with pytest.raises(CheckpointError, match="CPGANMultiGraph"):
            CPGAN().fit(resume_from=path)

    def test_multigraph_resumes_plain_checkpoint(self, tmp_path):
        """A single-graph CPGAN checkpoint resumes as the degenerate
        one-graph round-robin."""
        from repro.core import CPGAN

        graph, __ = community_graph(50, 3, 5.0, seed=0)
        config = tiny_config(epochs=6)
        path = tmp_path / "plain.npz"
        CPGAN(config).fit(graph, checkpoint_path=path)
        resumed = CPGANMultiGraph().fit(resume_from=path)
        assert resumed.num_graphs == 1
        assert resumed.generate(seed=0).num_nodes == 50
