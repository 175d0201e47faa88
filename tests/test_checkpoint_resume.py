"""Checkpoint/resume and bit-identity guarantees of the CPGAN fit loop.

Three invariants from the training-engine refactor:

* same-seed fits reproduce the committed pre-refactor loss traces
  bit-for-bit (``tests/data/cpgan_golden_trace.json``);
* repeated ``fit`` calls *continue* training instead of silently
  restarting from scratch;
* a run killed mid-training and resumed from its checkpoint finishes with
  exactly the traces (and generated graph) of the uninterrupted run.
"""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from repro.core import CPGAN, CPGANConfig, CPGANMultiGraph
from repro.core.persistence import read_archive, restore_training_checkpoint
from repro.datasets import community_graph
from repro.train import Checkpoint

GOLDEN = Path(__file__).parent / "data" / "cpgan_golden_trace.json"


def golden():
    return json.loads(GOLDEN.read_text())


def golden_graph(spec):
    graph, __ = community_graph(
        spec["nodes"], spec["communities"], spec["avg_degree"],
        seed=spec["seed"],
    )
    return graph


def hex_traces(model):
    return {
        name: [v.hex() for v in trace]
        for name, trace in model.history.as_dict().items()
    }


# CPGAN.fit(graph) and CPGANMultiGraph.fit([graph]) run the same training
# loop on a one-graph set, so both must meet every guarantee below.
FITTERS = [
    pytest.param(CPGAN, lambda model, graph: model.fit(graph), id="CPGAN"),
    pytest.param(
        CPGANMultiGraph,
        lambda model, graph: model.fit([graph]),
        id="CPGANMultiGraph",
    ),
]


class TestGoldenTrace:
    @pytest.mark.parametrize("cls, fit", FITTERS)
    def test_fit_reproduces_pre_refactor_traces_bitwise(self, cls, fit):
        doc = golden()
        model = cls(CPGANConfig(**doc["config"]))
        fit(model, golden_graph(doc["graph"]))
        assert hex_traces(model) == doc["traces"]

    def test_one_graph_set_generates_like_cpgan(self):
        doc = golden()
        config = CPGANConfig(**doc["config"])
        graph = golden_graph(doc["graph"])
        single = CPGAN(config).fit(graph)
        multi = CPGANMultiGraph(config).fit([graph])
        assert np.array_equal(
            multi.generate(seed=1).edge_array(),
            single.generate(seed=1).edge_array(),
        )


@pytest.mark.parametrize("cls, fit", FITTERS)
class TestFitContinuation:
    def test_second_fit_continues_not_restarts(self, cls, fit):
        doc = golden()
        graph = golden_graph(doc["graph"])
        config = CPGANConfig(**doc["config"])
        model = cls(config)
        fit(model, graph)
        first = [v.hex() for v in model.history.total]
        fit(model, graph)
        assert len(model.history.total) == 2 * config.epochs
        # TrainState's invariant: the history holds exactly `epoch` entries.
        assert model._session.state.epoch == 2 * config.epochs
        # The first half is untouched; the second half is *new* epochs (the
        # optimizer/RNG state carried over, so it differs from the first).
        assert [v.hex() for v in model.history.total[: config.epochs]] == first
        assert [
            v.hex() for v in model.history.total[config.epochs :]
        ] != first

    def test_new_graph_object_starts_fresh_session(self, cls, fit):
        doc = golden()
        config = CPGANConfig(**doc["config"])
        model = cls(config)
        fit(model, golden_graph(doc["graph"]))
        first_session = model._session
        # Fitting a *different* graph object restarts the session (fresh
        # RNG/optimizers at epoch 0); history keeps accumulating as the
        # model's weights carry over.
        fit(model, golden_graph(doc["graph"]))
        assert model._session is not first_session
        assert model._session.state.epoch == config.epochs
        assert len(model.history.total) == 2 * config.epochs


class TestKillAndResume:
    def test_restore_picks_up_at_checkpoint_epoch(self, tmp_path):
        doc = golden()
        config = CPGANConfig(**doc["config"])
        graph = golden_graph(doc["graph"])
        ckpt = tmp_path / "ckpt_{epoch}.npz"
        CPGAN(config).fit(
            graph, callbacks=[Checkpoint(ckpt, every=5, at_fit_end=True)]
        )
        restored = CPGAN()
        restore_training_checkpoint(restored, tmp_path / "ckpt_5.npz")
        assert restored._session.state.epoch == 5
        assert len(restored.history.total) == 5
        # Resuming with the original graph object passed explicitly also
        # works — the checkpoint verifies it matches the stored edges.
        resumed = CPGAN().fit(graph, resume_from=tmp_path / "ckpt_5.npz")
        assert len(resumed.history.total) == config.epochs

    def test_resume_bitwise_identical_with_mid_run_checkpoint(
        self, tmp_path
    ):
        doc = golden()
        config = CPGANConfig(**doc["config"])
        graph = golden_graph(doc["graph"])

        reference = CPGAN(config).fit(graph)
        ref_traces = hex_traces(reference)
        ref_graph = reference.generate(seed=7)

        # Run the *full-epoch* config but checkpoint every 5 epochs and
        # abort by limiting the trainer through a callback-free partial
        # run: emulate the kill by restoring from the epoch-5 checkpoint.
        ckpt = tmp_path / "ckpt_{epoch}.npz"
        CPGAN(config).fit(
            graph, callbacks=[Checkpoint(ckpt, every=5, at_fit_end=True)]
        )
        mid = tmp_path / "ckpt_5.npz"
        assert mid.exists()

        resumed = CPGAN()
        resumed.fit(resume_from=mid)  # graph restored from the checkpoint
        assert resumed.config.epochs == config.epochs
        assert len(resumed.history.total) == config.epochs
        assert hex_traces(resumed) == ref_traces

        gen = resumed.generate(seed=7)
        assert np.array_equal(
            gen.edge_array(), ref_graph.edge_array()
        )

    def test_resume_verifies_graph_matches(self, tmp_path):
        doc = golden()
        config = CPGANConfig(**doc["config"])
        graph = golden_graph(doc["graph"])
        path = tmp_path / "ckpt.npz"
        CPGAN(config).fit(graph, callbacks=[Checkpoint(path)])
        other, __ = community_graph(40, 2, 4.0, seed=3)
        with pytest.raises(ValueError):
            restore_training_checkpoint(CPGAN(), path, other)

    def test_checkpoint_layout_is_pinned(self, tmp_path):
        """Version 2's array families and metadata keys, exactly: the
        writer shared with the baselines adds and drops nothing."""
        doc = golden()
        path = tmp_path / "ckpt.npz"
        CPGAN(CPGANConfig(**doc["config"])).fit(
            golden_graph(doc["graph"]), callbacks=[Checkpoint(path)]
        )
        arrays, meta = read_archive(path)
        assert {re.sub(r"_\d+$", "_{i}", name) for name in arrays} == {
            "encoder_{i}", "vi_{i}", "decoder_{i}", "discriminator_{i}",
            "node_embedding", "features", "ground_truth_{i}",
            "graph_edges_{i}",
            "opt_gen_m_{i}", "opt_gen_v_{i}",
            "opt_disc_m_{i}", "opt_disc_v_{i}",
        }
        assert sorted(meta) == [
            "config", "graph_nodes", "kind", "num_ground_truth",
            "optimizers", "rng_state", "sched", "train_state", "version",
        ]
        assert (meta["kind"], meta["version"]) == ("training_checkpoint", 2)
        assert sorted(meta["optimizers"]) == ["opt_disc", "opt_gen"]

    def test_checkpoint_requires_live_session(self, tmp_path):
        with pytest.raises(RuntimeError):
            CPGAN().save_training_checkpoint(tmp_path / "nope.npz")

    def test_fit_without_graph_or_checkpoint_rejected(self):
        with pytest.raises(ValueError):
            CPGAN().fit()
