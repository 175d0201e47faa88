"""One generation pipeline behind every CPGAN entry point.

``generate``, ``generate_batch`` and ``generate_to_file`` (single file,
edge-list shards and CSR shards) must produce the same edge set for the
same seed in every generation configuration, and the files must record
the scoring dtype and seed they were generated with.
"""

import numpy as np
import pytest

from repro.core import CPGAN, CPGANConfig
from repro.datasets import community_graph
from repro.graphs import read_edge_list


@pytest.fixture(scope="module")
def model():
    graph, __ = community_graph(120, 5, 6.0, seed=0)
    config = CPGANConfig(
        input_dim=4, node_embedding_dim=8, hidden_dim=16, latent_dim=8,
        pool_size=8, epochs=20, sample_size=120, seed=0,
    )
    return CPGAN(config).fit(graph)


CONFIGS = {
    "sparse-f64-dense": dict(generation_dtype="float64", repair_sampler="dense"),
    "sparse-f32-factored": dict(
        generation_dtype="float32", repair_sampler="factored"
    ),
    "hier-1": dict(generation_mode="hierarchical", hier_workers=1),
    "hier-3": dict(generation_mode="hierarchical", hier_workers=3),
    "bernoulli": dict(assembly_strategy="bernoulli"),
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_entry_points_share_one_edge_set(model, tmp_path, name):
    cfg = model.generation_config(**CONFIGS[name])
    seed, other = 3, 8
    solo = model.generate(seed, config=cfg).edge_array()
    assert solo.size

    batch = model.generate_batch([seed, other], num_nodes=[None, 300], config=cfg)
    np.testing.assert_array_equal(batch[0].edge_array(), solo)
    assert batch[1].num_nodes == 300
    np.testing.assert_array_equal(
        batch[1].edge_array(),
        model.generate(other, num_nodes=300, config=cfg).edge_array(),
    )

    dtype = "float64" if name == "bernoulli" else cfg.generation_dtype
    single = tmp_path / "single.txt"
    written = model.generate_to_file(single, seed=seed, config=cfg, shard_edges=0)
    graph, meta = read_edge_list(single, with_meta=True)
    np.testing.assert_array_equal(graph.edge_array(), solo)
    assert written == len(solo) == meta["num_edges"]
    assert (meta["dtype"], meta["seed"]) == (dtype, seed)

    for fmt in ("edgelist", "csr"):
        out = tmp_path / f"shards_{fmt}"
        written = model.generate_to_file(
            out, seed=seed, config=cfg, shard_edges=40, shard_format=fmt
        )
        graph, meta = read_edge_list(out, with_meta=True)
        np.testing.assert_array_equal(graph.edge_array(), solo)
        assert written == len(solo) == meta["num_edges"]
        assert len(meta["shards"]) >= 2
        assert (meta["dtype"], meta["seed"]) == (dtype, seed)
