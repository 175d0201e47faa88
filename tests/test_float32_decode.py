"""float32 generation decodes in float32 and leaves the model untouched.

``generation_dtype="float32"`` runs the trained decoder on float32 copies
of its parameters, cast once per call (:meth:`repro.nn.Module.cast`); the
float64 path runs on the parameters themselves.  Neither may change the
model, so float64 output stays byte-stable and thread-mode serving can run
both precisions on one model at once.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core import CPGAN, CPGANConfig
from repro.datasets import community_graph


@pytest.fixture(scope="module", params=["gru", "concat"])
def model(request):
    graph, __ = community_graph(120, 5, 6.0, seed=0)
    config = CPGANConfig(
        input_dim=4, node_embedding_dim=8, hidden_dim=16, latent_dim=8,
        pool_size=8, epochs=20, sample_size=120, seed=0,
        decoder_mode=request.param,
    )
    return CPGAN(config).fit(graph)


SEEDS = (0, 3, 7)


def _f32(model):
    return model.generation_config(generation_dtype="float32")


def test_float32_generate_leaves_the_parameters_alone(model):
    arrays = [p.data for p in model.decoder.parameters()]
    values = [a.copy() for a in arrays]
    before = model.generate(3).edge_array()
    model.generate(3, config=_f32(model))
    after = [p.data for p in model.decoder.parameters()]
    assert all(a is b for a, b in zip(arrays, after, strict=True))
    assert all(a.dtype == np.float64 for a in after)
    assert all(np.array_equal(a, b) for a, b in zip(after, values))
    assert model.generate(3).edge_array().tobytes() == before.tobytes()


def test_cast_copies_only_for_another_dtype(model):
    decoder = model.decoder
    assert decoder.cast(np.float64) is decoder
    cast = decoder.cast(np.float32)
    params = list(cast.parameters())
    assert len(params) == len(list(decoder.parameters()))
    assert all(p.data.dtype == np.float32 for p in params)
    assert not any(p.requires_grad for p in params)
    assert cast.cast(np.float32) is cast


def test_concurrent_float32_and_float64_generates_match_serial(model):
    configs = {"float32": _f32(model), "float64": model.generation_config()}
    jobs = [(dtype, seed) for seed in SEEDS for dtype in configs] * 4
    serial = {
        job: model.generate(job[1], config=configs[job[0]]).edge_array()
        for job in set(jobs)
    }
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(
            pool.map(lambda job: model.generate(job[1], config=configs[job[0]]),
                     jobs)
        )
    for job, graph in zip(jobs, results):
        np.testing.assert_array_equal(graph.edge_array(), serial[job])


def test_float32_graph_stays_close_to_float64(model):
    """At the fitted size the float32 graph keeps the float64 graph's
    edges: edge-Jaccard 1.0 was measured on 12 seeds for both decoder
    modes here (and on 6 seeds of a 998-node Citeseer stand-in); the bound
    leaves room for a few swaps at the top-k cut."""
    for seed in SEEDS:
        a = {tuple(e) for e in model.generate(seed).edge_array().tolist()}
        b = {
            tuple(e)
            for e in model.generate(seed, config=_f32(model)).edge_array().tolist()
        }
        assert len(a & b) / len(a | b) >= 0.95, f"seed={seed}"
