"""Unit tests for CPGAN's sub-modules: encoder, VI, decoder, discriminator."""

import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import repro.core.decoder as decoder_module
from repro import nn
from repro.core import (
    CPGANConfig,
    Discriminator,
    GraphDecoder,
    LadderEncoder,
    LatentDistributions,
    VariationalInference,
)
from repro.datasets import community_graph
from repro.graphs import Graph, spectral_embedding

RNG = np.random.default_rng(0)


def small_setup(num_levels=2, **kwargs):
    config = CPGANConfig(
        input_dim=4,
        node_embedding_dim=4,
        hidden_dim=8,
        latent_dim=6,
        pool_size=4,
        num_levels=num_levels,
        **kwargs,
    )
    graph, __ = community_graph(40, 4, 5.0, seed=1)
    features = np.concatenate(
        [
            spectral_embedding(graph, dim=4),
            np.random.default_rng(2).normal(size=(40, 4)),
        ],
        axis=1,
    )
    return config, graph, features


class TestConfig:
    def test_defaults_valid(self):
        cfg = CPGANConfig()
        assert cfg.effective_levels == 2

    def test_no_hierarchy_forces_single_level(self):
        cfg = CPGANConfig(use_hierarchy=False, num_levels=3)
        assert cfg.effective_levels == 1

    def test_invalid_decoder_mode(self):
        with pytest.raises(ValueError):
            CPGANConfig(decoder_mode="transformer")

    def test_invalid_levels(self):
        with pytest.raises(ValueError):
            CPGANConfig(num_levels=0)

    def test_invalid_latent_source(self):
        with pytest.raises(ValueError):
            CPGANConfig(latent_source="banana")

    def test_encoder_input_dim(self):
        cfg = CPGANConfig(input_dim=4, node_embedding_dim=16)
        assert cfg.encoder_input_dim == 20


class TestLadderEncoder:
    def test_output_shapes(self):
        config, graph, features = small_setup()
        enc = LadderEncoder(config, np.random.default_rng(0))
        adj = LadderEncoder.prepare_adjacency(graph)
        out = enc(adj, features)
        assert len(out.z_rec) == 2
        assert out.z_rec[0].shape == (40, 8)
        assert out.z_rec[1].shape == (40, 8)
        assert out.readout.shape == (2, 8)
        assert len(out.assignments) == 1
        assert out.assignments[0].shape == (40, 4)

    def test_assignments_are_distributions(self):
        config, graph, features = small_setup()
        enc = LadderEncoder(config, np.random.default_rng(0))
        out = enc(LadderEncoder.prepare_adjacency(graph), features)
        rows = out.assignments[0].data.sum(axis=1)
        np.testing.assert_allclose(rows, 1.0, atol=1e-9)

    def test_readout_permutation_invariant(self):
        """Eq. 5: E(PAPᵀ) == E(A) for any permutation P."""
        config, graph, features = small_setup()
        enc = LadderEncoder(config, np.random.default_rng(0))
        adj = graph.to_dense()
        perm = np.random.default_rng(3).permutation(40)
        adj_p = adj[perm][:, perm]
        out = enc(
            LadderEncoder.prepare_adjacency(Graph(adj)), features
        )
        out_p = enc(
            LadderEncoder.prepare_adjacency(Graph(adj_p)), features[perm]
        )
        np.testing.assert_allclose(
            out.readout.data, out_p.readout.data, atol=1e-8
        )

    def test_single_level_no_assignments(self):
        config, graph, features = small_setup(num_levels=1)
        enc = LadderEncoder(config, np.random.default_rng(0))
        out = enc(LadderEncoder.prepare_adjacency(graph), features)
        assert out.assignments == []
        assert out.readout.shape == (1, 8)

    def test_three_levels(self):
        config, graph, features = small_setup(num_levels=3)
        enc = LadderEncoder(config, np.random.default_rng(0))
        out = enc(LadderEncoder.prepare_adjacency(graph), features)
        assert len(out.z_rec) == 3
        assert out.readout.shape == (3, 8)
        # Second pooling has pool_size // 4 (floored at 2) clusters.
        assert out.assignments[1].shape == (40, 2)

    def test_dense_adjacency_path_differentiable(self):
        config, graph, features = small_setup()
        enc = LadderEncoder(config, np.random.default_rng(0))
        probs = nn.Tensor(
            np.random.default_rng(4).random((40, 40)), requires_grad=True
        )
        sym = (probs + probs.T) * 0.5
        adj = LadderEncoder.prepare_dense_adjacency(sym)
        out = enc(adj, features)
        out.readout.sum().backward()
        assert probs.grad is not None
        assert np.any(probs.grad != 0)

    def test_gradients_reach_all_parameters(self):
        config, graph, features = small_setup()
        enc = LadderEncoder(config, np.random.default_rng(0))
        out = enc(LadderEncoder.prepare_adjacency(graph), features)
        (out.readout.sum() + out.z_rec[1].sum()).backward()
        with_grad = [p.grad is not None for p in enc.parameters()]
        assert all(with_grad)


class TestVariationalInference:
    def test_shapes_and_kl(self):
        config, graph, features = small_setup()
        enc = LadderEncoder(config, np.random.default_rng(0))
        vi = VariationalInference(config, np.random.default_rng(1))
        out = enc(LadderEncoder.prepare_adjacency(graph), features)
        latents, kl, snap = vi(out.z_rec, np.random.default_rng(2))
        assert len(latents) == 2
        assert latents[0].shape == (40, 6)
        assert kl.data >= 0.0
        assert snap.mus[0].shape == (40, 6)
        assert snap.sigmas[0].shape == (6,)

    def test_pooled_variance_shrinks_with_n(self):
        """Eq. 12: σ̄² scales like 1/n² for fixed per-node magnitudes."""
        config, __, ___ = small_setup()
        vi = VariationalInference(config, np.random.default_rng(1))
        z_small = [nn.Tensor(np.ones((10, 8)))]
        z_big = [nn.Tensor(np.ones((40, 8)))]
        __, ___, snap_small = vi(z_small, np.random.default_rng(0))
        __, ___, snap_big = vi(z_big, np.random.default_rng(0))
        # n -> 4n with identical rows: variance factor (1/n²)·Σ = n/n² = 1/n.
        ratio = snap_small.sigmas[0] ** 2 / snap_big.sigmas[0] ** 2
        np.testing.assert_allclose(ratio, 4.0, rtol=1e-6)

    def test_latent_distribution_sampling(self):
        dist = LatentDistributions(
            mus=[np.arange(12.0).reshape(4, 3)], sigmas=[np.zeros(3)]
        )
        rng = np.random.default_rng(0)
        same = dist.sample(4, rng, keep_identity=True)
        np.testing.assert_allclose(same[0], dist.mus[0])
        boot = dist.sample(9, rng, keep_identity=True)  # size differs
        assert boot[0].shape == (9, 3)

    def test_standard_prior(self):
        prior = LatentDistributions.standard_prior(5, 3, 2)
        assert len(prior.mus) == 2
        samples = prior.sample(5, np.random.default_rng(0))
        assert samples[0].shape == (5, 3)
        assert np.std(samples[0]) > 0.5


class TestGraphDecoder:
    def make_latents(self, n=12, d=6, levels=2):
        rng = np.random.default_rng(5)
        return [nn.Tensor(rng.normal(size=(n, d))) for _ in range(levels)]

    def test_gru_mode_shapes(self):
        config = CPGANConfig(hidden_dim=8, latent_dim=6)
        dec = GraphDecoder(config, np.random.default_rng(0))
        probs = dec(self.make_latents())
        assert probs.shape == (12, 12)
        assert np.all((probs.data >= 0) & (probs.data <= 1))

    def test_probabilities_symmetric(self):
        config = CPGANConfig(hidden_dim=8, latent_dim=6)
        dec = GraphDecoder(config, np.random.default_rng(0))
        probs = dec(self.make_latents()).data
        np.testing.assert_allclose(probs, probs.T, atol=1e-12)

    def test_concat_mode(self):
        config = CPGANConfig(hidden_dim=8, latent_dim=6, decoder_mode="concat")
        dec = GraphDecoder(config, np.random.default_rng(0))
        probs = dec(self.make_latents())
        assert probs.shape == (12, 12)

    def test_decode_numpy_no_graph(self):
        config = CPGANConfig(hidden_dim=8, latent_dim=6)
        dec = GraphDecoder(config, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        out = dec.decode_numpy([rng.normal(size=(5, 6)) for _ in range(2)])
        assert isinstance(out, np.ndarray)
        assert out.shape == (5, 5)

    def test_empty_latents_rejected(self):
        config = CPGANConfig(hidden_dim=8, latent_dim=6)
        dec = GraphDecoder(config, np.random.default_rng(0))
        with pytest.raises(ValueError):
            dec.node_features([])

    def test_gradients_flow(self):
        config = CPGANConfig(hidden_dim=8, latent_dim=6)
        dec = GraphDecoder(config, np.random.default_rng(0))
        latents = self.make_latents()
        latents[0].requires_grad = True
        dec(latents).sum().backward()
        assert latents[0].grad is not None


class TestChunkedFeatureDecode:
    """``edge_features_numpy`` decodes in row chunks, bit for bit."""

    CHUNK = decoder_module._DECODE_ROW_CHUNK

    @staticmethod
    def _latents(config, n):
        rng = np.random.default_rng(n)
        return [
            rng.normal(size=(n, config.latent_dim))
            for __ in range(config.effective_levels)
        ]

    @pytest.mark.parametrize("mode", ["gru", "concat"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_chunk_boundaries_bit_identical(self, mode, dtype, monkeypatch):
        """Every chunk boundary, including a 1-row tail (which BLAS would
        decode through GEMV with different bits), matches the one-shot
        decode in the same dtype."""
        config = CPGANConfig(decoder_mode=mode)
        dec = GraphDecoder(config, np.random.default_rng(0))
        c = self.CHUNK
        for n in (1, 2, c - 1, c, c + 1, c + 2, 2 * c + 1):
            latents = self._latents(config, n)
            chunked = dec.edge_features_numpy(latents, dtype)
            with monkeypatch.context() as patch:
                patch.setattr(decoder_module, "_DECODE_ROW_CHUNK", 10**9)
                one_shot = dec.edge_features_numpy(latents, dtype)
            assert chunked.dtype == dtype
            assert chunked.shape == (n, config.latent_dim)
            assert np.array_equal(chunked, one_shot), f"n={n}"

    def test_tail_chunk_is_decoded_at_full_height(self, monkeypatch):
        """Past one chunk, every GEMM of the decode has a full chunk of
        rows: the tail is zero-padded, never a short (or 1-row GEMV) one."""
        config = CPGANConfig()
        dec = GraphDecoder(config, np.random.default_rng(0))
        heights = []
        fold = GraphDecoder._fold_levels

        def recording_fold(self, latents):
            heights.append({z.shape[0] for z in latents})
            return fold(self, latents)

        monkeypatch.setattr(GraphDecoder, "_fold_levels", recording_fold)
        c = self.CHUNK
        for n in (1, 2, c, c + 1, c + 2, 3 * c + 1):
            heights.clear()
            out = dec.edge_features_numpy(self._latents(config, n), np.float32)
            assert out.shape == (n, config.latent_dim)
            assert len(heights) == -(-n // c)
            assert heights == [{min(n, c)}] * len(heights), f"n={n}"

    def test_prefix_stable_under_another_blas_core(self):
        """Decoding n rows gives the first n rows of a 4-chunk decode under
        OpenBLAS's AVX2 (Haswell) kernels too, in both dtypes and modes: a
        row's bits depend on its latents and chunk position only.  Run in a
        subprocess because the core is chosen when OpenBLAS loads."""
        script = textwrap.dedent(
            """
            import numpy as np
            from repro.core import CPGANConfig, GraphDecoder
            from repro.core.decoder import _DECODE_ROW_CHUNK as c
            sizes = (c + 1, c + 2, c + 3, 600, 2 * c - 1, 2 * c, 2 * c + 1,
                     2 * c + 3, 3 * c - 1, 3 * c + 1, 3 * c + 7)
            bad = []
            for mode in ("gru", "concat"):
                config = CPGANConfig(decoder_mode=mode)
                dec = GraphDecoder(config, np.random.default_rng(0))
                rng = np.random.default_rng(1)
                latents = [rng.normal(size=(4 * c, config.latent_dim))
                           for __ in range(config.effective_levels)]
                for dtype in (np.float64, np.float32):
                    full = dec.edge_features_numpy(latents, dtype)
                    for n in sizes:
                        part = dec.edge_features_numpy(
                            [z[:n] for z in latents], dtype)
                        if not np.array_equal(part, full[:n]):
                            bad.append((mode, np.dtype(dtype).name, n))
            print(bad)
            """
        )
        src = str(Path(decoder_module.__file__).parents[2])
        env = dict(os.environ, OPENBLAS_CORETYPE="Haswell")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_decode_peak_memory_is_output_plus_chunks(self):
        """A 50k-row float32 decode holds its output plus a few chunk-sized
        temporaries, not (n, hidden) float64 arrays (~26 MB each here)."""
        config = CPGANConfig()
        dec = GraphDecoder(config, np.random.default_rng(0))
        n = 50_000
        latents = self._latents(config, n)
        tracemalloc.start()
        try:
            out = dec.edge_features_numpy(latents, np.float32)
            __, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < out.nbytes + 4 * 1024 * 1024, f"peak {peak / 1e6:.1f} MB"


class TestDiscriminator:
    def test_scalar_output(self):
        config = CPGANConfig(hidden_dim=8, latent_dim=6)
        disc = Discriminator(config, np.random.default_rng(0))
        readout = nn.Tensor(np.random.default_rng(1).normal(size=(2, 8)))
        logit = disc(readout)
        assert logit.shape == ()
        prob = disc.probability(readout)
        assert 0.0 <= prob.data <= 1.0

    def test_trainable(self):
        config = CPGANConfig(hidden_dim=8, latent_dim=6)
        disc = Discriminator(config, np.random.default_rng(0))
        readout = nn.Tensor(np.random.default_rng(1).normal(size=(2, 8)))
        disc(readout).backward()
        assert all(p.grad is not None for p in disc.parameters())
