"""The generation working set: streamed last latent level, one decode, and
the seed block's own top-k cut.

* The decode draws the last latent level chunk by chunk
  (``LatentDistributions.sample(..., stream_last=True)``); the features and
  the RNG state afterwards must equal the one-shot draw's.
* A streamed level is read once, in ascending order; anything else raises.
* ``generate_to_file`` holds the features plus at most one latent level and
  one scoring block, not the full latents, through top-k and selection.
* A block scored without a threshold keeps only its own top-k before its
  pair indices are built; the kernel's output and counters are those of
  building every pair first.
"""

import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import repro.core.decoder as decoder_module
from repro.core import CPGAN, CPGANConfig
from repro.core.decoder import (
    _DECODE_ROW_CHUNK,
    GraphDecoder,
    topk_pair_candidates,
)
from repro.core.variational import LatentDistributions, StreamedLevel
from repro.datasets import load
from repro.nn.tensor import _stable_sigmoid
from repro.trace import counting

CHUNK = _DECODE_ROW_CHUNK
#: Around every chunk boundary, including the 1-row tail that merges into
#: the previous chunk (chunk + 1) and a 2-row tail (chunk + 2).
SIZES = [1, 2, CHUNK - 1, CHUNK, CHUNK + 1, CHUNK + 2, 2 * CHUNK + 1]
LATENT_DIM = 8

#: Latent sources, as ``_prepare_generation`` builds them: the N(0, I)
#: prior, the posterior at its fitted size (node identity kept), the
#: bootstrapped posterior, CPGAN-noV (σ = 0) and ``noise_scale`` ≠ 1.
SOURCES = ["prior", "posterior", "bootstrap", "noV", "noise_scale"]


def _decoder(levels: int) -> GraphDecoder:
    config = CPGANConfig(num_levels=levels, hidden_dim=16, latent_dim=LATENT_DIM)
    return GraphDecoder(config, np.random.default_rng(0))


def _source(kind: str, n: int, levels: int):
    """``(distributions, keep_identity)`` for one latent source kind."""
    rng = np.random.default_rng(42)
    fitted = n if kind == "posterior" else 37
    if kind == "prior":
        return LatentDistributions.standard_prior(fitted, LATENT_DIM, levels), False
    mus = [rng.normal(size=(fitted, LATENT_DIM)) for __ in range(levels)]
    sigmas = [rng.uniform(0.05, 0.5, size=LATENT_DIM) for __ in range(levels)]
    if kind == "noV":
        sigmas = [np.zeros(LATENT_DIM) for __ in range(levels)]
    elif kind == "noise_scale":
        sigmas = [s * 2.5 for s in sigmas]
    return LatentDistributions(mus=mus, sigmas=sigmas), kind == "posterior"


class TestStreamedLastLevel:
    @pytest.mark.parametrize("kind", SOURCES)
    @pytest.mark.parametrize("levels", [1, 2, 3])
    @pytest.mark.parametrize("n", SIZES)
    def test_equals_materialised_draw(self, n, levels, kind):
        dec = _decoder(levels)
        dist, keep = _source(kind, n, levels)
        rng_a = np.random.default_rng(7)
        rows_a, full = dist.sample(n, rng_a, keep, with_rows=True)
        expected = dec.edge_features_numpy(full)
        rng_b = np.random.default_rng(7)
        rows_b, lazy = dist.sample(
            n, rng_b, keep, with_rows=True, stream_last=True
        )
        assert isinstance(lazy[-1], StreamedLevel)
        assert lazy[-1].shape == full[-1].shape
        for a, b in zip(full[:-1], lazy[:-1]):
            np.testing.assert_array_equal(a, b)
        got = dec.edge_features_numpy(lazy)
        np.testing.assert_array_equal(rows_a, rows_b)
        assert got.tobytes() == expected.tobytes()
        # The chunked draw leaves the generator where the one-shot draw
        # does, so every later draw (the repair pass) is unchanged.
        np.testing.assert_array_equal(rng_a.random(4), rng_b.random(4))

    def test_float32_decode_matches(self):
        dec = _decoder(2)
        dist, keep = _source("bootstrap", CHUNK + 1, 2)
        full = dist.sample(CHUNK + 1, np.random.default_rng(3), keep)
        lazy = dist.sample(
            CHUNK + 1, np.random.default_rng(3), keep, stream_last=True
        )
        np.testing.assert_array_equal(
            dec.edge_features_numpy(full, np.float32),
            dec.edge_features_numpy(lazy, np.float32),
        )

    def test_out_of_order_read_raises(self):
        dist, __ = _source("bootstrap", 100, 2)
        level = dist.sample(100, np.random.default_rng(0), stream_last=True)[-1]
        with pytest.raises(RuntimeError, match="ascending order"):
            level.take(10, 20)
        level.take(0, 10)
        with pytest.raises(RuntimeError):
            level.take(20, 30)  # skips rows 10..19
        with pytest.raises(RuntimeError):
            level.take(10, 10)  # empty
        with pytest.raises(RuntimeError):
            level.take(10, 101)  # past the end
        level.take(10, 100)

    def test_second_read_raises(self):
        dec = _decoder(2)
        dist, __ = _source("prior", 50, 2)
        latents = dist.sample(50, np.random.default_rng(0), stream_last=True)
        dec.edge_features_numpy(latents)
        with pytest.raises(RuntimeError, match="drawn once"):
            dec.edge_features_numpy(latents)
        with pytest.raises(RuntimeError):
            latents[-1].take(0, 50)


@pytest.fixture(scope="module")
def stream_model() -> CPGAN:
    """The streaming benchmark's model: a 1-epoch fit of the Citeseer
    stand-in at scale 0.06."""
    graph = load("citeseer", scale=0.06, seed=0).graph
    return CPGAN(CPGANConfig(epochs=1, seed=0)).fit(graph)


class TestWorkingSet:
    """``generate_to_file`` at 40k nodes, float32: the traced peak is the
    features plus at most one float64 latent level, plus a fixed slack.
    The latents of both levels (2 × 10.2 MB here) must be gone before
    top-k and before the hierarchical tasks, so a pipeline that keeps them
    alive there fails these bounds (measured peaks with the latents alive:
    ~50 MiB flat, ~29 MiB hierarchical)."""

    N = 40_000
    #: Flat: one scoring block of the kernel (its row block is capped at
    #: ``_BLOCK_LOGIT_BUDGET`` logits, 15.3 MiB in float32) with its
    #: pre-cut temporaries, the candidate buffer and the selection state.
    #: Measured flat peaks: 30.2–33.5 MiB over seeds 1–6.
    FLAT_SLACK = 24 * 2**20
    #: Hierarchical: per-community blocks are small; the peak is the
    #: decode (features, the first latent level and a few chunks).
    #: Measured: 17.0 MiB.
    HIER_SLACK = 6 * 2**20

    @pytest.mark.parametrize("mode", ["sparse", "hierarchical"])
    def test_peak_is_features_plus_one_level(self, stream_model, mode):
        cfg = stream_model.generation_config(
            latent_source="prior",
            generation_dtype="float32",
            repair_sampler="factored",
            generation_mode=mode,
        )
        features = self.N * cfg.latent_dim * 4
        level = self.N * cfg.latent_dim * 8
        slack = self.FLAT_SLACK if mode == "sparse" else self.HIER_SLACK
        with tempfile.TemporaryDirectory() as tmp:
            tracemalloc.start()
            try:
                count = stream_model.generate_to_file(
                    Path(tmp) / "g",
                    seed=1,
                    num_nodes=self.N,
                    config=cfg,
                    shard_edges=100_000,
                )
                __, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert count > 0
        bound = features + level + slack
        assert peak < bound, (
            f"peak {peak / 2**20:.1f} MiB >= bound {bound / 2**20:.1f} MiB"
        )

    def test_prepared_latents_stream_the_last_level(self, stream_model):
        cfg = stream_model.generation_config(latent_source="prior")
        prepared = stream_model._prepare_generation(1, 1000, cfg)
        assert all(isinstance(z, np.ndarray) for z in prepared.latents[:-1])
        assert isinstance(prepared.latents[-1], StreamedLevel)


def _block_pairs_all(n, start, stop):
    """Every upper-triangle pair of a row block, row-major (the kernel's
    pair construction before the cut)."""
    rows = np.arange(start, stop)
    counts = n - rows - 1
    u = np.repeat(rows, counts)
    ends = np.cumsum(counts)
    v = np.arange(int(ends[-1]), dtype=np.int64)
    v -= np.repeat(ends - counts, counts)
    v += u
    v += 1
    return u, v


def _uncut_block_logits(original):
    """The threshold-free branch without the block's own top-k cut: the
    sigmoid and (u, v) of every pair of the block."""

    def score(logits, start, stop, snapshot, k, col0=0):
        if snapshot is not None:
            return original(logits, start, stop, snapshot, k, col0)
        width = logits.shape[1]
        s_logit = np.concatenate(
            [logits[i, max(start + i + 1 - col0, 0) :] for i in range(stop - start)]
        )
        # Every pair of the block: its last global column is col0 + width - 1.
        u, v = _block_pairs_all(col0 + width, start, stop)
        return u, v, _stable_sigmoid(s_logit, overwrite_input=True)

    return score


def _features(kind: str, n: int) -> np.ndarray:
    rng = np.random.default_rng(5)
    if kind == "ties":
        # Lattice features: dot products on a coarse grid, so the k-th
        # score is shared by many pairs and the tie rule decides.
        return rng.integers(-2, 3, size=(n, 6)) * 0.25
    return rng.normal(size=(n, 6)) * 0.6


class TestSeedBlockCut:
    @pytest.mark.parametrize("kind", ["normal", "ties"])
    @pytest.mark.parametrize("threads", [1, 4])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_matches_uncut_kernel(
        self, monkeypatch, scoring_pool, dtype, threads, kind
    ):
        n, k = 1500, 300
        g = _features(kind, n)
        cut = decoder_module._score_block_logits
        widest = []

        def spy(logits, start, stop, snapshot, k_, col0=0):
            if snapshot is None:
                widest.append(logits.size)
            return cut(logits, start, stop, snapshot, k_, col0)

        monkeypatch.setattr(decoder_module, "_score_block_logits", spy)
        with counting() as got_counts:
            got = topk_pair_candidates(g, k, threads=threads, score_dtype=dtype)
        # The seed block alone holds ~8k pairs, so the cut is exercised.
        assert max(widest) > 8 * k
        assert bool(scoring_pool) == (threads > 1)
        monkeypatch.setattr(
            decoder_module, "_score_block_logits", _uncut_block_logits(cut)
        )
        with counting() as want_counts:
            want = topk_pair_candidates(g, k, threads=threads, score_dtype=dtype)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)
        if threads == 1:
            assert dict(got_counts) == dict(want_counts)
        else:
            # With scoring threads the scored/pruned split follows thread
            # timing on either side; the block count does not.
            assert got_counts["topk_blocks"] == want_counts["topk_blocks"]
