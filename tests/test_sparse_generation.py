"""Tests for the candidate-pruned sparse generation pipeline.

The sparse path (chunked top-k scoring kernel + sparse assembly) carries an
equivalence guarantee against the dense reference (``CPGAN._generate_dense``
on the same prepared latents): same fitted model, same seed, same graph —
bit for bit.  These tests pin that guarantee, the
exactness of the kernel's candidate pruning, the repair pass's structural
properties, and the memory bound that is the pipeline's reason to exist.
"""

import tracemalloc

import numpy as np
import pytest

import repro.core.decoder as decoder_module
import repro.graphs.assembly as asm
from repro.core import CPGAN, CPGANConfig
from repro.core.decoder import (
    _SampleFold,
    pair_feature_norms,
    topk_pair_candidates,
    topk_pair_candidates_batch,
)
from repro.datasets import community_graph
from repro.graphs.assembly import _fold_topk, _triu_rank
from repro.nn.tensor import _stable_sigmoid
from repro.trace import counting

_SMALL_CONFIG = dict(
    input_dim=4, node_embedding_dim=8, hidden_dim=16, latent_dim=8,
    pool_size=8, epochs=15, sample_size=120, seed=0,
)


def _fit(decoder_mode: str = "gru") -> CPGAN:
    graph, __ = community_graph(60, 3, 5.0, seed=0)
    config = CPGANConfig(decoder_mode=decoder_mode, **_SMALL_CONFIG)
    return CPGAN(config).fit(graph)


@pytest.fixture(scope="module")
def gru_model() -> CPGAN:
    return _fit("gru")


@pytest.fixture(scope="module")
def concat_model() -> CPGAN:
    return _fit("concat")


def _dense_oracle(model, seed, num_nodes=None, config=None):
    """The O(n²) reference: decode the full matrix, assemble it densely,
    from the same prepared latents and RNG the sparse pipeline uses."""
    cfg = config or model.config
    prepared = model._prepare_generation(seed, num_nodes, cfg)
    return model._generate_dense(prepared, cfg.assembly_strategy)


class TestSparseDenseEquivalence:
    """Same seed ⇒ identical Graph across every shared strategy."""

    @pytest.mark.parametrize("strategy", ["categorical_topk", "topk"])
    @pytest.mark.parametrize("latent_source", ["posterior", "prior"])
    def test_bit_identical_graphs(self, gru_model, strategy, latent_source):
        model = gru_model
        cfg = model.generation_config(
            assembly_strategy=strategy, latent_source=latent_source
        )
        sparse = model.generate(seed=7, config=cfg)
        dense = _dense_oracle(model, 7, config=cfg)
        assert sparse.num_nodes == dense.num_nodes
        assert np.array_equal(sparse.edge_array(), dense.edge_array())

    def test_bit_identical_concat_decoder(self, concat_model):
        model = concat_model
        sparse = model.generate(seed=3)
        dense = _dense_oracle(model, 3)
        assert np.array_equal(sparse.edge_array(), dense.edge_array())

    def test_bit_identical_at_larger_size(self, gru_model):
        """Bootstrapped latents (num_nodes != fitted size) share the path."""
        model = gru_model
        sparse = model.generate(seed=11, num_nodes=150)
        dense = _dense_oracle(model, 11, num_nodes=150)
        assert np.array_equal(sparse.edge_array(), dense.edge_array())


class TestKernelExactness:
    """topk_pair_candidates matches the dense full-sort reference exactly."""

    @staticmethod
    def _dense_reference(g: np.ndarray, k: int):
        n = g.shape[0]
        scores = 1.0 / (1.0 + np.exp(-(g @ g.T)))
        iu, ju = np.triu_indices(n, k=1)
        vals = scores[iu, ju]
        # Descending score, ties toward the larger upper-triangle index —
        # the historical np.argsort(vals)[::-1] order.
        order = np.lexsort((-_triu_rank(iu, ju, n), -vals))[:k]
        return iu[order], ju[order], vals[order]

    @pytest.mark.parametrize("n", [5, 37, 200])
    @pytest.mark.parametrize("row_block", [16, 64, 1024])
    def test_matches_dense_reference(self, n, row_block):
        rng = np.random.default_rng(n)
        g = rng.normal(size=(n, 6))
        total = n * (n - 1) // 2
        for k in (1, 7, n, min(4 * n, total)):
            u, v, s = topk_pair_candidates(g, k, row_block=row_block)
            ru, rv, rs = self._dense_reference(g, k)
            got = set(zip(u.tolist(), v.tolist()))
            want = set(zip(ru.tolist(), rv.tolist()))
            assert got == want, f"pair set mismatch at n={n}, k={k}"
            # Same pairs must carry the same scores (sorted for comparison:
            # the fold does not promise an output order).
            key = np.lexsort((v, u))
            rkey = np.lexsort((rv, ru))
            np.testing.assert_allclose(s[key], rs[rkey], rtol=0, atol=1e-12)

    def test_ties_resolved_like_dense(self):
        """A score plateau straddling the cut picks the dense subset."""
        n = 12
        g = np.ones((n, 3))  # every pair scores identically
        for k in (1, 5, 20):
            u, v, __ = topk_pair_candidates(g, k, row_block=4)
            ru, rv, __ = self._dense_reference(g, k)
            assert set(zip(u.tolist(), v.tolist())) == set(
                zip(ru.tolist(), rv.tolist())
            )

    def test_fold_topk_deterministic_under_ties(self):
        vals = np.array([0.5, 0.9, 0.5, 0.5, 0.1])
        rank = np.arange(vals.size)
        keep = _fold_topk(vals, rank, 3)
        # 0.9 is sure; the two tied 0.5 slots go to the larger ranks (2, 3).
        assert sorted(keep.tolist()) == [1, 2, 3]

    def test_k_clamped_to_pair_count(self):
        g = np.random.default_rng(0).normal(size=(6, 4))
        u, v, s = topk_pair_candidates(g, 10_000)
        assert u.size == 6 * 5 // 2
        assert (u < v).all()

    def test_k_zero(self):
        g = np.random.default_rng(0).normal(size=(6, 4))
        u, v, s = topk_pair_candidates(g, 0)
        assert u.size == v.size == s.size == 0


class TestThreadBitIdentity:
    """The parallel kernel is bit-identical to the serial one.

    Scoring a row-block is a pure function of its inputs and every pruning
    decision is re-validated at fold time in deterministic block order, so
    thread count must never change a single bit of the output buffers —
    this is what lets ``generation_threads`` be a pure wall-clock knob.
    The schedules here are small, so each test takes the ``scoring_pool``
    fixture to keep the threaded path under test.
    """

    @pytest.mark.parametrize("threads", [2, 8])
    def test_kernel_buffers_identical(self, threads, scoring_pool):
        rng = np.random.default_rng(17)
        for n, k, row_block in [(37, 50, 8), (200, 1056, 64), (120, 400, 16)]:
            g = rng.normal(size=(n, 8))
            serial = topk_pair_candidates(g, k, row_block=row_block, threads=1)
            parallel = topk_pair_candidates(
                g, k, row_block=row_block, threads=threads
            )
            for a, b in zip(serial, parallel):
                assert a.dtype == b.dtype
                assert np.array_equal(a, b)
        assert len(scoring_pool) == 3

    @pytest.mark.parametrize("threads", [1, 2, 8])
    def test_threshold_skip_path_engages_and_stays_exact(
        self, threads, scoring_pool
    ):
        """Crafted scores where whole blocks fall below the carried
        threshold: the norm bound must prune them unscored, and the pruned
        kernel must still return the exact dense top-k."""
        g = np.zeros((64, 4))
        g[:4] = 10.0  # all top pairs live in the first rows
        with counting() as counts:
            u, v, s = topk_pair_candidates(g, 5, row_block=4, threads=threads)
        assert counts["topk_pruned_unscored"] > 0, "norm-bound skip never fired"
        assert bool(scoring_pool) == (threads > 1)
        ru, rv, rs = TestKernelExactness._dense_reference(g, 5)
        assert set(zip(u.tolist(), v.tolist())) == set(
            zip(ru.tolist(), rv.tolist())
        )
        # And the buffers are identical to the serial kernel's, bit for bit.
        su, sv, ss = topk_pair_candidates(g, 5, row_block=4, threads=1)
        assert np.array_equal(u, su)
        assert np.array_equal(v, sv)
        assert np.array_equal(s, ss)

    @pytest.mark.parametrize("threads", [2, 8])
    def test_generated_graphs_identical_across_threads(
        self, gru_model, threads, scoring_pool
    ):
        model = gru_model
        serial_cfg = model.generation_config(
            latent_source="prior", generation_threads=1
        )
        threaded_cfg = model.generation_config(
            latent_source="prior", generation_threads=threads
        )
        for seed in (0, 9):
            reference = model.generate(seed=seed, num_nodes=150, config=serial_cfg)
            threaded = model.generate(seed=seed, num_nodes=150, config=threaded_cfg)
            assert np.array_equal(reference.edge_array(), threaded.edge_array())
        assert scoring_pool

    def test_generation_threads_validated(self, gru_model):
        with pytest.raises(ValueError, match="generation_threads"):
            gru_model.generation_config(generation_threads=0)


class TestScoringPoolCutoff:
    """A schedule too short to feed the pool is scored serially."""

    @staticmethod
    def _blocks(n, threads):
        g = np.random.default_rng(n).normal(size=(n, 8))
        with counting() as counts:
            got = topk_pair_candidates(g, 2 * n, threads=threads)
        want = topk_pair_candidates(g, 2 * n, threads=1)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
        return counts["topk_blocks"]

    def test_small_schedule_opens_no_pool(self, pool_sizes):
        # 67 nodes: the 2-block schedule of the hot-path `generation` cell.
        blocks = self._blocks(67, threads=4)
        assert blocks == 2 and pool_sizes == []

    def test_pool_gets_one_thread_per_blocks_share(self, pool_sizes):
        per_thread = decoder_module._BLOCKS_PER_SCORING_THREAD
        blocks = self._blocks(4000, threads=8)
        assert blocks >= 2 * per_thread
        assert pool_sizes == [min(8, blocks // per_thread)]


class TestAmortisedFold:
    """Survivors fold into the buffer once per ~k, not once per block.

    The threshold stays the exact k-th best score after every block, so
    pruning, GEMM extents (float32 column cutoffs included), counters and
    output bits must all match a fold after every block.
    """

    @staticmethod
    def _eager_fold(monkeypatch):
        """Reference schedule: flush the queue after every scored block."""
        fold = _SampleFold.fold

        def eager(self, u, v, s):
            kept = fold(self, u, v, s)
            if self.queued:
                self._flush()
            return kept

        monkeypatch.setattr(_SampleFold, "fold", eager)

    @staticmethod
    def _record_flushes(monkeypatch) -> list:
        """Scores each flush folds (buffer and queued survivors)."""
        calls = []
        flush = _SampleFold._flush

        def counted(self):
            calls.append(np.concatenate([part[2] for part in self.parts]))
            flush(self)

        monkeypatch.setattr(_SampleFold, "_flush", counted)
        return calls

    @staticmethod
    def _quantised(n: int, seed: int = 0) -> np.ndarray:
        # Entries in {-1, -0.5, 0, 0.5, 1}: logits are exact multiples of
        # 0.25 in [-4, 4] in both precisions and for every GEMM extent, so
        # scores form wide plateaus with thread-independent bits.
        return np.random.default_rng(seed).integers(-2, 3, size=(n, 4)) / 2.0

    @staticmethod
    def _reference(g: np.ndarray, k: int, dtype) -> set:
        """Dense top-k pair set under the kernel's tie order: the triangle
        rank in native order (float64) or norm-sorted order (float32)."""
        if dtype == np.float64:
            u, v, __ = TestKernelExactness._dense_reference(g, k)
            return set(zip(u.tolist(), v.tolist()))
        norms = pair_feature_norms(g.astype(np.float32))
        perm = np.argsort(np.negative(norms), kind="stable")
        u, v, __ = TestKernelExactness._dense_reference(g[perm], k)
        pu, pv = perm[u], perm[v]
        lo, hi = np.minimum(pu, pv), np.maximum(pu, pv)
        return set(zip(lo.tolist(), hi.tolist()))

    @pytest.mark.parametrize("threads", [1, 4])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_tie_plateaus_across_flushes_match_dense(
        self, dtype, threads, monkeypatch, pool_sizes
    ):
        n, k = 300, 400
        g = self._quantised(n)
        flushes = self._record_flushes(monkeypatch)
        u, v, s = topk_pair_candidates(
            g, k, row_block=16, threads=threads, score_dtype=dtype
        )
        assert bool(pool_sizes) == (threads > 1)
        # The k-th score's plateau reaches at least 3 flushes and straddles
        # the cut: some of its pairs are kept and some are not.
        assert sum(bool((scores == s.min()).any()) for scores in flushes) >= 3
        logits = g @ g.T
        iu, ju = np.triu_indices(n, k=1)
        plateau = np.count_nonzero(logits[iu, ju] == logits[u, v].min())
        assert plateau > np.count_nonzero(logits[u, v] == logits[u, v].min())
        assert set(zip(u.tolist(), v.tolist())) == self._reference(g, k, dtype)
        want = _stable_sigmoid(logits[u, v].astype(dtype))
        assert s.dtype == dtype and np.array_equal(s, want)

    @pytest.mark.parametrize("threads", [1, 4])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_batch_of_three_equals_solo(self, dtype, threads, pool_sizes):
        gs = np.stack([self._quantised(300, seed) for seed in range(3)])
        batch = topk_pair_candidates_batch(
            gs, 400, row_block=16, threads=threads, score_dtype=dtype
        )
        for g, got in zip(gs, batch):
            solo = topk_pair_candidates(
                g, 400, row_block=16, threads=threads, score_dtype=dtype
            )
            for a, b in zip(got, solo):
                assert a.dtype == b.dtype and np.array_equal(a, b)
        assert bool(pool_sizes) == (threads > 1)

    @pytest.mark.parametrize("concentrated", [False, True])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bit_identical_to_a_fold_per_block(
        self, dtype, concentrated, monkeypatch
    ):
        """Same buffers and same counters as folding after every block.

        In float32 a score's bits depend on the GEMM's column extent, which
        the threshold sets: on the plain input a threshold that lagged the
        per-block one widens extents and flips a pair at the cut.  The
        concentrated input has blocks that the threshold drops whole, so
        ``topk_folds_skipped`` is exercised.  One scoring thread, so every
        snapshot is the fold-order threshold.
        """
        g = np.random.default_rng(0).normal(size=(3000, 16))
        if concentrated:
            g[:300] *= 2.0
        runs = []
        for eager in (False, True):
            with monkeypatch.context() as patch:
                if eager:
                    self._eager_fold(patch)
                with counting() as counts:
                    out = topk_pair_candidates(g, 8000, score_dtype=dtype)
            runs.append((out, dict(counts)))
        (amortised, amortised_counts), (eager_out, eager_counts) = runs
        assert amortised_counts == eager_counts
        if concentrated:
            assert amortised_counts["topk_folds_skipped"] > 0
        for a, b in zip(amortised, eager_out):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_vectorised_bounds_match_per_block_bounds(self, dtype):
        """The schedule's bounds equal the per-block scalar formula."""
        for n, k, row_block in [(500, 300, 32), (1000, 20, 40), (97, 1000, 8)]:
            g = np.random.default_rng(n).normal(size=(n, 6)).astype(dtype)
            fold = _SampleFold(
                g, n, k, row_block, norm_order=dtype == np.float32
            )
            norms = fold.norms
            suffix_max = np.maximum.accumulate(norms[::-1])[::-1]
            slack = 1e-4 if dtype == np.float32 else 1e-6
            for (start, stop), got in zip(fold.blocks, fold.bounds):
                bound = norms[start:stop].max() * suffix_max[start + 1]
                bound += slack * abs(bound) + slack
                assert got == float(_stable_sigmoid(np.array(bound)))
            # The blocks still tile the rows: each starts where one stops.
            starts = sorted(start for start, __ in fold.blocks)
            stops = sorted(stop for __, stop in fold.blocks)
            assert starts == [0, *stops[:-1]]


class TestDegenerateInputs:
    """Tiny graphs and empty budgets must not trip the top-k machinery."""

    @pytest.mark.parametrize("threads", [1, 4])
    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_kernel_tiny_n(self, n, threads):
        g = np.random.default_rng(0).normal(size=(n, 4))
        for k in (0, 1, 5):
            u, v, s = topk_pair_candidates(g, k, threads=threads)
            want = min(k, n * (n - 1) // 2)
            assert u.size == v.size == s.size == want
            assert u.dtype == v.dtype == np.int64
            if want:
                assert (u < v).all()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_seed_split_never_leaves_only_the_last_row(self, dtype):
        """n = 16, k = 15: the 8k = 120-pair seed prefix is rows 0–14,
        which hold every pair, so a split would leave row 15 (no pairs) as
        a block of its own, whose bound reads past the norm array."""
        g = np.random.default_rng(0).normal(size=(16, 4))
        u, v, s = topk_pair_candidates(g, 15, score_dtype=dtype)
        ru, rv, __ = TestKernelExactness._dense_reference(g, 15)
        assert u.size == 15
        if dtype == np.float64:
            assert set(zip(u.tolist(), v.tolist())) == set(
                zip(ru.tolist(), rv.tolist())
            )

    def test_fold_topk_k_zero(self):
        vals = np.array([0.5, 0.9, 0.1])
        keep = _fold_topk(vals, np.arange(3), 0)
        assert keep.size == 0
        assert keep.dtype == np.int64

    def test_assemble_sparse_zero_edges(self):
        candidates = (
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            np.zeros(0),
        )
        graph = asm.assemble_graph_sparse(
            3, candidates, 0, np.random.default_rng(0),
            "categorical_topk", score_rows=lambda nodes: np.zeros((len(nodes), 3)),
        )
        assert graph.num_nodes == 3
        assert graph.num_edges == 0

    @pytest.mark.parametrize("num_nodes", [1, 2])
    def test_generate_tiny_graphs(self, gru_model, num_nodes):
        cfg = gru_model.generation_config(latent_source="prior")
        graph = gru_model.generate(seed=1, num_nodes=num_nodes, config=cfg)
        assert graph.num_nodes == num_nodes
        assert graph.num_edges <= num_nodes * (num_nodes - 1) // 2


class TestRepairProperties:
    """categorical_topk's repair pass: no isolated nodes, budget respected."""

    @pytest.mark.parametrize("seed", range(5))
    def test_no_isolated_nodes_and_budget(self, seed):
        n, num_edges = 40, 60
        rng = np.random.default_rng(seed)
        # Concentrated scores leave many nodes out of the raw top-k, so the
        # repair pass has real work to do.
        g = rng.normal(size=(n, 4))
        g[: n // 2] *= 3.0
        scores = 1.0 / (1.0 + np.exp(-(g @ g.T)))
        np.fill_diagonal(scores, 0.0)
        graph = asm.assemble_graph(
            scores, num_edges, np.random.default_rng(seed), "categorical_topk"
        )
        assert graph.num_edges <= num_edges
        degrees = np.bincount(graph.edge_array().ravel(), minlength=n)
        assert (degrees > 0).all(), "repair left isolated nodes"

    def test_budget_never_exceeded_when_all_isolated(self):
        """Every node isolated pre-repair: repair alone must fit the budget."""
        n, num_edges = 30, 10
        rng = np.random.default_rng(1)
        scores = rng.random((n, n))
        scores = (scores + scores.T) / 2
        np.fill_diagonal(scores, 0.0)
        empty = (
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            np.zeros(0),
        )
        graph = asm.assemble_graph_sparse(
            n, empty, num_edges, np.random.default_rng(1),
            "categorical_topk", score_rows=lambda nodes: scores[nodes],
        )
        assert graph.num_edges <= num_edges

    def test_chunked_repair_bit_identical(self, gru_model, monkeypatch):
        """Forcing multi-chunk repair scoring must not change the stream."""
        model = gru_model
        model.config.latent_source = "prior"
        try:
            reference = model.generate(seed=5)
            # n=60 → block of 5 isolated nodes per chunk.
            monkeypatch.setattr(asm, "_REPAIR_SCORE_BLOCK", 300)
            chunked = model.generate(seed=5)
        finally:
            model.config.latent_source = "posterior"
        assert np.array_equal(reference.edge_array(), chunked.edge_array())


class TestMemoryBound:
    """The acceptance criterion: no n×n allocation on the sparse path."""

    def test_sparse_generation_memory_bounded(self, gru_model):
        n = 4608  # above _DENSE_GENERATION_LIMIT (4096)
        model = gru_model
        model.config.latent_source = "prior"
        try:
            tracemalloc.start()
            graph = model.generate(seed=0, num_nodes=n)
            __, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            model.config.latent_source = "posterior"
        assert graph.num_nodes == n
        # A dense float64 n×n matrix alone is ~170 MB at n=4608 (and the
        # dense pipeline holds several of them); the sparse pipeline's
        # O(row_block·n + K) working set measures ~55 MB here.
        assert peak < 72 * 1024 * 1024, f"peak {peak / 1e6:.0f} MB"

    def test_dense_mode_refuses_above_limit(self, gru_model):
        """Bernoulli assembly decodes the n×n matrix, so it is capped."""
        cfg = gru_model.generation_config(
            assembly_strategy="bernoulli", latent_source="prior"
        )
        with pytest.raises(ValueError, match="dense generation"):
            gru_model.generate(seed=0, num_nodes=4608, config=cfg)

    def test_dense_generation_mode_rejected(self):
        with pytest.raises(ValueError, match="generation_mode"):
            CPGANConfig(generation_mode="dense")


class TestScoreDtype:
    """The precision contract: float64 default is bit-stable, float32 is a
    legitimate memory-halving opt-in with its own exactness guarantees."""

    def test_default_equals_explicit_float64(self):
        rng = np.random.default_rng(0)
        g = rng.normal(size=(80, 6))
        default = topk_pair_candidates(g, 120)
        explicit = topk_pair_candidates(g, 120, score_dtype=np.float64)
        assert default[2].dtype == np.float64
        for a, b in zip(default, explicit):
            assert np.array_equal(a, b)

    def test_float32_scores_and_pair_agreement(self):
        rng = np.random.default_rng(1)
        g = rng.normal(size=(100, 8))
        k = 150
        u64, v64, __ = topk_pair_candidates(g, k)
        u32, v32, s32 = topk_pair_candidates(g, k, score_dtype=np.float32)
        assert s32.dtype == np.float32
        got = set(zip(u32.tolist(), v32.tolist()))
        want = set(zip(u64.tolist(), v64.tolist()))
        # float32 rounding may swap pairs right at the cut; the sets must
        # still agree essentially everywhere.
        assert len(got & want) >= int(0.98 * k)

    @pytest.mark.parametrize("threads", [2, 4])
    def test_float32_thread_bit_identity(self, threads, scoring_pool):
        """The carried-threshold schedule is exact in float32 too."""
        rng = np.random.default_rng(2)
        g = rng.normal(size=(150, 8))
        solo = topk_pair_candidates(
            g, 300, row_block=32, score_dtype=np.float32, threads=1
        )
        multi = topk_pair_candidates(
            g, 300, row_block=32, score_dtype=np.float32, threads=threads
        )
        for a, b in zip(solo, multi):
            assert np.array_equal(a, b)
        assert scoring_pool

    def test_non_float_dtype_rejected(self):
        g = np.zeros((4, 2))
        with pytest.raises(ValueError, match="score_dtype"):
            topk_pair_candidates(g, 2, score_dtype=np.int32)


class TestRepairEdgeCases:
    """_repair_isolated under stress: every node isolated, a budget so
    tight eviction starves, and the float32 repair path."""

    @staticmethod
    def _all_isolated_assemble(score_rows, n, num_edges, seed):
        empty = (
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            np.zeros(0),
        )
        return asm.assemble_graph_sparse(
            n, empty, num_edges, np.random.default_rng(seed),
            "categorical_topk", score_rows=score_rows,
        )

    def test_all_isolated_float32_repair(self):
        # Budget >= n so no repair edge is trimmed back out: every node
        # must end up covered.
        n, num_edges = 30, 40
        rng = np.random.default_rng(3)
        scores = rng.random((n, n), dtype=np.float32)
        scores = (scores + scores.T) / np.float32(2)
        np.fill_diagonal(scores, 0.0)
        graph = self._all_isolated_assemble(
            lambda nodes: scores[nodes], n, num_edges, seed=3
        )
        assert graph.num_edges <= num_edges
        degrees = np.bincount(graph.edge_array().ravel(), minlength=n)
        assert (degrees > 0).all(), "float32 repair left isolated nodes"

    def test_float32_and_float64_repair_agree(self):
        """Away from CDF ties, the float32 draw picks the same partners."""
        n, num_edges = 24, 30
        rng = np.random.default_rng(4)
        scores = rng.random((n, n))
        scores = (scores + scores.T) / 2
        np.fill_diagonal(scores, 0.0)
        g64 = self._all_isolated_assemble(
            lambda nodes: scores[nodes], n, num_edges, seed=4
        )
        g32 = self._all_isolated_assemble(
            lambda nodes: scores[nodes].astype(np.float32), n, num_edges,
            seed=4,
        )
        assert np.array_equal(g64.edge_array(), g32.edge_array())

    def test_eviction_starvation_falls_back(self):
        """No edge is safe to evict (every endpoint would be stranded):
        the unsafe-eviction fallback still lands exactly on the budget."""
        n, num_edges = 5, 2
        scores = np.full((n, n), 1e-3)
        # Make (0,1) and (2,3) the clear top-2 candidates, and point the
        # lone leftover node 4 at node 1 so the repair edge overflows the
        # budget while every selected edge has two degree-1 endpoints.
        scores[0, 1] = scores[1, 0] = 0.9
        scores[2, 3] = scores[3, 2] = 0.8
        scores[4, :] = scores[:, 4] = 1e-6
        scores[4, 1] = scores[1, 4] = 0.99
        np.fill_diagonal(scores, 0.0)
        candidates = (
            np.array([0, 2], dtype=np.int64),
            np.array([1, 3], dtype=np.int64),
            np.array([0.9, 0.8]),
        )
        graph = asm.assemble_graph_sparse(
            n, candidates, num_edges, np.random.default_rng(0),
            "categorical_topk", score_rows=lambda nodes: scores[nodes],
        )
        assert graph.num_edges <= num_edges
        degrees = np.bincount(graph.edge_array().ravel(), minlength=n)
        assert degrees[4] > 0, "repair abandoned the isolated node"
