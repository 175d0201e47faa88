"""Hierarchical graph decoder (paper §III-E).

Folds the sequence of per-level latents into node features with a GRU
(Eq. 13), then scores every node pair by a two-layer MLP followed by a dot
product and a sigmoid (Eq. 14):

    h_{l+1} = GRU(h_l, Z_vae^{(l+1)})
    p(A_ij) = σ( g_θ(h_k,i)ᵀ g_θ(h_k,j) )

The ``concat`` mode replaces the GRU with concatenation of levels — this is
the CPGAN-C ablation variant of Table VI.

Training and generation share one forward: :meth:`GraphDecoder.node_features`
and the row-chunked :meth:`GraphDecoder.edge_features_numpy` both run the
trained ``nn`` modules (generation under ``nn.no_grad``, in the scoring
dtype: float32 on float32 copies of the parameters), with the GRU fold
starting from the zero state ``GRUCell(None, x)``.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .. import nn
from ..graphs.assembly import _fold_topk, _triu_rank
from ..graphs.graph import _canonical_order
from ..nn.tensor import _stable_sigmoid
from ..trace import count
from .config import CPGANConfig
from .variational import StreamedLevel

__all__ = [
    "GraphDecoder",
    "PairScorer",
    "pair_feature_norms",
    "topk_pair_candidates",
    "topk_pair_candidates_batch",
]

#: Rows per block in the chunked pairwise-scoring kernel.  Each block costs
#: O(row_block · n) memory; 256 keeps the working set a few MB even at
#: n ~ 100k while the matmuls stay large enough to amortise BLAS overhead.
_SCORE_ROW_BLOCK = 256

#: Rows per chunk of the generation feature decode
#: (:meth:`GraphDecoder.edge_features_numpy`, the trained GRU/MLP modules
#: under ``no_grad``).  A 512-row chunk keeps each GRU/MLP temporary well
#: under a megabyte at the default widths, where a one-shot decode streams
#: an (n, hidden) array through memory on every elementwise pass (~100 MB
#: each in float64 at n = 100k).  Past one chunk, the tail chunk is
#: zero-padded to this height, so every decode GEMM has the same shape.
_DECODE_ROW_CHUNK = 512

#: Relative + absolute slack added to the Cauchy–Schwarz logit bound before
#: a block is pruned unscored.  The true dot products are computed in float
#: arithmetic, so the computed logit can exceed the computed norm product
#: by a few ulps; the margin is orders of magnitude larger than that
#: rounding while still far below any score gap that matters.
_BOUND_SLACK = 1e-6

#: The float32 counterpart: single-precision dots over latent_dim-sized
#: rows accumulate relative error around d·eps32 ≈ 1e-5, so the float64
#: margin would no longer dominate the rounding.  1e-4 keeps every prune
#: conservative in float32 while remaining far below meaningful score gaps.
_BOUND_SLACK_F32 = 1e-4


def _bound_slack(dtype: np.dtype) -> float:
    """Pruning slack matched to the scoring precision."""
    return _BOUND_SLACK_F32 if dtype == np.float32 else _BOUND_SLACK


def pair_feature_norms(g: np.ndarray) -> np.ndarray:
    """Per-row Euclidean norms of the pair-feature matrix ``g``.

    The Cauchy–Schwarz bound ``g_u · g_v <= ‖g_u‖ ‖g_v‖`` built on these is
    what both the scoring kernel's block/column pruning and the factored
    repair sampler's proposal envelope rely on; sharing the computation
    keeps the two bound constructions arithmetically identical.
    """
    return np.sqrt(np.einsum("ij,ij->i", g, g))


class PairScorer:
    """Factored access to the pairwise edge scores ``sigmoid(g_u · g_v)``.

    Wraps the decoder's pair-feature matrix ``g`` (Eq. 14's pre-dot-product
    rows) and its cached :func:`pair_feature_norms`, without ever
    materialising the n×n score matrix.  :meth:`rows` returns dense score
    rows for a node subset (the historical ``score_rows`` callback of the
    repair pass; calling the scorer like a function is an alias, so it
    drops into any ``score_rows`` slot); :class:`_EnvelopeProposal` builds
    the rejection samplers' proposal distribution from ``g`` and ``norms``.

    All outputs keep ``g``'s dtype: a float32 scorer runs the repair pass
    fully in float32, a float64 scorer reproduces the historical
    double-precision stream bit for bit through :meth:`rows`.
    """

    def __init__(self, g: np.ndarray, norms: np.ndarray | None = None) -> None:
        g = np.ascontiguousarray(g)
        if g.dtype not in (np.float64, np.float32):
            g = g.astype(np.float64)
        self.g = g
        self.norms = pair_feature_norms(g) if norms is None else np.asarray(norms)

    def __call__(self, nodes: np.ndarray) -> np.ndarray:
        return self.rows(nodes)

    def rows(self, nodes: np.ndarray) -> np.ndarray:
        """Score rows ``sigmoid(g[nodes] @ g.T)`` — O(len(nodes) · n).

        Diagonal entries are left as-is; the repair pass zeroes them.
        """
        return _stable_sigmoid(self.g[nodes] @ self.g.T, overwrite_input=True)


#: Proposal rounds of the envelope rejection samplers (isolated-node repair
#: and cross-community stitching) before each hands what is left to its
#: exact fallback.  With the measured ~0.5 acceptance rate the active set
#: decays geometrically, so the cap only bounds the worst case (a
#: pathological envelope, or a stitch budget near the block capacity).
_MAX_ROUNDS = 64


class _EnvelopeProposal:
    """Norm-bound rejection proposals over a scorer's destination rows.

    Built once per sampling call from the destination :class:`PairScorer`
    and ``scale``, the largest source feature norm.  The envelope
    ``e_j = sigmoid(scale·‖g_j‖·(1+slack) + slack)²`` dominates the
    sharpened score ``sigmoid(g_i · g_j)²`` of every source with
    ``‖g_i‖ <= scale``: Cauchy–Schwarz gives ``g_i · g_j <= scale · ‖g_j‖``,
    the sigmoid is monotone, and the slack is the kernel's dtype-matched
    pruning margin (:func:`_bound_slack`), which swamps the float gap
    between a computed dot product and the computed norm product — the
    same argument that makes the kernel's block skips exact.  Every entry
    is at least ``sigmoid(slack)² > 1/4``, so the total is positive.  The
    CDF is float64 whatever the scoring dtype: the envelope is a proposal
    distribution, not a contract surface, and a 1M-entry float32 cumsum
    would lose mass to cancellation.
    """

    def __init__(self, scorer: PairScorer, scale: float) -> None:
        self.g = scorer.g
        dtype = self.g.dtype
        slack = _bound_slack(dtype)
        arg = scorer.norms * dtype.type(scale)
        arg *= dtype.type(1.0 + slack)
        arg += dtype.type(slack)
        env = _stable_sigmoid(arg, overwrite_input=True)
        self.env = np.square(env, out=env)
        self.cdf = np.cumsum(self.env, dtype=np.float64)

    def propose(
        self, src_rows: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One proposal per source row: ``(partners, scores, accept)``.

        Draws each partner from the envelope CDF (one uniform per row),
        scores it with one dot product, ``w = sigmoid(src · g_partner)``,
        then accepts with probability ``w² / e_partner`` (a second uniform
        per row).  An accepted partner is an exact draw from the source's
        sharpened categorical over the destination rows.
        """
        m = src_rows.shape[0]
        partners = np.searchsorted(self.cdf, rng.random(m) * self.cdf[-1])
        np.minimum(partners, self.cdf.size - 1, out=partners)
        logits = np.einsum("ij,ij->i", src_rows, self.g[partners])
        scores = _stable_sigmoid(logits, overwrite_input=True)
        sharpened = np.square(np.asarray(scores, dtype=np.float64))
        accept = rng.random(m) * self.env[partners] < sharpened
        return partners, scores, accept


#: Scored-but-empty marker: the block was scored and the logit pre-cut
#: left no survivors (distinct from ``None`` = skipped unscored).
_NO_SURVIVORS = object()


#: Element budget for one row-block's logits.  The kernel caps its row
#: block at ``budget // n`` rows (floored at 16), so peak logit memory
#: stays O(budget) per scoring thread at any node count.
_BLOCK_LOGIT_BUDGET = 4_000_000

#: Blocks of the schedule per scoring thread below which a thread pool
#: costs more than it saves.  The crossover holds for OpenBLAS pinned to
#: one thread (``OPENBLAS_NUM_THREADS=1``): on a 2-vCPU host (float64,
#: 1-epoch Citeseer model, prior latents) two pool threads beat serial
#: scoring from ~13 blocks (n ≈ 3000) and four from ~20–25; below that,
#: pool start-up and hand-offs dominate (a 67-node, 2-block generate:
#: ~4.2 ms at 4 threads against ~1.6 ms serial).  With OpenBLAS's default
#: of one BLAS thread per core the scoring threads compete with BLAS's
#: own, and on the same host the pool was no faster than serial at any
#: size measured (7 to 48 blocks, either dtype); there the cutoff only
#: keeps short schedules, such as every ``bench_hotpath --quick`` cell
#: (at most 2.5k nodes, under 12 blocks), off the pool.
_BLOCKS_PER_SCORING_THREAD = 6


def _logit_cut(threshold: float, slack: float = _BOUND_SLACK) -> float:
    """A logit-space lower bound for score-space ``s >= threshold``.

    Conservative: every entry with ``sigmoid(x) >= threshold`` satisfies
    ``x >= cut``, so filtering logits at ``cut`` before the sigmoid drops
    only entries the exact score-space filter would drop anyway.  The
    margin (``slack``, sized to the scoring precision) swamps the float
    error of the ``log`` inversion; saturated thresholds (``sigmoid ==
    1.0`` exactly, i.e. logits above ~36.7) fall back to a fixed cut below
    the saturation boundary — in float32 the sigmoid saturates earlier
    (~16.6), so the fallback stays conservative there too.
    """
    if threshold <= 0.0:
        return -np.inf
    if threshold >= 1.0:
        return 16.0
    cut = float(np.log(threshold / (1.0 - threshold)))
    return cut - (slack * abs(cut) + slack)


def _score_block_logits(
    logits: np.ndarray,
    start: int,
    stop: int,
    snapshot: float | None,
    k: int,
    col0: int = 0,
):
    """Turn one row-block's raw logits into surviving (u, v, score) triples.

    ``logits`` is the block matmul ``g[start:stop] @ g[col0:...].T``.
    ``col0`` is the global column index of the matmul's first column: the
    float64 path always scores the full column range (``col0 == 0``, the
    historical bit-stable GEMM), while the norm-ordered float32 path
    starts at ``start + 1`` and may stop early at the Cauchy–Schwarz
    column cutoff.  Pure function of its arguments: the same call
    produces the same bits no matter which thread runs it, which is what
    keeps the kernel bit-identical across thread counts.  Precision rides
    on ``logits.dtype``:
    a float32 block flows through the pre-cut and the sigmoid in float32
    (with the wider float32 pruning slack), a float64 block reproduces
    the historical double-precision arithmetic bit for bit.

    Without a threshold (``snapshot is None``) the block keeps only its
    own top ``k`` before any pair index is built.  That cut is exact: an
    entry outside it has ``k`` entries of the same block above it under
    the fold's total order (score, then larger triangle rank), so no fold
    could keep it, and the block's k best scores — all the threshold
    ladder reads — are the same with or without it.
    """
    width = logits.shape[1]
    if snapshot is None:
        # Row r contributes global columns r+1..n-1, local columns
        # first[r]..width-1; concatenating the row slices is one
        # contiguous copy pass, no wide boolean mask and no fancy-index
        # gather.
        first = np.clip(np.arange(start + 1, stop + 1) - col0, 0, width)
        s = _stable_sigmoid(
            np.concatenate(
                [logits[i, c:] for i, c in enumerate(first.tolist())]
            ),
            overwrite_input=True,
        )
        # Flat positions run in row-major pair order, the order of the
        # triangle rank, so a position is its own tie-break key.
        idx = _fold_topk(s, lambda tied: tied, k)
        if idx.size < s.size:
            idx.sort()
            s = s[idx]
        # Pair indices of the kept positions only, through the per-row
        # offsets: row r's slice ends at flat position ends[r].
        ends = np.cumsum(width - first)
        r = np.searchsorted(ends, idx, side="right")
        v = idx - ends[r]
        v += col0 + width
        r += start
        return r, v, s
    # Logit-space pre-cut, applied to the raw matmul block before any
    # triangle extraction: conservative, so the fold's exact score-space
    # filter sees every possible contender, while the copy into pair
    # order, the sigmoid and the pair-index construction only run on the
    # (typically tiny) surviving subset.  Survivors come out in ascending
    # flat order = row-major pair order, the same enumeration the
    # unfiltered branch produces.
    flat = logits.ravel()
    idx = np.flatnonzero(flat >= _logit_cut(snapshot, _bound_slack(flat.dtype)))
    if idx.size:
        u, v = np.divmod(idx, width)
        if col0:
            v += col0
        keep = v > u + start  # upper triangle only
        idx = idx[keep]
    if idx.size == 0:
        return _NO_SURVIVORS
    u = u[keep]
    u += start
    return u, v[keep], _stable_sigmoid(flat[idx], overwrite_input=True)


class _SampleFold:
    """The kernel's state for one feature matrix: block schedule, candidate
    buffer and carried threshold.

    The schedule is the bound-descending block order plus the seed split
    of the highest-bound block.  :meth:`score` turns one scheduled block
    into its survivors (or a skip marker) against the current threshold,
    and :meth:`fold` merges survivors in schedule order;
    :func:`topk_pair_candidates` drives the two, serially or with scoring
    threads.
    """

    def __init__(
        self, g: np.ndarray, n: int, k: int, row_block: int,
        norm_order: bool = False,
    ) -> None:
        self.n = n
        self.k = k
        self.norm_order = norm_order
        # Per-row feature norms for the block score bound: every score in
        # the block rows [start, stop) is sigmoid(g_u · g_v) with
        # v > start, so sigmoid(max ‖g_u‖ · max_{j > start} ‖g_j‖) bounds
        # the block from above (sigmoid is monotone, including as a float
        # function).  The slack covers the float gap between a computed
        # dot product and the computed norm product before the bound is
        # trusted to prune.
        norms = pair_feature_norms(g)
        if norm_order:
            # Norm-descending node order turns the Cauchy–Schwarz bound
            # into a *column prefix*: in sorted space, the columns that can
            # beat a threshold against block rows of max norm ‖g_start‖
            # are exactly the first ones, so each block's matmul shrinks to
            # ``g[start:stop] @ g[start+1:cstop].T`` — triangle-only
            # columns up to the cutoff — instead of the full n-wide sweep.
            # The top-k pair *set* is unchanged (pruned entries are
            # provably below the carried threshold); pair indices map back
            # through ``perm`` in :meth:`result`.  Scores are computed by
            # narrower GEMMs than the native order issues, so this mode is
            # reserved for float32, whose contract is determinism, not
            # bit-stability across releases.
            self.perm = np.argsort(np.negative(norms), kind="stable")
            g = np.ascontiguousarray(g[self.perm])
            norms = norms[self.perm]
            # Ascending view for the column-cutoff searchsorted.
            self.neg_norms = np.negative(norms)
        self.g = g
        self.norms = norms
        suffix_max = np.maximum.accumulate(norms[::-1])[::-1]
        slack = _bound_slack(g.dtype)

        starts = np.arange(0, n - 1, row_block)
        # The blocks cover rows [0, end): row n − 1 has no pairs and is
        # left out when the last block ends just before it.
        end = min(int(starts[-1]) + row_block, n)

        def bound_scores(starts: np.ndarray) -> np.ndarray:
            """Score bounds of the blocks of a partition of ``[0, end)``
            given by ascending ``starts`` (each block runs to the next
            start), in one vectorised pass in ``g``'s dtype."""
            block_max = np.maximum.reduceat(norms[:end], starts)
            bound = block_max * suffix_max[starts + 1]
            bound += slack * np.abs(bound) + slack
            return _stable_sigmoid(bound, overwrite_input=True)

        # Highest-bound block first: it is the likeliest to contain the
        # global top scores, so the threshold saturates after one fold and
        # the remaining blocks hit the cheap pre-filter (or are skipped
        # outright).  np.argsort is stable, so bound ties keep ascending
        # block order.
        order = np.argsort(np.negative(bound_scores(starts)), kind="stable")
        blocks = [
            (start, min(start + row_block, n))
            for start in starts[order].tolist()
        ]
        # Seed split: carve a prefix of the first block just big enough to
        # overfill the buffer several times (~8k pairs), so a threshold
        # exists before any full block is scored and even the first
        # block's remainder goes through the logit pre-filter.  The
        # multiplier trades seed size against threshold quality: the seed
        # threshold is the k-th best of ~8k scores, which already cuts the
        # survivor rate to ~k/8k before the first full fold tightens it
        # further.  A split never changes the result — the final buffer is
        # the exact top-k of all pairs under any block partition of the
        # upper triangle.  The remainder must hold a row with pairs (row
        # n − 1 has none), so a split that would leave only that row is
        # not made.
        seed_start, seed_stop = blocks[0]
        pair_ends = np.cumsum(n - np.arange(seed_start, seed_stop) - 1)
        seed_rows = int(np.searchsorted(pair_ends, 8 * k)) + 1
        if seed_start + seed_rows < min(seed_stop, n - 1):
            blocks[0:1] = [
                (seed_start, seed_start + seed_rows),
                (seed_start + seed_rows, seed_stop),
            ]
        self.blocks = blocks
        starts = np.array([start for start, __ in blocks])
        ascending = np.argsort(starts)
        bounds = np.empty(len(blocks), dtype=g.dtype)
        bounds[ascending] = bound_scores(starts[ascending])
        self.bounds = bounds.tolist()
        # ``parts`` holds (u, v, score) arrays: the folded candidate buffer
        # first once there is one, then the survivors of later blocks,
        # ``queued`` of them, which fold in one pass once at least k are
        # pending (see :meth:`fold`).  ``ladder`` tracks the best k scores.
        self.parts: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self.queued = 0
        self.ladder = np.zeros(0, dtype=g.dtype)
        # ``threshold`` is written only by the fold (single-threaded, in
        # deterministic block order) and is monotone non-decreasing, so
        # any stale value a scoring task reads is a valid — merely weaker
        # — bound.
        self.threshold: float | None = None

    def column_stop(self, start: int, snapshot: float | None) -> int:
        """Exclusive end of the sorted-space columns block ``start`` scores.

        Only meaningful in ``norm_order`` mode.  A column ``j`` may be
        skipped when the inflated Cauchy–Schwarz bound
        ``‖g_start‖ ‖g_j‖ (1 + slack) + slack`` falls below the logit cut
        of the threshold snapshot — the per-column version of the
        whole-block skip, made a prefix by the sorted norms, found with
        one binary search.  A stale snapshot only widens the range, so the
        cutoff is exact under any thread timing.
        """
        if not self.norm_order or snapshot is None:
            return self.n
        slack = _bound_slack(self.g.dtype)
        cut = _logit_cut(snapshot, slack)
        row_norm = float(self.norms[start])
        if cut <= slack or row_norm <= 0.0:
            return self.n
        min_norm = (cut - slack) / (row_norm * (1.0 + slack))
        return int(np.searchsorted(self.neg_norms, -min_norm, side="right"))

    def score(self, position: int):
        """Survivors ``(u, v, score)`` of the ``position``-th scheduled block.

        Returns ``None`` when the block's bound proves it below the
        threshold (pruned unscored) and :data:`_NO_SURVIVORS` when it was
        scored, or its column prefix was empty, and nothing passed the
        logit pre-cut.  Reads the threshold once, so a scoring thread sees
        one consistent snapshot; a stale one only weakens pruning.
        """
        start, stop = self.blocks[position]
        snapshot = self.threshold
        if snapshot is not None and self.bounds[position] < snapshot:
            return None
        g = self.g
        if not self.norm_order:
            logits = g[start:stop] @ g.T
            return _score_block_logits(logits, start, stop, snapshot, self.k)
        col0 = start + 1
        cstop = self.column_stop(start, snapshot)
        if cstop <= col0:
            return _NO_SURVIVORS
        logits = g[start:stop] @ g[col0:cstop].T
        return _score_block_logits(
            logits, start, stop, snapshot, self.k, col0=col0
        )

    def fold(self, u: np.ndarray, v: np.ndarray, s: np.ndarray) -> bool:
        """Queue one scored block; False when the threshold drops all of it.

        The threshold stays exactly the k-th best score so far after every
        block (:meth:`_raise_threshold`), so every pruning decision, GEMM
        extent and score bit is the same as with a fold per block.  The
        pairs themselves are folded into the buffer only once at least
        ``k`` are pending, and once more in :meth:`result`: the buffer is
        re-partitioned once per ~k survivors instead of once per block.
        Any flush points give the same buffer, the top-k of all survivors
        under the total order (score, upper-triangle rank).
        """
        if self.threshold is not None:
            keep = s >= self.threshold
            if not keep.any():
                return False
            if not keep.all():
                u, v, s = u[keep], v[keep], s[keep]
        self._raise_threshold(s)
        self.parts.append((u, v, s))
        self.queued += s.size
        if self.queued >= self.k:
            self._flush()
        return True

    def _raise_threshold(self, s: np.ndarray) -> None:
        """Merge a block's survivor scores into ``ladder``, the sorted k
        best scores so far; the threshold is its minimum once it is full."""
        k = self.k
        if self.threshold is None:
            ladder = np.concatenate([self.ladder, s]) if self.ladder.size else s
            if ladder.size > k:
                ladder = np.partition(ladder, ladder.size - k)[-k:]
            self.ladder = ladder = np.sort(ladder)
        else:
            # Survivors are >= the threshold, so the k best are the ladder
            # plus the survivors minus the m smallest of both, and only the
            # ladder prefix up to the largest survivor can change.
            ladder = self.ladder
            new = np.sort(s)
            head_size = int(np.searchsorted(ladder, new[-1], side="right"))
            head = np.concatenate([ladder[:head_size], new])
            head.sort()
            ladder[:head_size] = head[new.size :]
        if ladder.size == k:
            self.threshold = float(ladder[0])

    def _flush(self) -> None:
        """Fold the buffer and every queued survivor (one top-k pass)."""
        parts = self.parts
        # A lone part (the seed block, typically) folds without a copy.
        u, v, s = (
            parts[0]
            if len(parts) == 1
            else (np.concatenate(column) for column in zip(*parts))
        )
        n = self.n
        keep = _fold_topk(s, lambda idx: _triu_rank(u[idx], v[idx], n), self.k)
        self.parts, self.queued = [(u[keep], v[keep], s[keep])], 0

    def result(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self.queued:
            self._flush()
        ((u, v, s),) = self.parts
        # Canonical (u, v) output order: the fold's internal ordering
        # depends on which blocks were pruned; the sort makes the returned
        # buffers a pure function of the selected pair set.
        if self.norm_order:
            # Map sorted-space pair indices back to the caller's node ids
            # and re-canonicalise (the permutation does not preserve <).
            pu, pv = self.perm[u], self.perm[v]
            u, v = np.minimum(pu, pv), np.maximum(pu, pv)
        order = _canonical_order(u, v, self.n)
        return u[order], v[order], s[order]


def topk_pair_candidates(
    g: np.ndarray,
    k: int,
    row_block: int = _SCORE_ROW_BLOCK,
    threads: int = 1,
    score_dtype: np.dtype | str = np.float64,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact global top-``k`` node pairs by decoder score, without the n×n.

    Computes ``sigmoid(g @ g.T)`` in row-blocks and folds the blocks'
    upper-triangle entries through ``np.argpartition`` into a bounded
    candidate buffer, so peak additional memory is O(row_block · n + k)
    instead of O(n²).  Returns ``(u, v, score)`` with ``u < v``, sorted by
    ``(u, v)`` — the same pairs the dense ``sigmoid(g @ g.T)[triu]`` top-k
    would produce; ties at the k-th score are resolved toward the larger
    upper-triangle index, matching the dense assembly path's historical
    ordering.  Generation passes ``k`` = the edge budget, the pairs
    selection reads (``k`` is clipped at the pair count).  Scores are
    bit-identical to the dense matrix entries when one GEMM covers all
    rows; with smaller blocks, or the ``k``-sized seed split below, BLAS
    blocking can shift a score by an ulp, which moves the selected pairs
    only among exact ties (e.g. noV latents bootstrapped past the fitted
    size).  Above n ≈ 15.6k nodes the row block is capped so one block's
    logits stay within :data:`_BLOCK_LOGIT_BUDGET` elements.

    **Threshold carry.**  Once ``k`` scores have survived, the k-th best
    of them is a running threshold, updated after every block: entries
    strictly below it can never enter the buffer (ties at the k-th score
    break toward the larger upper-triangle index, so equality must still
    fold).  Survivors are folded into the buffer through
    ``np.argpartition`` once per ~k of them, not once per block.  Each
    subsequent block is pre-filtered against the threshold — in logit
    space, *before* paying for the sigmoid or for pair-index construction
    — and a whole block is skipped unscored when the Cauchy–Schwarz bound
    ``max‖g_u‖ · max‖g_v‖`` over its rows proves every score falls below
    the threshold.  Blocks are processed in descending-bound order, the
    first one split so a ~8k-pair seed sets a threshold early; the final
    buffer is the exact top-``k`` of all pairs under any processing order,
    because every cut only drops entries the fold would have discarded.

    **Parallelism.**  With ``threads > 1`` row-blocks are scored on a
    :class:`~concurrent.futures.ThreadPoolExecutor` (the block matmuls
    release the GIL inside BLAS) while the main thread folds completed
    blocks in the same deterministic bound-descending order.  The pool
    gets at most one thread per :data:`_BLOCKS_PER_SCORING_THREAD` (6)
    blocks of the schedule, the crossover measured with one BLAS thread
    below which pool start-up costs more than it saves, so a schedule of
    fewer than 12 blocks (below ~2.8k nodes at the default row block) is
    scored serially.  Scoring a block is a pure function of its inputs
    and all pruning decisions are re-validated at fold time against the
    fold-order threshold, so the returned buffers are bit-identical
    across all thread counts.

    **Precision.**  ``score_dtype`` selects the scoring arithmetic.  The
    float64 default reproduces the historical pipeline bit for bit with
    full-width ``g[start:stop] @ g.T`` GEMMs.  ``float32`` halves the
    matmul, logit and buffer memory and roughly doubles GEMM throughput:
    ``g`` is cast once up front and every downstream step (matmul,
    pre-cut, sigmoid, threshold carry, Cauchy–Schwarz bound with the wider
    float32 slack) runs in single precision.  float32 additionally scores
    in norm-descending node order, where the Cauchy–Schwarz skip becomes a
    per-block *column prefix*: each matmul covers only the upper-triangle
    columns whose norm product against the block can still beat the
    carried threshold, pruning the sweep by orders of magnitude at
    production sizes (pair indices map back to the caller's node ids on
    output).  Both modes are *exact for their own arithmetic*, with
    deterministic tie-breaking (float64 in the historical triangle order,
    float32 in sorted-space order).

    Each call reports its block accounting to :func:`repro.trace.count`
    (``topk_blocks``, ``topk_scored``, ``topk_pruned_unscored``,
    ``topk_folds_skipped``).
    """
    score_dtype = np.dtype(score_dtype)
    if score_dtype not in (np.dtype(np.float64), np.dtype(np.float32)):
        raise ValueError(
            f"score_dtype must be float64 or float32, got {score_dtype}"
        )
    g = np.ascontiguousarray(np.asarray(g, dtype=score_dtype))
    if g.ndim != 2:
        raise ValueError(f"g must have shape (nodes, features), got {g.shape}")
    n = g.shape[0]
    k = int(min(max(k, 0), n * (n - 1) // 2))
    if k == 0 or n <= 1:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty.copy(), np.zeros(0, dtype=score_dtype)
    threads = max(int(threads), 1)
    # The cap only lowers the caller's value, so every size below it
    # scores with exactly the historical block partition.
    row_block = min(row_block, max(16, _BLOCK_LOGIT_BUDGET // n))
    sample = _SampleFold(
        g, n, k, row_block, norm_order=score_dtype == np.dtype(np.float32)
    )
    scored = pruned = skipped = 0

    def fold(result) -> None:
        nonlocal scored, pruned, skipped
        if result is None:
            pruned += 1
        elif result is _NO_SURVIVORS:
            skipped += 1
        else:
            scored += 1
            skipped += not sample.fold(*result)

    num_blocks = len(sample.blocks)
    threads = min(threads, num_blocks // _BLOCKS_PER_SCORING_THREAD)
    if threads <= 1:
        for position in range(num_blocks):
            fold(sample.score(position))
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            # Rolling submission window: keep ``threads + 1`` blocks in
            # flight and submit the next only after folding the oldest, so
            # every block beyond the window observes a threshold at least
            # as tight as the fold cursor's — the norm-bound skip and the
            # logit pre-cut engage deterministically instead of depending
            # on scheduler timing (an all-upfront submission lets tiny
            # blocks race ahead of the first fold and score everything).
            # Folding strictly in schedule order keeps the threshold
            # sequence — and therefore every pruning decision the fold
            # re-validates — identical to the serial schedule's.
            pending: deque = deque()
            for position in range(num_blocks):
                pending.append(pool.submit(sample.score, position))
                if len(pending) > threads:
                    fold(pending.popleft().result())
            while pending:
                fold(pending.popleft().result())
    count(
        topk_blocks=num_blocks,
        topk_scored=scored,
        topk_pruned_unscored=pruned,
        topk_folds_skipped=skipped,
    )
    return sample.result()


def topk_pair_candidates_batch(
    gs: np.ndarray,
    k: int,
    row_block: int = _SCORE_ROW_BLOCK,
    threads: int = 1,
    score_dtype: np.dtype | str = np.float64,
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """:func:`topk_pair_candidates` of each matrix in an ``(S, n, d)`` stack.

    One solo kernel call per sample: a stacked matmul across samples
    measured no faster at serving batch sizes.
    """
    gs = np.asarray(gs)
    if gs.ndim != 3:
        raise ValueError(
            f"gs must have shape (samples, nodes, features), got {gs.shape}"
        )
    return [
        topk_pair_candidates(g, k, row_block, threads, score_dtype) for g in gs
    ]


class GraphDecoder(nn.Module):
    """GRU-over-levels node decoder + dot-product link predictor."""

    def __init__(self, config: CPGANConfig, rng: np.random.Generator) -> None:
        self.config = config
        levels = config.effective_levels
        if config.decoder_mode == "gru":
            self.gru = nn.GRUCell(config.latent_dim, config.hidden_dim, rng)
            self.merge = None
        else:  # CPGAN-C: concatenate levels, project with a linear layer.
            self.gru = None
            self.merge = nn.Linear(config.latent_dim * levels, config.hidden_dim, rng)
        self.edge_mlp = nn.MLP(
            [config.hidden_dim, config.hidden_dim, config.latent_dim], rng
        )

    # ------------------------------------------------------------------
    def node_features(self, latents: list[nn.Tensor]) -> nn.Tensor:
        """Decode per-level latents into final node features h_k (Eq. 13)."""
        if not latents:
            raise ValueError("decoder needs at least one latent level")
        return self._fold_levels(latents)

    def _fold_levels(self, latents: list[nn.Tensor]) -> nn.Tensor:
        """The GRU fold from the zero state, or the CPGAN-C concat merge.

        Shared by training (:meth:`node_features`) and generation
        (:meth:`edge_features_numpy`), which keep separate trace names.
        """
        if self.gru is None:
            return self.merge(nn.concat(latents, axis=1), "relu")
        h = None
        for z in latents:
            h = self.gru(h, z)
        return h

    def edge_logits(self, h: nn.Tensor) -> nn.Tensor:
        """Pairwise logits g_θ(h_i)ᵀ g_θ(h_j) (Eq. 14, before the sigmoid)."""
        g = self.edge_mlp(h)
        return g @ g.T

    def forward(self, latents: list[nn.Tensor]) -> nn.Tensor:
        """Full decode: latents -> (n, n) edge probabilities A_rec."""
        return self.edge_logits(self.node_features(latents)).sigmoid()

    # ------------------------------------------------------------------
    def decode_numpy(self, latents: list[np.ndarray]) -> np.ndarray:
        """Inference-only decode of NumPy latents into probabilities."""
        with nn.no_grad():
            tensors = [nn.Tensor(z) for z in latents]
            return self.forward(tensors).data

    def edge_features_numpy(
        self, latents: list, dtype: np.dtype | str = np.float64
    ) -> np.ndarray:
        """g_θ(h_k) rows (Eq. 14's pre-dot-product features) for generation.

        Runs the trained modules under :class:`nn.no_grad`, the same
        forward as training, in ``dtype``: a float32 decode runs on float32
        copies of the parameters (cast once per call, see
        :meth:`nn.Module.cast`) with each chunk's latent rows cast as they
        are read, while float64 runs on the parameters themselves.  Rows
        are decoded :data:`_DECODE_ROW_CHUNK` at a time straight into one
        preallocated ``(n, latent_dim)`` array of ``dtype``, so the GRU and
        MLP temporaries stay cache-sized and the decode's peak memory is
        its output plus a few chunks.  When ``n`` exceeds one chunk, the
        tail chunk is zero-padded to full height, so every GEMM has the
        same row count and a row's bits depend only on its own latents and
        its chunk position, whichever BLAS kernel runs (a short GEMM, and a
        1-row GEMV above all, rounds differently).  A level may be a
        :class:`~repro.core.variational.StreamedLevel` (generation passes
        the last one that way): its rows are drawn chunk by chunk, in
        ascending order, as the decode reaches them.
        """
        if not latents:
            raise ValueError("decoder needs at least one latent level")
        dtype = np.dtype(dtype)
        decoder = self.cast(dtype)
        n = latents[-1].shape[0]
        chunk = _DECODE_ROW_CHUNK
        height = chunk if n > chunk else n
        out = np.empty((n, self.config.latent_dim), dtype=dtype)
        with nn.no_grad():
            for start in range(0, n, chunk):
                stop = min(start + chunk, n)
                h = decoder._fold_levels(
                    [
                        nn.Tensor(_level_rows(z, start, stop, height, dtype))
                        for z in latents
                    ]
                )
                out[start:stop] = decoder.edge_mlp(h).data[: stop - start]
        return out


def _level_rows(
    level, start: int, stop: int, height: int, dtype: np.dtype
) -> np.ndarray:
    """Rows ``[start, stop)`` of a latent level in ``dtype``, zero-padded to
    ``height`` rows, drawing them first if the level is streamed."""
    if isinstance(level, StreamedLevel):
        rows = level.take(start, stop)
    else:
        rows = level[start:stop]
    if stop - start == height:
        return rows.astype(dtype, copy=False)
    padded = np.zeros((height, rows.shape[1]), dtype=dtype)
    padded[: stop - start] = rows
    return padded
