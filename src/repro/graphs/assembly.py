"""Assemble a discrete graph from edge scores (paper §III-G).

The generator outputs edge scores; binarising them naively (global
threshold, or independent Bernoulli draws) either drops low-degree nodes or
produces high-variance graphs.  The paper's strategy is:

1. for every node ``i`` draw one incident edge from the categorical
   distribution given by row ``i`` of ``A_out`` (no isolated nodes), then
2. add the remaining highest-scoring entries until a prescribed edge count
   is reached.

Two entry points share one vectorised selection core:

* :func:`assemble_graph` — the dense reference: takes the full (n, n) score
  matrix, extracts its top candidates with ``np.argpartition`` and runs the
  shared core.  O(n²) memory by construction (it already holds the matrix).
* :func:`assemble_graph_sparse` — takes pre-pruned ``(u, v, score)``
  candidate triples (e.g. from the decoder's chunked top-k kernel) plus a
  ``score_rows`` callback for the categorical repair pass, so no n×n array
  is ever materialised.  Peak memory is O(K) for K candidates.

Both run the same ranking (descending score, ties broken toward the larger
upper-triangle index, matching the historical ``np.argsort(vals)[::-1]``
order) and the same batched categorical repair, so for identical inputs and
RNG state they produce identical graphs.

``topk`` (no per-node categorical guarantee) and ``bernoulli`` are kept
for the assembly-strategy ablation bench; ``bernoulli`` needs the full
random matrix and therefore has no sparse form.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from ..trace import count
from .graph import Graph

__all__ = ["assemble_graph", "assemble_graph_sparse", "select_edges_sparse"]

_SPARSE_STRATEGIES = ("categorical_topk", "topk")

#: Reproducibility-contract versions of the isolated-node repair pass.
#: ``dense`` (contract v1) materialises each isolated node's score row and
#: draws by inverse CDF — the bit-stable historical stream.  ``factored``
#: (contract v2) rejection-samples partners from a norm-bound envelope
#: without ever building a row: deterministic for a fixed seed (thread
#: count never touches the repair RNG), but its RNG consumption pattern is
#: necessarily different, so the two samplers produce different — equally
#: valid — draws from the same distribution.
REPAIR_SAMPLERS = ("dense", "factored")

#: Scratch budget (elements) for one block of repair score rows; bounds the
#: repair pass at O(_REPAIR_SCORE_BLOCK) extra memory even when most nodes
#: are isolated.  Partner draws are independent per row and the draw batch
#: is indexed by absolute position, so the block size never affects which
#: partners are chosen — it only trades peak scratch against the number of
#: ``score_rows`` round-trips (each one a BLAS matmul worth amortising).
_REPAIR_SCORE_BLOCK = 2_000_000


def _symmetric_scores(scores: np.ndarray) -> np.ndarray:
    s = np.array(scores, dtype=float)
    s = (s + s.T) / 2.0
    np.fill_diagonal(s, 0.0)
    return np.clip(s, 0.0, None)


def _triu_rank(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """Row-major flat position of pair (u, v), u < v, in the upper triangle.

    This is the index each pair had in ``s[np.triu_indices(n, k=1)]``; it is
    the historical tie-breaking key of the dense assembly path.
    """
    u = u.astype(np.int64)
    v = v.astype(np.int64)
    return u * (2 * n - u - 1) // 2 + (v - u - 1)


def _fold_topk(
    vals: np.ndarray,
    rank: np.ndarray | Callable[[np.ndarray], np.ndarray],
    k: int,
) -> np.ndarray:
    """Indices of the ``k`` largest ``vals``, ties resolved by larger rank.

    Unlike a bare ``np.argpartition`` this is deterministic under ties at
    the k-th value, which keeps candidate pruning equivalent to the dense
    full-sort regardless of how score plateaus straddle the cut.  ``rank``
    may be a callable mapping candidate indices to their tie-break keys —
    the keys are only needed for the (usually tiny) tied subset, so lazy
    evaluation skips a full-array pass per fold.
    """
    if k <= 0:
        # np.argpartition(vals, -0) partitions at index 0 and the [-0:]
        # slice is the whole array — an O(n) pass for an empty answer.
        return np.zeros(0, dtype=np.int64)
    if k >= vals.size:
        return np.arange(vals.size)
    part = np.argpartition(vals, -k)[-k:]
    threshold = vals[part].min()
    # One full-array pass: everything >= threshold, then split the (small)
    # result into the sure winners and the boundary ties.
    above = np.flatnonzero(vals >= threshold)
    tied_mask = vals[above] == threshold
    sure = above[~tied_mask]
    need = k - sure.size
    if need <= 0:  # more-than-k values above the threshold cannot happen
        return sure[:k]
    tied = above[tied_mask]
    if tied.size > need:
        keys = rank(tied) if callable(rank) else rank[tied]
        keep = np.argpartition(keys, -need)[-need:]
        tied = tied[keep]
    return np.concatenate([sure, tied])


def _dedup_candidates(
    u: np.ndarray, v: np.ndarray, s: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Drop duplicate pairs, keeping each pair's highest score."""
    if u.size == 0:
        return u, v, s
    keys = u.astype(np.int64) * n + v
    order = np.lexsort((s, keys))
    keys_sorted = keys[order]
    last = np.r_[keys_sorted[1:] != keys_sorted[:-1], True]
    keep = order[last]
    return u[keep], v[keep], s[keep]


def _rank_descending(
    u: np.ndarray, v: np.ndarray, s: np.ndarray, n: int
) -> np.ndarray:
    """Candidate order equivalent to ``np.argsort(all_vals)[::-1]``:
    descending score, ties broken toward the larger upper-triangle index."""
    return np.lexsort((-_triu_rank(u, v, n), -s))


def _select_top_edges(
    u: np.ndarray,
    v: np.ndarray,
    s: np.ndarray,
    n: int,
    num_edges: int,
) -> np.ndarray:
    """Indices of the edges the top-k step keeps (historical semantics).

    Entries are taken in descending-score order until ``num_edges`` is
    reached; selection stops early at the first non-positive score, except
    that the single best entry is kept even when nothing is positive.
    """
    # Cut to the exact top set first (argpartition + tie resolution), then
    # sort only the survivors — the candidate buffer is typically several
    # times larger than the edge budget.
    top = _fold_topk(s, lambda idx: _triu_rank(u[idx], v[idx], n), num_edges)
    order = top[_rank_descending(u[top], v[top], s[top], n)]
    if order.size == 0:
        return order
    nonpos = np.flatnonzero(s[order] <= 0.0)
    if nonpos.size:
        order = order[: max(int(nonpos[0]), 1)]
    return order


def _choose_evictions(
    u: np.ndarray,
    v: np.ndarray,
    order: np.ndarray,
    degree: np.ndarray,
    overflow: int,
    n: int,
) -> np.ndarray:
    """First ``overflow`` edges of ``order`` safe to remove (greedy).

    An edge is safe when removing it leaves both endpoints with degree at
    least one.  The fast path takes the first ``overflow`` edges whose
    endpoints are currently safe and validates the whole batch at once
    (no endpoint may lose all its remaining slack); when the batch
    validates it equals what the one-at-a-time greedy scan would pick, so
    the sequential loop only runs when evicted edges share scarce
    endpoints.  Falls back to unsafe evictions when the edge budget
    cannot cover every node — the budget wins over the no-isolated
    guarantee.
    """
    safe = np.flatnonzero((degree[u[order]] > 1) & (degree[v[order]] > 1))
    batch = order[safe[:overflow]]
    loss = np.bincount(np.concatenate([u[batch], v[batch]]), minlength=n)
    if batch.size == overflow and (degree[loss > 0] > loss[loss > 0]).all():
        return batch
    degree = degree.copy()
    evict: list[int] = []
    for idx in order:
        if len(evict) == overflow:
            break
        a, b = u[idx], v[idx]
        if degree[a] > 1 and degree[b] > 1:
            evict.append(int(idx))
            degree[a] -= 1
            degree[b] -= 1
    if len(evict) < overflow:
        taken = np.zeros(u.size, dtype=bool)
        taken[evict] = True
        rest = order[~taken[order]][: overflow - len(evict)]
        evict.extend(int(i) for i in rest)
    return np.asarray(evict, dtype=np.int64)


def _draw_partners(
    isolated: np.ndarray,
    n: int,
    rng: np.random.Generator,
    score_rows: Callable[[np.ndarray], np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Categorical partner draw for every isolated node: (src, partner, score).

    Each node draws one partner from the distribution ∝ ``row²`` (its
    sharpened score row).  One ``rng.random`` batch up front — stream order
    is part of the reproducibility contract — then the rows stream through
    in bounded blocks.  The block body allocates once and reuses scratch
    across blocks: the sharpened rows and their CDF share one buffer
    (``np.cumsum`` with ``out=`` aliasing its input is the sequential
    in-place accumulate, same bits as a fresh-array cumsum), and the
    inverse-CDF lookup is a per-row ``searchsorted`` — identical to
    counting entries below the target, since the CDF is non-decreasing —
    instead of materialising a block × n boolean matrix.  Rows keep the
    precision ``score_rows`` produced (float32 repair runs fully in
    float32; float64 reproduces the historical pipeline bit for bit).
    Nodes whose row sums to zero draw nothing and are dropped.
    """
    draws = rng.random(isolated.size)
    block = max(_REPAIR_SCORE_BLOCK // max(n, 1), 1)
    src_parts: list[np.ndarray] = []
    partner_parts: list[np.ndarray] = []
    score_parts: list[np.ndarray] = []
    scratch: np.ndarray | None = None
    for start in range(0, isolated.size, block):
        nodes = isolated[start : start + block]
        rows = np.asarray(score_rows(nodes))
        if rows.dtype not in (np.float64, np.float32):
            rows = rows.astype(float)
        m = nodes.size
        rows[np.arange(m), nodes] = 0.0
        if scratch is None or scratch.dtype != rows.dtype:
            scratch = np.empty((min(block, isolated.size), n), rows.dtype)
        sharpened = scratch[:m]
        np.square(rows, out=sharpened)  # sharpen: favour confident entries
        totals = sharpened.sum(axis=1)  # before the in-place cumsum below
        valid = np.flatnonzero(totals > 0)
        if valid.size == 0:
            continue
        cdf = np.cumsum(sharpened, axis=1, out=sharpened)
        if valid.size == totals.size:  # common: skip the fancy-index copies
            targets = draws[start : start + block] * totals
            src = nodes
            score_lookup = rows
        else:
            cdf = cdf[valid]
            targets = draws[start : start + block][valid] * totals[valid]
            src = nodes[valid]
            score_lookup = rows[valid]
        # Batched inverse-CDF lookup: ``searchsorted(row, t, side="left")``
        # on a non-decreasing row is by definition the count of entries
        # strictly below ``t``, so one block-wide comparison reproduces the
        # per-row lookup bit for bit (identical float comparisons — no
        # offset arithmetic that could merge adjacent CDF values).  The
        # boolean temporary is m×n ≤ _REPAIR_SCORE_BLOCK bytes, an eighth
        # of the float64 scratch already held.
        partners = np.count_nonzero(cdf < targets[:, None], axis=1)
        partners = partners.astype(np.int64, copy=False)
        np.minimum(partners, n - 1, out=partners)
        src_parts.append(src)
        partner_parts.append(partners)
        score_parts.append(score_lookup[np.arange(partners.size), partners])
    if not src_parts:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, np.zeros(0)
    if len(src_parts) == 1:
        return src_parts[0], partner_parts[0], score_parts[0]
    return (
        np.concatenate(src_parts),
        np.concatenate(partner_parts),
        np.concatenate(score_parts),
    )


def _draw_partners_factored(
    isolated: np.ndarray,
    n: int,
    rng: np.random.Generator,
    scorer,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rejection-sampled partner draw from the factored score row.

    Distribution-exact twin of :func:`_draw_partners` that never builds a
    row: each isolated source ``i`` draws from the same sharpened
    categorical ``P(j) ∝ sigmoid(g_i · g_j)²`` (``j ≠ i``) through the
    envelope primitive shared with cross-community stitching
    (:class:`~repro.core.decoder._EnvelopeProposal`, built at the max
    source norm), at O(isolated · E[rounds]) instead of O(isolated · n).
    Only what is particular to repair lives here: the sources are the
    still-unmatched isolated nodes; self-proposals are rejected (exactly
    the dense sampler's zeroed diagonal); and sources unmatched after
    ``decoder._MAX_ROUNDS`` rounds fall back to the exact dense draw (a
    fresh inverse-CDF sample is the correct conditional after any number
    of rejections), where all-zero rows draw nothing and are dropped.  The
    stream is a pure function of ``(rng state, scores)`` — thread count
    never enters (reproducibility contract v2).
    """
    from ..core import decoder

    proposal = decoder._EnvelopeProposal(
        scorer, float(scorer.norms[isolated].max())
    )
    active = np.asarray(isolated, dtype=np.int64)
    src_parts: list[np.ndarray] = []
    partner_parts: list[np.ndarray] = []
    score_parts: list[np.ndarray] = []
    proposals = 0
    rounds = 0
    while active.size and rounds < decoder._MAX_ROUNDS:
        rounds += 1
        proposals += active.size
        props, w, accept = proposal.propose(scorer.g[active], rng)
        accept &= props != active
        if accept.any():
            src_parts.append(active[accept])
            partner_parts.append(props[accept])
            score_parts.append(w[accept])
            active = active[~accept]
    count(
        repair_proposals=proposals,
        repair_accepted=sum(part.size for part in src_parts),
        repair_fallback=int(active.size),
        repair_rounds=rounds,
    )
    if active.size:
        src, partners, scores = _draw_partners(active, n, rng, scorer.rows)
        if src.size:
            src_parts.append(src)
            partner_parts.append(partners)
            score_parts.append(scores)
    if not src_parts:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, np.zeros(0)
    return (
        np.concatenate(src_parts),
        np.concatenate(partner_parts),
        np.concatenate(score_parts),
    )


def _repair_isolated(
    u: np.ndarray,
    v: np.ndarray,
    s: np.ndarray,
    n: int,
    num_edges: int,
    rng: np.random.Generator,
    score_rows: Callable[[np.ndarray], np.ndarray],
    repair_sampler: str = "dense",
) -> tuple[np.ndarray, np.ndarray]:
    """Paper §III-G step 1 as a batched repair pass.

    Nodes the top-k step left isolated each draw one incident edge from the
    categorical distribution over their (sharpened) score row — one
    ``rng.random`` batch and an inverse-CDF lookup instead of a Python loop
    of ``rng.choice``.  ``score_rows`` must return non-negative rows; the
    diagonal entries are zeroed here.  The selected edges ``u, v, s`` must
    arrive in descending selection order (``_select_top_edges`` output), so
    eviction can walk them back-to-front without re-sorting.  Repair edges
    are swapped in for the lowest-scoring selected ones so the total stays
    at the edge budget.  (Running the
    categorical draw for *every* node first, as a literal reading of the
    paper suggests, floods the graph with near-uniform noise edges whenever
    scores are imperfectly calibrated — repair-only preserves the intent,
    "no node is left out", without that failure mode.)

    ``repair_sampler`` selects the partner-draw implementation: ``dense``
    (contract v1, bit-stable inverse-CDF over materialised rows) or
    ``factored`` (contract v2, envelope rejection sampling — needs a
    :class:`~repro.core.decoder.PairScorer`-shaped ``score_rows`` exposing
    ``g`` / ``norms`` / ``rows``).  Everything after the draw —
    canonicalisation, dedup, eviction, trim — is shared.
    """
    degree = np.bincount(np.concatenate([u, v]), minlength=n)
    isolated = np.flatnonzero(degree == 0)
    if isolated.size == 0:
        count(repair_isolated=0)
        return u, v
    if repair_sampler == "factored":
        scorer = score_rows
        missing = [
            attr for attr in ("g", "norms", "rows") if not hasattr(scorer, attr)
        ]
        if missing:
            raise ValueError(
                "repair_sampler='factored' needs a factored scorer (e.g. "
                "repro.core.decoder.PairScorer) providing "
                f"{', '.join(missing)}; got a plain score_rows callable"
            )
        src, partners, es = _draw_partners_factored(isolated, n, rng, scorer)
    else:
        rows_fn = score_rows.rows if hasattr(score_rows, "rows") else score_rows
        src, partners, es = _draw_partners(isolated, n, rng, rows_fn)
    count(repair_isolated=int(isolated.size), repair_drawn=int(src.size))
    if src.size == 0:
        return u, v
    eu = np.minimum(src, partners)
    ev = np.maximum(src, partners)
    keep = eu != ev
    eu, ev, es = eu[keep], ev[keep], es[keep]
    # Dedup repair edges among themselves (two isolated nodes can draw the
    # same pair).  A repair edge can never duplicate a *selected* edge: its
    # source endpoint is isolated, i.e. touches no selected edge at all.
    eu, ev, es = _dedup_candidates(eu, ev, es, n)
    if eu.size == 0:
        return u, v
    overflow = u.size + eu.size - num_edges
    if overflow > 0:
        # Evict the lowest-scoring non-repair edges first (ascending score,
        # ties toward the smaller upper-triangle index: the reverse of the
        # selection order) — but never an edge whose removal would isolate
        # one of its endpoints, or the repair pass would undo itself.  The
        # greedy scan keeps a live degree count so consecutive evictions
        # cannot strand a shared degree-2 endpoint; it typically stops
        # after ``overflow`` iterations because most edges are safe.  The
        # input is already in descending selection order, so the eviction
        # order is just the reversed index range.
        order = np.arange(u.size - 1, -1, -1)
        degree = np.bincount(
            np.concatenate([u, v, eu, ev]), minlength=n
        )
        evict = _choose_evictions(u, v, order, degree, overflow, n)
        keep_mask = np.ones(u.size, dtype=bool)
        keep_mask[evict] = False
        u, v, s = u[keep_mask], v[keep_mask], s[keep_mask]
    au = np.concatenate([u, eu])
    av = np.concatenate([v, ev])
    if au.size > num_edges:
        # Repair edges alone exceed the budget: trim globally by score.
        scores = np.concatenate([s, es])
        order = _rank_descending(au, av, scores, n)[:num_edges]
        au, av = au[order], av[order]
    return au, av


def select_edges_sparse(
    num_nodes: int,
    candidates: tuple[np.ndarray, np.ndarray, np.ndarray],
    num_edges: int,
    rng: np.random.Generator | None = None,
    strategy: str = "categorical_topk",
    score_rows: Callable[[np.ndarray], np.ndarray] | None = None,
    assume_unique: bool = False,
    repair_sampler: str = "dense",
) -> np.ndarray:
    """Select the final edge set from candidate triples; returns (m, 2).

    The array is sorted by (u, v) — the edge order of
    :meth:`Graph.edge_array` — so callers can stream it to disk without
    building a :class:`Graph`.  ``assume_unique`` skips the duplicate-pair
    scan for producers (like the chunked top-k kernel) that already
    guarantee distinct pairs.  ``repair_sampler`` picks the isolated-node
    partner draw (see :func:`_repair_isolated`).  The repair pass reports
    to :func:`repro.trace.count`: ``repair_s`` wall-clock, the
    ``repair_sampler`` label, ``repair_isolated``/``repair_drawn`` node
    counts and the factored sampler's ``repair_proposals``,
    ``repair_accepted``, ``repair_fallback`` and ``repair_rounds``.
    See :func:`assemble_graph_sparse` for the other parameter semantics.
    """
    rng = rng or np.random.default_rng(0)
    n = int(num_nodes)
    if strategy not in _SPARSE_STRATEGIES:
        raise ValueError(
            f"unknown sparse assembly strategy: {strategy!r} "
            f"(choose from {_SPARSE_STRATEGIES})"
        )
    if repair_sampler not in REPAIR_SAMPLERS:
        raise ValueError(
            f"unknown repair sampler: {repair_sampler!r} "
            f"(choose from {REPAIR_SAMPLERS})"
        )
    u, v, s = (np.asarray(a) for a in candidates)
    if u.size and (u >= v).any():
        raise ValueError("candidate pairs must satisfy u < v")
    max_edges = n * (n - 1) // 2
    num_edges = int(min(num_edges, max_edges))
    u = u.astype(np.int64, copy=False)
    v = v.astype(np.int64, copy=False)
    s = np.clip(s.astype(float, copy=False), 0.0, None)
    if u.size and not assume_unique:
        u, v, s = _dedup_candidates(u, v, s, n)
    chosen = _select_top_edges(u, v, s, n, num_edges)
    su, sv, ss = u[chosen], v[chosen], s[chosen]
    if strategy == "categorical_topk":
        if score_rows is None:
            raise ValueError(
                "categorical_topk needs a score_rows callback for the "
                "isolated-node repair pass"
            )
        began = time.perf_counter()
        su, sv = _repair_isolated(
            su, sv, ss, n, num_edges, rng, score_rows, repair_sampler
        )
        count(
            repair_s=time.perf_counter() - began,
            repair_sampler=repair_sampler,
        )
    edges = np.column_stack([su, sv])
    order = np.lexsort((sv, su))
    return edges[order]


def assemble_graph_sparse(
    num_nodes: int,
    candidates: tuple[np.ndarray, np.ndarray, np.ndarray],
    num_edges: int,
    rng: np.random.Generator | None = None,
    strategy: str = "categorical_topk",
    score_rows: Callable[[np.ndarray], np.ndarray] | None = None,
    assume_unique: bool = False,
    repair_sampler: str = "dense",
) -> Graph:
    """Build a :class:`Graph` from pruned ``(u, v, score)`` candidates.

    Parameters
    ----------
    num_nodes:
        Node count of the output graph.
    candidates:
        Three equal-length arrays ``(u, v, score)`` with ``u < v`` — the
        top-scoring pairs, e.g. from
        :func:`repro.core.decoder.topk_pair_candidates`.  The candidate
        buffer must hold at least ``num_edges`` true top pairs for the
        result to match the dense reference.
    num_edges:
        Target number of undirected edges.
    strategy:
        ``categorical_topk`` (paper default) or ``topk``.
        ``bernoulli`` requires the dense matrix — use
        :func:`assemble_graph`.
    score_rows:
        Callback mapping a node-index array to the corresponding rows of
        the (symmetric, non-negative, zero-diagonal) score matrix; only
        needed by ``categorical_topk``'s repair pass, and only ever called
        with the isolated nodes, so its cost is O(#isolated × n).  With
        ``repair_sampler='factored'`` it must be a
        :class:`~repro.core.decoder.PairScorer`-shaped object instead, and
        the repair cost drops to O(#isolated · E[proposal rounds]).
    """
    edges = select_edges_sparse(
        num_nodes, candidates, num_edges, rng, strategy, score_rows,
        assume_unique, repair_sampler,
    )
    # select_edges_sparse guarantees canonical output (unique, u < v,
    # sorted), so the validating constructor would be pure overhead.
    return Graph.from_canonical_edges(num_nodes, edges)


def assemble_graph(
    scores: np.ndarray,
    num_edges: int,
    rng: np.random.Generator | None = None,
    strategy: str = "categorical_topk",
) -> Graph:
    """Build a :class:`Graph` with ``num_edges`` edges from ``scores``.

    This is the dense reference entry point: it symmetrises the full
    (n, n) matrix, prunes it to the top candidates with ``np.argpartition``
    and delegates to the same selection core as
    :func:`assemble_graph_sparse`, so the two are interchangeable wherever
    the candidate set covers the top ``num_edges`` pairs.

    Parameters
    ----------
    scores:
        (n, n) non-negative edge scores; symmetrised internally.
    num_edges:
        Target number of undirected edges.
    strategy:
        ``categorical_topk`` (paper default), ``topk`` (the top pairs
        without the per-node categorical guarantee) or ``bernoulli``.
    """
    rng = rng or np.random.default_rng(0)
    s = _symmetric_scores(scores)
    n = s.shape[0]
    max_edges = n * (n - 1) // 2
    num_edges = int(min(num_edges, max_edges))
    if strategy == "bernoulli":
        p = s / max(s.max(), 1e-12)
        upper = np.triu(rng.random((n, n)) < p, k=1)
        u, v = np.nonzero(upper)
        return Graph.from_edges(n, np.column_stack([u, v]))
    if strategy not in _SPARSE_STRATEGIES:
        raise ValueError(f"unknown assembly strategy: {strategy}")

    iu, ju = np.triu_indices(n, k=1)
    vals = s[iu, ju]
    keep = _fold_topk(vals, lambda idx: idx, num_edges)
    return assemble_graph_sparse(
        n,
        (iu[keep], ju[keep], vals[keep]),
        num_edges,
        rng,
        strategy,
        score_rows=lambda nodes: s[nodes],
        assume_unique=True,
    )
