"""End-to-end hierarchical generation: plan → super-graph → tasks → union.

The pipeline reuses the flat pipeline's latent stream bit-for-bit
(:meth:`CPGAN._prepare_generation` draws it once for both, along with the
bootstrap rows and the observed graph, and :meth:`CPGAN._sample_edges`
decodes it once for both), maps every generated
node to a community through the trained assignments (Louvain on the
fitted graph when the model carries none), and then runs one independent
sparse top-k generation per community plus one factored stitching task
per sampled community pair.

Determinism contract (mirrors the flat pipeline's): every random draw
after the shared latent sampling comes from a PCG64 stream spawned from
``SeedSequence((root_seed, namespace, block_id))`` — the super-graph,
each community and each cross pair own disjoint streams, tasks never
share an RNG, and results are folded in fixed block order.  Output is
therefore bit-identical for a fixed ``(model, seed, params)`` at every
``hier_workers`` count and schedule.
"""

from __future__ import annotations

import contextvars
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..community import louvain
from ..core.decoder import PairScorer, topk_pair_candidates
from ..graphs import select_edges_sparse
from ..graphs.graph import _canonical_order
from ..trace import count
from .planner import HierPlan, plan_partition
from .stitch import sample_cross_edges
from .supergraph import sample_supergraph

__all__ = ["generate_hierarchical"]

#: SeedSequence namespaces keeping the per-block streams disjoint.
_NS_SUPER = 0
_NS_INTRA = 1
_NS_CROSS = 2


def _derive_rng(seed: int, *key: int) -> np.random.Generator:
    """The ``(root_seed, namespace, block_id)`` split of the contract."""
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence((int(seed),) + key))
    )


def _partition_labels(model, observed, cfg) -> np.ndarray:
    """Community label per observed node, compacted to ``0..K-1``.

    Prefers the trained hierarchical assignments (``cfg.hier_level``
    levels up from the finest); models fitted without pooling levels —
    or restored without ground truth — fall back to a fresh Louvain run
    on the fitted graph, seeded from the training seed so the partition
    is stable across calls.
    """
    levels = model._ground_truth or []
    if levels:
        labels = levels[min(cfg.hier_level, len(levels) - 1)]
    else:
        labels = louvain(observed, seed=cfg.seed).membership
    __, compact = np.unique(np.asarray(labels, dtype=np.int64), return_inverse=True)
    return compact.astype(np.int64)


def _run_tasks(thunks, workers: int) -> list:
    """Run thunks, results in submission order regardless of schedule.

    Each pooled thunk runs in a copy of the caller's context, so its
    :func:`repro.trace.count` calls reach the caller's counter set.
    """
    if workers <= 1 or len(thunks) <= 1:
        return [thunk() for thunk in thunks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(contextvars.copy_context().run, thunk)
            for thunk in thunks
        ]
        return [future.result() for future in futures]


def _intra_edges(
    g: np.ndarray,
    members: np.ndarray,
    budget: int,
    cfg,
    rng: np.random.Generator,
) -> np.ndarray:
    """One community's subgraph through the flat sparse machinery.

    The community's feature rows run through the exact same chunked
    top-k kernel and selection/repair core as a flat generation of that
    block — scoring stays ``threads=1`` per task because parallelism
    lives at the community level (``hier_workers``).  ``members`` is
    sorted ascending, so mapping local ids through it preserves the
    canonical ``u < v`` order.
    """
    n_c = members.size
    sub = np.ascontiguousarray(g[members])
    budget = int(min(budget, n_c * (n_c - 1) // 2))
    triples = topk_pair_candidates(
        sub,
        budget,
        threads=1,
        score_dtype=cfg.generation_dtype,
    )
    local = select_edges_sparse(
        n_c,
        triples,
        budget,
        rng,
        cfg.assembly_strategy,
        score_rows=PairScorer(sub),
        assume_unique=True,
        repair_sampler=cfg.repair_sampler,
    )
    return members[local]


def generate_hierarchical(
    model, seed: int, prepared, g: np.ndarray, cfg
) -> np.ndarray:
    """One graph's canonical ``(m, 2)`` edges, generated hierarchically.

    ``prepared`` is the seed's draw from :meth:`CPGAN._prepare_generation`
    and ``g`` its decoded feature rows (``CPGAN._sample_edges`` decodes
    them and drops the latents first); the public entry point is
    ``CPGAN.generate`` with ``generation_mode='hierarchical'``.  The edges have the same shape
    :func:`select_edges_sparse` emits, so callers treat both alike.
    """
    target_edges = prepared.target_edges
    labels = _partition_labels(model, prepared.observed, cfg)
    node_labels = labels[prepared.rows]
    plan: HierPlan = plan_partition(
        prepared.observed, labels, node_labels, target_edges
    )
    pairs, cross_counts = sample_supergraph(
        plan, _derive_rng(seed, _NS_SUPER)
    )

    thunks = []
    for c in range(plan.num_communities):
        members = plan.communities[c]
        budget = int(plan.intra_budgets[c])
        if members.size < 2 or budget <= 0:
            continue
        thunks.append(
            lambda members=members, budget=budget, c=c: _intra_edges(
                g, members, budget, cfg, _derive_rng(seed, _NS_INTRA, c)
            )
        )
    num_intra_tasks = len(thunks)
    for (a, b), budget in zip(pairs.tolist(), cross_counts.tolist()):
        thunks.append(
            lambda a=a, b=b, budget=budget: sample_cross_edges(
                g,
                plan.communities[a],
                plan.communities[b],
                budget,
                _derive_rng(seed, _NS_CROSS, a, b),
            )
        )
    parts = _run_tasks(thunks, cfg.hier_workers)

    intra_edge_count = sum(
        part.shape[0] for part in parts[:num_intra_tasks]
    )
    cross_edge_count = sum(
        part.shape[0] for part in parts[num_intra_tasks:]
    )
    if parts:
        edges = np.concatenate(parts)
    else:
        edges = np.zeros((0, 2), dtype=np.int64)
    edges = edges[_canonical_order(edges[:, 0], edges[:, 1], prepared.n)]

    count(
        hier_communities=int((plan.sizes > 0).sum()),
        hier_cross_pairs=int(pairs.shape[0]),
        hier_intra_edges=int(intra_edge_count),
        hier_cross_edges=int(cross_edge_count),
        hier_budget_clipped=int(
            target_edges - intra_edge_count - cross_edge_count
        ),
    )
    return edges
