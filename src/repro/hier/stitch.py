"""Cross-community edge stitching via factored rejection sampling.

One community-pair block ``A × B`` at a time: draw the budgeted number of
*distinct* cross edges from the sharpened categorical
``P(u, v) ∝ sigmoid(g_u · g_v)²`` over the block — the same target family
as the factored isolated-node repair sampler (reproducibility contract
v2) — without ever materialising the ``n_A × n_B`` score block.

Both samplers run the shared envelope primitive
(:class:`~repro.core.decoder._EnvelopeProposal`): here it is built over
``B`` at the max source norm of ``A``, and each round proposes ``v`` from
its norm-bound envelope for a ``u`` drawn uniformly over ``A``, accepting
with probability ``sigmoid(g_u · g_v)² / e_B(v)``.  Already-drawn pairs are
rejected, which is sampling without replacement by rejection; blocks
still short after ``decoder._MAX_ROUNDS`` rounds (budget approaching the
block capacity) fill deterministically with the highest-scoring unused
pairs — telemetry records how many edges took that path.
"""

from __future__ import annotations

import numpy as np

from ..core.decoder import (
    _MAX_ROUNDS,
    PairScorer,
    _EnvelopeProposal,
    pair_feature_norms,
)
from ..nn.tensor import _stable_sigmoid
from ..trace import count

__all__ = ["sample_cross_edges"]

#: Element budget of one chunked scoring matmul on the fill path.
_FILL_CHUNK_ELEMENTS = 1 << 18


def _fill_top_scores(
    ga: np.ndarray, gb: np.ndarray, chosen: np.ndarray, budget: int
) -> np.ndarray:
    """Top up ``chosen`` to ``budget`` codes with the best unused pairs."""
    n_a, n_b = ga.shape[0], gb.shape[0]
    need = budget - chosen.size
    chunk = max(1, _FILL_CHUNK_ELEMENTS // max(n_b, 1))
    best_scores = np.zeros(0, dtype=np.float64)
    best_codes = np.zeros(0, dtype=np.int64)
    cols = np.arange(n_b, dtype=np.int64)
    for start in range(0, n_a, chunk):
        stop = min(start + chunk, n_a)
        scores = _stable_sigmoid(ga[start:stop] @ gb.T, overwrite_input=True)
        codes = (
            np.arange(start, stop, dtype=np.int64)[:, None] * n_b + cols
        ).ravel()
        keep = ~np.isin(codes, chosen)
        scores = np.asarray(scores, dtype=np.float64).ravel()[keep]
        codes = codes[keep]
        scores = np.concatenate([best_scores, scores])
        codes = np.concatenate([best_codes, codes])
        if scores.size > need:
            part = np.argpartition(scores, -need)[-need:]
            best_scores, best_codes = scores[part], codes[part]
        else:
            best_scores, best_codes = scores, codes
    return np.concatenate([chosen, best_codes])


def sample_cross_edges(
    g: np.ndarray,
    members_a: np.ndarray,
    members_b: np.ndarray,
    budget: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw ``budget`` distinct cross edges between two community blocks.

    ``g`` is the global pair-feature matrix; ``members_a``/``members_b``
    the global node ids of the two communities.  Returns a canonical
    ``(budget, 2)`` array with ``u < v`` per row (unsorted — the pipeline
    lexsorts the union).  The draw is a pure function of ``(rng state,
    g, members, budget)``: worker scheduling never enters.
    """
    members_a = np.asarray(members_a, dtype=np.int64)
    members_b = np.asarray(members_b, dtype=np.int64)
    n_a, n_b = members_a.size, members_b.size
    budget = int(min(budget, n_a * n_b))
    if budget <= 0:
        return np.zeros((0, 2), dtype=np.int64)
    ga = np.ascontiguousarray(g[members_a])
    gb = np.ascontiguousarray(g[members_b])
    proposal = _EnvelopeProposal(
        PairScorer(gb), float(pair_feature_norms(ga).max())
    )

    chosen = np.zeros(0, dtype=np.int64)  # codes i·n_b + j, i∈A, j∈B
    rounds = 0
    proposals = 0
    while chosen.size < budget and rounds < _MAX_ROUNDS:
        need = budget - chosen.size
        rounds += 1
        proposals += need
        iu = rng.integers(0, n_a, size=need)
        jv, __, accept = proposal.propose(ga[iu], rng)
        codes = iu[accept] * n_b + jv[accept]
        if codes.size:
            codes = np.unique(codes)
            codes = codes[~np.isin(codes, chosen)]
            chosen = np.concatenate([chosen, codes])
    filled = budget - chosen.size
    if filled:
        chosen = _fill_top_scores(ga, gb, chosen, budget)
    count(cross_proposals=proposals, cross_rounds=rounds, cross_filled=filled)
    iu, jv = chosen // n_b, chosen % n_b
    u = members_a[iu]
    v = members_b[jv]
    return np.column_stack([np.minimum(u, v), np.maximum(u, v)])
