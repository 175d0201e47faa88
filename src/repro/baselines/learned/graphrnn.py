"""GraphRNN-S baseline (You et al., ICML 2018 — the scalable "S" variant).

The graph is serialised under a BFS node ordering; a graph-level GRU carries
the generation state and, for every new node, an output MLP emits the
Bernoulli probabilities of edges to the previous ``bandwidth`` nodes
(GraphRNN-S replaces the edge-level RNN with this one-shot MLP output —
that is exactly the variant the paper benchmarks).

Training is teacher-forced on BFS adjacency strips of the observed graph;
generation samples strips sequentially.  The BFS bandwidth bound M keeps
both at O(n·M) — but M approaches n on graphs with hubs, which is why
GraphRNN runs out of memory/time on the paper's larger datasets (the memory
estimate reflects that).
"""

from __future__ import annotations

import numpy as np

from ... import nn
from ...graphs import Graph
from ..base import GraphGenerator, rng_from_seed
from .common import run_training

__all__ = ["GraphRNNS", "bfs_order", "bfs_bandwidth"]


def bfs_order(graph: Graph, start: int = 0) -> np.ndarray:
    """BFS node ordering (isolated nodes appended at the end)."""
    n = graph.num_nodes
    seen = np.zeros(n, dtype=bool)
    order: list[int] = []
    for root in [start] + list(range(n)):
        if seen[root]:
            continue
        queue = [root]
        seen[root] = True
        while queue:
            u = queue.pop(0)
            order.append(u)
            for v in graph.neighbors(u):
                if not seen[v]:
                    seen[v] = True
                    queue.append(int(v))
    return np.asarray(order, dtype=np.int64)


def bfs_bandwidth(graph: Graph, order: np.ndarray) -> int:
    """Max distance (in the ordering) between edge endpoints."""
    pos = np.empty(graph.num_nodes, dtype=np.int64)
    pos[order] = np.arange(graph.num_nodes)
    width = 1
    for u, v in graph.edges():
        width = max(width, abs(int(pos[u]) - int(pos[v])))
    return width


class GraphRNNS(GraphGenerator):
    """Auto-regressive BFS-strip generator (GraphRNN simplified variant)."""

    name = "GraphRNN-S"
    uses_autograd_training = True

    def __init__(
        self,
        hidden_dim: int = 48,
        epochs: int = 60,
        learning_rate: float = 5e-3,
        max_bandwidth: int = 256,
        seed: int = 0,
    ) -> None:
        super().__init__()
        self.hidden_dim = hidden_dim
        self.epochs = epochs
        self.learning_rate = learning_rate
        self.max_bandwidth = max_bandwidth
        self.seed = seed
        self.bandwidth = 0
        self.losses: list[float] = []

    # ------------------------------------------------------------------
    def _strips(self, graph: Graph) -> np.ndarray:
        """(n, M) 0/1 strips: row i = edges of node i to the M predecessors."""
        order = bfs_order(graph)
        m = self.bandwidth
        pos = np.empty(graph.num_nodes, dtype=np.int64)
        pos[order] = np.arange(graph.num_nodes)
        strips = np.zeros((graph.num_nodes, m))
        for u, v in graph.edges():
            hi, lo = max(pos[u], pos[v]), min(pos[u], pos[v])
            offset = hi - lo - 1
            if offset < m:
                strips[hi, offset] = 1.0
        return strips

    def fit(
        self, graph: Graph, *, callbacks=(), resume_from=None
    ) -> "GraphRNNS":
        rng = np.random.default_rng(self.seed)
        order = bfs_order(graph)
        self.bandwidth = min(bfs_bandwidth(graph, order), self.max_bandwidth)
        m = self.bandwidth
        self.gru = nn.GRUCell(m, self.hidden_dim, rng)
        self.out = nn.MLP([self.hidden_dim, self.hidden_dim, m], rng)
        strips = self._strips(graph)
        self._num_nodes = graph.num_nodes
        self._num_edges = graph.num_edges
        params = list(self.gru.parameters()) + list(self.out.parameters())
        opt = nn.Adam(params, lr=self.learning_rate)
        n = graph.num_nodes

        def epoch_fn(state):
            # Teacher forcing: the GRU consumes the true strip sequence as a
            # single batched scan (inputs shifted by one step).
            inputs = np.vstack([np.zeros((1, m)), strips[:-1]])
            h = nn.Tensor(np.zeros((1, self.hidden_dim)))
            losses = []
            # Process in chunks to bound graph depth; each chunk is one
            # optimizer step reported through the trainer's step hook.
            chunk = 64
            for start in range(0, n, chunk):
                h = h.detach()
                block_losses = []
                for i in range(start, min(start + chunk, n)):
                    h = self.gru(h, nn.Tensor(inputs[i : i + 1]))
                    logits = self.out(h)
                    block_losses.append(
                        nn.bce_with_logits(
                            logits, strips[i : i + 1]
                        )
                    )
                total = block_losses[0]
                for piece in block_losses[1:]:
                    total = total + piece
                total = total * (1.0 / len(block_losses))
                opt.zero_grad()
                total.backward()
                opt.step()
                losses.append(float(total.data))
                state.step({"loss": losses[-1]})
            return {"loss": float(np.mean(losses))}

        state = run_training(
            self, graph, epoch_fn, {"opt": opt}, rng, callbacks, resume_from
        )
        self.losses = state.trace("loss")
        self._mark_fitted(graph)
        return self

    def generate(self, seed: int = 0) -> Graph:
        self._require_fitted()
        rng = rng_from_seed(seed)
        n, m = self._num_nodes, self.bandwidth
        edges: list[tuple[int, int]] = []
        with nn.no_grad():
            h = nn.Tensor(np.zeros((1, self.hidden_dim)))
            prev = np.zeros((1, m))
            for i in range(n):
                h = self.gru(h, nn.Tensor(prev))
                probs = self.out(h).sigmoid().data.ravel()
                draw = (rng.random(m) < probs).astype(float)
                strip = np.zeros(m)
                for offset in np.flatnonzero(draw):
                    j = i - 1 - int(offset)
                    if j >= 0:
                        edges.append((j, i))
                        strip[offset] = 1.0
                prev = strip.reshape(1, m)
        return Graph.from_edges(n, edges)

    def estimated_peak_memory(self, num_nodes: int) -> int:
        # Hidden state scan + strips; bandwidth grows with hubs (≈ √n·c on
        # scale-free graphs, up to n in the worst case). Use the fitted
        # bandwidth when available, else the pessimistic n/4 the paper's
        # OOM pattern implies.
        width = self.bandwidth or max(num_nodes // 4, 1)
        return 8 * num_nodes * (width + 4 * self.hidden_dim) * 4
