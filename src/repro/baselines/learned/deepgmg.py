"""DeepGMG-lite — deep generative model of graphs (Li et al. 2018).

The paper's related work (§II-B2) describes DeepGMG as the fully sequential
decision process — add a node, then repeatedly decide whether to add an
edge and pick its endpoint — and notes its O(m·n²·D(G)) cost makes it the
least scalable deep generator.  This implementation keeps that decision
structure at CPU size:

* nodes are added in BFS order; after each addition the partial graph is
  re-encoded (a GCN over degree/position features — the "propagation"
  rounds of the original, collapsed to one);
* an *add-edge* head decides from [new-node state, graph summary] whether
  the new node takes another edge;
* a *pick-node* head scores every existing node and a softmax chooses the
  endpoint;
* training is teacher-forced over the observed decision sequence;
  generation replays the process with sampling.

The per-step re-encoding is exactly why this model is the slowest in the
time ladder — reproducing the paper's scalability criticism.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ... import nn
from ...graphs import Graph
from ..base import GraphGenerator, rng_from_seed
from .common import run_training
from .graphrnn import bfs_order

__all__ = ["DeepGMG"]


class DeepGMG(GraphGenerator):
    """Sequential add-node / add-edge / pick-node generator."""

    name = "DeepGMG"
    uses_autograd_training = True

    def __init__(
        self,
        hidden_dim: int = 24,
        epochs: int = 10,
        learning_rate: float = 5e-3,
        max_edges_per_node: int = 12,
        seed: int = 0,
    ) -> None:
        super().__init__()
        self.hidden_dim = hidden_dim
        self.epochs = epochs
        self.learning_rate = learning_rate
        self.max_edges_per_node = max_edges_per_node
        self.seed = seed
        self.losses: list[float] = []

    # ------------------------------------------------------------------
    def _build(self, rng: np.random.Generator) -> None:
        d = self.hidden_dim
        self.feature_proj = nn.Linear(2, d, rng)
        self.encoder_conv = nn.GraphConv(d, d, rng, activation="relu")
        self.add_edge_head = nn.MLP([2 * d, d, 1], rng)
        self.pick_head = nn.MLP([2 * d, d, 1], rng)

    def _parameters(self):
        for module in (
            self.feature_proj, self.encoder_conv,
            self.add_edge_head, self.pick_head,
        ):
            yield from module.parameters()

    def _encode(self, adj: sp.spmatrix, count: int, total: int) -> nn.Tensor:
        degrees = np.asarray(adj.sum(axis=1)).ravel()[:count]
        features = np.column_stack(
            [degrees / (degrees.max() + 1.0), np.arange(count) / max(total, 1)]
        )
        adj_norm = nn.normalized_adjacency(adj[:count, :count])
        return self.encoder_conv(self.feature_proj(nn.Tensor(features)), adj_norm)

    # ------------------------------------------------------------------
    def fit(
        self, graph: Graph, *, callbacks=(), resume_from=None
    ) -> "DeepGMG":
        rng = np.random.default_rng(self.seed)
        self._build(rng)
        order = bfs_order(graph)
        n = graph.num_nodes
        perm = np.empty(n, dtype=np.int64)
        perm[order] = np.arange(n)
        dense = Graph.from_edges(
            n, [(int(perm[u]), int(perm[v])) for u, v in graph.edges()]
        ).to_dense()
        self._num_nodes = n
        self._num_edges = graph.num_edges
        opt = nn.Adam(list(self._parameters()), lr=self.learning_rate)
        partial = sp.lil_matrix((n, n))

        def epoch_fn(state):
            partial[:, :] = 0
            epoch_losses = []
            for v in range(1, n):
                h = self._encode(partial.tocsr(), v, n)
                summary = h.mean(axis=0, keepdims=True)
                new_state = nn.Tensor(
                    np.array([[1.0, v / n]])
                )
                new_h = self.feature_proj(new_state)
                context = nn.concat([new_h, summary], axis=1)
                true_targets = np.flatnonzero(dense[v, :v] > 0)
                losses = []
                # Teacher forcing: one add-edge=yes + pick per true edge,
                # then one add-edge=no decision.
                decisions = len(true_targets)
                add_logit = self.add_edge_head(context).reshape(1)
                if decisions:
                    losses.append(
                        nn.bce_with_logits(
                            add_logit, np.ones(1)
                        ) * float(decisions)
                    )
                    pair = nn.concat(
                        [h, new_h * np.ones((v, 1))], axis=1
                    )
                    pick_logits = self.pick_head(pair).reshape(v)
                    pick_probs = pick_logits.softmax(axis=-1)
                    losses.append(
                        nn.cross_entropy_rows(
                            pick_probs.reshape(1, v) * np.ones((decisions, 1)),
                            true_targets,
                        ) * float(decisions)
                    )
                losses.append(
                    nn.bce_with_logits(add_logit, np.zeros(1))
                )
                loss = losses[0]
                for piece in losses[1:]:
                    loss = loss + piece
                opt.zero_grad()
                loss.backward()
                opt.step()
                epoch_losses.append(float(loss.data))
                state.step({"loss": epoch_losses[-1]})
                for j in true_targets:
                    partial[v, j] = 1.0
                    partial[j, v] = 1.0
            return {"loss": float(np.mean(epoch_losses))}

        state = run_training(
            self, graph, epoch_fn, {"opt": opt}, rng, callbacks, resume_from
        )
        self.losses = state.trace("loss")
        self._mark_fitted(graph)
        return self

    # ------------------------------------------------------------------
    def generate(self, seed: int = 0) -> Graph:
        self._require_fitted()
        rng = rng_from_seed(seed)
        n = self._num_nodes
        partial = sp.lil_matrix((n, n))
        with nn.no_grad():
            for v in range(1, n):
                h = self._encode(partial.tocsr(), v, n)
                summary = h.mean(axis=0, keepdims=True)
                new_h = self.feature_proj(nn.Tensor(np.array([[1.0, v / n]])))
                context = nn.concat([new_h, summary], axis=1)
                p_add = float(self.add_edge_head(context).sigmoid().data.ravel()[0])
                pair = nn.concat([h, new_h * np.ones((v, 1))], axis=1)
                pick_probs = (
                    self.pick_head(pair).reshape(v).softmax(axis=-1).data
                )
                taken: set[int] = set()
                for __ in range(min(self.max_edges_per_node, v)):
                    if rng.random() >= p_add:
                        break
                    j = int(rng.choice(v, p=pick_probs))
                    if j in taken:
                        break
                    taken.add(j)
                    partial[v, j] = 1.0
                    partial[j, v] = 1.0
        return Graph(partial.tocsr())

    def estimated_peak_memory(self, num_nodes: int) -> int:
        return 8 * num_nodes * self.hidden_dim * 8
