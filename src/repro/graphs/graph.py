"""The :class:`Graph` data structure — an immutable undirected simple graph.

All generators, metrics and models in this reproduction exchange graphs
through this class.  Storage is a SciPy CSR adjacency matrix, so neighbour
queries, degree vectors and sparse linear algebra (GCN propagation, Louvain)
are all O(1)/O(deg) without conversions.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np
import scipy.sparse as sp

__all__ = ["Graph"]


def _canonical_order(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """The permutation sorting unique pairs by ``(u, v)``.

    Equal to ``np.lexsort((v, u))``: both endpoints lie in ``[0, n)``, so
    ``u·n + v`` is one int64 key per pair (exact for any n below ~3·10⁹)
    and one ``argsort`` replaces the two-key lexsort, ~9× faster on 500k
    pairs.  The pairs must be unique: then so are the keys, and every sort
    returns lexsort's permutation.
    """
    key = np.asarray(u, dtype=np.int64) * n
    key += v
    return np.argsort(key)


class Graph:
    """An undirected simple graph backed by a CSR adjacency matrix.

    Invariants enforced at construction:

    * symmetric adjacency,
    * no self-loops,
    * binary edge weights.

    Instances are treated as immutable; mutating helpers return new graphs.
    """

    __slots__ = ("_adj", "_degrees")

    def __init__(self, adjacency: sp.spmatrix | np.ndarray) -> None:
        adj = sp.csr_matrix(adjacency, dtype=np.float64)
        if adj.shape[0] != adj.shape[1]:
            raise ValueError(f"adjacency must be square, got {adj.shape}")
        adj.setdiag(0)
        adj.eliminate_zeros()
        adj.data[:] = 1.0
        diff = adj - adj.T
        if diff.nnz and np.abs(diff.data).max() > 0:
            raise ValueError("adjacency must be symmetric (undirected graph)")
        adj.sort_indices()
        self._adj = adj
        self._degrees = np.asarray(adj.sum(axis=1)).ravel().astype(np.int64)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(cls, num_nodes: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from an iterable of (u, v) pairs.

        Duplicate edges and self-loops are dropped.
        """
        if not isinstance(edges, np.ndarray):
            edges = list(edges)
        edges = np.asarray(edges, dtype=np.int64)
        if edges.size == 0:
            return cls(sp.csr_matrix((num_nodes, num_nodes)))
        if edges.min() < 0 or edges.max() >= num_nodes:
            raise ValueError("edge endpoint out of range")
        u, v = edges[:, 0], edges[:, 1]
        keep = u != v
        u, v = u[keep], v[keep]
        data = np.ones(2 * len(u))
        rows = np.concatenate([u, v])
        cols = np.concatenate([v, u])
        adj = sp.csr_matrix((data, (rows, cols)), shape=(num_nodes, num_nodes))
        return cls(adj)

    @classmethod
    def from_canonical_edges(cls, num_nodes: int, edges: np.ndarray) -> "Graph":
        """Build a graph from a canonical (m, 2) edge array — trusted input.

        The caller must guarantee the edges are unique, self-loop-free and
        satisfy ``u < v`` (e.g. :func:`repro.graphs.select_edges_sparse`
        output).  The CSR adjacency is then assembled directly, skipping
        the symmetry/diagonal validation of ``__init__`` — several times
        faster, which matters on the generation hot path.
        """
        edges = np.asarray(edges, dtype=np.int64)
        if edges.size == 0:
            return cls(sp.csr_matrix((num_nodes, num_nodes)))
        rows = np.concatenate([edges[:, 0], edges[:, 1]])
        cols = np.concatenate([edges[:, 1], edges[:, 0]])
        indices = cols[_canonical_order(rows, cols, num_nodes)]
        degrees = np.bincount(rows, minlength=num_nodes)
        indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        adj = sp.csr_matrix(
            (np.ones(indices.size), indices, indptr),
            shape=(num_nodes, num_nodes),
        )
        graph = cls.__new__(cls)
        graph._adj = adj
        graph._degrees = degrees.astype(np.int64, copy=False)
        return graph

    @classmethod
    def empty(cls, num_nodes: int) -> "Graph":
        return cls(sp.csr_matrix((num_nodes, num_nodes)))

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self._adj.shape[0]

    @property
    def num_edges(self) -> int:
        return int(self._adj.nnz // 2)

    @property
    def adjacency(self) -> sp.csr_matrix:
        """The CSR adjacency (do not mutate)."""
        return self._adj

    @property
    def degrees(self) -> np.ndarray:
        """Integer degree vector (do not mutate)."""
        return self._degrees

    def neighbors(self, node: int) -> np.ndarray:
        """Sorted neighbour ids of ``node``."""
        return self._adj.indices[self._adj.indptr[node] : self._adj.indptr[node + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        # Indices are sorted per row (sort_indices in __init__), so a
        # binary search beats the O(deg) linear scan of ``v in neighbors``.
        neighbors = self.neighbors(u)
        i = int(np.searchsorted(neighbors, v))
        return i < neighbors.size and int(neighbors[i]) == v

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate each undirected edge once as (u, v) with u < v, in
        :meth:`edge_array` order."""
        rows, cols = self.edge_array().T.tolist()
        return zip(rows, cols)

    def edge_array(self) -> np.ndarray:
        """All edges as a C-contiguous int64 (m, 2) array of u < v rows,
        row-major (sorted by u, then v).

        Read straight off the CSR arrays: each stored entry's row comes
        from ``indptr`` and only the upper triangle (``v > u``) is kept.
        """
        adj = self._adj
        rows = np.repeat(
            np.arange(self.num_nodes, dtype=np.int64), np.diff(adj.indptr)
        )
        upper = adj.indices > rows
        return np.column_stack([rows[upper], adj.indices[upper]]).astype(
            np.int64, copy=False
        )

    def to_dense(self) -> np.ndarray:
        """Dense {0,1} adjacency matrix (O(n²) memory)."""
        return self._adj.toarray()

    def mean_degree(self) -> float:
        return float(self._degrees.mean()) if self.num_nodes else 0.0

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def subgraph(self, nodes: np.ndarray) -> "Graph":
        """Induced subgraph on ``nodes`` (relabelled 0..len(nodes)-1)."""
        nodes = np.asarray(nodes, dtype=np.int64)
        sub = self._adj[nodes][:, nodes]
        return Graph(sub)

    def connected_components(self) -> np.ndarray:
        """Component label per node (scipy connected_components)."""
        _, labels = sp.csgraph.connected_components(self._adj, directed=False)
        return labels

    def largest_connected_component(self) -> "Graph":
        labels = self.connected_components()
        counts = np.bincount(labels)
        keep = np.flatnonzero(labels == counts.argmax())
        return self.subgraph(keep)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        if self.num_nodes != other.num_nodes:
            return False
        return (self._adj != other._adj).nnz == 0

    def __hash__(self) -> int:  # pragma: no cover - identity hashing
        return id(self)

    def __repr__(self) -> str:
        return f"Graph(n={self.num_nodes}, m={self.num_edges})"
