"""Edge-list persistence for :class:`~repro.graphs.Graph`.

Plain-text edge lists (one ``u v`` pair per line, ``#`` comments, a header
recording the node count) — the same format the SNAP datasets referenced by
the paper ship in, so real downloads can be dropped in transparently.

Two additions support streaming generation at scale:

* **Meta sidecar.**  :func:`write_edge_list` drops a ``<path>.meta.json``
  next to the edge list recording ``num_nodes``/``num_edges`` (plus any
  caller-supplied fields, e.g. the generation seed and scoring dtype).
  :func:`read_edge_list` prefers the sidecar over the in-file header, so
  trailing isolated nodes survive a round-trip even through tools that
  strip ``#`` comments; legacy header-less files fall back to max-index
  inference with a warning.
* **Sharded output.**  :class:`EdgeShardWriter` streams an edge sequence
  into a *directory* of bounded shards — plain edge-list text or CSR
  ``.npz`` — plus a ``meta.json`` manifest, so a 100k–1M-node graph never
  has to exist as one giant file (or one giant in-memory array) to be
  written or read.  :func:`read_edge_list` accepts such a directory
  transparently.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path

import numpy as np

from .graph import Graph

__all__ = [
    "write_edge_list",
    "read_edge_list",
    "EdgeShardWriter",
    "read_edge_shards",
    "read_shard_meta",
    "iter_edge_shards",
]

#: Manifest schema version for shard directories and meta sidecars.
_META_VERSION = 1

_SHARD_FORMATS = ("edgelist", "csr")

#: Rows per digit-matrix batch when writing edge-list text: bounds the
#: per-chunk temporaries for a large edge array.
_LINE_CHUNK = 100_000


def _meta_sidecar_path(path: Path) -> Path:
    return path.parent / (path.name + ".meta.json")


def _write_meta(path: Path, meta: dict) -> None:
    with path.open("w") as handle:
        json.dump(meta, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _write_edge_lines(handle, edges: np.ndarray) -> None:
    """Write ``(m, 2)`` non-negative edges as ``u v`` lines to a binary handle.

    The one line writer of single files, :func:`write_edge_list` and
    edge-list shards, so their text is byte-identical.  Per chunk of at
    most ``_LINE_CHUNK`` rows the ids are laid out as a fixed-width
    ``uint8`` digit matrix (repeated ``divmod`` by 10, most significant
    digit first) with a ``' '`` / ``'\\n'`` column after each id; one boolean
    mask then drops the leading-zero cells, and the row-major
    ``matrix[mask]`` is exactly the text of ``f"{u} {v}\\n"`` per row, written
    as bytes without a ``str`` round trip.
    """
    for start in range(0, len(edges), _LINE_CHUNK):
        # An own int64 copy: the digits are divided out of it in place.
        ids = np.array(edges[start : start + _LINE_CHUNK], dtype=np.int64)
        digit = np.empty_like(ids)
        width = len(str(int(ids.max())))
        # (rows, 2 ids, width digits + 1 separator), row-major = line order.
        cells = np.empty((ids.shape[0], 2, width + 1), dtype=np.uint8)
        keep = np.ones(cells.shape, dtype=bool)
        cells[:, 0, width] = ord(" ")
        cells[:, 1, width] = ord("\n")
        for col in range(width - 1, -1, -1):
            if col < width - 1:  # the units digit is kept even for 0
                np.greater(ids, 0, out=keep[:, :, col])
            np.divmod(ids, 10, out=(ids, digit))
            np.add(digit, ord("0"), out=cells[:, :, col], casting="unsafe")
        handle.write(cells[keep])


def _read_edge_text(path: Path) -> tuple[np.ndarray, int | None]:
    """``(edges, declared)`` of one edge-list text file.

    The one parser of single files and edge-list shards, the inverse of
    :func:`_write_edge_lines`.  ``edges`` is the ``(m, 2)`` int64 array of
    the first two ids of every line; blank lines, ``#`` comment lines and
    ``#`` tails are skipped, as are columns past the second (SNAP
    weights).  ``declared`` is the count of the last ``# nodes:`` comment
    line, or None without one.  The ids are parsed by ``np.loadtxt``'s C
    reader; only the (few) ``#`` lines are looked at in Python.
    """
    data = path.read_bytes()
    declared = None
    at = data.find(b"#")
    while at >= 0:
        begin = data.rfind(b"\n", 0, at) + 1
        end = data.find(b"\n", at)
        end = len(data) if end < 0 else end
        line = data[at:end]
        if not data[begin:at].strip() and b"nodes:" in line:
            declared = int(line.split(b"nodes:")[1].strip())
        at = data.find(b"#", end)
    with warnings.catch_warnings():
        # An edge-less file is a valid (empty) edge list.
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        # From the path: loadtxt reads a file twice as fast as a buffer.
        edges = np.loadtxt(path, dtype=np.int64, usecols=(0, 1), ndmin=2)
    return edges.reshape(-1, 2), declared


def _write_edge_file(
    path: str | Path, num_nodes: int, edges: np.ndarray, meta: dict | None
) -> None:
    """The single-file layout: header, edge lines, then the meta sidecar."""
    path = Path(path)
    with path.open("wb") as handle:
        handle.write(f"# nodes: {num_nodes}\n".encode())
        _write_edge_lines(handle, edges)
    _write_meta(
        _meta_sidecar_path(path),
        {
            "format_version": _META_VERSION,
            "kind": "edge_list",
            "num_nodes": int(num_nodes),
            "num_edges": len(edges),
            **(meta or {}),
        },
    )


def write_edge_list(
    graph: Graph, path: str | Path, meta: dict | None = None
) -> None:
    """Write ``graph`` to ``path`` as an edge list with a node-count header.

    Also writes ``<path>.meta.json`` recording the exact node and edge
    counts (merged with any caller-supplied ``meta`` fields) so readers
    never have to infer the node count — the in-file header stays for
    SNAP-style compatibility.
    """
    _write_edge_file(path, graph.num_nodes, graph.edge_array(), meta)


class EdgeShardWriter:
    """Stream canonical ``(u, v)`` edges into a bounded-shard directory.

    The caller feeds batches of edges in canonical order (unique, ``u <
    v``, sorted by ``(u, v)`` — the order :func:`select_edges_sparse`
    emits); the writer cuts shards of about ``shard_edges`` edges each and
    finishes with a ``meta.json`` manifest.  Peak memory is O(shard), not
    O(graph).

    ``fmt="edgelist"`` shards are plain ``u v`` text files.
    ``fmt="csr"`` shards are ``.npz`` files holding ``row_start`` (the
    first source node of the shard), a local ``indptr`` over the rows the
    shard covers, and the flat ``indices``; CSR shards only split at a
    source-row boundary so each row's adjacency lives in exactly one
    shard (a single row larger than ``shard_edges`` makes one oversized
    shard rather than a broken one).
    """

    def __init__(
        self,
        directory: str | Path,
        num_nodes: int,
        shard_edges: int,
        fmt: str = "edgelist",
        meta: dict | None = None,
    ) -> None:
        if shard_edges < 1:
            raise ValueError("shard_edges must be >= 1")
        if fmt not in _SHARD_FORMATS:
            raise ValueError(
                f"unknown shard format: {fmt!r} (choose from {_SHARD_FORMATS})"
            )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.num_nodes = int(num_nodes)
        self.shard_edges = int(shard_edges)
        self.fmt = fmt
        self._extra_meta = dict(meta) if meta else {}
        self._pending: list[np.ndarray] = []
        self._pending_size = 0
        self._shards: list[dict] = []
        self._num_edges = 0
        self._closed = False

    # ------------------------------------------------------------------
    def write(self, edges: np.ndarray) -> None:
        """Append a ``(m, 2)`` batch of canonical edges."""
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if edges.size == 0:
            return
        self._pending.append(edges)
        self._pending_size += edges.shape[0]
        while self._pending_size >= self.shard_edges:
            if not self._flush_shard(final=False):
                break  # csr: no row boundary in the buffer yet

    def close(self) -> dict:
        """Flush the tail shard and write ``meta.json``; returns the meta."""
        if self._closed:
            raise ValueError("EdgeShardWriter is already closed")
        while self._pending_size:
            self._flush_shard(final=True)
        self._closed = True
        meta = {
            "format_version": _META_VERSION,
            "kind": "edge_shards",
            "format": self.fmt,
            "num_nodes": self.num_nodes,
            "num_edges": self._num_edges,
            "shard_edges": self.shard_edges,
            "shards": self._shards,
        }
        meta.update(self._extra_meta)
        _write_meta(self.directory / "meta.json", meta)
        return meta

    def __enter__(self) -> "EdgeShardWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None and not self._closed:
            self.close()

    # ------------------------------------------------------------------
    def _flush_shard(self, final: bool) -> bool:
        buffered = (
            self._pending[0]
            if len(self._pending) == 1
            else np.concatenate(self._pending)
        )
        if final and buffered.shape[0] <= self.shard_edges:
            cut = buffered.shape[0]
        elif self.fmt == "csr":
            # Cut at the last row boundary at or past the target size, so
            # no source row straddles two shards.
            u = buffered[:, 0]
            cut = int(
                np.searchsorted(u, u[min(self.shard_edges, u.size) - 1], "right")
            )
            if cut >= buffered.shape[0] and not final:
                return False  # the open row may still grow; wait for more
        else:
            cut = min(self.shard_edges, buffered.shape[0])
        shard, rest = buffered[:cut], buffered[cut:]
        index = len(self._shards)
        if self.fmt == "edgelist":
            name = f"shard_{index:05d}.edges"
            with (self.directory / name).open("wb") as handle:
                _write_edge_lines(handle, shard)
        else:
            name = f"shard_{index:05d}.npz"
            row_start = int(shard[0, 0])
            row_stop = int(shard[-1, 0]) + 1
            indptr = np.zeros(row_stop - row_start + 1, dtype=np.int64)
            counts = np.bincount(
                shard[:, 0] - row_start, minlength=row_stop - row_start
            )
            np.cumsum(counts, out=indptr[1:])
            np.savez(
                self.directory / name,
                row_start=np.int64(row_start),
                indptr=indptr,
                indices=shard[:, 1],
            )
        self._shards.append({"file": name, "num_edges": int(cut)})
        self._num_edges += int(cut)
        self._pending = [rest] if rest.size else []
        self._pending_size = int(rest.shape[0])
        return True


def read_shard_meta(directory: str | Path) -> dict:
    """Load and validate the ``meta.json`` manifest of a shard directory."""
    directory = Path(directory)
    meta_path = directory / "meta.json"
    if not meta_path.exists():
        raise ValueError(f"{directory} has no meta.json shard manifest")
    with meta_path.open() as handle:
        meta = json.load(handle)
    if meta.get("kind") != "edge_shards":
        raise ValueError(
            f"{meta_path} is not an edge-shard manifest "
            f"(kind={meta.get('kind')!r})"
        )
    return meta


def iter_edge_shards(directory: str | Path, meta: dict | None = None):
    """Yield one ``(m, 2)`` int64 edge array per shard, in manifest order.

    The streaming counterpart of :func:`read_edge_shards`: peak memory is
    one shard, so a million-node graph's statistics can be computed without
    ever materialising its full edge set (see
    :func:`repro.graphs.stats.streaming_shard_statistics`).  Pass ``meta``
    to skip re-reading the manifest.
    """
    directory = Path(directory)
    if meta is None:
        meta = read_shard_meta(directory)
    fmt = meta.get("format", "edgelist")
    for shard in meta["shards"]:
        shard_path = directory / shard["file"]
        if fmt == "edgelist":
            part, __ = _read_edge_text(shard_path)
        else:
            with np.load(shard_path) as data:
                indptr = data["indptr"]
                indices = data["indices"]
                row_start = int(data["row_start"])
            u = row_start + np.repeat(
                np.arange(indptr.size - 1), np.diff(indptr)
            )
            part = np.column_stack([u, indices])
        if part.size:
            yield part


def read_edge_shards(
    directory: str | Path, with_meta: bool = False
) -> Graph | tuple[Graph, dict]:
    """Read a shard directory written by :class:`EdgeShardWriter`.

    With ``with_meta=True`` returns ``(graph, meta)`` where ``meta`` is
    the full ``meta.json`` manifest — including any provenance fields the
    writer recorded (e.g. ``dtype`` and ``seed`` from
    ``generate_to_file``), matching what the single-file sidecar path of
    :func:`read_edge_list` surfaces.
    """
    directory = Path(directory)
    meta = read_shard_meta(directory)
    parts = list(iter_edge_shards(directory, meta))
    edges = (
        np.concatenate(parts) if parts else np.zeros((0, 2), dtype=np.int64)
    )
    if edges.shape[0] != meta["num_edges"]:
        raise ValueError(
            f"shard directory {directory} holds {edges.shape[0]} edges, "
            f"manifest declares {meta['num_edges']}"
        )
    # The writer only accepts canonical batches, so the trusted constructor
    # applies; Graph.from_canonical_edges validates nothing by design.
    graph = Graph.from_canonical_edges(int(meta["num_nodes"]), edges)
    return (graph, meta) if with_meta else graph


def _is_canonical(edges: np.ndarray, num_nodes: int) -> bool:
    """Whether ``(m, 2)`` ``edges`` are in range, ``u < v`` and strictly
    increasing in ``(u, v)`` (so unique): the input
    :meth:`Graph.from_canonical_edges` trusts."""
    if not edges.size:
        return False
    u, v = edges[:, 0], edges[:, 1]
    if u.min() < 0 or v.max() >= num_nodes or not (u < v).all():
        return False
    key = u * num_nodes + v
    return bool((key[1:] > key[:-1]).all())


def read_edge_list(
    path: str | Path,
    num_nodes: int | None = None,
    with_meta: bool = False,
) -> Graph | tuple[Graph, dict]:
    """Read an edge list written by :func:`write_edge_list` (or SNAP-style).

    ``path`` may also be a shard directory written by
    :class:`EdgeShardWriter` (see :func:`read_edge_shards`).  For a single
    file the node count is resolved in priority order: the explicit
    ``num_nodes`` argument, the ``<path>.meta.json`` sidecar, the
    ``# nodes:`` header, and finally ``max id + 1`` inference — the last
    with a warning, because it silently drops trailing isolated nodes.

    With ``with_meta=True`` returns ``(graph, meta)``, where ``meta`` is
    the recorded metadata regardless of layout — the sidecar for a single
    file, the manifest for a shard directory — so provenance fields such
    as ``dtype`` and ``seed`` read back identically from either.  A file
    without a sidecar yields a minimal synthesised dict (kind/counts
    only, no provenance).
    """
    path = Path(path)
    if path.is_dir():
        return read_edge_shards(path, with_meta=with_meta)
    edges, declared = _read_edge_text(path)
    sidecar_meta = None
    sidecar = _meta_sidecar_path(path)
    if sidecar.exists():
        with sidecar.open() as handle:
            sidecar_meta = json.load(handle)
    if num_nodes is None:
        if sidecar_meta is not None:
            num_nodes = int(sidecar_meta["num_nodes"])
        elif declared is not None:
            num_nodes = declared
        elif edges.size:
            num_nodes = int(edges.max()) + 1
            warnings.warn(
                f"{path} has no meta sidecar or '# nodes:' header; "
                f"inferring num_nodes = max index + 1 = {num_nodes}, which "
                "drops any trailing isolated nodes",
                stacklevel=2,
            )
        else:
            num_nodes = 0
    if _is_canonical(edges, num_nodes):
        # What the writers emit: the trusted constructor skips from_edges'
        # COO → CSR rebuild, most of the read's time.
        graph = Graph.from_canonical_edges(num_nodes, edges)
    else:
        graph = Graph.from_edges(num_nodes, edges)
    if not with_meta:
        return graph
    if sidecar_meta is None:
        sidecar_meta = {
            "kind": "edge_list",
            "num_nodes": int(graph.num_nodes),
            "num_edges": int(graph.num_edges),
        }
    return graph, sidecar_meta
