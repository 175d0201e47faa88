"""Edge-list IO: meta sidecars, sharded output, and legacy fallbacks."""

import hashlib
import io
import json

import numpy as np
import pytest

from repro.graphs import io as edge_io
from repro.graphs import (
    EdgeShardWriter,
    Graph,
    gini_index,
    graph_statistics,
    iter_edge_shards,
    powerlaw_exponent,
    read_edge_list,
    read_edge_shards,
    read_shard_meta,
    streaming_shard_statistics,
    write_edge_list,
)


def _graph_with_tail(num_nodes: int = 30, seed: int = 0) -> Graph:
    """A random graph whose last few nodes are isolated (the sidecar's
    reason to exist: header-stripping tools would silently drop them)."""
    rng = np.random.default_rng(seed)
    active = num_nodes - 4
    pairs = set()
    while len(pairs) < 2 * active:
        u, v = rng.integers(0, active, size=2)
        if u != v:
            pairs.add((min(u, v), max(u, v)))
    return Graph.from_edges(num_nodes, sorted(pairs))


class TestMetaSidecar:
    def test_roundtrip_preserves_trailing_isolated_nodes(self, tmp_path):
        graph = _graph_with_tail()
        path = tmp_path / "g.txt"
        write_edge_list(graph, path, meta={"seed": 7})
        sidecar = tmp_path / "g.txt.meta.json"
        assert sidecar.exists()
        meta = json.loads(sidecar.read_text())
        assert meta["kind"] == "edge_list"
        assert meta["num_nodes"] == graph.num_nodes
        assert meta["num_edges"] == graph.num_edges
        assert meta["seed"] == 7
        loaded = read_edge_list(path)
        assert loaded.num_nodes == graph.num_nodes
        assert np.array_equal(loaded.edge_array(), graph.edge_array())

    def test_sidecar_preferred_over_header(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# nodes: 5\n0 1\n")
        (tmp_path / "g.txt.meta.json").write_text(
            json.dumps({"num_nodes": 9, "num_edges": 1})
        )
        assert read_edge_list(path).num_nodes == 9

    def test_explicit_num_nodes_beats_everything(self, tmp_path):
        graph = _graph_with_tail()
        path = tmp_path / "g.txt"
        write_edge_list(graph, path)
        assert read_edge_list(path, num_nodes=50).num_nodes == 50

    def test_legacy_headerless_file_warns(self, tmp_path):
        path = tmp_path / "legacy.txt"
        path.write_text("0 1\n2 3\n")
        with pytest.warns(UserWarning, match="trailing isolated nodes"):
            graph = read_edge_list(path)
        assert graph.num_nodes == 4
        assert graph.num_edges == 2

    def test_header_still_honoured_without_sidecar(self, tmp_path):
        path = tmp_path / "snap.txt"
        path.write_text("# nodes: 11\n0 1\n2 3\n")
        graph = read_edge_list(path)  # no warning expected
        assert graph.num_nodes == 11


class TestProvenanceParity:
    """with_meta=True surfaces dtype/seed identically for file and shards."""

    def test_sidecar_and_manifest_agree(self, tmp_path):
        graph = _graph_with_tail(num_nodes=20, seed=4)
        provenance = {"dtype": "float32", "seed": 42}
        file_path = tmp_path / "g.txt"
        write_edge_list(graph, file_path, meta=provenance)
        shard_dir = tmp_path / "shards"
        with EdgeShardWriter(
            shard_dir, graph.num_nodes, 8, meta=provenance
        ) as writer:
            writer.write(graph.edge_array())
        g1, meta1 = read_edge_list(file_path, with_meta=True)
        g2, meta2 = read_edge_list(shard_dir, with_meta=True)
        assert np.array_equal(g1.edge_array(), g2.edge_array())
        for key in ("dtype", "seed", "num_nodes", "num_edges"):
            assert meta1[key] == meta2[key]

    def test_file_without_sidecar_synthesises_minimal_meta(self, tmp_path):
        path = tmp_path / "bare.txt"
        path.write_text("# nodes: 4\n0 1\n")
        graph, meta = read_edge_list(path, with_meta=True)
        assert meta == {"kind": "edge_list", "num_nodes": 4, "num_edges": 1}

    def test_default_call_still_returns_graph(self, tmp_path):
        graph = _graph_with_tail(num_nodes=12, seed=5)
        path = tmp_path / "g.txt"
        write_edge_list(graph, path)
        assert isinstance(read_edge_list(path), Graph)


def _reference_lines(edges) -> bytes:
    return "".join(f"{u} {v}\n" for u, v in np.asarray(edges).tolist()).encode()


def _written(edges) -> bytes:
    handle = io.BytesIO()
    edge_io._write_edge_lines(handle, edges)
    return handle.getvalue()


class TestLineWriter:
    """The digit-matrix writer emits exactly ``f"{u} {v}\\n"`` per row."""

    @staticmethod
    def _boundary_ids() -> np.ndarray:
        ids = [0]
        for k in range(1, 13):
            ids += [10**k - 1, 10**k]
        return np.array(ids + [2**40 - 1, 2**40], dtype=np.int64)

    def test_every_digit_boundary(self):
        ids = self._boundary_ids()
        edges = np.stack(np.meshgrid(ids, ids, indexing="ij"), -1).reshape(-1, 2)
        assert _written(edges) == _reference_lines(edges)

    def test_empty(self):
        assert _written(np.zeros((0, 2), dtype=np.int64)) == b""

    @pytest.mark.parametrize("dtype", [np.int32, np.uint32])
    def test_narrow_dtypes(self, dtype):
        top = np.iinfo(dtype).max
        edges = np.array([[0, 9], [10, top], [top - 1, 99]], dtype=dtype)
        assert _written(edges) == _reference_lines(edges)

    def test_more_rows_than_a_chunk(self, monkeypatch):
        monkeypatch.setattr(edge_io, "_LINE_CHUNK", 7)
        rng = np.random.default_rng(0)
        # Chunks of different digit widths: small ids first, then large.
        edges = np.concatenate(
            [rng.integers(0, 10, (10, 2)), rng.integers(0, 10**7, (30, 2))]
        )
        assert _written(edges) == _reference_lines(edges)

    def test_file_and_shards_hash_like_the_reference(self, tmp_path, monkeypatch):
        monkeypatch.setattr(edge_io, "_LINE_CHUNK", 5)
        graph = _graph_with_tail(num_nodes=1200, seed=6)
        edges = graph.edge_array()
        reference = _reference_lines(edges)
        path = tmp_path / "g.txt"
        write_edge_list(graph, path)
        header = f"# nodes: {graph.num_nodes}\n".encode()
        assert (
            hashlib.sha256(path.read_bytes()).hexdigest()
            == hashlib.sha256(header + reference).hexdigest()
        )
        out = tmp_path / "shards"
        with EdgeShardWriter(out, graph.num_nodes, 13) as writer:
            writer.write(edges)
        digest = hashlib.sha256()
        for shard in read_shard_meta(out)["shards"]:
            digest.update((out / shard["file"]).read_bytes())
        assert digest.hexdigest() == hashlib.sha256(reference).hexdigest()
        for source in (path, out):
            loaded = read_edge_list(source)
            assert loaded.num_nodes == graph.num_nodes
            assert np.array_equal(loaded.edge_array(), edges)


class TestEdgeTextParser:
    """Single files and edge-list shards share one NumPy parser."""

    @pytest.mark.parametrize("layout", ["single", "shards"])
    def test_roundtrip_both_layouts(self, tmp_path, layout):
        rng = np.random.default_rng(4)
        pairs = rng.integers(0, 2_000_000, size=(3_000, 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        graph = Graph.from_edges(2_000_123, pairs)  # trailing isolated nodes
        out = tmp_path / layout
        if layout == "single":
            write_edge_list(graph, out)
        else:
            with EdgeShardWriter(out, graph.num_nodes, 700) as writer:
                writer.write(graph.edge_array())
        loaded = read_edge_list(out)
        assert loaded.num_nodes == graph.num_nodes
        assert np.array_equal(loaded.edge_array(), graph.edge_array())

    def test_snap_text_features(self, tmp_path):
        """Blank lines, comment lines anywhere, ``#`` tails, tabs, CRLF,
        extra columns and the last ``# nodes:`` header all parse as the
        per-line reader did."""
        path = tmp_path / "snap.txt"
        path.write_bytes(
            b"# Directed graph: example\r\n"
            b"# nodes: 3\n"
            b"\n"
            b"  0\t1\r\n"
            b"# nodes: 9\n"
            b"1 2 0.5\n"
            b"   \n"
            b"2 7 # trailing note\n"
            b"3 8"
        )
        edges, declared = edge_io._read_edge_text(path)
        assert declared == 9
        assert edges.dtype == np.int64
        assert edges.tolist() == [[0, 1], [1, 2], [2, 7], [3, 8]]
        graph = read_edge_list(path)
        assert graph.num_nodes == 9 and graph.num_edges == 4

    def test_empty_and_comment_only(self, tmp_path):
        for text in (b"", b"# nodes: 4\n", b"\n\n"):
            path = tmp_path / "e.txt"
            path.write_bytes(text)
            edges, __ = edge_io._read_edge_text(path)
            assert edges.shape == (0, 2)
        assert read_edge_list(path).num_nodes == 0
        path.write_bytes(b"# nodes: 4\n")
        assert read_edge_list(path).num_nodes == 4

    @pytest.mark.parametrize(
        "case", ["canonical", "duplicate", "reversed", "self-loop", "unsorted"]
    )
    def test_canonical_fast_path_builds_the_same_csr(
        self, tmp_path, monkeypatch, case
    ):
        """A canonical file goes through ``Graph.from_canonical_edges``,
        any other through ``from_edges``; the CSR is the same either way."""
        edges = _graph_with_tail(40, seed=3).edge_array()
        if case == "duplicate":
            edges = np.insert(edges, 5, edges[5], axis=0)
        elif case == "reversed":
            edges[7] = edges[7, ::-1]
        elif case == "self-loop":
            edges = np.insert(edges, 9, [4, 4], axis=0)
        elif case == "unsorted":
            edges[[2, 11]] = edges[[11, 2]]
        path = tmp_path / "g.txt"
        path.write_text(
            "# nodes: 40\n" + "".join(f"{u} {v}\n" for u, v in edges)
        )
        trusted = []
        build = Graph.from_canonical_edges.__func__
        monkeypatch.setattr(
            Graph,
            "from_canonical_edges",
            classmethod(lambda cls, n, e: trusted.append(n) or build(cls, n, e)),
        )
        got = read_edge_list(path).adjacency
        want = Graph.from_edges(40, edges).adjacency
        assert trusted == ([40] if case == "canonical" else [])
        assert got.shape == want.shape
        for a, b in [(got.indptr, want.indptr), (got.indices, want.indices),
                     (got.data, want.data)]:
            assert np.array_equal(a, b)

    def test_short_line_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"0 1\n2\n")
        with pytest.raises(ValueError):
            read_edge_list(path)


class TestEdgeShards:
    @pytest.mark.parametrize("fmt", ["edgelist", "csr"])
    def test_roundtrip(self, tmp_path, fmt):
        graph = _graph_with_tail(num_nodes=40, seed=1)
        edges = graph.edge_array()
        out = tmp_path / "shards"
        with EdgeShardWriter(out, graph.num_nodes, 10, fmt=fmt) as writer:
            # Uneven batches exercise the buffering/cut logic.
            for start in range(0, edges.shape[0], 7):
                writer.write(edges[start : start + 7])
        meta = json.loads((out / "meta.json").read_text())
        assert meta["kind"] == "edge_shards"
        assert meta["format"] == fmt
        assert meta["num_edges"] == edges.shape[0]
        assert sum(s["num_edges"] for s in meta["shards"]) == edges.shape[0]
        assert len(meta["shards"]) >= 2
        loaded = read_edge_shards(out)
        assert loaded.num_nodes == graph.num_nodes
        assert np.array_equal(loaded.edge_array(), edges)

    def test_read_edge_list_accepts_directory(self, tmp_path):
        graph = _graph_with_tail(num_nodes=25, seed=2)
        out = tmp_path / "shards"
        with EdgeShardWriter(out, graph.num_nodes, 8) as writer:
            writer.write(graph.edge_array())
        loaded = read_edge_list(out)
        assert np.array_equal(loaded.edge_array(), graph.edge_array())

    def test_csr_shards_cut_at_row_boundaries(self, tmp_path):
        graph = _graph_with_tail(num_nodes=40, seed=3)
        out = tmp_path / "csr"
        with EdgeShardWriter(out, graph.num_nodes, 6, fmt="csr") as writer:
            writer.write(graph.edge_array())
        meta = json.loads((out / "meta.json").read_text())
        last_rows = []
        for shard in meta["shards"]:
            with np.load(out / shard["file"]) as data:
                indptr = data["indptr"]
                row_start = int(data["row_start"])
            u = row_start + np.repeat(np.arange(indptr.size - 1), np.diff(indptr))
            last_rows.append((u.min(), u.max()))
        # Consecutive shards never share a source row.
        for (_, hi), (lo, _) in zip(last_rows, last_rows[1:]):
            assert hi < lo

    def test_empty_graph_roundtrip(self, tmp_path):
        out = tmp_path / "empty"
        with EdgeShardWriter(out, 6, 4) as writer:
            pass
        loaded = read_edge_shards(out)
        assert loaded.num_nodes == 6
        assert loaded.num_edges == 0

    def test_manifest_kind_validated(self, tmp_path):
        out = tmp_path / "bad"
        out.mkdir()
        (out / "meta.json").write_text(json.dumps({"kind": "edge_list"}))
        with pytest.raises(ValueError, match="not an edge-shard manifest"):
            read_edge_shards(out)

    def test_missing_manifest_rejected(self, tmp_path):
        out = tmp_path / "nothing"
        out.mkdir()
        with pytest.raises(ValueError, match="meta.json"):
            read_edge_shards(out)

    def test_edge_count_mismatch_rejected(self, tmp_path):
        graph = _graph_with_tail(num_nodes=20, seed=4)
        out = tmp_path / "shards"
        with EdgeShardWriter(out, graph.num_nodes, 100) as writer:
            writer.write(graph.edge_array())
        meta_path = out / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["num_edges"] += 1
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="manifest declares"):
            read_edge_shards(out)


class TestStreamingShardStats:
    """One-pass degree statistics over shard directories (repro stats)."""

    def _sharded(self, tmp_path, fmt, num_nodes=60, seed=3, shard=12):
        graph = _graph_with_tail(num_nodes=num_nodes, seed=seed)
        out = tmp_path / f"shards_{fmt}"
        with EdgeShardWriter(out, graph.num_nodes, shard, fmt=fmt) as writer:
            edges = graph.edge_array()
            for start in range(0, edges.shape[0], 9):
                writer.write(edges[start : start + 9])
        return graph, out

    @pytest.mark.parametrize("fmt", ["edgelist", "csr"])
    def test_matches_in_memory_statistics(self, tmp_path, fmt):
        graph, out = self._sharded(tmp_path, fmt)
        stats = streaming_shard_statistics(out)
        full = graph_statistics(graph)
        assert stats.num_nodes == graph.num_nodes
        assert stats.num_edges == graph.num_edges
        assert stats.mean_degree == pytest.approx(full.mean_degree)
        assert stats.gini == pytest.approx(gini_index(graph.degrees))
        assert stats.powerlaw_exponent == pytest.approx(
            powerlaw_exponent(graph.degrees)
        )
        assert stats.max_degree == int(graph.degrees.max())
        assert stats.isolated_nodes == int((graph.degrees == 0).sum())
        expected = np.bincount(graph.degrees) / graph.num_nodes
        assert np.allclose(stats.degree_histogram, expected)
        assert f"n={graph.num_nodes}" in stats.row()

    def test_iter_edge_shards_streams_manifest_order(self, tmp_path):
        graph, out = self._sharded(tmp_path, "csr")
        meta = read_shard_meta(out)
        parts = list(iter_edge_shards(out, meta))
        assert len(parts) == len(
            [s for s in meta["shards"] if s["num_edges"]]
        )
        assert np.array_equal(np.concatenate(parts), graph.edge_array())

    def test_manifest_edge_count_mismatch_rejected(self, tmp_path):
        __, out = self._sharded(tmp_path, "edgelist")
        meta = json.loads((out / "meta.json").read_text())
        meta["num_edges"] += 1
        (out / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="manifest declares"):
            streaming_shard_statistics(out)

    def test_rejects_non_shard_directory(self, tmp_path):
        with pytest.raises(ValueError, match="meta.json"):
            streaming_shard_statistics(tmp_path)
