"""Tests for CPGAN model save/load (repro.core.persistence)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import VGAE
from repro.core import (
    CPGAN,
    CPGANConfig,
    CheckpointError,
    load_model,
    read_archive_meta,
    save_model,
)
from repro.core.persistence import (
    read_archive,
    restore_training_checkpoint,
    write_archive,
)
from repro.datasets import community_graph
from repro.train import Checkpoint


def tiny_config(**kwargs):
    defaults = dict(
        input_dim=4, node_embedding_dim=8, hidden_dim=16, latent_dim=8,
        pool_size=8, epochs=15, sample_size=80, seed=0,
    )
    defaults.update(kwargs)
    return CPGANConfig(**defaults)


@pytest.fixture(scope="module")
def trained():
    graph, __ = community_graph(70, 4, 6.0, seed=0)
    return CPGAN(tiny_config()).fit(graph), graph


class TestRoundTrip:
    def test_generation_identical_after_reload(self, trained, tmp_path):
        model, __ = trained
        path = tmp_path / "model.npz"
        save_model(model, path)
        restored = load_model(path)
        assert restored.generate(seed=3) == model.generate(seed=3)

    def test_edge_probabilities_identical(self, trained, tmp_path):
        model, graph = trained
        path = tmp_path / "model.npz"
        save_model(model, path)
        restored = load_model(path)
        pairs = graph.edge_array()[:20]
        np.testing.assert_allclose(
            restored.edge_probabilities(pairs), model.edge_probabilities(pairs)
        )

    def test_config_preserved(self, trained, tmp_path):
        model, __ = trained
        path = tmp_path / "model.npz"
        save_model(model, path)
        restored = load_model(path)
        assert restored.config == model.config

    def test_observed_graph_restored(self, trained, tmp_path):
        model, graph = trained
        path = tmp_path / "model.npz"
        save_model(model, path)
        restored = load_model(path)
        assert restored._require_fitted() == graph

    def test_variant_roundtrip(self, tmp_path):
        graph, __ = community_graph(60, 3, 5.0, seed=1)
        model = CPGAN(tiny_config(epochs=5, decoder_mode="concat")).fit(graph)
        path = tmp_path / "variant.npz"
        save_model(model, path)
        restored = load_model(path)
        assert restored.config.decoder_mode == "concat"
        assert restored.generate(seed=0) == model.generate(seed=0)

    def test_nov_variant_roundtrip(self, tmp_path):
        graph, __ = community_graph(60, 3, 5.0, seed=1)
        model = CPGAN(tiny_config(epochs=5, use_variational=False)).fit(graph)
        path = tmp_path / "nov.npz"
        save_model(model, path)
        assert load_model(path).generate(seed=0) == model.generate(seed=0)


class TestErrors:
    def test_save_unfitted_raises(self, tmp_path):
        from repro.baselines import NotFittedError

        with pytest.raises(NotFittedError):
            save_model(CPGAN(tiny_config()), tmp_path / "x.npz")

    def test_bad_version_rejected(self, trained, tmp_path):
        import json

        model, __ = trained
        path = tmp_path / "model.npz"
        save_model(model, path)
        with np.load(path) as archive:
            arrays = {k: archive[k] for k in archive.files}
        meta = json.loads(bytes(arrays["meta_json"]).decode())
        meta["version"] = 999
        arrays["meta_json"] = np.frombuffer(
            json.dumps(meta).encode(), dtype=np.uint8
        )
        np.savez_compressed(path, **arrays)
        with pytest.raises(ValueError, match="version"):
            load_model(path)


class TestCheckpointError:
    def test_is_value_error_subclass(self):
        assert issubclass(CheckpointError, ValueError)

    def test_garbage_file(self, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"definitely not a zip archive")
        with pytest.raises(CheckpointError, match=str(path)):
            load_model(path)

    def test_missing_file_stays_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_model(tmp_path / "absent.npz")

    def test_archive_without_metadata_blob(self, tmp_path):
        path = tmp_path / "bare.npz"
        np.savez_compressed(path, weights=np.zeros(3))
        with pytest.raises(CheckpointError, match="metadata"):
            load_model(path)

    def test_missing_parameter_array(self, trained, tmp_path):
        model, __ = trained
        path = tmp_path / "model.npz"
        save_model(model, path)
        with np.load(path) as archive:
            arrays = {k: archive[k] for k in archive.files}
        victim = next(k for k in arrays if k.startswith("encoder_"))
        del arrays[victim]
        np.savez_compressed(path, **arrays)
        with pytest.raises(CheckpointError, match="corrupt or incompatible"):
            load_model(path)

    def test_load_model_rejects_training_checkpoint(self, tmp_path):
        path = tmp_path / "ckpt.npz"
        write_archive(
            path,
            {"x": np.zeros(1)},
            {"kind": "training_checkpoint", "version": 1},
        )
        with pytest.raises(CheckpointError, match="checkpoint"):
            load_model(path)

    def test_restore_rejects_model_archive(self, trained, tmp_path):
        model, __ = trained
        path = tmp_path / "model.npz"
        save_model(model, path)
        with pytest.raises(CheckpointError, match="not a training checkpoint"):
            restore_training_checkpoint(CPGAN(tiny_config()), path)

    def test_restore_rejects_version_1_checkpoint(self, trained, tmp_path):
        """Version 1 stored a plain fit's graph as ``observed_edges``; the
        one-layout format (``graph_edges_{i}`` + ``graph_nodes``) is 2."""
        __, graph = trained
        path = tmp_path / "v1.npz"
        write_archive(
            path,
            {"observed_edges": graph.edge_array()},
            {"kind": "training_checkpoint", "version": 1},
        )
        with pytest.raises(CheckpointError, match="checkpoint version 1"):
            restore_training_checkpoint(CPGAN(tiny_config()), path)

    def test_read_archive_meta_is_lazy_and_typed(self, trained, tmp_path):
        model, __ = trained
        path = tmp_path / "model.npz"
        save_model(model, path)
        meta = read_archive_meta(path)
        assert meta["num_nodes"] == 70
        assert meta["num_edges"] == model._require_fitted().num_edges
        assert meta["provenance"]["epochs_trained"] == 15
        bad = tmp_path / "bad.npz"
        bad.write_bytes(b"nope")
        with pytest.raises(CheckpointError):
            read_archive_meta(bad)


def _with_config(src, dst, **extra):
    """Copy archive ``src`` to ``dst`` with ``extra`` keys in its config."""
    arrays, meta = read_archive(src)
    meta["config"].update(extra)
    write_archive(dst, arrays, meta)
    return dst


class TestRetiredConfigKeys:
    """Archives written while ``candidate_factor`` was a config field still
    load; any other unknown config key is still rejected."""

    def test_model_archive_with_retired_key(self, trained, tmp_path):
        model, __ = trained
        path = tmp_path / "model.npz"
        save_model(model, path)
        old = _with_config(path, tmp_path / "old.npz", candidate_factor=4.0)
        restored = load_model(old)
        assert restored.config == load_model(path).config
        assert restored.generate(seed=3) == load_model(path).generate(seed=3)

    def test_checkpoint_with_retired_key_resumes(self, tmp_path):
        graph, __ = community_graph(40, 2, 4.0, seed=0)
        config = tiny_config(epochs=4, sample_size=40)
        CPGAN(config).fit(
            graph, callbacks=[Checkpoint(tmp_path / "c_{epoch}.npz", every=2)]
        )
        path = tmp_path / "c_2.npz"
        old = _with_config(path, tmp_path / "old.npz", candidate_factor=4.0)
        reference = CPGAN().fit(resume_from=path)
        resumed = CPGAN().fit(resume_from=old)
        assert resumed.config == reference.config
        assert resumed.history.total == reference.history.total
        assert resumed.generate(seed=1) == reference.generate(seed=1)

    def test_unknown_config_key_still_rejected(self, trained, tmp_path):
        model, __ = trained
        path = tmp_path / "model.npz"
        save_model(model, path)
        bad = _with_config(path, tmp_path / "bad.npz", bogus_factor=4.0)
        with pytest.raises(CheckpointError, match="bogus_factor"):
            load_model(bad)
        ckpt = tmp_path / "c_1.npz"
        graph, __ = community_graph(30, 2, 4.0, seed=0)
        CPGAN(tiny_config(epochs=1, sample_size=30)).fit(
            graph, callbacks=[Checkpoint(ckpt, every=1)]
        )
        bad = _with_config(ckpt, tmp_path / "bad_c.npz", bogus_factor=4.0)
        with pytest.raises(CheckpointError, match="bogus_factor"):
            CPGAN().fit(resume_from=bad)


class TestAtomicWrite:
    def test_failed_write_keeps_previous_archive(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "model.npz"
        write_archive(path, {"x": np.arange(4)}, {"version": 1})
        before = path.read_bytes()

        def fail_midway(file, **arrays):
            file.write(b"PK\x03\x04 partial")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez_compressed", fail_midway)
        with pytest.raises(OSError, match="disk full"):
            write_archive(path, {"x": np.arange(8)}, {"version": 1})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.npz"]

    def test_npz_suffix_appended_like_numpy(self, tmp_path):
        write_archive(tmp_path / "ckpt", {"x": np.zeros(2)}, {})
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.npz"]
        arrays, meta = read_archive(tmp_path / "ckpt.npz")
        assert meta == {}
        np.testing.assert_array_equal(arrays["x"], np.zeros(2))


_VGAE = dict(epochs=2, hidden_dim=4, latent_dim=2, feature_dim=2)


@pytest.fixture(scope="module")
def archives(tmp_path_factory):
    """One model archive, one CPGAN and one baseline training checkpoint
    (each written at the last epoch, so a resume is a no-op) with the
    loader that must reject their corrupted copies."""
    root = tmp_path_factory.mktemp("archives")
    graph, __ = community_graph(30, 2, 4.0, seed=0)
    model = CPGAN(tiny_config(epochs=2, sample_size=30)).fit(
        graph, callbacks=[Checkpoint(root / "cpgan.npz", every=2)]
    )
    save_model(model, root / "model.npz")
    VGAE(**_VGAE).fit(
        graph, callbacks=[Checkpoint(root / "vgae.npz", every=2)]
    )
    loaders = {
        "model": load_model,
        "cpgan": lambda path: CPGAN().fit(resume_from=path),
        "vgae": lambda path: VGAE(**_VGAE).fit(graph, resume_from=path),
    }
    return root, {
        name: ((root / f"{name}.npz").read_bytes(), load)
        for name, load in loaders.items()
    }


class TestCorruptArchiveFuzz:
    """Truncated, bit-flipped or zero-filled archives raise only
    CheckpointError — from read_archive and from every loader."""

    @pytest.mark.parametrize("kind", ["model", "cpgan", "vgae"])
    @settings(max_examples=40, deadline=None)
    @given(how=st.sampled_from(["truncate", "flip", "zero"]), data=st.data())
    def test_only_checkpoint_error_escapes(self, archives, kind, how, data):
        root, table = archives
        raw, load = table[kind]
        at = data.draw(st.integers(0, len(raw) - 1), label="offset")
        damaged = bytearray(raw)
        if how == "truncate":
            del damaged[at:]
        elif how == "flip":
            damaged[at] ^= 1 << data.draw(st.integers(0, 7), label="bit")
        else:
            damaged[at : at + 16] = bytes(len(damaged[at : at + 16]))
        path = root / f"damaged_{kind}.npz"
        path.write_bytes(bytes(damaged))
        if how == "truncate":
            with pytest.raises(CheckpointError):
                read_archive(path)
        for read in (read_archive, load):
            try:
                read(path)
            except CheckpointError:
                pass
