"""Tests for the bench harness: memory model, rosters, experiment cells."""

from pathlib import Path

import numpy as np
import pytest

from repro.baselines import ErdosRenyi, MemoryBudgetExceeded, VGAE
from repro.bench import (
    ALL_MODELS,
    BenchSettings,
    check_memory,
    format_mean_std,
    make_model,
    measure_peak_memory,
    run_community_cell,
    run_quality_cell,
    scaled_budget,
    settings_from_env,
)
from repro.datasets import Dataset, DatasetSpec, community_graph


def tiny_settings(**kwargs):
    defaults = dict(
        scale=0.05, epochs=10, seeds=2, datasets=("citeseer",), label="test"
    )
    defaults.update(kwargs)
    return BenchSettings(**defaults)


def tiny_dataset(n=60) -> Dataset:
    graph, labels = community_graph(n, 4, 5.0, seed=0)
    spec = DatasetSpec("toy", n, graph.num_edges, 4, 5.0, 3.0, 0.3, 2.5, "toy")
    return Dataset(spec=spec, graph=graph, labels=labels, scale=1.0)


class TestMemoryModel:
    def test_scaled_budget_quadratic(self):
        assert scaled_budget(0.1) == pytest.approx(
            scaled_budget(1.0) * 0.01, rel=1e-6
        )

    def test_scaled_budget_invalid(self):
        with pytest.raises(ValueError):
            scaled_budget(0.0)

    def test_check_memory_passes_small(self):
        check_memory(ErdosRenyi(), 1_000)  # traditional: O(n), never OOM

    def test_check_memory_raises_for_dense_model_on_large_graph(self):
        with pytest.raises(MemoryBudgetExceeded):
            check_memory(VGAE(), 1_000_000)

    def test_oom_pattern_matches_paper_at_full_scale(self):
        """Table III: VGAE fits Citeseer (3327) but OOMs PubMed (19717)."""
        model = VGAE()
        check_memory(model, 3_327)  # must not raise
        with pytest.raises(MemoryBudgetExceeded):
            check_memory(model, 19_717)

    def test_oom_pattern_preserved_at_reduced_scale(self):
        """Scaling nodes and budget together keeps the OOM boundary."""
        scale = 0.1
        budget = scaled_budget(scale)
        model = VGAE()
        check_memory(model, int(3_327 * scale), budget)
        with pytest.raises(MemoryBudgetExceeded):
            check_memory(model, int(19_717 * scale), budget)

    def test_measure_peak_memory(self):
        def allocate():
            return np.zeros(1_000_000)

        result, peak = measure_peak_memory(allocate)
        assert result.size == 1_000_000
        assert peak >= 8 * 1_000_000


class TestRoster:
    def test_all_models_instantiable(self):
        settings = tiny_settings()
        for name in ALL_MODELS:
            model = make_model(name, settings)
            assert model.name == name or name.startswith("CPGAN")

    def test_cpgan_variants(self):
        settings = tiny_settings()
        assert make_model("CPGAN-C", settings).config.decoder_mode == "concat"
        assert not make_model("CPGAN-noV", settings).config.use_variational
        assert not make_model("CPGAN-noH", settings).config.use_hierarchy

    def test_unknown_model(self):
        with pytest.raises(KeyError):
            make_model("GPT-5", tiny_settings())

    def test_settings_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "small")
        monkeypatch.setenv("REPRO_SEEDS", "3")
        settings = settings_from_env()
        assert settings.seeds == 3
        assert settings.label == "small"

    def test_settings_invalid_scale(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "gigantic")
        with pytest.raises(ValueError):
            settings_from_env()


class TestCells:
    def test_community_cell_er(self):
        cell = run_community_cell("E-R", tiny_dataset(), tiny_settings())
        assert not cell.oom
        assert 0.0 <= cell.nmi_mean <= 1.0
        assert "±" in cell.row_fragment()

    def test_quality_cell_er(self):
        cell = run_quality_cell("E-R", tiny_dataset(), tiny_settings())
        assert not cell.oom
        assert np.isfinite(cell.degree)
        assert len(cell.row_fragment().split()) == 5

    def test_oom_cell_rendering(self):
        # Force OOM with a zero budget via huge node count & tiny budget.
        settings = tiny_settings(scale=1e-4)
        cell = run_community_cell("VGAE", tiny_dataset(n=200), settings)
        assert cell.oom
        assert "OOM" in cell.row_fragment()

    def test_format_mean_std(self):
        assert format_mean_std([1.0, 2.0, 3.0]) == "2.00±0.82"
        assert format_mean_std([0.5], scale=100) == "50.00±0.00"


class TestCheckpointResumeWiring:
    """Bench cells with ``checkpoint_every`` resume from run_logs/."""

    def _settings(self, tmp_path, **kwargs):
        return tiny_settings(
            epochs=8,
            seeds=1,
            run_log_dir=tmp_path / "run_logs",
            checkpoint_every=4,
            **kwargs,
        )

    @staticmethod
    def _fit_starts(settings):
        import json

        log = Path(settings.run_log_dir) / "CPGAN__toy__test.jsonl"
        return [
            json.loads(line)
            for line in log.read_text().splitlines()
            if json.loads(line)["event"] == "fit_start"
        ]

    def test_completed_cell_resumes_into_noop(self, tmp_path):
        settings = self._settings(tmp_path)
        dataset = tiny_dataset()
        first = run_quality_cell("CPGAN", dataset, settings)
        ckpt = Path(settings.run_log_dir) / "CPGAN__toy__test.ckpt.npz"
        assert ckpt.exists()

        second = run_quality_cell("CPGAN", dataset, settings)
        starts = self._fit_starts(settings)
        assert starts[0]["start_epoch"] == 0
        # The re-run resumed the finished checkpoint: zero epochs remained.
        assert starts[-1]["start_epoch"] == settings.epochs
        # ... and a resumed cell reproduces the original run exactly.
        assert second == first

    def test_stale_checkpoint_falls_back_to_fresh_fit(self, tmp_path):
        settings = self._settings(tmp_path)
        dataset = tiny_dataset()
        run_quality_cell("CPGAN", dataset, settings)
        ckpt = Path(settings.run_log_dir) / "CPGAN__toy__test.ckpt.npz"
        ckpt.write_bytes(b"corrupted mid-write")

        cell = run_quality_cell("CPGAN", dataset, settings)
        assert not cell.oom
        assert self._fit_starts(settings)[-1]["start_epoch"] == 0
        assert ckpt.exists()  # the fresh fit re-wrote a valid checkpoint

    def test_no_checkpoint_kwargs_without_opt_in(self, tmp_path):
        from repro.bench.harness import _cell_fit_kwargs
        from repro.train import JsonlRunLog

        settings = tiny_settings(run_log_dir=tmp_path)  # checkpoint_every=0
        for name in ("CPGAN", "VGAE"):
            model = make_model(name, settings)
            kwargs = _cell_fit_kwargs(model, name, tiny_dataset(), settings)
            assert [type(cb) for cb in kwargs["callbacks"]] == [JsonlRunLog]
            assert "resume_from" not in kwargs
        # Closed-form generators have no epochs to log or checkpoint.
        model = make_model("E-R", settings)
        assert _cell_fit_kwargs(model, "E-R", tiny_dataset(), settings) == {}

    @pytest.mark.parametrize(
        "name", ["VGAE", "SBMGNN", "GraphRNN-S", "CondGen-R"]
    )
    def test_every_learned_cell_logs_and_checkpoints(self, name, tmp_path):
        from repro.bench.harness import _cell_fit_kwargs
        from repro.train import Checkpoint, JsonlRunLog

        settings = self._settings(tmp_path)
        model = make_model(name, settings)
        kwargs = _cell_fit_kwargs(model, name, tiny_dataset(), settings)
        assert [type(cb) for cb in kwargs["callbacks"]] == [
            JsonlRunLog, Checkpoint,
        ]

    def test_baseline_cell_resumes_into_noop(self, tmp_path):
        import json

        settings = self._settings(tmp_path)
        dataset = tiny_dataset()
        first = run_quality_cell("VGAE", dataset, settings)
        log_dir = Path(settings.run_log_dir)
        assert (log_dir / "VGAE__toy__test.ckpt.npz").exists()

        second = run_quality_cell("VGAE", dataset, settings)
        starts = [
            record
            for record in map(
                json.loads,
                (log_dir / "VGAE__toy__test.jsonl").read_text().splitlines(),
            )
            if record["event"] == "fit_start"
        ]
        assert [s["start_epoch"] for s in starts] == [0, settings.epochs]
        assert second == first
