"""Tests for the command-line interface (repro.cli)."""

import json

import pytest

from repro.cli import main
from repro.datasets import community_graph
from repro.graphs import read_edge_list, write_edge_list


@pytest.fixture()
def graph_file(tmp_path):
    graph, __ = community_graph(60, 4, 5.0, seed=0)
    path = tmp_path / "graph.txt"
    write_edge_list(graph, path)
    return path


class TestStats:
    def test_stats_prints_statistics(self, graph_file, capsys):
        assert main(["stats", str(graph_file)]) == 0
        out = capsys.readouterr().out
        assert "Graph(n=60" in out
        assert "CPL=" in out

    def test_stats_prints_recorded_provenance(self, tmp_path, capsys):
        graph, __ = community_graph(30, 3, 4.0, seed=1)
        path = tmp_path / "g.txt"
        write_edge_list(graph, path, meta={"dtype": "float32", "seed": 11})
        assert main(["stats", str(path)]) == 0
        assert "provenance: dtype=float32 seed=11" in capsys.readouterr().out

    def test_stats_manifest_less_directory_fails_clearly(
        self, tmp_path, capsys
    ):
        empty = tmp_path / "not_shards"
        empty.mkdir()
        assert main(["stats", str(empty), "--streaming"]) == 2
        err = capsys.readouterr().err
        assert "no meta.json" in err
        assert "error:" in err


class TestDatasets:
    def test_lists_all_six(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("citeseer", "pubmed", "ppi", "point_cloud", "facebook", "google"):
            assert name in out


class TestSynth:
    def test_writes_edge_list(self, tmp_path, capsys):
        out_path = tmp_path / "synth.txt"
        assert main(
            ["synth", "ppi", "-o", str(out_path), "--scale", "0.03"]
        ) == 0
        graph = read_edge_list(out_path)
        assert graph.num_nodes > 0


class TestServe:
    def test_no_models_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "models"
        empty.mkdir()
        assert main(["serve", "--models-dir", str(empty)]) == 2
        assert "no models to serve" in capsys.readouterr().err

    def test_invalid_archive_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.npz"
        bad.write_bytes(b"not an archive")
        assert main(["serve", str(bad)]) == 2
        assert "bad.npz" in capsys.readouterr().err

    def test_missing_archive_exits_2(self, tmp_path, capsys):
        assert main(["serve", str(tmp_path / "ghost.npz")]) == 2
        assert "ghost.npz" in capsys.readouterr().err

    def test_discover_warns_about_skipped_files(
        self, graph_file, tmp_path, capsys, monkeypatch
    ):
        models = tmp_path / "models"
        models.mkdir()
        main(
            [
                "fit", str(graph_file), "-o", str(models / "toy.npz"),
                "--epochs", "2", "--hidden-dim", "16", "--latent-dim", "8",
            ]
        )
        (models / "junk.npz").write_bytes(b"junk")
        capsys.readouterr()  # drop fit output

        # Intercept the blocking server loop: the command should get as far
        # as printing its endpoints with the one valid model registered.
        served = {}

        def fake_serve_forever(service, host, port):
            served["names"] = service.registry.names()

        monkeypatch.setattr(
            "repro.serve.serve_forever", fake_serve_forever
        )
        assert main(["serve", "--models-dir", str(models), "--port", "0"]) == 0
        captured = capsys.readouterr()
        assert "junk.npz" in captured.err
        assert "/generate" in captured.out
        assert served["names"] == ("toy",)


class TestFitGenerateEvaluate:
    def test_full_pipeline(self, graph_file, tmp_path, capsys):
        model_path = tmp_path / "model.npz"
        assert main(
            [
                "fit", str(graph_file), "-o", str(model_path),
                "--epochs", "8", "--hidden-dim", "16", "--latent-dim", "8",
            ]
        ) == 0
        assert model_path.exists()

        out_path = tmp_path / "generated.txt"
        assert main(
            ["generate", str(model_path), "-o", str(out_path), "--seed", "1"]
        ) == 0
        generated = read_edge_list(out_path)
        assert generated.num_nodes == 60

        assert main(["evaluate", str(graph_file), str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "structure" in out
        assert "NMI" in out

    def test_generate_multiple(self, graph_file, tmp_path):
        model_path = tmp_path / "model.npz"
        main(
            [
                "fit", str(graph_file), "-o", str(model_path),
                "--epochs", "5", "--hidden-dim", "16", "--latent-dim", "8",
            ]
        )
        out_path = tmp_path / "gen.txt"
        assert main(
            ["generate", str(model_path), "-o", str(out_path), "--count", "2"]
        ) == 0
        assert (tmp_path / "gen_0.txt").exists()
        assert (tmp_path / "gen_1.txt").exists()

    def test_generate_different_size(self, graph_file, tmp_path):
        model_path = tmp_path / "model.npz"
        main(
            [
                "fit", str(graph_file), "-o", str(model_path),
                "--epochs", "5", "--hidden-dim", "16", "--latent-dim", "8",
            ]
        )
        out_path = tmp_path / "bigger.txt"
        assert main(
            [
                "generate", str(model_path), "-o", str(out_path),
                "--num-nodes", "90",
            ]
        ) == 0
        assert read_edge_list(out_path).num_nodes == 90

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--num-nodes", "0"], "num_nodes must be >= 1, got 0"),
            (["--num-nodes", "-5"], "num_nodes must be >= 1, got -5"),
            (["--generation-threads", "0"], "generation_threads"),
        ],
    )
    def test_generate_bad_value_exits_2(
        self, graph_file, tmp_path, capsys, flags, message
    ):
        """A bad size or config override is an ``error:`` line and exit 2,
        not a traceback (or, for 0 nodes, a graph of the fitted size)."""
        model_path = tmp_path / "model.npz"
        main(
            [
                "fit", str(graph_file), "-o", str(model_path),
                "--epochs", "2", "--hidden-dim", "16", "--latent-dim", "8",
            ]
        )
        capsys.readouterr()
        out = tmp_path / "out.txt"
        assert main(["generate", str(model_path), "-o", str(out), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists()

    def test_generate_repair_sampler_flag(self, graph_file, tmp_path):
        model_path = tmp_path / "model.npz"
        main(
            [
                "fit", str(graph_file), "-o", str(model_path),
                "--epochs", "5", "--hidden-dim", "16", "--latent-dim", "8",
            ]
        )
        dense = tmp_path / "dense.txt"
        factored = tmp_path / "factored.txt"
        factored2 = tmp_path / "factored2.txt"
        for path, sampler in (
            (dense, "dense"), (factored, "factored"), (factored2, "factored"),
        ):
            assert main(
                [
                    "generate", str(model_path), "-o", str(path),
                    "--seed", "4", "--repair-sampler", sampler,
                ]
            ) == 0
        # Factored is deterministic per seed; dense consumes the rng
        # differently, so the graphs may differ only in repair edges.
        a = read_edge_list(factored).edge_array()
        b = read_edge_list(factored2).edge_array()
        assert (a == b).all()
        assert read_edge_list(dense).num_nodes == 60

    def test_generate_hierarchical_flag(self, graph_file, tmp_path):
        model_path = tmp_path / "model.npz"
        main(
            [
                "fit", str(graph_file), "-o", str(model_path),
                "--epochs", "5", "--hidden-dim", "16", "--latent-dim", "8",
            ]
        )
        out1 = tmp_path / "hier1.txt"
        out2 = tmp_path / "hier2.txt"
        assert main(
            [
                "generate", str(model_path), "-o", str(out1),
                "--seed", "3", "--hierarchical",
            ]
        ) == 0
        # --hier-workers implies hierarchical mode and must not change bits.
        assert main(
            [
                "generate", str(model_path), "-o", str(out2),
                "--seed", "3", "--hier-workers", "4",
            ]
        ) == 0
        a = read_edge_list(out1).edge_array()
        b = read_edge_list(out2).edge_array()
        assert (a == b).all()

    def test_stats_streaming_on_shard_directory(
        self, graph_file, tmp_path, capsys
    ):
        model_path = tmp_path / "model.npz"
        main(
            [
                "fit", str(graph_file), "-o", str(model_path),
                "--epochs", "5", "--hidden-dim", "16", "--latent-dim", "8",
            ]
        )
        out_dir = tmp_path / "sharded"
        assert main(
            [
                "generate", str(model_path), "-o", str(out_dir),
                "--shard-edges", "40", "--shard-format", "csr",
                "--repair-sampler", "factored",
            ]
        ) == 0
        capsys.readouterr()
        assert main(["stats", str(out_dir), "--streaming"]) == 0
        out = capsys.readouterr().out
        assert "ShardedGraph(nodes=60" in out
        assert "GINI=" in out
        # Without --streaming a small directory takes the in-memory path.
        assert main(["stats", str(out_dir)]) == 0
        assert "CPL=" in capsys.readouterr().out

    def test_evaluate_size_mismatch_skips_community(
        self, graph_file, tmp_path, capsys
    ):
        other, __ = community_graph(40, 3, 5.0, seed=2)
        other_path = tmp_path / "other.txt"
        write_edge_list(other, other_path)
        assert main(["evaluate", str(graph_file), str(other_path)]) == 0
        assert "skipped" in capsys.readouterr().out


class TestFitTrainingEngineFlags:
    FIT_ARGS = ["--hidden-dim", "16", "--latent-dim", "8", "--sample-size", "80"]

    def test_run_log_and_checkpoints(self, graph_file, tmp_path):
        model_path = tmp_path / "model.npz"
        run_log = tmp_path / "run.jsonl"
        ckpt = tmp_path / "ckpt_{epoch}.npz"
        assert main(
            [
                "fit", str(graph_file), "-o", str(model_path),
                "--epochs", "6", *self.FIT_ARGS,
                "--run-log", str(run_log),
                "--checkpoint-path", str(ckpt), "--checkpoint-every", "3",
            ]
        ) == 0
        assert (tmp_path / "ckpt_3.npz").exists()
        assert (tmp_path / "ckpt_6.npz").exists()
        lines = [json.loads(l) for l in run_log.read_text().splitlines()]
        events = [l["event"] for l in lines]
        assert events[0] == "fit_start"
        assert events[-1] == "fit_end"
        assert events.count("epoch") == 6

    def test_resume_round_trip(self, graph_file, tmp_path, capsys):
        # Full run's model is the reference.
        full_model = tmp_path / "full.npz"
        main(
            [
                "fit", str(graph_file), "-o", str(full_model),
                "--epochs", "6", *self.FIT_ARGS,
            ]
        )
        full_out = tmp_path / "full_gen.txt"
        main(["generate", str(full_model), "-o", str(full_out), "--seed", "3"])

        # Same run, checkpointed every 3 epochs — resume from the midpoint
        # in a separate invocation and finish the remaining epochs.
        mid_model = tmp_path / "mid.npz"
        main(
            [
                "fit", str(graph_file), "-o", str(mid_model),
                "--epochs", "6", *self.FIT_ARGS,
                "--checkpoint-path", str(tmp_path / "c_{epoch}.npz"),
                "--checkpoint-every", "3",
            ]
        )
        resumed_model = tmp_path / "resumed.npz"
        assert main(
            [
                "fit", str(graph_file), "-o", str(resumed_model),
                "--resume", str(tmp_path / "c_3.npz"),
            ]
        ) == 0
        assert "Resuming" in capsys.readouterr().out
        resumed_out = tmp_path / "resumed_gen.txt"
        main(
            ["generate", str(resumed_model), "-o", str(resumed_out),
             "--seed", "3"]
        )
        assert full_out.read_text() == resumed_out.read_text()

        # And the resumed model still evaluates cleanly.
        assert main(["evaluate", str(graph_file), str(resumed_out)]) == 0


class TestBadArchives:
    """A bad archive is an ``error: ...`` line and exit 2, not a traceback."""

    def test_resume_from_garbage_exits_2(self, graph_file, tmp_path, capsys):
        junk = tmp_path / "junk.npz"
        junk.write_bytes(b"not an archive")
        args = ["fit", str(graph_file), "-o", str(tmp_path / "m.npz")]
        assert main([*args, "--resume", str(junk)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "m.npz").exists()

    def test_resume_from_missing_file_exits_2(
        self, graph_file, tmp_path, capsys
    ):
        args = ["fit", str(graph_file), "-o", str(tmp_path / "m.npz")]
        assert main([*args, "--resume", str(tmp_path / "ghost.npz")]) == 2
        assert "ghost.npz" in capsys.readouterr().err

    def test_resume_from_model_archive_exits_2(
        self, graph_file, tmp_path, capsys
    ):
        model_path = tmp_path / "model.npz"
        main(
            [
                "fit", str(graph_file), "-o", str(model_path),
                "--epochs", "2", "--hidden-dim", "16", "--latent-dim", "8",
            ]
        )
        capsys.readouterr()
        args = ["fit", str(graph_file), "-o", str(tmp_path / "m.npz")]
        assert main([*args, "--resume", str(model_path)]) == 2
        assert "not a training checkpoint" in capsys.readouterr().err

    def test_generate_from_garbage_exits_2(self, tmp_path, capsys):
        junk = tmp_path / "junk.npz"
        junk.write_bytes(b"not an archive")
        out = tmp_path / "out.txt"
        assert main(["generate", str(junk), "-o", str(out)]) == 2
        assert "junk.npz" in capsys.readouterr().err
        assert not out.exists()

    def test_generate_from_damaged_deflate_stream_exits_2(
        self, graph_file, tmp_path, capsys
    ):
        """Damage the zip's compressed data so numpy raises ``zlib.error``
        (not a ``BadZipFile``): still an ``error:`` line and exit 2."""
        import io
        import zlib

        import numpy as np

        model_path = tmp_path / "model.npz"
        main(
            [
                "fit", str(graph_file), "-o", str(model_path),
                "--epochs", "2", "--hidden-dim", "16", "--latent-dim", "8",
            ]
        )
        capsys.readouterr()
        data = model_path.read_bytes()

        def zero_filled(at):
            return data[:at] + bytes(16) + data[at + 16 :]

        def raises_zlib(buf):
            try:
                with np.load(io.BytesIO(buf)) as archive:
                    for name in archive.files:
                        archive[name]
            except zlib.error:
                return True
            except Exception:
                return False
            return False

        at = next(
            at for at in range(0, len(data), 7)
            if raises_zlib(zero_filled(at))
        )
        model_path.write_bytes(zero_filled(at))
        out = tmp_path / "out.txt"
        assert main(["generate", str(model_path), "-o", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_generate_from_missing_file_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out.txt"
        ghost = tmp_path / "ghost.npz"
        assert main(["generate", str(ghost), "-o", str(out)]) == 2
        assert "ghost.npz" in capsys.readouterr().err


class TestParser:
    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
