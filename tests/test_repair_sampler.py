"""Isolated-node repair samplers: golden dense stream, factored equivalence.

Four contract surfaces:

* the **dense** sampler's float64 edge stream is bit-stable across
  releases (reproducibility contract v1) — guarded by a committed golden
  trace (``tests/data/repair_golden_stream.json``, regenerate with
  ``scripts/make_repair_golden.py`` only on a deliberate contract bump),
  which also pins the factored repair and cross-stitch streams;
* the **factored** rejection sampler draws each partner from exactly the
  dense sampler's sharpened categorical — checked by a chi-square test of
  its empirical marginal against the analytic target;
* both samplers survive the degenerate regimes (no candidates at all,
  n <= 2, forced fallback);
* the plumbing: config validation, generation stats, model-level
  determinism across seeds and thread counts.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as sp_stats

from repro.core import CPGAN, CPGANConfig, decoder
from repro.core.decoder import PairScorer, _stable_sigmoid, pair_feature_norms
from repro.datasets import community_graph
from repro.graphs import assembly
from repro.graphs.assembly import (
    REPAIR_SAMPLERS,
    _draw_partners_factored,
    select_edges_sparse,
)
from repro.trace import counting

GOLDEN_PATH = Path(__file__).parent / "data" / "repair_golden_stream.json"

# The golden generator script is the single source of the scenario
# definitions; import it by path so the test cannot drift from the file
# it guards.
_SPEC = importlib.util.spec_from_file_location(
    "make_repair_golden",
    Path(__file__).parents[1] / "scripts" / "make_repair_golden.py",
)
_GOLDEN_MODULE = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(_GOLDEN_MODULE)


def _embeddings(n: int = 48, dim: int = 8, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.normal(scale=0.8, size=(n, dim))


def _target_probs(g: np.ndarray, i: int) -> np.ndarray:
    """The dense sampler's sharpened categorical for source ``i``."""
    w = _stable_sigmoid(g @ g[i])
    w[i] = 0.0
    p = np.square(w)
    return p / p.sum()


class TestGoldenDenseStream:
    """The committed sampler streams never change bits: the float64 dense
    repair stream (contract v1), the factored repair stream in float64 and
    float32 (contract v2), and the hierarchical cross-stitch stream."""

    def test_golden_file_is_committed(self):
        assert GOLDEN_PATH.exists(), (
            "tests/data/repair_golden_stream.json is missing — run "
            "scripts/make_repair_golden.py from a known-good tree"
        )

    def test_dense_stream_matches_golden(self):
        golden = json.loads(GOLDEN_PATH.read_text())
        assert golden["contract"] == 1
        makers = {
            "scenarios": _GOLDEN_MODULE._scenario,
            "factored_scenarios": _GOLDEN_MODULE._factored_scenario,
            "cross_scenarios": _GOLDEN_MODULE._cross_scenario,
        }
        for section, make in makers.items():
            for scenario in golden[section]:
                params = {k: v for k, v in scenario.items() if k != "edges"}
                fresh = make(**params)
                assert fresh["edges"] == scenario["edges"], (
                    f"{section} {params} diverged from the committed "
                    f"golden — this is a reproducibility-contract break"
                )


class TestFactoredDistribution:
    def test_marginal_matches_dense_target(self):
        """Chi-square: factored draws follow the exact sharpened categorical."""
        g = _embeddings(n=40, seed=1)
        scorer = PairScorer(g)
        i = 7
        draws = 20_000
        # Replicating one source node gives i.i.d. draws from its marginal
        # in a single vectorised call.
        isolated = np.full(draws, i, dtype=np.int64)
        __, partners, ___ = _draw_partners_factored(
            isolated, g.shape[0], np.random.default_rng(3), scorer
        )
        assert partners.size == draws
        p = _target_probs(g, i)
        observed = np.bincount(partners, minlength=g.shape[0]).astype(float)
        # The source's own cell has probability zero by construction (and
        # the sampler never draws it); drop it, then pool low-expectation
        # cells so the chi-square approximation holds.
        assert observed[i] == 0
        keep = p > 0
        observed, expected = observed[keep], p[keep] * draws
        big = expected >= 5.0
        obs, exp = observed[big], expected[big]
        if not big.all():
            obs = np.append(obs, observed[~big].sum())
            exp = np.append(exp, expected[~big].sum())
        result = sp_stats.chisquare(obs, exp * obs.sum() / exp.sum())
        assert result.pvalue > 0.01

    def test_never_draws_self_and_scores_match(self):
        g = _embeddings(n=30, seed=2)
        scorer = PairScorer(g)
        isolated = np.arange(30, dtype=np.int64)
        src, partners, scores = _draw_partners_factored(
            isolated, 30, np.random.default_rng(5), scorer
        )
        assert np.all(src != partners)
        expect = _stable_sigmoid(
            np.einsum("ij,ij->i", g[src], g[partners])
        )
        assert np.allclose(scores, expect)

    def test_deterministic_per_seed(self):
        g = _embeddings(n=64, seed=3)
        scorer = PairScorer(g)
        isolated = np.arange(0, 64, 2, dtype=np.int64)
        first = _draw_partners_factored(
            isolated, 64, np.random.default_rng(11), scorer
        )
        second = _draw_partners_factored(
            isolated, 64, np.random.default_rng(11), scorer
        )
        for a, b in zip(first, second):
            assert np.array_equal(a, b)

    def test_forced_fallback_equals_dense(self, monkeypatch):
        """With zero rejection rounds the fallback is the untouched dense
        draw: same fresh rng, same inverse-CDF stream, identical edges."""
        g = _embeddings(n=32, seed=4)
        scorer = PairScorer(g)
        isolated = np.arange(32, dtype=np.int64)
        monkeypatch.setattr(decoder, "_MAX_ROUNDS", 0)
        with counting() as counts:
            src_f, part_f, s_f = _draw_partners_factored(
                isolated, 32, np.random.default_rng(9), scorer
            )
        src_d, part_d, s_d = assembly._draw_partners(
            isolated, 32, np.random.default_rng(9), scorer.rows
        )
        assert counts["repair_fallback"] == isolated.size
        assert counts["repair_proposals"] == 0
        assert np.array_equal(src_f, src_d)
        assert np.array_equal(part_f, part_d)
        assert np.array_equal(s_f, s_d)


class TestDegenerateCases:
    @pytest.mark.parametrize("sampler", REPAIR_SAMPLERS)
    def test_all_isolated(self, sampler):
        """No candidates at all: every node draws through the repair pass."""
        g = _embeddings(n=30, seed=6)
        empty = np.zeros(0, dtype=np.int64)
        with counting() as counts:
            edges = select_edges_sparse(
                30,
                (empty, empty, np.zeros(0)),
                15,
                rng=np.random.default_rng(1),
                strategy="categorical_topk",
                score_rows=PairScorer(g),
                assume_unique=True,
                repair_sampler=sampler,
            )
        assert counts["repair_isolated"] == 30
        assert 0 < edges.shape[0] <= 15
        assert np.all(edges[:, 0] < edges[:, 1])

    @pytest.mark.parametrize("sampler", REPAIR_SAMPLERS)
    def test_two_nodes(self, sampler):
        g = _embeddings(n=2, seed=7)
        empty = np.zeros(0, dtype=np.int64)
        edges = select_edges_sparse(
            2,
            (empty, empty, np.zeros(0)),
            1,
            rng=np.random.default_rng(2),
            strategy="categorical_topk",
            score_rows=PairScorer(g),
            assume_unique=True,
            repair_sampler=sampler,
        )
        assert edges.tolist() == [[0, 1]]

    @pytest.mark.parametrize("sampler", REPAIR_SAMPLERS)
    def test_single_node_draws_nothing(self, sampler):
        """n=1: the only proposal is a self-loop, which both samplers
        reject (dense zeroes the diagonal; factored always refuses self)."""
        g = _embeddings(n=1, seed=8)
        empty = np.zeros(0, dtype=np.int64)
        edges = select_edges_sparse(
            1,
            (empty, empty, np.zeros(0)),
            1,
            rng=np.random.default_rng(3),
            strategy="categorical_topk",
            score_rows=PairScorer(g),
            assume_unique=True,
            repair_sampler=sampler,
        )
        assert edges.shape == (0, 2)

    def test_factored_requires_a_scorer(self):
        """A plain callable cannot serve the factored sampler."""
        s = np.random.default_rng(0).random((8, 8))
        s = (s + s.T) / 2
        np.fill_diagonal(s, 0.0)
        empty = np.zeros(0, dtype=np.int64)
        with pytest.raises(ValueError, match="factored scorer"):
            select_edges_sparse(
                8,
                (empty, empty, np.zeros(0)),
                4,
                rng=np.random.default_rng(0),
                strategy="categorical_topk",
                score_rows=lambda nodes: s[nodes],
                assume_unique=True,
                repair_sampler="factored",
            )

    def test_unknown_sampler_rejected(self):
        empty = np.zeros(0, dtype=np.int64)
        with pytest.raises(ValueError, match="unknown repair sampler"):
            select_edges_sparse(
                8,
                (empty, empty, np.zeros(0)),
                4,
                rng=np.random.default_rng(0),
                strategy="categorical_topk",
                repair_sampler="bogus",
            )

    def test_config_validates_sampler(self):
        with pytest.raises(ValueError, match="repair_sampler"):
            CPGANConfig(repair_sampler="bogus")
        assert CPGANConfig(repair_sampler="factored").repair_sampler == (
            "factored"
        )


class TestStatsChannel:
    @pytest.mark.parametrize("sampler", REPAIR_SAMPLERS)
    def test_select_edges_populates_stats(self, sampler):
        g = _embeddings(n=40, seed=9)
        rng = np.random.default_rng(4)
        iu, ju = np.triu_indices(40, k=1)
        pick = np.sort(rng.choice(iu.size, size=30, replace=False))
        scorer = PairScorer(g)
        scores = _stable_sigmoid(np.einsum("ij,ij->i", g[iu[pick]], g[ju[pick]]))
        with counting() as counts:
            select_edges_sparse(
                40,
                (iu[pick], ju[pick], scores),
                25,
                rng=np.random.default_rng(5),
                strategy="categorical_topk",
                score_rows=scorer,
                assume_unique=True,
                repair_sampler=sampler,
            )
        assert counts["repair_sampler"] == sampler
        assert counts["repair_s"] >= 0.0
        assert counts["repair_isolated"] >= 0
        if sampler == "factored" and counts["repair_isolated"]:
            assert counts["repair_proposals"] >= counts["repair_accepted"]
            assert (
                counts["repair_accepted"] + counts["repair_fallback"]
                >= counts["repair_drawn"]
            )


class TestModelLevel:
    @pytest.fixture(scope="class")
    def fitted(self):
        graph, __ = community_graph(60, 3, 5.0, seed=0)
        config = CPGANConfig(
            input_dim=4, node_embedding_dim=8, hidden_dim=16, latent_dim=8,
            pool_size=8, epochs=4, sample_size=60, seed=0,
        )
        return CPGAN(config).fit(graph)

    def test_factored_deterministic_across_threads(self, fitted, scoring_pool):
        base = fitted.generation_config(repair_sampler="factored")
        threaded = fitted.generation_config(
            repair_sampler="factored", generation_threads=4
        )
        a = fitted.generate(seed=13, config=base).edge_array()
        b = fitted.generate(seed=13, config=base).edge_array()
        assert scoring_pool == []
        c = fitted.generate(seed=13, config=threaded).edge_array()
        assert scoring_pool
        assert np.array_equal(a, b)
        assert np.array_equal(a, c)

    def test_dense_default_unchanged_by_new_plumbing(self, fitted):
        """Counting must not perturb the contract-v1 stream."""
        plain = fitted.generate(seed=21).edge_array()
        with counting() as counts:
            counted = fitted.generate(seed=21).edge_array()
        assert np.array_equal(plain, counted)
        assert counts["repair_sampler"] == "dense"
        assert counts["samples"] == 1

    def test_batch_matches_solo_for_factored(self, fitted):
        cfg = fitted.generation_config(repair_sampler="factored")
        solo = [
            fitted.generate(seed=s, config=cfg).edge_array() for s in (3, 4)
        ]
        batch = fitted.generate_batch((3, 4), config=cfg)
        for got, want in zip(batch, solo):
            assert np.array_equal(got.edge_array(), want)
