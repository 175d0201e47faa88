"""Regenerate tests/data/repair_golden_stream.json.

The golden file pins three sampler streams bit for bit:

* ``scenarios`` — the float64 dense repair stream: the exact edge set
  ``select_edges_sparse`` produces for fixed synthetic inputs, including
  the categorical partner draws of the isolated-node repair pass
  (contract v1);
* ``factored_scenarios`` — the same selection with the factored
  (envelope rejection) repair sampler, in float64 and float32 (contract
  v2);
* ``cross_scenarios`` — ``repro.hier.stitch.sample_cross_edges`` on one
  ordinary community block and one whose budget nearly fills the block,
  so the top-score fill runs.

Any change to a sampler's RNG consumption pattern, CDF arithmetic,
partner lookup, dedup, or eviction order shows up as a diff against this
file and must be treated as a reproducibility-contract break.

Run from the repository root:

    PYTHONPATH=src python scripts/make_repair_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.core.decoder import PairScorer
from repro.graphs.assembly import select_edges_sparse
from repro.hier.stitch import sample_cross_edges

OUT = Path(__file__).resolve().parents[1] / "tests" / "data" / "repair_golden_stream.json"


def _scenario_matrix(n: int, seed: int, zero_rows: int = 0) -> np.ndarray:
    """Symmetric non-negative score matrix with a sharp (sparse-ish) tail."""
    rng = np.random.default_rng(seed)
    s = rng.random((n, n)) ** 6
    s = (s + s.T) / 2.0
    np.fill_diagonal(s, 0.0)
    if zero_rows:
        dead = rng.choice(n, size=zero_rows, replace=False)
        s[dead, :] = 0.0
        s[:, dead] = 0.0
    return s


def _scenario(n: int, seed: int, num_candidates: int, num_edges: int,
              zero_rows: int = 0) -> dict:
    s = _scenario_matrix(n, seed, zero_rows)
    rng = np.random.default_rng(seed + 1)
    iu, ju = np.triu_indices(n, k=1)
    pick = rng.choice(iu.size, size=min(num_candidates, iu.size), replace=False)
    pick.sort()
    u, v = iu[pick], ju[pick]
    edges = select_edges_sparse(
        n,
        (u, v, s[u, v]),
        num_edges,
        rng=np.random.default_rng(seed + 2),
        strategy="categorical_topk",
        score_rows=lambda nodes: s[nodes],
        assume_unique=True,
    )
    return {
        "n": n,
        "seed": seed,
        "num_candidates": int(pick.size),
        "num_edges": num_edges,
        "zero_rows": zero_rows,
        "edges": edges.tolist(),
    }


def _features(n: int, seed: int, dtype: str) -> np.ndarray:
    """Pair-feature rows with a spread of norms, cast to ``dtype``."""
    rng = np.random.default_rng(seed)
    g = rng.normal(scale=0.8, size=(n, 8)) * rng.uniform(0.2, 1.5, size=(n, 1))
    return g.astype(dtype)


def _factored_scenario(n: int, seed: int, num_candidates: int,
                       num_edges: int, dtype: str) -> dict:
    scorer = PairScorer(_features(n, seed, dtype))
    rng = np.random.default_rng(seed + 1)
    iu, ju = np.triu_indices(n, k=1)
    pick = np.sort(rng.choice(iu.size, size=num_candidates, replace=False))
    u, v = iu[pick], ju[pick]
    scores = scorer(u)[np.arange(u.size), v]
    edges = select_edges_sparse(
        n,
        (u, v, scores),
        num_edges,
        rng=np.random.default_rng(seed + 2),
        strategy="categorical_topk",
        score_rows=scorer,
        assume_unique=True,
        repair_sampler="factored",
    )
    return {
        "n": n,
        "seed": seed,
        "num_candidates": num_candidates,
        "num_edges": num_edges,
        "dtype": dtype,
        "edges": edges.tolist(),
    }


def _cross_scenario(n_a: int, n_b: int, seed: int, budget: int,
                    dtype: str) -> dict:
    g = _features(n_a + n_b + 10, seed, dtype)
    members = np.random.default_rng(seed + 1).permutation(g.shape[0])
    members_a = np.sort(members[:n_a])
    members_b = np.sort(members[n_a : n_a + n_b])
    edges = sample_cross_edges(
        g, members_a, members_b, budget, np.random.default_rng(seed + 2)
    )
    return {
        "n_a": n_a,
        "n_b": n_b,
        "seed": seed,
        "budget": budget,
        "dtype": dtype,
        "edges": edges.tolist(),
    }


def main() -> None:
    scenarios = [
        # Multi-block repair: ~2000 isolated sources at n=2048 exceeds the
        # 2M-element scratch budget, so _draw_partners streams >= 2 blocks;
        # num_edges below candidates + repairs also exercises eviction.
        _scenario(n=2048, seed=11, num_candidates=400, num_edges=1500),
        # Zero-score rows: dead nodes draw nothing and are dropped.
        _scenario(n=64, seed=5, num_candidates=30, num_edges=48, zero_rows=8),
    ]
    factored_scenarios = [
        # ~450 isolated sources: several proposal rounds, then eviction.
        _factored_scenario(n=600, seed=21, num_candidates=200,
                           num_edges=500, dtype="float64"),
        _factored_scenario(n=600, seed=22, num_candidates=200,
                           num_edges=500, dtype="float32"),
    ]
    cross_scenarios = [
        # An ordinary block: rejection rounds alone meet the budget.
        _cross_scenario(n_a=60, n_b=80, seed=31, budget=150, dtype="float32"),
        # 115 of 120 pairs: rejection stalls and the top-score fill runs.
        _cross_scenario(n_a=12, n_b=10, seed=32, budget=115, dtype="float64"),
    ]
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(
        json.dumps(
            {
                "contract": 1,
                "scenarios": scenarios,
                "factored_scenarios": factored_scenarios,
                "cross_scenarios": cross_scenarios,
            }
        )
        + "\n"
    )
    every = scenarios + factored_scenarios + cross_scenarios
    print(f"wrote {OUT} ({sum(len(sc['edges']) for sc in every)} edges)")


if __name__ == "__main__":
    main()
