"""Repair eviction: the one-pass ``_choose_evictions`` equals the greedy scan."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.assembly import _choose_evictions


def _reference_choose_evictions(
    u: np.ndarray,
    v: np.ndarray,
    order: np.ndarray,
    degree: np.ndarray,
    overflow: int,
    n: int,
) -> np.ndarray:
    """The one-at-a-time greedy (with its batch fast path), kept verbatim
    as the semantic reference."""
    safe = np.flatnonzero((degree[u[order]] > 1) & (degree[v[order]] > 1))
    batch = order[safe[:overflow]]
    loss = np.bincount(np.concatenate([u[batch], v[batch]]), minlength=n)
    if batch.size == overflow and (degree[loss > 0] > loss[loss > 0]).all():
        return batch
    degree = degree.copy()
    evict: list[int] = []
    for idx in order:
        if len(evict) == overflow:
            break
        a, b = u[idx], v[idx]
        if degree[a] > 1 and degree[b] > 1:
            evict.append(int(idx))
            degree[a] -= 1
            degree[b] -= 1
    if len(evict) < overflow:
        taken = np.zeros(u.size, dtype=bool)
        taken[evict] = True
        rest = order[~taken[order]][: overflow - len(evict)]
        evict.extend(int(i) for i in rest)
    return np.asarray(evict, dtype=np.int64)


def _random_pairs(rng, n, count):
    """Up to ``count`` distinct ``u < v`` pairs over ``n`` nodes."""
    a = rng.integers(0, n, size=count)
    b = rng.integers(0, n, size=count)
    pairs = sorted(
        {(min(x, y), max(x, y)) for x, y in zip(a.tolist(), b.tolist()) if x != y}
    )
    rng.shuffle(pairs)
    return pairs


def _paths(rng, n):
    """Disjoint random paths and cycles: interior nodes have degree 2."""
    nodes = rng.permutation(n).tolist()
    pairs = []
    while len(nodes) >= 2:
        size = int(rng.integers(2, min(len(nodes), 6) + 1))
        chain, nodes = nodes[:size], nodes[size:]
        links = list(zip(chain, chain[1:]))
        if size >= 3 and rng.random() < 0.5:
            links.append((chain[-1], chain[0]))
        pairs.extend((min(x, y), max(x, y)) for x, y in links)
    return pairs


def _case(seed, n, shape, repairs, permute):
    rng = np.random.default_rng(seed)
    if shape == "paths":
        pairs = _paths(rng, n)
    else:
        pairs = _random_pairs(rng, n, int(rng.integers(1, 3 * n)))
    u = np.array([p[0] for p in pairs], dtype=np.int64)
    v = np.array([p[1] for p in pairs], dtype=np.int64)
    extra = _random_pairs(rng, n, repairs) if repairs else []
    eu = np.array([p[0] for p in extra], dtype=np.int64)
    ev = np.array([p[1] for p in extra], dtype=np.int64)
    degree = np.bincount(np.concatenate([u, v, eu, ev]), minlength=n)
    order = rng.permutation(u.size) if permute else np.arange(u.size)[::-1]
    return u, v, order, degree


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 14),
    shape=st.sampled_from(["random", "paths"]),
    repairs=st.integers(0, 6),
    permute=st.booleans(),
    overflow_frac=st.floats(0.0, 1.3),
)
def test_matches_greedy_scan(seed, n, shape, repairs, permute, overflow_frac):
    u, v, order, degree = _case(seed, n, shape, repairs, permute)
    if u.size == 0:
        return
    overflow = max(1, int(round(overflow_frac * (u.size + 1))))
    expected = _reference_choose_evictions(u, v, order, degree, overflow, n)
    got = _choose_evictions(u, v, order, degree, overflow, n)
    assert got.dtype == np.int64
    assert sorted(got.tolist()) == sorted(expected.tolist())


@pytest.mark.parametrize("repairs", [0, 3])
@pytest.mark.parametrize("shape", ["random", "paths"])
def test_every_overflow_up_to_past_the_safe_count(shape, repairs):
    """Sweep ``overflow`` from 1 to past the edge count, so every case also
    runs the unsafe fallback (fewer safe edges than ``overflow``)."""
    for seed in range(40):
        u, v, order, degree = _case(seed, 9, shape, repairs, seed % 2 == 0)
        for overflow in range(1, u.size + 3):
            expected = _reference_choose_evictions(
                u, v, order, degree, overflow, 9
            )
            got = _choose_evictions(u, v, order, degree, overflow, 9)
            assert sorted(got.tolist()) == sorted(expected.tolist())


@pytest.mark.parametrize(
    "repair_at_0, overflow, expected",
    [
        (False, 1, [0]),
        (False, 2, [0, 1]),  # one safe edge, then the unsafe fallback
        (True, 2, [0, 2]),  # the repair edge keeps node 0 above degree 1
        (True, 3, [0, 2, 1]),
    ],
)
def test_triangle_with_pendant(repair_at_0, overflow, expected):
    # Triangle 0-1-2 plus pendant 2-3, scanned in index order.  Evicting
    # (0, 1) leaves nodes 0 and 1 at degree 1, so (1, 2) and (0, 2) are
    # refused, and (2, 3) always is (node 3 is a leaf).
    u = np.array([0, 1, 0, 2], dtype=np.int64)
    v = np.array([1, 2, 2, 3], dtype=np.int64)
    degree = np.bincount(np.concatenate([u, v]), minlength=4)
    degree[0] += int(repair_at_0)
    order = np.arange(4)
    got = _choose_evictions(u, v, order, degree, overflow, 4)
    assert got.tolist() == expected
    assert got.tolist() == _reference_choose_evictions(
        u, v, order, degree, overflow, 4
    ).tolist()
