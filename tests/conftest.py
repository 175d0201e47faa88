"""Suite-wide fixtures."""

import pytest

import repro.core.decoder as decoder_module
from repro.nn import is_grad_enabled, tensor


@pytest.fixture(autouse=True)
def _grad_recording_left_on():
    """Fail the test that leaves autograd recording off.

    A leaked ``nn.no_grad`` turns every later fit in the process into a
    silent no-op, and the failure would surface in some unrelated test.
    The flag is switched back on so only the leaking test is reported.
    """
    yield
    if not is_grad_enabled():
        tensor._GRAD_ENABLED.set(True)
        pytest.fail("test left nn.is_grad_enabled() False")


@pytest.fixture
def pool_sizes(monkeypatch):
    """The ``max_workers`` of every top-k scoring pool opened in the test."""
    sizes = []
    pool = decoder_module.ThreadPoolExecutor

    def spy(max_workers):
        sizes.append(max_workers)
        return pool(max_workers=max_workers)

    monkeypatch.setattr(decoder_module, "ThreadPoolExecutor", spy)
    return sizes


@pytest.fixture
def scoring_pool(monkeypatch, pool_sizes):
    """Open the top-k scoring pool for any schedule of two or more blocks.

    ``topk_pair_candidates`` scores serially below
    ``_BLOCKS_PER_SCORING_THREAD`` blocks per thread, which covers nearly
    every schedule small enough for a unit test, so a test that compares
    thread counts would compare serial with serial.  This fixture lowers
    the cutoff to one block per thread and returns :func:`pool_sizes`'
    list, so the test can assert that ``threads > 1`` did run the pool.
    """
    monkeypatch.setattr(decoder_module, "_BLOCKS_PER_SCORING_THREAD", 1)
    return pool_sizes
