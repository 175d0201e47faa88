"""Suite-wide fixtures."""

import pytest

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
