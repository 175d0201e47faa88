"""Unit and property tests for the autograd engine (repro.nn.tensor)."""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.nn import Tensor, as_tensor, concat, is_grad_enabled, no_grad, stack


def numerical_gradient(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar-valued fn at x."""
    grad = np.zeros_like(x)
    flat = x.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = fn(x)
        flat[i] = orig - eps
        lo = fn(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * eps)
    return grad


def check_gradient(op, x: np.ndarray, atol: float = 1e-5) -> None:
    t = Tensor(x.copy(), requires_grad=True)
    out = op(t)
    loss = out.sum() if out.shape else out
    loss.backward()
    expected = numerical_gradient(lambda arr: float(op(Tensor(arr)).sum().data), x)
    np.testing.assert_allclose(t.grad, expected, atol=atol)


RNG = np.random.default_rng(0)


class TestForward:
    def test_add_broadcast(self):
        a = Tensor(np.ones((3, 4)))
        b = Tensor(np.arange(4.0))
        np.testing.assert_allclose(
            (a + b).data, np.tile(1.0 + np.arange(4.0), (3, 1))
        )

    def test_matmul(self):
        a = RNG.normal(size=(3, 4))
        b = RNG.normal(size=(4, 2))
        np.testing.assert_allclose((Tensor(a) @ Tensor(b)).data, a @ b)

    def test_softmax_rows_sum_to_one(self):
        x = Tensor(RNG.normal(size=(5, 7)))
        s = x.softmax(axis=-1).data
        np.testing.assert_allclose(s.sum(axis=-1), np.ones(5))

    def test_sigmoid_extreme_values_stable(self):
        x = Tensor(np.array([-1000.0, 0.0, 1000.0]))
        s = x.sigmoid().data
        assert np.all(np.isfinite(s))
        np.testing.assert_allclose(s, [0.0, 0.5, 1.0], atol=1e-12)

    def test_item_and_detach(self):
        t = Tensor(np.array(2.5), requires_grad=True)
        assert t.item() == 2.5
        d = t.detach()
        assert not d.requires_grad

    def test_integer_input_promoted_to_float(self):
        t = Tensor([1, 2, 3])
        assert t.data.dtype.kind == "f"


class TestBackward:
    @pytest.mark.parametrize(
        "op",
        [
            lambda t: t * t,
            lambda t: t + 2.0 * t,
            lambda t: t.relu(),
            lambda t: t.sigmoid(),
            lambda t: t.tanh(),
            lambda t: (t * t).exp() * 0.1,
            lambda t: (t * t + 1.0).log(),
            lambda t: t.softmax(axis=-1),
            lambda t: t.pow(3.0),
            lambda t: t.clip(-0.5, 0.5),
            lambda t: t.mean(axis=0),
            lambda t: t.max(axis=1),
            lambda t: t.transpose() @ t,
            lambda t: t.reshape(-1),
            lambda t: t[1:, :2],
        ],
    )
    def test_gradcheck_elementwise(self, op):
        x = RNG.normal(size=(3, 4)) * 0.7
        check_gradient(op, x)

    def test_gradcheck_matmul_both_sides(self):
        a = RNG.normal(size=(3, 4))
        b = RNG.normal(size=(4, 2))
        ta = Tensor(a.copy(), requires_grad=True)
        tb = Tensor(b.copy(), requires_grad=True)
        (ta @ tb).sum().backward()
        expected_a = numerical_gradient(lambda arr: float((arr @ b).sum()), a.copy())
        expected_b = numerical_gradient(lambda arr: float((a @ arr).sum()), b.copy())
        np.testing.assert_allclose(ta.grad, expected_a, atol=1e-5)
        np.testing.assert_allclose(tb.grad, expected_b, atol=1e-5)

    def test_gradient_accumulates_on_reuse(self):
        t = Tensor(np.array([2.0]), requires_grad=True)
        y = t * t + t  # dy/dt = 2t + 1 = 5
        y.backward()
        np.testing.assert_allclose(t.grad, [5.0])

    def test_broadcast_gradient_shape(self):
        a = Tensor(np.ones((3, 4)), requires_grad=True)
        b = Tensor(np.ones((4,)), requires_grad=True)
        ((a + b) * 2.0).sum().backward()
        assert a.grad.shape == (3, 4)
        assert b.grad.shape == (4,)
        np.testing.assert_allclose(b.grad, np.full(4, 6.0))

    def test_concat_routes_gradients(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones((2, 2)), requires_grad=True)
        out = concat([a, b], axis=1)
        (out * np.arange(5.0)).sum().backward()
        np.testing.assert_allclose(a.grad, np.tile([0, 1, 2.0], (2, 1)))
        np.testing.assert_allclose(b.grad, np.tile([3, 4.0], (2, 1)))

    def test_stack_routes_gradients(self):
        a = Tensor(np.zeros(3), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        out = stack([a, b], axis=0)
        (out * np.array([[1.0, 1, 1], [2, 2, 2]])).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones(3))
        np.testing.assert_allclose(b.grad, np.full(3, 2.0))

    def test_getitem_scatter_adds_duplicates(self):
        t = Tensor(np.zeros(3), requires_grad=True)
        picked = t[np.array([0, 0, 2])]
        picked.sum().backward()
        np.testing.assert_allclose(t.grad, [2.0, 0.0, 1.0])

    def test_no_grad_blocks_graph(self):
        t = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            out = t * 2.0
        assert not out.requires_grad
        assert out._prev == ()

    def test_no_grad_is_per_thread(self):
        """Interleaved blocks on two threads (A enters, B enters, A exits,
        B exits) leave recording on, and each block stays off until its
        own exit."""
        a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
        seen = {}

        def thread_a():
            with no_grad():
                a_in.set()
                b_in.wait(5)
            seen["a_after"] = is_grad_enabled()
            a_out.set()

        def thread_b():
            a_in.wait(5)
            with no_grad():
                b_in.set()
                a_out.wait(5)
                seen["b_inside"] = is_grad_enabled()

        threads = [threading.Thread(target=f) for f in (thread_a, thread_b)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
        assert not any(t.is_alive() for t in threads)
        assert seen == {"a_after": True, "b_inside": False}
        assert is_grad_enabled()
        t = Tensor(np.ones(2), requires_grad=True)
        assert (t * 2.0).requires_grad

    def test_zero_grad(self):
        t = Tensor(np.ones(2), requires_grad=True)
        (t * 3.0).sum().backward()
        assert t.grad is not None
        t.zero_grad()
        assert t.grad is None

    def test_max_ties_split_gradient(self):
        t = Tensor(np.array([[1.0, 1.0, 0.0]]), requires_grad=True)
        t.max(axis=1).sum().backward()
        np.testing.assert_allclose(t.grad, [[0.5, 0.5, 0.0]])


class TestProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        arrays(
            np.float64,
            array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6),
            elements=st.floats(-5, 5),
        )
    )
    def test_softmax_is_distribution(self, x):
        s = Tensor(x).softmax(axis=-1).data
        assert np.all(s >= 0)
        np.testing.assert_allclose(s.sum(axis=-1), 1.0, atol=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(
        arrays(
            np.float64,
            array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=5),
            elements=st.floats(-10, 10),
        )
    )
    def test_sum_matches_numpy(self, x):
        np.testing.assert_allclose(Tensor(x).sum().data, x.sum())

    @settings(max_examples=30, deadline=None)
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 5), st.integers(1, 5)),
            elements=st.floats(-3, 3),
        )
    )
    def test_relu_gradient_in_unit_interval(self, x):
        t = Tensor(x, requires_grad=True)
        t.relu().sum().backward()
        assert np.all((t.grad == 0.0) | (t.grad == 1.0))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6))
    def test_transpose_involution(self, n, m):
        x = RNG.normal(size=(n, m))
        np.testing.assert_allclose(Tensor(x).T.T.data, x)


def test_as_tensor_identity():
    t = Tensor([1.0])
    assert as_tensor(t) is t
