"""Additional coverage for less-travelled nn ops and containers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.nn import Sequential, Tensor, check_gradients
from repro.nn.functional import log_sigmoid, softplus


class TestArithmeticVariants:
    def test_rsub(self):
        t = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        out = 5.0 - t
        np.testing.assert_allclose(out.data, [4.0, 3.0])
        out.sum().backward()
        np.testing.assert_allclose(t.grad, [-1.0, -1.0])

    def test_rtruediv(self):
        t = Tensor(np.array([2.0, 4.0]), requires_grad=True)
        out = 8.0 / t
        np.testing.assert_allclose(out.data, [4.0, 2.0])
        out.sum().backward()
        np.testing.assert_allclose(t.grad, [-2.0, -0.5])

    def test_division_gradcheck(self):
        check_gradients(
            lambda t: (t / (t + 3.0)).sum(), np.array([1.0, 2.0, 0.5])
        )

    def test_sqrt_gradcheck(self):
        check_gradients(lambda t: t.sqrt().sum(), np.array([1.0, 4.0, 9.0]))

    def test_neg_chain(self):
        t = Tensor(np.array([3.0]), requires_grad=True)
        (-(-t)).sum().backward()
        np.testing.assert_allclose(t.grad, [1.0])

    def test_len_and_repr(self):
        t = Tensor(np.zeros((4, 2)), requires_grad=True)
        assert len(t) == 4
        assert "requires_grad=True" in repr(t)

    def test_numpy_view_no_copy(self):
        t = Tensor(np.zeros(3))
        t.numpy()[0] = 7.0
        assert t.data[0] == 7.0


class TestFunctionalExtras:
    def test_log_sigmoid_matches_naive(self):
        x = Tensor(np.array([-3.0, 0.0, 2.0]))
        naive = np.log(1.0 / (1.0 + np.exp(-x.data)))
        np.testing.assert_allclose(log_sigmoid(x).data, naive, atol=1e-9)

    def test_log_sigmoid_stable(self):
        x = Tensor(np.array([-800.0, 800.0]))
        out = log_sigmoid(x).data
        assert np.all(np.isfinite(out))
        assert out[1] == pytest.approx(0.0, abs=1e-9)

    def test_softplus_matches_naive(self):
        x = Tensor(np.array([-2.0, 0.0, 3.0]))
        np.testing.assert_allclose(
            softplus(x).data, np.log1p(np.exp(x.data)), atol=1e-9
        )

    def test_softplus_gradcheck(self):
        check_gradients(lambda t: softplus(t).sum(), np.array([-1.0, 0.5, 2.0]))

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.floats(-20, 20), min_size=1, max_size=10)
    )
    def test_property_softplus_bounds(self, values):
        x = Tensor(np.array(values))
        out = softplus(x).data
        # softplus(x) >= max(x, 0) and softplus(x) <= max(x,0) + log(2)
        ref = np.maximum(np.array(values), 0.0)
        assert np.all(out >= ref - 1e-9)
        assert np.all(out <= ref + np.log(2.0) + 1e-9)


class TestSequential:
    def test_runs_in_order(self):
        rng = np.random.default_rng(0)
        seq = Sequential(nn.Linear(3, 5, rng), nn.Linear(5, 2, rng))
        out = seq(Tensor(np.ones((4, 3))))
        assert out.shape == (4, 2)

    def test_parameters_discovered(self):
        rng = np.random.default_rng(0)
        seq = Sequential(nn.Linear(3, 5, rng), nn.Linear(5, 2, rng))
        assert len(list(seq.parameters())) == 4

    def test_trainable_end_to_end(self):
        rng = np.random.default_rng(1)
        seq = Sequential(nn.Linear(2, 4, rng), nn.Linear(4, 1, rng))
        opt = nn.Adam(seq.parameters(), lr=0.05)
        x = rng.normal(size=(16, 2))
        y = (x[:, :1] * 2.0 - x[:, 1:]) * 0.5
        for __ in range(200):
            opt.zero_grad()
            loss = nn.l2_diff(seq(Tensor(x)), y)
            loss.backward()
            opt.step()
        assert float(nn.l2_diff(seq(Tensor(x)), y).data) < 0.01


class TestMLPActivations:
    @pytest.mark.parametrize("act", ["relu", "tanh", "sigmoid", "identity"])
    def test_all_activations_run(self, act):
        rng = np.random.default_rng(0)
        mlp = nn.MLP([3, 4, 2], rng, activation=act)
        out = mlp(Tensor(np.ones((2, 3))))
        assert out.shape == (2, 2)

    def test_final_activation(self):
        rng = np.random.default_rng(0)
        mlp = nn.MLP([3, 4, 2], rng, final_activation="sigmoid")
        out = mlp(Tensor(np.random.default_rng(1).normal(size=(5, 3))))
        assert np.all((out.data > 0) & (out.data < 1))

    def test_too_few_sizes_rejected(self):
        with pytest.raises(ValueError):
            nn.MLP([3], np.random.default_rng(0))
