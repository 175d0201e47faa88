"""Gradcheck coverage for the fused autograd kernels, the vectorized-MMD
equivalence guarantee, and same-seed training determinism."""

import numpy as np
import pytest

from repro.core import CPGAN, CPGANConfig
from repro.datasets import community_graph
from repro.metrics import gaussian_emd_kernel, mmd_squared, mmd_squared_reference
from repro.nn import GRUCell, Tensor, check_gradients
from repro.nn.functional import (
    bce_with_logits,
    bias_act,
    dual_linear,
    gru_blend,
    l2_diff,
    linear,
)

RNG = np.random.default_rng(7)

ACTIVATIONS = ["identity", "relu", "tanh", "sigmoid"]


def const(shape):
    """A non-differentiable tensor operand."""
    return Tensor(RNG.normal(size=shape))


class TestFusedLinear:
    @pytest.mark.parametrize("activation", ACTIVATIONS)
    def test_grad_wrt_input(self, activation):
        w, b = const((4, 3)), const((3,))
        check_gradients(
            lambda t: linear(t, w, b, activation), RNG.normal(size=(5, 4))
        )

    @pytest.mark.parametrize("activation", ACTIVATIONS)
    def test_grad_wrt_weight(self, activation):
        x, b = const((5, 4)), const((3,))
        check_gradients(
            lambda t: linear(x, t, b, activation), RNG.normal(size=(4, 3))
        )

    def test_grad_wrt_bias(self):
        x, w = const((5, 4)), const((4, 3))
        check_gradients(
            lambda t: linear(x, w, t, "tanh"), RNG.normal(size=(3,))
        )

    def test_no_bias(self):
        w = const((4, 3))
        check_gradients(lambda t: linear(t, w), RNG.normal(size=(5, 4)))

    def test_matches_unfused_composition(self):
        x, w, b = const((5, 4)), const((4, 3)), const((3,))
        fused = linear(x, w, b, "relu").data
        unfused = (x @ w + b).relu().data
        np.testing.assert_array_equal(fused, unfused)

    def test_rejects_unknown_activation(self):
        with pytest.raises(ValueError, match="unsupported activation"):
            linear(const((2, 2)), const((2, 2)), activation="gelu")


class TestFusedDualLinear:
    @pytest.mark.parametrize(
        "slot", ["x", "wx", "h", "wh", "bias"]
    )
    def test_grad_each_operand(self, slot):
        operands = {
            "x": RNG.normal(size=(5, 4)),
            "wx": RNG.normal(size=(4, 3)),
            "h": RNG.normal(size=(5, 2)),
            "wh": RNG.normal(size=(2, 3)),
            "bias": RNG.normal(size=(3,)),
        }

        def fn(t):
            args = {k: Tensor(v) for k, v in operands.items()}
            args[slot] = t
            return dual_linear(
                args["x"], args["wx"], args["h"], args["wh"], args["bias"],
                "sigmoid",
            )

        check_gradients(fn, operands[slot])

    def test_matches_unfused_composition(self):
        x, wx, h, wh, b = (
            const((5, 4)), const((4, 3)), const((5, 2)), const((2, 3)),
            const((3,)),
        )
        fused = dual_linear(x, wx, h, wh, b, "tanh").data
        unfused = (x @ wx + h @ wh + b).tanh().data
        np.testing.assert_array_equal(fused, unfused)


class TestFusedGRUBlend:
    @pytest.mark.parametrize(
        "slot, zero_state",
        [("update", False), ("h", False), ("candidate", False),
         ("update", True), ("candidate", True)],
    )
    def test_grad_each_operand(self, slot, zero_state):
        operands = {
            "update": RNG.uniform(0.05, 0.95, size=(5, 3)),
            "h": RNG.normal(size=(5, 3)),
            "candidate": RNG.normal(size=(5, 3)),
        }

        def fn(t):
            args = {k: Tensor(v) for k, v in operands.items()}
            args[slot] = t
            h = None if zero_state else args["h"]
            return gru_blend(args["update"], h, args["candidate"])

        check_gradients(fn, operands[slot])

    @pytest.mark.parametrize("zero_state", [False, True])
    def test_matches_unfused_composition_bitwise(self, zero_state):
        """Output and every gradient equal the Tensor composition's bits."""
        data = [RNG.uniform(size=(6, 4)), RNG.normal(size=(6, 4)),
                RNG.normal(size=(6, 4))]
        upstream = RNG.normal(size=(6, 4))
        results = []
        for fused in (True, False):
            u, h, c = (Tensor(d, requires_grad=True) for d in data)
            if zero_state:
                h = None
            if fused:
                out = gru_blend(u, h, c)
            elif zero_state:
                out = (1.0 - u) * c
            else:
                out = u * h + (1.0 - u) * c
            out.backward(upstream)
            grads = [t.grad.tobytes() for t in (u, h, c) if t is not None]
            results.append((out.data.tobytes(), grads))
        assert results[0] == results[1]


class TestGRUZeroState:
    """``GRUCell(None, x)`` is the zero state with its zero terms skipped."""

    @staticmethod
    def cell():
        return GRUCell(4, 3, np.random.default_rng(11))

    def test_none_equals_zero_tensor_bitwise(self):
        x = RNG.normal(size=(6, 4))
        upstream = RNG.normal(size=(6, 3))
        runs = []
        for h in (None, Tensor(np.zeros((6, 3)))):
            cell = self.cell()
            xt = Tensor(x, requires_grad=True)
            out = cell(h, xt)
            out.backward(upstream)
            grads = {
                name: getattr(cell, name).grad
                for name in ("w_ih", "w_hh", "b_gates", "w_in", "w_hn", "b_cand")
            }
            grads["x"] = xt.grad
            runs.append((out.data, grads))
        (skip_out, skip_grads), (zero_out, zero_grads) = runs
        assert skip_out.tobytes() == zero_out.tobytes()
        for name in ("w_hh", "w_hn"):
            # h is zero, so these only ever get a zero gradient; the zero
            # state skips the multiply instead.
            assert skip_grads[name] is None
            assert not np.any(zero_grads[name])
        for name in ("w_ih", "b_gates", "w_in", "b_cand", "x"):
            assert skip_grads[name].tobytes() == zero_grads[name].tobytes(), name

    @pytest.mark.parametrize("operand", ["x", "w_ih", "b_gates", "w_in", "b_cand"])
    def test_gradcheck(self, operand):
        cell = self.cell()
        x = Tensor(RNG.normal(size=(5, 4)))
        start = x.data if operand == "x" else getattr(cell, operand).data

        def fn(t):
            if operand == "x":
                return cell(None, t)
            setattr(cell, operand, t)
            return cell(None, x)

        check_gradients(fn, start.copy())


class TestFusedBiasAct:
    @pytest.mark.parametrize("activation", ACTIVATIONS)
    def test_grad_wrt_input(self, activation):
        b = const((3,))
        check_gradients(
            lambda t: bias_act(t, b, activation), RNG.normal(size=(5, 3))
        )

    def test_grad_wrt_broadcast_bias(self):
        x = const((5, 3))
        check_gradients(lambda t: bias_act(x, t, "relu"), RNG.normal(size=(3,)))

    def test_identity_without_bias_is_passthrough(self):
        x = Tensor(RNG.normal(size=(4, 2)), requires_grad=True)
        assert bias_act(x, None) is x

    def test_activation_without_bias(self):
        check_gradients(lambda t: bias_act(t, None, "tanh"), RNG.normal(size=(4, 2)))


class TestFusedBCEWithLogits:
    def test_grad_unweighted(self):
        target = (RNG.random((4, 5)) < 0.4).astype(float)
        check_gradients(
            lambda t: bce_with_logits(t, target), RNG.normal(size=(4, 5))
        )

    def test_grad_weighted(self):
        target = (RNG.random((4, 5)) < 0.4).astype(float)
        weight = RNG.random((4, 5)) + 0.5
        check_gradients(
            lambda t: bce_with_logits(t, target, weight),
            RNG.normal(size=(4, 5)),
        )

    def test_stable_at_extreme_logits(self):
        logits = Tensor(np.array([1000.0, -1000.0]), requires_grad=True)
        loss = bce_with_logits(logits, np.array([1.0, 0.0]))
        assert np.isfinite(loss.data)
        loss.backward()
        assert np.all(np.isfinite(logits.grad))

    def test_matches_probability_bce(self):
        from repro.nn import binary_cross_entropy

        logits = RNG.normal(size=(4, 4))
        target = (RNG.random((4, 4)) < 0.5).astype(float)
        fused = bce_with_logits(Tensor(logits), target).data
        via_probs = binary_cross_entropy(Tensor(logits).sigmoid(), target).data
        np.testing.assert_allclose(fused, via_probs, atol=1e-9)


class TestFusedL2Diff:
    def test_grad_wrt_first(self):
        b = const((4, 3))
        check_gradients(lambda t: l2_diff(t, b), RNG.normal(size=(4, 3)))

    def test_grad_wrt_second(self):
        a = const((4, 3))
        check_gradients(lambda t: l2_diff(a, t), RNG.normal(size=(4, 3)))

    def test_grad_with_broadcasting(self):
        b = const((3,))
        check_gradients(lambda t: l2_diff(t, b), RNG.normal(size=(4, 3)))

    def test_matches_unfused_mse(self):
        a, b = RNG.normal(size=(4, 3)), RNG.normal(size=(4, 3))
        diff = Tensor(a) - Tensor(b)
        np.testing.assert_allclose(
            l2_diff(Tensor(a), Tensor(b)).data, (diff * diff).mean().data
        )


class TestDedicatedSqrt:
    def test_forward_uses_np_sqrt(self):
        x = np.array([0.25, 1.0, 4.0, 9.0])
        np.testing.assert_array_equal(Tensor(x).sqrt().data, np.sqrt(x))

    def test_gradcheck(self):
        check_gradients(lambda t: t.sqrt(), RNG.random(6) + 0.5)

    def test_single_node(self):
        x = Tensor(np.array([4.0]), requires_grad=True)
        out = x.sqrt()
        assert out._prev == (x,)


class TestVectorizedMMD:
    def _random_histograms(self, rng, count, max_bins):
        # Strictly positive counts: real callers (degree_mmd, clustering_mmd)
        # never feed all-zero histograms, and the closed-form EMD is only
        # defined for normalisable ones.
        return [
            rng.integers(1, 20, size=rng.integers(1, max_bins + 1)).astype(float)
            for _ in range(count)
        ]

    @pytest.mark.parametrize(
        "sigma,bin_width", [(1.0, 1.0), (0.1, 0.01), (2.5, 0.5)]
    )
    def test_matches_scalar_reference(self, sigma, bin_width):
        rng = np.random.default_rng(11)
        a = self._random_histograms(rng, 9, 30)
        b = self._random_histograms(rng, 7, 30)
        kernel = gaussian_emd_kernel(sigma, bin_width)
        fast = mmd_squared(a, b, kernel)
        reference = mmd_squared_reference(a, b, kernel)
        assert abs(fast - reference) < 1e-12

    def test_default_kernel_matches_reference(self):
        rng = np.random.default_rng(13)
        a = self._random_histograms(rng, 5, 12)
        b = self._random_histograms(rng, 5, 12)
        assert abs(mmd_squared(a, b) - mmd_squared_reference(a, b)) < 1e-12

    def test_custom_kernel_falls_back_to_reference(self):
        rng = np.random.default_rng(17)
        a = self._random_histograms(rng, 4, 8)
        b = self._random_histograms(rng, 4, 8)

        def dot_kernel(x, y):
            size = max(x.size, y.size)
            xp = np.pad(x, (0, size - x.size))
            yp = np.pad(y, (0, size - y.size))
            return float(xp @ yp)

        assert mmd_squared(a, b, dot_kernel) == mmd_squared_reference(
            a, b, dot_kernel
        )

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            mmd_squared([], [np.ones(3)])


class TestTrainingDeterminism:
    def test_same_seed_fit_is_bit_identical(self):
        """Two CPGAN.fit runs with one seed: bit-identical loss traces."""
        graph, __ = community_graph(40, 3, 5.0, seed=2)
        traces = []
        for _ in range(2):
            model = CPGAN(CPGANConfig(epochs=3, seed=5))
            model.fit(graph)
            hist = model.history
            traces.append(
                np.array(
                    [
                        hist.total,
                        hist.reconstruction,
                        hist.kl,
                        hist.clustering,
                        hist.adversarial,
                        hist.mapping,
                        hist.discriminator,
                    ]
                )
            )
        np.testing.assert_array_equal(traces[0], traces[1])


class TestGradReleaseAndAccumulate:
    def test_interior_grads_released_after_backward(self):
        x = Tensor(RNG.normal(size=(4, 4)), requires_grad=True)
        mid = (x * 2.0).relu()
        loss = (mid * mid).sum()
        loss.backward()
        assert x.grad is not None          # leaf keeps its gradient
        assert mid.grad is None            # interior buffer was released
        assert loss.grad is None

    def test_fan_out_accumulates_both_paths(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        y = x * 3.0
        loss = (y + y).sum()               # y consumed by two paths
        loss.backward()
        np.testing.assert_allclose(x.grad, [6.0, 6.0])

    def test_repeated_backward_accumulates_into_leaves(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        (x * x).sum().backward()
        first = x.grad.copy()
        (x * x).sum().backward()
        np.testing.assert_allclose(x.grad, 2.0 * first)

    def test_adopted_gradient_not_shared_with_sibling(self):
        # a + b routes the same upstream buffer to both leaves; a second
        # contribution to one of them must not corrupt the other.
        a = Tensor(np.array([1.0, 1.0]), requires_grad=True)
        b = Tensor(np.array([2.0, 2.0]), requires_grad=True)
        loss = ((a + b) + a * 1.0).sum()
        loss.backward()
        np.testing.assert_allclose(a.grad, [2.0, 2.0])
        np.testing.assert_allclose(b.grad, [1.0, 1.0])
