"""Tests for modules, graph layers, functional ops and optimizers."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.nn import (
    Adam,
    GRUCell,
    GraphConv,
    Linear,
    MLP,
    Module,
    PairNorm,
    Parameter,
    SGD,
    StepDecay,
    Tensor,
    bce_with_logits,
    binary_cross_entropy,
    cross_entropy_rows,
    kl_standard_normal,
    l2_diff,
    normalized_adjacency,
    spmm,
)

RNG = np.random.default_rng(42)


class TestModule:
    def test_parameter_discovery_recursive(self):
        class Inner(Module):
            def __init__(self):
                self.w = Parameter(np.ones((2, 2)))

        class Outer(Module):
            def __init__(self):
                self.inner = Inner()
                self.b = Parameter(np.zeros(3))
                self.stack = [Inner(), Inner()]

        outer = Outer()
        params = list(outer.parameters())
        assert len(params) == 4
        assert outer.num_parameters() == 4 + 3 + 4 + 4

    def test_state_dict_roundtrip(self):
        lin = Linear(3, 2, RNG)
        state = lin.state_dict()
        lin2 = Linear(3, 2, np.random.default_rng(7))
        lin2.load_state_dict(state)
        x = Tensor(RNG.normal(size=(4, 3)))
        np.testing.assert_allclose(lin(x).data, lin2(x).data)

    def test_load_state_dict_shape_mismatch(self):
        lin = Linear(3, 2, RNG)
        with pytest.raises(ValueError):
            lin.load_state_dict([np.zeros((9, 9)), np.zeros(2)])

    def test_zero_grad_clears(self):
        lin = Linear(2, 1, RNG)
        lin(Tensor(np.ones((1, 2)))).sum().backward()
        assert lin.weight.grad is not None
        lin.zero_grad()
        assert lin.weight.grad is None


class TestLayers:
    def test_linear_shapes(self):
        lin = Linear(5, 3, RNG)
        out = lin(Tensor(np.ones((7, 5))))
        assert out.shape == (7, 3)

    def test_mlp_trains_xor(self):
        """A 2-layer MLP must fit XOR — end-to-end autograd check."""
        rng = np.random.default_rng(0)
        x = np.array([[0.0, 0], [0, 1], [1, 0], [1, 1]])
        y = np.array([[0.0], [1], [1], [0]])
        mlp = MLP([2, 8, 1], rng, activation="tanh")
        opt = Adam(mlp.parameters(), lr=0.05)
        for _ in range(400):
            opt.zero_grad()
            loss = binary_cross_entropy(mlp(Tensor(x)).sigmoid(), y)
            loss.backward()
            opt.step()
        pred = mlp(Tensor(x)).sigmoid().data
        assert np.all((pred > 0.5) == (y > 0.5))

    def test_gru_cell_shapes_and_grad(self):
        gru = GRUCell(4, 6, RNG)
        h = Tensor(np.zeros((3, 6)))
        x = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
        out = gru(h, x)
        assert out.shape == (3, 6)
        out.sum().backward()
        assert x.grad is not None
        assert gru.w_ih.grad is not None

    def test_gru_zero_update_keeps_candidate_behaviour(self):
        """GRU output must stay within tanh bounds when h=0."""
        gru = GRUCell(3, 3, RNG)
        out = gru(Tensor(np.zeros((2, 3))), Tensor(RNG.normal(size=(2, 3))))
        assert np.all(np.abs(out.data) <= 1.0)

    def test_pairnorm_zero_mean_constant_scale(self):
        pn = PairNorm(scale=2.0)
        x = Tensor(RNG.normal(size=(10, 4)) * 13 + 5)
        out = pn(x).data
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-8)
        np.testing.assert_allclose(np.sqrt((out**2).mean()), 2.0, rtol=1e-5)


class TestGraphConv:
    def test_normalized_adjacency_symmetric_rows(self):
        a = sp.csr_matrix(np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0.0]]))
        norm = normalized_adjacency(a)
        dense = norm.toarray()
        np.testing.assert_allclose(dense, dense.T, atol=1e-12)
        # Eigenvalues of sym-normalised adjacency with self loops lie in [-1, 1].
        eigs = np.linalg.eigvalsh(dense)
        assert eigs.max() <= 1.0 + 1e-9

    def test_normalized_adjacency_power(self):
        a = sp.csr_matrix(
            np.array([[0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0.0]])
        )
        n1 = normalized_adjacency(a, power=1).toarray()
        n2 = normalized_adjacency(a, power=2).toarray()
        # A + A^2 connects 2-hop neighbours: (0,2) becomes nonzero.
        assert n1[0, 2] == 0.0
        assert n2[0, 2] > 0.0

    def test_spmm_matches_dense_and_grad(self):
        a = sp.random(6, 6, density=0.4, random_state=1, format="csr")
        x = Tensor(RNG.normal(size=(6, 3)), requires_grad=True)
        out = spmm(a, x)
        np.testing.assert_allclose(out.data, a.toarray() @ x.data)
        out.sum().backward()
        np.testing.assert_allclose(
            x.grad, a.T.toarray() @ np.ones((6, 3)), atol=1e-12
        )

    def test_graphconv_permutation_equivariance(self):
        """GCN(PAPᵀ, PX) == P · GCN(A, X) — the paper's Eq. 5 requirement."""
        rng = np.random.default_rng(3)
        n, d = 8, 5
        a = (rng.random((n, n)) < 0.4).astype(float)
        a = np.triu(a, 1)
        a = a + a.T
        x = rng.normal(size=(n, d))
        perm = rng.permutation(n)
        p = np.eye(n)[perm]
        conv = GraphConv(d, 4, np.random.default_rng(11))
        out = conv(Tensor(x), normalized_adjacency(sp.csr_matrix(a))).data
        out_p = conv(
            Tensor(p @ x), normalized_adjacency(sp.csr_matrix(p @ a @ p.T))
        ).data
        np.testing.assert_allclose(out_p, p @ out, atol=1e-10)

    def test_graphconv_invalid_activation(self):
        with pytest.raises(ValueError):
            GraphConv(2, 2, RNG, activation="softsign")


class TestFunctional:
    def test_bce_matches_formula(self):
        p = Tensor(np.array([0.9, 0.1]))
        t = np.array([1.0, 0.0])
        expected = -np.mean([np.log(0.9), np.log(0.9)])
        np.testing.assert_allclose(binary_cross_entropy(p, t).data, expected)

    def test_bce_with_logits_matches_probability_version(self):
        logits = RNG.normal(size=(4, 4))
        target = (RNG.random((4, 4)) < 0.5).astype(float)
        a = bce_with_logits(Tensor(logits), target).data
        b = binary_cross_entropy(Tensor(logits).sigmoid(), target).data
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_bce_with_logits_stable_at_extremes(self):
        logits = Tensor(np.array([1000.0, -1000.0]), requires_grad=True)
        loss = bce_with_logits(logits, np.array([1.0, 0.0]))
        assert np.isfinite(loss.data)
        loss.backward()
        assert np.all(np.isfinite(logits.grad))

    def test_kl_standard_normal_zero_at_prior(self):
        mu = Tensor(np.zeros((5, 3)))
        log_var = Tensor(np.zeros((5, 3)))
        np.testing.assert_allclose(kl_standard_normal(mu, log_var).data, 0.0)

    def test_kl_standard_normal_positive(self):
        mu = Tensor(RNG.normal(size=(5, 3)) + 1.0)
        log_var = Tensor(RNG.normal(size=(5, 3)))
        assert kl_standard_normal(mu, log_var).data > 0

    def test_mse(self):
        np.testing.assert_allclose(
            l2_diff(Tensor(np.array([1.0, 2.0])), np.array([0.0, 0.0])).data, 2.5
        )

    def test_cross_entropy_rows_perfect_prediction(self):
        probs = Tensor(np.eye(3))
        loss = cross_entropy_rows(probs, np.array([0, 1, 2]))
        np.testing.assert_allclose(loss.data, 0.0, atol=1e-9)


class TestOptim:
    def test_sgd_descends_quadratic(self):
        p = Parameter(np.array([10.0]))
        opt = SGD([p], lr=0.1)
        for _ in range(100):
            opt.zero_grad()
            (p * p).sum().backward()
            opt.step()
        assert abs(p.data[0]) < 1e-3

    def test_sgd_momentum_faster_than_plain(self):
        def run(momentum):
            p = Parameter(np.array([10.0]))
            opt = SGD([p], lr=0.01, momentum=momentum)
            for _ in range(50):
                opt.zero_grad()
                (p * p).sum().backward()
                opt.step()
            return abs(p.data[0])

        assert run(0.9) < run(0.0)

    def test_adam_descends_rosenbrock_ish(self):
        p = Parameter(np.array([3.0, -2.0]))
        opt = Adam([p], lr=0.05)
        for _ in range(500):
            opt.zero_grad()
            loss = ((p - np.array([1.0, 2.0])) ** 2.0).sum()
            loss.backward()
            opt.step()
        np.testing.assert_allclose(p.data, [1.0, 2.0], atol=1e-2)

    def test_adam_clips_gradient_norm(self):
        p = Parameter(np.array([0.0]))
        opt = Adam([p], lr=1.0, clip_norm=1.0)
        opt.zero_grad()
        (p * 1e9).sum().backward()
        opt.step()
        # One Adam step moves by at most lr regardless of raw gradient.
        assert abs(p.data[0]) <= 1.0 + 1e-6

    def test_step_decay_schedule(self):
        p = Parameter(np.zeros(1))
        opt = Adam([p], lr=1e-3)
        sched = StepDecay(opt, step_size=400, gamma=0.3)
        for _ in range(400):
            sched.step()
        np.testing.assert_allclose(opt.lr, 3e-4)
        for _ in range(400):
            sched.step()
        np.testing.assert_allclose(opt.lr, 9e-5)

    def test_step_decay_invalid(self):
        with pytest.raises(ValueError):
            StepDecay(Adam([Parameter(np.zeros(1))], lr=1.0), step_size=0)

    def test_optimizer_requires_parameters(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)
