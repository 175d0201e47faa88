"""Free-function neural-network operations used across the reproduction.

These compose :class:`repro.nn.Tensor` primitives into the losses and
sparse-aware operations the CPGAN paper needs: numerically-stable binary
cross-entropy (Eq. 14/16), the KL divergence against the standard normal
prior (Eq. 19), and ``spmm`` — sparse-matrix × dense-tensor products so that
graph convolution costs O(m + n) as the paper claims (§III-C1).

The ``linear`` / ``dual_linear`` / ``gru_blend`` / ``bias_act`` /
``bce_with_logits`` / ``l2_diff`` family are *fused* kernels: each records a
single autograd node with a closed-form backward where the naive
Tensor-method composition would record 4–6 nodes (one Python closure and
at least one temporary array per node).  The training hot paths
(``nn.MLP``, ``nn.GRUCell``, ``GraphConv`` and the CPGAN loss terms) and
the generation decode all route through them; gradcheck coverage lives in
``tests/test_nn_fused.py``.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .tensor import Tensor, _stable_sigmoid, _unbroadcast, as_tensor

__all__ = [
    "spmm",
    "linear",
    "dual_linear",
    "gru_blend",
    "bias_act",
    "bce_with_logits",
    "l2_diff",
    "binary_cross_entropy",
    "kl_standard_normal",
    "log_sigmoid",
    "cross_entropy_rows",
]

_EPS = 1e-12

# ----------------------------------------------------------------------
# fused kernels
# ----------------------------------------------------------------------

#: Activations applied in place to a fresh pre-activation buffer.  The
#: backward (:func:`_act_grad`) reads only the op's output, so nothing
#: needs the pre-activation once the activation has run.
_ACT_FORWARD = {
    "identity": lambda z: z,
    "relu": lambda z: np.maximum(z, 0.0, out=z),
    "tanh": lambda z: np.tanh(z, out=z),
    "sigmoid": lambda z: _stable_sigmoid(z, overwrite_input=True),
}


def _act_grad(activation: str, out_data: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """d(activation)/dz expressed through the cached *output* of the op."""
    if activation == "identity":
        return grad
    if activation == "relu":
        return grad * (out_data > 0.0)
    if activation == "tanh":
        return grad * (1.0 - out_data * out_data)
    return grad * out_data * (1.0 - out_data)  # sigmoid


def _check_activation(activation: str) -> None:
    if activation not in _ACT_FORWARD:
        raise ValueError(
            f"unsupported activation {activation!r}; "
            f"choose from {sorted(_ACT_FORWARD)}"
        )


def linear(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    activation: str = "identity",
) -> Tensor:
    """Fused affine + activation: ``act(x @ W + b)`` as one autograd node.

    ``x`` is expected 2-D (rows = samples); the bias broadcasts over rows.
    Collapses the matmul / add / activation chain (three nodes, three
    closures) into a single node with a closed-form backward.
    """
    _check_activation(activation)
    x = as_tensor(x)
    weight = as_tensor(weight)
    z = x.data @ weight.data
    if bias is not None:
        z += bias.data  # in-place on the fresh matmul output
    out_data = _ACT_FORWARD[activation](z)
    prev = (x, weight) if bias is None else (x, weight, bias)
    out = Tensor(out_data, _prev=prev)
    if out._prev:

        def backward() -> None:
            dz = _act_grad(activation, out.data, out.grad)
            if x.requires_grad:
                x._accumulate(dz @ weight.data.swapaxes(-1, -2))
            if weight.requires_grad:
                weight._accumulate(
                    _unbroadcast(x.data.swapaxes(-1, -2) @ dz, weight.shape)
                )
            if bias is not None and bias.requires_grad:
                bias._accumulate(_unbroadcast(dz, bias.shape))

        out._backward = backward
        out.requires_grad = True
    return out


def dual_linear(
    x: Tensor,
    wx: Tensor,
    h: Tensor,
    wh: Tensor,
    bias: Tensor,
    activation: str = "identity",
) -> Tensor:
    """Fused two-input affine: ``act(x @ Wx + h @ Wh + b)`` as one node.

    This is the GRU gate shape (Eq. 13 uses two of these per step); the
    naive composition records five nodes and five temporaries.
    """
    _check_activation(activation)
    x, wx, h, wh, bias = (as_tensor(t) for t in (x, wx, h, wh, bias))
    z = x.data @ wx.data
    z += h.data @ wh.data
    z += bias.data
    out_data = _ACT_FORWARD[activation](z)
    out = Tensor(out_data, _prev=(x, wx, h, wh, bias))
    if out._prev:

        def backward() -> None:
            dz = _act_grad(activation, out.data, out.grad)
            if x.requires_grad:
                x._accumulate(dz @ wx.data.swapaxes(-1, -2))
            if wx.requires_grad:
                wx._accumulate(
                    _unbroadcast(x.data.swapaxes(-1, -2) @ dz, wx.shape)
                )
            if h.requires_grad:
                h._accumulate(dz @ wh.data.swapaxes(-1, -2))
            if wh.requires_grad:
                wh._accumulate(
                    _unbroadcast(h.data.swapaxes(-1, -2) @ dz, wh.shape)
                )
            if bias.requires_grad:
                bias._accumulate(_unbroadcast(dz, bias.shape))

        out._backward = backward
        out.requires_grad = True
    return out


def gru_blend(update: Tensor, h: Tensor | None, candidate: Tensor) -> Tensor:
    """Fused GRU state update ``update·h + (1 − update)·candidate`` as one node.

    ``h=None`` is the zero state, whose ``update·h`` term is exact zeros
    and is skipped.  The forward runs in place on its two fresh
    temporaries; the backward recomputes ``1 − update``.  Values and
    gradients are bit-identical to the four-node Tensor composition.
    """
    update, candidate = as_tensor(update), as_tensor(candidate)
    out_data = 1.0 - update.data
    out_data *= candidate.data
    if h is None:
        prev = (update, candidate)
    else:
        h = as_tensor(h)
        kept = update.data * h.data
        kept += out_data
        out_data = kept
        prev = (update, h, candidate)
    out = Tensor(out_data, _prev=prev)
    if out._prev:

        def backward() -> None:
            grad = out.grad
            if update.requires_grad:
                d_update = grad * candidate.data
                if h is None:
                    np.negative(d_update, out=d_update)
                else:
                    d_update = np.subtract(grad * h.data, d_update, out=d_update)
                update._accumulate(_unbroadcast(d_update, update.shape))
            if h is not None and h.requires_grad:
                h._accumulate(_unbroadcast(grad * update.data, h.shape))
            if candidate.requires_grad:
                candidate._accumulate(
                    _unbroadcast(grad * (1.0 - update.data), candidate.shape)
                )

        out._backward = backward
        out.requires_grad = True
    return out


def bias_act(
    x: Tensor, bias: Tensor | None, activation: str = "identity"
) -> Tensor:
    """Fused ``act(x + b)`` — the GraphConv epilogue after propagation."""
    _check_activation(activation)
    x = as_tensor(x)
    if bias is None and activation == "identity":
        return x
    z = x.data.copy() if bias is None else x.data + bias.data
    out_data = _ACT_FORWARD[activation](z)
    prev = (x,) if bias is None else (x, bias)
    out = Tensor(out_data, _prev=prev)
    if out._prev:

        def backward() -> None:
            dz = _act_grad(activation, out.data, out.grad)
            if x.requires_grad:
                x._accumulate(_unbroadcast(dz, x.shape))
            if bias is not None and bias.requires_grad:
                bias._accumulate(_unbroadcast(dz, bias.shape))

        out._backward = backward
        out.requires_grad = True
    return out


def bce_with_logits(logits: Tensor, target, weight=None) -> Tensor:
    """Fused mean BCE from logits: one node, closed-form backward.

    Forward is the stable ``max(x,0) - x·t + log1p(e^{-|x|})`` (optionally
    elementwise-weighted) averaged over all elements; backward is the
    closed form ``w · (σ(x) - t) / N`` — no intermediate graph at all.
    """
    logits = as_tensor(logits)
    target = np.asarray(target, dtype=float)
    z = logits.data
    elems = np.maximum(z, 0.0) - z * target + np.log1p(np.exp(-np.abs(z)))
    if weight is not None:
        weight = np.asarray(weight, dtype=float)
        elems = elems * weight
    out = Tensor(np.asarray(elems.mean()), _prev=(logits,))
    if out._prev:
        count = elems.size

        def backward() -> None:
            if logits.requires_grad:
                dz = _stable_sigmoid(z) - target
                if weight is not None:
                    dz = dz * weight
                dz *= float(out.grad) / count
                logits._accumulate(_unbroadcast(dz, logits.shape))

        out._backward = backward
        out.requires_grad = True
    return out


def l2_diff(a: Tensor, b) -> Tensor:
    """Fused mean squared difference ``mean((a - b)²)`` as one node."""
    a = as_tensor(a)
    b = as_tensor(b)
    diff = a.data - b.data
    out = Tensor(np.asarray((diff * diff).mean()), _prev=(a, b))
    if out._prev:
        count = diff.size

        def backward() -> None:
            scaled = diff * (2.0 * float(out.grad) / count)
            if a.requires_grad:
                a._accumulate(_unbroadcast(scaled, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(-scaled, b.shape))

        out._backward = backward
        out.requires_grad = True
    return out


def spmm(matrix: sp.spmatrix, dense: Tensor) -> Tensor:
    """Multiply a constant SciPy sparse matrix by a dense tensor.

    The sparse operand carries no gradient (it is the — fixed — normalized
    adjacency); the gradient with respect to ``dense`` is ``matrix.T @ g``.
    Cost is O(nnz · d), i.e. O(m + n) per feature column for a graph
    adjacency with self-loops.
    """
    matrix = matrix.tocsr()
    dense = as_tensor(dense)
    out = Tensor(matrix @ dense.data, _prev=(dense,))
    if out._prev:
        transposed = matrix.T.tocsr()

        def backward() -> None:
            if dense.requires_grad:
                dense._accumulate(transposed @ out.grad)

        out._backward = backward
        out.requires_grad = True
    return out


def log_sigmoid(x: Tensor) -> Tensor:
    """Numerically stable ``log(sigmoid(x))``."""
    return -softplus(-x)


def softplus(x: Tensor) -> Tensor:
    """``log(1 + exp(x))`` computed stably: ``max(x, 0) + log1p(exp(-|x|))``."""
    return x.relu() + _stable_log1p_exp_neg_abs(x)


def _stable_log1p_exp_neg_abs(x: Tensor) -> Tensor:
    """Return ``log(1 + exp(-|x|))`` as a tensor op."""
    neg_abs = -(x * np.sign(x.data))
    return (neg_abs.exp() + 1.0).log()


def binary_cross_entropy(p: Tensor, target: np.ndarray, weight=None) -> Tensor:
    """Mean BCE between probabilities ``p`` and a 0/1 ``target`` array."""
    p = p.clip(_EPS, 1.0 - _EPS)
    target = np.asarray(target, dtype=float)
    loss = -(p.log() * target + (1.0 - p).log() * (1.0 - target))
    if weight is not None:
        loss = loss * weight
    return loss.mean()


def kl_standard_normal(mu: Tensor, log_var: Tensor) -> Tensor:
    """KL( N(mu, diag(exp(log_var))) || N(0, I) ), averaged over rows.

    This is the ``L_prior`` term of Eq. 19 in the paper.
    """
    kl = (mu * mu + log_var.exp() - log_var - 1.0) * 0.5
    return kl.sum(axis=-1).mean()


def cross_entropy_rows(probabilities: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-probability of integer ``labels`` per row.

    Used for the clustering-consistency loss ``L_clus`` (§III-F2): rows are
    the soft community assignments ``S`` and labels the Louvain ground truth.
    """
    labels = np.asarray(labels, dtype=int)
    rows = np.arange(len(labels))
    picked = probabilities[rows, labels]
    return -(picked.clip(_EPS, 1.0).log()).mean()
