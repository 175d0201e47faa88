"""``repro.nn`` — NumPy reverse-mode autograd and neural layers.

This package replaces the PyTorch substrate of the original CPGAN release.
See DESIGN.md §2 for the substitution rationale.
"""

from .functional import (
    bce_with_logits,
    bias_act,
    binary_cross_entropy,
    cross_entropy_rows,
    dual_linear,
    gru_blend,
    kl_standard_normal,
    l2_diff,
    linear,
    log_sigmoid,
    spmm,
)
from .gradcheck import check_gradients, numerical_gradient
from .graph_layers import DenseGraphConv, GraphConv, PairNorm, normalized_adjacency
from .layers import GRUCell, Linear, MLP, Module, Parameter, Sequential
from .optim import Adam, SGD, StepDecay
from .tensor import Tensor, as_tensor, concat, is_grad_enabled, no_grad, stack

__all__ = [
    "Tensor",
    "as_tensor",
    "concat",
    "stack",
    "no_grad",
    "is_grad_enabled",
    "Module",
    "Parameter",
    "Linear",
    "MLP",
    "Sequential",
    "GRUCell",
    "GraphConv",
    "DenseGraphConv",
    "PairNorm",
    "normalized_adjacency",
    "SGD",
    "Adam",
    "StepDecay",
    "spmm",
    "linear",
    "dual_linear",
    "gru_blend",
    "bias_act",
    "bce_with_logits",
    "l2_diff",
    "binary_cross_entropy",
    "cross_entropy_rows",
    "kl_standard_normal",
    "log_sigmoid",
    "check_gradients",
    "numerical_gradient",
]
