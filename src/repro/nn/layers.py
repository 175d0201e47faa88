"""Neural-network modules: Linear, MLP, GRUCell and the Module base class.

The :class:`Module` container provides parameter discovery (recursively via
attributes), gradient zeroing, and state (de)serialisation — the minimum
surface the training loops in ``repro.core`` and ``repro.baselines`` need.
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

from . import init
from .functional import dual_linear, gru_blend, linear
from .tensor import Tensor, concat

__all__ = ["Module", "Parameter", "Linear", "MLP", "GRUCell", "Sequential"]


class Parameter(Tensor):
    """A trainable tensor (always ``requires_grad=True``)."""

    def __init__(self, data, name: str = "") -> None:
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class with recursive parameter discovery.

    Subclasses assign :class:`Parameter` and nested :class:`Module` instances
    as plain attributes; :meth:`parameters` walks them in deterministic
    (attribute-name) order.
    """

    def parameters(self) -> Iterator[Parameter]:
        seen: set[int] = set()
        yield from self._parameters(seen)

    def _parameters(self, seen: set[int]) -> Iterator[Parameter]:
        for name in sorted(vars(self)):
            value = getattr(self, name)
            if isinstance(value, Parameter) and id(value) not in seen:
                seen.add(id(value))
                yield value
            elif isinstance(value, Module):
                yield from value._parameters(seen)
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Parameter) and id(item) not in seen:
                        seen.add(id(item))
                        yield item
                    elif isinstance(item, Module):
                        yield from item._parameters(seen)

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def state_dict(self) -> list[np.ndarray]:
        return [p.data.copy() for p in self.parameters()]

    def load_state_dict(self, state: list[np.ndarray]) -> None:
        params = list(self.parameters())
        if len(params) != len(state):
            raise ValueError(
                f"state has {len(state)} arrays but module has {len(params)} parameters"
            )
        for p, array in zip(params, state):
            if p.data.shape != array.shape:
                raise ValueError(f"shape mismatch: {p.data.shape} vs {array.shape}")
            p.data = array.copy()

    def cast(self, dtype) -> "Module":
        """This module for inference in ``dtype``.

        ``self`` when every parameter already has that dtype (no copy);
        otherwise a shallow copy whose parameters are cast copies that
        record no gradient and whose sub-modules are cast the same way.
        ``self`` and its arrays are never modified, so a cast copy may run
        next to training or another thread's forward.
        """
        dtype = np.dtype(dtype)
        if all(p.data.dtype == dtype for p in self.parameters()):
            return self

        def cast(value):
            if isinstance(value, Parameter):
                param = Parameter(value.data.astype(dtype), name=value.name)
                param.requires_grad = False
                return param
            if isinstance(value, Module):
                return value.cast(dtype)
            if isinstance(value, (list, tuple)):
                return type(value)(cast(item) for item in value)
            return value

        copy = object.__new__(type(self))
        copy.__dict__.update({k: cast(v) for k, v in vars(self).items()})
        return copy

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError


class Linear(Module):
    """Affine map ``x @ W + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        bias: bool = True,
    ) -> None:
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            init.xavier_uniform((in_features, out_features), rng), name="weight"
        )
        self.bias = Parameter(init.zeros((out_features,)), name="bias") if bias else None

    def forward(self, x: Tensor, activation: str = "identity") -> Tensor:
        return linear(x, self.weight, self.bias, activation)


_ACTIVATIONS: dict[str, Callable[[Tensor], Tensor]] = {
    "relu": lambda t: t.relu(),
    "tanh": lambda t: t.tanh(),
    "sigmoid": lambda t: t.sigmoid(),
    "identity": lambda t: t,
}


class MLP(Module):
    """Multi-layer perceptron with a configurable activation.

    The paper uses two-layer MLPs for the inference model g(·; φ) (Eq. 12),
    the edge scorer g_θ (Eq. 14) and the discriminator head (Eq. 15).
    """

    def __init__(
        self,
        sizes: list[int],
        rng: np.random.Generator,
        activation: str = "relu",
        final_activation: str = "identity",
    ) -> None:
        if len(sizes) < 2:
            raise ValueError("MLP needs at least input and output sizes")
        if activation not in _ACTIVATIONS or final_activation not in _ACTIVATIONS:
            raise KeyError(f"unknown activation: {activation}/{final_activation}")
        self.layers = [
            Linear(a, b, rng) for a, b in zip(sizes[:-1], sizes[1:])
        ]
        self._activation = activation
        self._final_activation = final_activation

    def forward(self, x: Tensor) -> Tensor:
        # Each hidden layer is one fused affine+activation autograd node.
        for layer in self.layers[:-1]:
            x = layer(x, self._activation)
        return self.layers[-1](x, self._final_activation)


class Sequential(Module):
    """Run sub-modules in order."""

    def __init__(self, *modules: Module) -> None:
        self.modules = list(modules)

    def forward(self, x: Tensor) -> Tensor:
        for module in self.modules:
            x = module(x)
        return x


class GRUCell(Module):
    """Gated recurrent unit cell (Cho et al. 2014).

    Used by the CPGAN decoder to fold the sequence of per-level community
    embeddings into node features (Eq. 13):  h_{l+1} = GRU(h_l, Z^(l+1)).
    """

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator) -> None:
        self.input_size = input_size
        self.hidden_size = hidden_size
        # Gates are computed jointly: [reset, update] then candidate.
        self.w_ih = Parameter(init.xavier_uniform((input_size, 2 * hidden_size), rng))
        self.w_hh = Parameter(init.orthogonal((hidden_size, 2 * hidden_size), rng))
        self.b_gates = Parameter(init.zeros((2 * hidden_size,)))
        self.w_in = Parameter(init.xavier_uniform((input_size, hidden_size), rng))
        self.w_hn = Parameter(init.orthogonal((hidden_size, hidden_size), rng))
        self.b_cand = Parameter(init.zeros((hidden_size,)))

    def forward(self, h: Tensor | None, x: Tensor) -> Tensor:
        """One step ``h' = update·h + (1 − update)·candidate``.

        ``h=None`` is the zero state.  Its terms ``h @ w_hh``,
        ``(reset·h) @ w_hn`` and ``update·h`` are exact zeros, so they are
        skipped: the output bits are those of a zero ``h``, and ``w_hh`` /
        ``w_hn`` receive no gradient from the step instead of a zero one.
        """
        if h is None:
            gates = linear(x, self.w_ih, self.b_gates, "sigmoid")
            candidate = linear(x, self.w_in, self.b_cand, "tanh")
        else:
            gates = dual_linear(x, self.w_ih, h, self.w_hh, self.b_gates, "sigmoid")
            reset = gates[:, : self.hidden_size]
            candidate = dual_linear(
                x, self.w_in, reset * h, self.w_hn, self.b_cand, "tanh"
            )
        return gru_blend(gates[:, self.hidden_size :], h, candidate)
