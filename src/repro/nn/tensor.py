"""Reverse-mode automatic differentiation over NumPy arrays.

This module is the tensor substrate the whole reproduction runs on.  The
paper's reference implementation uses PyTorch; since the training objectives
of CPGAN (and of the learning-based baselines) only need dense linear algebra
plus a handful of non-linearities, we implement a small but complete
reverse-mode autograd engine:

* :class:`Tensor` wraps an ``np.ndarray`` and records the operations applied
  to it in a DAG.
* :meth:`Tensor.backward` performs a topological sweep over that DAG and
  accumulates gradients into every tensor created with ``requires_grad=True``.
* Broadcasting follows NumPy semantics; gradients of broadcast operands are
  reduced back to the operand's shape (:func:`_unbroadcast`).

The engine is intentionally eager and define-by-run, so model code reads like
ordinary NumPy code.
"""

from __future__ import annotations

from contextvars import ContextVar
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = ["Tensor", "as_tensor", "no_grad", "is_grad_enabled"]

#: Whether operations record the autograd graph.  A context variable, so
#: each thread (and each ``contextvars.copy_context()`` task) has its own
#: flag: overlapping :class:`no_grad` blocks on two threads cannot leave
#: recording off for the whole process.
_GRAD_ENABLED: ContextVar[bool] = ContextVar("repro_nn_grad_enabled", default=True)


class no_grad:
    """Context manager disabling graph construction (for inference).

    Scoped to the current thread's context: other threads keep recording.
    """

    def __enter__(self) -> "no_grad":
        self._token = _GRAD_ENABLED.set(False)
        return self

    def __exit__(self, *exc) -> None:
        _GRAD_ENABLED.reset(self._token)


def is_grad_enabled() -> bool:
    """Return whether operations currently record gradient information."""
    return _GRAD_ENABLED.get()


def _stable_sigmoid(x: np.ndarray, overwrite_input: bool = False) -> np.ndarray:
    """Numerically stable logistic on a raw ndarray (shared with fused ops).

    Evaluated as the direct ``1/(1+exp(-x))`` with the overflow of
    ``exp`` for very negative inputs deliberately allowed: ``exp(inf)``
    saturates to ``inf`` and the reciprocal maps it to exactly ``0.0``,
    which is the correctly-rounded sigmoid there.  No clip pass, no
    piecewise branch (a full-array select, surprisingly expensive) — four
    in-place passes total.  ``overwrite_input`` lets callers that own ``x``
    as a throwaway temporary skip the defensive copy entirely (same
    operations, same bits, one fewer array).

    Float inputs keep their precision: a float32 array flows through in
    float32 (the precision-aware scoring path relies on this); everything
    else is promoted to float64 exactly as before.
    """
    e = np.asarray(x)
    if e.dtype != np.float64 and e.dtype != np.float32:
        e = e.astype(np.float64)  # fresh array: safe to overwrite below
        np.negative(e, out=e)
    elif e is x and not overwrite_input:
        # asarray again: ufuncs hand 0-d inputs back as scalars, and the
        # in-place passes below need a real ndarray.
        e = np.asarray(np.negative(e))
    else:
        np.negative(e, out=e)
    with np.errstate(over="ignore"):
        np.exp(e, out=e)
    e += 1.0
    return np.divide(1.0, e, out=e)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, inverting NumPy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading axes that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A NumPy-backed tensor participating in reverse-mode autodiff.

    Parameters
    ----------
    data:
        Array-like payload; converted to ``float64`` ndarray unless already a
        floating ndarray.
    requires_grad:
        If True, gradients are accumulated into :attr:`grad` during
        :meth:`backward`.
    """

    __slots__ = (
        "data",
        "grad",
        "requires_grad",
        "_backward",
        "_prev",
        "_grad_shared",
        "name",
    )

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        _prev: Sequence["Tensor"] = (),
        name: str = "",
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        if arr.dtype.kind != "f":
            arr = arr.astype(np.float64)
        self.data: np.ndarray = arr
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED.get()
        self.grad: np.ndarray | None = None
        self._grad_shared = False
        self._backward: Callable[[], None] | None = None
        keep_graph = _GRAD_ENABLED.get() and (
            self.requires_grad or any(p.requires_grad for p in _prev)
        )
        self._prev: tuple[Tensor, ...] = tuple(_prev) if keep_graph else ()
        self.name = name

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying ndarray (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    # ------------------------------------------------------------------
    # graph plumbing
    # ------------------------------------------------------------------
    def _needs_graph(self, *others: "Tensor") -> bool:
        return _GRAD_ENABLED.get() and (
            self.requires_grad or any(o.requires_grad for o in others)
        )

    def _accumulate(self, grad: np.ndarray) -> None:
        # Single-consumer case (the overwhelming majority of nodes): adopt
        # the incoming buffer directly instead of allocating zeros and
        # adding into them.  The adopted array may alias (or view) the
        # producer's grad, so it is marked shared and never mutated in
        # place; a second consumer forces a private sum.
        if self.grad is None:
            self.grad = grad
            self._grad_shared = True
        elif self._grad_shared:
            self.grad = self.grad + grad
            self._grad_shared = False
        else:
            self.grad += grad

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Back-propagate from this tensor through the recorded graph.

        Parameters
        ----------
        grad:
            Upstream gradient; defaults to ones (so scalars need no argument).
        """
        if grad is None:
            grad = np.ones_like(self.data)
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for child in node._prev:
                if id(child) not in visited:
                    stack.append((child, False))
        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward()
                # An interior node's grad is fully consumed once its
                # backward ran (reverse-topological order guarantees every
                # consumer already contributed); releasing it here halves
                # peak memory for deep ladders.  Leaf tensors have no
                # ``_backward`` and keep their grads for the optimizer.
                node.grad = None
                node._grad_shared = False

    def zero_grad(self) -> None:
        self.grad = None
        self._grad_shared = False

    # ------------------------------------------------------------------
    # elementwise arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = as_tensor(other)
        out = Tensor(self.data + other.data, _prev=(self, other))
        if out._prev:

            def backward() -> None:
                if self.requires_grad:
                    self._accumulate(_unbroadcast(out.grad, self.shape))
                if other.requires_grad:
                    other._accumulate(_unbroadcast(out.grad, other.shape))

            out._backward = backward
            out.requires_grad = True
        return out

    __radd__ = __add__

    def __mul__(self, other) -> "Tensor":
        other = as_tensor(other)
        out = Tensor(self.data * other.data, _prev=(self, other))
        if out._prev:

            def backward() -> None:
                if self.requires_grad:
                    self._accumulate(_unbroadcast(out.grad * other.data, self.shape))
                if other.requires_grad:
                    other._accumulate(_unbroadcast(out.grad * self.data, other.shape))

            out._backward = backward
            out.requires_grad = True
        return out

    __rmul__ = __mul__

    def __neg__(self) -> "Tensor":
        return self * -1.0

    def __sub__(self, other) -> "Tensor":
        return self + (-as_tensor(other))

    def __rsub__(self, other) -> "Tensor":
        return as_tensor(other) + (-self)

    def __truediv__(self, other) -> "Tensor":
        return self * as_tensor(other).pow(-1.0)

    def __rtruediv__(self, other) -> "Tensor":
        return as_tensor(other) * self.pow(-1.0)

    def pow(self, exponent: float) -> "Tensor":
        out = Tensor(np.power(self.data, exponent), _prev=(self,))
        if out._prev:

            def backward() -> None:
                if self.requires_grad:
                    self._accumulate(
                        out.grad * exponent * np.power(self.data, exponent - 1.0)
                    )

            out._backward = backward
            out.requires_grad = True
        return out

    def __pow__(self, exponent: float) -> "Tensor":
        return self.pow(exponent)

    # ------------------------------------------------------------------
    # matrix operations
    # ------------------------------------------------------------------
    def __matmul__(self, other) -> "Tensor":
        other = as_tensor(other)
        out = Tensor(self.data @ other.data, _prev=(self, other))
        if out._prev:

            def backward() -> None:
                if self.requires_grad:
                    grad = out.grad @ other.data.swapaxes(-1, -2)
                    self._accumulate(_unbroadcast(grad, self.shape))
                if other.requires_grad:
                    grad = self.data.swapaxes(-1, -2) @ out.grad
                    other._accumulate(_unbroadcast(grad, other.shape))

            out._backward = backward
            out.requires_grad = True
        return out

    def transpose(self, axes: tuple[int, ...] | None = None) -> "Tensor":
        out = Tensor(np.transpose(self.data, axes), _prev=(self,))
        if out._prev:
            inverse = None if axes is None else tuple(np.argsort(axes))

            def backward() -> None:
                if self.requires_grad:
                    self._accumulate(np.transpose(out.grad, inverse))

            out._backward = backward
            out.requires_grad = True
        return out

    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = Tensor(self.data.reshape(shape), _prev=(self,))
        if out._prev:

            def backward() -> None:
                if self.requires_grad:
                    self._accumulate(out.grad.reshape(self.shape))

            out._backward = backward
            out.requires_grad = True
        return out

    def __getitem__(self, index) -> "Tensor":
        out = Tensor(self.data[index], _prev=(self,))
        if out._prev:

            def backward() -> None:
                if self.requires_grad:
                    grad = np.zeros_like(self.data)
                    np.add.at(grad, index, out.grad)
                    self._accumulate(grad)

            out._backward = backward
            out.requires_grad = True
        return out

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out = Tensor(self.data.sum(axis=axis, keepdims=keepdims), _prev=(self,))
        if out._prev:

            def backward() -> None:
                if self.requires_grad:
                    grad = out.grad
                    if not keepdims and axis is not None:
                        grad = np.expand_dims(grad, axis)
                    self._accumulate(np.broadcast_to(grad, self.shape).copy())

            out._backward = backward
            out.requires_grad = True
        return out

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        count = self.size if axis is None else np.prod(
            [self.shape[a] for a in np.atleast_1d(axis)]
        )
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / float(count))

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)
        out = Tensor(out_data, _prev=(self,))
        if out._prev:

            def backward() -> None:
                if self.requires_grad:
                    grad = out.grad
                    expanded = out_data
                    if not keepdims and axis is not None:
                        grad = np.expand_dims(grad, axis)
                        expanded = np.expand_dims(out_data, axis)
                    mask = (self.data == expanded).astype(self.data.dtype)
                    mask /= np.maximum(
                        mask.sum(axis=axis, keepdims=True), 1.0
                    )
                    self._accumulate(mask * grad)

            out._backward = backward
            out.requires_grad = True
        return out

    # ------------------------------------------------------------------
    # non-linearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out = Tensor(np.exp(self.data), _prev=(self,))
        if out._prev:

            def backward() -> None:
                if self.requires_grad:
                    self._accumulate(out.grad * out.data)

            out._backward = backward
            out.requires_grad = True
        return out

    def log(self) -> "Tensor":
        out = Tensor(np.log(self.data), _prev=(self,))
        if out._prev:

            def backward() -> None:
                if self.requires_grad:
                    self._accumulate(out.grad / self.data)

            out._backward = backward
            out.requires_grad = True
        return out

    def sqrt(self) -> "Tensor":
        root = np.sqrt(self.data)
        out = Tensor(root, _prev=(self,))
        if out._prev:

            def backward() -> None:
                if self.requires_grad:
                    # d/dx sqrt(x) = 1 / (2 sqrt(x)), reusing the cached
                    # forward output (same pattern as ``exp``).
                    self._accumulate(out.grad * (0.5 / root))

            out._backward = backward
            out.requires_grad = True
        return out

    def relu(self) -> "Tensor":
        out = Tensor(np.maximum(self.data, 0.0), _prev=(self,))
        if out._prev:

            def backward() -> None:
                if self.requires_grad:
                    self._accumulate(out.grad * (self.data > 0.0))

            out._backward = backward
            out.requires_grad = True
        return out

    def sigmoid(self) -> "Tensor":
        s = _stable_sigmoid(self.data)
        out = Tensor(s, _prev=(self,))
        if out._prev:

            def backward() -> None:
                if self.requires_grad:
                    self._accumulate(out.grad * s * (1.0 - s))

            out._backward = backward
            out.requires_grad = True
        return out

    def tanh(self) -> "Tensor":
        t = np.tanh(self.data)
        out = Tensor(t, _prev=(self,))
        if out._prev:

            def backward() -> None:
                if self.requires_grad:
                    self._accumulate(out.grad * (1.0 - t * t))

            out._backward = backward
            out.requires_grad = True
        return out

    def softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        e = np.exp(shifted)
        s = e / e.sum(axis=axis, keepdims=True)
        out = Tensor(s, _prev=(self,))
        if out._prev:

            def backward() -> None:
                if self.requires_grad:
                    dot = (out.grad * s).sum(axis=axis, keepdims=True)
                    self._accumulate(s * (out.grad - dot))

            out._backward = backward
            out.requires_grad = True
        return out

    def clip(self, low: float, high: float) -> "Tensor":
        out = Tensor(np.clip(self.data, low, high), _prev=(self,))
        if out._prev:

            def backward() -> None:
                if self.requires_grad:
                    mask = (self.data >= low) & (self.data <= high)
                    self._accumulate(out.grad * mask)

            out._backward = backward
            out.requires_grad = True
        return out


def as_tensor(value) -> Tensor:
    """Coerce ``value`` to a :class:`Tensor` (no copy when already one)."""
    return value if isinstance(value, Tensor) else Tensor(value)


def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing."""
    tensors = [as_tensor(t) for t in tensors]
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis), _prev=tensors)
    if out._prev:
        sizes = [t.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def backward() -> None:
            for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
                if t.requires_grad:
                    slicer = [slice(None)] * out.grad.ndim
                    slicer[axis] = slice(lo, hi)
                    t._accumulate(out.grad[tuple(slicer)])

        out._backward = backward
        out.requires_grad = True
    return out


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis`` with gradient routing."""
    tensors = [as_tensor(t) for t in tensors]
    out = Tensor(np.stack([t.data for t in tensors], axis=axis), _prev=tensors)
    if out._prev:

        def backward() -> None:
            grads = np.moveaxis(out.grad, axis, 0)
            for t, g in zip(tensors, grads):
                if t.requires_grad:
                    t._accumulate(g)

        out._backward = backward
        out.requires_grad = True
    return out


__all__ += ["concat", "stack"]
