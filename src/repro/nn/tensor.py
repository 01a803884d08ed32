"""A small reverse-mode autograd engine on numpy arrays.

The paper implements DeepGate in PyTorch; no deep-learning framework is
available offline, so this module provides the required subset from scratch:
a :class:`Tensor` that records the operations applied to it and can
back-propagate gradients through arbitrary DAGs of those operations.

Design notes
------------
* Tensors wrap ``float32`` numpy arrays.  Gradients are plain numpy arrays
  of the same shape.
* Each operation creates a child tensor holding a closure that, given the
  child's gradient, accumulates gradients into its parents.  ``backward()``
  walks the recorded graph once in reverse topological order.
* ``backward()`` consumes the graph: as soon as an interior node's closure
  has run, the node drops its gradient, closure and parent links, so the
  activations the graph kept alive are freed during the walk instead of
  when the caller drops the root.  Leaves (parameters, inputs) keep their
  accumulated ``.grad``.  A second ``backward()`` through a consumed graph
  raises ``RuntimeError``.
* Broadcasting follows numpy semantics; gradients are summed back over
  broadcast axes by :func:`unbroadcast`.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = ["Tensor", "unbroadcast", "no_grad", "is_grad_enabled"]

Arrayish = Union["Tensor", np.ndarray, float, int]

_GRAD_ENABLED = [True]

_CONSUMED = "backward() through a graph that was already back-propagated"


def _consumed(grad: np.ndarray) -> None:
    """The ``_backward`` of an interior node whose backward has run."""
    raise RuntimeError(_CONSUMED)


class no_grad:
    """Context manager disabling graph recording (inference mode)."""

    def __enter__(self):
        self._prev = _GRAD_ENABLED[0]
        _GRAD_ENABLED[0] = False
        return self

    def __exit__(self, *exc):
        _GRAD_ENABLED[0] = self._prev
        return False


def is_grad_enabled() -> bool:
    return _GRAD_ENABLED[0]


def unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # sum leading extra axes
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # sum axes broadcast from size 1
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy-backed tensor with reverse-mode automatic differentiation."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(
        self,
        data: Arrayish,
        requires_grad: bool = False,
    ):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=np.float32)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple["Tensor", ...] = ()

    # ------------------------------------------------------------------
    # graph plumbing
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """Create a result tensor, recording the op if grads are enabled.

        Hand-rolled construction: this runs once per autograd node, so the
        generic ``__init__`` coercions (and generator-expression frames)
        are worth skipping on the hot path.
        """
        out = Tensor.__new__(Tensor)
        if type(data) is np.ndarray and data.dtype == np.float32:
            out.data = data
        else:
            out.data = np.asarray(data, dtype=np.float32)
        out.grad = None
        needs = False
        if _GRAD_ENABLED[0]:
            for p in parents:
                if p.requires_grad:
                    needs = True
                    break
        out.requires_grad = needs
        if needs:
            out._parents = tuple([p for p in parents if p.requires_grad])
            out._backward = backward
        else:
            out._parents = ()
            out._backward = None
        return out

    def _accumulate(self, grad: np.ndarray, own: bool = False) -> None:
        """Add ``grad`` into this tensor's gradient buffer.

        ``own=True`` promises the caller freshly allocated ``grad`` and
        will never touch it again, so the first accumulation can take the
        array as-is instead of copying — kernel backward closures use this
        to halve gradient-buffer churn.  Never pass a view of live data.
        """
        if self.grad is None:
            if own and grad.dtype == np.float32:
                self.grad = grad
            else:
                self.grad = grad.astype(np.float32, copy=True)
        else:
            self.grad += grad

    def _accumulate_rows(self, index: np.ndarray, grad: np.ndarray) -> None:
        """Add ``grad[k]`` into row ``index[k]`` of the gradient buffer.

        ``index`` entries must be unique (pre-reduce repeated rows with a
        segment kernel first).  Touches only the indexed rows, so sparse
        scatter-style backwards avoid materialising dense buffers.
        """
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad[index] += grad

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Back-propagate from this tensor through the recorded graph.

        Consumes the graph (see the module notes): interior nodes are
        released one by one as the walk passes them.

        Ownership: an interior node's closure receives the node's own
        gradient buffer, which no other tensor references (every
        ``_accumulate`` copies or takes a fresh array), and the walk sets
        ``node.grad = None`` as soon as the closure returns.  A closure
        may therefore use that buffer as working space and overwrite it
        (the compiled pass's backward keeps its running output gradient
        in it), but must not hand it to another tensor.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that requires no grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be supplied for non-scalar output")
            grad = np.ones_like(self.data)
        # iterative topological order over the autograd DAG
        order: List[Tensor] = []
        seen = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            if node._backward is _consumed:
                raise RuntimeError(_CONSUMED)
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self._accumulate(np.asarray(grad, dtype=np.float32))
        while order:
            node = order.pop()
            if node._backward is None:
                continue  # a leaf keeps its gradient
            if node.grad is not None:
                node._backward(node.grad)
            node.grad = None
            node._backward = _consumed
            node._parents = ()

    def zero_grad(self) -> None:
        self.grad = None

    def detach(self) -> "Tensor":
        """A view of the data cut off from the autograd graph."""
        return Tensor(self.data)

    # ------------------------------------------------------------------
    # shape info
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self) -> np.ndarray:
        """The underlying array (not a copy); do not mutate."""
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __len__(self) -> int:
        return self.data.shape[0]

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    @staticmethod
    def _coerce(x: Arrayish) -> "Tensor":
        return x if isinstance(x, Tensor) else Tensor(x)

    def __add__(self, other: Arrayish) -> "Tensor":
        other = self._coerce(other)
        data = self.data + other.data
        a, b = self, other

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(unbroadcast(grad, a.data.shape))
            if b.requires_grad:
                b._accumulate(unbroadcast(grad, b.data.shape))

        return Tensor._make(data, (a, b), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        a = self

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(-grad)

        return Tensor._make(-self.data, (a,), backward)

    def __sub__(self, other: Arrayish) -> "Tensor":
        return self + (-self._coerce(other))

    def __rsub__(self, other: Arrayish) -> "Tensor":
        return self._coerce(other) + (-self)

    def __mul__(self, other: Arrayish) -> "Tensor":
        other = self._coerce(other)
        a, b = self, other
        data = a.data * b.data

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(unbroadcast(grad * b.data, a.data.shape))
            if b.requires_grad:
                b._accumulate(unbroadcast(grad * a.data, b.data.shape))

        return Tensor._make(data, (a, b), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: Arrayish) -> "Tensor":
        other = self._coerce(other)
        a, b = self, other
        data = a.data / b.data

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(unbroadcast(grad / b.data, a.data.shape))
            if b.requires_grad:
                b._accumulate(
                    unbroadcast(-grad * a.data / (b.data * b.data), b.data.shape)
                )

        return Tensor._make(data, (a, b), backward)

    def __matmul__(self, other: Arrayish) -> "Tensor":
        other = self._coerce(other)
        a, b = self, other
        data = a.data @ b.data

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(grad @ b.data.T)
            if b.requires_grad:
                b._accumulate(a.data.T @ grad)

        return Tensor._make(data, (a, b), backward)

    def __pow__(self, exponent: float) -> "Tensor":
        a = self
        data = self.data ** exponent

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(grad * exponent * a.data ** (exponent - 1))

        return Tensor._make(data, (a,), backward)

    # ------------------------------------------------------------------
    # reductions and elementwise functions
    # ------------------------------------------------------------------
    def sum(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        a = self
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not a.requires_grad:
                return
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            a._accumulate(np.broadcast_to(g, a.data.shape).astype(np.float32))

        return Tensor._make(data, (a,), backward)

    def mean(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    def abs(self) -> "Tensor":
        a = self
        data = np.abs(self.data)

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(grad * np.sign(a.data))

        return Tensor._make(data, (a,), backward)

    def exp(self) -> "Tensor":
        a = self
        data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(grad * data)

        return Tensor._make(data, (a,), backward)

    def log(self) -> "Tensor":
        a = self
        data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(grad / a.data)

        return Tensor._make(data, (a,), backward)

    def sigmoid(self) -> "Tensor":
        a = self
        data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(grad * data * (1.0 - data))

        return Tensor._make(data, (a,), backward)

    def tanh(self) -> "Tensor":
        a = self
        data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(grad * (1.0 - data * data))

        return Tensor._make(data, (a,), backward)

    def relu(self) -> "Tensor":
        a = self
        mask = self.data > 0
        data = np.where(mask, self.data, 0.0)

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(grad * mask)

        return Tensor._make(data, (a,), backward)

    def clip_probability(self, eps: float = 1e-6) -> "Tensor":
        """Clamp into [eps, 1-eps] with straight-through gradient."""
        a = self
        data = np.clip(self.data, eps, 1.0 - eps)

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(grad)

        return Tensor._make(data, (a,), backward)

    # ------------------------------------------------------------------
    # shaping
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        a = self
        data = self.data.reshape(*shape)

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(grad.reshape(a.data.shape))

        return Tensor._make(data, (a,), backward)

    def transpose(self) -> "Tensor":
        a = self
        data = self.data.T

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(grad.T)

        return Tensor._make(data, (a,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()
