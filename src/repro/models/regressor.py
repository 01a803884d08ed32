"""Per-gate-type probability regressor (paper §III-C, "Regressor").

After ``T`` iterations the hidden state of every node is mapped to a scalar
probability by an MLP whose weights are *shared among nodes of the same gate
type* — i.e. one MLP per type, applied to that type's nodes.

Two execution paths:

* the **reference** composite path records one autograd node per gather /
  linear / activation / scatter, per type — the equivalence oracle;
* the **fused epilogue** (``fused=True``, used by the compiled models)
  runs the whole readout as ONE autograd node with a closed-form
  backward, so the final stage after a compiled pass stops being a chain
  of ~10 small-tensor graph nodes per type.
"""

from __future__ import annotations

import numpy as np

from ..nn.functional import gather_rows, scatter_rows
from ..nn.modules import MLP, Module
from ..nn.tensor import Tensor, is_grad_enabled
from .aggregators import _acc

__all__ = ["PerTypeRegressor"]


def _hidden(lin1, x: np.ndarray) -> np.ndarray:
    """A head's ReLU layer ``max(x @ W1 + b1, 0)``, computed in place."""
    r1 = x @ lin1.weight.data
    r1 += lin1.bias.data
    return np.maximum(r1, 0.0, out=r1)


def _head_backward(head, hd, idx, p, grad, dh) -> None:
    """One type's head gradients from its rows ``idx`` and saved
    probabilities ``p``: the rows are regathered and the hidden layer
    recomputed, and every temporary dies on return, before the next
    type's exist."""
    lin1, lin2 = head.layers
    x = hd[idx]
    r1 = _hidden(lin1, x)
    dz = grad[idx].reshape(-1, 1) * p * (1.0 - p)
    _acc(lin2.weight, r1.T @ dz)
    _acc(lin2.bias, dz.sum(axis=0))
    mask = r1 > 0
    del r1
    da1 = dz @ lin2.weight.data.T
    da1 *= mask
    del mask
    _acc(lin1.weight, x.T @ da1)
    del x
    _acc(lin1.bias, da1.sum(axis=0))
    if dh is not None:
        dh[idx] = da1 @ lin1.weight.data.T


class PerTypeRegressor(Module):
    """One sigmoid-headed MLP per gate type, output in (0, 1)."""

    def __init__(
        self,
        dim: int,
        num_types: int,
        rng: np.random.Generator,
        hidden: int = 0,
    ):
        hidden = hidden or dim
        self.num_types = num_types
        self.heads = [
            MLP([dim, hidden, 1], rng, final_activation="sigmoid")
            for _ in range(num_types)
        ]

    def forward(
        self, h: Tensor, node_type: np.ndarray, fused: bool = False
    ) -> Tensor:
        """Map (N, d) states to (N,) probabilities via the type-wise heads."""
        if fused:
            return self._forward_fused(h, node_type)
        n = h.shape[0]
        out = Tensor(np.zeros((n, 1), dtype=np.float32))
        for t in range(self.num_types):
            idx = np.nonzero(node_type == t)[0]
            if idx.size == 0:
                continue
            pred = self.heads[t](gather_rows(h, idx))
            out = scatter_rows(out, idx, pred)
        return out.reshape(-1)

    def _forward_fused(self, h: Tensor, node_type: np.ndarray) -> Tensor:
        """The whole readout as one autograd node (closed-form backward).

        Saves only each type's rows and probabilities: the backward
        regathers the rows and recomputes the hidden layer, so no
        per-type copy of the input or hidden layer outlives the forward.
        """
        hd = h.data
        out = np.zeros(hd.shape[0], dtype=np.float32)
        saved = []
        for t in range(self.num_types):
            idx = np.flatnonzero(node_type == t)
            if idx.size == 0:
                continue
            lin1, lin2 = self.heads[t].layers
            r1 = _hidden(lin1, hd[idx])
            z = r1 @ lin2.weight.data + lin2.bias.data
            del r1
            p = 1.0 / (1.0 + np.exp(-z))
            out[idx] = p.ravel()
            saved.append((t, idx, p))
        # listing the parameters walks the module tree: only a recording
        # call needs them
        record = is_grad_enabled()
        params = tuple(
            p for head in self.heads for p in head.parameters()
        ) if record else ()
        if not (
            record
            and (h.requires_grad or any(p.requires_grad for p in params))
        ):
            return Tensor(out)

        def backward(grad: np.ndarray) -> None:
            dh = np.zeros(hd.shape, np.float32) if h.requires_grad else None
            for t, idx, p in saved:
                _head_backward(self.heads[t], hd, idx, p, grad, dh)
            if dh is not None:
                h._accumulate(dh, own=True)

        return Tensor._make(out, (h, *params), backward)
