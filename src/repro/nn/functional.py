"""Graph-oriented autograd operations.

These are the operations a DAG-GNN needs beyond basic arithmetic: gathering
rows for message sources, scattering updated hidden states back into the
node-state matrix, and segment (per-destination) reductions used by the
aggregation functions — including the segment softmax that realises the
paper's additive attention (Eq. 5).

All segment reductions run on the rank-by-rank kernels of
:mod:`repro.nn.kernels` rather than ``np.add.at``/``np.maximum.at``: one
conflict-free vectorised op per rank, accumulating each segment in
element order.  These ops back the reference (``compiled=False``) path
and build their :class:`~repro.nn.kernels.SegmentLayout` per call; the
compiled propagation path calls the kernels directly on the layouts its
schedules cache.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .kernels import SegmentLayout, segment_softmax_np, segment_sum_np
from .tensor import Tensor

__all__ = [
    "concat",
    "gather_rows",
    "scatter_rows",
    "segment_sum",
    "segment_softmax",
    "l1_loss",
]


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis``."""
    parts = list(tensors)
    data = np.concatenate([t.data for t in parts], axis=axis)
    sizes = [t.data.shape[axis] for t in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for t, start, stop in zip(parts, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                sl = [slice(None)] * grad.ndim
                sl[axis] = slice(start, stop)
                t._accumulate(grad[tuple(sl)])

    return Tensor._make(data, parts, backward)


def gather_rows(x: Tensor, index: np.ndarray) -> Tensor:
    """Select rows: ``out[k] = x[index[k]]`` (repeats allowed).

    The backward accumulates repeated rows rank by rank through a segment
    layout, touching only the gathered rows rather than a dense zero
    matrix.
    """
    index = np.asarray(index, dtype=np.int64)
    data = x.data[index]

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            lay = SegmentLayout(index, x.data.shape[0])
            for elems, targets in lay.ranks:
                x._accumulate_rows(targets, grad[elems])

    return Tensor._make(data, (x,), backward)


def scatter_rows(base: Tensor, index: np.ndarray, rows: Tensor) -> Tensor:
    """Functional row update: ``out = base`` with ``out[index] = rows``.

    ``index`` entries must be unique (checked).  This is how level-by-level
    message passing writes freshly-computed hidden states into the
    node-state matrix without in-place mutation (which would break
    autograd).
    """
    index = np.asarray(index, dtype=np.int64)
    if index.size and np.unique(index).size != index.size:
        raise ValueError(
            "scatter_rows requires unique indices; duplicates would make "
            "the forward write order-dependent and silently corrupt "
            "gradients"
        )
    data = base.data.copy()
    data[index] = rows.data

    def backward(grad: np.ndarray) -> None:
        if base.requires_grad:
            gb = grad.copy()
            gb[index] = 0.0
            base._accumulate(gb, own=True)
        if rows.requires_grad:
            rows._accumulate(grad[index], own=True)

    return Tensor._make(data, (base, rows), backward)


def segment_sum(
    x: Tensor, segment_ids: np.ndarray, num_segments: int
) -> Tensor:
    """Sum rows of ``x`` grouped by ``segment_ids``.

    ``out[s] = sum_{k : segment_ids[k] == s} x[k]``; segments with no
    members yield zero rows.
    """
    lay = SegmentLayout(segment_ids, num_segments)
    data = segment_sum_np(x.data, lay)
    ids = lay.segment_ids

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad[ids], own=True)

    return Tensor._make(data, (x,), backward)


def segment_softmax(
    scores: Tensor, segment_ids: np.ndarray, num_segments: int
) -> Tensor:
    """Numerically stable softmax within each segment.

    ``scores`` is a 1-D tensor (one entry per edge); the result sums to 1
    within every segment.  This implements the ``softmax_{u in P(v)}`` of
    the paper's attention coefficients.
    """
    lay = SegmentLayout(segment_ids, num_segments)
    ids = lay.segment_ids
    out = segment_softmax_np(scores.data.reshape(-1), lay)

    def backward(grad: np.ndarray) -> None:
        if not scores.requires_grad:
            return
        g = grad.reshape(-1)
        # d softmax: out * (g - sum_segment(g * out))
        weighted = segment_sum_np(g * out, lay)
        gs = out * (g - weighted[ids])
        scores._accumulate(gs.reshape(scores.data.shape), own=True)

    return Tensor._make(out.reshape(scores.data.shape), (scores,), backward)


def l1_loss(prediction: Tensor, target: np.ndarray) -> Tensor:
    """Mean absolute error against a constant target (paper's Eq. 8 loss)."""
    diff = prediction - Tensor(np.asarray(target, dtype=np.float32))
    return diff.abs().mean()
