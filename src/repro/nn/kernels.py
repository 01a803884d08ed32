"""Compiled segment/GRU kernels: the propagation fast path's number crunching.

Every segment reduction in the autograd layer goes through a
:class:`SegmentLayout`: a *rank* plan over the segment ids, computed once
and reused.  An element's rank is its position among its segment's
elements (0 for the first), so within one rank every segment occurs at
most once and a reduction is one conflict-free vectorised op per rank:
the first rank initialises each present segment, every later rank
combines into it in place.  Sums therefore accumulate strictly in element
order, ``(x0 + x1) + x2`` — bit for bit what a sequential float32 loop
(or ``np.add.at``) computes.

Compiled level groups lay their edges out *rank-major* (see
:class:`~repro.graphdata.batching.CompiledSchedule`): nodes by in-degree,
descending, and edges rank by rank, so rank ``r`` is one contiguous slice
of the edges feeding the first ``c_r`` nodes.  Their reductions are then
``out = v[:S]`` plus one in-place slice op per further rank.  When every
rank covers every segment (uniform fan-in, a *grid* layout) the elements
form an ``(R, S)`` grid and a reduction is one axis-0 ufunc reduction
(one binary ufunc for ``R == 2``, a copy for ``R == 1``), which folds the
ranks in the same order.  Any other segment-id array (the reference
path's on-the-fly layouts, gradient routing by row id, the
``gather_rows`` backward) runs the same rank-by-rank accumulation with
index arrays.

Kernels never write into their inputs; every in-place op works on an
array the kernel allocated itself.

The module also provides the closed-form kernels the models' hot path
runs on: the fused GRU cell (forward and backward, used by
:class:`~repro.nn.modules.GRUCell`), the GRU gate math given both
pre-activations (the pass runner batches ``h @ W_hh`` per pass), and the
forwards of the paper's AGGREGATE designs (Table II), each collapsing a
composite per-edge Linear/MLP graph over a cached :class:`SegmentLayout`.
Their backwards live with the pass-step hooks of
:mod:`repro.models.aggregators`, which batch parameter gradients per
window; ``conv_sum`` keeps its source-gradient kernel here.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

import numpy as np

__all__ = [
    "SegmentLayout",
    "segment_rank_order",
    "segment_sum_np",
    "segment_max_np",
    "segment_scatter_add",
    "segment_softmax_np",
    "segment_softmax_weighted_np",
    "conv_sum_forward_np",
    "conv_sum_backward_np",
    "deepset_forward_np",
    "gated_sum_forward_np",
    "gru_forward_np",
    "gru_gates_np",
    "gru_gates_backward_np",
    "gru_backward_np",
]

#: one rank of a :class:`SegmentLayout`: ``(elements, targets)``, both
#: slices on rank-major layouts, index arrays otherwise
Rank = Tuple[Union[slice, np.ndarray], Union[slice, np.ndarray]]


def segment_rank_order(
    segment_ids: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Elements ordered rank by rank, and the element count of each rank.

    An element's rank is its position among its segment's elements in
    element order (0 for the first); within a rank, elements run by
    segment id.  Counts per rank are non-increasing.
    """
    ids = np.asarray(segment_ids, dtype=np.int64).reshape(-1)
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    # in id-sorted order: position minus the first position of its id
    rank = np.arange(ids.size) - np.searchsorted(sorted_ids, sorted_ids)
    return order[np.argsort(rank, kind="stable")], np.bincount(rank)


class SegmentLayout:
    """Cached rank plan for reductions over one segment-id array.

    Computed once per ``(segment_ids, num_segments)`` pair — e.g. once per
    level group of a compiled schedule — and reused by every segment sum,
    max and softmax over those ids, forward and backward, every epoch.

    ``ranks``       one ``(elements, targets)`` pair per rank: rank ``r``
                    reads ``x[elements]`` into segments ``targets``, no
                    segment twice
    ``rank_major``  True when every segment is present and the elements
                    already run rank by rank, rank ``r`` feeding segments
                    ``0..c_r-1`` in order — compiled level groups are laid
                    out this way, and their ranks are plain slices
    ``grid``        True when the layout is rank-major and every rank
                    covers all segments, so the elements reshape to an
                    ``(R, num_segments)`` grid.  A single segment of three
                    or more ranks is left out: NumPy reduces a lone
                    contiguous row pairwise, not in rank order.

    ``rank_sizes`` is for a caller that laid the ids out rank-major
    itself and holds the element count of each rank (a compiled level
    group's :func:`segment_rank_order` sizes): the layout then takes the
    rank-major form without sorting the ids again.  The caller vouches
    for the order; only whether rank 0 covers every segment is checked,
    and if it does not, the ids are laid out as usual.
    """

    __slots__ = ("segment_ids", "num_segments", "ranks", "rank_major",
                 "grid", "_counts")

    def __init__(
        self,
        segment_ids: np.ndarray,
        num_segments: int,
        rank_sizes: Optional[np.ndarray] = None,
    ):
        ids = np.asarray(segment_ids, dtype=np.int64).reshape(-1)
        if ids.size:
            lo, hi = int(ids.min()), int(ids.max())
            if lo < 0 or hi >= num_segments:
                raise ValueError(
                    f"segment ids span [{lo}, {hi}] outside "
                    f"[0, {num_segments})"
                )
        self.segment_ids = ids
        self.num_segments = int(num_segments)
        self._counts: Optional[np.ndarray] = None
        self.ranks: List[Rank] = []
        self.rank_major = False
        self.grid = False
        if not ids.size:
            return
        known = rank_sizes is not None and rank_sizes[0] == self.num_segments
        perm, sizes = (None, rank_sizes) if known else segment_rank_order(ids)
        ends = np.cumsum(sizes)
        bounds = zip([0] + ends[:-1].tolist(), ends.tolist())
        # laid out rank-major by the caller, or already in rank order with
        # rank 0 covering every segment and each rank's (ascending) ids
        # ending at c_r - 1, i.e. exactly 0..c_r-1
        self.rank_major = known or bool(
            sizes[0] == self.num_segments
            and (perm == np.arange(ids.size)).all()
            and (ids[ends - 1] == sizes - 1).all()
        )
        if self.rank_major:
            self.ranks = [(slice(a, b), slice(0, b - a)) for a, b in bounds]
            self.grid = bool(sizes[-1] == self.num_segments) and (
                self.num_segments > 1 or sizes.size <= 2
            )
        else:
            targets = ids[perm]
            self.ranks = [(perm[a:b], targets[a:b]) for a, b in bounds]

    @property
    def counts(self) -> np.ndarray:
        """Element count per segment, ``(num_segments,)`` float32, cached.

        The fused linear+segment-sum kernels use it to fold a bias through
        the reduction: ``sum_e (x_e W + b) = (sum_e x_e) W + n_s b``.
        """
        if self._counts is None:
            self._counts = np.bincount(
                self.segment_ids, minlength=self.num_segments
            ).astype(np.float32)
        return self._counts

    def __len__(self) -> int:
        return self.segment_ids.size


def _first_rank(
    x: np.ndarray, layout: SegmentLayout, fill: float
) -> np.ndarray:
    """``(num_segments, ...)`` float32 initialised from rank 0; segments
    without elements hold ``fill``."""
    if layout.rank_major:
        # rank 0 is the leading slice and covers every segment in order
        return x[layout.ranks[0][0]].astype(np.float32)
    out = np.full((layout.num_segments,) + x.shape[1:], fill, np.float32)
    if layout.ranks:
        elems, targets = layout.ranks[0]
        out[targets] = x[elems]
    return out


def _grid(x: np.ndarray, layout: SegmentLayout) -> np.ndarray:
    """A grid layout's elements as an ``(R, num_segments, ...)`` view."""
    return x.reshape((len(layout.ranks), layout.num_segments) + x.shape[1:])


def _rank_reduce(op: np.ufunc, grid: np.ndarray) -> np.ndarray:
    """``op`` folded over a grid's ranks (axis 0), first rank first."""
    if len(grid) == 1:
        return grid[0].copy()
    if len(grid) == 2:
        return op(grid[0], grid[1])
    return op.reduce(grid, axis=0)


def segment_sum_np(x: np.ndarray, layout: SegmentLayout) -> np.ndarray:
    """Dense segment sum: ``out[s] = sum_{k: ids[k]==s} x[k]``, added in
    element order; zeros for empty segments."""
    if layout.grid:
        return _rank_reduce(np.add, _grid(x, layout))
    out = _first_rank(x, layout, 0.0)
    for elems, targets in layout.ranks[1:]:
        out[targets] += x[elems]
    return out


def segment_max_np(
    x: np.ndarray, layout: SegmentLayout, fill: float = -np.inf
) -> np.ndarray:
    """Per-segment max of a 1-D array; empty segments take ``fill``."""
    if layout.grid:
        return _rank_reduce(np.maximum, _grid(x, layout))
    out = _first_rank(x, layout, fill)
    for elems, targets in layout.ranks[1:]:
        if layout.rank_major:  # slice targets: fold the view in place
            part = out[targets]
            np.maximum(part, x[elems], out=part)
        else:
            out[targets] = np.maximum(out[targets], x[elems])
    return out


def segment_scatter_add(
    out: np.ndarray, x: np.ndarray, layout: SegmentLayout
) -> None:
    """``out[ids[k]] += x[k]`` for every element, in place.

    Repeated ids accumulate rank by rank, so each row receives its
    contributions in element order and only touched rows are written —
    scatter-style gradient routing uses it instead of a dense buffer.
    """
    for elems, targets in layout.ranks:
        out[targets] += x[elems]


def segment_softmax_np(
    s: np.ndarray, layout: SegmentLayout
) -> np.ndarray:
    """Numerically stable per-segment softmax of a 1-D score array.

    The output has one entry per *edge*, so targets with no incoming
    edges simply contribute no rows: with zero edges the result is the
    well-defined empty float32 array — never NaN, regardless of how many
    empty segments the layout declares (their ``-inf`` running maxima and
    zero denominators are never indexed).
    """
    if layout.grid:
        # per-segment maxima and sums broadcast over the (R, n) grid
        # instead of being re-gathered per element
        e = _grid(s, layout)
        e = e - _rank_reduce(np.maximum, e)
        np.exp(e, out=e)
        e /= _rank_reduce(np.add, e)
        return e.reshape(-1)
    if layout.segment_ids.size == 0:
        return np.zeros(0, dtype=np.float32)
    ids = layout.segment_ids
    e = s - segment_max_np(s, layout).take(ids)
    np.exp(e, out=e)
    e /= segment_sum_np(e, layout).take(ids)
    return e


def segment_softmax_weighted_np(
    s: np.ndarray, x: np.ndarray, layout: SegmentLayout
) -> Tuple[np.ndarray, np.ndarray]:
    """Fused ``alpha = segment_softmax(s)`` + ``m = segment_sum(alpha*x)``.

    The attention pass-step runs this once per level group.  Returns
    ``(m, alpha)`` with ``m`` dense ``(num_segments, d)``.
    """
    alpha = segment_softmax_np(s, layout)
    return segment_sum_np(x * alpha[:, None], layout), alpha


# ---------------------------------------------------------------------------
# fused aggregator forwards (paper Table II)
# ---------------------------------------------------------------------------


def _sigmoid_(x: np.ndarray) -> np.ndarray:
    """``1 / (1 + exp(-x))`` in place, as four ufuncs; the same bits as
    the out-of-place expression.  Only for arrays the kernel allocated."""
    np.negative(x, out=x)
    np.exp(x, out=x)
    x += 1.0
    return np.reciprocal(x, out=x)


def conv_sum_forward_np(
    h_src: np.ndarray,
    w: np.ndarray,
    b: Optional[np.ndarray],
    layout: SegmentLayout,
) -> Tuple[np.ndarray, np.ndarray]:
    """Fused convolutional sum: ``m_s = sum_e (h_e W + b)``.

    The linear map commutes with the segment sum, so the matmul runs over
    the (num_segments, d) sums instead of the (num_edges, d) sources:
    ``m = segsum(h) W + n_s b``.  Returns ``(m, s)`` with ``s`` (the
    per-segment source sums) saved for the backward.
    """
    s = segment_sum_np(h_src, layout)
    m = s @ w
    if b is not None:
        m += layout.counts[:, None] * b
    return m, s


def conv_sum_backward_np(
    dm: np.ndarray, w: np.ndarray, layout: SegmentLayout
) -> np.ndarray:
    """Source gradient ``dh_src`` of :func:`conv_sum_forward_np`."""
    return (dm @ w.T)[layout.segment_ids]


def deepset_forward_np(
    h_src: np.ndarray,
    w1: np.ndarray,
    b1: Optional[np.ndarray],
    w2: np.ndarray,
    b2: Optional[np.ndarray],
    wr: np.ndarray,
    br: Optional[np.ndarray],
    layout: SegmentLayout,
) -> Tuple[np.ndarray, Tuple[np.ndarray, ...]]:
    """Fused DeepSet: ``m_s = rho(sum_e phi(h_e))`` with a 2-layer MLP phi.

    Only phi's first layer (up to the ReLU) runs per edge; its second
    linear commutes with the segment sum like :func:`conv_sum_forward_np`,
    and rho acts on per-segment rows by construction.  Returns
    ``(m, saved)`` with the ReLU output, its segment sums and rho's input
    saved for the backward.
    """
    a1 = h_src @ w1
    if b1 is not None:
        a1 += b1
    r1 = np.maximum(a1, 0.0)
    s1 = segment_sum_np(r1, layout)
    s2 = s1 @ w2
    if b2 is not None:
        s2 += layout.counts[:, None] * b2
    m = s2 @ wr
    if br is not None:
        m += br
    return m, (r1, s1, s2)


def gated_sum_forward_np(
    h_src: np.ndarray,
    wg: np.ndarray,
    bg: Optional[np.ndarray],
    wv: np.ndarray,
    bv: Optional[np.ndarray],
    layout: SegmentLayout,
) -> Tuple[np.ndarray, Tuple[np.ndarray, np.ndarray]]:
    """Fused D-VAE gated sum: ``m_s = sum_e sigmoid(g(h_e)) * f(h_e)``.

    The sigmoid blocks pushing either linear through the reduction, so
    both stay per edge — the fusion collapses the seven-node composite
    graph (two linears, sigmoid, product, segment sum) into one call with
    the gate and value activations saved.
    """
    g = h_src @ wg
    if bg is not None:
        g += bg
    _sigmoid_(g)
    v = h_src @ wv
    if bv is not None:
        v += bv
    m = segment_sum_np(g * v, layout)
    return m, (g, v)


# ---------------------------------------------------------------------------
# fused GRU
# ---------------------------------------------------------------------------


def gru_gates_np(
    gi: np.ndarray, gh: np.ndarray, h: np.ndarray
) -> Tuple[np.ndarray, Tuple[np.ndarray, ...]]:
    """GRU gate math given BOTH pre-activations.

    The pass runner batches the input transform ``gi`` itself (static
    part a per-type table lookup, message part per group), so only the
    gate nonlinearity is left per group.  Returns
    ``(h_new, saved)`` like the fused forwards.

    At pass-step sizes a ufunc on a strided gate slice costs more than
    its arithmetic, so the ``r|z`` pre-activation is one contiguous
    ``(n, 2h)`` sum whose sigmoid runs in place once (``r`` and ``z`` are
    its halves), and the candidate is built in place; every in-place op
    writes an array this function allocated.
    """
    d = h.shape[1]
    rz = _sigmoid_(gi[:, :2 * d] + gh[:, :2 * d])
    r, z = rz[:, :d], rz[:, d:]
    hn = gh[:, 2 * d:]
    n = r * hn
    n += gi[:, 2 * d:]
    np.tanh(n, out=n)
    out = h - n
    out *= z
    out += n           # n + z * (h - n), one temporary instead of two
    return out, (r, z, n, hn)


def gru_gates_backward_np(
    grad: np.ndarray,
    h: np.ndarray,
    saved: Tuple[np.ndarray, ...],
    out_gi: Optional[np.ndarray] = None,
    out_gh: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Pre-activation gradients ``(dgi, dgh)`` of :func:`gru_gates_np`.

    ``out_gi``/``out_gh`` let the caller land the gradients directly in
    slices of pass-wide accumulation buffers instead of fresh
    per-group allocations.
    """
    r, z, n, hn = saved
    # in-place chains: these run once per level group on small matrices,
    # where temporary allocation is a measurable share of the cost
    dz = h - n
    dz *= grad
    dz *= z
    omz = 1.0 - z
    dz *= omz          # grad * (h - n) * z * (1 - z)
    dn = omz
    dn *= grad         # omz is dead past here; reuse its buffer
    t = n * n
    np.subtract(1.0, t, out=t)
    dn *= t            # grad * (1 - z) * (1 - n^2)
    dr = hn * dn
    dr *= r
    np.subtract(1.0, r, out=t)
    dr *= t            # dn * hn * r * (1 - r)
    d = h.shape[1]
    if out_gi is None:
        dgi = np.concatenate([dr, dz, dn], axis=1)
    else:
        dgi = out_gi
        dgi[:, :d] = dr
        dgi[:, d:2 * d] = dz
        dgi[:, 2 * d:] = dn
    if out_gh is None:
        dgh = np.concatenate([dr, dz, dn * r], axis=1)
    else:
        dgh = out_gh
        dgh[:, :d] = dr
        dgh[:, d:2 * d] = dz
        np.multiply(dn, r, out=dgh[:, 2 * d:])
    return dgi, dgh


def gru_forward_np(
    x: np.ndarray,
    h: np.ndarray,
    w_ih: np.ndarray,
    w_hh: np.ndarray,
    b_ih: np.ndarray,
    b_hh: np.ndarray,
) -> Tuple[np.ndarray, Tuple[np.ndarray, ...]]:
    """Fused GRU forward; returns ``(h_new, saved)`` for the backward.

    ``h' = (1 - z) * n + z * h`` with ``r = sigmoid(W_r x + U_r h)``,
    ``z`` alike, and ``n = tanh(W_n x + r * (U_n h))`` (biases folded in).
    """
    gi = x @ w_ih + b_ih
    gh = h @ w_hh + b_hh
    return gru_gates_np(gi, gh, h)


def gru_backward_np(
    grad: np.ndarray,
    x: np.ndarray,
    h: np.ndarray,
    w_ih: np.ndarray,
    w_hh: np.ndarray,
    saved: Tuple[np.ndarray, ...],
    need_x: bool = True,
    need_h: bool = True,
    need_w: bool = True,
) -> Tuple[Optional[np.ndarray], ...]:
    """Closed-form GRU backward.

    Returns ``(dx, dh, dw_ih, dw_hh, db_ih, db_hh)`` with ``None`` for the
    groups not requested (``need_w`` covers both weights and biases).
    """
    z = saved[1]
    dgi, dgh = gru_gates_backward_np(grad, h, saved)
    dx = dgi @ w_ih.T if need_x else None
    dh = (dgh @ w_hh.T + grad * z) if need_h else None
    if need_w:
        dw_ih = x.T @ dgi
        dw_hh = h.T @ dgh
        db_ih = dgi.sum(axis=0)
        db_hh = dgh.sum(axis=0)
    else:
        dw_ih = dw_hh = db_ih = db_hh = None
    return dx, dh, dw_ih, dw_hh, db_ih, db_hh
