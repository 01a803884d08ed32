"""Compiled propagation pass execution: the models' shared fast path.

:func:`run_pass` records an entire propagation pass (one forward or
reverse sweep over a level schedule) as ONE autograd node.  Deep circuits
have hundreds of level groups of a handful of nodes each, so per-group
graph bookkeeping (node construction, closures, parameter accumulation,
small matmuls) would otherwise dominate the numbers being crunched.

There is one runner, and it walks *windows* of consecutive level groups:
a :class:`~repro.graphdata.batching.WindowedSchedule` is a sequence of
bounded windows, and a :class:`~repro.graphdata.batching.CompiledSchedule`
runs as a single window spanning the whole pass.

* The forward walks each window's groups in plain numpy, gathering
  sources from a single working matrix and running the closed-form
  aggregator + GRU kernels of :mod:`repro.nn.kernels` (per-design logic
  lives on the aggregator classes as ``step_*`` hooks — see
  :class:`~repro.models.aggregators.PassStepAggregator`).  A serve-sized
  group is a few nodes, so the number of NumPy calls per group, not the
  arithmetic, sets the pass time; the walk keeps it low:

  - the schedule's cached
    :class:`~repro.graphdata.batching.WalkPlan` gives each group as one
    flat tuple (sources, slices, layout and flags);
  - once per walk, one gather each fetches the query rows, the static
    GRU input share of every written node and (attention) every edge's
    query score, and each group slices them; the query rows come from
    the pass input by fancy indexing, which stays fast when that input
    is a zero-stride broadcast (DeepGate's initial state);
  - a group whose ``n`` nodes all have the same in-degree ``R`` reduces
    as one ``(R, n)`` grid reduction (the *grid rule*), and attention
    passes a group whose nodes each have one in-edge straight through,
    since each softmax weight is exactly 1 for a finite score (the
    *one-rank rule*);
  - a walk that keeps nothing builds no saved tuples, and a pass that
    records nothing lists no parameters.

  The per-group products (key scores, skip-edge scores, the message
  GEMM) keep their per-group shapes: BLAS does not give a row subset of
  a larger product the same bits.
* The backward replays the windows in reverse, each window's groups in
  reverse, routing source gradients by global row id through the
  schedule's routing plans — at most two scatters per group: rows the
  group read from the pass input into the input gradient, rows written
  earlier in the pass into the running output gradient, which is the
  output's own gradient buffer, updated in place (``Tensor.backward``
  drops it after the pass's backward returns).  A recorded
  one-window pass keeps every group's saved state from its forward; a
  multi-window pass keeps none and recomputes each window from the pass
  output, which bounds its state by the window budget.  The window count
  decides, not a setting; a pass that records no gradients keeps
  nothing.
* Everything that does not depend on mid-pass state is batched: the
  GRU's recurrent pre-projection ``h @ W_hh + b_hh`` over the written
  rows (in fixed chunks of :data:`GEMM_CHUNK_ROWS` rows, at most two
  resident), the attention query scores ``h @ w_q``, and the static
  share of the GRU input transform (a per-type table lookup).
  Per-group backward intermediates (gate-input gradients, messages,
  aggregator activations) land in contiguous buffers
  laid out by the window's :class:`~repro.graphdata.batching.PassBlock`,
  and every parameter gradient contracts them in one GEMM per window
  instead of one small GEMM per level group.

Every compiled level group is laid out rank-major (nodes by in-degree,
edges rank by rank; see
:class:`~repro.graphdata.batching.CompiledSchedule`), so each
per-target reduction in the aggregator kernels is a short chain of
slice ops.

A note on *batch interleaving*: level groups are keyed by level value,
so when a batch merges several circuits (``graphdata.merge``), nodes of
different circuits at the same level share one group — the pass depth
is the *maximum* circuit depth, not the sum.  Circuits never share
edges, so this interleaving is exact,
and it is already optimal: within one circuit every level-``L`` AND
node has a fanin at level ``L-1``, so a circuit's own chain cannot be
shortened.  (``tests/graphdata`` pins this with a merged-vs-single
group-count test.)

Both DeepGate's recurrent layers and the layered baselines run their
passes through this module via an :class:`AggregateCombineStep` — the
fused AGGREGATE (any of the paper's four Table II designs) + GRU COMBINE
step.  The reference composite formulation (``compiled=False``) remains
the equivalence-test oracle.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..graphdata.batching import (
    CompiledGroup,
    CompiledSchedule,
    GroupStep,
    PassBlock,
    Window,
    WindowedSchedule,
)
from ..nn import kernels
from ..nn.tensor import Tensor, is_grad_enabled
from .aggregators import PassStepAggregator, Sink, _acc

__all__ = [
    "run_pass",
    "AggregateCombineStep",
    "WINDOW_ENV_VAR",
    "get_window_budget",
    "set_window_budget",
    "use_window_budget",
    "get_window_stats",
    "reset_window_stats",
    "GEMM_CHUNK_ROWS",
]

# ---------------------------------------------------------------------------
# window budget (streaming propagation knob)
# ---------------------------------------------------------------------------

WINDOW_ENV_VAR = "REPRO_WINDOW_BUDGET"

_UNSET = object()
_active_window_budget: object = _UNSET


def _check_window_budget(value: Optional[int], source: str) -> Optional[int]:
    if value is None:
        return None
    budget = int(value)
    if budget < 1:
        raise ValueError(
            f"window budget must be >= 1 or None (from {source}); "
            f"got {value!r}"
        )
    return budget


def get_window_budget() -> Optional[int]:
    """The process's window node budget; ``None`` = full (unwindowed).

    Resolves ``REPRO_WINDOW_BUDGET`` on first use: unset, empty, ``0``,
    ``off``, ``full`` or ``none`` (any case) disable windowing; a
    positive integer caps the written-node count per window.
    """
    global _active_window_budget
    if _active_window_budget is _UNSET:
        raw = os.environ.get(WINDOW_ENV_VAR, "").strip()
        if not raw or raw.lower() in ("0", "off", "full", "none"):
            _active_window_budget = None
        else:
            try:
                value = int(raw)
            except ValueError:
                raise ValueError(
                    f"${WINDOW_ENV_VAR} must be an integer node budget, "
                    f"got {raw!r}"
                ) from None
            _active_window_budget = _check_window_budget(
                value, f"${WINDOW_ENV_VAR}"
            )
    return _active_window_budget  # type: ignore[return-value]


def set_window_budget(budget: Optional[int]) -> Optional[int]:
    """Activate a window node budget (``None`` disables windowing)."""
    global _active_window_budget
    _active_window_budget = _check_window_budget(budget, "set_window_budget")
    return _active_window_budget


@contextmanager
def use_window_budget(budget: Optional[int]):
    """Temporarily activate a window budget; restores the previous one."""
    global _active_window_budget
    previous = _active_window_budget
    try:
        yield set_window_budget(budget)
    finally:
        _active_window_budget = previous


#: streaming-pass counters since the last :func:`reset_window_stats`
_WINDOW_STATS: Dict[str, int] = {}


def reset_window_stats() -> None:
    """Zero the cumulative windowed-pass counters."""
    _WINDOW_STATS.update(
        passes=0, windows=0, frontier_rows=0, store_peak_bytes=0
    )


reset_window_stats()


def get_window_stats() -> Dict[str, int]:
    """Cumulative windowed-pass counters.

    ``passes`` and ``windows`` count every windowed pass; ``frontier_rows``
    sums, over the windows of each recorded (gradient-tracking) pass, the
    distinct earlier-window rows the window reads — the rows its
    backward re-stream reads across a window boundary.
    ``store_peak_bytes`` is always 0: the backward keeps no frontier
    store (it reads the pass output), and the key stays for readers of
    the older counter set.
    """
    return dict(_WINDOW_STATS)


# ---------------------------------------------------------------------------
# fixed-extent GEMM chunking (the windowed/full bitwise convention)
# ---------------------------------------------------------------------------

#: Row-chunk size for the recurrent pre-projection ``h @ W_hh + b_hh``,
#: computed over the pass's written axis (``hd[written]``, in written
#: order).  Every pass computes it through identical globally-aligned
#: chunk extents — never through window-sized GEMMs — because BLAS
#: results for a row subset of a GEMM are only guaranteed bitwise-equal
#: to the full product when the chunk extents match exactly.  The
#: constant is budget-independent, so every window budget reproduces the
#: one-window pass's output bits; a pass with at most this many written
#: rows (any circuit of a few thousand gates) runs the pre-projection as
#: one GEMM.  A windowed walk holds at most two chunks,
#: ``(GEMM_CHUNK_ROWS, 3d)`` each (1.6 MB at d=32), whatever the circuit
#: size.
GEMM_CHUNK_ROWS = 4096


def _affine(a: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ w + b`` as one GEMM, the bias added in place."""
    out = a @ w
    out += b
    return out


class _ChunkedAffine:
    """On-demand row ranges of ``hd[written] @ w + b`` in fixed chunks.

    Every pass's view of the recurrent pre-projection: chunks are
    computed lazily with globally-aligned extents over the written axis,
    so every window sees the same bits whatever the budget.  Each window
    reads one contiguous range of the written axis and a walk visits the
    windows monotonically (ascending forward, descending in the reverse
    re-stream), so the next range can only re-read a chunk that this
    range covers in part: keeping just those computes each chunk once per
    walk with at most two resident.  A one-window pass reads the whole
    axis in one range and keeps none.
    """

    def __init__(
        self, hd: np.ndarray, written: np.ndarray, w: np.ndarray, b: np.ndarray
    ):
        self._hd = hd
        self._written = written
        self._w = w
        self._b = b
        self._cache: Dict[int, np.ndarray] = {}

    def _compute(self, ci: int, a: Optional[np.ndarray] = None) -> np.ndarray:
        """Chunk ``ci``, projecting ``a`` when the caller holds its
        gathered input rows ``hd[written[chunk extent]]``."""
        if a is None:
            c0 = ci * GEMM_CHUNK_ROWS
            a = self._hd[self._written[c0:c0 + GEMM_CHUNK_ROWS]]
        return _affine(a, self._w, self._b)

    def rows(
        self, r0: int, r1: int, q: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """The projected rows ``[r0, r1)`` of the written axis.

        ``q``, the caller's gather ``hd[written[r0:r1]]``, is projected
        directly when the range is exactly one chunk (a one-window pass
        of at most :data:`GEMM_CHUNK_ROWS` rows), saving a second gather.
        """
        chunk = GEMM_CHUNK_ROWS
        first, last = r0 // chunk, (r1 - 1) // chunk
        # the walk never reads chunks outside this range again
        self._cache = {
            ci: v for ci, v in self._cache.items() if first <= ci <= last
        }
        out = None
        if first < last:
            out = np.empty((r1 - r0, self._w.shape[1]), np.float32)
        for ci in range(first, last + 1):
            c0 = ci * chunk
            c1 = min(c0 + chunk, len(self._written))
            a0, a1 = max(c0, r0), min(c1, r1)
            value = self._cache.get(ci)
            if value is None:
                value = self._compute(ci, q if (r0, r1) == (c0, c1) else None)
                if (a0, a1) != (c0, c1):
                    self._cache[ci] = value
            if out is None:
                return value[a0 - c0:a1 - c0]
            out[a0 - r0:a1 - r0] = value[a0 - c0:a1 - c0]
        return out


class AggregateCombineStep:
    """Closed-form per-group step: AGGREGATE + GRU COMBINE, numpy in/out.

    Delegates the aggregation maths to the aggregator's ``step_*`` hooks
    and owns the GRU side.  ``node_type`` (the batch graph's per-node gate
    types) selects DeepGate's ``fixed_x`` input mode, where the gate-type
    one-hot joins every GRU input; ``use_edge_attr`` feeds each group's
    precomputed edge-attribute block to the aggregator (skip
    connections; attention only).

    The static input-transform share is a per-type table built in
    :meth:`begin` and looked up once per walk in :meth:`begin_walk`;
    :meth:`forward` is the per-group entry point.  The backward lands
    gate gradients and messages in
    contiguous per-window buffers (:meth:`begin_backward`), and
    :meth:`end_backward` contracts them into the parameter gradients
    with one GEMM each.
    """

    def __init__(
        self,
        aggregate: PassStepAggregator,
        combine,
        node_type: Optional[np.ndarray] = None,
        use_edge_attr: bool = False,
    ):
        self.aggregate = aggregate
        self.combine = combine
        self.node_type = node_type
        self.fixed_x = node_type is not None
        self.use_edge_attr = (
            use_edge_attr and getattr(aggregate, "w_edge", None) is not None
        )

    def _edge_attr(self, group: CompiledGroup) -> Optional[np.ndarray]:
        return group.edge_attr if self.use_edge_attr else None

    def params(self) -> List[Tensor]:
        """Every parameter the pass node must list as a parent."""
        return [p for _, p in self.aggregate.named_parameters()] + [
            self.combine.w_ih, self.combine.b_ih,
            self.combine.w_hh, self.combine.b_hh,
        ]

    def begin(self, hd: np.ndarray) -> Tuple[object, Optional[np.ndarray]]:
        """Per-pass set-up.

        Returns ``(agg_ctx, x_table)``: the aggregator's pre-projections
        over the pass-input state and, with ``fixed_x``, the
        ``(num_types, 3d)`` table ``W_ih[d:] + b_ih``.  A gate's static
        GRU input-transform share (its one-hot row times ``W_ih[d:]``,
        plus ``b_ih``) is the table row of its type, with the same single
        rounding, so each group looks it up instead of running a GEMM
        over one-hot rows.
        """
        x_table = None
        if self.fixed_x:
            c = self.combine
            x_table = c.w_ih.data[hd.shape[1]:] + c.b_ih.data
        return self.aggregate.step_begin(hd), x_table

    def begin_walk(
        self, ctx: Tuple[object, Optional[np.ndarray]], ws: CompiledSchedule
    ) -> tuple:
        """Per-walk set-up over ``ws``, the walked window's schedule:
        the aggregator's walk state, the message block of ``W_ih`` and
        the GRU input bias of every written node — with ``fixed_x`` its
        type's ``x_table`` row (one ``take`` for the walk), else
        ``b_ih`` broadcast."""
        agg_ctx, x_table = ctx
        c = self.combine
        agg_walk = self.aggregate.step_walk(
            agg_ctx, ws.walk_plan(), self.use_edge_attr
        )
        if x_table is None:
            b = c.b_ih.data
            static = np.broadcast_to(b, (len(ws.written), b.shape[0]))
            return agg_walk, c.w_ih.data, static
        w_m = c.w_ih.data[: c.w_hh.data.shape[0]]
        static = x_table.take(self.node_type.take(ws.written), axis=0)
        return agg_walk, w_m, static

    def forward(
        self,
        gs: GroupStep,
        h_src: np.ndarray,
        query: np.ndarray,
        gh_rows: np.ndarray,
        walk: tuple,
        keep: bool,
    ) -> Tuple[np.ndarray, Optional[tuple]]:
        """One group's forward: the GRU input transform is a
        message-only GEMM plus the static share :meth:`begin_walk` took.
        Returns the new rows and, with ``keep``, the saved state for the
        backward (else ``None``)."""
        agg_walk, w_m, static = walk
        m, agg_saved = self.aggregate.step_forward(gs, h_src, agg_walk)
        gi = m @ w_m
        gi += static[gs.rows]
        out, gru_saved = kernels.gru_gates_np(gi, gh_rows, query)
        return out, ((m, agg_saved, gru_saved, h_src) if keep else None)

    def begin_backward(
        self, hd: np.ndarray, block: PassBlock
    ) -> Tuple[Sink, Sink]:
        """Per-window gradient buffers: every per-group gradient lands in
        a contiguous buffer (written-node order), scattered/contracted
        exactly once in :meth:`end_backward`."""
        c = self.combine
        n_w = block.num_written
        gru_sink = {
            "dgh": np.empty((n_w, c.w_hh.data.shape[1]), np.float32),
            "dgi": np.empty((n_w, c.w_ih.data.shape[1]), np.float32),
            "m": np.empty((n_w, hd.shape[1]), np.float32),
            "dq": np.empty((n_w, hd.shape[1]), np.float32),
        }
        return gru_sink, self.aggregate.step_sink(hd, block)

    def backward(
        self,
        group: CompiledGroup,
        grad: np.ndarray,
        query: np.ndarray,
        saved: tuple,
        gru_sink: Sink,
        agg_sink: Sink,
    ) -> np.ndarray:
        """One group's source gradient ``dh_src``: gate-input gradients
        and messages land in the window buffers; no per-group parameter
        GEMMs."""
        m, agg_saved, gru_saved, h_src = saved
        c = self.combine
        o0 = group.node_offset
        o1 = o0 + len(group.nodes)
        dgi, _ = kernels.gru_gates_backward_np(
            grad, query, gru_saved,
            out_gi=gru_sink["dgi"][o0:o1],
            out_gh=gru_sink["dgh"][o0:o1],
        )
        gru_sink["m"][o0:o1] = m
        # the direct z*h query path, landed in the window buffer and
        # folded into dh once in end_backward
        np.multiply(grad, gru_saved[1], out=gru_sink["dq"][o0:o1])
        w_ih = c.w_ih.data
        dm = dgi @ (w_ih[: query.shape[1]].T if self.fixed_x else w_ih.T)
        return self.aggregate.step_backward(
            group, dm, h_src, agg_saved, agg_sink, self._edge_attr(group)
        )

    def end_backward(
        self,
        hd: np.ndarray,
        gru_sink: Sink,
        agg_sink: Sink,
        dh: Optional[np.ndarray],
        block: PassBlock,
    ) -> None:
        """Fold a window's batched gradients into the parameters (and,
        when the pass input needs one, the hidden-state gradient)."""
        c = self.combine
        # dgh is (num_written, 3h) in written order: contract against the
        # gathered query rows and scatter the recurrent grad back once
        # (written nodes are unique, so fancy += is exact)
        dgh = gru_sink["dgh"]
        hdw = hd[block.written]
        _acc(c.w_hh, hdw.T @ dgh)
        _acc(c.b_hh, dgh.sum(axis=0))
        if dh is not None:
            dhw = dgh @ c.w_hh.data.T
            dhw += gru_sink["dq"]  # per-group direct z*h query grads
            dh[block.written] += dhw
        self.aggregate.step_end(hd, agg_sink, dh)
        dgi_all = gru_sink["dgi"]
        dw_m = gru_sink["m"].T @ dgi_all
        if self.fixed_x:
            dw_ih = np.concatenate([dw_m, block.x_rows.T @ dgi_all], axis=0)
        else:
            dw_ih = dw_m
        _acc(c.w_ih, dw_ih)
        _acc(c.b_ih, dgi_all.sum(axis=0))


def _route_source_grads(
    group: CompiledGroup,
    dh_src: np.ndarray,
    gwork: np.ndarray,
    dh: Optional[np.ndarray],
) -> None:
    """Scatter a group's source gradients by global row id: rows the
    group read from the pass input go into ``dh`` (skipped when
    ``None``), rows written earlier in the pass into the running output
    gradient ``gwork``."""
    for split in group.gather_plan:
        dest = dh if split.pass_input else gwork
        if dest is not None:
            kernels.segment_scatter_add(dest, dh_src, split)


def _walk(
    step: AggregateCombineStep,
    win: Window,
    hd: np.ndarray,
    work: np.ndarray,
    gh: _ChunkedAffine,
    ctx: tuple,
    write: bool,
    keep: bool,
) -> Optional[Tuple[List[tuple], np.ndarray]]:
    """Run one window's group forwards, gathering each group's sources
    as ``work[group.src]``.

    ``write`` stores each group's output in ``work[group.nodes]`` (the
    forward walk); the backward's recompute leaves ``work`` alone.  With
    ``keep``, returns every group's saved state in group order and the
    window's query rows, for the window's backward; without, returns
    ``None`` and builds no saved state.
    """
    ws = win.compiled
    # fancy indexing, not ``take``: the pass input may be a zero-stride
    # broadcast (DeepGate's initial state), where ``take`` is ~100x slower
    q_w = hd[ws.written]
    gh_w = gh.rows(win.written_start, win.written_stop, q_w)
    walk = step.begin_walk(ctx, ws)
    saveds: List[tuple] = []
    for gs in ws.walk_plan().steps:
        rows = gs.rows
        out, saved = step.forward(
            gs, work.take(gs.src, axis=0), q_w[rows], gh_w[rows], walk, keep
        )
        if write:
            work[gs.nodes] = out
        if keep:
            saveds.append(saved)
    return (saveds, q_w) if keep else None


def _window_backward(
    step: AggregateCombineStep,
    ws: CompiledSchedule,
    walked: Tuple[List[tuple], np.ndarray],
    block: PassBlock,
    hd: np.ndarray,
    gwork: np.ndarray,
    dh: Optional[np.ndarray],
) -> None:
    """One window's backward from its walk's saved state, groups in
    reverse.

    ``gwork[n]`` is the running gradient w.r.t. whichever rows the
    working matrix held at the point each group read them; walking
    groups in reverse means every later consumer has contributed by the
    time a group's own rows are read off.
    """
    saveds, q_w = walked
    gru_sink, agg_sink = step.begin_backward(hd, block)
    for group, saved in zip(reversed(ws.groups), reversed(saveds)):
        o0 = group.node_offset
        dh_src = step.backward(
            group, gwork[group.nodes], q_w[o0:o0 + len(group.nodes)],
            saved, gru_sink, agg_sink,
        )
        _route_source_grads(group, dh_src, gwork, dh)
    step.end_backward(hd, gru_sink, agg_sink, dh, block)


def run_pass(
    h: Tensor,
    schedule: Union[CompiledSchedule, WindowedSchedule],
    step: AggregateCombineStep,
) -> Tensor:
    """Run one compiled propagation pass as a single autograd node.

    A :class:`~repro.graphdata.batching.CompiledSchedule` runs as one
    window; a :class:`~repro.graphdata.batching.WindowedSchedule` walks
    its windows in level order, holding only the current window's
    transients.  A recorded one-window pass keeps each group's saved
    state for the backward — which is what lets a schedule that
    overwrites rows it reads (GCN's ``undirected`` one) differentiate.
    A multi-window pass keeps none: the reverse walk re-streams windows
    in reverse order, *recomputing* each window's forward, then running
    the window's backward.  The recompute gathers every group's sources
    from the pass output ``work``, which the output tensor keeps alive
    through the backward: the schedule is topological (checked by
    :meth:`WindowedSchedule.build`), so a row a group read was either
    never written in the pass (pass input) or written once by an earlier
    group, and ``work`` holds exactly the value the forward read.

    Outputs are bitwise identical for every window budget: windows
    compile the same rank-major groups as the full schedule, the
    recurrent pre-projection goes through the fixed-extent chunk
    convention over the written axis (:data:`GEMM_CHUNK_ROWS`), and all
    remaining forward arithmetic is per group.  Parameter/hidden-state
    gradients contract per window (window-sized GEMM extents), so a
    multi-window pass matches the one-window pass to float32 round-off
    rather than bitwise; the equivalence suite pins both properties.
    """
    windowed = isinstance(schedule, WindowedSchedule)
    if windowed:
        windows = schedule.windows
    elif schedule.groups:
        windows = [Window(schedule, frontier_rows=0, written_start=0,
                          written_stop=len(schedule.written))]
    else:
        windows = []
    if not windows:
        return h
    hd = h.data
    # listing the parameters walks the module tree: only a recording
    # pass needs them
    record = is_grad_enabled()
    params = step.params() if record else []
    record = record and (
        h.requires_grad or any(p.requires_grad for p in params)
    )
    keep = record and len(windows) == 1
    ctx = step.begin(hd)
    c = step.combine
    written = schedule.written
    gh = _ChunkedAffine(hd, written, c.w_hh.data, c.b_hh.data)
    work = hd.copy()
    for win in windows:
        kept = _walk(step, win, hd, work, gh, ctx, write=True, keep=keep)
    if windowed:
        _WINDOW_STATS["passes"] += 1
        _WINDOW_STATS["windows"] += len(windows)
        if record:
            _WINDOW_STATS["frontier_rows"] += sum(
                w.frontier_rows for w in windows
            )

    def backward(gwork: np.ndarray) -> None:
        # the running output gradient is the output's own gradient buffer,
        # updated in place: Tensor.backward drops it once this returns
        need_dh = h.requires_grad
        dh = np.zeros(hd.shape, np.float32) if need_dh else None
        if kept is not None:
            ws = windows[0].compiled
            _window_backward(step, ws, kept, ws.block(), hd, gwork, dh)
        else:
            gh_b = _ChunkedAffine(hd, written, c.w_hh.data, c.b_hh.data)
            for win in reversed(windows):
                ws = win.compiled
                # the walk's state is an argument, dropped before the next
                # window's recompute; the block is packed for this window's
                # backward only, so windows retain no copy of their rows
                _window_backward(
                    step, ws,
                    _walk(step, win, hd, work, gh_b, ctx,
                          write=False, keep=True),
                    PassBlock.pack(ws.groups, ws.written, ws.x),
                    hd, gwork, dh,
                )
        if need_dh:
            # rows never written flow straight through to the pass input
            gwork[written] = 0.0
            dh += gwork
            h._accumulate(dh, own=True)

    return Tensor._make(work, (h, *params), backward)
