"""Compiled propagation pass execution: the models' shared fast path.

A propagation pass (one forward or reverse sweep over a level schedule)
used to pay a full ``(N, d)`` state copy per level, then — after PR 4 —
one autograd node per level group.  Deep circuits have hundreds of level
groups of a handful of nodes each, so per-group graph bookkeeping (node
construction, closures, parameter accumulation, small matmuls) dominated
the numbers being crunched.  :func:`run_pass` now records the ENTIRE
pass as one autograd node:

* the forward walks the level groups in plain numpy, gathering sources
  from a single working matrix and running the closed-form aggregator +
  GRU kernels of :mod:`repro.nn.kernels` (per-design logic lives on the
  aggregator classes as ``step_*`` hooks — see
  :class:`~repro.models.aggregators.PassStepAggregator`);
* the backward replays the groups in reverse, routing source gradients
  by global row id through the schedule's precomputed routing plans —
  at most two scatters per group: rows the group read from the pass
  input into the input gradient, rows written earlier in the pass into
  the running output gradient;
* everything that does not depend on mid-pass state is batched per pass:
  the GRU's recurrent input transform ``h @ W_hh + b_hh`` (one GEMM over
  the pass-input rows of the written nodes instead of one per group —
  its gradient likewise materialises once, from the per-group gate
  gradients), the attention query scores ``h @ w_q``, and all parameter
  gradients, which accumulate into flat numpy buffers and hit the
  parameter tensors once per pass.

Two execution layouts (:data:`PASS_LAYOUTS`) decide how far the batching
goes:

* ``"block"`` (the default) runs over the schedule's
  :class:`~repro.graphdata.batching.PassBlock` layout: the static share
  of the GRU input transform (one-hot gate-type rows times ``W_ih[d:]``,
  plus ``b_ih``) is a row lookup in the per-type table ``W_ih[d:] +
  b_ih``; per-group backward intermediates (gate-input gradients,
  messages, aggregator activations) land in contiguous pass-wide
  buffers via slice writes; and every parameter gradient contracts
  those buffers in one GEMM per parameter at pass end instead of one
  small GEMM per group.
* ``"per_group"`` keeps the PR-5 behaviour — parameter-gradient GEMMs
  per group, accumulated into flat sinks — and serves as the close-in
  equivalence oracle for the block layout (both are checked against the
  uncompiled reference).

The layout is a per-process choice: ``REPRO_PASS_LAYOUT`` in the
environment, :func:`set_pass_layout` from code, or the
:func:`use_pass_layout` context manager in tests.  Every GEMM on either
layout runs through the pluggable backend seam
(:mod:`repro.nn.backends`).

Every compiled level group is laid out rank-major (nodes by in-degree,
edges rank by rank; see
:class:`~repro.graphdata.batching.CompiledSchedule`), so each
per-target reduction in the aggregator kernels is a short chain of
slice ops.

A :class:`~repro.graphdata.batching.WindowedSchedule` runs the
streaming runner: the forward walks bounded windows of the same
compiled groups, and the backward re-streams them in reverse,
recomputing each window's forward from the pass output it already
holds, before running the window's backward with the same routing as
the full runner.

A note on *batch interleaving*: level groups are keyed by level value,
so when a batch merges several circuits (``graphdata.merge`` /
``merge_schedules``), nodes of different circuits at the same level
share one group — the pass depth is the *maximum* circuit depth, not
the sum.  Circuits never share edges, so this interleaving is exact,
and it is already optimal: within one circuit every level-``L`` AND
node has a fanin at level ``L-1``, so a circuit's own chain cannot be
shortened.  (``tests/graphdata`` pins this with a merged-vs-single
group-count test.)

Both DeepGate's recurrent layers and the layered baselines run their
passes through this module via an :class:`AggregateCombineStep` — the
fused AGGREGATE (any of the paper's four Table II designs) + GRU COMBINE
step.  The aggregator modules keep equivalent single-node fused paths
for direct use; the reference composite formulation (``compiled=False``)
remains the equivalence-test oracle.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..graphdata.batching import (
    CompiledGroup,
    CompiledSchedule,
    PassBlock,
    WindowedSchedule,
)
from ..nn import kernels
from ..nn.backends import matmul as _mm
from ..nn.tensor import Tensor, is_grad_enabled
from .aggregators import PassStepAggregator, Sink, _acc

__all__ = [
    "run_pass",
    "AggregateCombineStep",
    "PASS_LAYOUTS",
    "LAYOUT_ENV_VAR",
    "get_pass_layout",
    "set_pass_layout",
    "use_pass_layout",
    "WINDOW_ENV_VAR",
    "get_window_budget",
    "set_window_budget",
    "use_window_budget",
    "get_window_stats",
    "reset_window_stats",
    "GEMM_CHUNK_ROWS",
]

#: the execution layouts run_pass understands
PASS_LAYOUTS = ("block", "per_group")

LAYOUT_ENV_VAR = "REPRO_PASS_LAYOUT"

_active_layout: Optional[str] = None


def _check_layout(name: str, source: str) -> str:
    if name not in PASS_LAYOUTS:
        raise ValueError(
            f"unknown pass layout {name!r} (from {source}); "
            f"valid layouts: {', '.join(PASS_LAYOUTS)}"
        )
    return name


def get_pass_layout() -> str:
    """The process's active layout, resolving the env var on first use."""
    global _active_layout
    if _active_layout is None:
        name = os.environ.get(LAYOUT_ENV_VAR, "").strip()
        _active_layout = (
            _check_layout(name, f"${LAYOUT_ENV_VAR}") if name else "block"
        )
    return _active_layout


def set_pass_layout(name: str) -> str:
    """Activate a layout by name; returns it."""
    global _active_layout
    _active_layout = _check_layout(name, "set_pass_layout")
    return _active_layout


@contextmanager
def use_pass_layout(name: str):
    """Temporarily activate a layout; restores the previous one on exit."""
    global _active_layout
    previous = _active_layout
    try:
        yield set_pass_layout(name)
    finally:
        _active_layout = previous


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
    ``off`` or ``full`` disable windowing; a positive integer caps the
    written-node count per window.
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
#: order).  Both the full and the windowed runners compute it through
#: identical globally-aligned chunk extents — never through window-sized
#: GEMMs — because BLAS results for a row subset of a GEMM are only
#: guaranteed bitwise-equal to the full product when the chunk extents
#: match exactly.  The constant is budget-independent, so every window
#: budget reproduces the full pass's output bits; every existing suite
#: has fewer rows than one chunk, so the full path's bits are unchanged
#: from the single-GEMM code it replaces.
GEMM_CHUNK_ROWS = 32768


def _affine(a: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ w + b`` as one GEMM, the bias added in place."""
    out = _mm(a, w)
    out += b
    return out


def _affine_chunked(a: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ w + b`` computed in :data:`GEMM_CHUNK_ROWS` row chunks.

    For ``len(a) <= GEMM_CHUNK_ROWS`` this is exactly the single GEMM
    the full path always ran.
    """
    chunk = GEMM_CHUNK_ROWS
    n = a.shape[0]
    if n <= chunk:
        return _affine(a, w, b)
    out = np.empty((n, w.shape[1]), np.float32)
    for c0 in range(0, n, chunk):
        out[c0:c0 + chunk] = _affine(a[c0:c0 + chunk], w, b)
    return out


class _ChunkedAffine:
    """On-demand row ranges of ``hd[written] @ w + b`` in fixed chunks.

    The windowed runner's view of the recurrent pre-projection: chunks
    are computed lazily with the same globally-aligned extents over the
    written axis as :func:`_affine_chunked` over ``hd[written]`` in the
    full runner, so every window sees the full pass's bits.  Each window
    reads one contiguous range of the written axis and a walk visits the
    windows monotonically (ascending forward, descending in the reverse
    re-stream), so only the chunks at the two ends of the latest range
    can be read again: keeping just those computes each chunk once per
    walk with at most two resident.
    """

    def __init__(
        self, hd: np.ndarray, written: np.ndarray, w: np.ndarray, b: np.ndarray
    ):
        self._hd = hd
        self._written = written
        self._w = w
        self._b = b
        self._cache: Dict[int, np.ndarray] = {}

    def _compute(self, ci: int) -> np.ndarray:
        c0 = ci * GEMM_CHUNK_ROWS
        rows = self._written[c0:c0 + GEMM_CHUNK_ROWS]
        return _affine(self._hd[rows], self._w, self._b)

    def rows(self, r0: int, r1: int) -> np.ndarray:
        """The projected rows ``[r0, r1)`` of the written axis."""
        chunk = GEMM_CHUNK_ROWS
        first, last = r0 // chunk, (r1 - 1) // chunk
        # the walk never reads chunks outside this range again
        self._cache = {
            ci: v for ci, v in self._cache.items() if first <= ci <= last
        }
        out = None
        for ci in range(first, last + 1):
            value = self._cache.get(ci)
            if value is None:
                value = self._compute(ci)
                if ci in (first, last):
                    self._cache[ci] = value
            c0 = ci * chunk
            if first == last:
                return value[r0 - c0:r1 - c0]
            if out is None:
                out = np.empty((r1 - r0, value.shape[1]), np.float32)
            a0, a1 = max(c0, r0), min(c0 + chunk, r1)
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

    The ``*_block`` variants implement the pass-wide block layout: the
    static input-transform share is a per-type table built in
    :meth:`begin`, gate gradients and messages land in contiguous pass
    buffers, and :meth:`end_backward` contracts them into the parameter
    gradients with one GEMM each.
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
        """Per-pass set-up shared by both runners.

        Returns ``(agg_ctx, x_table)``: the aggregator's pre-projections
        over the pass-input state and, with ``fixed_x``, the
        ``(num_types, 3d)`` table ``W_ih[d:] + b_ih``.  A gate's static
        GRU input-transform share (its one-hot row times ``W_ih[d:]``,
        plus ``b_ih``) is the table row of its type, with the same single
        rounding, so the block layout looks it up per group instead of
        running a GEMM over one-hot rows.
        """
        x_table = None
        if self.fixed_x:
            c = self.combine
            x_table = c.w_ih.data[hd.shape[1]:] + c.b_ih.data
        return self.aggregate.step_begin(hd), x_table

    def forward(
        self,
        group: CompiledGroup,
        h_src: np.ndarray,
        query: np.ndarray,
        gh_rows: np.ndarray,
        agg_ctx,
    ) -> Tuple[np.ndarray, tuple]:
        m, agg_saved = self.aggregate.step_forward(
            group, h_src, agg_ctx, self._edge_attr(group)
        )
        x_in = (
            np.concatenate([m, group.x_rows], axis=1) if self.fixed_x else m
        )
        c = self.combine
        out, gru_saved = kernels.gru_pre_forward_np(
            x_in, query, gh_rows, c.w_ih.data, c.b_ih.data
        )
        return out, (x_in, agg_saved, gru_saved)

    def forward_block(
        self,
        group: CompiledGroup,
        h_src: np.ndarray,
        query: np.ndarray,
        gh_rows: np.ndarray,
        agg_ctx,
        x_table: Optional[np.ndarray],
    ) -> Tuple[np.ndarray, tuple]:
        """Block-layout group forward: the GRU input transform splits
        into the static share looked up in ``x_table`` plus a
        message-only GEMM."""
        m, agg_saved = self.aggregate.step_forward(
            group, h_src, agg_ctx, self._edge_attr(group)
        )
        c = self.combine
        if x_table is not None:
            gi = _mm(m, c.w_ih.data[:query.shape[1]])
            gi += x_table[self.node_type[group.nodes]]
        else:
            gi = _mm(m, c.w_ih.data) + c.b_ih.data
        out, gru_saved = kernels.gru_gates_np(gi, gh_rows, query)
        # h_src is already a fresh gather the runner made for this group:
        # retaining it trades a little saved-state memory for skipping the
        # per-group re-gather in the reverse walk (the per_group layout
        # keeps the memory-lean _regather_sources path)
        return out, (m, agg_saved, gru_saved, h_src)

    def begin_backward(
        self, hd: np.ndarray, block: Optional[PassBlock] = None
    ) -> Tuple[Sink, Sink]:
        """Zeroed per-pass gradient accumulation buffers."""
        c = self.combine
        if block is None:
            gru_sink: Sink = {
                "dgh": np.zeros(
                    (hd.shape[0], c.w_hh.data.shape[1]), np.float32
                ),
                "dw_ih": np.zeros_like(c.w_ih.data),
                "db_ih": np.zeros_like(c.b_ih.data),
            }
        else:
            # block layout: every per-group gradient lands in a contiguous
            # pass-wide buffer (written-node order), scattered/contracted
            # exactly once in end_backward
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
        h_src: np.ndarray,
        query: np.ndarray,
        saved: tuple,
        gru_sink: Sink,
        agg_sink: Sink,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One group's gradients: returns ``(dh_src, dquery)``."""
        x_in, agg_saved, gru_saved = saved
        c = self.combine
        dx, dquery, dgh, dw_ih, db_ih = kernels.gru_pre_backward_np(
            grad, x_in, query, c.w_ih.data, gru_saved
        )
        gru_sink["dgh"][group.nodes] = dgh
        gru_sink["dw_ih"] += dw_ih
        gru_sink["db_ih"] += db_ih
        dm = (
            np.ascontiguousarray(dx[:, : query.shape[1]])
            if self.fixed_x
            else dx
        )
        dh_src = self.aggregate.step_backward(
            group, dm, h_src, agg_saved, agg_sink, self._edge_attr(group)
        )
        return dh_src, dquery

    def backward_block(
        self,
        group: CompiledGroup,
        grad: np.ndarray,
        h_src: np.ndarray,
        query: np.ndarray,
        saved: tuple,
        gru_sink: Sink,
        agg_sink: Sink,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Block-layout group backward: gate-input gradients and messages
        land in the pass buffers; no per-group parameter GEMMs."""
        m, agg_saved, gru_saved, _ = saved
        c = self.combine
        o0 = group.node_offset
        o1 = o0 + len(group.nodes)
        dgi, _ = kernels.gru_gates_backward_np(
            grad, query, gru_saved,
            out_gi=gru_sink["dgi"][o0:o1],
            out_gh=gru_sink["dgh"][o0:o1],
        )
        gru_sink["m"][o0:o1] = m
        # the direct z*h query path, landed in the pass buffer and folded
        # into dh once in end_backward
        np.multiply(grad, gru_saved[1], out=gru_sink["dq"][o0:o1])
        w_ih = c.w_ih.data
        dm = _mm(dgi, w_ih[: query.shape[1]].T if self.fixed_x else w_ih.T)
        dh_src = self.aggregate.step_backward_block(
            group, dm, h_src, agg_saved, agg_sink, self._edge_attr(group)
        )
        return dh_src, None

    def end_backward(
        self,
        hd: np.ndarray,
        gru_sink: Sink,
        agg_sink: Sink,
        dh: Optional[np.ndarray],
        block: Optional[PassBlock] = None,
    ) -> None:
        """Fold the batched per-pass gradients into the parameters (and,
        when the pass input needs one, the hidden-state gradient)."""
        c = self.combine
        dgh = gru_sink["dgh"]
        if block is None:
            _acc(c.w_hh, _mm(hd.T, dgh))
            _acc(c.b_hh, dgh.sum(axis=0))
            if dh is not None:
                dh += _mm(dgh, c.w_hh.data.T)
            self.aggregate.step_end(hd, agg_sink, dh)
            _acc(c.w_ih, gru_sink["dw_ih"])
            _acc(c.b_ih, gru_sink["db_ih"])
            return
        # dgh is (num_written, 3h) in written order: contract against the
        # gathered query rows and scatter the recurrent grad back once
        # (written nodes are unique, so fancy += is exact)
        hdw = hd[block.written]
        _acc(c.w_hh, _mm(hdw.T, dgh))
        _acc(c.b_hh, dgh.sum(axis=0))
        if dh is not None:
            dhw = _mm(dgh, c.w_hh.data.T)
            dhw += gru_sink["dq"]  # per-group direct z*h query grads
            dh[block.written] += dhw
        self.aggregate.step_end(hd, agg_sink, dh)
        dgi_all = gru_sink["dgi"]
        dw_m = _mm(gru_sink["m"].T, dgi_all)
        if self.fixed_x:
            dw_ih = np.concatenate(
                [dw_m, _mm(block.x_rows.T, dgi_all)], axis=0
            )
        else:
            dw_ih = dw_m
        _acc(c.w_ih, dw_ih)
        _acc(c.b_ih, dgi_all.sum(axis=0))

    # -- windowed (streaming) per_group variants -----------------------

    def backward_windowed(
        self,
        group: CompiledGroup,
        grad: np.ndarray,
        h_src: np.ndarray,
        query: np.ndarray,
        saved: tuple,
        gru_sink: Sink,
        agg_sink: Sink,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Like :meth:`backward`, but the ``dgh`` sink is window-sized
        and indexed by the group's window-local node offset (the
        aggregator sink stays pass-global)."""
        x_in, agg_saved, gru_saved = saved
        c = self.combine
        dx, dquery, dgh, dw_ih, db_ih = kernels.gru_pre_backward_np(
            grad, x_in, query, c.w_ih.data, gru_saved
        )
        o0 = group.node_offset
        gru_sink["dgh"][o0:o0 + len(group.nodes)] = dgh
        gru_sink["dw_ih"] += dw_ih
        gru_sink["db_ih"] += db_ih
        dm = (
            np.ascontiguousarray(dx[:, : query.shape[1]])
            if self.fixed_x
            else dx
        )
        dh_src = self.aggregate.step_backward(
            group, dm, h_src, agg_saved, agg_sink, self._edge_attr(group)
        )
        return dh_src, dquery

    def end_window(
        self,
        q_w: np.ndarray,
        win_written: np.ndarray,
        gru_sink: Sink,
        dh: Optional[np.ndarray],
    ) -> None:
        """Contract one window's per_group ``dgh`` into the recurrent
        parameters and the hidden-state gradient (windows write disjoint
        node sets, so the fancy ``+=`` is exact)."""
        c = self.combine
        dgh = gru_sink["dgh"]
        _acc(c.w_hh, _mm(q_w.T, dgh))
        _acc(c.b_hh, dgh.sum(axis=0))
        if dh is not None:
            dh[win_written] += _mm(dgh, c.w_hh.data.T)

    def end_pass_windowed(
        self,
        hd: np.ndarray,
        gru_sink: Sink,
        agg_sink: Sink,
        dh: Optional[np.ndarray],
    ) -> None:
        """Fold the pass-global accumulators of a windowed per_group
        backward (aggregator sink, GRU input-transform grads) into the
        parameters, once per pass."""
        self.aggregate.step_end(hd, agg_sink, dh)
        c = self.combine
        _acc(c.w_ih, gru_sink["dw_ih"])
        _acc(c.b_ih, gru_sink["db_ih"])


def _regather_sources(
    hd: np.ndarray, work: np.ndarray, group: CompiledGroup
) -> np.ndarray:
    """Reconstruct the source rows a group read during the forward.

    Pass-input rows still sit unchanged in ``hd`` (even where a group
    overwrites them later, as in an ``undirected`` schedule) and rows
    written by earlier groups sit in the final working matrix ``work``
    (each node is written exactly once).  Re-gathering here keeps the
    per-group ``(E_g, d)`` snapshots out of the saved state.
    """
    plan = group.gather_plan
    if len(plan) == 1 and plan[0].positions is None:
        base = hd if plan[0].pass_input else work
        return base[group.src]
    out = np.empty((len(group.src),) + hd.shape[1:], hd.dtype)
    for split in plan:
        base = hd if split.pass_input else work
        out[split.positions] = base[group.src[split.positions]]
    return out


def _route_source_grads(
    group: CompiledGroup,
    dh_src: np.ndarray,
    gwork: np.ndarray,
    dh: Optional[np.ndarray],
) -> None:
    """Scatter a group's source gradients by global row id, shared by
    both runners: rows the group read from the pass input go into ``dh``
    (skipped when ``None``), rows written earlier in the pass into the
    running output gradient ``gwork``."""
    for split in group.gather_plan:
        dest = dh if split.pass_input else gwork
        if dest is None:
            continue
        g = dh_src if split.positions is None else dh_src[split.positions]
        kernels.segment_scatter_add(dest, g, split.layout)


def run_pass(
    h: Tensor,
    schedule: Union[CompiledSchedule, WindowedSchedule],
    step: AggregateCombineStep,
    layout: Optional[str] = None,
) -> Tensor:
    """Run one compiled propagation pass as a single autograd node.

    ``layout`` picks the execution layout (see :data:`PASS_LAYOUTS`);
    ``None`` uses the process default from :func:`get_pass_layout`.
    A :class:`~repro.graphdata.batching.WindowedSchedule` runs the
    streaming bounded-memory path (:func:`_run_pass_windowed`), which
    produces bitwise-identical outputs to the full pass.
    """
    if layout is None:
        layout = get_pass_layout()
    else:
        _check_layout(layout, "run_pass")
    if isinstance(schedule, WindowedSchedule):
        return _run_pass_windowed(h, schedule, step, layout)
    if not schedule.groups:
        return h
    block = schedule.block() if layout == "block" else None
    hd = h.data
    params = step.params()
    record = is_grad_enabled() and (
        h.requires_grad or any(p.requires_grad for p in params)
    )
    agg_ctx, x_table = step.begin(hd)
    work = hd.copy()
    saved_all: List[tuple] = []
    written = schedule.written
    # one batched gather for the query rows and one chunked GEMM for their
    # recurrent pre-activations, both in written order; groups then take
    # contiguous views
    q_all = hd[written]
    c = step.combine
    gh_w = _affine_chunked(q_all, c.w_hh.data, c.b_hh.data)
    for group in schedule.groups:
        o0 = group.node_offset
        o1 = o0 + len(group.nodes)
        h_src = work[group.src]
        if block is not None:
            out, saved = step.forward_block(
                group, h_src, q_all[o0:o1], gh_w[o0:o1], agg_ctx, x_table
            )
        else:
            out, saved = step.forward(
                group, h_src, q_all[o0:o1], gh_w[o0:o1], agg_ctx
            )
        work[group.nodes] = out
        if record:
            saved_all.append(saved)
    groups = schedule.groups

    def backward(grad: np.ndarray) -> None:
        gru_sink, agg_sink = step.begin_backward(hd, block)
        # gwork[n] = running gradient w.r.t. whichever rows the pass's
        # working matrix held at the point each group read them; walking
        # groups in reverse means every later consumer has contributed
        # by the time a group's own rows are read off
        gwork = grad.copy()
        need_dh = h.requires_grad
        dh = np.zeros_like(hd) if need_dh else None
        group_backward = (
            step.backward_block if block is not None else step.backward
        )
        for group, saved in zip(reversed(groups), reversed(saved_all)):
            g_out = gwork[group.nodes]
            o0 = group.node_offset
            query = q_all[o0:o0 + len(group.nodes)]
            if block is not None:
                # block forwards retain their gather; the per_group
                # layout re-derives it to keep saved state lean
                h_src = saved[3]
            else:
                h_src = _regather_sources(hd, work, group)
            dh_src, dquery = group_backward(
                group, g_out, h_src, query, saved, gru_sink, agg_sink
            )
            if need_dh and dquery is not None:
                dh[group.nodes] += dquery
            _route_source_grads(group, dh_src, gwork, dh)
        step.end_backward(hd, gru_sink, agg_sink, dh, block)
        if need_dh:
            # rows never written flow straight through to the pass input
            gwork[written] = 0.0
            dh += gwork
            h._accumulate(dh, own=True)

    return Tensor._make(work, (h, *params), backward)


# ---------------------------------------------------------------------------
# windowed (streaming) pass execution
# ---------------------------------------------------------------------------


def _run_pass_windowed(
    h: Tensor,
    wsched: WindowedSchedule,
    step: AggregateCombineStep,
    layout: str,
) -> Tensor:
    """Run one pass streaming over a :class:`WindowedSchedule`.

    The forward walks windows in level order; per-window transients
    (query/pre-activation rows, group outputs) are discarded as soon as
    the window's nodes are written.  No per-group saved state is
    retained: the reverse walk re-streams windows in reverse order,
    *recomputing* each window's forward, then running the window's
    backward — still one autograd node per pass.  The recompute gathers
    every group's sources from the pass output ``work``, which the
    output tensor keeps alive through the backward: the schedule is
    topological (checked by :meth:`WindowedSchedule.build`), so a row a
    group read was either never written in the pass (pass input) or
    written once by an earlier group, and ``work`` holds exactly the
    value the forward read.

    Outputs are bitwise identical to the full runner for every window
    budget: both runners compile the same rank-major groups, the
    recurrent pre-projection goes through the fixed-extent chunk
    convention over the written axis (:data:`GEMM_CHUNK_ROWS`), the
    static GRU input share is the same per-type table lookup, and all
    remaining forward arithmetic is per-group in both runners.
    Parameter/hidden-state gradients contract per window (window-sized
    GEMM extents), so they match the full pass to float32 round-off
    rather than bitwise; the equivalence suite pins both properties.
    """
    if not wsched.windows:
        return h
    use_block = layout == "block"
    hd = h.data
    params = step.params()
    record = is_grad_enabled() and (
        h.requires_grad or any(p.requires_grad for p in params)
    )
    agg_ctx, x_table = step.begin(hd)
    c = step.combine
    written_all = wsched.written
    gh = _ChunkedAffine(hd, written_all, c.w_hh.data, c.b_hh.data)
    work = hd.copy()
    for win in wsched.windows:
        ws = win.compiled
        gh_w = gh.rows(win.written_start, win.written_stop)
        if use_block:
            q_w = hd[ws.written]
            for group in ws.groups:
                o0 = group.node_offset
                o1 = o0 + len(group.nodes)
                out, _ = step.forward_block(
                    group, work[group.src], q_w[o0:o1], gh_w[o0:o1],
                    agg_ctx, x_table,
                )
                work[group.nodes] = out
        else:
            for group in ws.groups:
                o0 = group.node_offset
                o1 = o0 + len(group.nodes)
                out, _ = step.forward(
                    group, work[group.src], hd[group.nodes], gh_w[o0:o1],
                    agg_ctx,
                )
                work[group.nodes] = out
    _WINDOW_STATS["passes"] += 1
    _WINDOW_STATS["windows"] += len(wsched.windows)
    if record:
        _WINDOW_STATS["frontier_rows"] += sum(
            w.frontier_rows for w in wsched.windows
        )

    def backward(grad: np.ndarray) -> None:
        gwork = grad.copy()
        need_dh = h.requires_grad
        dh = np.zeros_like(hd) if need_dh else None
        gh_b = _ChunkedAffine(hd, written_all, c.w_hh.data, c.b_hh.data)
        if not use_block:
            # pass-global accumulators: the aggregator sink (param-shaped,
            # plus attention's dense query-score grads) and the GRU
            # input-transform grads fold into the parameters once per pass
            agg_sink = step.aggregate.step_sink(hd, None)
            gru_acc: Sink = {
                "dw_ih": np.zeros_like(c.w_ih.data),
                "db_ih": np.zeros_like(c.b_ih.data),
            }
        for win in reversed(wsched.windows):
            ws = win.compiled
            # drop the previous window's saved state (it holds views of
            # its projection chunks) before projecting this window's rows
            saveds: List[tuple] = []
            srcs: List[np.ndarray] = []
            gh_w = gh_b.rows(win.written_start, win.written_stop)
            q_w = hd[ws.written]
            if use_block:
                for group in ws.groups:
                    o0 = group.node_offset
                    o1 = o0 + len(group.nodes)
                    _, saved = step.forward_block(
                        group, work[group.src], q_w[o0:o1], gh_w[o0:o1],
                        agg_ctx, x_table,
                    )
                    saveds.append(saved)
                # packed per window and dropped with it: a window never
                # retains a copy of its groups' feature/attribute rows
                wblock = PassBlock.pack(ws.groups, ws.written)
                gru_sink, agg_sink_w = step.begin_backward(hd, wblock)
                for group, saved in zip(reversed(ws.groups), reversed(saveds)):
                    o0 = group.node_offset
                    dh_src, _ = step.backward_block(
                        group,
                        gwork[group.nodes],
                        saved[3],
                        q_w[o0:o0 + len(group.nodes)],
                        saved,
                        gru_sink,
                        agg_sink_w,
                    )
                    _route_source_grads(group, dh_src, gwork, dh)
                step.end_backward(hd, gru_sink, agg_sink_w, dh, wblock)
            else:
                for group in ws.groups:
                    o0 = group.node_offset
                    o1 = o0 + len(group.nodes)
                    h_src = work[group.src]
                    _, saved = step.forward(
                        group, h_src, hd[group.nodes], gh_w[o0:o1], agg_ctx
                    )
                    saveds.append(saved)
                    srcs.append(h_src)
                gru_sink = {
                    "dgh": np.empty(
                        (len(ws.written), c.w_hh.data.shape[1]), np.float32
                    ),
                    "dw_ih": gru_acc["dw_ih"],
                    "db_ih": gru_acc["db_ih"],
                }
                for group, saved, h_src in zip(
                    reversed(ws.groups), reversed(saveds), reversed(srcs)
                ):
                    dh_src, dquery = step.backward_windowed(
                        group,
                        gwork[group.nodes],
                        h_src,
                        hd[group.nodes],
                        saved,
                        gru_sink,
                        agg_sink,
                    )
                    if need_dh and dquery is not None:
                        dh[group.nodes] += dquery
                    _route_source_grads(group, dh_src, gwork, dh)
                step.end_window(q_w, ws.written, gru_sink, dh)
        if not use_block:
            step.end_pass_windowed(hd, gru_acc, agg_sink, dh)
        if need_dh:
            # rows never written flow straight through to the pass input
            gwork[written_all] = 0.0
            dh += gwork
            h._accumulate(dh, own=True)

    return Tensor._make(work, (h, *params), backward)
