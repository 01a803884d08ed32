"""Aggregation functions (the paper's four AGGREGATE designs, Table II).

Every aggregator maps per-edge source states to one message per target
node.  The shared interface is::

    aggregator(h_src, query, seg, num_targets, edge_attr=None) -> (T, d)

``h_src``   (E, d)  hidden state of each edge's source node
``query``   (T, d)  hidden state of each *target* node before update
                    (only the attention aggregator uses it)
``seg``     (E,)    target index per edge, values in [0, num_targets)
``edge_attr``       optional (E, p) attributes (positional encodings on
                    skip connections); only attention consumes them.

Each aggregator implements the design twice:

* **reference** (``forward``) — the composite autograd formulation, the
  ``compiled=False`` path and the equivalence-test oracle;
* **pass step** (``step_*`` methods) — raw numpy forward/backward hooks
  over the closed-form kernels of :mod:`repro.nn.kernels`, which the
  pass runner (:mod:`repro.models.propagation`) drives, with parameter
  gradients batched into per-window sink buffers.  A new AGGREGATE
  design plugs into the compiled fast path by implementing these hooks
  (see :class:`PassStepAggregator`).

The forward hooks run in three tiers, so each level group's step makes
as few NumPy calls as it can: ``step_begin`` once per pass over the
pass-input state, ``step_walk`` once per walk over the schedule's
:class:`~repro.graphdata.batching.WalkPlan` (gathers that every group
would otherwise repeat, done once and sliced per group), and
``step_forward`` once per group.  Segment reductions go through the
shared kernels, which reduce a uniform fan-in group as one grid
reduction; attention passes a group whose nodes each have one in-edge
straight through (its softmax weights are exactly 1 for finite scores).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..graphdata.batching import GroupStep, PassBlock, WalkPlan
from ..nn import kernels
from ..nn.functional import gather_rows, segment_softmax, segment_sum
from ..nn.kernels import segment_sum_np
from ..nn.modules import Linear, MLP, Module
from ..nn.tensor import Tensor

__all__ = [
    "ConvSumAggregator",
    "DeepSetAggregator",
    "GatedSumAggregator",
    "AttentionAggregator",
    "build_aggregator",
    "AGGREGATOR_NAMES",
]

AGGREGATOR_NAMES = ("conv_sum", "attention", "deepset", "gated_sum")

#: per-pass gradient accumulation buffers, keyed per aggregator design
Sink = Dict[str, np.ndarray]


def _acc(param: Tensor, grad: np.ndarray) -> None:
    if param.requires_grad:
        param._accumulate(grad, own=True)


class PassStepAggregator(Module):
    """The pass-step hooks the pass runner drives.

    ``step_begin``    per-pass pre-projections over the full pass-input
                      state ``hd`` (e.g. attention's query scores)
    ``step_walk``     per-walk state from ``step_begin``'s context and the
                      walk's :class:`~repro.graphdata.batching.WalkPlan`:
                      whatever every group step would gather, gathered
                      once for the walk's edges (attention: each edge's
                      query score); ``use_edge_attr`` says whether
                      skip-edge attributes feed the scores.  Defaults to
                      the ``step_begin`` context
    ``step_forward``  one group's message matrix + saved activations,
                      from its :class:`~repro.graphdata.batching.GroupStep`
                      (slices, layout and flags precomputed per schedule),
                      its gathered sources and the walk state
    ``step_sink``     a window's gradient buffers, sized from its
                      :class:`~repro.graphdata.batching.PassBlock`:
                      ``(num_written, ·)`` / ``(num_edges, ·)``
                      accumulation buffers
    ``step_backward`` one group's ``dh_src`` given ``dm``: write the
                      group's intermediates into the sink's buffers by
                      contiguous slice (``group.node_offset`` /
                      ``group.edge_offset``) and leave every parameter
                      GEMM to ``step_end``
    ``step_end``      fold the sink into the parameter tensors, and add
                      any batched contribution to ``dh`` (the pass-input
                      state gradient; ``None`` when not needed)
    """

    def step_begin(self, hd: np.ndarray) -> Optional[np.ndarray]:
        return None

    def step_walk(self, ctx, plan: WalkPlan, use_edge_attr: bool):
        return ctx

    def step_forward(self, gs: GroupStep, h_src: np.ndarray, walk):
        raise NotImplementedError

    def step_sink(self, hd: np.ndarray, block: PassBlock) -> Sink:
        raise NotImplementedError

    def step_backward(self, group, dm, h_src, saved, sink, edge_attr=None):
        raise NotImplementedError

    def step_end(
        self, hd: np.ndarray, sink: Sink, dh: Optional[np.ndarray]
    ) -> None:
        raise NotImplementedError


class ConvSumAggregator(PassStepAggregator):
    """Convolutional sum (NeuroSAT-style): ``m_v = sum_u W h_u``."""

    def __init__(self, dim: int, rng: np.random.Generator):
        self.linear = Linear(dim, dim, rng)

    def forward(
        self,
        h_src: Tensor,
        query: Tensor,
        seg: np.ndarray,
        num_targets: int,
        edge_attr: Optional[Tensor] = None,
    ) -> Tensor:
        return segment_sum(self.linear(h_src), seg, num_targets)

    # -- pass-step hooks (see PassStepAggregator) ----------------------
    def step_forward(self, gs, h_src, walk):
        lin = self.linear
        return kernels.conv_sum_forward_np(
            h_src, lin.weight.data, lin.bias.data, gs.layout
        )

    def step_sink(self, hd, block):
        d_in, d_out = self.linear.weight.data.shape
        n_w = block.num_written
        return {
            "s": np.empty((n_w, d_in), np.float32),
            "dm": np.empty((n_w, d_out), np.float32),
            "counts": block.counts,
        }

    def step_backward(self, group, dm, h_src, saved, sink, edge_attr=None):
        o0 = group.node_offset
        o1 = o0 + len(group.nodes)
        sink["s"][o0:o1] = saved
        sink["dm"][o0:o1] = dm
        return kernels.conv_sum_backward_np(
            dm, self.linear.weight.data, group.seg_layout
        )

    def step_end(self, hd, sink, dh):
        _acc(self.linear.weight, sink["s"].T @ sink["dm"])
        _acc(self.linear.bias, sink["counts"] @ sink["dm"])


class DeepSetAggregator(PassStepAggregator):
    """DeepSet: ``m_v = rho(sum_u phi(h_u))`` with MLP phi and linear rho."""

    def __init__(self, dim: int, rng: np.random.Generator):
        self.phi = MLP([dim, dim, dim], rng)
        self.rho = Linear(dim, dim, rng)

    def forward(
        self,
        h_src: Tensor,
        query: Tensor,
        seg: np.ndarray,
        num_targets: int,
        edge_attr: Optional[Tensor] = None,
    ) -> Tensor:
        return self.rho(segment_sum(self.phi(h_src), seg, num_targets))

    # -- pass-step hooks (see PassStepAggregator) ----------------------

    def step_forward(self, gs, h_src, walk):
        lin1, lin2 = self.phi.layers
        return kernels.deepset_forward_np(
            h_src,
            lin1.weight.data, lin1.bias.data,
            lin2.weight.data, lin2.bias.data,
            self.rho.weight.data, self.rho.bias.data,
            gs.layout,
        )

    def step_sink(self, hd, block):
        d = self.rho.weight.data.shape[0]
        n_w, n_e = block.num_written, block.num_edges
        return {
            "s1": np.empty((n_w, d), np.float32),
            "s2": np.empty((n_w, d), np.float32),
            "dm": np.empty((n_w, self.rho.weight.data.shape[1]), np.float32),
            "ds2": np.empty((n_w, d), np.float32),
            "da1": np.empty((n_e, d), np.float32),
            "h": np.empty((n_e, hd.shape[1]), np.float32),
            "counts": block.counts,
        }

    def step_backward(self, group, dm, h_src, saved, sink, edge_attr=None):
        lin1, lin2 = self.phi.layers
        r1, s1, s2 = saved
        ds2 = dm @ self.rho.weight.data.T
        dr1 = (ds2 @ lin2.weight.data.T)[group.seg_layout.segment_ids]
        da1 = dr1 * (r1 > 0)
        o0 = group.node_offset
        o1 = o0 + len(group.nodes)
        e0 = group.edge_offset
        e1 = e0 + len(group.src)
        sink["s1"][o0:o1] = s1
        sink["s2"][o0:o1] = s2
        sink["dm"][o0:o1] = dm
        sink["ds2"][o0:o1] = ds2
        sink["da1"][e0:e1] = da1
        sink["h"][e0:e1] = h_src
        return da1 @ lin1.weight.data.T

    def step_end(self, hd, sink, dh):
        lin1, lin2 = self.phi.layers
        da1, ds2, dm = sink["da1"], sink["ds2"], sink["dm"]
        _acc(self.rho.weight, sink["s2"].T @ dm)
        _acc(self.rho.bias, dm.sum(axis=0))
        _acc(lin2.weight, sink["s1"].T @ ds2)
        _acc(lin2.bias, sink["counts"] @ ds2)
        _acc(lin1.weight, sink["h"].T @ da1)
        _acc(lin1.bias, da1.sum(axis=0))


class GatedSumAggregator(PassStepAggregator):
    """D-VAE gated sum: ``m_v = sum_u sigmoid(g(h_u)) * f(h_u)``."""

    def __init__(self, dim: int, rng: np.random.Generator):
        self.gate = Linear(dim, dim, rng)
        self.value = Linear(dim, dim, rng)

    def forward(
        self,
        h_src: Tensor,
        query: Tensor,
        seg: np.ndarray,
        num_targets: int,
        edge_attr: Optional[Tensor] = None,
    ) -> Tensor:
        gated = self.gate(h_src).sigmoid() * self.value(h_src)
        return segment_sum(gated, seg, num_targets)

    # -- pass-step hooks (see PassStepAggregator) ----------------------

    def step_forward(self, gs, h_src, walk):
        return kernels.gated_sum_forward_np(
            h_src,
            self.gate.weight.data, self.gate.bias.data,
            self.value.weight.data, self.value.bias.data,
            gs.layout,
        )

    def step_sink(self, hd, block):
        n_e = block.num_edges
        return {
            "dv": np.empty((n_e, self.value.weight.data.shape[1]), np.float32),
            "dsg": np.empty((n_e, self.gate.weight.data.shape[1]), np.float32),
            "h": np.empty((n_e, hd.shape[1]), np.float32),
        }

    def step_backward(self, group, dm, h_src, saved, sink, edge_attr=None):
        g, v = saved
        dgv = dm[group.seg_layout.segment_ids]
        dv = dgv * g
        dsg = dgv * v * g * (1.0 - g)
        e0 = group.edge_offset
        e1 = e0 + len(group.src)
        sink["dv"][e0:e1] = dv
        sink["dsg"][e0:e1] = dsg
        sink["h"][e0:e1] = h_src
        return dv @ self.value.weight.data.T + dsg @ self.gate.weight.data.T

    def step_end(self, hd, sink, dh):
        h_all, dv, dsg = sink["h"], sink["dv"], sink["dsg"]
        _acc(self.value.weight, h_all.T @ dv)
        _acc(self.value.bias, dv.sum(axis=0))
        _acc(self.gate.weight, h_all.T @ dsg)
        _acc(self.gate.bias, dsg.sum(axis=0))


class AttentionAggregator(PassStepAggregator):
    """The paper's additive attention (Eq. 5), with skip-edge attributes.

    ``alpha_uv = softmax_u(w1^T h_v^{t-1} + w2^T h_u^t [+ w3^T gamma(D)])``
    and ``m_v = sum_u alpha_uv h_u`` — controlling inputs of a gate can
    learn to dominate the message, mimicking controlling-value semantics.
    """

    #: initial score offset for skip edges (last edge-attribute column is a
    #: skip indicator): exp(-2) keeps them from diluting real fan-ins early
    SKIP_INDICATOR_INIT = -2.0

    def __init__(self, dim: int, rng: np.random.Generator, edge_attr_dim: int = 0):
        self.w_query = Linear(dim, 1, rng, bias=False)
        self.w_key = Linear(dim, 1, rng, bias=False)
        self.edge_attr_dim = edge_attr_dim
        if edge_attr_dim:
            self.w_edge = Linear(edge_attr_dim, 1, rng, bias=False)
            self.w_edge.weight.data[:] = 0.0
            self.w_edge.weight.data[-1, 0] = self.SKIP_INDICATOR_INIT
        else:
            self.w_edge = None

    def forward(
        self,
        h_src: Tensor,
        query: Tensor,
        seg: np.ndarray,
        num_targets: int,
        edge_attr: Optional[Tensor] = None,
    ) -> Tensor:
        if edge_attr is not None:
            if self.w_edge is None:
                raise ValueError(
                    "AttentionAggregator was built with edge_attr_dim=0 and "
                    "has no edge-attribute weights, but was given edge_attr; "
                    "construct it with edge_attr_dim matching the attributes"
                )
            attr_data = (
                edge_attr.data if isinstance(edge_attr, Tensor) else edge_attr
            )
            if attr_data.shape[1] != self.edge_attr_dim:
                raise ValueError(
                    f"edge_attr has {attr_data.shape[1]} columns but the "
                    f"aggregator was built with "
                    f"edge_attr_dim={self.edge_attr_dim}"
                )
        q_per_edge = gather_rows(query, seg)
        scores = self.w_query(q_per_edge) + self.w_key(h_src)
        if edge_attr is not None:
            scores = scores + self.w_edge(edge_attr)
        alpha = segment_softmax(scores.reshape(-1), seg, num_targets)
        weighted = h_src * alpha.reshape(-1, 1)
        return segment_sum(weighted, seg, num_targets)

    # -- pass-step hooks (see PassStepAggregator) ----------------------
    def step_begin(self, hd):
        # query-score contribution of every node, batched per pass: the
        # query rows always come from the pass-input state.  A zero-stride
        # broadcast input (DeepGate's initial state) is first copied: on
        # the view, matmul leaves the BLAS path and rounds differently
        return (np.ascontiguousarray(hd) @ self.w_query.weight.data).ravel()

    def step_walk(self, ctx, plan, use_edge_attr):
        # every edge's query score in one take; the skip-edge weights
        # when attributes feed the scores
        we = self.w_edge.weight.data if use_edge_attr else None
        return ctx.take(plan.edge_targets), we

    def step_forward(self, gs, h_src, walk):
        if gs.one_rank:
            # one in-edge per node: each softmax weight is
            # exp(s - s) / exp(s - s), exactly 1 for a finite score, so
            # the message is the source row and no score is needed
            return h_src, np.ones(len(h_src), np.float32)
        qs, we = walk
        # (query + key) [+ attribute], the reference's rounding order
        scores = (h_src @ self.w_key.weight.data).ravel()
        scores += qs[gs.edges]
        if we is not None and gs.edge_attr is not None:
            scores += (gs.edge_attr @ we).ravel()
        return kernels.segment_softmax_weighted_np(scores, h_src, gs.layout)

    def step_sink(self, hd, block):
        # the attribute block the w_edge gradient contracts; a block no
        # skip edge lands on is a zero-stride view, copied here as in
        # step_begin so the contraction stays on the BLAS path
        return {
            "dqs_w": np.empty(block.num_written, np.float32),
            "written": block.written,
            "ds": np.empty(block.num_edges, np.float32),
            "h": np.empty((block.num_edges, hd.shape[1]), np.float32),
            **(
                {"attr": np.ascontiguousarray(block.edge_attr)}
                if self.w_edge is not None and block.edge_attr is not None
                else {}
            ),
        }

    def step_backward(self, group, dm, h_src, saved, sink, edge_attr=None):
        alpha = saved
        layout = group.seg_layout
        seg = layout.segment_ids
        dm_e = dm[seg]
        dh = alpha[:, None] * dm_e
        dalpha = np.einsum("ij,ij->i", h_src, dm_e)
        # softmax jacobian: ds = alpha * (dalpha - sum_segment(alpha*dalpha))
        weighted = alpha * dalpha
        ds = weighted - alpha * segment_sum_np(weighted, layout)[seg]
        dh += ds[:, None] * self.w_key.weight.data.reshape(1, -1)
        e0 = group.edge_offset
        e1 = e0 + len(group.src)
        o0 = group.node_offset
        o1 = o0 + len(group.nodes)
        sink["ds"][e0:e1] = ds
        sink["h"][e0:e1] = h_src
        sink["dqs_w"][o0:o1] = segment_sum_np(ds, group.seg_layout)
        if edge_attr is not None:
            sink["attr_used"] = True
        return dh

    def step_end(self, hd, sink, dh):
        # the per-query score grads sit in written-node order, so the wq
        # contraction and the dh scatter touch only the written rows
        # (unique — fancy += is exact)
        wq = self.w_query.weight
        dqs_w = sink["dqs_w"]
        written = sink["written"]
        _acc(wq, (hd[written].T @ dqs_w).reshape(wq.data.shape))
        if dh is not None:
            dh[written] += dqs_w[:, None] * wq.data.reshape(1, -1)
        ds_all = sink["ds"]
        wk = self.w_key.weight
        _acc(wk, (sink["h"].T @ ds_all).reshape(wk.data.shape))
        if sink.get("attr_used"):
            we = self.w_edge.weight
            _acc(we, (sink["attr"].T @ ds_all).reshape(we.data.shape))


def build_aggregator(
    name: str, dim: int, rng: np.random.Generator, edge_attr_dim: int = 0
) -> Module:
    """Factory over :data:`AGGREGATOR_NAMES`."""
    if name == "conv_sum":
        return ConvSumAggregator(dim, rng)
    if name == "deepset":
        return DeepSetAggregator(dim, rng)
    if name == "gated_sum":
        return GatedSumAggregator(dim, rng)
    if name == "attention":
        return AttentionAggregator(dim, rng, edge_attr_dim=edge_attr_dim)
    raise ValueError(f"unknown aggregator {name!r}; choose from {AGGREGATOR_NAMES}")
