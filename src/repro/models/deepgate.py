"""The DeepGate model: recurrent DAG-GNN with attention and skip connections.

One class implements both DeepGate and the DAG-RecGNN baselines of Table II,
because the paper defines DAG-RecGNN as "the same COMBINE function and the
reversed propagation layer design" with a non-attention aggregator and no
skip connections.  The knobs:

``aggregator``   'attention' (DeepGate) or 'conv_sum' / 'deepset' /
                 'gated_sum' (DAG-RecGNN rows of Table II)
``use_skip``     add reconvergence skip connections with positional-encoded
                 edge attributes to the attention scores (§III-D)
``input_mode``   'fixed_x': gate-type one-hot concatenated into every GRU
                 update (DeepGate's fix for vanishing gate information);
                 'init_only': h0 = embed(x), message alone drives the GRU
                 (the previous-DAG-GNN convention)
``use_reverse``  run a reversed propagation layer after each forward layer
``compiled``     run propagation through the batch's
                 :class:`~repro.graphdata.batching.CompiledSchedule` fast
                 path (state materialised once per pass, cached segment
                 layouts, precomputed edge-attribute blocks).  ``False``
                 keeps the reference level-by-level ``scatter_rows`` loop —
                 equal up to float32 round-off (the fused kernels change
                 the summation order; the equivalence suite checks
                 ``rtol=1e-5, atol=1e-6``); it is the numerical oracle the
                 equivalence tests hold the compiled path to.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..graphdata.dataset import PreparedBatch
from ..nn import init as nn_init
from ..nn.functional import concat, gather_rows, scatter_rows
from ..nn.modules import GRUCell, Linear, Module
from ..nn.tensor import Tensor
from .aggregators import build_aggregator
from .propagation import AggregateCombineStep, get_window_budget, run_pass
from .regressor import PerTypeRegressor

__all__ = ["DeepGate"]


class DeepGate(Module):
    """Recurrent circuit GNN for per-gate signal probability prediction."""

    def __init__(
        self,
        num_types: int = 3,
        dim: int = 64,
        num_iterations: int = 10,
        aggregator: str = "attention",
        use_skip: bool = True,
        use_reverse: bool = True,
        input_mode: str = "fixed_x",
        pe_levels: int = 8,
        rng: Optional[np.random.Generator] = None,
        compiled: bool = True,
    ):
        if input_mode not in ("fixed_x", "init_only"):
            raise ValueError(f"unknown input_mode {input_mode!r}")
        if use_skip and aggregator != "attention":
            raise ValueError("skip connections require the attention aggregator")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.num_types = num_types
        self.dim = dim
        self.num_iterations = num_iterations
        self.aggregator_name = aggregator
        self.use_skip = use_skip
        self.use_reverse = use_reverse
        self.input_mode = input_mode
        self.pe_levels = pe_levels
        self.compiled = compiled

        # [gamma(D), skip indicator] per edge (see graphdata.batching)
        edge_dim = 2 * pe_levels + 1 if use_skip else 0
        gru_in = dim + (num_types if input_mode == "fixed_x" else 0)

        self.fwd_aggregate = build_aggregator(aggregator, dim, rng, edge_dim)
        self.fwd_combine = GRUCell(gru_in, dim, rng)
        if use_reverse:
            self.rev_aggregate = build_aggregator(aggregator, dim, rng)
            self.rev_combine = GRUCell(gru_in, dim, rng)
        else:
            self.rev_aggregate = None
            self.rev_combine = None
        if input_mode == "init_only":
            self.embed = Linear(num_types, dim, rng)
        else:
            self.embed = None
        self.regressor = PerTypeRegressor(dim, num_types, rng)
        # the paper initialises hidden states randomly; a fixed draw (saved
        # as a buffer, not trained) keeps training deterministic
        self.h_init = Tensor(nn_init.normal((1, dim), rng, std=0.1))

    def config(self) -> dict:
        """JSON-able constructor arguments (checkpoint ``model_config``)."""
        return {
            "class": "DeepGate",
            "num_types": self.num_types,
            "dim": self.dim,
            "num_iterations": self.num_iterations,
            "aggregator": self.aggregator_name,
            "use_skip": self.use_skip,
            "use_reverse": self.use_reverse,
            "input_mode": self.input_mode,
            "pe_levels": self.pe_levels,
        }

    # ------------------------------------------------------------------
    def initial_state(self, batch: PreparedBatch) -> Tensor:
        x = Tensor(batch.x)
        n = batch.graph.num_nodes
        if self.input_mode == "init_only":
            return self.embed(x)
        # a read-only zero-stride view: every row is ``h_init``, and the
        # first pass copies it into its output anyway
        return Tensor(np.broadcast_to(self.h_init.data, (n, self.dim)))

    def embeddings(
        self, batch: PreparedBatch, num_iterations: Optional[int] = None
    ) -> Tensor:
        """Run ``T`` rounds of forward(+reverse) propagation; return (N, d)."""
        iterations = num_iterations or self.num_iterations
        h = self.initial_state(batch)
        if self.compiled:
            budget = get_window_budget()
            if budget is not None:
                # streaming mode: bounded windows instead of whole-pass
                # compilation — bitwise-identical outputs, bounded state
                fwd = batch.windowed_forward_schedule(
                    budget, self.use_skip, self.pe_levels
                )
                rev = (
                    batch.windowed_reverse_schedule(budget)
                    if self.use_reverse
                    else None
                )
            else:
                fwd = batch.compiled_forward_schedule(
                    self.use_skip, self.pe_levels
                )
                rev = (
                    batch.compiled_reverse_schedule()
                    if self.use_reverse
                    else None
                )
            node_type = (
                batch.graph.node_type if self.input_mode == "fixed_x" else None
            )
            fwd_step = AggregateCombineStep(
                self.fwd_aggregate, self.fwd_combine, node_type,
                use_edge_attr=self.use_skip,
            )
            rev_step = (
                AggregateCombineStep(
                    self.rev_aggregate, self.rev_combine, node_type
                )
                if rev is not None
                else None
            )
            for _ in range(iterations):
                h = run_pass(h, fwd, fwd_step)
                if rev is not None:
                    h = run_pass(h, rev, rev_step)
            return h
        x = Tensor(batch.x)
        fwd = batch.forward_schedule(self.use_skip, self.pe_levels)
        rev = batch.reverse_schedule() if self.use_reverse else None
        for _ in range(iterations):
            h = self._propagate(h, x, fwd, self.fwd_aggregate, self.fwd_combine)
            if rev is not None:
                h = self._propagate(h, x, rev, self.rev_aggregate, self.rev_combine)
        return h

    def forward(
        self, batch: PreparedBatch, num_iterations: Optional[int] = None
    ) -> Tensor:
        """Predicted probability per node, shape (N,)."""
        h = self.embeddings(batch, num_iterations)
        return self.regressor(h, batch.graph.node_type, fused=self.compiled)

    # ------------------------------------------------------------------
    def _propagate(self, h, x, schedule, aggregate, combine):
        use_edge_attr = (
            self.use_skip and aggregate is self.fwd_aggregate
        )
        for group in schedule:
            h_src = gather_rows(h, group.src)
            query = gather_rows(h, group.nodes)
            seg = group.seg
            edge_attr = None
            if use_edge_attr:
                if group.has_skip:
                    h_src = concat(
                        [h_src, gather_rows(h, group.skip_src)], axis=0
                    )
                    seg = np.concatenate([group.seg, group.skip_seg])
                    attr = np.concatenate(
                        [
                            np.zeros(
                                (len(group.src), group.skip_attr.shape[1]),
                                dtype=np.float32,
                            ),
                            group.skip_attr,
                        ],
                        axis=0,
                    )
                    edge_attr = Tensor(attr)
                else:
                    edge_attr = Tensor(
                        np.zeros(
                            (len(group.src), 2 * self.pe_levels + 1),
                            dtype=np.float32,
                        )
                    )
            m = aggregate(h_src, query, seg, len(group.nodes), edge_attr)
            if self.input_mode == "fixed_x":
                gru_in = concat([m, gather_rows(x, group.nodes)], axis=1)
            else:
                gru_in = m
            h_new = combine(gru_in, query)
            h = scatter_rows(h, group.nodes, h_new)
        return h
