"""Traced memory of a windowed training step, in ``(N, d)`` float32 units.

A windowed pass bounds its per-group state by the window budget, so what
is left to grow with the circuit is a handful of ``(N, d)`` arrays: the
pass states, the backward's running gradients and the readout's input
gradient.  These tests count them with ``tracemalloc``, in units of
``N * d * 4`` bytes, so a change that brings back a whole-circuit copy
(of the initial state, of an output gradient, of the readout's inputs)
or larger projection chunks fails here rather than only in the memory
gate's RSS figures.  What the built schedules keep between steps is
pinned in bytes per node.
"""

import gc
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest

from repro.datagen.generators import huge_circuit, ripple_adder
from repro.graphdata import from_aig, prepare
from repro.models import DeepGate
from repro.models.aggregators import AttentionAggregator
from repro.models.propagation import use_window_budget
from repro.models.regressor import PerTypeRegressor
from repro.nn import Tensor, no_grad
from repro.nn.functional import l1_loss
from repro.nn.optim import Adam, clip_grad_norm
from repro.synth import synthesize

DIM = 32


@contextmanager
def traced():
    """Yields a callable giving ``(current, peak)`` traced bytes since the
    block began; an outer ``tracemalloc`` trace keeps running."""
    outer = tracemalloc.is_tracing()
    if not outer:
        tracemalloc.start()
    start = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    try:
        yield lambda: tuple(
            v - start for v in tracemalloc.get_traced_memory()
        )
    finally:
        if not outer:
            tracemalloc.stop()


def test_windowed_adam_step_peak_in_state_units():
    batch = prepare([huge_circuit(20_000, seed=0)])
    model = DeepGate(
        dim=DIM, num_iterations=1, aggregator="attention",
        rng=np.random.default_rng(0),
    )
    optimizer = Adam(model.parameters(), lr=1e-3)
    unit = batch.num_nodes * DIM * 4
    with use_window_budget(512):
        with no_grad():
            model(batch)  # builds and caches both windowed schedules
        with traced() as memory:
            optimizer.zero_grad()
            l1_loss(model(batch), batch.labels).backward()
            clip_grad_norm(model.parameters(), 5.0)
            optimizer.step()
            _, peak = memory()
    # Measured with NumPy 2.4.6: 6.37 units.  The same step read 9.56
    # when the initial state was an np.repeat copy, the pass backward
    # copied its output gradient, the readout saved each type's inputs
    # and hidden layer and the projection chunks had 32768 rows; undoing
    # the state, gradient or chunk change alone reads 7.37, 7.37 and
    # 7.56 units (the readout's saved state is pinned below)
    assert peak / unit < 7.0


def test_fused_readout_keeps_no_state_sized_arrays():
    # between its forward and its backward the readout holds each type's
    # row ids and probabilities, not copies of its inputs or hidden layer
    n = 20_000
    rng = np.random.default_rng(0)
    regressor = PerTypeRegressor(DIM, 3, rng)
    h = Tensor(
        rng.standard_normal((n, DIM)).astype(np.float32), requires_grad=True
    )
    node_type = rng.integers(0, 3, n)
    with traced() as memory:
        out = regressor(h, node_type, fused=True)
        held, _ = memory()
    # measured: 0.13 units; a readout that saves its inputs and hidden
    # layer holds 2.13
    assert held / (n * DIM * 4) < 0.5
    out.sum().backward()
    assert h.grad is not None


def _train_windowed(graph, budget):
    """Prepare ``graph``, build its windowed forward (with skip-edge
    attributes) and reverse schedules and take one Adam step; returns
    what a training loop keeps between steps."""
    batch = prepare([graph])
    model = DeepGate(
        dim=DIM, num_iterations=1, aggregator="attention",
        rng=np.random.default_rng(0),
    )
    optimizer = Adam(model.parameters(), lr=1e-3)
    with use_window_budget(budget):
        batch.windowed_forward_schedule(budget, True, model.pe_levels)
        batch.windowed_reverse_schedule(budget)
        optimizer.zero_grad()
        l1_loss(model(batch), batch.labels).backward()
        clip_grad_norm(model.parameters(), 5.0)
        optimizer.step()
    return batch, model, optimizer


def test_built_schedules_keep_only_what_a_pass_reads():
    # a small run first, so no lazy import or first-use state is counted
    _train_windowed(huge_circuit(2000, seed=1), 512)
    graph = huge_circuit(20_000, seed=0)
    gc.collect()
    with traced() as memory:
        kept = _train_windowed(graph, 512)
        gc.collect()
        resident, _ = memory()
    # Measured with NumPy 2.4.6: 228 bytes per node (the batch's features,
    # both schedules, the parameters, their gradients and Adam's moments).
    # It read 514 when every group kept its one-hot rows and a dense
    # attribute block (all zero here: no skip edge lands on this circuit),
    # routing splits kept their position and segment-id arrays, and the
    # batch kept the level schedules its builders compiled
    assert resident / kept[0].num_nodes < 400


def test_full_block_without_skip_edges_holds_no_attribute_bytes():
    # a one-window pass caches its packed block for the schedule's life;
    # no skip edge lands on this circuit, so its attribute block is all
    # zero and is held as a view of one zero, not (E, 2 * pe + 1) floats
    batch = prepare([huge_circuit(2000, seed=0)])
    assert len(batch.graph.skip_edges) == 0
    model = DeepGate(
        dim=DIM, num_iterations=1, aggregator="attention",
        rng=np.random.default_rng(0),
    )
    optimizer = Adam(model.parameters(), lr=1e-3)
    optimizer.zero_grad()
    l1_loss(model(batch), batch.labels).backward()
    optimizer.step()
    schedule = batch.compiled_forward_schedule(True, model.pe_levels)
    assert schedule._block is not None  # packed by the step's backward
    attr = schedule.block().edge_attr
    assert attr.shape == (schedule.block().num_edges, 2 * model.pe_levels + 1)
    assert attr.strides == (0, 0) and not attr.any()
    assert model.fwd_aggregate.w_edge.weight.grad is not None


@pytest.mark.parametrize("budget", [None, 7])
def test_edge_attribute_gradient_contracts_dense_blocks(monkeypatch, budget):
    # a packed block no skip edge lands on is a zero-stride view of one
    # zero; the w_edge gradient contracts a C-contiguous copy of it, so no
    # BLAS call takes a zero-stride operand.  The 2000-gate circuit's one
    # window packs the view; the ripple adder's 7-node windows pack both
    # kinds
    contracted = []
    step_end = AttentionAggregator.step_end

    def spy(self, hd, sink, dh):
        if "attr" in sink:  # the forward pass's aggregator
            contracted.append((sink["attr"], sink.get("attr_used")))
        return step_end(self, hd, sink, dh)

    monkeypatch.setattr(AttentionAggregator, "step_end", spy)
    if budget is None:
        batch = prepare([huge_circuit(2000, seed=0)])
    else:
        batch = prepare([
            from_aig(synthesize(ripple_adder(5)), num_patterns=512, seed=0)
        ])
    model = DeepGate(
        dim=DIM, num_iterations=1, aggregator="attention",
        rng=np.random.default_rng(0),
    )
    with use_window_budget(budget):
        l1_loss(model(batch), batch.labels).backward()
    if budget is None:
        schedules = [batch.compiled_forward_schedule(True, model.pe_levels)]
    else:
        windows = batch.windowed_forward_schedule(budget, True, model.pe_levels)
        schedules = [w.compiled for w in windows]
    views = {cs.block().edge_attr.strides == (0, 0) for cs in schedules}
    assert views == ({True} if budget is None else {True, False})
    assert len(contracted) == len(schedules)
    for attr, used in contracted:
        assert used and attr.flags.c_contiguous
