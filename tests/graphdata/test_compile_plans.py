"""What compiling a schedule builds, and when.

A compiled level group takes its segment layout from the rank sizes its
rank-major ordering computed, without sorting its ids again, and builds
its source-gradient routing plan only when a backward first reads it:
a pass that records nothing builds none.
"""

import numpy as np
import pytest

from repro.datagen.suites import SUITE_NAMES, suite_pool
from repro.graphdata import PreparedBatch, inference_graph
from repro.graphdata import batching
from repro.graphdata.batching import _gather_plan
from repro.models import DeepGate
from repro.models.propagation import use_window_budget
from repro.nn.functional import l1_loss
from repro.nn.kernels import SegmentLayout, segment_rank_order
from repro.nn.tensor import no_grad
from repro.serve.service import CircuitRejected, canonicalize
from repro.synth import netlist_to_aig

from .test_windowed import make_batch


def serve_catalog(count=6, seed=0):
    """Prepared batches of pool circuits the way ``repro serve`` caches
    them: 60-200 gate netlists, canonicalised, no labels."""
    pools = [
        suite_pool(name, np.random.default_rng([seed, k]))
        for k, name in enumerate(SUITE_NAMES)
    ]
    batches = []
    while len(batches) < count:
        for pool in pools:
            netlist = next(pool)
            if not 60 <= netlist.num_gates() <= 200:
                continue
            try:
                _, aig = canonicalize(netlist_to_aig(netlist))
            except CircuitRejected:
                continue
            batches.append(PreparedBatch(inference_graph(aig)))
    return batches[:count]


def compiled_groups(batch):
    """Every compiled group of every schedule kind over ``batch``: full
    forward with skip edges, reverse and undirected, and windowed forward
    (with skip) and reverse at a small budget."""
    schedules = [
        batch.compiled_forward_schedule(True, 4),
        batch.compiled_reverse_schedule(),
        batch.compiled_undirected_schedule(),
    ]
    for ws in (
        batch.windowed_forward_schedule(7, True, 4),
        batch.windowed_reverse_schedule(7),
    ):
        schedules.extend(w.compiled for w in ws)
    return [g for cs in schedules for g in cs.groups]


BATCHES = {"make_batch": lambda: [make_batch()], "serve_catalog": serve_catalog}


@pytest.mark.parametrize("source", sorted(BATCHES))
def test_layout_from_rank_sizes_equals_a_sorted_layout(source):
    kinds = set()
    for batch in BATCHES[source]():
        for group in compiled_groups(batch):
            n = len(group.nodes)
            sorted_layout = SegmentLayout(group.seg, n)
            _, sizes = segment_rank_order(group.seg)
            for layout in (
                group.seg_layout,
                SegmentLayout(group.seg, n, rank_sizes=sizes),
            ):
                assert layout.rank_major == sorted_layout.rank_major
                assert layout.grid == sorted_layout.grid
                assert layout.ranks == sorted_layout.ranks
                assert layout.num_segments == n
                np.testing.assert_array_equal(layout.segment_ids, group.seg)
            kinds.add((sorted_layout.grid, len(sorted_layout.ranks)))
    # grid and non-grid groups, one rank and several
    assert {grid for grid, _ in kinds} == {True, False}
    assert len({ranks for _, ranks in kinds}) > 2


def test_rank_sizes_that_miss_a_segment_fall_back_to_sorting():
    # segment 2 has no element, so rank 0 does not cover every segment
    ids = np.array([0, 1, 0])
    layout = SegmentLayout(ids, 3, rank_sizes=np.array([2, 1]))
    sorted_layout = SegmentLayout(ids, 3)
    assert not layout.rank_major
    assert len(layout.ranks) == len(sorted_layout.ranks)
    for (e, t), (se, st) in zip(layout.ranks, sorted_layout.ranks):
        np.testing.assert_array_equal(e, se)
        np.testing.assert_array_equal(t, st)


def eager_plans(groups, num_rows):
    """Each group's routing plan from a provenance replay over ``groups``
    (a whole pass, in order): a source is pass input until a group before
    the reader has written its row."""
    written = np.zeros(num_rows, bool)
    plans = []
    for g in groups:
        plans.append(_gather_plan(g.src, ~written[g.src], num_rows))
        written[g.nodes] = True
    return plans


def assert_same_plan(plan, eager):
    assert len(plan) == len(eager)
    for split, want in zip(plan, eager):
        assert split.pass_input == want.pass_input
        if want.positions is None:
            assert split.positions is None
        else:
            np.testing.assert_array_equal(split.positions, want.positions)
        np.testing.assert_array_equal(
            split.layout.segment_ids, want.layout.segment_ids
        )
        assert split.layout.num_segments == want.layout.num_segments


@pytest.fixture
def count_plan_builds(monkeypatch):
    builds = []
    real = batching._gather_plan

    def counted(src, from_input, num_nodes):
        builds.append(src)
        return real(src, from_input, num_nodes)

    monkeypatch.setattr(batching, "_gather_plan", counted)
    return builds


@pytest.mark.parametrize("budget", [None, 7])
def test_only_a_recorded_pass_builds_plans_each_once(count_plan_builds, budget):
    batch = make_batch()
    model = DeepGate(dim=8, num_iterations=2, rng=np.random.default_rng(0))
    with use_window_budget(budget), no_grad():
        model(batch)
    # the forward and reverse passes the model ran, as group lists
    passes = [cs.groups for cs in batch._compiled.values()] + [
        [g for w in ws for g in w.compiled.groups]
        for ws in batch._windowed.values()
    ]
    assert len(passes) == 2
    groups = [g for pass_groups in passes for g in pass_groups]
    assert count_plan_builds == []
    assert all(g._gather_plan is None for g in groups)
    with use_window_budget(budget):
        for _ in range(2):  # two recorded forwards, one build per group
            l1_loss(model(batch), batch.labels).backward()
    assert len(count_plan_builds) == len(groups)
    assert all(g.from_input is None for g in groups)
    for pass_groups in passes:
        for group, eager in zip(
            pass_groups, eager_plans(pass_groups, batch.num_nodes)
        ):
            assert_same_plan(group.gather_plan, eager)
    assert len(count_plan_builds) == len(groups)  # reading built none
