"""WindowedSchedule partition invariants (the streaming compile layer).

The windowed pass runner's correctness rests on structural guarantees of
:class:`~repro.graphdata.batching.WindowedSchedule`: every level group
lands in exactly one window in schedule order, laid out rank-major
exactly as in the full compiled schedule; written-node budgets are
respected (a single oversized group becomes its own window rather than
failing); gather plans route by global row id with at most two splits
per group; and a schedule in which a group reads a row written by itself
or a later group is rejected, because the backward re-stream reads
sources from the pass output.
"""

import numpy as np
import pytest

from repro.datagen.generators import parity, ripple_adder
from repro.graphdata import LevelSchedule, from_aig, prepare
from repro.graphdata.batching import (
    CompiledSchedule,
    PassBlock,
    WindowedSchedule,
)
from repro.synth import synthesize

from ..helpers import split_rows


def make_batch():
    g1 = from_aig(synthesize(ripple_adder(6)), num_patterns=128, seed=0)
    g2 = from_aig(synthesize(parity(5)), num_patterns=128, seed=1)
    return prepare([g1, g2])


def build(budget, include_skip=False):
    batch = make_batch()
    sched = LevelSchedule.forward(
        batch.graph, include_skip=include_skip, pe_levels=4
    )
    attr_dim = 2 * 4 + 1 if include_skip else None
    return sched, WindowedSchedule.build(
        sched, batch.x, budget, edge_attr_dim=attr_dim
    )


def assert_rank_major(group):
    """In-degree non-increasing over the nodes, per-rank edge counts
    non-increasing, and rank ``r`` the contiguous edge slice feeding
    nodes ``0..c_r-1`` in order."""
    n = len(group.nodes)
    degree = np.bincount(group.seg, minlength=n)
    assert (degree >= 1).all()
    assert (np.diff(degree) <= 0).all()
    per_rank = np.array([(degree > r).sum() for r in range(degree.max())])
    assert (np.diff(per_rank) <= 0).all()
    expect = np.concatenate([np.arange(c) for c in per_rank])
    np.testing.assert_array_equal(group.seg, expect)
    assert group.seg_layout.rank_major
    bounds = np.concatenate([[0], np.cumsum(per_rank)])
    for (elems, targets), a, b in zip(
        group.seg_layout.ranks, bounds[:-1], bounds[1:]
    ):
        assert elems == slice(a, b)
        assert targets == slice(0, b - a)


class TestPartition:
    @pytest.mark.parametrize("budget", [1, 5, 17, 10**9])
    def test_windows_cover_all_groups_in_order(self, budget):
        sched, ws = build(budget)
        assert ws.num_groups == len(sched.groups)
        wgroups = [cg for w in ws for cg in w.compiled.groups]
        for level, cg in zip(sched, wgroups):
            np.testing.assert_array_equal(np.sort(cg.nodes), level.nodes)
            assert_rank_major(cg)
        np.testing.assert_array_equal(
            ws.written, np.concatenate([cg.nodes for cg in wgroups])
        )

    @pytest.mark.parametrize("include_skip", [False, True])
    @pytest.mark.parametrize("budget", [1, 7, 10**9])
    def test_windows_compile_like_the_full_schedule(
        self, budget, include_skip
    ):
        batch = make_batch()
        sched = LevelSchedule.forward(
            batch.graph, include_skip=include_skip, pe_levels=4
        )
        attr_dim = 2 * 4 + 1 if include_skip else None
        full = CompiledSchedule.compile(sched, batch.x, attr_dim)
        ws = WindowedSchedule.build(
            sched, batch.x, budget, edge_attr_dim=attr_dim
        )
        np.testing.assert_array_equal(ws.written, full.written)
        wgroups = [cg for w in ws for cg in w.compiled.groups]
        for fg, wg in zip(full.groups, wgroups):
            for name in ("nodes", "src", "seg"):
                np.testing.assert_array_equal(
                    getattr(wg, name), getattr(fg, name)
                )
            if include_skip:
                np.testing.assert_array_equal(wg.edge_attr, fg.edge_attr)
            assert [s.pass_input for s in wg.gather_plan] == [
                s.pass_input for s in fg.gather_plan
            ]
        # each window packs the full block's feature rows for its nodes
        for w in ws:
            wc = w.compiled
            assert wc.x is batch.x
            np.testing.assert_array_equal(
                PassBlock.pack(wc.groups, wc.written, wc.x).x_rows,
                full.block().x_rows[w.written_start:w.written_stop],
            )

    def test_reverse_groups_rank_major(self):
        batch = make_batch()
        sched = LevelSchedule.reverse(batch.graph)
        ws = WindowedSchedule.build(sched, batch.x, 9)
        wgroups = [cg for w in ws for cg in w.compiled.groups]
        assert max(np.bincount(cg.seg).max() for cg in wgroups) > 2
        for level, cg in zip(sched, wgroups):
            np.testing.assert_array_equal(np.sort(cg.nodes), level.nodes)
            assert_rank_major(cg)

    def test_full_compiled_schedules_rank_major(self):
        batch = make_batch()
        for cs in (
            batch.compiled_forward_schedule(True, 4),
            batch.compiled_reverse_schedule(),
            batch.compiled_undirected_schedule(),
        ):
            for cg in cs:
                assert_rank_major(cg)

    def test_rank_order_keeps_each_nodes_edge_order(self):
        # a node's first in-edge stays its first: rank r of node v is
        # v's r-th edge in the level schedule (real edges, then skips)
        sched, ws = build(10**9, include_skip=True)
        for level, cg in zip(sched, ws.windows[0].compiled.groups):
            src = np.concatenate([level.src, level.skip_src])
            seg = np.concatenate([level.seg, level.skip_seg])
            for pos, node in enumerate(cg.nodes):
                want = src[level.nodes[seg] == node]
                np.testing.assert_array_equal(cg.src[cg.seg == pos], want)

    @pytest.mark.parametrize("budget", [5, 17, 64])
    def test_node_budget_respected(self, budget):
        _, ws = build(budget)
        for w in ws:
            if len(w.compiled.groups) > 1:
                assert w.num_written <= budget

    def test_budget_one_isolates_every_group(self):
        sched, ws = build(1)
        assert len(ws) == len(sched.groups)
        for w in ws:
            assert len(w.compiled.groups) == 1

    def test_huge_budget_single_window(self):
        _, ws = build(10**9)
        assert len(ws) == 1
        assert ws.windows[0].frontier_rows == 0

    def test_written_offsets_are_contiguous(self):
        _, ws = build(9)
        stop = 0
        for w in ws:
            assert w.written_start == stop
            assert w.num_written == sum(
                len(cg.nodes) for cg in w.compiled.groups
            )
            stop = w.written_stop
        assert stop == len(ws.written)

    @pytest.mark.parametrize("bad", [0, -3])
    def test_bad_node_budget_rejected(self, bad):
        batch = make_batch()
        sched = LevelSchedule.forward(batch.graph)
        with pytest.raises(ValueError, match="node_budget"):
            WindowedSchedule.build(sched, batch.x, bad)


class TestRouting:
    @pytest.mark.parametrize("include_skip", [False, True])
    @pytest.mark.parametrize("budget", [1, 5, 17])
    def test_at_most_two_splits_by_global_row_id(self, budget, include_skip):
        _, ws = build(budget, include_skip=include_skip)
        written = set()
        for w in ws:
            for cg in w.compiled.groups:
                plan = cg.gather_plan
                assert 1 <= len(plan) <= 2
                assert len({split.pass_input for split in plan}) == len(plan)
                covered = np.zeros(len(cg.src), np.int64)
                for split in plan:
                    positions, rows = split_rows(split)
                    covered[positions] += 1
                    chosen = cg.src[positions]
                    # global node ids, never window-local rows
                    np.testing.assert_array_equal(rows, chosen)
                    read_written = np.isin(chosen, list(written))
                    assert (read_written != split.pass_input).all()
                assert (covered == 1).all()
                written.update(cg.nodes.tolist())

    def test_frontier_rows_count_earlier_window_reads(self):
        _, ws = build(5)
        earlier = set()
        for w in ws:
            reads = set()
            for cg in w.compiled.groups:
                for split in cg.gather_plan:
                    if not split.pass_input:
                        reads.update(split_rows(split)[1].tolist())
            assert w.frontier_rows == len(reads & earlier)
            earlier.update(w.compiled.written.tolist())

    def test_frontier_counts_pinned(self):
        # the partition alone fixes the per-window counts
        batch = make_batch()
        fwd = batch.windowed_forward_schedule(7, True, 8)
        rev = batch.windowed_reverse_schedule(7)
        assert [w.frontier_rows for w in fwd] == [
            0, 22, 16, 16, 9, 8, 8, 4, 7, 8, 5, 6, 6, 4, 5
        ]
        assert [w.frontier_rows for w in rev] == [
            0, 3, 3, 2, 2, 5, 5, 3, 5, 13, 14, 8, 22, 25, 40
        ]


class TestTopologicalGuard:
    def test_undirected_schedule_rejected(self):
        batch = make_batch()
        sched = LevelSchedule.undirected(batch.graph)
        with pytest.raises(ValueError, match="level group 0 reads row"):
            WindowedSchedule.build(sched, batch.x, 8)
        # the full runner reads sources it saved, so it still compiles
        CompiledSchedule.compile(sched, batch.x)

    def test_group_reading_a_later_group_is_named(self):
        batch = make_batch()
        sched = LevelSchedule.forward(batch.graph)
        sched.groups[1:3] = sched.groups[2:0:-1]  # swap levels 2 and 3
        with pytest.raises(ValueError, match="level group 1 reads row"):
            WindowedSchedule.build(sched, batch.x, 8)

    def test_topological_schedules_accepted(self):
        batch = make_batch()
        WindowedSchedule.build(LevelSchedule.forward(batch.graph), batch.x, 8)
        WindowedSchedule.build(LevelSchedule.reverse(batch.graph), batch.x, 8)
