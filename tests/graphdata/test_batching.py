"""Tests for graph merging and topological level schedules."""

import gc
import weakref

import numpy as np
import pytest

from repro.datagen.generators import parity, ripple_adder
from repro.graphdata import (
    LevelSchedule,
    from_aig,
    merge,
    positional_encoding,
    prepare,
)
from repro.graphdata.batching import PassBlock
from repro.synth import synthesize

from ..helpers import split_rows


def graph_of(netlist, seed=0):
    return from_aig(synthesize(netlist), num_patterns=512, seed=seed)


class TestMerge:
    def test_offsets_and_counts(self):
        g1 = graph_of(ripple_adder(3))
        g2 = graph_of(parity(5))
        m = merge([g1, g2])
        assert m.num_nodes == g1.num_nodes + g2.num_nodes
        assert m.num_edges == g1.num_edges + g2.num_edges
        # second graph's edges shifted beyond the first graph's nodes
        assert (m.edges[g1.num_edges :] >= g1.num_nodes).all()
        m.validate()

    def test_labels_concatenated(self):
        g1 = graph_of(ripple_adder(3))
        g2 = graph_of(parity(5))
        m = merge([g1, g2])
        np.testing.assert_array_equal(m.labels[: g1.num_nodes], g1.labels)
        np.testing.assert_array_equal(m.labels[g1.num_nodes :], g2.labels)

    def test_skip_edges_offset(self):
        g1 = graph_of(ripple_adder(4))
        g2 = graph_of(ripple_adder(4))
        m = merge([g1, g2])
        assert len(m.skip_edges) == len(g1.skip_edges) + len(g2.skip_edges)
        if len(g2.skip_edges):
            shifted = m.skip_edges[len(g1.skip_edges) :]
            np.testing.assert_array_equal(
                shifted, g2.skip_edges + g1.num_nodes
            )

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            merge([])

    def test_mixed_vocabulary_rejected(self):
        from repro.graphdata import from_netlist

        g1 = graph_of(ripple_adder(3))
        g2 = from_netlist(parity(4), num_patterns=64)
        with pytest.raises(ValueError, match="vocabularies"):
            merge([g1, g2])


class TestForwardSchedule:
    def test_covers_every_edge_once(self):
        g = graph_of(ripple_adder(4))
        sched = LevelSchedule.forward(g)
        seen = []
        for group in sched:
            for k in range(len(group.src)):
                seen.append((int(group.src[k]), int(group.nodes[group.seg[k]])))
        assert sorted(seen) == sorted(map(tuple, g.edges.tolist()))

    def test_levels_ascend_and_complete(self):
        g = graph_of(ripple_adder(4))
        sched = LevelSchedule.forward(g)
        last = 0
        covered = set()
        for group in sched:
            lv = int(g.levels[group.nodes[0]])
            assert (g.levels[group.nodes] == lv).all()
            assert lv > last
            last = lv
            covered.update(int(v) for v in group.nodes)
        non_pi = {v for v in range(g.num_nodes) if g.levels[v] > 0}
        assert covered == non_pi

    def test_sources_already_processed(self):
        g = graph_of(ripple_adder(5))
        sched = LevelSchedule.forward(g)
        for group in sched:
            lv = int(g.levels[group.nodes[0]])
            assert (g.levels[group.src] < lv).all()

    def test_skip_edges_attached_at_target_level(self):
        g = graph_of(ripple_adder(5))
        assert len(g.skip_edges)
        sched = LevelSchedule.forward(g, include_skip=True, pe_levels=4)
        total_skips = 0
        for group in sched:
            total_skips += len(group.skip_src)
            if group.has_skip:
                # 2 * pe_levels sinusoids + 1 skip-indicator column
                assert group.skip_attr.shape == (len(group.skip_src), 9)
                np.testing.assert_array_equal(group.skip_attr[:, -1], 1.0)
                # skip targets must be nodes of this group
                targets = group.nodes[group.skip_seg]
                lv = int(g.levels[group.nodes[0]])
                assert (g.levels[targets] == lv).all()
        assert total_skips == len(g.skip_edges)

    def test_no_skip_by_default(self):
        g = graph_of(ripple_adder(5))
        sched = LevelSchedule.forward(g)
        assert all(not group.has_skip for group in sched)


class TestReverseSchedule:
    def test_covers_every_edge_once_reversed(self):
        g = graph_of(ripple_adder(4))
        sched = LevelSchedule.reverse(g)
        seen = []
        for group in sched:
            for k in range(len(group.src)):
                seen.append((int(group.nodes[group.seg[k]]), int(group.src[k])))
        assert sorted(seen) == sorted(map(tuple, g.edges.tolist()))

    def test_levels_descend(self):
        g = graph_of(ripple_adder(4))
        sched = LevelSchedule.reverse(g)
        levels = [int(g.levels[group.nodes[0]]) for group in sched]
        assert levels == sorted(levels, reverse=True)

    def test_sources_at_higher_levels(self):
        g = graph_of(ripple_adder(4))
        for group in LevelSchedule.reverse(g):
            lv = int(g.levels[group.nodes[0]])
            assert (g.levels[group.src] > lv).all()


class TestUndirectedSchedule:
    def test_single_group_both_directions(self):
        g = graph_of(parity(5))
        sched = LevelSchedule.undirected(g)
        assert len(sched) == 1
        group = sched.groups[0]
        assert len(group.src) == 2 * g.num_edges


class TestPreparedBatch:
    def test_schedules_cached(self):
        batch = prepare([graph_of(ripple_adder(3))])
        s1 = batch.forward_schedule(True, 8)
        s2 = batch.forward_schedule(True, 8)
        assert s1 is s2
        assert batch.reverse_schedule() is batch.reverse_schedule()
        assert batch.undirected_schedule() is batch.undirected_schedule()

    def test_builders_keep_no_level_schedule(self, monkeypatch):
        """The compiled and windowed builders drop the level schedule
        they compile; the reference path's accessors still cache one."""
        built = []
        for name in ("forward", "reverse", "undirected"):
            real = getattr(LevelSchedule, name)

            def recording(cls, *args, _real=real, **kwargs):
                schedule = _real(*args, **kwargs)
                built.append(weakref.ref(schedule))
                return schedule

            monkeypatch.setattr(LevelSchedule, name, classmethod(recording))
        batch = prepare([graph_of(ripple_adder(5))])
        batch.compiled_forward_schedule(True, 4)
        batch.compiled_reverse_schedule()
        batch.compiled_undirected_schedule()
        batch.windowed_forward_schedule(7, True, 4)
        batch.windowed_reverse_schedule(7)
        gc.collect()
        assert len(built) == 5
        assert all(ref() is None for ref in built)
        fwd = batch.forward_schedule(True, 4)
        assert isinstance(fwd, LevelSchedule)
        assert batch.forward_schedule(True, 4) is fwd
        assert batch.reverse_schedule() is batch.reverse_schedule()
        assert len(built) == 7

    def test_features_match_graph(self):
        g = graph_of(ripple_adder(3))
        batch = prepare([g])
        assert batch.x.shape == (g.num_nodes, 3)
        np.testing.assert_array_equal(batch.labels, g.labels)


class TestVectorisedScheduleBuild:
    """The argsort-based builders must reproduce the per-level-scan
    construction exactly (group order, node order, source order)."""

    def _reference_forward_groups(self, g):
        edges = g.edges
        dst_level = g.levels[edges[:, 1]]
        groups = []
        for lv in range(1, int(g.levels.max()) + 1):
            sel = np.nonzero(dst_level == lv)[0]
            if sel.size == 0:
                continue
            e = edges[sel]
            nodes, seg = np.unique(e[:, 1], return_inverse=True)
            groups.append((nodes, e[:, 0], seg))
        return groups

    def test_forward_matches_per_level_scan(self):
        g = graph_of(ripple_adder(6))
        sched = LevelSchedule.forward(g)
        expect = self._reference_forward_groups(g)
        assert len(sched) == len(expect)
        for group, (nodes, src, seg) in zip(sched, expect):
            np.testing.assert_array_equal(group.nodes, nodes)
            np.testing.assert_array_equal(group.src, src)
            np.testing.assert_array_equal(group.seg, seg)

    def test_reverse_matches_per_level_scan(self):
        g = graph_of(ripple_adder(6))
        sched = LevelSchedule.reverse(g)
        edges = g.edges
        src_level = g.levels[edges[:, 0]]
        expect = []
        for lv in range(int(g.levels.max()) - 1, -1, -1):
            sel = np.nonzero(src_level == lv)[0]
            if sel.size == 0:
                continue
            e = edges[sel]
            nodes, seg = np.unique(e[:, 0], return_inverse=True)
            expect.append((nodes, e[:, 1], seg))
        assert len(sched) == len(expect)
        for group, (nodes, src, seg) in zip(sched, expect):
            np.testing.assert_array_equal(group.nodes, nodes)
            np.testing.assert_array_equal(group.src, src)
            np.testing.assert_array_equal(group.seg, seg)


class TestCompiledSchedule:
    def _compiled(self, netlist=None, include_skip=True):
        batch = prepare([graph_of(netlist or ripple_adder(5))])
        return batch, batch.compiled_forward_schedule(include_skip, 4)

    def test_cached_on_batch(self):
        batch, cs = self._compiled()
        assert batch.compiled_forward_schedule(True, 4) is cs
        assert (
            batch.compiled_reverse_schedule()
            is batch.compiled_reverse_schedule()
        )
        assert (
            batch.compiled_undirected_schedule()
            is batch.compiled_undirected_schedule()
        )

    def test_skip_edges_folded_with_attr_blocks(self):
        batch, cs = self._compiled()
        sched = batch.forward_schedule(True, 4)
        total_skip = sum(len(g.skip_src) for g in sched)
        assert total_skip > 0
        for level, compiled in zip(sched, cs):
            n_real = len(level.src)
            assert len(compiled.src) == n_real + len(level.skip_src)
            assert compiled.edge_attr.shape == (len(compiled.src), 9)
            # real edges carry zero attributes, skips their PE rows
            np.testing.assert_array_equal(compiled.edge_attr[:n_real], 0.0)
            if level.has_skip:
                np.testing.assert_array_equal(
                    compiled.edge_attr[n_real:], level.skip_attr
                )

    def test_x_rows_are_group_features(self):
        # the schedule holds the batch's feature matrix, not a copy, and
        # its packed block gathers each group's rows from it
        batch, cs = self._compiled()
        assert cs.x is batch.x
        block = cs.block()
        for group in cs:
            o = group.node_offset
            np.testing.assert_array_equal(
                block.x_rows[o:o + len(group.nodes)], batch.x[group.nodes]
            )

    def test_written_nodes_unique_and_match_groups(self):
        _, cs = self._compiled()
        all_nodes = np.concatenate([g.nodes for g in cs])
        assert np.unique(all_nodes).size == all_nodes.size
        np.testing.assert_array_equal(cs.written, all_nodes)

    def test_gather_plan_routes_by_provenance(self):
        """Each group's sources split in at most two, by global row id:
        rows not yet written when the group reads them (the pass input)
        and rows an earlier group wrote."""
        batch, cs = self._compiled()
        written = set()
        for group in cs:
            plan = group.gather_plan
            assert 1 <= len(plan) <= 2
            assert len({split.pass_input for split in plan}) == len(plan)
            covered = np.zeros(len(group.src), np.int64)
            for split in plan:
                positions, rows = split_rows(split)
                covered[positions] += 1
                src_nodes = group.src[positions]
                np.testing.assert_array_equal(rows, src_nodes)
                for _, targets in split.ranks:  # no row twice in a rank
                    assert np.unique(targets).size == targets.size
                for node in src_nodes:
                    assert (int(node) in written) != split.pass_input
            assert (covered == 1).all()
            written.update(group.nodes.tolist())

    def test_no_edge_attr_without_skip(self):
        _, cs = self._compiled(include_skip=False)
        assert all(group.edge_attr is None for group in cs)


class TestPositionalEncoding:
    def test_shape_and_range(self):
        pe = positional_encoding(np.array([1, 5, 20]), num_levels=8)
        assert pe.shape == (3, 16)
        assert (np.abs(pe) <= 1.0 + 1e-6).all()

    def test_distinct_distances_distinct_codes(self):
        pe = positional_encoding(np.arange(1, 30), num_levels=8)
        for i in range(len(pe)):
            for j in range(i + 1, len(pe)):
                assert not np.allclose(pe[i], pe[j]), (i, j)

    def test_zero_distance_is_cosine_one(self):
        pe = positional_encoding(np.array([0]), num_levels=4)
        np.testing.assert_allclose(pe[0, 0::2], 0.0, atol=1e-7)  # sines
        np.testing.assert_allclose(pe[0, 1::2], 1.0, atol=1e-7)  # cosines

    def test_invalid_levels(self):
        with pytest.raises(ValueError):
            positional_encoding(np.array([1]), num_levels=0)


class TestPassBlock:
    """The compiled schedule's packed per-pass block layout."""

    def _schedule(self, include_skip=True):
        batch = prepare([graph_of(ripple_adder(5))])
        return batch.compiled_forward_schedule(include_skip, 4)

    def test_offsets_are_group_cumsums(self):
        cs = self._schedule()
        block = cs.block()
        node_sizes = [len(g.nodes) for g in cs]
        edge_sizes = [len(g.src) for g in cs]
        np.testing.assert_array_equal(
            block.node_offsets, np.cumsum([0] + node_sizes)
        )
        np.testing.assert_array_equal(
            block.edge_offsets, np.cumsum([0] + edge_sizes)
        )
        for group in cs:
            assert block.node_offsets[0] == 0
            o = group.node_offset
            np.testing.assert_array_equal(
                block.written[o:o + len(group.nodes)], group.nodes
            )

    def test_buffers_concatenate_group_data(self):
        cs = self._schedule()
        block = cs.block()
        assert block.num_written == sum(len(g.nodes) for g in cs)
        assert block.num_edges == sum(len(g.src) for g in cs)
        np.testing.assert_array_equal(
            block.x_rows, np.concatenate([cs.x[g.nodes] for g in cs])
        )
        np.testing.assert_array_equal(
            block.counts,
            np.concatenate([g.seg_layout.counts for g in cs]),
        )
        np.testing.assert_array_equal(
            block.edge_attr, np.concatenate([g.edge_attr for g in cs])
        )
        np.testing.assert_array_equal(block.written, cs.written)

    def test_cached_and_no_attr_without_skip(self):
        cs = self._schedule()
        assert cs.block() is cs.block()
        no_skip = self._schedule(include_skip=False)
        assert no_skip.block().edge_attr is None

    @pytest.mark.parametrize("budget", [None, 7])
    def test_packs_dense_blocks_from_skip_groups_only(self, budget):
        """Packing builds each group's dense zero-padded attribute block
        (zero rows for real edges, ``[PE(D), 1]`` for skip edges) and its
        feature rows, while a group no skip edge lands on owns no
        attribute bytes."""
        pe = 4
        batch = prepare([graph_of(ripple_adder(5))])
        g = batch.graph
        skip_attr = np.concatenate(
            [
                positional_encoding(g.skip_level_diff, pe),
                np.ones((len(g.skip_edges), 1), np.float32),
            ],
            axis=1,
        )
        attr_of = {
            tuple(e): a for e, a in zip(g.skip_edges.tolist(), skip_attr)
        }
        assert len(attr_of) == len(g.skip_edges)
        assert not set(attr_of) & set(map(tuple, g.edges.tolist()))
        if budget is None:
            schedules = [batch.compiled_forward_schedule(True, pe)]
        else:
            ws = batch.windowed_forward_schedule(budget, True, pe)
            schedules = [w.compiled for w in ws]
        kinds, packed_kinds = set(), set()
        for cs in schedules:
            dense = []
            for group in cs:
                block = np.zeros((len(group.src), 2 * pe + 1), np.float32)
                targets = group.nodes[group.seg]
                for k, edge in enumerate(
                    zip(group.src.tolist(), targets.tolist())
                ):
                    if edge in attr_of:
                        block[k] = attr_of[edge]
                dense.append(block)
                has_skip = bool(block.any())
                kinds.add(has_skip)
                # a skip group's block is its own dense array, any other
                # group's a zero-stride view: every row the same 4 bytes
                assert (group.edge_attr.strides[0] == 0) != has_skip
                np.testing.assert_array_equal(group.edge_attr, block)
            packed = PassBlock.pack(cs.groups, cs.written, batch.x)
            np.testing.assert_array_equal(
                packed.edge_attr.view(np.uint32),
                np.concatenate(dense).view(np.uint32),
            )
            # dense when a skip edge lands on any of the groups, else a
            # zero-stride view of one zero that owns no bytes
            window_skip = any(block.any() for block in dense)
            packed_kinds.add(window_skip)
            if window_skip:
                assert packed.edge_attr.flags.c_contiguous
            else:
                assert packed.edge_attr.strides == (0, 0)
            np.testing.assert_array_equal(
                packed.x_rows,
                np.concatenate([batch.x[grp.nodes] for grp in cs]),
            )
        assert kinds == {True, False}
        assert packed_kinds == ({True} if budget is None else {True, False})


class TestBatchInterleaving:
    """Level-keyed groups interleave independent circuits: a merged
    batch's pass depth is the MAX circuit depth, not the sum."""

    def test_merged_group_count_is_max_of_parts(self):
        g_deep = graph_of(ripple_adder(6))
        g_shallow = graph_of(parity(4))
        deep_cs = prepare([g_deep]).compiled_forward_schedule(False, 0)
        shallow_cs = prepare([g_shallow]).compiled_forward_schedule(False, 0)
        assert len(shallow_cs.groups) < len(deep_cs.groups)
        merged_cs = prepare([g_deep, g_shallow]).compiled_forward_schedule(
            False, 0
        )
        assert len(merged_cs.groups) == max(
            len(deep_cs.groups), len(shallow_cs.groups)
        )

    def test_same_level_nodes_share_groups(self):
        g1 = graph_of(ripple_adder(4))
        g2 = graph_of(ripple_adder(4), seed=1)
        merged = prepare([g1, g2])
        cs = merged.compiled_forward_schedule(False, 0)
        levels = merged.graph.levels
        boundary = g1.num_nodes
        crossing = sum(
            1
            for group in cs
            if (group.nodes < boundary).any()
            and (group.nodes >= boundary).any()
        )
        assert crossing > 0  # both circuits genuinely share level groups
        for group in cs:
            assert np.unique(levels[group.nodes]).size == 1
