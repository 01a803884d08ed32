"""Tests for the four aggregator designs."""

import numpy as np
import pytest

from repro.models import (
    AGGREGATOR_NAMES,
    AttentionAggregator,
    ConvSumAggregator,
    DeepSetAggregator,
    GatedSumAggregator,
    build_aggregator,
)
from repro.graphdata import CompiledSchedule, LevelGroup, LevelSchedule
from repro.nn import Tensor, gather_rows


def rng():
    return np.random.default_rng(0)


def toy_inputs(num_edges=5, num_targets=3, dim=4):
    r = np.random.default_rng(1)
    h_src = Tensor(r.normal(size=(num_edges, dim)).astype(np.float32))
    query = Tensor(r.normal(size=(num_targets, dim)).astype(np.float32))
    seg = np.array([0, 0, 1, 2, 2])
    return h_src, query, seg


class TestFactory:
    @pytest.mark.parametrize("name", AGGREGATOR_NAMES)
    def test_builds_all(self, name):
        agg = build_aggregator(name, 8, rng())
        h_src, query, seg = toy_inputs(dim=8)
        out = agg(h_src, query, seg, 3)
        assert out.shape == (3, 8)

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown aggregator"):
            build_aggregator("magic", 8, rng())

    @pytest.mark.parametrize("name", AGGREGATOR_NAMES)
    def test_gradients_reach_parameters(self, name):
        agg = build_aggregator(name, 4, rng())
        h_src, query, seg = toy_inputs()
        h_src.requires_grad = True
        out = agg(h_src, query, seg, 3)
        (out * out).sum().backward()
        assert h_src.grad is not None
        grads = [p.grad is not None for p in agg.parameters()]
        if name == "attention":
            # w_query receives zero-gradient only through softmax symmetry;
            # it still must be reachable (non-None) via the graph
            assert any(grads)
        else:
            assert all(grads)


class TestConvSum:
    def test_equals_manual_linear_sum(self):
        agg = ConvSumAggregator(4, rng())
        h_src, query, seg = toy_inputs()
        out = agg(h_src, query, seg, 3).data
        lin = h_src.data @ agg.linear.weight.data + agg.linear.bias.data
        expect = np.zeros((3, 4), dtype=np.float32)
        np.add.at(expect, seg, lin)
        np.testing.assert_allclose(out, expect, atol=1e-6)


class TestDeepSet:
    def test_permutation_invariant(self):
        agg = DeepSetAggregator(4, rng())
        h_src, query, _ = toy_inputs()
        seg = np.zeros(5, dtype=int)
        out1 = agg(h_src, query, seg, 1).data
        perm = np.array([4, 2, 0, 1, 3])
        h_perm = Tensor(h_src.data[perm])
        out2 = agg(h_perm, query, seg, 1).data
        np.testing.assert_allclose(out1, out2, atol=1e-5)


class TestGatedSum:
    def test_gates_bound_message(self):
        agg = GatedSumAggregator(4, rng())
        h_src, query, seg = toy_inputs()
        out = agg(h_src, query, seg, 3).data
        # message magnitude bounded by sum of |value| rows (gates in (0,1))
        values = np.abs(
            h_src.data @ agg.value.weight.data + agg.value.bias.data
        )
        bound = np.zeros((3, 4), dtype=np.float32)
        np.add.at(bound, seg, values)
        assert (np.abs(out) <= bound + 1e-5).all()


class TestAttention:
    def test_single_predecessor_passes_state_through(self):
        """With one predecessor, softmax weight is 1: message == h_u."""
        agg = AttentionAggregator(4, rng())
        h_src = Tensor(np.arange(4, dtype=np.float32).reshape(1, 4))
        query = Tensor(np.ones((1, 4), dtype=np.float32))
        out = agg(h_src, query, np.array([0]), 1).data
        np.testing.assert_allclose(out[0], h_src.data[0], atol=1e-6)

    def test_weights_sum_to_one(self):
        """Message is a convex combination of the source states."""
        agg = AttentionAggregator(3, rng())
        const = np.ones((4, 3), dtype=np.float32) * 2.5
        out = agg(
            Tensor(const),
            Tensor(np.zeros((2, 3), np.float32)),
            np.array([0, 0, 1, 1]),
            2,
        ).data
        np.testing.assert_allclose(out, 2.5, atol=1e-5)

    def test_edge_attr_changes_scores(self):
        agg = AttentionAggregator(4, rng(), edge_attr_dim=6)
        # w_edge starts at zero except the skip-indicator entry; give it
        # weight so generic attributes influence the scores
        agg.w_edge.weight.data[:] = np.linspace(-1, 1, 6).reshape(6, 1)
        h_src, query, seg = toy_inputs()
        base = agg(h_src, query, seg, 3, Tensor(np.zeros((5, 6), np.float32))).data
        attr = np.random.default_rng(3).normal(size=(5, 6)).astype(np.float32) * 3
        out = agg(h_src, query, seg, 3, Tensor(attr)).data
        assert not np.allclose(base, out)

    def test_skip_indicator_initially_mutes_skip_edges(self):
        """A fresh aggregator down-weights edges flagged as skip."""
        agg = AttentionAggregator(4, rng(), edge_attr_dim=6)
        agg.w_key.weight.data[:] = 0.0  # isolate the indicator's effect
        h_src = Tensor(np.ones((2, 4), np.float32))
        h_src.data[1] = 5.0  # the skip source carries a distinct state
        query = Tensor(np.zeros((1, 4), np.float32))
        seg = np.array([0, 0])
        attr = np.zeros((2, 6), np.float32)
        attr[1, -1] = 1.0  # second edge is a skip connection
        out = agg(h_src, query, seg, 1, Tensor(attr)).data
        # message leans strongly toward the normal edge's state (1.0)
        alpha_skip = (out[0, 0] - 1.0) / 4.0
        assert alpha_skip < 0.2

    def test_edge_attr_without_capacity_rejected(self):
        agg = AttentionAggregator(4, rng())
        h_src, query, seg = toy_inputs()
        with pytest.raises(ValueError, match="edge_attr_dim"):
            agg(h_src, query, seg, 3, Tensor(np.zeros((5, 6), np.float32)))

    def test_edge_attr_width_mismatch_rejected(self):
        agg = AttentionAggregator(4, rng(), edge_attr_dim=6)
        h_src, query, seg = toy_inputs()
        with pytest.raises(ValueError, match="columns"):
            agg(h_src, query, seg, 3, Tensor(np.zeros((5, 4), np.float32)))

    def test_query_affects_weights(self):
        agg = AttentionAggregator(4, rng())
        h_src, _, seg = toy_inputs()
        q1 = Tensor(np.zeros((3, 4), np.float32))
        q2 = Tensor(np.ones((3, 4), np.float32) * 4)
        out1 = agg(h_src, q1, seg, 3).data
        out2 = agg(h_src, q2, seg, 3).data
        # w1^T h_v shifts all scores of a segment equally -> softmax is
        # invariant to the query in the *additive single-head* design
        np.testing.assert_allclose(out1, out2, atol=1e-5)


#: node ids ``0..SOURCES-1`` feed a one-group pass's targets
SOURCES = 5

#: (src, seg) of one level group: repeated source rows with uneven
#: fan-in, every edge into one target, and one edge per target
GROUP_SHAPES = {
    "mixed": ([0, 1, 2, 3, 1], [0, 0, 1, 2, 2]),
    "single_target": ([0, 1, 2, 3], [0, 0, 0, 0]),
    "all_distinct": ([0, 1, 2], [0, 1, 2]),
}


def one_group_pass(src, seg, skip=None, edge_attr_dim=None):
    """A compiled pass of one level group whose targets follow the
    sources; ``skip`` adds ``(src, seg, attr)`` skip edges."""
    extra = {}
    if skip is not None:
        skip_src, skip_seg, skip_attr = skip
        extra = dict(
            skip_src=np.array(skip_src), skip_seg=np.array(skip_seg),
            skip_attr=skip_attr,
        )
        seg_all = list(seg) + list(skip_seg)
    else:
        seg_all = list(seg)
    num_targets = max(seg_all) + 1
    num_nodes = SOURCES + num_targets
    group = LevelGroup(
        nodes=SOURCES + np.arange(num_targets),
        src=np.array(src), seg=np.array(seg), **extra,
    )
    return CompiledSchedule.compile(
        LevelSchedule([group], num_nodes),
        np.zeros((num_nodes, 1), np.float32),
        edge_attr_dim,
    )


def reference_pass(agg, cs, hd, w):
    """The composite ``forward`` over the pass's group: its message and
    the gradient of ``sum(message * w)`` w.r.t. the state ``hd``."""
    group = cs.groups[0]
    h = Tensor(hd, requires_grad=True)
    attr = None if group.edge_attr is None else Tensor(group.edge_attr)
    out = agg(
        gather_rows(h, group.src), gather_rows(h, group.nodes),
        group.seg, len(group.nodes), attr,
    )
    (out * Tensor(w)).sum().backward()
    return out.data, h.grad


def hook_pass(agg, cs, hd, w):
    """:func:`reference_pass` through the pass-step hooks, driven as the
    pass runner drives them over a one-window pass."""
    group = cs.groups[0]
    attr = group.edge_attr
    h_src = hd[group.src]
    plan = cs.walk_plan()
    walk = agg.step_walk(agg.step_begin(hd), plan, attr is not None)
    m, saved = agg.step_forward(plan.steps[0], h_src, walk)
    sink = agg.step_sink(hd, cs.block())
    dh_src = agg.step_backward(group, w, h_src, saved, sink, attr)
    dh = np.zeros_like(hd)
    agg.step_end(hd, sink, dh)
    np.add.at(dh, group.src, dh_src)
    return m, dh


def assert_hooks_match_reference(agg, cs):
    hd = np.random.default_rng(7).normal(size=(cs.num_nodes, 4)).astype(
        np.float32
    )
    num_targets = len(cs.written)
    w = np.linspace(-1, 1, num_targets * 4).reshape(num_targets, 4).astype(
        np.float32
    )
    agg.zero_grad()
    m_ref, dh_ref = reference_pass(agg, cs, hd, w)
    dp_ref = [p.grad for p in agg.parameters()]
    agg.zero_grad()
    m_hook, dh_hook = hook_pass(agg, cs, hd, w)
    dp_hook = [p.grad for p in agg.parameters()]
    np.testing.assert_allclose(m_hook, m_ref, rtol=1e-5, atol=1e-6)
    np.testing.assert_allclose(dh_hook, dh_ref, rtol=1e-4, atol=1e-6)
    for g_ref, g_hook in zip(dp_ref, dp_hook):
        if g_ref is None:
            assert g_hook is None or not np.abs(g_hook).max()
            continue
        np.testing.assert_allclose(g_hook, g_ref, rtol=1e-4, atol=1e-6)


class TestStepHooks:
    """The pass-step hooks every compiled pass runs must match the
    composite reference ``forward`` in the message, the state gradient
    and every parameter gradient, on rank-major compiled groups."""

    @pytest.mark.parametrize("shape", list(GROUP_SHAPES))
    @pytest.mark.parametrize("name", AGGREGATOR_NAMES)
    def test_step_hooks_match_reference(self, name, shape):
        src, seg = GROUP_SHAPES[shape]
        agg = build_aggregator(name, 4, rng())
        assert_hooks_match_reference(agg, one_group_pass(src, seg))

    def test_attention_step_hooks_with_edge_attr(self):
        agg = AttentionAggregator(4, rng(), edge_attr_dim=3)
        agg.w_edge.weight.data[:] = np.linspace(-1, 1, 3).reshape(3, 1)
        attr = np.random.default_rng(9).normal(size=(2, 3)).astype(np.float32)
        # real edges carry zero attributes, skip edges their own
        cs = one_group_pass(
            [0, 1, 2], [0, 0, 1], skip=([3, 1], [2, 2], attr),
            edge_attr_dim=3,
        )
        assert np.abs(cs.groups[0].edge_attr).max() > 0
        assert_hooks_match_reference(agg, cs)
        assert np.abs(agg.w_edge.weight.grad).max() > 0
