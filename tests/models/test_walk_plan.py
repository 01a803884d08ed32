"""The forward walk's plan and the one-rank attention passthrough.

* :class:`~repro.graphdata.batching.WalkPlan` holds, per compiled
  schedule, one flat step per group whose slices, flags and edge targets
  agree with the compiled groups.
* A group whose nodes each have one in-edge skips attention's scores and
  softmax: its message is the gathered source rows and its saved weights
  are 1.0, bit for bit what the general softmax gives on the same
  scores, so predictions and every gradient are unchanged.
* A non-finite key weight still poisons every prediction, although
  one-rank groups no longer compute a score.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.datagen.generators import ripple_adder
from repro.graphdata import CompiledSchedule, from_aig, prepare
from repro.graphdata.batching import WalkPlan
from repro.models import AttentionAggregator, DeepGate
from repro.models.propagation import use_window_budget
from repro.nn import Tensor, no_grad
from repro.nn.kernels import segment_softmax_weighted_np
from repro.synth import synthesize

from .test_aggregators import GROUP_SHAPES, one_group_pass


def assert_bits_equal(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    np.testing.assert_array_equal(
        actual.view(np.uint32), expected.view(np.uint32)
    )


def adder_batch(width=4):
    g = from_aig(synthesize(ripple_adder(width)), num_patterns=64, seed=0)
    return prepare([g])


class TestWalkPlan:
    @pytest.mark.parametrize("direction", ["forward", "reverse"])
    def test_steps_follow_compiled_groups(self, direction):
        batch = adder_batch()
        if direction == "forward":
            cs = batch.compiled_forward_schedule(True, 8)
        else:
            cs = batch.compiled_reverse_schedule()
        plan = cs.walk_plan()
        assert cs.walk_plan() is plan  # cached per schedule
        assert len(plan.steps) == len(cs.groups)
        for gs, g in zip(plan.steps, cs.groups):
            assert gs.nodes is g.nodes and gs.src is g.src
            assert gs.layout is g.seg_layout
            np.testing.assert_array_equal(
                cs.written[gs.rows], g.nodes
            )
            np.testing.assert_array_equal(
                plan.edge_targets[gs.edges], g.nodes[g.seg]
            )
            degree = np.bincount(g.seg, minlength=len(g.nodes))
            assert gs.one_rank == bool((degree == 1).all())
            if g.edge_attr is None or not g.edge_attr.any():
                assert gs.edge_attr is None
            else:
                assert gs.edge_attr is g.edge_attr
        kinds = {(gs.one_rank, gs.layout.grid) for gs in plan.steps}
        # an adder has groups of every kind: one-rank, grid, general
        assert (True, True) in kinds and (False, False) in kinds

    def test_windows_have_their_own_plans(self):
        batch = adder_batch()
        windowed = batch.windowed_forward_schedule(7, True, 8)
        full = batch.compiled_forward_schedule(True, 8).walk_plan()
        targets = np.concatenate(
            [w.compiled.walk_plan().edge_targets for w in windowed]
        )
        np.testing.assert_array_equal(targets, full.edge_targets)


class TestOneRankPassthrough:
    def _pass(self, edge_attr_dim=None, skip=None):
        src, seg = GROUP_SHAPES["all_distinct"]
        return one_group_pass(src, seg, skip=skip, edge_attr_dim=edge_attr_dim)

    @pytest.mark.parametrize("skip", [False, True], ids=["real", "skip"])
    def test_message_is_source_rows_with_unit_weights(self, skip):
        if skip:
            attr = np.full((1, 3), 0.5, np.float32)
            cs = self._pass(3, skip=([4], [3], attr))
            agg = AttentionAggregator(4, np.random.default_rng(0), 3)
        else:
            cs = self._pass()
            agg = AttentionAggregator(4, np.random.default_rng(0))
        plan = cs.walk_plan()
        gs = plan.steps[0]
        assert gs.one_rank
        hd = np.random.default_rng(3).normal(
            size=(cs.num_nodes, 4)
        ).astype(np.float32)
        ctx = agg.step_begin(hd)
        h_src = hd[gs.src]
        m, alpha = agg.step_forward(gs, h_src, agg.step_walk(ctx, plan, skip))
        assert_bits_equal(m, h_src)
        assert_bits_equal(alpha, np.ones(len(h_src), np.float32))
        # the general softmax on the same scores gives the same bits
        scores = (
            ctx[gs.nodes][gs.layout.segment_ids]
            + (h_src @ agg.w_key.weight.data).ravel()
        )
        if skip:
            scores = scores + (cs.groups[0].edge_attr @ agg.w_edge.weight.data).ravel()
        m_gen, alpha_gen = segment_softmax_weighted_np(
            scores, h_src, gs.layout
        )
        assert_bits_equal(m_gen, m)
        assert_bits_equal(alpha_gen, alpha)

    @pytest.mark.parametrize("budget", [None, 7], ids=["one_window", "b7"])
    @pytest.mark.parametrize("use_skip", [True, False], ids=["sc", "no_sc"])
    def test_recorded_gradients_match_general_path(
        self, monkeypatch, budget, use_skip
    ):
        """Predictions and every gradient with the passthrough equal those
        of the general softmax path run on the same one-rank groups."""
        batch = adder_batch()
        assert any(
            gs.one_rank
            for gs in batch.compiled_reverse_schedule().walk_plan().steps
        )

        def run():
            model = DeepGate(
                dim=8, num_iterations=2, use_skip=use_skip,
                rng=np.random.default_rng(4),
            )
            weights = Tensor(
                np.linspace(-1, 1, batch.num_nodes).astype(np.float32)
            )
            with use_window_budget(budget):
                pred = model(batch)
                (pred * weights).sum().backward()
            return pred.data, {
                name: p.grad for name, p in model.named_parameters()
            }

        pred, grads = run()

        def general_plan(self):
            plan = WalkPlan.build(self.groups)
            return replace(
                plan, steps=[s._replace(one_rank=False) for s in plan.steps]
            )

        monkeypatch.setattr(CompiledSchedule, "walk_plan", general_plan)
        pred_gen, grads_gen = run()
        assert_bits_equal(pred, pred_gen)
        assert grads.keys() == grads_gen.keys()
        for name in grads:
            assert_bits_equal(grads[name], grads_gen[name])

    @pytest.mark.parametrize("which", ["fwd_aggregate", "rev_aggregate"])
    def test_nan_key_weight_poisons_every_prediction(self, which):
        # a serve-sized circuit (166 nodes after strash) at T = 10
        batch = adder_batch(8)
        model = DeepGate(
            dim=16, num_iterations=10, rng=np.random.default_rng(0)
        )
        getattr(model, which).w_key.weight.data[3, 0] = np.nan
        with no_grad():
            pred = model(batch).data
        assert pred.size == batch.num_nodes
        assert np.isnan(pred).all()
