"""Windowed streaming propagation vs the full compiled pass.

The streaming contract, checked over every aggregator × budget:

* forward outputs (and therefore the loss) are **bitwise identical** to
  the full compiled pass for every window budget — including budgets of
  one level group and budgets larger than the whole circuit — whether or
  not the pass records gradients, because every pass computes its
  recurrent pre-projection through the same globally-aligned
  :data:`GEMM_CHUNK_ROWS` extents;
* a one-window pass runs the full pass's code, so its gradients are
  bitwise identical too; several windows contract gradients per window
  (window-sized GEMMs change summation order), so theirs are
  ``allclose``, not bitwise;
* a finite-difference probe validates the recompute-based backward
  through a window boundary end to end, for every aggregator;
* a walk keeps group state only for a recorded one-window pass.
"""

import weakref

import numpy as np
import pytest

import repro.models.propagation as P
from repro.datagen.generators import parity, ripple_adder
from repro.graphdata import CircuitGraph, from_aig, prepare
from repro.models import DeepGate
from repro.models.propagation import (
    WINDOW_ENV_VAR,
    get_window_budget,
    get_window_stats,
    reset_window_stats,
    set_window_budget,
    use_window_budget,
)
from repro.nn import Tensor, no_grad
from repro.synth import synthesize

BUDGETS = [1, 7, 64, 10**9]
AGG_CONFIGS = [
    {"aggregator": "attention", "use_skip": True},
    {"aggregator": "conv_sum", "use_skip": False},
    {"aggregator": "deepset", "use_skip": False},
    {"aggregator": "gated_sum", "use_skip": False},
]
AGG_IDS = [c["aggregator"] for c in AGG_CONFIGS]


def make_batch():
    g1 = from_aig(synthesize(ripple_adder(6)), num_patterns=256, seed=0)
    g2 = from_aig(synthesize(parity(5)), num_patterns=256, seed=1)
    return prepare([g1, g2])


def relabel(graph, seed):
    """``graph`` with its node ids shuffled, so ids are not level-sorted."""
    new_id = np.random.default_rng(seed).permutation(graph.num_nodes)
    old_id = np.argsort(new_id)
    return CircuitGraph(
        node_type=graph.node_type[old_id],
        type_names=graph.type_names,
        edges=new_id[graph.edges],
        levels=graph.levels[old_id],
        labels=graph.labels[old_id],
        skip_edges=new_id[graph.skip_edges],
        skip_level_diff=graph.skip_level_diff,
        name=graph.name,
    )


def make_model(**kwargs):
    defaults = dict(
        dim=8, num_iterations=2, rng=np.random.default_rng(0),
        compiled=True,
    )
    defaults.update(kwargs)
    return DeepGate(**defaults)


def grads_of(model):
    return {
        name: np.array(p.grad)
        for name, p in model.named_parameters()
        if p.grad is not None
    }


def pass_setup(batch, model, direction, budget):
    """The full and windowed schedules of one pass, and its step."""
    node_type = batch.graph.node_type
    if direction == "forward":
        full = batch.compiled_forward_schedule(True, model.pe_levels)
        windowed = batch.windowed_forward_schedule(
            budget, True, model.pe_levels
        )
        step = P.AggregateCombineStep(
            model.fwd_aggregate, model.fwd_combine, node_type,
            use_edge_attr=True,
        )
    else:
        full = batch.compiled_reverse_schedule()
        windowed = batch.windowed_reverse_schedule(budget)
        step = P.AggregateCombineStep(
            model.rev_aggregate, model.rev_combine, node_type
        )
    return full, windowed, step


def random_state(batch, seed=2):
    return np.random.default_rng(seed).standard_normal(
        (batch.num_nodes, 8)
    ).astype(np.float32)


@pytest.mark.parametrize("config", AGG_CONFIGS, ids=AGG_IDS)
class TestBitwiseForward:
    @pytest.mark.parametrize("budget", BUDGETS)
    @pytest.mark.parametrize(
        "record", [False, True], ids=["no_grad", "recorded"]
    )
    def test_forward_bits_match_full(self, config, budget, record):
        # a recorded one-window pass keeps every group's state and a
        # recorded multi-window pass keeps none; neither may move a bit
        batch = make_batch()
        model = make_model(**config)
        with no_grad():
            expected = model(batch).data
        with use_window_budget(budget):
            if record:
                actual = model(batch).data
            else:
                with no_grad():
                    actual = model(batch).data
        np.testing.assert_array_equal(actual, expected)

    @pytest.mark.parametrize("budget", BUDGETS)
    def test_gradients_match_full(self, config, budget):
        batch = make_batch()
        full = make_model(**config)
        windowed = make_model(**config)
        weights = Tensor(
            np.linspace(-1.0, 1.0, batch.num_nodes).astype(np.float32)
        )
        (full(batch) * weights).sum().backward()
        with use_window_budget(budget):
            (windowed(batch) * weights).sum().backward()
        g_full, g_win = grads_of(full), grads_of(windowed)
        assert g_full.keys() == g_win.keys()
        for name in g_full:
            if budget == 10**9:
                # one window: the same code as the full pass
                np.testing.assert_array_equal(
                    g_win[name], g_full[name],
                    err_msg=f"gradient bits differ for {name}",
                )
            else:
                np.testing.assert_allclose(
                    g_win[name], g_full[name], rtol=2e-4, atol=2e-5,
                    err_msg=f"gradient mismatch for {name}",
                )


@pytest.mark.parametrize("config", AGG_CONFIGS, ids=AGG_IDS)
@pytest.mark.parametrize("shape", ["full", "windowed"])
@pytest.mark.parametrize("direction", ["forward", "reverse"])
def test_broadcast_pass_input_matches_its_copy(config, shape, direction):
    # DeepGate's initial state is a zero-stride view of h_init: as a pass
    # input it must give its contiguous copy's outputs and gradients
    batch = make_batch()
    row = np.random.default_rng(3).standard_normal((1, 8)).astype(np.float32)
    view = np.broadcast_to(row, (batch.num_nodes, 8))
    results = []
    for data in (view, view.copy()):
        model = make_model(**config)
        full, windowed, step = pass_setup(batch, model, direction, 7)
        schedule = full if shape == "full" else windowed
        h = Tensor(data, requires_grad=True)
        out = P.run_pass(h, schedule, step)
        out.backward(random_state(batch, seed=4))
        results.append((out.data, h.grad, grads_of(model)))
    (out_v, dh_v, grads_v), (out_c, dh_c, grads_c) = results
    np.testing.assert_array_equal(out_v, out_c)
    np.testing.assert_array_equal(dh_v, dh_c)
    assert grads_v.keys() == grads_c.keys() and grads_v
    for name in grads_v:
        np.testing.assert_array_equal(
            grads_v[name], grads_c[name], err_msg=f"bits differ for {name}"
        )


def test_initial_state_is_a_read_only_broadcast():
    batch = make_batch()
    model = make_model()
    state = model.initial_state(batch).data
    assert state.shape == (batch.num_nodes, 8) and state.strides[0] == 0
    assert not state.flags.writeable
    np.testing.assert_array_equal(state, model.h_init.data[[0] * len(state)])


class TestChunkConvention:
    def test_multi_chunk_forward_stays_bitwise(self, monkeypatch):
        # force the pass-wide affine pre-projections through several
        # chunks: the windowed/full bitwise identity must survive
        monkeypatch.setattr(P, "GEMM_CHUNK_ROWS", 64)
        batch = make_batch()
        model = make_model()
        with no_grad():
            expected = model(batch).data
            with use_window_budget(16):
                actual = model(batch).data
        np.testing.assert_array_equal(actual, expected)

    @pytest.mark.parametrize("direction", ["forward", "reverse"])
    def test_each_chunk_once_per_walk_at_most_two_resident(
        self, monkeypatch, direction
    ):
        monkeypatch.setattr(P, "GEMM_CHUNK_ROWS", 64)
        g1 = from_aig(synthesize(ripple_adder(6)), num_patterns=256, seed=0)
        g2 = from_aig(synthesize(parity(5)), num_patterns=256, seed=1)
        batch = prepare([relabel(g1, 0), relabel(g2, 1)])
        model = make_model()
        full, windowed, step = pass_setup(batch, model, direction, 16)
        # relabelled: windows read node ids out of order, but each reads
        # one contiguous range of the written axis
        assert (np.diff(windowed.written) < 0).any()
        num_chunks = -(-len(windowed.written) // 64)
        assert num_chunks >= 3

        computed = []
        live = []
        resident = [0]
        compute = P._ChunkedAffine._compute

        def counting_compute(self, ci, *args):
            value = compute(self, ci, *args)
            computed.append(ci)
            live.append(weakref.ref(value))
            resident[0] = max(resident[0], sum(r() is not None for r in live))
            return value

        monkeypatch.setattr(P._ChunkedAffine, "_compute", counting_compute)
        h0 = random_state(batch)
        full_out = P.run_pass(Tensor(h0, requires_grad=True), full, step)
        # the full pass is one window: one walk over every chunk
        assert computed == list(range(num_chunks))
        computed.clear()
        # ... whose backward keeps the forward's state, projecting nothing
        full_out.backward(np.ones_like(full_out.data))
        assert computed == []
        out = P.run_pass(Tensor(h0, requires_grad=True), windowed, step)
        np.testing.assert_array_equal(out.data, full_out.data)
        assert sorted(computed) == list(range(num_chunks))
        computed.clear()
        out.backward(np.ones_like(out.data))
        assert sorted(computed) == list(range(num_chunks))
        assert resident[0] <= 2


class TestSavedStateResidency:
    """A walk keeps each group's saved state only when the pass records
    gradients and has one window; otherwise a no-grad pass would hold all
    per-group state until it ends."""

    @pytest.fixture
    def peaks(self, monkeypatch):
        """Live saved-state count each time a group's forward starts.

        A walk that keeps nothing gets ``None`` back (no saved state is
        built), which counts as nothing live."""
        forward = P.AggregateCombineStep.forward
        live, peaks = [], []

        class Saved(list):  # a weak-referenceable stand-in for the tuple
            pass

        def tracking_forward(self, *args):
            peaks.append(sum(r() is not None for r in live))
            out, saved = forward(self, *args)
            if saved is not None:
                saved = Saved(saved)
                live.append(weakref.ref(saved))
            return out, saved

        monkeypatch.setattr(
            P.AggregateCombineStep, "forward", tracking_forward
        )
        return peaks

    @pytest.mark.parametrize("direction", ["forward", "reverse"])
    def test_no_grad_pass_holds_one_group(self, peaks, direction):
        batch = make_batch()
        full, windowed, step = pass_setup(batch, make_model(), direction, 7)
        h0 = Tensor(random_state(batch))
        with no_grad():
            for schedule in (full, windowed):
                peaks.clear()
                P.run_pass(h0, schedule, step)
                assert max(peaks) <= 1
        # a recorded one-window pass keeps every group's state
        peaks.clear()
        P.run_pass(h0, full, step)
        assert max(peaks) == len(full.groups) - 1

    @pytest.mark.parametrize("direction", ["forward", "reverse"])
    def test_multi_window_backward_holds_one_window(self, peaks, direction):
        batch = make_batch()
        _, windowed, step = pass_setup(batch, make_model(), direction, 7)
        widest = max(len(w.compiled.groups) for w in windowed)
        assert len(windowed) > 1 and widest > 1
        out = P.run_pass(
            Tensor(random_state(batch), requires_grad=True), windowed, step
        )
        assert max(peaks) <= 1
        peaks.clear()
        out.backward(np.ones_like(out.data))
        assert len(peaks) == windowed.num_groups
        assert max(peaks) <= widest + 1


class TestFiniteDifference:
    @pytest.mark.parametrize("config", AGG_CONFIGS, ids=AGG_IDS)
    def test_parameter_gradients_across_window_boundary(self, config):
        g = from_aig(synthesize(ripple_adder(3)), num_patterns=128, seed=0)
        batch = prepare([g])
        model = make_model(dim=6, **config)
        weights = Tensor(
            np.linspace(0.2, 1.0, batch.num_nodes).astype(np.float32)
        )

        def loss_value() -> float:
            with no_grad():
                return float((model(batch).data * weights.data).sum())

        # budget 4: every pass crosses several window boundaries, so the
        # FD probe exercises the cross-window recompute, not just one window
        with use_window_budget(4):
            model.zero_grad()
            (model(batch) * weights).sum().backward()
            rng = np.random.default_rng(7)
            eps = 2e-3
            for name, p in model.named_parameters():
                assert p.grad is not None, name
                flat = p.data.reshape(-1)
                gflat = np.asarray(p.grad).reshape(-1)
                idx = int(rng.integers(flat.size))
                orig = flat[idx]
                flat[idx] = orig + eps
                fp = loss_value()
                flat[idx] = orig - eps
                fm = loss_value()
                flat[idx] = orig
                numeric = (fp - fm) / (2.0 * eps)
                np.testing.assert_allclose(
                    gflat[idx], numeric, atol=2e-2, rtol=8e-2,
                    err_msg=f"FD mismatch for {name}[{idx}]",
                )


class TestStatsAndKnob:
    def test_window_stats_accumulate(self):
        batch = make_batch()
        model = make_model()
        reset_window_stats()
        with use_window_budget(7):
            model.zero_grad()
            model(batch).sum().backward()
        stats = get_window_stats()
        # 2 iterations x (forward + reverse) = 4 windowed passes
        assert stats["passes"] == 4
        assert stats["windows"] > stats["passes"]
        assert stats["frontier_rows"] > 0
        # no frontier store: the backward reads the pass output
        assert stats["store_peak_bytes"] == 0
        assert get_window_stats() == stats  # returns a copy, not a view

    @pytest.mark.parametrize(
        "budget,windows,frontier_rows", [(7, 60, 548), (64, 12, 152)]
    )
    def test_per_pass_counts_unchanged(self, budget, windows, frontier_rows):
        # the partition alone fixes these counts, so how rows cross a
        # window boundary must not move them
        batch = make_batch()
        model = make_model()
        reset_window_stats()
        with use_window_budget(budget):
            model(batch).sum().backward()
        stats = get_window_stats()
        assert (stats["passes"], stats["windows"]) == (4, windows)
        assert stats["frontier_rows"] == frontier_rows
        # inference passes read no frontier rows back
        reset_window_stats()
        with use_window_budget(budget), no_grad():
            model(batch)
        stats = get_window_stats()
        assert (stats["windows"], stats["frontier_rows"]) == (windows, 0)

    def test_set_window_budget_validates(self):
        with pytest.raises(ValueError, match="window budget"):
            set_window_budget(0)
        assert set_window_budget(None) is None

    def test_env_var_resolution(self, monkeypatch):
        monkeypatch.setenv(WINDOW_ENV_VAR, "7")
        monkeypatch.setattr(P, "_active_window_budget", P._UNSET)
        assert get_window_budget() == 7
        for off in ("", "0", "off", "full", "none"):
            monkeypatch.setenv(WINDOW_ENV_VAR, off)
            monkeypatch.setattr(P, "_active_window_budget", P._UNSET)
            assert get_window_budget() is None
        monkeypatch.setenv(WINDOW_ENV_VAR, "not-a-number")
        monkeypatch.setattr(P, "_active_window_budget", P._UNSET)
        with pytest.raises(ValueError, match=WINDOW_ENV_VAR):
            get_window_budget()

    def test_use_window_budget_restores(self):
        before = get_window_budget()
        with use_window_budget(5):
            assert get_window_budget() == 5
        assert get_window_budget() == before
