"""Tests for the compiled segment/GRU/aggregator kernels.

Two angles on every kernel: finite-difference gradcheck, and equivalence
against the pre-fast-path reference ops (``np.add.at``/``np.maximum.at``
reductions, the expression-by-expression GRU) across empty-segment,
single-edge and large-fan-in edge cases.  The segment reductions are
also pinned bitwise to a float32 sequential-loop oracle on random
rank-major, grid (uniform fan-in) and general layouts, and the GRU gate
kernel bitwise to the op order it replaced.  No kernel may write into
its inputs.
"""

import numpy as np
import pytest

from repro.nn import Tensor
from repro.nn.kernels import (
    SegmentLayout,
    conv_sum_backward_np,
    conv_sum_forward_np,
    deepset_forward_np,
    gated_sum_forward_np,
    gru_gates_backward_np,
    gru_gates_np,
    segment_max_np,
    segment_rank_order,
    segment_scatter_add,
    segment_softmax_np,
    segment_softmax_weighted_np,
    segment_sum_np,
)
from repro.nn.modules import GRUCell

from .gradcheck import check_gradients

# ---------------------------------------------------------------------------
# reference implementations (the ops the kernels replaced)
# ---------------------------------------------------------------------------


def ref_segment_sum(x, ids, num_segments):
    out = np.zeros((num_segments,) + x.shape[1:], dtype=np.float32)
    np.add.at(out, ids, x)
    return out


def ref_segment_max(x, ids, num_segments):
    out = np.full(num_segments, -np.inf, dtype=np.float32)
    np.maximum.at(out, ids, x)
    return out


def ref_segment_softmax(s, ids, num_segments):
    seg_max = ref_segment_max(s, ids, num_segments)
    exps = np.exp(s - seg_max[ids])
    denom = ref_segment_sum(exps, ids, num_segments)
    return exps / denom[ids]


def reference_gru(cell, x, h):
    """The original ~15-node composite GRU formulation."""
    d = cell.hidden_size
    gi = (x @ cell.w_ih + cell.b_ih).data
    gh = (h @ cell.w_hh + cell.b_hh).data
    r = 1.0 / (1.0 + np.exp(-(gi[:, :d] + gh[:, :d])))
    z = 1.0 / (1.0 + np.exp(-(gi[:, d:2 * d] + gh[:, d:2 * d])))
    n = np.tanh(gi[:, 2 * d:] + r * gh[:, 2 * d:])
    return (1.0 - z) * n + z * h.data


#: (name, segment_ids, num_segments) covering the structural edge cases
SEGMENT_CASES = [
    ("empty", np.zeros(0, np.int64), 3),
    ("single_edge", np.array([1]), 3),
    ("empty_segments_interleaved", np.array([0, 0, 4, 2, 4]), 6),
    ("large_fan_in", np.zeros(500, np.int64), 2),
    ("all_distinct", np.arange(7), 7),
    ("unsorted", np.array([3, 0, 2, 0, 3, 1, 3]), 4),
]


@pytest.mark.parametrize(
    "name,ids,num", SEGMENT_CASES, ids=[c[0] for c in SEGMENT_CASES]
)
class TestSegmentKernelEquivalence:
    def test_sum_matches_add_at(self, name, ids, num):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(ids.size, 3)).astype(np.float32)
        layout = SegmentLayout(ids, num)
        # rank-by-rank accumulation adds each segment in element order,
        # exactly like the strictly sequential add.at
        np.testing.assert_array_equal(
            segment_sum_np(x, layout), ref_segment_sum(x, ids, num)
        )

    def test_max_matches_maximum_at(self, name, ids, num):
        rng = np.random.default_rng(2)
        s = rng.normal(size=ids.size).astype(np.float32)
        layout = SegmentLayout(ids, num)
        np.testing.assert_array_equal(
            segment_max_np(s, layout), ref_segment_max(s, ids, num)
        )

    def test_softmax_matches_reference(self, name, ids, num):
        # zero edges included: the kernel defines the empty-segment
        # result as the empty float32 array — zero rows, never NaN
        rng = np.random.default_rng(3)
        s = rng.normal(size=ids.size).astype(np.float32)
        layout = SegmentLayout(ids, num)
        out = segment_softmax_np(s, layout)
        assert out.shape == (ids.size,)
        assert out.dtype == np.float32
        assert not np.isnan(out).any()
        np.testing.assert_allclose(
            out, ref_segment_softmax(s, ids, num), rtol=1e-6
        )

    def test_scatter_add_touches_only_present(self, name, ids, num):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(ids.size, 2)).astype(np.float32)
        layout = SegmentLayout(ids, num)
        out = np.full((num, 2), np.nan, np.float32)
        out[np.unique(ids)] = 0.0
        segment_scatter_add(out, x, layout)
        absent = np.setdiff1d(np.arange(num), ids)
        assert np.isnan(out[absent]).all()
        present = np.unique(ids)
        np.testing.assert_array_equal(
            out[present], ref_segment_sum(x, ids, num)[present]
        )


class TestSegmentLayout:
    @pytest.mark.parametrize(
        "name,ids,num", SEGMENT_CASES, ids=[c[0] for c in SEGMENT_CASES]
    )
    def test_counts_match_bincount(self, name, ids, num):
        layout = SegmentLayout(ids, num)
        np.testing.assert_array_equal(
            layout.counts, np.bincount(ids, minlength=num).astype(np.float32)
        )
        # cached: same array object on the second access
        assert layout.counts is layout.counts

    def test_rejects_out_of_range_ids(self):
        with pytest.raises(ValueError, match="segment ids"):
            SegmentLayout(np.array([0, 5]), 3)
        with pytest.raises(ValueError, match="segment ids"):
            SegmentLayout(np.array([-1]), 3)



def seq_fold(x, ids, num, op, fill):
    """The sequential-loop oracle: element by element, in element order,
    the first element of a segment initialising it (float32 throughout)."""
    out = np.full((num,) + x.shape[1:], fill, np.float32)
    seen = np.zeros(num, bool)
    for k, seg in enumerate(ids):
        if seen[seg]:
            out[seg] = op(out[seg], x[k])
        else:
            out[seg] = x[k]
            seen[seg] = True
    return out


def rank_major_ids(rng, num, max_degree):
    """Segment ids of a random rank-major layout over ``num`` segments:
    degrees >= 1 sorted descending, rank ``r`` feeding segments
    ``0..c_r-1``."""
    degree = np.sort(rng.integers(1, max_degree + 1, size=num))[::-1]
    per_rank = [np.arange(int((degree > r).sum())) for r in range(max_degree)]
    return np.concatenate(per_rank).astype(np.int64)


def general_ids(rng, num, num_edges):
    """Random segment ids in random order; some segments stay empty."""
    return rng.integers(0, num, size=num_edges).astype(np.int64)


def grid_ids(num, ranks):
    """Segment ids of a uniform rank-major layout: every one of the
    ``ranks`` ranks covers all ``num`` segments."""
    return np.tile(np.arange(num, dtype=np.int64), ranks)


#: (name, layout kind, num_segments, size) for the random layouts
RANDOM_LAYOUTS = [
    ("rank_major", "rank_major", 37, 4),
    ("rank_major_single_segment", "rank_major", 1, 6),
    ("rank_major_single_rank", "rank_major", 9, 1),
    ("grid_one_rank", "grid", 11, 1),
    ("grid_two_ranks", "grid", 13, 2),
    ("grid_three_ranks", "grid", 7, 3),
    ("general", "general", 23, 60),
    ("general_sparse", "general", 40, 12),
    ("general_single_segment", "general", 1, 7),
    # one segment of 13 ranks: an axis-0 reduction of a lone row would
    # add pairwise, so this layout must stay off the grid path
    ("single_segment_thirteen_ranks", "general", 1, 13),
    ("zero_edges", "general", 5, 0),
]


def random_layout_ids(kind, num, size, seed):
    rng = np.random.default_rng(seed)
    if kind == "rank_major":
        return rank_major_ids(rng, num, size)
    if kind == "grid":
        return grid_ids(num, size)
    return general_ids(rng, num, size)


def assert_bits_equal(actual, expected):
    """Same dtype, shape and bit pattern (tells ``-0.0`` from ``0.0``)."""
    assert actual.dtype == expected.dtype == np.float32
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(
        actual.view(np.uint32), expected.view(np.uint32)
    )


@pytest.mark.parametrize(
    "name,kind,num,size", RANDOM_LAYOUTS, ids=[c[0] for c in RANDOM_LAYOUTS]
)
@pytest.mark.parametrize("seed", [0, 1, 2])
class TestSequentialOracle:
    """Rank-by-rank reductions equal a float32 sequential loop, bit for
    bit, on both the slice (rank-major) and the index-array paths."""

    def test_layout_kind_detected(self, name, kind, num, size, seed):
        ids = random_layout_ids(kind, num, size, seed)
        layout = SegmentLayout(ids, num)
        if kind in ("rank_major", "grid"):
            assert layout.rank_major
            assert all(isinstance(e, slice) for e, _ in layout.ranks)
        if ids.size == 0:
            assert layout.ranks == []
        # the grid is reported exactly for rank-major layouts of uniform
        # fan-in, except a lone segment of more than two ranks
        degree = np.bincount(ids, minlength=num)
        uniform = ids.size > 0 and bool((degree == degree[0]).all())
        expect_grid = (
            layout.rank_major and uniform and (num > 1 or degree[0] <= 2)
        )
        assert layout.grid == expect_grid
        if kind == "grid":
            assert layout.grid and len(layout.ranks) == size
        # each rank names every one of its segments at most once
        for _, targets in layout.ranks:
            t = np.arange(num)[targets]
            assert np.unique(t).size == t.size

    def test_sum(self, name, kind, num, size, seed):
        ids = random_layout_ids(kind, num, size, seed)
        x = np.random.default_rng(seed + 10).normal(
            size=(ids.size, 5)
        ).astype(np.float32)
        np.testing.assert_array_equal(
            segment_sum_np(x, SegmentLayout(ids, num)),
            seq_fold(x, ids, num, np.add, 0.0),
        )

    def test_max(self, name, kind, num, size, seed):
        ids = random_layout_ids(kind, num, size, seed)
        s = np.random.default_rng(seed + 20).normal(
            size=ids.size
        ).astype(np.float32)
        np.testing.assert_array_equal(
            segment_max_np(s, SegmentLayout(ids, num)),
            seq_fold(s, ids, num, np.maximum, -np.inf),
        )

    def test_softmax_weighted(self, name, kind, num, size, seed):
        ids = random_layout_ids(kind, num, size, seed)
        rng = np.random.default_rng(seed + 30)
        s = rng.normal(size=ids.size).astype(np.float32)
        x = rng.normal(size=(ids.size, 4)).astype(np.float32)
        m, alpha = segment_softmax_weighted_np(s, x, SegmentLayout(ids, num))
        mx = seq_fold(s, ids, num, np.maximum, -np.inf)
        e = np.exp(s - mx[ids])
        expect_alpha = e / seq_fold(e, ids, num, np.add, 0.0)[ids]
        expect_m = seq_fold(x * expect_alpha[:, None], ids, num, np.add, 0.0)
        assert m.shape == (num, 4) and m.dtype == np.float32
        np.testing.assert_array_equal(alpha, expect_alpha)
        np.testing.assert_array_equal(m, expect_m)

    def test_softmax_weighted_leaves_inputs(self, name, kind, num, size, seed):
        ids = random_layout_ids(kind, num, size, seed)
        rng = np.random.default_rng(seed + 50)
        s = rng.normal(size=ids.size).astype(np.float32)
        x = rng.normal(size=(ids.size, 3)).astype(np.float32)
        before = (s.copy(), x.copy())
        segment_softmax_weighted_np(s, x, SegmentLayout(ids, num))
        assert_bits_equal(s, before[0])
        assert_bits_equal(x, before[1])

    def test_scatter_add(self, name, kind, num, size, seed):
        ids = random_layout_ids(kind, num, size, seed)
        rng = np.random.default_rng(seed + 40)
        x = rng.normal(size=(ids.size, 3)).astype(np.float32)
        base = rng.normal(size=(num, 3)).astype(np.float32)
        out = base.copy()
        segment_scatter_add(out, x, SegmentLayout(ids, num))
        expect = base.copy()
        for k, seg in enumerate(ids):
            expect[seg] = expect[seg] + x[k]
        np.testing.assert_array_equal(out, expect)


class TestSegmentRankOrder:
    def test_rank_by_rank_then_by_id(self):
        # ranks: [0, 0, 1, 0, 1, 2, 0] -> rank 0 holds elements 1, 3, 6, 0
        # ordered by id (0, 1, 2, 3), then rank 1, then rank 2
        ids = np.array([3, 0, 3, 1, 0, 3, 2])
        perm, sizes = segment_rank_order(ids)
        np.testing.assert_array_equal(perm, [1, 3, 6, 0, 4, 2, 5])
        np.testing.assert_array_equal(sizes, [4, 2, 1])

    def test_empty(self):
        perm, sizes = segment_rank_order(np.zeros(0, np.int64))
        assert perm.size == 0 and sizes.size == 0

    def test_lone_segment_sums_in_rank_order(self):
        # NumPy sums a lone contiguous row pairwise once it holds eight
        # or more elements; a one-node group's 1-D sums must still add
        # in rank order (about a third of these draws would differ)
        ids = np.zeros(13, np.int64)
        layout = SegmentLayout(ids, 1)
        rng = np.random.default_rng(0)
        for _ in range(50):
            s = rng.normal(size=13).astype(np.float32)
            assert_bits_equal(
                segment_sum_np(s, layout), seq_fold(s, ids, 1, np.add, 0.0)
            )
            e = np.exp(s - s.max())
            alpha = segment_softmax_np(s, layout)
            assert_bits_equal(
                alpha, e / seq_fold(e, ids, 1, np.add, 0.0)[ids]
            )

    def test_missing_segment_is_not_rank_major(self):
        # rank-major needs every segment present in rank 0
        layout = SegmentLayout(np.array([0, 1, 0]), 3)
        assert not layout.rank_major
        np.testing.assert_array_equal(
            segment_sum_np(np.ones(3, np.float32), layout), [2, 1, 0]
        )


class TestFusedGRU:
    def _data(self, n=3, din=4, d=5, seed=0):
        rng = np.random.default_rng(seed)
        return (
            rng.normal(size=(n, din)).astype(np.float32),
            rng.normal(size=(n, d)).astype(np.float32),
        )

    def test_forward_matches_reference(self):
        x_np, h_np = self._data()
        cell = GRUCell(4, 5, np.random.default_rng(7))
        out = cell(Tensor(x_np), Tensor(h_np))
        np.testing.assert_allclose(
            out.data,
            reference_gru(cell, Tensor(x_np), Tensor(h_np)),
            rtol=1e-6, atol=1e-7,
        )

    def test_gradcheck_all_inputs_and_params(self):
        mix = np.linspace(0.5, 1.5, 3 * 5).reshape(3, 5).astype(np.float32)

        def build(params):
            x, h, w_ih, w_hh, b_ih, b_hh = params
            cell = GRUCell.__new__(GRUCell)
            cell.input_size, cell.hidden_size = 4, 5
            cell.w_ih, cell.w_hh, cell.b_ih, cell.b_hh = w_ih, w_hh, b_ih, b_hh
            return (cell(x, h) * Tensor(mix)).sum()

        check_gradients(
            build,
            [(3, 4), (3, 5), (4, 15), (5, 15), (15,), (15,)],
            low=0.05, high=0.6,
        )

    def test_hidden_side_params_get_grads_when_input_side_frozen(self):
        # regression: the fused backward must not gate w_hh/b_hh grads on
        # the input-side parameters' requires_grad
        x_np, h_np = self._data()
        cell = GRUCell(4, 5, np.random.default_rng(11))
        cell.w_ih.requires_grad = False
        cell.b_ih.requires_grad = False
        cell(Tensor(x_np), Tensor(h_np)).sum().backward()
        assert cell.w_hh.grad is not None
        assert cell.b_hh.grad is not None
        assert cell.w_ih.grad is None and cell.b_ih.grad is None

    def test_saved_activations_independent_of_later_calls(self):
        # two forwards from the same cell must not share saved state
        x1, h1 = self._data(seed=1)
        x2, h2 = self._data(seed=2)
        cell = GRUCell(4, 5, np.random.default_rng(3))
        out1 = cell(Tensor(x1), Tensor(h1, requires_grad=True))
        cell(Tensor(x2), Tensor(h2))
        expect = reference_gru(cell, Tensor(x1), Tensor(h1))
        np.testing.assert_allclose(out1.data, expect, rtol=1e-6)


def _finite_difference_check(value, pairs, eps=1e-2, atol=2e-2, rtol=8e-2):
    """Central-difference check of closed-form gradients.

    ``value()`` must read each array in ``pairs`` by reference (entries
    are mutated in place); ``pairs`` is ``[(array, analytic_grad), ...]``.
    """
    for arr, grad in pairs:
        num = np.zeros_like(arr, dtype=np.float64)
        flat, nflat = arr.reshape(-1), num.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            fp = value()
            flat[i] = orig - eps
            fm = value()
            flat[i] = orig
            nflat[i] = (fp - fm) / (2 * eps)
        np.testing.assert_allclose(grad, num, atol=atol, rtol=rtol)


#: the segment structures the fused aggregator kernels are checked on:
#: duplicates, gaps (empty segments) and zero edges
AGG_CASES = [c for c in SEGMENT_CASES if c[0] != "large_fan_in"]


@pytest.mark.parametrize(
    "name,ids,num", AGG_CASES, ids=[c[0] for c in AGG_CASES]
)
class TestFusedAggregatorKernels:
    """Forward equivalence vs the composite formulation for the three
    fused non-attention aggregators (Table II), and a gradcheck of the
    conv_sum source gradient."""

    D = 3

    def _inputs(self, ids, seed):
        rng = np.random.default_rng(seed)
        h = rng.normal(size=(ids.size, self.D)).astype(np.float32)

        def mat(*shape):
            return (rng.normal(size=shape) * 0.6).astype(np.float32)

        return h, mat

    def _dm(self, num):
        return np.linspace(-1, 1, num * self.D).reshape(
            num, self.D
        ).astype(np.float32)

    # -- conv_sum -------------------------------------------------------
    def test_conv_sum(self, name, ids, num):
        layout = SegmentLayout(ids, num)
        h, mat = self._inputs(ids, seed=11)
        w, b = mat(self.D, self.D), mat(self.D)
        m, _ = conv_sum_forward_np(h, w, b, layout)
        np.testing.assert_allclose(
            m, ref_segment_sum(h @ w + b, ids, num), rtol=1e-5, atol=1e-6
        )
        dm = self._dm(num)
        dh = conv_sum_backward_np(dm, w, layout)

        def value():
            out, _ = conv_sum_forward_np(h, w, b, layout)
            return float((out.astype(np.float64) * dm).sum())

        _finite_difference_check(value, [(h, dh)])

    # -- deepset --------------------------------------------------------
    def test_deepset(self, name, ids, num):
        layout = SegmentLayout(ids, num)
        h, mat = self._inputs(ids, seed=21)
        w1, b1 = mat(self.D, self.D), mat(self.D)
        w2, b2 = mat(self.D, self.D), mat(self.D)
        wr, br = mat(self.D, self.D), mat(self.D)
        m, _ = deepset_forward_np(h, w1, b1, w2, b2, wr, br, layout)
        phi = np.maximum(h @ w1 + b1, 0.0) @ w2 + b2
        expect = ref_segment_sum(phi, ids, num) @ wr + br
        np.testing.assert_allclose(m, expect, rtol=1e-5, atol=1e-6)

    # -- gated_sum ------------------------------------------------------
    def test_gated_sum(self, name, ids, num):
        layout = SegmentLayout(ids, num)
        h, mat = self._inputs(ids, seed=31)
        wg, bg = mat(self.D, self.D), mat(self.D)
        wv, bv = mat(self.D, self.D), mat(self.D)
        m, _ = gated_sum_forward_np(h, wg, bg, wv, bv, layout)
        gate = 1.0 / (1.0 + np.exp(-(h @ wg + bg)))
        expect = ref_segment_sum(gate * (h @ wv + bv), ids, num)
        np.testing.assert_allclose(m, expect, rtol=1e-5, atol=1e-6)


class TestGRUGates:
    """``gru_gates_*``: the pass runner's per-group GRU step, given both
    pre-activations ``gi``/``gh`` (which the runner batches itself)."""

    def _data(self, n=4, d=5, seed=17):
        rng = np.random.default_rng(seed)
        return (
            rng.normal(size=(n, 3 * d)).astype(np.float32),
            rng.normal(size=(n, 3 * d)).astype(np.float32),
            rng.normal(size=(n, d)).astype(np.float32),
        )

    def _grad(self, h):
        return np.linspace(-1, 1, h.size).reshape(h.shape).astype(np.float32)

    def test_forward_matches_reference(self):
        gi, gh, h = self._data()
        d = h.shape[1]
        out, _ = gru_gates_np(gi, gh, h)
        r = 1.0 / (1.0 + np.exp(-(gi[:, :d] + gh[:, :d])))
        z = 1.0 / (1.0 + np.exp(-(gi[:, d:2 * d] + gh[:, d:2 * d])))
        n = np.tanh(gi[:, 2 * d:] + r * gh[:, 2 * d:])
        np.testing.assert_allclose(
            out, (1.0 - z) * n + z * h, rtol=1e-6, atol=1e-7
        )

    @staticmethod
    def _gates(n, strided, seed=31, d=5):
        """``gi``/``gh``/``h`` for ``n`` nodes; ``strided`` makes
        ``gi``/``gh`` every-other-column views of wider arrays, so they
        are not contiguous even for one row."""
        rng = np.random.default_rng(seed)
        step = 2 if strided else 1
        wide = [
            rng.normal(size=(n, 3 * d * step)).astype(np.float32)
            for _ in range(2)
        ]
        gi, gh = (w[:, ::step] for w in wide)
        assert gi.flags.c_contiguous != strided
        return gi, gh, rng.normal(size=(n, d)).astype(np.float32)

    @pytest.mark.parametrize("strided", [False, True])
    @pytest.mark.parametrize("n", [1, 3, 64])
    def test_bitwise_equal_to_out_of_place_op_order(self, n, strided):
        # the in-place contiguous chain must keep the bits of the
        # expression-by-expression formula it replaced
        gi, gh, h = self._gates(n, strided)
        d = h.shape[1]
        out, (r, z, cand, hn) = gru_gates_np(gi, gh, h)
        g = gi + gh
        expect_r = 1.0 / (1.0 + np.exp(-g[:, :d]))
        expect_z = 1.0 / (1.0 + np.exp(-g[:, d:2 * d]))
        expect_n = np.tanh(gi[:, 2 * d:] + expect_r * gh[:, 2 * d:])
        expect = (h - expect_n) * expect_z + expect_n
        for actual, want in (
            (out, expect), (r, expect_r), (z, expect_z), (cand, expect_n),
        ):
            assert_bits_equal(np.ascontiguousarray(actual), want)
        np.testing.assert_array_equal(hn, gh[:, 2 * d:])

    @pytest.mark.parametrize("strided", [False, True])
    @pytest.mark.parametrize("n", [1, 3, 64])
    def test_leaves_inputs(self, n, strided):
        gi, gh, h = self._gates(n, strided, seed=37)
        before = [a.copy() for a in (gi, gh, h)]
        gru_gates_np(gi, gh, h)
        for a, b in zip((gi, gh, h), before):
            assert_bits_equal(np.ascontiguousarray(a), b)

    def test_backward_matches_finite_differences(self):
        gi, gh, h = self._data(seed=23)
        grad = self._grad(h)
        _, saved = gru_gates_np(gi, gh, h)
        dgi, dgh = gru_gates_backward_np(grad, h, saved)

        def value():
            out, _ = gru_gates_np(gi, gh, h)
            return float((out.astype(np.float64) * grad).sum())

        _finite_difference_check(value, [(gi, dgi), (gh, dgh)])

    def test_out_buffers_match_fresh_allocation(self):
        # the runner lands each group's gradients in its slice of the
        # window's buffers: same bits, neighbours and saved state intact
        gi, gh, h = self._data(seed=29)
        grad = self._grad(h)
        _, saved = gru_gates_np(gi, gh, h)
        before = [a.copy() for a in saved]
        dgi, dgh = gru_gates_backward_np(grad, h, saved)
        n = len(h)
        buf_gi = np.full((n + 3, gi.shape[1]), 7.0, np.float32)
        buf_gh = np.full((n + 3, gh.shape[1]), 7.0, np.float32)
        out_gi, out_gh = gru_gates_backward_np(
            grad, h, saved, out_gi=buf_gi[2:2 + n], out_gh=buf_gh[2:2 + n]
        )
        assert np.shares_memory(out_gi, buf_gi)
        assert np.shares_memory(out_gh, buf_gh)
        np.testing.assert_array_equal(buf_gi[2:2 + n], dgi)
        np.testing.assert_array_equal(buf_gh[2:2 + n], dgh)
        for buf in (buf_gi, buf_gh):
            assert (buf[:2] == 7.0).all() and (buf[2 + n:] == 7.0).all()
        for a, b in zip(saved, before):
            np.testing.assert_array_equal(a, b)


class TestAccumulateOwnership:
    def test_repeated_accumulation_still_sums(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        g = np.full((2, 2), 3.0, dtype=np.float32)
        x._accumulate(g.copy(), own=True)
        x._accumulate(g.copy(), own=True)
        np.testing.assert_array_equal(x.grad, np.full((2, 2), 6.0))

    def test_accumulate_rows(self):
        x = Tensor(np.zeros((4, 2)), requires_grad=True)
        x._accumulate_rows(np.array([1, 3]), np.ones((2, 2), np.float32))
        x._accumulate_rows(np.array([1]), np.full((1, 2), 2.0, np.float32))
        np.testing.assert_array_equal(
            x.grad, [[0, 0], [3, 3], [0, 0], [1, 1]]
        )

    def test_non_float32_grad_still_copied(self):
        x = Tensor(np.ones(3), requires_grad=True)
        g = np.ones(3, dtype=np.float64)
        x._accumulate(g, own=True)
        assert x.grad.dtype == np.float32
        g[:] = 99.0
        np.testing.assert_array_equal(x.grad, np.ones(3))
