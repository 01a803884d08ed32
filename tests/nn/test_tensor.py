"""Tests for the autograd Tensor: forward semantics and gradients."""

import weakref

import numpy as np
import pytest

from repro.nn import Tensor, no_grad

from .gradcheck import check_gradients


class TestForward:
    def test_add_broadcast(self):
        a = Tensor(np.ones((2, 3)))
        b = Tensor(np.arange(3))
        np.testing.assert_allclose((a + b).data, 1 + np.arange(3) * np.ones((2, 3)))

    def test_scalar_coercion(self):
        t = Tensor([1.0, 2.0])
        np.testing.assert_allclose((t + 1).data, [2, 3])
        np.testing.assert_allclose((2 * t).data, [2, 4])
        np.testing.assert_allclose((1 - t).data, [0, -1])

    def test_matmul(self):
        a = Tensor(np.eye(3))
        b = Tensor(np.arange(9).reshape(3, 3))
        np.testing.assert_allclose((a @ b).data, b.data)

    def test_reductions(self):
        t = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3))
        assert t.sum().item() == 15
        assert t.mean().item() == pytest.approx(2.5)
        np.testing.assert_allclose(t.sum(axis=0).data, [3, 5, 7])
        assert t.sum(axis=1, keepdims=True).shape == (2, 1)

    def test_elementwise_functions(self):
        x = np.array([-1.0, 0.5], dtype=np.float32)
        t = Tensor(x)
        np.testing.assert_allclose(t.abs().data, np.abs(x))
        np.testing.assert_allclose(t.exp().data, np.exp(x), rtol=1e-6)
        np.testing.assert_allclose(t.sigmoid().data, 1 / (1 + np.exp(-x)), rtol=1e-6)
        np.testing.assert_allclose(t.tanh().data, np.tanh(x), rtol=1e-6)
        np.testing.assert_allclose(t.relu().data, [0, 0.5])

    def test_reshape_transpose(self):
        t = Tensor(np.arange(6).reshape(2, 3))
        assert t.reshape(3, 2).shape == (3, 2)
        assert t.T.shape == (3, 2)

    def test_clip_probability(self):
        t = Tensor([-0.5, 0.5, 1.5])
        clipped = t.clip_probability(eps=1e-6)
        assert clipped.data[0] == pytest.approx(1e-6)
        assert clipped.data[2] == pytest.approx(1 - 1e-6)

    def test_item_and_len(self):
        assert Tensor([3.0]).item() == 3.0
        assert len(Tensor(np.zeros((4, 2)))) == 4


class TestBackwardBasics:
    def test_add_grads(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_allclose(a.grad, [1, 1])
        np.testing.assert_allclose(b.grad, [1, 1])

    def test_mul_grads(self):
        a = Tensor([2.0], requires_grad=True)
        b = Tensor([5.0], requires_grad=True)
        (a * b).backward()
        assert a.grad[0] == 5.0
        assert b.grad[0] == 2.0

    def test_broadcast_grad_sums(self):
        a = Tensor(np.ones((4, 3)), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_allclose(b.grad, [4, 4, 4])

    def test_diamond_reuse_accumulates(self):
        """x used twice: gradient must accumulate along both paths."""
        x = Tensor([3.0], requires_grad=True)
        y = x * x  # dy/dx = 2x = 6
        y.backward()
        assert x.grad[0] == pytest.approx(6.0)

    def test_deep_chain(self):
        x = Tensor([1.0], requires_grad=True)
        y = x
        for _ in range(50):
            y = y * 1.1
        y.backward()
        assert x.grad[0] == pytest.approx(1.1**50, rel=1e-3)

    def test_grad_accumulates_across_backwards(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2).backward()
        (x * 3).backward()
        assert x.grad[0] == pytest.approx(5.0)

    def test_zero_grad(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2).backward()
        x.zero_grad()
        assert x.grad is None

    def test_backward_requires_grad(self):
        with pytest.raises(RuntimeError, match="requires no grad"):
            Tensor([1.0]).backward()

    def test_backward_non_scalar_needs_grad_arg(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError, match="non-scalar"):
            (x * 2).backward()
        (x * 2).backward(np.ones(2))
        np.testing.assert_allclose(x.grad, [2, 2])

    def test_no_grad_context(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = x * 2
        assert not y.requires_grad

    def test_detach(self):
        x = Tensor([1.0], requires_grad=True)
        y = x.detach() * 2
        assert not y.requires_grad


class TestGraphFreeing:
    """``backward()`` consumes the graph it walks."""

    def test_interior_nodes_drop_grads_leaves_keep_them(self):
        x = Tensor([0.5, 1.0], requires_grad=True)
        y = x * 2.0
        z = y.exp()
        loss = z.sum()
        loss.backward()
        for node in (y, z, loss):
            assert node.grad is None
            assert node._parents == ()
        np.testing.assert_allclose(x.grad, 2.0 * np.exp(2.0 * x.data))
        # forward values stay readable
        assert loss.item() == pytest.approx(float(np.exp(2.0 * x.data).sum()))

    def test_closure_state_dies_with_the_caller_handles(self):
        x = Tensor(np.linspace(0.1, 1.0, 8), requires_grad=True)
        y = (x * 3.0).sigmoid()  # its closure captures the output array
        probe = weakref.ref(y.data)
        loss = (y * y).sum()
        del y
        loss.backward()
        # the caller still holds the root, but no longer the graph under it
        assert probe() is None
        assert x.grad is not None

    def test_second_backward_raises(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = x * 3.0
        loss = y.sum()
        loss.backward()
        with pytest.raises(RuntimeError, match="already back-propagated"):
            loss.backward()
        # so does a new graph that reaches into the consumed one
        with pytest.raises(RuntimeError, match="already back-propagated"):
            (y * 2.0).sum().backward()
        np.testing.assert_allclose(x.grad, [3.0, 3.0])


class TestGradcheck:
    """Numerical verification of each differentiable op."""

    def test_add_sub(self):
        check_gradients(lambda p: (p[0] + p[1] - p[0] * 0.3).sum(), [(3, 2), (3, 2)])

    def test_mul(self):
        check_gradients(lambda p: (p[0] * p[1]).sum(), [(4,), (4,)])

    def test_div(self):
        check_gradients(lambda p: (p[0] / p[1]).sum(), [(3,), (3,)], low=0.5)

    def test_matmul(self):
        check_gradients(lambda p: (p[0] @ p[1]).sum(), [(3, 4), (4, 2)])

    def test_pow(self):
        check_gradients(lambda p: (p[0] ** 2.0).sum(), [(5,)])

    def test_sigmoid_tanh_exp(self):
        check_gradients(lambda p: p[0].sigmoid().sum(), [(6,)])
        check_gradients(lambda p: p[0].tanh().sum(), [(6,)])
        check_gradients(lambda p: (p[0] * 0.3).exp().sum(), [(6,)])

    def test_log(self):
        # square keeps arguments positive regardless of drawn signs
        check_gradients(
            lambda p: (p[0] ** 2.0 + 0.5).log().sum(), [(5,)], low=0.5, high=2.0
        )

    def test_abs_away_from_zero(self):
        check_gradients(lambda p: p[0].abs().sum(), [(6,)], low=0.3)

    def test_relu_away_from_zero(self):
        check_gradients(lambda p: p[0].relu().sum(), [(6,)], low=0.3)

    def test_mean_axis(self):
        check_gradients(lambda p: p[0].mean(axis=1).sum(), [(3, 4)])

    def test_sum_keepdims(self):
        check_gradients(
            lambda p: (p[0].sum(axis=0, keepdims=True) * p[0]).sum(), [(3, 4)]
        )

    def test_reshape_transpose(self):
        check_gradients(lambda p: (p[0].reshape(6).T * 2).sum(), [(2, 3)])

    def test_composite_expression(self):
        check_gradients(
            lambda p: ((p[0] @ p[1]).tanh() * p[2]).sigmoid().mean(),
            [(3, 4), (4, 3), (3, 3)],
        )
