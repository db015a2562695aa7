import weakref

import numpy as np
import pytest

from warpadapt import autograd as ag
from warpadapt import kernels as K
from warpadapt.autograd import Tensor, backward, concat, grad_check, no_grad, split, topo_order
from warpadapt.errors import ShapeError, UsageError


def make_tensor(shape, values, requires_grad=False):
    """Float32 leaf tensor from a flat list of values in row-major order."""
    return Tensor(np.asarray(values, dtype=np.float32).reshape(shape), requires_grad=requires_grad)


def rand(shape, seed=0, lo=-2.0, hi=2.0, dtype=np.float32):
    rng = np.random.default_rng(seed)
    return Tensor(rng.uniform(lo, hi, size=shape).astype(dtype))


class TestMakeTensor:
    def test_rank_enforced(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((2, 3, 4)))


class TestBackward:
    def test_mean_of_square(self):
        x = make_tensor((1, 1, 1, 1), [3.0], requires_grad=True)
        loss = ag.mul(x, x).mean()
        backward(loss)
        assert np.allclose(x.grad, [[[[6.0]]]])

    def test_linear_disjoint_leaves(self):
        x = make_tensor((1, 1, 2, 2), [1, 2, 3, 4], requires_grad=True)
        y = make_tensor((1, 1, 2, 2), [5, 6, 7, 8], requires_grad=True)
        loss = ag.add(x, y).sum()
        backward(loss)
        assert np.all(x.grad == 1.0)
        assert np.all(y.grad == 1.0)

    def test_two_branch_accumulation(self):
        x = make_tensor((1, 1, 1, 1), [2.0], requires_grad=True)
        loss = ag.add(ag.mul(x, x), ag.mul_scalar(x, 3.0)).sum()
        backward(loss)
        # d/dx (x^2 + 3x) = 2x + 3
        assert np.allclose(x.grad, [[[[7.0]]]])

    def test_non_scalar_loss_rejected(self):
        x = make_tensor((1, 1, 2, 2), [1, 2, 3, 4], requires_grad=True)
        with pytest.raises(UsageError):
            backward(ag.mul(x, x))

    def test_each_node_visited_once(self):
        x = make_tensor((1, 1, 1, 1), [1.5], requires_grad=True)
        a = ag.mul(x, x)
        b = ag.add(a, a)   # diamond: a consumed twice
        c = ag.add(b, a)
        loss = c.mean()
        order = topo_order(loss)
        assert len(order) == len({id(n) for n in order})
        backward(loss)
        # d/dx 3x^2 = 6x
        assert np.allclose(x.grad, [[[[9.0]]]])

    def test_shared_grad_buffers_not_aliased(self):
        x = make_tensor((1, 1, 1, 1), [1.0], requires_grad=True)
        y = make_tensor((1, 1, 1, 1), [2.0], requires_grad=True)
        s = ag.add(x, y)
        loss = ag.add(ag.mul(s, s), ag.mul(x, x)).sum()
        backward(loss)
        # d/dx (x+y)^2 + x^2 = 2(x+y) + 2x = 8; d/dy = 2(x+y) = 6
        assert np.allclose(x.grad, 8.0)
        assert np.allclose(y.grad, 6.0)


def retained_backward(loss):
    """The walk that keeps the graph: the reference for the releasing one."""
    order = topo_order(loss)
    loss.grad = np.ones(loss.shape, dtype=loss.dtype)
    for node in reversed(order):
        if node.grad is None:
            continue
        for parent, pg in zip(node._parents, node._backward(node.grad)):
            if pg is None or not parent.requires_grad:
                continue
            if parent.grad is None:
                parent.grad = np.array(pg, dtype=parent.dtype, copy=True)
            else:
                parent.grad += pg


def layer_loss(x, w, b):
    """A LeakyReLU conv layer, a diamond, a split and a concat: one scalar."""
    h = K.conv2d(x, w, b, stride=2, slope=0.1)
    top, bottom = split(ag.mul(h, h), 2)
    return ag.add(concat([bottom, top], axis=0), h).mean()


def layer_leaves():
    rng = np.random.default_rng(5)
    return [Tensor(rng.normal(size=shape).astype(np.float32), requires_grad=True)
            for shape in ((2, 3, 8, 8), (4, 3, 3, 3), (1, 4, 1, 1))]


class TestRelease:
    """``backward`` frees the graph as it walks it, and refuses a graph it
    has walked."""

    def test_second_backward_refused(self):
        x = make_tensor((1, 1, 1, 1), [3.0], requires_grad=True)
        loss = ag.mul(x, x).mean()
        backward(loss)
        with pytest.raises(UsageError, match="already walked"):
            backward(loss)
        assert np.array_equal(x.grad, [[[[6.0]]]])

    def test_loss_on_a_walked_interior_refused(self):
        x = make_tensor((1, 1, 1, 1), [3.0], requires_grad=True)
        sq = ag.mul(x, x)
        backward(sq.mean())
        with pytest.raises(UsageError, match="already walked"):
            backward(ag.mul_scalar(sq, 2.0).mean())

    def test_leaves_stay_reusable(self):
        x = make_tensor((1, 1, 1, 1), [3.0], requires_grad=True)
        backward(ag.mul(x, x).mean())
        backward(ag.mul_scalar(x, 2.0).mean())
        assert np.array_equal(x.grad, [[[[8.0]]]])

    def test_interior_activation_freed(self):
        def build(x):
            sq = ag.mul(x, x)
            return ag.mul(sq, sq).mean(), weakref.ref(sq.data)

        x = make_tensor((1, 1, 2, 2), [1, 2, 3, 4], requires_grad=True)
        loss, activation = build(x)
        assert activation() is not None
        backward(loss)
        assert activation() is None
        assert loss.item() == 88.5

    def test_activation_freed_once_its_last_child_is_walked(self):
        x = make_tensor((1, 1, 2, 2), [1, 2, 3, 4], requires_grad=True)
        first = ag.mul(x, x)
        second = ag.mul(first, first)
        activation = weakref.ref(second.data)
        loss = second.mean()
        del second
        seen = []
        walk_first = first._backward
        first._backward = lambda g: (seen.append(activation()), walk_first(g))[1]
        backward(loss)
        assert seen == [None]

    def test_leaf_gradients_match_the_retained_walk(self):
        released, retained = layer_leaves(), layer_leaves()
        backward(layer_loss(*released))
        retained_backward(layer_loss(*retained))
        for a, b in zip(released, retained):
            assert a.grad.dtype == b.grad.dtype
            assert np.array_equal(a.grad, b.grad)

    def test_grad_check_matches_the_retained_walk(self, monkeypatch):
        x, w, b = layer_leaves()

        def f(t):
            return layer_loss(t, w, b)

        err = grad_check(f, x)
        assert err < 1e-6
        monkeypatch.setattr(ag, "backward", retained_backward)
        assert grad_check(f, x) == err


class TestNoGrad:
    def test_no_graph_recorded(self):
        x = make_tensor((1, 1, 1, 1), [2.0], requires_grad=True)
        with no_grad():
            y = ag.mul(x, x)
        assert not y.requires_grad
        assert y._parents == ()

    def test_detach(self):
        x = make_tensor((1, 1, 1, 1), [2.0], requires_grad=True)
        y = ag.mul(x, x).detach()
        assert not y.requires_grad
        assert y.item() == 4.0


class TestGradCheck:
    def test_sum_is_exact(self):
        # linear function: no truncation error, only float rounding remains
        x = rand((1, 2, 3, 4), seed=1)
        assert grad_check(lambda t: t.sum(), x, step=1e-3) < 1e-9

    def test_product_chain(self):
        x = rand((1, 2, 3, 4), seed=2)
        err = grad_check(lambda t: ag.mul(t, t).mean(), x, step=1e-3)
        assert err < 1e-8


class TestBroadcast:
    def test_scalar_broadcast_binary(self):
        x = rand((1, 2, 3, 4), seed=4)
        m = x.mean()
        centered = ag.sub(x, m)
        assert centered.shape == x.shape
        err = grad_check(lambda t: ag.mul(ag.sub(t, t.mean()), ag.sub(t, t.mean())).mean(), x)
        assert err < 1e-6

    def test_incompatible_shapes(self):
        with pytest.raises(ShapeError):
            ag.add(rand((1, 2, 3, 4)), rand((1, 2, 4, 3)))


class TestSplit:
    def test_undoes_batch_concat(self):
        a, b, c = rand((1, 2, 3, 4), seed=1), rand((1, 2, 3, 4), seed=2), rand((1, 2, 3, 4), seed=3)
        pieces = split(concat([a, b, c], axis=0), 3)
        assert all(np.array_equal(p.data, t.data) for p, t in zip(pieces, (a, b, c)))

    def test_backward_fills_other_pieces_with_zero(self):
        x = rand((2, 1, 2, 2), seed=4)
        x.requires_grad = True
        backward(split(x, 2)[1].sum())
        assert np.array_equal(x.grad, np.concatenate([np.zeros((1, 1, 2, 2)), np.ones((1, 1, 2, 2))]))

    def test_uneven_parts_rejected(self):
        with pytest.raises(ShapeError):
            split(rand((3, 1, 2, 2)), 2)
