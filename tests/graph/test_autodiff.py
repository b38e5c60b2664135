"""Tests for reverse-mode autodiff: gradient graphs vs numerics."""

import numpy as np
import pytest

from repro.graph import (GraphBuilder, GraphError, Session, gradients,
                         minimize)
from repro.simnet import Cluster


def run(builder, fetches, feeds):
    cluster = Cluster(1)
    graph = builder.finalize()
    devices = {n.device or "device0" for n in graph}
    session = Session(cluster, graph,
                      {d: cluster.hosts[0] for d in devices})
    session.run(feeds=feeds)
    return [session.numpy(f.node.name, f.index) for f in fetches]


def numeric_gradient(fn, x, eps=1e-4):
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        hi = fn(x)
        x[idx] = orig - eps
        lo = fn(x)
        x[idx] = orig
        grad[idx] = (hi - lo) / (2 * eps)
        it.iternext()
    return grad


class TestAgainstNumericGradients:
    def _check(self, build_loss, x_shape, seed=0, rtol=2e-2, atol=1e-3):
        """build_loss(builder, x_output) -> scalar loss output."""
        rng = np.random.default_rng(seed)
        x_val = rng.normal(size=x_shape).astype(np.float32)

        b = GraphBuilder()
        x = b.placeholder(list(x_shape), name="x")
        loss = build_loss(b, x)
        (grad,) = gradients(b, loss, [x])
        got = run(b, [grad], {"x": x_val})[0]

        def f(values):
            b2 = GraphBuilder()
            x2 = b2.placeholder(list(x_shape), name="x")
            loss2 = build_loss(b2, x2)
            return float(run(b2, [loss2],
                             {"x": values.astype(np.float32)})[0])
        expected = numeric_gradient(f, x_val.astype(np.float64))
        np.testing.assert_allclose(got, expected, rtol=rtol, atol=atol)

    def test_sum_of_squares(self):
        self._check(lambda b, x: b.reduce_sum(b.square(x)), (3, 2))

    def test_sigmoid_chain(self):
        self._check(lambda b, x: b.reduce_sum(b.sigmoid(x)), (4,))

    def test_tanh_mean(self):
        self._check(lambda b, x: b.reduce_mean(b.tanh(x)), (5,))

    def test_matmul_loss(self):
        def build(b, x):
            w = b.constant(np.arange(6, dtype=np.float32).reshape(3, 2) / 10)
            return b.reduce_sum(b.square(b.matmul(x, w)))
        self._check(build, (2, 3))

    def test_relu_masks(self):
        self._check(lambda b, x: b.reduce_sum(b.relu(x)), (8,), atol=2e-3)

    def test_transpose_flatten_reshape(self):
        def build(b, x):
            t = b.transpose(x)
            flat = b.reshape(t, [6])
            return b.reduce_sum(b.mul(flat, flat))
        self._check(build, (2, 3))

    def test_axis_reduce(self):
        def build(b, x):
            col_sums = b.reduce_sum(x, axis=0)
            return b.reduce_sum(b.square(col_sums))
        self._check(build, (3, 4))

    def test_softmax_cross_entropy(self):
        labels_val = np.zeros((4, 3), dtype=np.float32)
        labels_val[np.arange(4), [0, 2, 1, 0]] = 1.0

        def build(b, x):
            labels = b.constant(labels_val)
            loss, _ = b.softmax_cross_entropy(x, labels)
            return loss
        self._check(build, (4, 3))


class TestMinimize:
    def test_end_to_end_training(self):
        """minimize() alone trains a two-layer network to low loss."""
        rng = np.random.default_rng(0)
        x_val = rng.normal(size=(32, 8)).astype(np.float32)
        true_w = rng.normal(size=(8, 3))
        labels_idx = (x_val @ true_w).argmax(axis=1)
        y_val = np.zeros((32, 3), dtype=np.float32)
        y_val[np.arange(32), labels_idx] = 1.0

        b = GraphBuilder()
        x = b.placeholder([32, 8], name="x")
        y = b.placeholder([32, 3], name="y")
        w1 = b.variable([8, 16], name="w1",
                        initializer=rng.normal(0, 0.4, (8, 16)))
        w2 = b.variable([16, 3], name="w2",
                        initializer=rng.normal(0, 0.4, (16, 3)))
        hidden = b.tanh(b.matmul(x, w1))
        logits = b.matmul(hidden, w2)
        loss, _ = b.softmax_cross_entropy(logits, y, name="loss")
        minimize(b, loss, lr=1.0)

        cluster = Cluster(1)
        session = Session(cluster, b.finalize(),
                          {"device0": cluster.hosts[0]})
        losses = []
        for _ in range(40):
            session.run(feeds={"x": x_val, "y": y_val})
            losses.append(float(session.numpy("loss")))
        assert losses[-1] < losses[0] * 0.35

    def test_untouched_variable_skipped(self):
        b = GraphBuilder()
        x = b.placeholder([4], name="x")
        used = b.variable([4], name="used",
                          initializer=np.ones(4, dtype=np.float32))
        b.variable([4], name="unused",
                   initializer=np.ones(4, dtype=np.float32))
        loss = b.reduce_sum(b.mul(x, used))
        updates = minimize(b, loss, lr=0.1)
        assert len(updates) == 1
        assert updates[0].node.attrs["variable"] == "used"

    def test_distributed_minimize(self):
        """Autodiff-built gradients cross servers like hand-built ones."""
        from repro.core import RdmaCommRuntime
        cluster = Cluster(2)
        rng = np.random.default_rng(3)
        b = GraphBuilder()
        x = b.placeholder([8, 4], name="x", device="worker0")
        y = b.placeholder([8, 2], name="y", device="worker0")
        w = b.variable([4, 2], name="w", device="ps0",
                       initializer=rng.normal(0, 0.3, (4, 2)))
        logits = b.matmul(x, w, device="worker0")
        loss, _ = b.softmax_cross_entropy(logits, y, name="loss",
                                          device="worker0")
        minimize(b, loss, lr=0.5)
        session = Session(cluster, b.finalize(),
                          {"ps0": cluster.hosts[0],
                           "worker0": cluster.hosts[1]},
                          comm=RdmaCommRuntime())
        x_val = rng.normal(size=(8, 4)).astype(np.float32)
        y_val = np.zeros((8, 2), dtype=np.float32)
        y_val[:, 0] = 1.0
        losses = []
        for _ in range(15):
            session.run(feeds={"x": x_val, "y": y_val})
            losses.append(float(session.numpy("loss")))
        assert losses[-1] < losses[0] * 0.5


class TestErrors:
    def test_non_scalar_loss_rejected(self):
        b = GraphBuilder()
        x = b.placeholder([4], name="x")
        with pytest.raises(GraphError, match="scalar"):
            gradients(b, b.square(x), [x])

    def test_unsupported_op_rejected(self):
        b = GraphBuilder()
        x = b.placeholder([2, 2], name="x")
        loss = b.reduce_max(x)
        with pytest.raises(GraphError, match="no gradient registered"):
            gradients(b, loss, [x])

    def test_independent_target_returns_none(self):
        b = GraphBuilder()
        x = b.placeholder([2], name="x")
        z = b.placeholder([2], name="z")
        loss = b.reduce_sum(b.square(x))
        grads = gradients(b, loss, [x, z])
        assert grads[0] is not None
        assert grads[1] is None
