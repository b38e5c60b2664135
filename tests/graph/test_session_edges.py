"""Edge cases for Session, Executor scheduling, and transfer_api."""

import numpy as np
import pytest

from repro.graph import (DType, GraphBuilder, Outcome, Session, Shape)
from repro.graph.executor import ExecutorError
from repro.graph.transfer_api import NullComm
from repro.simnet import Cluster, SimulationError


class TestSessionSetup:
    def test_missing_host_mapping_rejected(self):
        cluster = Cluster(1)
        b = GraphBuilder()
        b.placeholder([1], name="x", device="worker0")
        graph = b.finalize()
        with pytest.raises(ExecutorError, match="no host mapping"):
            Session(cluster, graph, {}, comm=NullComm())

    def test_null_comm_rejects_cross_device(self):
        cluster = Cluster(2)
        b = GraphBuilder()
        w = b.variable([2], name="w", device="ps0",
                       initializer=np.zeros(2, dtype=np.float32))
        b.identity(w, name="out", device="worker0")
        session = Session(cluster, b.finalize(),
                          {"ps0": cluster.hosts[0],
                           "worker0": cluster.hosts[1]})
        with pytest.raises(Exception):
            session.run()

    def test_variable_requires_static_shape(self):
        cluster = Cluster(1)
        b = GraphBuilder()
        b.variable([None, 4], name="w", device="d")
        graph = b.finalize()
        with pytest.raises(ExecutorError, match="static shape"):
            Session(cluster, graph, {"d": cluster.hosts[0]})

    def test_value_lookup_missing(self):
        cluster = Cluster(1)
        b = GraphBuilder()
        b.constant(np.zeros(2, dtype=np.float32), name="c", device="d")
        session = Session(cluster, b.finalize(), {"d": cluster.hosts[0]})
        session.run()
        with pytest.raises(ExecutorError, match="no value"):
            session.value("nonexistent")
        with pytest.raises(ExecutorError, match="unknown variable"):
            session.variable("nope")


class TestExecutorScheduling:
    def _session(self, builder):
        cluster = Cluster(1)
        graph = builder.finalize()
        return Session(cluster, graph, {
            device: cluster.hosts[0]
            for device in {n.device or "device0" for n in graph}})

    def test_diamond_dependencies_execute_once_each(self):
        b = GraphBuilder()
        x = b.placeholder([2], name="x", device="d")
        left = b.square(x, name="left", device="d")
        right = b.relu(x, name="right", device="d")
        out = b.add(left, right, name="out", device="d")
        session = self._session(b)
        session.run(feeds={"x": np.array([2.0, -3.0], dtype=np.float32)})
        np.testing.assert_allclose(session.numpy("out"), [6.0, 9.0])
        assert session.executor_for("d").ops_executed == 4

    def test_transient_tensors_freed_between_iterations(self):
        b = GraphBuilder()
        x = b.placeholder([1024], name="x", device="d")
        b.square(x, name="y", device="d")
        session = self._session(b)
        executor = session.executor_for("d")
        feed = {"x": np.zeros(1024, dtype=np.float32)}
        session.run(iterations=5, feeds=feed)
        # Two transient tensors per iteration (feed + output); the heap
        # only holds the last iteration's.
        assert executor.heap.bytes_live <= 2 * 1024 * 4

    def test_run_stats_lengths(self):
        b = GraphBuilder()
        b.synthetic_compute(1e-4, name="op", device="d")
        session = self._session(b)
        stats = session.run(iterations=7)
        assert stats.iterations == 7
        assert len(stats.iteration_times) == 7
        assert stats.total_time == pytest.approx(
            sum(stats.iteration_times), rel=0.01)

    def test_time_limit_enforced(self):
        b = GraphBuilder()
        b.synthetic_compute(10.0, name="slow", device="d")
        cluster = Cluster(1)
        session = Session(cluster, b.finalize(), {"d": cluster.hosts[0]})
        with pytest.raises(SimulationError, match="time limit"):
            session.run(time_limit=1.0)


class TestOutcomeApi:
    def test_constructors(self):
        cluster = Cluster(1)
        sync = Outcome.done([])
        assert sync.kind == "sync"
        event = cluster.sim.event()
        asynco = Outcome.wait(event)
        assert asynco.kind == "async" and asynco.event is event
        flag = cluster.hosts[0].allocate(1).backing
        polling = Outcome.polling(poll=lambda: True,
                                  complete=lambda: Outcome.done([]),
                                  flag=(flag, 0))
        assert polling.kind == "poll" and polling.flag[0] is flag
        assert polling.poll()
