"""Focused tests for the polling-async execution mode (paper §4).

Uses a scripted CommRuntime whose recv outcomes poll under test
control, verifying the scheduler behaviour the paper specifies: a
poll-miss re-enqueues the operator at the *tail* of the ready queue
(other ready work runs first), poll hits complete the op, and an
executor with only pollers left advances time with bounded back-off
instead of spinning.
"""

import numpy as np
import pytest

from repro.graph import GraphBuilder, Outcome, Session
from repro.graph.transfer_api import CommRuntime
from repro.simnet import Cluster, SimulationError


class ScriptedComm(CommRuntime):
    """Recv polls succeed once the simulated clock passes a deadline."""

    name = "scripted"

    def __init__(self, ready_at: float) -> None:
        self.ready_at = ready_at
        self.poll_calls = 0
        self.send_log = []
        self._session = None
        self._tensors = {}

    def prepare(self, session) -> None:
        self._session = session

    def execute_send(self, executor, node, tensor):
        self.send_log.append((executor.sim.now, node.attrs["key"]))
        self._tensors[node.attrs["key"]] = tensor
        return Outcome.done([])

    def execute_recv(self, executor, node):
        key = node.attrs["key"]
        sim = executor.sim

        def poll() -> bool:
            self.poll_calls += 1
            return sim.now >= self.ready_at and key in self._tensors

        def complete() -> Outcome:
            return Outcome.done([self._tensors[key]])
        return Outcome.polling(poll=poll, complete=complete)


def build_session(comm, extra_work: float = 0.0):
    """x (worker) -> sink (ps), plus optional local busywork."""
    cluster = Cluster(2)
    b = GraphBuilder()
    x = b.placeholder([4], name="x", device="worker0")
    b.identity(x, name="out", device="ps0")
    if extra_work:
        b.synthetic_compute(extra_work, name="busy", device="ps0")
    session = Session(cluster, b.finalize(),
                      {"worker0": cluster.hosts[0],
                       "ps0": cluster.hosts[1]}, comm=comm)
    return cluster, session


class TestPollingAsync:
    def test_poll_misses_then_completes(self):
        comm = ScriptedComm(ready_at=0.001)
        cluster, session = build_session(comm)
        session.run(feeds={"x": np.arange(4, dtype=np.float32)})
        assert comm.poll_calls > 1          # missed at least once
        assert cluster.sim.now >= 0.001     # completed only after ready
        np.testing.assert_allclose(session.numpy("out"),
                                   [0, 1, 2, 3])

    def test_other_ready_work_runs_during_polling(self):
        """The §4 property: a polling op must not block ready ops."""
        comm = ScriptedComm(ready_at=0.010)
        cluster, session = build_session(comm, extra_work=0.002)
        executor = session.executor_for("ps0")
        done_times = {}

        original = executor._execute

        def traced(node, feeds):
            result = yield from original(node, feeds)
            done_times[node.name] = executor.sim.now
            return result
        executor._execute = traced
        session.run(feeds={"x": np.zeros(4, dtype=np.float32)})
        # The busywork finished long before the recv became ready.
        assert done_times["busy"] < 0.005

    def test_idle_backoff_bounds_event_count(self):
        """Waiting 50 ms on a single poller must not poll millions of
        times: the exponential back-off caps the sweep rate."""
        comm = ScriptedComm(ready_at=0.050)
        cluster, session = build_session(comm)
        session.run(feeds={"x": np.zeros(4, dtype=np.float32)})
        assert comm.poll_calls < 500

    def test_executor_poll_miss_counter(self):
        comm = ScriptedComm(ready_at=0.002)
        cluster, session = build_session(comm)
        executor = session.executor_for("ps0")
        session.run(feeds={"x": np.zeros(4, dtype=np.float32)})
        assert executor.poll_misses == comm.poll_calls - 1

    def test_immediate_readiness_needs_no_backoff(self):
        comm = ScriptedComm(ready_at=0.0)
        cluster, session = build_session(comm)
        executor = session.executor_for("ps0")
        session.run(feeds={"x": np.zeros(4, dtype=np.float32)})
        # At most a couple of misses while the producer's send lands;
        # no long back-off spinning.
        assert executor.poll_misses <= 2

    def test_multiple_iterations_reuse_polling(self):
        comm = ScriptedComm(ready_at=0.0)
        cluster, session = build_session(comm)
        session.run(iterations=3,
                    feeds={"x": np.zeros(4, dtype=np.float32)})
        assert len(comm.send_log) == 3

    def test_poll_that_raises_fails_the_run(self):
        """The flag read runs in a heap callback; its exception must
        still fail the executor's process — and so the run — instead of
        escaping through the event loop."""
        class BrokenFlag(ScriptedComm):
            def execute_recv(self, executor, node):
                def poll() -> bool:
                    self.poll_calls += 1
                    if self.poll_calls == 3:
                        raise KeyError("flag region unmapped")
                    return False
                return Outcome.polling(poll=poll, complete=None)

        comm = BrokenFlag(ready_at=0.0)
        cluster, session = build_session(comm)
        executor = session.executor_for("ps0")
        with pytest.raises(KeyError, match="flag region unmapped"):
            session.run(feeds={"x": np.zeros(4, dtype=np.float32)})
        assert (comm.poll_calls, executor.poll_misses) == (3, 2)

    def test_wait_nobody_triggers_is_a_deadlock_naming_the_iteration(self):
        class NeverArrives(ScriptedComm):
            def execute_recv(self, executor, node):
                return Outcome.wait(executor.sim.event())

        cluster, session = build_session(NeverArrives(ready_at=0.0))
        with pytest.raises(SimulationError,
                           match="deadlock.*in iteration 0"):
            session.run(feeds={"x": np.zeros(4, dtype=np.float32)})


class SweepComm(ScriptedComm):
    """Pollers ``a`` and ``b`` never hit before ``ready_at``; the recv of
    ``c`` is asynchronous and completes when ``a`` is polled the third
    time — mid-sweep, with ``a`` in flight and ``b`` queued."""

    def __init__(self, ready_at: float) -> None:
        super().__init__(ready_at)
        self.log = []
        self.hits = 0
        self._arrived = self._c_key = None

    def execute_recv(self, executor, node):
        key = node.attrs["key"]
        source = key[0]  # keys start with the producer's name: a, b, c
        if source == "c":
            self._arrived, self._c_key = executor.sim.event(), key
            return Outcome.wait(self._arrived)
        outcome = super().execute_recv(executor, node)

        def poll() -> bool:
            self.log.append(f"poll:{source}")
            if source == "a" and self.log.count("poll:a") == 3:
                self._arrived.succeed([self._tensors[self._c_key]])
            hit = outcome.poll()
            self.hits += hit
            return hit
        return Outcome.polling(poll=poll, complete=outcome.complete)


class TestSweepOrder:
    def _run(self, ready_at=0.004):
        comm = SweepComm(ready_at)
        cluster = Cluster(2)
        b = GraphBuilder()
        for name in "abc":
            x = b.placeholder([4], name=name, device="worker0")
            b.identity(x, name=f"out_{name}", device="ps0")
        b.synthetic_compute(0.001, inputs=[b.graph.node("out_c").output(0)],
                            name="busy", device="ps0")
        session = Session(cluster, b.finalize(),
                          {"worker0": cluster.hosts[0],
                           "ps0": cluster.hosts[1]}, comm=comm)
        executor = session.executor_for("ps0")
        original = executor._execute

        def logged(node, feeds):
            comm.log.append(f"run:{node.name}")
            return (yield from original(node, feeds))
        executor._execute = logged
        feed = np.zeros(4, dtype=np.float32)
        session.run(feeds={name: feed for name in "abc"})
        return comm, executor

    def test_fresh_node_appended_mid_sweep_waits_its_turn(self):
        """`finish()` appends the dependent of an async completion at
        the tail while the pollers are being swept: it runs after the
        poller queued ahead of it, before any poller is visited again,
        and the sweep then resumes in queue order."""
        comm, _ = self._run()
        log = comm.log
        arrival = [i for i, entry in enumerate(log)
                   if entry == "poll:a"][2]
        assert log[arrival:arrival + 7] == [
            "poll:a",            # c arrives; a is in flight, b queued
            "poll:b",            # queued ahead of the fresh node
            "run:out_c",         # popped by the requeue of b's miss
            "poll:a", "poll:b",  # out_c made busy ready: behind both
            "run:busy",
            "poll:a"]

    def test_miss_counter_with_two_pollers(self):
        comm, executor = self._run()
        polls = sum(entry.startswith("poll:") for entry in comm.log)
        assert comm.hits == 2
        assert executor.poll_misses == polls - comm.hits
        assert executor.ops_executed == len(executor.graph)
