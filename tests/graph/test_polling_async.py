"""Focused tests for the polling-async execution mode (paper §4).

Uses a scripted CommRuntime whose recv outcomes poll a flag byte the
matching send lands — written and announced to the host, as the NIC's
final-chunk commit does — verifying the scheduler behaviour the paper
specifies: a poll-miss re-enqueues the operator at the *tail* of the
ready queue (other ready work runs first), poll hits complete the op,
and an executor with only pollers left advances time with bounded
back-off instead of spinning.  What is asserted is what a run shows:
when an op hit or ran, in which order, and the executor's miss count.
"""

import re

import numpy as np
import pytest

from repro.graph import GraphBuilder, Outcome, Session
from repro.graph.executor import _IDLE_BACKOFF_MAX, ExecutorError
from repro.graph.transfer_api import CommRuntime
from repro.simnet import Cluster, SimulationError


class ScriptedComm(CommRuntime):
    """Every recv polls a flag byte of its own on the receiving host; the
    matching send lands it at ``ready_at``, or at once if it runs later.
    Landing writes the byte and notifies the host, so ``poll`` is the
    pure read ``Outcome.polling`` asks for."""

    name = "scripted"

    def __init__(self, ready_at: float) -> None:
        self.ready_at = ready_at
        self.send_log = []
        #: (key, simulated time) of every completed recv, in order
        self.hits = []
        self._tensors = {}
        self._flags = {}

    def prepare(self, session) -> None:
        for executor in session.executors.values():
            for node in executor.graph.nodes_of_type("_Recv"):
                flag = executor.host.allocate(1)
                self._flags[node.attrs["key"]] = (executor.host, flag.backing)

    def land(self, key: str) -> None:
        host, backing = self._flags[key]
        backing.write(0, b"\x01")
        host.notify_memory_commit(backing, 0, 1)

    def execute_send(self, executor, node, tensor):
        key = node.attrs["key"]
        sim = executor.sim
        self.send_log.append((sim.now, key))
        self._tensors[key] = tensor
        sim.call_at(max(sim.now, self.ready_at), lambda: self.land(key))
        return Outcome.done([])

    def execute_recv(self, executor, node):
        key = node.attrs["key"]
        _, backing = self._flags[key]
        sim = executor.sim

        def poll() -> bool:
            return backing.read_byte(0) == 1

        def complete() -> Outcome:
            backing.write(0, b"\x00")
            self.hits.append((key, sim.now))
            return Outcome.done([self._tensors[key]])
        return Outcome.polling(poll=poll, complete=complete,
                               flag=(backing, 0))


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


def count_parks(executor):
    """Count the executor's idle-backoff parks (a whole sweep missed),
    by the time each one began."""
    parks = []
    executor._parked = parks.append
    return parks


def visit(cost, t0):
    """(check, requeue) times of a poll visit that starts at ``t0``."""
    check = t0 + cost.sched_dispatch + cost.poll_check
    return check, check + cost.poll_requeue


class TestPollingAsync:
    def test_poll_misses_then_completes(self):
        comm = ScriptedComm(ready_at=0.001)
        cluster, session = build_session(comm)
        executor = session.executor_for("ps0")
        session.run(feeds={"x": np.arange(4, dtype=np.float32)})
        assert executor.poll_misses > 0     # missed at least once
        (_, hit_at), = comm.hits
        assert hit_at >= 0.001              # completed only after ready
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
        times: the exponential back-off caps the sweep rate, and a park
        that times out is one heap entry, where it ends."""
        comm = ScriptedComm(ready_at=0.050)
        cluster, session = build_session(comm)
        executor = session.executor_for("ps0")
        session.run(feeds={"x": np.zeros(4, dtype=np.float32)})
        assert executor.poll_misses < 500
        # 107 parks: 106 time out (one entry each) and the landing wakes
        # the last (two hops; its own entry is still queued at the end);
        # then the hit (one) and the 11 entries a run with no poller
        # makes.  While a park waited on a Timeout and an AnyOf: 333.
        assert cluster.sim.event_count == 106 + 2 + 1 + 11

    def test_executor_poll_miss_counter(self):
        """A lone poller's every miss is a whole sweep, so each one
        parks; the commit wakes the park and the next visit hits."""
        comm = ScriptedComm(ready_at=0.002)
        cluster, session = build_session(comm)
        executor = session.executor_for("ps0")
        parks = count_parks(executor)
        session.run(feeds={"x": np.zeros(4, dtype=np.float32)})
        assert executor.poll_misses == len(parks) > 0
        assert parks[-1] < 0.002
        (_, hit_at), = comm.hits
        assert hit_at == visit(cluster.cost, 0.002)[0]

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
        assert len(comm.hits) == 3

    def test_poll_that_raises_fails_the_run(self):
        """The flag read runs in a heap callback; its exception must
        still fail the executor's process — and so the run — instead of
        escaping through the event loop.  It raises at the first visit
        after the commit that unmapped the flag."""
        class BrokenFlag(ScriptedComm):
            unmapped = False

            def execute_recv(self, executor, node):
                outcome = super().execute_recv(executor, node)
                key = node.attrs["key"]
                host, backing = self._flags[key]

                def unmap() -> None:
                    self.unmapped = True
                    host.notify_memory_commit(backing, 0, 1)
                executor.sim.call_at(0.001, unmap)

                def poll() -> bool:
                    if self.unmapped:
                        raise KeyError("flag region unmapped")
                    return outcome.poll()
                return Outcome.polling(poll=poll, complete=outcome.complete,
                                       flag=outcome.flag)

        comm = BrokenFlag(ready_at=1.0)
        cluster, session = build_session(comm)
        executor = session.executor_for("ps0")
        parks = count_parks(executor)
        with pytest.raises(KeyError, match="flag region unmapped"):
            session.run(feeds={"x": np.zeros(4, dtype=np.float32)})
        assert cluster.sim.now == visit(cluster.cost, 0.001)[0]
        assert executor.poll_misses == len(parks) > 0
        assert comm.hits == []

    def test_a_planned_hit_that_reads_as_a_miss_fails_the_run(self):
        """A flag cleared behind the executor's back, with no commit to
        announce it, breaks the contract the elided misses rest on: the
        visit planned as a hit fails the run instead of missing."""
        comm = ScriptedComm(ready_at=0.001)
        cluster, session = build_session(comm)
        key, = comm._flags
        _, backing = comm._flags[key]
        cluster.sim.call_at(0.001 + cluster.cost.sched_dispatch,
                            lambda: backing.write(0, b"\x00"))
        with pytest.raises(ExecutorError, match="planned as a hit"):
            session.run(feeds={"x": np.zeros(4, dtype=np.float32)})

    def test_a_flag_set_without_a_commit_fails_the_run(self):
        """The other way to break the contract: a flag written with no
        commit to announce it.  Once the idle backoff is at its cap, each
        park that times out reads a queued flag again, so the next one
        fails the run, naming the poller, instead of parking until the
        landing a second later."""
        comm = ScriptedComm(ready_at=1.0)
        cluster, session = build_session(comm)
        executor = session.executor_for("ps0")
        recv, = executor.graph.nodes_of_type("_Recv")
        _, backing = comm._flags[recv.attrs["key"]]
        cluster.sim.call_at(0.001, lambda: backing.write(0, b"\x01"))
        with pytest.raises(ExecutorError,
                           match=f"poll of {re.escape(recv.name)} changed "
                                 f"with no memory commit"):
            session.run(feeds={"x": np.zeros(4, dtype=np.float32)})
        assert 0.001 < cluster.sim.now <= 0.001 + _IDLE_BACKOFF_MAX
        assert comm.hits == []

    def test_wait_nobody_triggers_is_a_deadlock_naming_the_iteration(self):
        class NeverArrives(ScriptedComm):
            def execute_recv(self, executor, node):
                return Outcome.wait(executor.sim.event())

        cluster, session = build_session(NeverArrives(ready_at=0.0))
        with pytest.raises(SimulationError,
                           match="deadlock.*in iteration 0"):
            session.run(feeds={"x": np.zeros(4, dtype=np.float32)})


class SweepComm(ScriptedComm):
    """Pollers ``a`` and ``b`` land at ``ready_at``; the recv of ``c`` is
    asynchronous and completes in the middle of the first sweep — after
    ``a``'s flag check and before its requeue, with ``b`` queued."""

    def execute_recv(self, executor, node):
        key = node.attrs["key"]
        if key[0] != "c":  # keys start with the producer's name
            return super().execute_recv(executor, node)
        sim, cost = executor.sim, executor.cost
        # the sweep of a and b starts now: nothing else is runnable
        self.sweep_start = sim.now
        check, requeue = visit(cost, sim.now)
        tensor = executor.allocate_output(node, 0, node.attrs["dtype"],
                                          node.attrs["shape"])
        arrived = sim.event()
        sim.call_at(check + (requeue - check) / 2,
                    lambda: arrived.succeed([tensor]))
        return Outcome.wait(arrived)


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
        runs = {}

        def logged(node, feeds):
            start = executor.sim.now
            result = yield from original(node, feeds)
            runs[node.name] = (start, executor.sim.now)
            return result
        executor._execute = logged
        parks = count_parks(executor)
        feed = np.zeros(4, dtype=np.float32)
        session.run(feeds={name: feed for name in "abc"})
        return comm, executor, runs, parks

    def test_fresh_node_appended_mid_sweep_waits_its_turn(self):
        """`finish()` appends the dependent of an async completion at
        the tail while the pollers are being swept: it runs after the
        poller queued ahead of it, before any poller is visited again;
        the node it makes ready runs after both pollers' next visits."""
        comm, executor, runs, parks = self._run()
        cost = executor.cost
        _, a_requeue = visit(cost, comm.sweep_start)
        _, b_requeue = visit(cost, a_requeue)      # pops out_c
        assert runs["out_c"][0] == b_requeue + cost.sched_dispatch
        _, a_requeue = visit(cost, runs["out_c"][1])
        _, b_requeue = visit(cost, a_requeue)      # pops busy
        assert runs["busy"][0] == b_requeue + cost.sched_dispatch
        assert not parks or parks[0] > runs["busy"][1]

    def test_miss_counter_with_two_pollers(self):
        """Every visit before the flags land misses: two per sweep that
        ends in a fresh node, then one — the misses since the last hit
        or wake-up already fill a sweep, so the executor parks after
        ``a`` alone — and two per later park, ``b`` first.  After the
        landing both pollers hit at their first visits."""
        comm, executor, runs, parks = self._run()
        assert executor.poll_misses == 2 * 2 + 1 + 2 * (len(parks) - 1)
        assert parks[0] == visit(executor.cost, runs["busy"][1])[1]
        b_hit = visit(executor.cost, 0.004)[0]
        assert comm.hits == [("b:0->ps0", b_hit),
                             ("a:0->ps0", visit(executor.cost, b_hit)[0])]
        assert executor.ops_executed == len(executor.graph)


class LostWakeComm(ScriptedComm):
    """Pollers ``a`` and ``b``, nothing else runnable: ``b`` lands at
    ``ready_at``; ``a`` lands, with a notifying commit, inside the first
    sweep — after ``a``'s flag check and before ``b``'s."""

    def execute_send(self, executor, node, tensor):
        key = node.attrs["key"]
        if key[0] != "a":  # keys start with the producer's name
            return super().execute_send(executor, node, tensor)
        self._tensors[key] = tensor  # landed by execute_recv's schedule
        return Outcome.done([])

    def execute_recv(self, executor, node):
        outcome = super().execute_recv(executor, node)
        if node.attrs["key"][0] == "b":
            # b is the last poller queued: the sweep a, b starts now
            sim = executor.sim
            self.sweep_start = sim.now
            a_check, a_requeue = visit(executor.cost, sim.now)
            a_key, = (key for key in self._flags if key[0] == "a")
            sim.call_at((a_check + a_requeue) / 2,
                        lambda: self.land(a_key))
        return outcome


class TestLostWake:
    @pytest.mark.xfail(strict=True, reason=(
        "lost wake: a commit that lands mid-sweep does not stop the park "
        "that ends the sweep, and the park waits out its idle backoff"))
    def test_a_flag_landing_mid_sweep_hits_at_the_next_visit(self):
        """``a`` is already hot when ``b``'s requeue closes the sweep, so
        the executor must visit ``a`` next and hit.  Today it parks: the
        park test counts a whole sweep of misses without asking whether
        a poller turned hot meanwhile, and the commit's ``_wake_up()``
        found no untriggered ``_wake`` to end that park — so ``a`` hits
        one idle backoff later."""
        comm = LostWakeComm(ready_at=0.004)
        cluster = Cluster(2)
        b = GraphBuilder()
        # ps0 computes first, so both sends have run when the sweep starts
        b.synthetic_compute(0.001, name="busy", device="ps0")
        for name in "ab":
            x = b.placeholder([4], name=name, device="worker0")
            b.identity(x, name=f"out_{name}", device="ps0")
        session = Session(cluster, b.finalize(),
                          {"worker0": cluster.hosts[0],
                           "ps0": cluster.hosts[1]}, comm=comm)
        feed = np.zeros(4, dtype=np.float32)
        session.run(feeds={name: feed for name in "ab"})
        cost = cluster.cost
        _, a_requeue = visit(cost, comm.sweep_start)
        _, b_requeue = visit(cost, a_requeue)
        a_hit = dict(comm.hits)["a:0->ps0"]
        assert a_hit == visit(cost, b_requeue)[0]
