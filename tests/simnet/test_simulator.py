"""Unit tests for the discrete-event simulation engine."""

import pytest

from repro.simnet.simulator import (
    SUSPEND, AllOf, AnyOf, Event, Interrupt, Resource, SimulationError,
    Simulator, Store, Timeout)


@pytest.fixture
def sim():
    return Simulator()


class TestClockAndTimeouts:
    def test_clock_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_timeout_advances_clock(self, sim):
        done = []

        def proc():
            yield sim.timeout(1.5)
            done.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert done == [1.5]

    def test_timeouts_fire_in_order(self, sim):
        order = []

        def proc(delay, tag):
            yield sim.timeout(delay)
            order.append(tag)

        sim.spawn(proc(3.0, "c"))
        sim.spawn(proc(1.0, "a"))
        sim.spawn(proc(2.0, "b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_equal_timestamps_fifo(self, sim):
        order = []

        def proc(tag):
            yield sim.timeout(1.0)
            order.append(tag)

        for tag in range(5):
            sim.spawn(proc(tag))
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_zero_delay_timeout_runs_at_same_time(self, sim):
        times = []

        def proc():
            yield sim.timeout(0)
            times.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert times == [0.0]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.timeout(-1)

    def test_run_until_stops_clock_at_until(self, sim):
        def proc():
            yield sim.timeout(10)

        sim.spawn(proc())
        sim.run(until=5.0)
        assert sim.now == 5.0

    def test_timeout_carries_value(self, sim):
        got = []

        def proc():
            value = yield sim.timeout(1, value="payload")
            got.append(value)

        sim.spawn(proc())
        sim.run()
        assert got == ["payload"]


class TestEvents:
    def test_event_value_before_trigger_raises(self, sim):
        event = sim.event()
        with pytest.raises(SimulationError):
            _ = event.value

    def test_succeed_wakes_waiter_with_value(self, sim):
        event = sim.event()
        got = []

        def waiter():
            value = yield event
            got.append((sim.now, value))

        def trigger():
            yield sim.timeout(2)
            event.succeed(42)

        sim.spawn(waiter())
        sim.spawn(trigger())
        sim.run()
        assert got == [(2.0, 42)]

    def test_double_succeed_raises(self, sim):
        event = sim.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_fail_throws_into_waiter(self, sim):
        event = sim.event()
        caught = []

        def waiter():
            try:
                yield event
            except ValueError as exc:
                caught.append(str(exc))

        sim.spawn(waiter())
        sim.call_after(1, lambda: event.fail(ValueError("boom")))
        sim.run()
        assert caught == ["boom"]

    def test_fail_requires_exception_instance(self, sim):
        event = sim.event()
        with pytest.raises(TypeError):
            event.fail("not an exception")

    def test_callback_after_processed_still_fires(self, sim):
        event = sim.event()
        event.succeed(7)
        sim.run()
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        sim.run()
        assert seen == [7]

    def test_yield_already_triggered_event(self, sim):
        event = sim.event()
        event.succeed("x")
        got = []

        def proc():
            value = yield event
            got.append((sim.now, value))

        sim.spawn(proc())
        sim.run()
        assert got == [(0.0, "x")]


class TestProcesses:
    def test_process_return_value(self, sim):
        def child():
            yield sim.timeout(1)
            return "result"

        def parent(results):
            value = yield sim.spawn(child())
            results.append(value)

        results = []
        sim.spawn(parent(results))
        sim.run()
        assert results == ["result"]

    def test_yield_from_composes(self, sim):
        def inner():
            yield sim.timeout(1)
            return 10

        def outer(out):
            value = yield from inner()
            yield sim.timeout(1)
            out.append((sim.now, value))

        out = []
        sim.spawn(outer(out))
        sim.run()
        assert out == [(2.0, 10)]

    def test_yield_non_event_fails_process(self, sim):
        def bad():
            yield "not an event"

        proc = sim.spawn(bad())
        sim.run()
        assert proc.triggered
        with pytest.raises(SimulationError):
            _ = proc.value

    def test_yield_bare_delay_is_a_timeout(self, sim):
        """``yield 1.5`` is the allocation-free form of ``yield sim.timeout(1.5)``."""
        out = []

        def proc():
            yield 1.5
            out.append(sim.now)
            yield 2       # ints work too
            out.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert out == [1.5, 3.5]

    def test_yield_negative_delay_fails_process(self, sim):
        def bad():
            yield -1.0

        proc = sim.spawn(bad())
        sim.run()
        assert proc.triggered
        with pytest.raises(SimulationError):
            _ = proc.value

    def test_bare_delay_interleaves_like_timeout(self, sim):
        """Bare delays land at the same (time, seq) slot a Timeout would."""
        order = []

        def a():
            yield 1.0
            order.append("a")

        def b():
            yield sim.timeout(1.0)
            order.append("b")

        sim.spawn(a())
        sim.spawn(b())
        sim.run()
        # a was spawned (and thus resumed and re-scheduled) first.
        assert order == ["a", "b"]

    def test_same_timestamp_fifo_across_scheduling_paths(self, sim):
        """The seq tie-break totally orders same-time work by the
        moment it was *scheduled*, regardless of entry point.  The
        call_at/call_after callbacks book their t=1.0 slot at spawn
        time; the processes book theirs only when their t=0 resume
        yields — so the callbacks run first, then the process wakes
        in spawn order, with bare delays and Timeout objects
        indistinguishable."""
        order = []

        def bare(tag):
            yield 1.0
            order.append(tag)

        def timed(tag):
            yield sim.timeout(1.0)
            order.append(tag)

        sim.spawn(bare("bare0"))
        sim.spawn(timed("timeout0"))
        sim.call_at(1.0, lambda: order.append("call_at0"))
        sim.spawn(bare("bare1"))
        sim.call_after(1.0, lambda: order.append("call_after0"))
        sim.spawn(timed("timeout1"))
        sim.run()
        assert order == ["call_at0", "call_after0",
                         "bare0", "timeout0", "bare1", "timeout1"]

    def test_exception_in_process_propagates_to_waiter(self, sim):
        def child():
            yield sim.timeout(1)
            raise RuntimeError("child died")

        caught = []

        def parent():
            try:
                yield sim.spawn(child())
            except RuntimeError as exc:
                caught.append(str(exc))

        sim.spawn(parent())
        sim.run()
        assert caught == ["child died"]

    def test_interrupt_reaches_process(self, sim):
        log = []

        def sleeper():
            try:
                yield sim.timeout(100)
            except Interrupt as inter:
                log.append((sim.now, inter.cause))

        proc = sim.spawn(sleeper())
        sim.call_after(1, lambda: proc.interrupt("wake"))
        sim.run()
        assert log == [(1.0, "wake")]

    def test_is_alive(self, sim):
        def proc():
            yield sim.timeout(5)

        p = sim.spawn(proc())
        assert p.is_alive
        sim.run()
        assert not p.is_alive

    def test_run_until_complete_returns_value(self, sim):
        def proc():
            yield sim.timeout(3)
            return 99

        p = sim.spawn(proc())
        assert sim.run_until_complete(p) == 99
        assert sim.now == 3.0

    def test_run_until_complete_detects_deadlock(self, sim):
        event = sim.event()  # nobody will trigger this

        def proc():
            yield event

        p = sim.spawn(proc())
        with pytest.raises(SimulationError, match="deadlock"):
            sim.run_until_complete(p)

    def test_run_until_complete_takes_any_event(self, sim):
        barrier = sim.all_of([sim.timeout(2, value="a"), sim.timeout(3)])
        assert sim.run_until_complete(barrier) == ["a", None]
        assert sim.now == 3.0
        with pytest.raises(SimulationError, match="deadlock"):
            sim.run_until_complete(sim.all_of([sim.event()]))

    def test_run_until_complete_time_limit(self, sim):
        def proc():
            yield 5.0

        p = sim.spawn(proc())
        with pytest.raises(SimulationError, match="time limit"):
            sim.run_until_complete(p, limit=1.0)
        assert sim.now == 0.0 and p.is_alive  # the late entry stays queued

    def test_spawn_requires_generator(self, sim):
        with pytest.raises(SimulationError):
            sim.spawn(lambda: None)


class TestSuspendAndResume:
    """``yield SUSPEND``: sleep with no heap entry, woken by a direct
    :meth:`Process.resume` that runs inside the caller's entry."""

    @staticmethod
    def _suspended(sim, log):
        """A process parked on SUSPEND (logging what resumes it) and the
        handle it read from ``sim.active_process``."""
        handle = []

        def sleeper():
            handle.append(sim.active_process)
            try:
                log.append(("got", (yield SUSPEND)))
            except KeyError as exc:
                log.append(("raised", exc))
                raise
            return "done"

        proc = sim.spawn(sleeper())
        sim.run()
        assert handle == [proc] and sim.active_process is None
        return proc

    def test_suspension_adds_no_heap_entry(self, sim):
        proc = self._suspended(sim, [])
        # one entry ran (the bootstrap); suspending pushed nothing
        assert (sim.event_count, len(sim._queue)) == (1, 0)
        assert proc.is_alive

    def test_resume_runs_generator_inside_the_callers_entry(self, sim):
        log = []
        proc = self._suspended(sim, log)

        def waker():
            proc.resume("flag")
            log.append(("back in waker", sim.event_count, proc.is_alive))

        sim.call_at(2.0, waker)
        sim.run()
        # the generator ran to its end before resume() returned, in the
        # waker's entry (the 2nd); its completion is the 3rd and last
        assert log == [("got", "flag"), ("back in waker", 2, False)]
        assert (proc.value, sim.now, sim.event_count) == ("done", 2.0, 3)

    def test_resume_with_exception_raises_at_the_suspension_point(self, sim):
        log = []
        proc = self._suspended(sim, log)
        barrier = sim.all_of([proc])
        boom = KeyError("flag")
        sim.call_at(1.0, lambda: proc.resume(exception=boom))
        with pytest.raises(KeyError):
            sim.run_until_complete(barrier)
        assert log == [("raised", boom)]
        assert not proc.is_alive and not proc.ok

    def test_resume_requires_a_suspended_process(self, sim):
        def on_event():
            yield sim.event()

        def on_delay():
            yield 5.0

        for proc in (sim.spawn(on_event()), sim.spawn(on_delay())):
            sim.run(until=1.0)
            with pytest.raises(SimulationError, match="not suspended"):
                proc.resume()

    def test_resume_of_finished_process_is_a_noop(self, sim):
        log = []
        proc = self._suspended(sim, log)
        proc.resume(1)
        proc.resume(2)
        assert log == [("got", 1)]

    def test_interrupt_reaches_suspended_process(self, sim):
        log = []

        def sleeper():
            try:
                yield SUSPEND
            except Interrupt as inter:
                log.append((sim.now, inter.cause))

        proc = sim.spawn(sleeper())
        sim.call_at(1.0, lambda: proc.interrupt("wake"))
        sim.run()
        assert log == [(1.0, "wake")] and not proc.is_alive

    def test_active_process_nests(self, sim):
        seen = []

        def inner():
            yield SUSPEND
            seen.append(("inner", sim.active_process))

        def outer(child):
            yield 1.0
            child.resume()
            seen.append(("outer", sim.active_process))

        child = sim.spawn(inner())
        parent = sim.spawn(outer(child))
        sim.run()
        assert seen == [("inner", child), ("outer", parent)]


class TestCombinators:
    def test_all_of_waits_for_all(self, sim):
        def child(delay):
            yield sim.timeout(delay)
            return delay

        got = []

        def parent():
            values = yield sim.all_of([sim.spawn(child(d)) for d in (3, 1, 2)])
            got.append((sim.now, values))

        sim.spawn(parent())
        sim.run()
        assert got == [(3.0, [3, 1, 2])]

    def test_all_of_empty_fires_immediately(self, sim):
        got = []

        def parent():
            values = yield sim.all_of([])
            got.append((sim.now, values))

        sim.spawn(parent())
        sim.run()
        assert got == [(0.0, [])]

    def test_any_of_fires_on_first(self, sim):
        got = []

        def parent():
            value = yield sim.any_of([sim.timeout(5, value="slow"),
                                      sim.timeout(1, value="fast")])
            got.append((sim.now, value))

        sim.spawn(parent())
        sim.run()
        assert got == [(1.0, "fast")]

    def test_any_of_requires_events(self, sim):
        with pytest.raises(SimulationError):
            sim.any_of([])


class TestResource:
    def test_serializes_access(self, sim):
        res = Resource(sim, capacity=1)
        log = []

        def user(tag):
            req = res.request()
            yield req
            log.append(("start", tag, sim.now))
            yield sim.timeout(2)
            res.release(req)
            log.append(("end", tag, sim.now))

        sim.spawn(user("a"))
        sim.spawn(user("b"))
        sim.run()
        assert log == [("start", "a", 0.0), ("end", "a", 2.0),
                       ("start", "b", 2.0), ("end", "b", 4.0)]

    def test_capacity_two_overlaps(self, sim):
        res = Resource(sim, capacity=2)
        starts = []

        def user():
            req = res.request()
            yield req
            starts.append(sim.now)
            yield sim.timeout(1)
            res.release(req)

        for _ in range(3):
            sim.spawn(user())
        sim.run()
        assert starts == [0.0, 0.0, 1.0]

    def test_release_without_grant_raises(self, sim):
        res = Resource(sim)
        granted = res.request()
        res.release(granted)
        with pytest.raises(SimulationError):
            res.release(granted)

    def test_bad_capacity(self, sim):
        with pytest.raises(SimulationError):
            Resource(sim, capacity=0)

    def test_queue_length(self, sim):
        res = Resource(sim, capacity=1)
        first = res.request()
        res.request()
        assert res.queue_length == 1
        assert res.in_use == 1
        res.release(first)
        assert res.queue_length == 0


class TestStore:
    def test_put_then_get(self, sim):
        store = Store(sim)
        store.put("item")
        got = []

        def proc():
            item = yield store.get()
            got.append(item)

        sim.spawn(proc())
        sim.run()
        assert got == ["item"]

    def test_get_blocks_until_put(self, sim):
        store = Store(sim)
        got = []

        def consumer():
            item = yield store.get()
            got.append((sim.now, item))

        def producer():
            yield sim.timeout(4)
            store.put("late")

        sim.spawn(consumer())
        sim.spawn(producer())
        sim.run()
        assert got == [(4.0, "late")]

    def test_fifo_order(self, sim):
        store = Store(sim)
        for i in range(3):
            store.put(i)
        got = []

        def proc():
            for _ in range(3):
                item = yield store.get()
                got.append(item)

        sim.spawn(proc())
        sim.run()
        assert got == [0, 1, 2]

    def test_len(self, sim):
        store = Store(sim)
        assert len(store) == 0
        store.put(1)
        store.put(2)
        assert len(store) == 2


class TestCallbacks:
    def test_call_at_and_after(self, sim):
        times = []
        sim.call_at(2.0, lambda: times.append(sim.now))
        sim.call_after(1.0, lambda: times.append(sim.now))
        sim.run()
        assert times == [1.0, 2.0]

    def test_call_in_past_rejected(self, sim):
        def proc():
            yield sim.timeout(5)
            with pytest.raises(SimulationError):
                sim.call_at(1.0, lambda: None)

        sim.spawn(proc())
        sim.run()

    def test_event_count_increases(self, sim):
        sim.call_after(1, lambda: None)
        sim.run()
        assert sim.event_count >= 1

    @pytest.mark.parametrize("drive", [
        lambda sim, done: sim.run(),
        lambda sim, done: sim.run_until_complete(done)])
    def test_event_count_is_exact_whenever_read(self, sim, drive):
        """Read mid-run, from inside an entry, it counts that entry and
        none of the pushes the entry has made."""
        seen = []

        def proc():
            for _ in range(3):
                yield 1.0
                sim.call_after(0.5, lambda: seen.append(sim.event_count))
                seen.append(sim.event_count)

        drive(sim, sim.spawn(proc()))
        sim.run()
        # bootstrap=1, wake=2, callback=3, wake=4, callback=5, wake=6,
        # process completion=7, callback=8
        assert seen == [2, 3, 4, 5, 6, 8]
        assert sim.event_count == 8
