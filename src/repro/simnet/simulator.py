"""Discrete-event simulation engine.

Every component of the simulated cluster (NICs, TCP stacks, graph
executors, RPC servers) runs as a *process*: a Python generator that
yields waitable :class:`Event` objects.  The engine advances a virtual
clock from event to event, so an entire multi-server training run
executes deterministically inside one OS process.

The design follows the classic process-interaction style (as in SimPy)
but is intentionally minimal: events, timeouts, processes, and a FIFO
:class:`Store` for passing messages between processes.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, List, Optional


class SimulationError(RuntimeError):
    """Raised for illegal uses of the simulation engine."""


class Event:
    """A one-shot occurrence processes can wait on.

    An event starts *pending*; calling :meth:`succeed` (or :meth:`fail`)
    *triggers* it, which schedules all registered callbacks at the
    current simulated time.  Yielding a triggered event from a process
    resumes the process immediately (at the same timestamp).
    """

    __slots__ = ("sim", "_value", "_exception", "_triggered", "_processed", "callbacks")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._triggered = False
        self._processed = False
        self.callbacks: List[Callable[["Event"], None]] = []

    @property
    def triggered(self) -> bool:
        """Whether the event has been succeeded or failed."""
        return self._triggered

    @property
    def ok(self) -> bool:
        """Whether the event was triggered successfully."""
        return self._triggered and self._exception is None

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError("event value read before trigger")
        if self._exception is not None:
            raise self._exception
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with an optional value."""
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._value = value
        self.sim._schedule_event(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        Any process waiting on the event will have the exception thrown
        into it at its yield point.
        """
        if self._triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._triggered = True
        self._exception = exception
        self.sim._schedule_event(self)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` once the event has been processed.

        If the event was already processed the callback fires at the
        current simulated time (via a zero-delay schedule) rather than
        being silently dropped.
        """
        if self._processed:
            self.sim.call_at(self.sim.now, lambda: callback(self))
        else:
            self.callbacks.append(callback)


class Timeout(Event):
    """An event that triggers ``delay`` simulated seconds in the future."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        super().__init__(sim)
        self.delay = delay
        self._triggered = True
        self._value = value
        sim._schedule_event(self, delay=delay)


#: Yielded by a process to suspend *without* a heap entry; whoever holds
#: the process (``sim.active_process``, read while it runs) wakes it with
#: :meth:`Process.resume`, inside the caller's own heap entry.
SUSPEND = object()

#: Tie-break base of poll-chain entries (:meth:`Simulator.call_poll`):
#: above every push counter, so at one instant they run after every
#: ordinary entry, in executor-index order.
POLL_BASE = 1 << 62


class Process(Event):
    """A running generator coroutine; also an event that fires on return.

    The process's return value (via ``return x`` in the generator)
    becomes the event value, so processes can wait on sub-processes:

    ``result = yield sim.spawn(child())``
    """

    __slots__ = ("generator", "name", "_suspended")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = "") -> None:
        super().__init__(sim)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._suspended = False
        # Bootstrap: resume the generator at the current time.
        sim.call_at(sim.now, lambda: self._resume(None, None))

    def resume(self, value: Any = None,
               exception: Optional[BaseException] = None) -> None:
        """Run a process that yielded :data:`SUSPEND`, here and now.

        The generator runs inside the caller's heap entry, up to its
        next yield, before this returns: no push, so no ``(when, seq)``
        of its own.  ``value`` is what the ``yield`` evaluates to;
        ``exception`` is raised there instead.  A finished process
        ignores it, like every other wake-up.
        """
        if self._triggered:
            return
        if not self._suspended:
            raise SimulationError(f"process {self.name!r} is not suspended")
        self._resume(value, exception)

    def _on_event(self, event: Event) -> None:
        if event._exception is not None:
            self._resume(None, event._exception)
        else:
            self._resume(event._value, None)

    def _resume(self, value: Any, exception: Optional[BaseException]) -> None:
        if self._triggered:
            return
        self._suspended = False
        sim = self.sim
        caller, sim.active_process = sim.active_process, self
        try:
            if exception is not None:
                target = self.generator.throw(exception)
            else:
                target = self.generator.send(value)
        except StopIteration as stop:
            self.succeed(getattr(stop, "value", None))
            return
        except BaseException as exc:  # noqa: BLE001 - fault isolation
            # An uncaught exception ends the process; waiters see it.
            self.fail(exc)
            return
        finally:
            sim.active_process = caller
        if not isinstance(target, Event):
            # Fast path: a bare non-negative number is a plain timeout.
            # Semantically identical to ``yield sim.timeout(delay)`` —
            # the wake-up lands at the same (time, seq) heap position a
            # Timeout created here would get — but skips allocating the
            # Event and its callback list (the hottest allocation in
            # large-cluster sweeps).
            if type(target) is float or type(target) is int:
                if target >= 0:
                    sim._seq += 1
                    heapq.heappush(
                        sim._queue,
                        (sim._now + target, sim._seq, None,
                         lambda: self._resume(None, None)))
                    return
                self.generator.close()
                self.fail(SimulationError(
                    f"process {self.name!r} yielded negative delay {target!r}"))
                return
            if target is SUSPEND:
                self._suspended = True
                return
            self.generator.close()
            self.fail(SimulationError(
                f"process {self.name!r} yielded {target!r}, expected an Event"))
            return
        if target is self:
            self.generator.close()
            self.fail(SimulationError(f"process {self.name!r} waits on itself"))
            return
        target.add_callback(self._on_event)


class AllOf(Event):
    """Event that triggers once all given events have triggered."""

    __slots__ = ("_pending", "_values")

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        events = list(events)
        self._pending = len(events)
        if self._pending == 0:
            self.succeed([])
            return
        self._values: List[Any] = [None] * len(events)
        for i, event in enumerate(events):
            event.add_callback(self._make_cb(i))

    def _make_cb(self, index: int) -> Callable[[Event], None]:
        def cb(event: Event) -> None:
            if self._triggered:
                return
            if event._exception is not None:
                self.fail(event._exception)
                return
            self._values[index] = event._value
            self._pending -= 1
            if self._pending == 0:
                self.succeed(list(self._values))
        return cb


class AnyOf(Event):
    """Event that triggers as soon as one of the given events triggers."""

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        events = list(events)
        if not events:
            raise SimulationError("AnyOf requires at least one event")
        for event in events:
            event.add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self._triggered:
            return
        if event._exception is not None:
            self.fail(event._exception)
        else:
            self.succeed(event._value)


class Simulator:
    """The event loop: a priority queue of (time, tie) ordered events.

    An ordinary entry's tie is its push counter ``seq``, so same-instant
    entries run in the order they were scheduled.  A poll-chain entry's
    tie is ``POLL_BASE`` plus its executor's index: what it is, not how
    many pushes came before it.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: List[tuple] = []
        self._seq = 0
        #: the process whose generator is running right now, if any
        self.active_process: Optional[Process] = None
        self._poll_indices = 0
        #: key of the last poll-chain entry run: (time, tie)
        self._poll_at = -1.0
        self._poll_tie = -1
        #: where the running entry sits among same-instant pushes: an
        #: ordinary entry's push counter; for a poll-chain entry (or a
        #: stop of :meth:`run`), the counter when it began.  A
        #: :class:`~repro.simnet.memory.Landing` made while the counter
        #: read ``s`` shows its chunks due at this instant iff ``s <
        #: _tie``, as if each had had an entry pushed right then.
        self._tie = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def event_count(self) -> int:
        """Heap entries processed so far: every push takes a ``_seq``, so
        it is pushes minus what is still queued — exact whenever read,
        with no counter for the event loops to keep."""
        return self._seq - len(self._queue)

    # -- scheduling primitives -------------------------------------------------

    def _schedule_event(self, event: Event, delay: float = 0.0) -> None:
        self._seq += 1
        heapq.heappush(self._queue, (self._now + delay, self._seq, event, None))

    def call_at(self, when: float, fn: Callable[[], None]) -> None:
        """Run a plain callback at absolute simulated time ``when``."""
        if when < self._now:
            raise SimulationError(f"cannot schedule in the past: {when} < {self._now}")
        self._seq += 1
        heapq.heappush(self._queue, (when, self._seq, None, fn))

    def call_after(self, delay: float, fn: Callable[[], None]) -> None:
        """Run a plain callback ``delay`` seconds from now."""
        self.call_at(self._now + delay, fn)

    def poll_index(self) -> int:
        """A fresh executor index for :meth:`call_poll`."""
        self._poll_indices += 1
        return self._poll_indices - 1

    def call_poll(self, when: float, executor_index: int,
                  fn: Callable[[], None]) -> None:
        """Run a poll-chain callback of executor ``executor_index`` at ``when``.

        Its key is ``(when, POLL_BASE + executor_index)``: after every
        ordinary entry at ``when``, before the poll entries of higher
        indices.  The push counter still advances (it keeps
        :attr:`event_count` exact and orders two entries of one key).
        """
        self._seq += 1
        heapq.heappush(self._queue,
                       (when, POLL_BASE + executor_index, self._seq, fn))

    def poll_passed(self, executor_index: int) -> bool:
        """Whether a poll-chain entry of ``executor_index`` keyed at the
        current instant would have run by now.

        Poll-chain entries of one instant run in index order, after the
        ordinary entries queued for it; an ordinary entry pushed at the
        instant once some of them ran comes after those.  So an entry
        ``(now, POLL_BASE + i)`` has run iff the last poll-chain entry
        run was at ``now`` with a tie of at least its own.
        """
        return (self._poll_at == self._now
                and POLL_BASE + executor_index <= self._poll_tie)

    # -- user-facing API ---------------------------------------------------------

    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def spawn(self, generator: Generator, name: str = "") -> Process:
        """Start a new process from a generator."""
        if not hasattr(generator, "send"):
            raise SimulationError("spawn() requires a generator (did you call the function?)")
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- running ------------------------------------------------------------------

    def step(self) -> None:
        """Process the single next scheduled entry."""
        when, tie, event, fn = heapq.heappop(self._queue)
        self._now = when
        if fn is not None:
            if tie >= POLL_BASE:
                self._poll_at, self._poll_tie = when, tie
                tie = self._seq
            self._tie = tie
            fn()
            return
        self._tie = tie
        assert event is not None
        event._processed = True
        callbacks, event.callbacks = event.callbacks, []
        for callback in callbacks:
            callback(event)

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run until the queue drains, ``until`` is reached, or ``max_events``.

        Returns the simulated time at which the run stopped.
        """
        processed = 0
        while self._queue:
            if until is not None and self._queue[0][0] > until:
                self._now, self._tie = until, self._seq
                break
            if max_events is not None and processed >= max_events:
                break
            self.step()
            processed += 1
        else:
            if until is not None:
                self._now, self._tie = until, self._seq
        return self._now

    def run_until_complete(self, event: Event, limit: float = float("inf")) -> Any:
        """Run until ``event`` (a process, a barrier, ...) triggers; return its value.

        Raises :class:`SimulationError` if the queue drains (deadlock)
        or ``limit`` simulated seconds pass before the event triggers.
        This is the loop every session and benchmark run sits in, so it
        is :meth:`step` inlined: no method call or property per entry.
        """
        queue, heappop = self._queue, heapq.heappop
        while not event._triggered:
            if not queue or queue[0][0] > limit:
                what = (f"process {event.name!r}" if isinstance(event, Process)
                        else type(event).__name__)
                raise SimulationError(
                    f"deadlock: {what} never completed" if not queue else
                    f"time limit {limit}s exceeded waiting for {what}")
            self._now, tie, fired, fn = heappop(queue)
            if fn is not None:
                if tie >= POLL_BASE:
                    self._poll_at, self._poll_tie = self._now, tie
                    tie = self._seq
                self._tie = tie
                fn()
                continue
            self._tie = tie
            fired._processed = True
            callbacks, fired.callbacks = fired.callbacks, []
            for callback in callbacks:
                callback(fired)
        return event.value


class Store:
    """An unbounded FIFO message store (like a queue between processes)."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._items: List[Any] = []
        self._getters: List[Event] = []

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Deposit an item; wakes the oldest waiting getter, if any."""
        if self._getters:
            getter = self._getters.pop(0)
            getter.succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Return an event yielding the next item (immediately if present)."""
        event = self.sim.event()
        if self._items:
            event.succeed(self._items.pop(0))
        else:
            self._getters.append(event)
        return event

    def fail_all(self, exception: BaseException) -> None:
        """Fail every waiting getter (producer-side fatal error)."""
        getters, self._getters = self._getters, []
        for getter in getters:
            getter.fail(exception)
