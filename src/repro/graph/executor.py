"""The per-device graph executor: a ready-queue scheduler.

Implements the three operator execution modes of §4:

* **synchronous** — the op's simulated cost elapses, outputs appear;
* **asynchronous** — the op parks on an event (an RPC reply, a verb
  completion) while the executor keeps draining the ready queue;
* **polling-async** — the new mode the paper introduces for
  ``RdmaRecv``/``RdmaRecvDyn``: the op polls a flag byte; on a miss it
  is re-enqueued at the *tail* of the ready queue so other ready work
  runs first; when the queue holds only pollers, the executor backs
  off with exponentially growing idle waits (bounded), so polling
  neither starves real work nor spins the simulated CPU.  The polling
  phase is planned, not run: its visits and its idle parks are steps
  of one chain that costs a heap entry only where it needs the
  executor — a hit, a fresh node, the end of a park (see
  :meth:`Executor.run_iteration`).

Each executor owns the allocators for its device; allocation of every
op output goes through :meth:`allocate_output`, which consults the
session's allocation policy — the hook the dynamic tracer (§3.4) uses
to steer traced allocation sites into the RDMA arena.
"""

from __future__ import annotations

import functools
import itertools
from bisect import bisect_left, bisect_right, insort
from collections import deque
from heapq import heappop, heappush
from typing import (Callable, Deque, Dict, Generator, Iterator, List,
                    Optional, Set, Tuple)

import numpy as np

from ..observability.tracer import executor_track
from ..simnet.memory import Backing
from ..simnet.simulator import SUSPEND, Event, Simulator
from ..simnet.topology import Host
from .allocator import ArenaAllocator, BaseAllocator, HostAllocator
from .dtypes import DType
from .node import Graph, GraphError, Node
from .ops import get_op
from .shapes import Shape
from .tensor import Tensor
from .transfer_api import CommRuntime, Outcome


class ExecutorError(RuntimeError):
    """Runtime execution failures."""


#: exponential idle backoff for pure-polling phases
_IDLE_BACKOFF_MAX = 500e-6


class _ReadyQueue:
    """The executor's ready queue: urgent sends first, the rest FIFO.

    One deque holds everything in arrival order; a small heap beside it
    only ever holds ``_Send`` nodes with a positive ``priority`` attr
    and is served first, so an urgent tensor reaches the wire scheduler
    ahead of bulk traffic.  FIFO mode (``priority=False``) is the case
    where nothing is urgent.  Two things never jump the line: a node
    re-enqueued for polling (``retry``) — a poll-miss sweep must neither
    starve runnable compute nor preempt it — and compute nodes, whose
    reordering would push collective pack/unpack work ahead of the
    backward chain and lengthen the critical path.
    """

    def __init__(self, nodes=(), priority: bool = False) -> None:
        self._priority = priority
        self._fifo: Deque[Node] = deque()
        self._urgent: List[Tuple[int, int, Node]] = []
        self._seq = itertools.count()
        for node in nodes:
            self.append(node)

    def append(self, node: Node, retry: bool = False) -> None:
        if self._priority and not retry and node.op_type == "_Send":
            urgency = node.attrs.get("priority", 0)
            if urgency > 0:
                heappush(self._urgent, (-urgency, next(self._seq), node))
                return
        self._fifo.append(node)

    def popleft(self) -> Node:
        if self._urgent:
            return heappop(self._urgent)[-1]
        return self._fifo.popleft()

    def __len__(self) -> int:
        return len(self._fifo) + len(self._urgent)

    def __bool__(self) -> bool:
        return bool(self._fifo) or bool(self._urgent)

    def __iter__(self) -> Iterator[Node]:
        yield from (entry[-1] for entry in self._urgent)
        yield from self._fifo


class Executor:
    """Runs one partition subgraph on one simulated host, repeatedly."""

    def __init__(self, host: Host, graph: Graph, device: str,
                 comm: CommRuntime, priority_sched: bool = False) -> None:
        self.host = host
        self.sim: Simulator = host.sim
        self.cost = host.cost
        self.graph = graph
        self.device = device
        self.comm = comm
        self.priority_sched = priority_sched
        self.heap = HostAllocator(host, name=f"heap:{device}")
        #: the RDMA arena; installed by the analyzer when RDMA is in play
        self.arena: Optional[ArenaAllocator] = None
        #: (node_name, alloc_index) -> BaseAllocator override; the
        #: allocation-site tracer installs one
        self.allocation_policy = lambda node, idx: None
        self.variables: Dict[str, Tensor] = {}
        #: receiver-side tensors preallocated by the analyzer (key -> Tensor)
        self.preallocated_recv: Dict[str, Tensor] = {}
        self.values: Dict[Tuple[str, int], Tensor] = {}
        self.iteration = -1
        self.ops_executed = 0
        self._poll_misses = 0
        #: this executor's place among same-instant poll-chain entries
        self.index = self.sim.poll_index()
        self._order = graph.topological_order()
        #: built once: an iteration counts down a copy of the in-degrees
        self._in_degree, self._dependents = graph.dependency_tables()
        #: what an iteration with nothing runnable waits on: the next
        #: async completion or memory commit
        self._wake: Optional[Event] = None
        # Remote one-sided writes landing in this host's memory, like
        # async completions, end an idle-backoff park that has begun,
        # so flag pollers re-check without waiting out their backoff.
        # The backoff can still decide when a poll hits: a flag that
        # lands mid-sweep, before the sweep's last miss, does not stop
        # the park that ends the sweep, and that park waits out its
        # backoff (the lost wake ``test_polling_async.py::TestLostWake``
        # pins as an xfail).
        host.wake_listeners.append(self._notify)
        #: the running iteration's reaction to a commit, and its replay
        #: of the planned misses the event loop has passed
        self._on_commit: Optional[Callable[[Optional[Backing], int, int],
                                           None]] = None
        self._catch_up: Optional[Callable[[], None]] = None
        #: per-iteration allocations, reclaimed at the next iteration
        self._transient: List[Tuple[BaseAllocator, Tensor]] = []

    @property
    def poll_misses(self) -> int:
        """Poll visits that missed so far, exact whenever read: the
        running iteration's planned misses that the event loop has
        passed are replayed first."""
        if self._catch_up is not None:
            self._catch_up()
        return self._poll_misses

    # -- allocation -----------------------------------------------------------------

    def pick_allocator(self, node_name: str, alloc_index: int) -> BaseAllocator:
        override = self.allocation_policy(node_name, alloc_index)
        if override is not None:
            return override
        return self.heap

    def allocate_output(self, node: Node, index: int, dtype: DType,
                        shape: Shape) -> Tensor:
        """Allocate storage for output ``index`` of ``node``.

        Allocations made during an iteration are transient: their
        storage is reclaimed when the next iteration starts (mirroring
        the runtime's per-step tensor lifetime).  Variable storage is
        allocated before iteration 0 and lives forever.

        Storage follows content: the tensor holds no bytes until real
        values are written into it, so an output nobody computes (its
        inputs are untracked, or the op computes nothing) stays
        size-only whatever its size.
        """
        allocator = self.pick_allocator(node.name, index)
        tensor = allocator.allocate_tensor(dtype, shape,
                                           node_name=node.name,
                                           alloc_index=index)
        if self.iteration >= 0:
            self._transient.append((allocator, tensor))
        return tensor

    # -- variables ---------------------------------------------------------------------

    def initialize_variables(self) -> None:
        """Allocate persistent variable storage (iteration -1 work).

        Storage follows content here too: a variable gets real bytes
        only if an ``initializer`` gives it some; an uninitialized one
        is size-only whatever its size, since nothing writes it.
        """
        for node in self.graph.nodes_of_type("Variable"):
            shape = node.attrs["shape"]
            dtype = node.attrs["dtype"]
            if not shape.is_fully_defined:
                raise ExecutorError(f"variable {node.name} needs static shape")
            init = node.attrs.get("initializer")
            tensor = self.allocate_output(node, 0, dtype, shape)
            if init is not None:
                tensor.copy_from(init)
            self.variables[node.name] = tensor

    # -- iteration driver --------------------------------------------------------------

    def run_iteration(self, feeds: Optional[Dict[str, np.ndarray]] = None
                      ) -> Generator:
        """Process: execute every node of the partition once."""
        self.iteration += 1
        self.values = {}
        for allocator, tensor in self._transient:
            allocator.free_tensor(tensor)
        self._transient = []
        feeds = feeds or {}
        pending = dict(self._in_degree)
        dependents = self._dependents

        ready = _ReadyQueue((node for node in self._order
                             if pending[node.name] == 0),
                            priority=self.priority_sched)
        in_flight = 0
        completed = 0
        total = len(self._order)
        #: nodes currently in their polling phase: node -> Outcome
        polling: Dict[str, Outcome] = {}
        #: the pollers whose last flag read was not a miss (a hit, or a
        #: ``poll()`` that raised).  By ``Outcome.polling``'s contract a
        #: read can change only where a commit notifies the host, so a
        #: flag is read when its poller enters the queue and again only
        #: at a commit whose range covers it: ``watched`` maps a backing
        #: to its pollers' (flag offset, name) pairs, sorted.
        hot: Set[str] = set()
        watched: Dict[Backing, List[Tuple[int, str]]] = {}
        idle_backoff = self.cost.idle_poll_interval
        #: misses since the last wake-up/hit; the executor only parks
        #: after a full sweep of the pollers has missed, so one wake-up
        #: (arriving data) gets every flag checked, not just one
        sweep_misses = 0
        #: parks at the backoff cap that ended by timeout, not a wake-up
        timeouts = 0
        # Every yield below is bracketed with tracer.account() so the
        # per-category sums partition this iteration's wall time exactly
        # (sim time only advances across yields) — the invariant the
        # stall-attribution report depends on.
        tracer = self.host.cluster.tracer
        track = executor_track(self.device)
        hostname = self.host.name
        iteration = self.iteration
        polls_since_park = 0
        sim = self.sim
        sched_dispatch = self.cost.sched_dispatch
        poll_check = self.cost.poll_check
        poll_requeue = self.cost.poll_requeue
        visit_costs = (sched_dispatch, poll_check, poll_requeue)
        graph_node = self.graph.node
        poll_index = self.index
        #: count of queued nodes NOT in their polling phase — the O(1)
        #: replacement for sweeping the whole queue on every poll miss
        fresh_in_queue = len(ready)

        # The polling phase (§4) is a chain of steps: a visit's ``check``
        # where dispatch + flag read end at t2 = t0 + sched_dispatch +
        # poll_check, and on a miss its ``requeue`` at t0 = t2 +
        # poll_requeue, where the poller has rejoined the tail and the
        # next queued node is popped — or, once a whole sweep has missed
        # with nothing else queued, the executor parks until t0 +
        # idle_backoff, the park's end, unless a wake ends it sooner.
        # While the chain runs the generator sits on ``yield SUSPEND``
        # and most steps are never heap entries: ``plan`` walks forward
        # from the next step, consulting ``hot``, to the first step that
        # needs the executor (a hit, a raising poll, a fresh node, a
        # park's end), keeps every step's time in ``steps`` and pushes
        # one poll-chain entry at that step's key.  A poll-chain key is
        # (time, executor index), not push history, so the entry runs
        # exactly where that step would have run as an entry of its own.
        # The misses before it are replayed (``replay``) only when
        # something could change what follows them — a commit flipping a
        # flag, ``finish`` queueing a fresh node, a wake ending a park
        # that has begun — and when the entry fires: in bulk untraced,
        # step by step traced, so the ``account`` float sums stay
        # identical.  A park ended by a wake ends two ordinary entries
        # later, at ``now`` (``wake``): where a park that waited on a
        # ``Timeout`` or the wake event resumed its generator, through
        # the wake's entry and the ``AnyOf``'s, so same-instant entries
        # keep their order.
        me = sim.active_process
        fifo, urgent = ready._fifo, ready._urgent
        #: times of the planned steps, the next one first, alternating
        #: check and requeue from a check iff ``at_check``; the last one
        #: is the live entry's
        steps: List[float] = []
        at_check = True
        #: whether the plan ends in a park: its last step is the park's
        #: end, the one before it the requeue that parks
        parking = False
        #: the live entry's ticket: an entry whose ticket it is not was
        #: superseded by a later plan
        live: Optional[int] = None
        live_at = 0.0
        tickets = itertools.count()

        def read(name: str) -> bool:
            """Read ``name``'s flag into ``hot``; whether that moved it."""
            try:
                missed = not polling[name].poll()
            except Exception:  # noqa: BLE001 - raised again at its visit
                missed = False
            if missed == (name not in hot):
                return False
            if missed:
                hot.discard(name)
            else:
                hot.add(name)
            return True

        def plan() -> None:
            nonlocal parking
            del steps[:]
            parking = False
            if at_check:
                steps.append(t2)
                if node.name in hot:
                    return arm()
                when = t2 + poll_requeue
            else:
                when = t0
            # ``when`` is the next requeue.  The requeues pop an urgent
            # send first, else fifo[0], fifo[1], ... and never wrap: with
            # nothing fresh queued, a whole sweep of misses parks.  Count
            # the pollers popped, visited and missed before the requeue
            # that pops a fresh node or parks, or the visit that hits.
            visits, hit = 0, False
            if fresh_in_queue == 0 and not hot:
                # only pollers queued, none hot: the sweep misses through
                # (the walk every park's end would otherwise make)
                visits = max(len(fifo) - sweep_misses, 0)
            elif not urgent:
                limit = len(fifo)
                if fresh_in_queue == 0:
                    limit -= sweep_misses
                for visit in itertools.islice(fifo, max(limit, 0)):
                    name = visit.name
                    if name not in polling:
                        break
                    if name in hot:
                        hit = True
                        break
                    visits += 1
            # The step times are the running sums of the visits' costs
            # (the chain above, add by add), less each dispatch's end.
            chain = list(itertools.accumulate(
                itertools.islice(itertools.cycle(visit_costs),
                                 3 * visits + 2 * hit), initial=when))
            del chain[1::3]
            steps.extend(chain)
            if not hit and fresh_in_queue == 0:
                # The last requeue parks; the park's end is the step
                # after it, where the chain needs the executor again.
                parking = True
                steps.append(steps[-1] + idle_backoff)
            arm()

        def arm() -> None:
            nonlocal live, live_at
            when = steps[-1]
            if live is not None and live_at == when:
                return  # the live entry already sits at this step's key
            live, live_at = next(tickets), when
            sim.call_poll(when, poll_index, functools.partial(entry, live))

        def entry(ticket: int) -> None:
            if live == ticket:
                fire()

        def replay(count: int) -> None:
            """Run the first ``count`` planned steps, all of them misses
            (the last a requeue that parks, if it is the park's)."""
            nonlocal node, outcome, t0, t2, at_check, sweep_misses, \
                polls_since_park
            if count <= 0:
                return
            parks = parking and count == len(steps) - 1
            if tracer is None:
                checks = (count + at_check) // 2
                requeues = count - checks
                self._poll_misses += checks
                if requeues:
                    sweep_misses += requeues
                    fifo.append(node)
                    if parks:  # the parking requeue pops nothing
                        fifo.rotate(1 - requeues)
                    else:
                        fifo.rotate(-requeues)
                        node = fifo.pop()
                        outcome = polling[node.name]
            else:
                checking = at_check
                for i, when in enumerate(steps[:count], 1 - count):
                    if checking:
                        t1 = t0 + sched_dispatch
                        tracer.account(hostname, track, iteration, "sched",
                                       t0, t1, emit=False)
                        tracer.account(hostname, track, iteration, "poll",
                                       t1, when, emit=False)
                        polls_since_park += 1
                        self._poll_misses += 1
                        t2 = when
                    else:
                        tracer.account(hostname, track, iteration, "poll",
                                       t2, when, emit=False)
                        t0 = when
                        fifo.append(node)
                        sweep_misses += 1
                        if i or not parks:
                            node = fifo.popleft()
                            outcome = polling[node.name]
                    checking = not checking
            odd = count % 2 == 1
            if odd == at_check:  # the last step run was a check
                t2, t0 = steps[count - 1], steps[count]
            else:
                t0, t2 = steps[count - 1], steps[count]
            at_check = at_check != odd
            del steps[:count]
            if parks:  # parked since ``t0``, until ``steps[0]`` or a wake
                node = None
                self._parked(t0)

        def catch_up() -> None:
            """Replay the planned steps whose key the loop has passed."""
            if live is not None:
                passed = (bisect_right if sim.poll_passed(poll_index)
                          else bisect_left)(steps, sim.now)
                replay(min(passed, len(steps) - 1))

        def fire() -> None:
            nonlocal live
            live = None
            replay(len(steps) - 1)
            if node is None:
                end_park(timed_out=True)
            elif at_check:
                check()
            else:
                requeue()

        def wake() -> None:
            """A completion or a commit: end a park that has begun, at
            ``now``, in two hops (where a woken ``Timeout``/``AnyOf``
            park resumed its generator: the wake's entry, then the
            ``AnyOf``'s).  The park's own entry is superseded."""
            nonlocal live
            if live is None or not parking:
                return
            catch_up()
            if node is None:
                live = None
                sim.call_at(sim.now, hop)

        def hop() -> None:
            sim.call_at(sim.now, end_park)

        def end_park(timed_out: bool = False) -> None:
            nonlocal node, outcome, t0, t2, at_check, idle_backoff, \
                sweep_misses, timeouts, polls_since_park
            if timed_out and idle_backoff == _IDLE_BACKOFF_MAX:
                # Timed out: no commit came, so no flag may have moved.
                # One that moved anyway breaks the contract and leaves
                # the executor parking at the capped backoff until the
                # time limit; there, each timeout re-reads one queued
                # poller, in turn.
                timeouts += 1
                suspect = fifo[timeouts % len(fifo)].name
                if read(suspect):
                    me.resume(exception=ExecutorError(
                        f"executor {self.device}: the poll of {suspect} "
                        f"changed with no memory commit notifying the "
                        f"host"))
                    return
            if tracer is not None:
                tracer.account(hostname, track, iteration, "poll_wait",
                               t0, sim.now)
                tracer.metrics.histogram(
                    "poll_iterations_per_wake").observe(polls_since_park)
                polls_since_park = 0
            idle_backoff = min(idle_backoff * 2, _IDLE_BACKOFF_MAX)
            sweep_misses = 0
            node = ready.popleft()
            t0 = sim.now
            outcome = polling.get(node.name)
            if outcome is None:
                me.resume()  # a fresh node: the generator runs it
                return
            t2 = t0 + sched_dispatch + poll_check
            at_check = True
            plan()

        def check() -> None:
            nonlocal polls_since_park
            if tracer is not None:
                t1 = t0 + sched_dispatch
                tracer.account(hostname, track, iteration, "sched",
                               t0, t1, emit=False)
                tracer.account(hostname, track, iteration, "poll",
                               t1, t2, emit=False)
                polls_since_park += 1
            try:
                hit = outcome.poll()
            except Exception as exc:  # noqa: BLE001 - fails the iteration
                me.resume(exception=exc)
                return
            if hit:
                me.resume()
                return
            me.resume(exception=ExecutorError(
                f"executor {self.device}: {node.name} was planned as a hit "
                f"but its poll missed (a poll may turn into a hit only "
                f"where a memory commit notifies the host)"))

        def requeue() -> None:
            nonlocal node, outcome, sweep_misses
            if tracer is not None:
                tracer.account(hostname, track, iteration, "poll",
                               t2, t0, emit=False)
            fifo.append(node)  # at the tail: a retry never jumps the line
            sweep_misses += 1
            # ``plan`` ends a chain at a requeue only where it pops a
            # fresh node (one that would park ends at its park instead)
            node = ready.popleft()
            outcome = None
            me.resume()  # the generator runs it

        def on_commit(backing: Optional[Backing], lo: int, hi: int) -> None:
            wake()
            if backing is None:
                names = list(polling)
            else:
                names = []
                flags = watched.get(backing)
                if flags:
                    i = bisect_left(flags, (lo,))
                    while i < len(flags) and flags[i][0] < hi:
                        names.append(flags[i][1])
                        i += 1
            changed = False
            for name in names:
                changed |= read(name)
            if changed and live is not None:
                catch_up()
                plan()

        def finish(node: Node, outputs: List[Tensor]) -> None:
            nonlocal completed, fresh_in_queue
            for i, tensor in enumerate(outputs):
                self.values[(node.name, i)] = tensor
            completed += 1
            woken = []
            for dependent in dependents[node.name]:
                pending[dependent] -= 1
                if pending[dependent] == 0:
                    woken.append(graph_node(dependent))
            if woken:
                catch_up()
                for dependent in woken:
                    ready.append(dependent)
                fresh_in_queue += len(woken)
            self._wake_up()
            wake()
            if woken and live is not None:
                plan()

        self._on_commit, self._catch_up = on_commit, catch_up
        try:
            while completed < total:
                if not ready:
                    # Nothing runnable: wait for an async completion.
                    if in_flight == 0:
                        raise ExecutorError(
                            f"executor {self.device} stalled at "
                            f"{completed}/{total} nodes")
                    t0 = sim.now
                    yield self._wait_for_wake()
                    if tracer is not None:
                        tracer.account(hostname, track, iteration,
                                       "wire_wait", t0, sim.now)
                    continue
                node = ready.popleft()
                t0 = sim.now
                outcome = polling.get(node.name)
                if outcome is not None:
                    t2 = t0 + sched_dispatch + poll_check
                    at_check = True
                    plan()
                    yield SUSPEND  # until ``node`` is a hit or fresh
                if outcome is not None:  # the visit hit
                    idle_backoff = self.cost.idle_poll_interval
                    sweep_misses = 0
                    del polling[node.name]
                    hot.discard(node.name)
                    backing, offset = outcome.flag
                    watched[backing].remove((offset, node.name))
                    in_flight -= 1
                    next_outcome = outcome.complete()
                else:
                    yield sched_dispatch
                    if tracer is not None:
                        tracer.account(hostname, track, iteration, "sched",
                                       t0, sim.now, emit=False)
                    fresh_in_queue -= 1
                    t0 = sim.now
                    next_outcome = yield from self._execute(node, feeds)
                    if tracer is not None:
                        tracer.account(hostname, track, iteration, "op",
                                       t0, sim.now,
                                       name=f"{node.op_type}:{node.name}")

                if next_outcome.kind == "sync":
                    self.ops_executed += 1
                    finish(node, next_outcome.outputs or [])
                elif next_outcome.kind == "async":
                    in_flight += 1

                    def on_done(event, node=node) -> None:
                        nonlocal in_flight
                        in_flight -= 1
                        self.ops_executed += 1
                        finish(node, event.value or [])
                    next_outcome.event.add_callback(on_done)
                elif next_outcome.kind == "poll":
                    polling[node.name] = next_outcome
                    read(node.name)
                    backing, offset = next_outcome.flag
                    insort(watched.setdefault(backing, []),
                           (offset, node.name))
                    in_flight += 1
                    ready.append(node, retry=True)
                else:  # pragma: no cover - defensive
                    raise ExecutorError(
                        f"bad outcome kind {next_outcome.kind}")
        finally:
            self._on_commit = self._catch_up = None

    def _wait_for_wake(self) -> Event:
        if self._wake is None or self._wake.triggered:
            self._wake = self.sim.event()
        return self._wake

    def _parked(self, at: float) -> None:
        """An idle-backoff park began at ``at``: a whole sweep of
        pollers missed with nothing else runnable.  Called once per park,
        when the planned chain runs the requeue that parks (which may be
        later than ``at``); the seam where tests count parks."""

    def _wake_up(self) -> None:
        if self._wake is not None and not self._wake.triggered:
            self._wake.succeed()

    def _notify(self, backing: Optional[Backing] = None, lo: int = 0,
                hi: int = 0) -> None:
        """Host listener: data landed in ``[lo, hi)`` of ``backing``
        (``None``: somewhere on the host)."""
        self._wake_up()
        if self._on_commit is not None:
            self._on_commit(backing, lo, hi)

    # -- op dispatch ------------------------------------------------------------------------

    def _execute(self, node: Node, feeds: Dict[str, np.ndarray]) -> Generator:
        """Process: run one node; returns an Outcome."""
        op_type = node.op_type
        inputs = [self.values[(src.node.name, src.index)]
                  for src in node.inputs]

        if op_type == "_Send":
            result = self.comm.execute_send(self, node, inputs[0])
            if hasattr(result, "send"):
                # Sends run detached (TensorFlow's inter-op thread pool
                # would carry them): their internal work — staging
                # copies, PCIe staging — contends on shared resources
                # but does not stall this executor's ready queue.
                return Outcome.wait(self.sim.spawn(
                    result, name=f"send-{node.name}"))
            return result
        if op_type == "_Recv":
            result = self.comm.execute_recv(self, node)
            if hasattr(result, "send"):
                result = yield from result
            return result
        if op_type == "InNetworkReduce":
            # Switch-aggregated collective: like _Send/_Recv this is a
            # comm-runtime verb, not a compute op — the runtime streams
            # the buffer toward the ToR and hands back a polling outcome
            # for the multicast result.
            result = self.comm.execute_innetwork(self, node, inputs[0])
            if hasattr(result, "send"):
                result = yield from result
            return result
        if op_type == "Variable":
            yield self.cost.op_overhead
            return Outcome.done([self.variables[node.name]])
        if op_type == "Placeholder":
            yield self.cost.op_overhead
            return Outcome.done([self._feed_tensor(node, feeds)])

        op = get_op(op_type)
        yield max(op.cost(node, self.cost), 0.0)

        if op_type == "ApplyGradient":
            return Outcome.done([self._apply_gradient(node, inputs)])
        if op_type == "SyntheticCompute":
            outputs = [self.allocate_output(node, i, dtype, shape)
                       for i, (dtype, shape)
                       in enumerate(zip(node.output_dtypes, node.output_shapes))]
            return Outcome.done(outputs)

        return Outcome.done(self._run_compute(node, op, inputs))

    def _feed_tensor(self, node: Node, feeds: Dict[str, np.ndarray]) -> Tensor:
        if node.name not in feeds:
            raise ExecutorError(f"no feed for placeholder {node.name!r}")
        values = np.asarray(feeds[node.name],
                            dtype=node.output_dtypes[0].np)
        tensor = self.allocate_output(node, 0, node.output_dtypes[0],
                                      Shape(values.shape))
        tensor.copy_from(values)
        return tensor

    def _apply_gradient(self, node: Node, inputs: List[Tensor]) -> Tensor:
        """In-place SGD update: writes through the variable's buffer.

        The output tensor *is* the variable tensor — the in-place
        buffer-passing behaviour the paper's dynamic tracer exists to
        handle (§3.4, "decide tensor allocation site").
        """
        var_name = node.attrs["variable"]
        variable = self.variables.get(var_name)
        if variable is None:
            raise ExecutorError(f"{node.name}: unknown variable {var_name!r}")
        gradient = inputs[1]
        if variable.is_dense and gradient.is_dense:
            variable.array[...] -= node.attrs["lr"] * gradient.array
        return variable

    def _run_compute(self, node: Node, op, inputs: List[Tensor]) -> List[Tensor]:
        dense = all(t.is_dense for t in inputs)
        if dense and op.compute is not None:
            arrays = op.compute(node, [t.array for t in inputs])
            outputs = []
            for index, array in enumerate(arrays):
                array = np.asarray(array, dtype=node.output_dtypes[index].np)
                tensor = self.allocate_output(node, index,
                                              node.output_dtypes[index],
                                              Shape(array.shape))
                tensor.copy_from(array)
                outputs.append(tensor)
            return outputs
        # Virtual path: contents are not tracked, so nothing writes the
        # outputs, they stay size-only whatever their size and
        # everything downstream of them does no byte work;
        # partially-unknown static shapes are resolved from the runtime
        # input shapes.
        if not all(s.is_fully_defined for s in node.output_shapes):
            op.infer(node, [t.shape for t in inputs],
                     [t.dtype for t in inputs])
        outputs = []
        for index, (dtype, shape) in enumerate(
                zip(node.output_dtypes, node.output_shapes)):
            if not shape.is_fully_defined:
                raise ExecutorError(
                    f"{node.name}: could not resolve a concrete shape "
                    f"for output {index} ({shape})")
            outputs.append(self.allocate_output(node, index, dtype, shape))
        return outputs
