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
  neither starves real work nor spins the simulated CPU.

Each executor owns the allocators for its device; allocation of every
op output goes through :meth:`allocate_output`, which consults the
session's allocation policy — the hook the dynamic tracer (§3.4) uses
to steer traced allocation sites into the RDMA arena.
"""

from __future__ import annotations

import itertools
from collections import deque
from heapq import heappop, heappush
from typing import Any, Deque, Dict, Generator, Iterator, List, Optional, Tuple

import numpy as np

from ..observability.tracer import executor_track
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
                 comm: CommRuntime, allocation_policy=None,
                 priority_sched: bool = False) -> None:
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
        #: (node_name, alloc_index) -> BaseAllocator override
        self.allocation_policy = allocation_policy or (lambda node, idx: None)
        self.variables: Dict[str, Tensor] = {}
        #: receiver-side tensors preallocated by the analyzer (key -> Tensor)
        self.preallocated_recv: Dict[str, Tensor] = {}
        self.values: Dict[Tuple[str, int], Tensor] = {}
        self.iteration = -1
        self.ops_executed = 0
        self.poll_misses = 0
        self._order = graph.topological_order()
        self._wake: Optional[Event] = None
        # Remote one-sided writes landing in this host's memory wake
        # the ready loop so flag pollers re-check without waiting out
        # their idle backoff (the backoff only bounds simulator events;
        # a real spinning poller sees the flag within its poll interval).
        host.wake_listeners.append(self._notify)
        #: per-iteration allocations, reclaimed at the next iteration
        self._transient: List[Tuple[BaseAllocator, Tensor]] = []

    # -- allocation -----------------------------------------------------------------

    def pick_allocator(self, node_name: str, alloc_index: int) -> BaseAllocator:
        override = self.allocation_policy(node_name, alloc_index)
        if override is not None:
            return override
        return self.heap

    def allocate_output(self, node: Node, index: int, dtype: DType,
                        shape: Shape, dense: Optional[bool] = None) -> Tensor:
        """Allocate storage for output ``index`` of ``node``.

        Allocations made during an iteration are transient: their
        storage is reclaimed when the next iteration starts (mirroring
        the runtime's per-step tensor lifetime).  Variable storage is
        allocated before iteration 0 and lives forever.

        Storage follows content: a caller whose output nothing can read
        (its inputs are untracked, or the op computes nothing) passes
        ``dense=False`` and gets a size-only buffer whatever its size;
        ``None`` leaves the choice to the allocator (real bytes up to
        ``DENSE_LIMIT``).
        """
        allocator = self.pick_allocator(node.name, index)
        tensor = allocator.allocate_tensor(dtype, shape,
                                           node_name=node.name,
                                           alloc_index=index, dense=dense)
        if self.iteration >= 0:
            self._transient.append((allocator, tensor))
        return tensor

    # -- variables ---------------------------------------------------------------------

    def initialize_variables(self) -> None:
        """Allocate persistent variable storage (iteration -1 work)."""
        for node in self.graph.nodes_of_type("Variable"):
            shape = node.attrs["shape"]
            dtype = node.attrs["dtype"]
            if not shape.is_fully_defined:
                raise ExecutorError(f"variable {node.name} needs static shape")
            tensor = self.allocate_output(node, 0, dtype, shape)
            init = node.attrs.get("initializer")
            if init is not None and tensor.is_dense:
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
        deps = self.graph.dependency_map()
        pending: Dict[str, int] = {name: len(d) for name, d in deps.items()}
        dependents: Dict[str, List[str]] = {name: [] for name in pending}
        for name, dep_names in deps.items():
            for dep in dep_names:
                dependents[dep].append(name)

        ready = _ReadyQueue((node for node in self._order
                             if pending[node.name] == 0),
                            priority=self.priority_sched)
        in_flight = 0
        completed = 0
        total = len(self._order)
        #: nodes currently in their polling phase: node -> Outcome
        polling: Dict[str, Outcome] = {}
        idle_backoff = self.cost.idle_poll_interval
        #: misses since the last wake-up/hit; the executor only parks
        #: after a full sweep of the pollers has missed, so one wake-up
        #: (arriving data) gets every flag checked, not just one
        sweep_misses = 0
        # Every yield below is bracketed with tracer.account() so the
        # per-category sums partition this iteration's wall time exactly
        # (sim time only advances across yields) — the invariant the
        # stall-attribution report depends on.
        tracer = self.host.cluster.tracer
        track = executor_track(self.device)
        hostname = self.host.name
        iteration = self.iteration
        polls_since_park = 0
        # Hot-path locals: the loop and the poll callbacks below run
        # once per node visit (every poll miss included), so attribute
        # loads add up at 100+ simulated hosts.
        sim = self.sim
        sched_dispatch = self.cost.sched_dispatch
        poll_check = self.cost.poll_check
        poll_requeue = self.cost.poll_requeue
        graph_node = self.graph.node
        #: count of queued nodes NOT in their polling phase — the O(1)
        #: replacement for sweeping the whole queue on every poll miss
        fresh_in_queue = len(ready)

        def finish(node: Node, outputs: List[Tensor]) -> None:
            nonlocal completed, fresh_in_queue
            for index, tensor in enumerate(outputs):
                self.values[(node.name, index)] = tensor
            completed += 1
            for dependent in dependents[node.name]:
                pending[dependent] -= 1
                if pending[dependent] == 0:
                    ready.append(graph_node(dependent))
                    fresh_in_queue += 1
            self._notify()

        # A poll visit is two plain heap callbacks, not two generator
        # round trips: ``check`` when the dispatch and the flag read end,
        # ``requeue`` when a miss has rejoined the tail.  Meanwhile the
        # generator is suspended, with no heap entry of its own, until a
        # visit hits, pops a fresh node, or a whole sweep has missed.
        # The callbacks make exactly the pushes the two yields made, at
        # the same instants in the same order, so every (when, seq) in
        # the heap — hence every clock — is what it was.
        # They share the loop's ``node`` and its polling ``outcome``, and
        # the visit's clock, carried so that no callback reads it: the
        # span being accounted starts at t0, the flag is read at t2.
        me = sim.active_process
        fifo = ready._fifo

        def check() -> None:
            nonlocal t0, polls_since_park
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
            self.poll_misses += 1
            t0 = t2 + poll_requeue  # where the next visit starts
            sim.call_at(t0, requeue)

        def requeue() -> None:
            nonlocal node, outcome, t2, sweep_misses
            if tracer is not None:
                tracer.account(hostname, track, iteration, "poll",
                               t2, t0, emit=False)
            fifo.append(node)  # at the tail: a retry never jumps the line
            sweep_misses += 1
            if fresh_in_queue == 0 and sweep_misses >= len(fifo):
                me.resume(True)  # a whole sweep missed: park
                return
            node = ready.popleft()
            outcome = polling.get(node.name)
            if outcome is None:
                me.resume()  # a fresh node: the generator runs it
            else:
                t2 = t0 + sched_dispatch + poll_check
                sim.call_at(t2, check)

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
                    tracer.account(hostname, track, iteration, "wire_wait",
                                   t0, sim.now)
                continue
            node = ready.popleft()
            t0 = sim.now
            outcome = polling.get(node.name)
            if outcome is not None:
                t2 = t0 + sched_dispatch + poll_check
                sim.call_at(t2, check)
                if (yield SUSPEND):  # until ``node`` is a hit or fresh, or:
                    # A whole sweep of pollers missed and nothing
                    # else is runnable: idle with growing backoff so
                    # polling does not monopolize the simulated CPU.
                    t0 = sim.now
                    yield self._wait_for_wake(timeout=idle_backoff)
                    if tracer is not None:
                        tracer.account(hostname, track, iteration,
                                       "poll_wait", t0, sim.now)
                        tracer.metrics.histogram(
                            "poll_iterations_per_wake").observe(
                                polls_since_park)
                        polls_since_park = 0
                    idle_backoff = min(idle_backoff * 2, _IDLE_BACKOFF_MAX)
                    sweep_misses = 0
                    continue
            if outcome is not None:  # the visit hit
                idle_backoff = self.cost.idle_poll_interval
                sweep_misses = 0
                del polling[node.name]
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
                in_flight += 1
                ready.append(node, retry=True)
            else:  # pragma: no cover - defensive
                raise ExecutorError(f"bad outcome kind {next_outcome.kind}")

    def _wait_for_wake(self, timeout: Optional[float] = None) -> Event:
        if self._wake is None or self._wake.triggered:
            self._wake = self.sim.event()
        if timeout is None:
            return self._wake
        return self.sim.any_of([self._wake, self.sim.timeout(timeout)])

    def _notify(self) -> None:
        if self._wake is not None and not self._wake.triggered:
            self._wake.succeed()

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
                    self._detached_send(result),
                    name=f"send-{node.name}"))
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
            outputs = [self.allocate_output(node, i, dtype, shape, dense=False)
                       for i, (dtype, shape)
                       in enumerate(zip(node.output_dtypes, node.output_shapes))]
            return Outcome.done(outputs)

        return Outcome.done(self._run_compute(node, op, inputs))

    def _detached_send(self, send_generator) -> Generator:
        """Run a send's process to completion, resolving its outcome."""
        outcome = yield from send_generator
        if outcome.kind == "sync":
            return outcome.outputs or []
        if outcome.kind == "async":
            value = yield outcome.event
            return value or []
        raise ExecutorError("sends cannot use the polling mode")

    def _feed_tensor(self, node: Node, feeds: Dict[str, np.ndarray]) -> Tensor:
        if node.name not in feeds:
            raise ExecutorError(f"no feed for placeholder {node.name!r}")
        values = np.asarray(feeds[node.name],
                            dtype=node.output_dtypes[0].np)
        tensor = self.allocate_output(node, 0, node.output_dtypes[0],
                                      Shape(values.shape))
        if tensor.is_dense:
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
                if tensor.is_dense:
                    tensor.copy_from(array)
                outputs.append(tensor)
            return outputs
        # Virtual path: contents are not tracked, so the outputs are
        # size-only whatever their size and everything downstream of
        # them does no byte work; partially-unknown static shapes are
        # resolved from the runtime input shapes.
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
            outputs.append(self.allocate_output(node, index, dtype, shape,
                                                dense=False))
        return outputs
