"""Session: binds a graph to a simulated cluster and runs iterations.

Mirrors TensorFlow's session (§4): the graph is finalized, partitioned
by device, each partition gets an executor on its host, the transfer
mechanism prepares (this is where the RDMA graph analyzer runs), and
then mini-batch iterations execute until done.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..observability.tracer import executor_track
from ..simnet.simulator import SimulationError
from ..simnet.topology import Cluster, Host
from .executor import Executor, ExecutorError
from .node import Graph
from .partition import PartitionedGraph, partition
from .tensor import Tensor
from .transfer_api import CommRuntime, NullComm


@dataclass
class RunStats:
    """Timing results of a session run."""

    iterations: int
    iteration_times: List[float] = field(default_factory=list)
    #: absolute simulated clock at each iteration's end — lets metrics
    #: consumers window on "after warm-up" without re-deriving offsets
    iteration_end_times: List[float] = field(default_factory=list)
    total_time: float = 0.0
    #: snapshot of the tracer's metrics registry (counters/histograms),
    #: populated when the cluster ran with tracing enabled
    observability: Optional[Dict] = None
    #: injected faults + recovery counters, populated only when the
    #: cluster ran with an armed fault plane
    faults: Optional[Dict] = None

    @property
    def steady_state_time(self) -> float:
        """Mean iteration time excluding the first (warm-up/tracing)."""
        tail = self.iteration_times[1:] or self.iteration_times
        if not tail:
            return 0.0
        return sum(tail) / len(tail)

    @property
    def throughput(self) -> float:
        """Iterations (mini-batches) per second, steady state."""
        steady = self.steady_state_time
        return 1.0 / steady if steady > 0 else float("inf")


class Session:
    """Owns executors for every partition of one (replicated) graph."""

    def __init__(self, cluster: Cluster, graph: Graph,
                 device_hosts: Dict[str, Host],
                 comm: Optional[CommRuntime] = None,
                 priority_sched: bool = False) -> None:
        self.cluster = cluster
        self.sim = cluster.sim
        self.graph = graph
        self.comm = comm or NullComm()
        self.partitioned: PartitionedGraph = partition(graph)
        missing = [d for d in self.partitioned.devices if d not in device_hosts]
        if missing:
            raise ExecutorError(f"no host mapping for devices {missing}")
        self.executors: Dict[str, Executor] = {
            device: Executor(device_hosts[device],
                             self.partitioned.subgraphs[device],
                             device, self.comm,
                             priority_sched=priority_sched)
            for device in self.partitioned.devices
        }
        # Mechanism setup (RDMA analyzer, RPC servers/channels, ...).
        self.comm.prepare(self)
        for executor in self.executors.values():
            executor.initialize_variables()
        #: iterations issued through :meth:`iteration_process` (detached
        #: mode); kept separate from :meth:`run`'s loop counter
        self._detached_iterations = 0

    # -- running -------------------------------------------------------------------------

    def run(self, iterations: int = 1,
            feeds: Optional[Dict[str, np.ndarray]] = None,
            time_limit: float = 3600.0) -> RunStats:
        """Execute ``iterations`` mini-batches; returns timing stats.

        ``feeds`` are the placeholder feeds of every iteration.
        """
        stats = RunStats(iterations=iterations)
        start_total = self.sim.now
        for iteration in range(iterations):
            self.comm.on_iteration_start(self, iteration)
            start = self.sim.now
            procs = [
                self.sim.spawn(executor.run_iteration(feeds),
                               name=f"exec-{device}-it{iteration}")
                for device, executor in self.executors.items()
            ]
            barrier = self.sim.all_of(procs)
            try:
                # Reads the barrier's value, so raises what an executor raised.
                self.sim.run_until_complete(barrier, start_total + time_limit)
            except SimulationError as exc:
                if barrier.triggered:
                    raise  # an executor's own error, not the loop's
                raise SimulationError(f"{exc} in iteration {iteration}") from None
            stats.iteration_times.append(self.sim.now - start)
            stats.iteration_end_times.append(self.sim.now)
            if self.cluster.tracer is not None:
                self.cluster.tracer.mark_iteration(iteration, start,
                                                   self.sim.now)
                self._sample_telemetry(iteration, start, self.sim.now)
        stats.total_time = self.sim.now - start_total
        if self.cluster.tracer is not None:
            stats.observability = self.cluster.tracer.metrics.to_dict()
        plane = self.cluster.fault_plane
        if plane is not None and plane.armed:
            recovery = getattr(self.comm, "recovery_snapshot", lambda: None)
            stats.faults = {"injected": plane.snapshot(),
                            "recovery": recovery()}
        return stats

    def _sample_telemetry(self, iteration: int, start: float,
                          end: float) -> None:
        """Feed the per-iteration telemetry digest (O(hosts + links)).

        Called once per iteration when tracing is on; each sample is a
        single number per host / trunk link, so the streaming series
        stay fixed-memory however long the run.  Pure bookkeeping —
        never yields, so traced clocks stay bit-identical.
        """
        tracer = self.cluster.tracer
        telemetry = tracer.telemetry
        if telemetry is not None:
            telemetry.observe("iteration_time", end, end - start)
            for device, executor in self.executors.items():
                track = executor_track(device)
                bucket = tracer.breakdowns.get(
                    (executor.host.name, track, iteration))
                if bucket:
                    telemetry.observe_host("step_time", executor.host.name,
                                           end, sum(bucket.values()))
        fabric = self.cluster.fabric
        if fabric is not None and end > 0:
            for link in fabric.trunk_links():
                tracer.metrics.gauge(
                    f"link_utilization:{link.name}").sample(
                        end, link.utilization(end))

    def iteration_process(self, feeds: Optional[Dict[str, np.ndarray]] = None):
        """Spawn one iteration as an event without driving the simulator.

        :meth:`run` owns the event loop (it runs the simulator until
        its barrier fires), which makes a session the *only* activity
        in the cluster.  The serving plane instead runs many sessions
        plus routers, pollers and load generators on one simulator, so
        it needs the forward pass as a composable event: this spawns
        every executor's ``run_iteration`` and returns the ``AllOf``
        barrier, leaving the caller to ``yield`` it inside its own
        process.  The session is reused across calls — variables stay
        resident, allocations persist — which is exactly the
        long-lived-session reuse a model server relies on.
        """
        iteration = self._detached_iterations
        self._detached_iterations += 1
        self.comm.on_iteration_start(self, iteration)
        procs = [
            self.sim.spawn(executor.run_iteration(dict(feeds or {})),
                           name=f"exec-{device}-serve{iteration}")
            for device, executor in self.executors.items()
        ]
        return self.sim.all_of(procs)

    # -- inspection ------------------------------------------------------------------------

    def value(self, node_name: str, index: int = 0) -> Tensor:
        """Fetch an output tensor produced in the last iteration."""
        for executor in self.executors.values():
            if (node_name, index) in executor.values:
                return executor.values[(node_name, index)]
        raise ExecutorError(f"no value recorded for {node_name}:{index}")

    def numpy(self, node_name: str, index: int = 0) -> np.ndarray:
        """Fetch an output as a numpy array (dense tensors only)."""
        return self.value(node_name, index).array.copy()

    def variable(self, name: str) -> Tensor:
        for executor in self.executors.values():
            if name in executor.variables:
                return executor.variables[name]
        raise ExecutorError(f"unknown variable {name!r}")

    def executor_for(self, device: str) -> Executor:
        return self.executors[device]
