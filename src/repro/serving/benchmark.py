"""End-to-end serving benchmark: one deployment, one result row.

Builds a ``2 + replicas``-host cluster — ``hosts[0]`` the router (and
TCP ingest point for clients), ``hosts[1]`` the trainer, the rest one
replica each — wires the request plane (load generator -> admission ->
dynamic batcher -> dispatch) and the weight-publication plane
(trainer -> double-buffered arenas) over RDMA devices, optionally
co-locates background training traffic, and drives the whole thing
until every request reached a terminal state (completed, shed, or
failed).

The SLO comparison this exists for: with ``priority_sched=True`` the
cost model runs the priority quantum wire scheduler, so
serving-tagged transfers (priority 100) preempt multi-megabyte
training writes at quantum boundaries; with ``priority_sched=False``
the same traffic runs FIFO and inference tails absorb whole bulk
bookings.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Generator, List, Optional, Tuple

from ..core.device import DeviceError, Direction, RdmaDevice
from ..core.publication import build_publication, park_until
from ..core.recovery import RecoveryManager, RetryPolicy
from ..models.spec import ModelSpec
from ..observability.anomaly import slo_burn_alerts
from ..observability.registry import Histogram, MetricsRegistry
from ..simnet.costmodel import (DEFAULT_COST_MODEL,
                                DEFAULT_WIRE_QUANTUM_BYTES, MB)
from ..simnet.faults import FaultInjector
from ..simnet.simulator import Simulator
from ..simnet.topology import Cluster, Endpoint
from ..simnet.verbs import ROLE_TRAIN_SYNC, TRAIN_SYNC_PRIORITY
from .batcher import DynamicBatcher
from .config import ServingConfig
from .frontend import Router
from .load import LoadGenerator
from .replica import Replica


#: base port for the per-host serving RDMA devices
_SERVING_PORT = 7300

#: bytes of one background training-sync transfer to each replica
BACKGROUND_BYTES = 32 * MB

#: sim seconds between two weight snapshots the trainer publishes
PUBLISH_INTERVAL = 25e-3


@dataclass
class ServingResult:
    """Everything one serving run measured, JSON-ready."""

    model: str
    replicas: int
    qps: float
    max_batch: int
    batch_timeout: float
    slo_ms: float
    seed: int
    priority_sched: bool
    background_training: bool
    fault_spec: Optional[str]
    total: int
    completed: int
    shed: int
    failed: int
    makespan: float
    throughput_rps: float
    slo_attainment: float
    latency: Dict[str, float]
    mean_batch_size: float
    publishes: int
    swaps: int
    torn_serves: int
    staleness: Dict[str, float] = field(default_factory=dict)
    replica_deaths: int = 0
    observability: Dict = field(default_factory=dict)
    #: SLO burn-rate alerts (structured Incident dicts, sim-timestamped)
    incidents: List[Dict] = field(default_factory=list)

    def to_dict(self) -> Dict:
        return {
            "model": self.model, "replicas": self.replicas,
            "qps": self.qps, "max_batch": self.max_batch,
            "batch_timeout": self.batch_timeout, "slo_ms": self.slo_ms,
            "seed": self.seed,
            "priority_sched": self.priority_sched,
            "background_training": self.background_training,
            "fault_spec": self.fault_spec,
            "total": self.total, "completed": self.completed,
            "shed": self.shed, "failed": self.failed,
            "makespan": self.makespan,
            "throughput_rps": self.throughput_rps,
            "slo_attainment": self.slo_attainment,
            "latency": self.latency,
            "mean_batch_size": self.mean_batch_size,
            "publishes": self.publishes, "swaps": self.swaps,
            "torn_serves": self.torn_serves, "staleness": self.staleness,
            "replica_deaths": self.replica_deaths,
            "incidents": self.incidents,
        }


def run_serving_benchmark(
        spec: ModelSpec, *, config: ServingConfig = ServingConfig(),
        requests: int = 400, seed: int = 0,
        priority_sched: bool = True, background_training: bool = False,
        fault_spec: Optional[str] = None, fault_seed: int = 0,
        retry_policy: Optional[RetryPolicy] = None,
        dispatch_timeout: float = 0.1,
        kill_replica: Optional[Tuple[int, float]] = None,
        time_limit: float = 600.0, **overrides) -> ServingResult:
    """Run one serving deployment to completion; returns its result.

    The deployment shape (replicas, offered qps, batcher, SLO) is
    ``config`` with ``overrides`` applied —
    :class:`~repro.serving.config.ServingConfig` fields by name,
    validated like any other construction.

    ``kill_replica=(rank, at)`` crashes one replica mid-run to
    exercise the router's timeout detection and rerouting.  A fault
    spec arms the chaos plane *and* routes every publication verb
    through the recovery layer, the combination the torn-read chaos
    sweep asserts against.
    """
    config = replace(config, **overrides)
    replicas, max_batch = config.replicas, config.max_batch
    cost = DEFAULT_COST_MODEL
    if priority_sched:
        cost = replace(cost, wire_quantum_bytes=DEFAULT_WIRE_QUANTUM_BYTES)
    cluster = Cluster(2 + replicas, cost=cost, name_prefix="serve")
    sim = cluster.sim
    if fault_spec:
        cluster.install_faults(
            FaultInjector.from_spec(fault_spec, seed=fault_seed))
    metrics = MetricsRegistry()

    devices = [RdmaDevice.create(host, 2, 2,
                                 Endpoint(host.name, _SERVING_PORT + i))
               for i, host in enumerate(cluster.hosts)]
    router_device, trainer_device = devices[0], devices[1]
    replica_devices = devices[2:]

    recovery = (RecoveryManager(sim, cost, policy=retry_policy)
                if fault_spec else None)
    publisher, subscribers = build_publication(
        trainer_device, replica_devices, spec, recovery=recovery,
        metrics=metrics, qp_idx=0)

    replica_objs = [
        Replica(rank, cluster, device, spec, max_batch=max_batch,
                subscriber=subscribers[rank], metrics=metrics)
        for rank, device in enumerate(replica_devices)
    ]
    batcher = DynamicBatcher(sim, max_batch, config.batch_timeout,
                             metrics=metrics)
    router = Router(router_device, batcher, max_batch=max_batch,
                    dispatch_timeout=dispatch_timeout, metrics=metrics)
    for replica in replica_objs:
        router.attach_replica(replica)
    load = LoadGenerator(sim, router, qps=config.qps, count=requests,
                         seed=seed)

    background_stop = {"flag": False}
    if background_training:
        bg_src = trainer_device.allocate_mem_region(
            BACKGROUND_BYTES, label="train-sync-src")
        for rank, device in enumerate(replica_devices):
            sink = device.allocate_mem_region(
                BACKGROUND_BYTES, label=f"train-sync-sink[{rank}]")
            channel = trainer_device.get_channel(device.endpoint, 1)
            sim.spawn(_background_traffic(sim, channel, bg_src,
                                          sink.descriptor(),
                                          BACKGROUND_BYTES,
                                          background_stop),
                      name=f"train-sync-{rank}")

    for subscriber in subscribers:
        sim.spawn(subscriber.watch(), name=f"sub-{subscriber.rank}")
    for replica in replica_objs:
        sim.spawn(replica.serve(), name=f"serve-{replica.rank}")
    sim.spawn(batcher.run(), name="batcher")
    sim.spawn(router.dispatcher(), name="dispatcher")
    sim.spawn(router.response_poller(), name="resp-poller")
    sim.spawn(publisher.run(PUBLISH_INTERVAL), name="publisher")
    sim.spawn(load.run(), name="load")
    if kill_replica is not None:
        rank, at = kill_replica
        sim.spawn(_killer(sim, replica_objs[rank], at), name="killer")

    def main() -> Generator:
        yield load.done
        yield from park_until(sim, router.host,
                              lambda: router.drained(requests))

    sim.run_until_complete(sim.spawn(main(), name="serving-main"),
                           limit=time_limit)
    makespan = sim.now
    background_stop["flag"] = True
    publisher.stop()
    for subscriber in subscribers:
        subscriber.stop()
    for replica in replica_objs:
        replica.stop()
    router.stop()

    hist = Histogram("serving.latency_s")
    for latency in router.latencies:
        hist.observe(latency)
    slo = config.slo_ms * 1e-3
    attained = sum(1 for latency in router.latencies if latency <= slo)
    incidents = [incident.to_dict() for incident in
                 slo_burn_alerts(router.latency_samples, slo)]
    batch_hist = metrics.histograms.get("serving.batch_size")
    staleness_hist = metrics.histograms.get("serving.staleness_versions")
    return ServingResult(
        model=spec.name, replicas=replicas, qps=config.qps,
        max_batch=max_batch, batch_timeout=config.batch_timeout,
        slo_ms=config.slo_ms,
        seed=seed, priority_sched=priority_sched,
        background_training=background_training,
        fault_spec=fault_spec, total=requests,
        completed=router.completed, shed=router.shed, failed=router.failed,
        makespan=makespan,
        throughput_rps=(router.completed / makespan if makespan > 0
                        else 0.0),
        slo_attainment=(attained / len(router.latencies)
                        if router.latencies else 0.0),
        latency=hist.to_dict(),
        mean_batch_size=batch_hist.mean if batch_hist is not None else 0.0,
        publishes=publisher.publishes,
        swaps=sum(s.swaps for s in subscribers),
        torn_serves=sum(r.torn_serves for r in replica_objs),
        staleness=(staleness_hist.to_dict()
                   if staleness_hist is not None else {}),
        replica_deaths=router.replica_deaths,
        observability=metrics.to_dict(),
        incidents=incidents)


def _background_traffic(sim: Simulator, channel, src, sink_remote,
                        chunk_bytes: int, stop: Dict[str, bool]) -> Generator:
    """Process: saturate one trainer->replica lane with bulk writes.

    Models gradient-synchronization traffic sharing the wire with the
    serving plane: back-to-back multi-megabyte writes at training
    priority.  Injected faults on this role are absorbed (training has
    its own recovery story; here it only exists to contend).
    """
    while not stop["flag"]:
        try:
            yield channel.memcpy_event(
                src.addr, src, sink_remote.addr, sink_remote, chunk_bytes,
                Direction.LOCAL_TO_REMOTE, role=ROLE_TRAIN_SYNC,
                priority=TRAIN_SYNC_PRIORITY)
        except DeviceError:
            pass
        yield (50e-6)


def _killer(sim: Simulator, replica: Replica, at: float) -> Generator:
    yield (at)
    replica.fail()
