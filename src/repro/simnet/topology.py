"""Cluster topology: hosts, their NICs and TCP stacks, a name service.

A :class:`Cluster` owns the simulator and a set of :class:`Host`
objects.  Each host has one RDMA NIC and one TCP stack sharing nothing
(the experiments never mix transports within a run).  Hosts are
addressed by ``Endpoint`` (host name + port), matching the paper's
device interface which identifies peers by IP address and port.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional

from ..observability.tracer import Tracer
from .costmodel import CostModel, DEFAULT_COST_MODEL
from .cpu import CpuEngine
from .fabric import Fabric
from .faults import FaultInjector
from .metrics import MetricsCollector
from .memory import AddressSpace, Backing, Buffer
from .nic import RdmaNic
from .simulator import Simulator
from .tcp import TcpStack


@dataclass(frozen=True, order=True)
class Endpoint:
    """A network endpoint: host name plus port."""

    host: str
    port: int

    def __str__(self) -> str:
        return f"{self.host}:{self.port}"


class Host:
    """A simulated server: address space, RDMA NIC, TCP stack."""

    def __init__(self, cluster: "Cluster", name: str) -> None:
        self.cluster = cluster
        self.name = name
        self.sim = cluster.sim
        self.cost = cluster.cost
        self.address_space = AddressSpace(name)
        self.nic = RdmaNic(self.sim, self, self.cost)
        self.tcp = TcpStack(self.sim, self, self.cost)
        #: bounded lanes for per-byte communication CPU work (RPC
        #: serialization and copies contend here; one-sided RDMA does not)
        self.cpu = CpuEngine(self.sim, self.cost.rpc_copy_threads)
        #: callbacks fired when a one-sided transfer finishes committing
        #: into this host's memory.  Pollers (the flag-byte receivers of
        #: §3.2) park on idle backoff purely to bound simulator events; a
        #: real spinning poller would observe the flag within its poll
        #: interval, so arrival wakes them immediately.  Each is called
        #: as ``listener(backing, lo, hi)``.
        self.wake_listeners: List[Callable[[Optional[Backing], int, int],
                                           None]] = []

    def notify_memory_commit(self, backing: Optional[Backing] = None,
                             lo: int = 0, hi: int = 0) -> None:
        """Wake parked executors: data just landed in memory.

        ``backing`` and the byte range ``[lo, hi)`` name what landed, so
        a poller whose flag lies elsewhere need not look again; without
        them every poller on the host re-reads its flag.
        """
        for listener in self.wake_listeners:
            listener(backing, lo, hi)

    def allocate(self, size: int, label: str = "",
                 dense: Optional[bool] = None) -> Buffer:
        """Allocate host memory (not yet RDMA-registered)."""
        return self.address_space.allocate(size, label=label, dense=dense)

    def __repr__(self) -> str:
        return f"Host({self.name!r})"


class Cluster:
    """A set of simulated hosts sharing one event loop and cost model."""

    def __init__(self, num_hosts: int, cost: Optional[CostModel] = None,
                 name_prefix: str = "server",
                 fabric: Optional[Fabric] = None) -> None:
        if num_hosts < 1:
            raise ValueError("cluster needs at least one host")
        self.sim = Simulator()
        self.cost = cost or DEFAULT_COST_MODEL
        #: explicit fabric graph (multi-rack topologies); None keeps the
        #: flat full-bisection model where the NIC pipes are the only
        #: contention points — and keeps its timing bit-identical
        self.fabric = fabric
        if fabric is not None:
            known = set(fabric.hosts())
            missing = [f"{name_prefix}{i}" for i in range(num_hosts)
                       if f"{name_prefix}{i}" not in known]
            if missing:
                raise ValueError(
                    f"fabric is missing host nodes for {missing[:4]}"
                    + ("..." if len(missing) > 4 else ""))
        self.hosts: List[Host] = [
            Host(self, f"{name_prefix}{i}") for i in range(num_hosts)]
        self._by_name: Dict[str, Host] = {h.name: h for h in self.hosts}
        #: out-of-band service registry (endpoint -> listener object);
        #: used for connection setup, never on a measured critical path
        self.services: Dict[Endpoint, object] = {}
        #: transfer metrics, off unless :meth:`enable_metrics` is called
        self.metrics: Optional[MetricsCollector] = None
        #: span tracing, off unless :meth:`enable_tracing` is called;
        #: instrumented fast paths pay one attribute check when None
        self.tracer: Optional[Tracer] = None
        #: fault plane, off unless :meth:`install_faults` is called; the
        #: NICs consult it on every posted data verb (one None-check on
        #: the fast path, so fault-free timing stays bit-identical)
        self.fault_plane: Optional[FaultInjector] = None

    def enable_metrics(self) -> MetricsCollector:
        """Record every wire transfer (see :mod:`repro.simnet.metrics`)."""
        if self.metrics is None:
            self.metrics = MetricsCollector()
        return self.metrics

    def enable_tracing(self, budget=None, telemetry=None) -> Tracer:
        """Record timestamped spans (see :mod:`repro.observability`).

        ``budget`` (a :class:`~repro.observability.TraceBudget`) bounds
        span retention for fleet-scale runs; ``telemetry`` (a
        :class:`~repro.observability.Telemetry`) digests every span
        into fixed-memory streaming series before any sampling.
        """
        if self.tracer is None:
            self.tracer = Tracer(budget=budget, telemetry=telemetry)
        if self.fabric is not None:
            # Uplink queueing becomes link_queue spans for stall reports.
            self.fabric.tracer = self.tracer
        return self.tracer

    def install_faults(self, injector: FaultInjector) -> FaultInjector:
        """Install a fault plane (see :mod:`repro.simnet.faults`)."""
        self.fault_plane = injector
        return injector

    def __len__(self) -> int:
        return len(self.hosts)

    def __iter__(self) -> Iterator[Host]:
        return iter(self.hosts)

    def host(self, name: str) -> Host:
        """Resolve a host by name (the simulated name service)."""
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"no host named {name!r} in cluster "
                           f"({sorted(self._by_name)})")

    def resolve(self, endpoint: Endpoint) -> Host:
        return self.host(endpoint.host)
