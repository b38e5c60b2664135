"""The paper's transfer mechanism as a pluggable CommRuntime.

``RdmaCommRuntime`` is what the evaluation calls **RDMA** (zero-copy,
fully analyzed); constructing it with ``zero_copy=False`` yields
**RDMA.cp** (graph analysis for sender-side placement turned off, so
every send stages through a registered buffer with a real memcpy —
the Figure 8/12 comparison).  ``gpu_tensors=True`` models tensors in
GPU memory: without ``gpudirect`` every transfer pays PCIe staging on
both ends; with it the NIC accesses GPU memory directly and tensor
transfer always uses the dynamic protocol so polling stays on the CPU
(§3.5, Table 3).
"""

from __future__ import annotations

import zlib
from itertools import chain
from typing import Dict, List, Optional, Tuple

from ..graph.allocator import ArenaAllocator
from ..graph.executor import Executor
from ..graph.node import Node
from ..graph.tensor import Tensor, TensorMeta
from ..graph.transfer_api import CommRuntime, Outcome
from ..simnet.topology import Endpoint
from .address_book import attach_address_book
from .analyzer import DevicePlan, RdmaGraphAnalyzer
from .device import DeviceError, MemRegion, RdmaDevice
from .innetwork import InNetworkRuntime
from .recovery import RecoveryManager, RetryPolicy
from .tracing import AllocationSiteTracer
from .transfer import (DynamicReceiver, DynamicSender, StaticReceiver,
                       StaticSender, TransferState)


_PORT_BASE = 7100


class RdmaCommRuntime(CommRuntime):
    """Tensor transfer over the RDMA device library (paper §3-§4)."""

    def __init__(self, zero_copy: bool = True, num_cqs: int = 4,
                 num_qps_per_peer: int = 4, gpu_tensors: bool = False,
                 gpudirect: bool = False, force_dynamic: bool = False,
                 retry_policy: Optional[RetryPolicy] = None,
                 qp_mode: str = "rc") -> None:
        if gpudirect and not gpu_tensors:
            raise DeviceError("gpudirect requires gpu_tensors")
        self.zero_copy = zero_copy
        self.num_cqs = num_cqs
        self.num_qps_per_peer = num_qps_per_peer
        self.qp_mode = qp_mode
        self.gpu_tensors = gpu_tensors
        self.gpudirect = gpudirect
        # GPUDirect always transfers through the dynamic protocol (§3.5).
        self.force_dynamic = force_dynamic or gpudirect
        self.name = "RDMA" if zero_copy else "RDMA.cp"
        if gpudirect:
            self.name += "+GDR"
        self.state = TransferState()
        self.devices: Dict[str, RdmaDevice] = {}
        self.endpoints: Dict[str, Endpoint] = {}
        self.arena_regions: Dict[str, MemRegion] = {}
        self.tracers: Dict[str, AllocationSiteTracer] = {}
        self.senders: Dict[str, object] = {}
        self.receivers: Dict[str, object] = {}
        self.registration_seconds = 0.0
        self.retry_policy = retry_policy
        #: built in :meth:`prepare` iff the cluster's fault plane is
        #: armed: then every transfer is retried until its bytes land,
        #: payload confirmed before its flag; None posts each verb once
        self.recovery: Optional[RecoveryManager] = None
        #: built in :meth:`prepare` iff the graph contains
        #: ``InNetworkReduce`` nodes (switch-aggregated allreduce)
        self.innetwork: Optional[InNetworkRuntime] = None

    # -- setup -------------------------------------------------------------------------

    def prepare(self, session) -> None:
        plans = RdmaGraphAnalyzer(session.partitioned,
                                  force_dynamic=self.force_dynamic).plan()

        plane = session.cluster.fault_plane
        if plane is not None and plane.armed:
            # Lossy fabrics drop individual packets rather than whole
            # verbs: recover at chunk granularity instead of re-sending
            # whole transfers.
            self.recovery = RecoveryManager(
                session.sim, session.cluster.cost,
                policy=self.retry_policy, tracer=session.cluster.tracer,
                lossy=plane.has_loss)

        for index, device_name in enumerate(sorted(session.executors)):
            executor = session.executors[device_name]
            endpoint = Endpoint(executor.host.name, _PORT_BASE + index)
            device = RdmaDevice.create(executor.host, self.num_cqs,
                                       self.num_qps_per_peer, endpoint,
                                       qp_mode=self.qp_mode)
            attach_address_book(device)
            self.devices[device_name] = device
            self.endpoints[device_name] = endpoint

        for device_name, executor in session.executors.items():
            self._prepare_device(session, executor, plans[device_name])

        # Switch-aggregated collectives: receive regions + the shared
        # aggregation plane, built only when the graph asks for them.
        runtime = InNetworkRuntime(self, session)
        if runtime.active:
            self.innetwork = runtime

    def _prepare_device(self, session, executor: Executor,
                        plan: DevicePlan) -> None:
        device = self.devices[plan.device]
        host = executor.host
        cost = host.cost

        arena_buffer = host.allocate(plan.arena_size,
                                     label=f"rdma-arena:{plan.device}")
        executor.arena = ArenaAllocator(arena_buffer,
                                        name=f"arena:{plan.device}")
        region = device.register_existing(arena_buffer)
        self.arena_regions[plan.device] = region
        # One registration for the whole arena; recorded so ablations
        # can compare against per-tensor registration.
        self.registration_seconds += cost.mr_register_time(plan.arena_size)
        span_tracer = host.cluster.tracer
        if span_tracer is not None:
            span_tracer.metrics.counter("arena_bytes_registered").add(
                plan.arena_size)

        if self.zero_copy:
            tracer = AllocationSiteTracer(executor)
            tracer.static_sites = set(plan.static_variable_sites)
            tracer.observe_arena(executor.arena)
            self.tracers[plan.device] = tracer

        book = device.address_book  # type: ignore[attr-defined]
        graph = session.partitioned.subgraphs[plan.device]
        for edge_plan in plan.edges_in:
            edge = edge_plan.edge
            recv_node = graph.node(edge.recv_node)
            if edge_plan.static:
                nbytes = edge.nbytes_static
                offset = executor.arena.allocate_block(nbytes + 1)
                tensor = Tensor(recv_node.attrs["dtype"],
                                recv_node.attrs["shape"],
                                arena_buffer, offset=offset)
                receiver = StaticReceiver(tensor,
                                          flag_offset_in_buffer=offset + nbytes)
                book.publish_raw(edge.key, addr=tensor.addr,
                                 rkey=region.rkey, size=nbytes + 1)
                executor.preallocated_recv[edge.key] = tensor
            else:
                ndims = recv_node.attrs["shape"].rank
                slot = device.allocate_mem_region(
                    TensorMeta.slot_size(ndims),
                    label=f"meta:{edge.key}")
                channel = device.get_channel(
                    self.endpoints[edge.src_device],
                    self._qp_for(edge.key))
                receiver = DynamicReceiver(
                    meta_region=slot, ndims=ndims, channel=channel,
                    arena=executor.arena, arena_region=region,
                    dtype=recv_node.attrs["dtype"],
                    priority=recv_node.attrs.get("priority", 0),
                    recovery=self.recovery)
                book.publish(f"{edge.key}#meta", slot)
            self.receivers[edge.key] = receiver

    def on_iteration_start(self, session, iteration: int) -> None:
        # Lazily bind senders the first time iterations begin (all
        # receivers across devices are published by then).
        if self.senders or not self.receivers:
            return
        self._bind_senders(session)

    def _bind_senders(self, session) -> None:
        """Fetch the senders' remote descriptors, one exchange per (device,
        peer) pair and all in one simulator run; build them in edge order."""
        collective_edges = getattr(session.partitioned.original,
                                   "collective_edges", frozenset())
        wanted: Dict[Tuple[str, str], List[str]] = {}
        for edge in session.partitioned.transfers:
            static = edge.static_shape and not self.force_dynamic
            wanted.setdefault((edge.src_device, edge.dst_device), []).append(
                edge.key if static else f"{edge.key}#meta")
        fetches = [session.sim.spawn(
            self.devices[src].address_book.lookup_many(  # type: ignore[attr-defined]
                self.endpoints[dst], keys), name=f"addr-lookup:{src}->{dst}")
            for (src, dst), keys in wanted.items()]
        fetched = session.sim.run_until_complete(session.sim.all_of(fetches))
        descriptors = dict(zip(chain(*wanted.values()), chain(*fetched)))
        for edge in session.partitioned.transfers:
            executor = session.executors[edge.src_device]
            device = self.devices[edge.src_device]
            channel = device.get_channel(self.endpoints[edge.dst_device],
                                         self._qp_for(edge.key))
            arena = executor.arena
            region = self.arena_regions[edge.src_device]
            graph = session.partitioned.subgraphs[edge.src_device]
            send_node = graph.node(edge.send_node)
            priority = send_node.attrs.get("priority", 0)
            if edge.static_shape and not self.force_dynamic:
                role = ("collective-chunk" if edge.key in collective_edges
                        else "static-write")
                self.senders[edge.key] = StaticSender(
                    channel=channel, remote=descriptors[edge.key],
                    nbytes=edge.nbytes_static, arena=arena,
                    arena_region=region, state=self.state,
                    role=role, key=edge.key, priority=priority,
                    recovery=self.recovery)
            else:
                ndims = send_node.inputs[0].shape.rank
                self.senders[edge.key] = DynamicSender(
                    channel=channel, meta_slot=descriptors[f"{edge.key}#meta"],
                    ndims=ndims, arena=arena, arena_region=region,
                    state=self.state, key=edge.key, priority=priority,
                    recovery=self.recovery)

    def recovery_snapshot(self) -> Optional[Dict[str, object]]:
        """Retry/fallback counters for ``RunStats.faults`` (or None)."""
        if self.recovery is None:
            return None
        return self.recovery.snapshot()

    def _qp_for(self, key: str) -> int:
        # crc32 rather than hash(): Python string hashing is salted
        # per process, which would stripe edges across QPs differently
        # from run to run and break cross-run determinism.
        return zlib.crc32(key.encode()) % self.num_qps_per_peer

    # -- staging delays (GPU) -------------------------------------------------------------

    def _gpu_delay(self, executor: Executor, nbytes: int) -> float:
        if not self.gpu_tensors or self.gpudirect:
            return 0.0
        return executor.cost.pcie_copy_time(nbytes)

    # -- the executor-facing interface -------------------------------------------------------

    def execute_send(self, executor: Executor, node: Node, tensor: Tensor):
        key = node.attrs["key"]
        sender = self.senders.get(key)
        if sender is None:
            raise DeviceError(f"no sender bound for edge {key!r}")
        tracer = self.tracers.get(executor.device)
        if tracer is not None:
            tracer.on_send(tensor)
        return sender.send(executor, tensor,
                           force_copy=not self.zero_copy,
                           extra_delay=self._gpu_delay(executor, tensor.nbytes))

    def execute_recv(self, executor: Executor, node: Node):
        key = node.attrs["key"]
        receiver = self.receivers.get(key)
        if receiver is None:
            raise DeviceError(f"no receiver bound for edge {key!r}")
        nbytes = 0
        if isinstance(receiver, StaticReceiver):
            nbytes = receiver.tensor.nbytes
            return receiver.make_outcome(
                executor, extra_delay=self._gpu_delay(executor, nbytes))
        return receiver.make_outcome(
            executor, node_name=node.name,
            extra_delay=self._gpu_delay(
                executor, node.attrs["shape"].num_elements()
                * node.attrs["dtype"].size
                if node.attrs["shape"].is_fully_defined else 0))

    def execute_innetwork(self, executor: Executor, node: Node,
                          tensor: Tensor) -> Outcome:
        if self.innetwork is None:
            raise DeviceError(f"{node.name}: no in-network runtime was "
                              f"prepared for this session")
        return self.innetwork.execute(self, executor, node, tensor)
