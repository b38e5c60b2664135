"""The RDMA "device" abstraction — the paper's Table 1 interface.

A remote machine is exposed as a *device* from a data-access point of
view: memory regions can be allocated on it and read/written directly
over an RDMA channel, much like a local GPU (§3.1).

* ``RdmaDevice.create(host, num_cqs, num_qps_per_peer, endpoint)``
* ``device.allocate_mem_region(size)``
* ``device.get_channel(remote_endpoint, qp_idx)``
* ``channel.memcpy(local_addr, local_region, remote_addr, remote_region,
  size, direction, callback)``

The device owns ``num_cqs`` completion queues, each drained by its own
poller (the thread pool of Figure 4); QPs created towards a peer are
associated with CQs round-robin, and the channel-acquiring interface
lets a multi-threaded workload pick its QP explicitly to spread load.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Callable, Dict, Generator, List, Optional, Tuple

from ..simnet.costmodel import CostModel
from ..simnet.memory import Buffer, MemoryRegion
from ..simnet.nic import CompletionQueue, QueuePair, SharedQp
from ..simnet.simulator import Event, Simulator
from ..simnet.topology import Endpoint, Host
from ..simnet.verbs import Completion, Opcode, WcStatus, WorkRequest

#: queue-pair modes a device can run its data plane in: per-peer
#: reliable-connected QPs (the paper's baseline) or DCT-style shared
#: endpoints (O(1) QP state per NIC however many peers it talks to)
QP_MODES = ("rc", "shared")


class DeviceError(RuntimeError):
    """Misuse of the device library or failed verbs."""


class Direction(enum.Enum):
    """Transfer direction for :meth:`RdmaChannel.memcpy`."""

    LOCAL_TO_REMOTE = "write"   # one-sided RDMA WRITE
    REMOTE_TO_LOCAL = "read"    # one-sided RDMA READ


@dataclass(frozen=True)
class RemoteMemRegion:
    """A remote region as seen locally: address, rkey, size.

    Obtained through the address book (the vanilla RPC of §3.1); this
    is all the information a one-sided verb needs.
    """

    addr: int
    rkey: int
    size: int


class MemRegion:
    """A locally allocated, NIC-registered memory region."""

    def __init__(self, device: "RdmaDevice", buffer: Buffer,
                 region: MemoryRegion) -> None:
        self.device = device
        self.buffer = buffer
        self.region = region

    @property
    def addr(self) -> int:
        return self.buffer.addr

    @property
    def size(self) -> int:
        return self.buffer.size

    @property
    def lkey(self) -> int:
        return self.region.lkey

    @property
    def rkey(self) -> int:
        return self.region.rkey

    def descriptor(self) -> RemoteMemRegion:
        """What a peer needs to access this region remotely."""
        return RemoteMemRegion(addr=self.addr, rkey=self.rkey, size=self.size)

    def read(self, offset: int = 0, length: Optional[int] = None) -> bytes:
        return self.buffer.read(offset, length)

    def read_byte(self, offset: int) -> int:
        return self.buffer.read_byte(offset)

    def write(self, data: bytes, offset: int = 0) -> None:
        self.buffer.write(data, offset)


class RdmaChannel:
    """A channel: one QP towards one peer, with an async memcpy."""

    def __init__(self, device: "RdmaDevice", peer: Endpoint,
                 qp: QueuePair, qp_idx: int) -> None:
        self.device = device
        self.peer = peer
        self.qp = qp
        self.qp_idx = qp_idx
        self.bytes_transferred = 0
        #: set by the recovery layer when it gives up on RDMA for this
        #: channel; later transfers take :meth:`fallback_transfer`
        self.degraded = False
        self.reconnects = 0

    @property
    def broken(self) -> bool:
        """Whether the underlying QP is in the error state."""
        return self.qp.broken

    def wr_target(self) -> Optional[QueuePair]:
        """Per-WR destination endpoint (DCT); None on connected QPs."""
        return None

    def messaging_qp(self) -> QueuePair:
        """The QP two-sided messaging (SEND/RECV) rides on."""
        return self.qp

    def reconnect(self) -> None:
        """Re-establish a broken queue pair (both ends).

        Fresh QPs are created on the same CQs as the old pair and the
        peer's mirror channel is swapped too, so both directions of the
        library stay paired.  The simulated duration of the transition
        (``CostModel.qp_reestablish_time``) is charged by the caller.
        """
        peer_device = RdmaDevice.lookup(self.device.host, self.peer)
        mirror = peer_device._channels.get((self.device.endpoint, self.qp_idx))
        old_remote = self.qp.remote
        local_qp = self.device.host.nic.create_qp(self.qp.send_cq,
                                                  self.qp.recv_cq)
        if old_remote is not None:
            remote_qp = peer_device.host.nic.create_qp(old_remote.send_cq,
                                                       old_remote.recv_cq)
        else:  # pragma: no cover - channels are always paired
            remote_qp = peer_device.host.nic.create_qp(peer_device.cqs[0])
        local_qp.connect(remote_qp)
        self.qp = local_qp
        self.reconnects += 1
        if mirror is not None:
            mirror.qp = remote_qp
            mirror.reconnects += 1

    def fallback_transfer(self, *, local_addr: int, remote_addr: int,
                          size: int, direction: Direction,
                          inline_data: Optional[bytes] = None,
                          role: str = "") -> Generator:
        """Process: move the bytes over the kernel TCP path instead.

        Graceful degradation for a persistently failing RDMA channel:
        charges the real TCP costs (syscalls, socket-buffer copies,
        wire time), commits the bytes straight into the destination
        address space, and wakes the destination host's pollers —
        semantically equivalent to the WRITE/READ it replaces, only
        slower.  Use as ``yield from channel.fallback_transfer(...)``.
        """
        from ..simnet.nic import RdmaNic

        sim = self.device.sim
        cost = self.device.cost
        local_host = self.device.host
        remote_host = RdmaDevice.lookup(local_host, self.peer).host
        if direction is Direction.LOCAL_TO_REMOTE:
            src_host, dst_host = local_host, remote_host
            src_addr, dst_addr = local_addr, remote_addr
        else:
            src_host, dst_host = remote_host, local_host
            src_addr, dst_addr = remote_addr, local_addr
        if inline_data is not None:
            payload: Optional[bytes] = bytes(inline_data)
            pieces = ()
        else:
            src_buf, src_off = src_host.address_space.resolve(
                src_addr, max(size, 1))
            payload, pieces = RdmaNic._edge_payload(
                src_buf.backing, src_off, size)
        yield from src_host.cpu.run(cost.tcp_send_time(size))
        start, _ = src_host.tcp.egress.reserve(sim.now, size)
        data_ready = start + cost.tcp_base_latency + size / cost.tcp_bandwidth
        arrival = dst_host.tcp.ingress.reserve_after(
            start + cost.tcp_base_latency, size, data_ready)
        metrics = local_host.cluster.metrics
        if metrics is not None:
            metrics.record_transfer("TCP", src_host.name, dst_host.name,
                                    size, start, arrival,
                                    role=role or "tcp-fallback")
        tracer = local_host.cluster.tracer
        if tracer is not None:
            tracer.record("wire", f"TCP-fallback {size}B", src_host.name,
                          "tcp:wire", start, arrival,
                          args={"dst": dst_host.name, "nbytes": size,
                                "role": role or "tcp-fallback"})
        yield (max(arrival - sim.now, 0.0))
        yield from dst_host.cpu.run(cost.tcp_recv_time(size))
        dst_buf, dst_off = dst_host.address_space.resolve(dst_addr,
                                                          max(size, 1))
        if payload is not None:
            dst_buf.backing.write(dst_off, payload)
        else:
            dst_buf.backing.write_virtual(dst_off, size, pieces)
        self.bytes_transferred += size
        dst_host.notify_memory_commit(dst_buf.backing, dst_off,
                                      dst_off + size)

    def memcpy(self, local_addr: int, local_region: Optional[MemRegion],
               remote_addr: int, remote_region: RemoteMemRegion, size: int,
               direction: Direction,
               callback: Optional[Callable[[Completion], None]] = None,
               inline_data: Optional[bytes] = None,
               role: str = "", priority: int = 0) -> int:
        """Asynchronously copy between local and remote memory.

        Returns the work-request id.  ``callback`` fires (from the CQ
        poller) when the verb completes.  ``inline_data`` replaces the
        local region for small writes (e.g. flag bytes).  ``role`` tags
        the transfer's protocol purpose for metrics and tracing;
        ``priority`` is the wire-scheduling urgency (honoured only by
        the priority quantum scheduler).
        """
        if direction is Direction.LOCAL_TO_REMOTE:
            opcode = Opcode.WRITE
        elif direction is Direction.REMOTE_TO_LOCAL:
            opcode = Opcode.READ
            if inline_data is not None:
                raise DeviceError("cannot use inline data with a READ")
        else:  # pragma: no cover - enum is closed
            raise DeviceError(f"bad direction {direction}")
        if inline_data is None and local_region is None:
            raise DeviceError("memcpy needs a local region or inline data")
        wr = WorkRequest(
            opcode=opcode, size=size,
            local_addr=local_addr,
            lkey=local_region.lkey if local_region else 0,
            remote_addr=remote_addr, rkey=remote_region.rkey,
            inline_data=inline_data,
            signaled=True, role=role, priority=priority,
            dct_target=self.wr_target())
        self.device._register_callback(wr.wr_id, callback)
        self.qp.post_send(wr)
        self.bytes_transferred += wr.size
        return wr.wr_id

    def memcpy_event(self, *args, **kwargs) -> Event:
        """Like :meth:`memcpy` but returns an Event firing on completion.

        The event fails if the verb completes with an error status.
        """
        event = self.device.sim.event()

        def on_complete(completion: Completion) -> None:
            if completion.ok:
                event.succeed(completion)
            else:
                event.fail(DeviceError(
                    f"memcpy failed: {completion.status.value}"))
        self.memcpy(*args, callback=on_complete, **kwargs)
        return event


class SharedChannel(RdmaChannel):
    """A channel whose data plane rides a shared (DCT) endpoint.

    ``qp`` is one of the device's O(1) shared endpoints and ``target``
    is the peer device's matching endpoint; every one-sided verb names
    the target per work request, so N peers share the same local QP
    state.  Two-sided control messaging (the address book's FIFO
    request/reply matching) cannot safely share one receive queue
    across peers, so it rides a dedicated RC QP pair created lazily on
    first use — mirroring how real DC-transport deployments bootstrap
    over RC or UD.  Tensor traffic never touches that control QP.
    """

    def __init__(self, device: "RdmaDevice", peer: Endpoint,
                 qp: SharedQp, qp_idx: int, target: SharedQp) -> None:
        super().__init__(device, peer, qp, qp_idx)
        self.target = target
        self._control_qp: Optional[QueuePair] = None

    @property
    def broken(self) -> bool:
        # A broken shared endpoint flushes *every* peer's verbs — the
        # wider blast radius of collapsing N connections into one.
        return self.qp.broken or self.target.broken

    def wr_target(self) -> Optional[QueuePair]:
        return self.target

    def messaging_qp(self) -> QueuePair:
        if self._control_qp is None:
            peer_device = RdmaDevice.lookup(self.device.host, self.peer)
            mirror = peer_device._channels.get(
                (self.device.endpoint, self.qp_idx))
            cq = self.device.cqs[self.device._next_cq % self.device.num_cqs]
            self.device._next_cq += 1
            local_qp = self.device.host.nic.create_qp(cq)
            peer_cq = peer_device.cqs[
                peer_device._next_cq % peer_device.num_cqs]
            peer_device._next_cq += 1
            remote_qp = peer_device.host.nic.create_qp(peer_cq)
            local_qp.connect(remote_qp)
            self._control_qp = local_qp
            if isinstance(mirror, SharedChannel):
                mirror._control_qp = remote_qp
        return self._control_qp

    def reconnect(self) -> None:
        """Clear the error state on both shared endpoints.

        DCT endpoints are connectionless — recovery transitions the
        existing QP back to ready instead of minting a fresh pair (the
        re-establishment time is still charged by the caller).
        """
        peer_device = RdmaDevice.lookup(self.device.host, self.peer)
        mirror = peer_device._channels.get((self.device.endpoint,
                                            self.qp_idx))
        self.qp.broken = False
        self.target.broken = False
        self.reconnects += 1
        if mirror is not None and mirror is not self:
            mirror.reconnects += 1


class RdmaDevice:
    """One NIC exposed through the paper's device interface."""

    SERVICE_PREFIX = "rdma-device"

    def __init__(self, host: Host, num_cqs: int, num_qps_per_peer: int,
                 endpoint: Endpoint, qp_mode: str = "rc") -> None:
        if num_cqs < 1 or num_qps_per_peer < 1:
            raise DeviceError("need at least one CQ and one QP per peer")
        if qp_mode not in QP_MODES:
            raise DeviceError(f"unknown qp_mode {qp_mode!r}; have {QP_MODES}")
        self.host = host
        self.sim: Simulator = host.sim
        self.cost: CostModel = host.cost
        self.endpoint = endpoint
        self.num_cqs = num_cqs
        self.num_qps_per_peer = num_qps_per_peer
        self.qp_mode = qp_mode
        self.cqs: List[CompletionQueue] = [
            host.nic.create_cq() for _ in range(num_cqs)]
        self._next_cq = 0
        self._channels: Dict[Tuple[Endpoint, int], RdmaChannel] = {}
        self._callbacks: Dict[int, Optional[Callable]] = {}
        self.regions: List[MemRegion] = []
        # Shared mode: the whole data plane is this fixed pool of DCT
        # endpoints, created up front — O(1) per NIC, not O(peers).
        self._shared_qps: List[SharedQp] = []
        if qp_mode == "shared":
            self._shared_qps = [
                host.nic.create_shared_qp(self.cqs[i % num_cqs])
                for i in range(num_qps_per_peer)]
        self._pollers = [self.sim.spawn(self._poll_loop(cq),
                                        name=f"cq-poller-{endpoint}-{i}")
                         for i, cq in enumerate(self.cqs)]
        host.cluster.services[self._service_key(endpoint)] = self

    # -- construction --------------------------------------------------------------

    @classmethod
    def create(cls, host: Host, num_cqs: int, num_qps_per_peer: int,
               local_endpoint: Endpoint, qp_mode: str = "rc") -> "RdmaDevice":
        """CreateRdmaDevice of Table 1."""
        key = cls._service_key(local_endpoint)
        if key in host.cluster.services:
            raise DeviceError(f"device already exists at {local_endpoint}")
        return cls(host, num_cqs, num_qps_per_peer, local_endpoint,
                   qp_mode=qp_mode)

    @staticmethod
    def _service_key(endpoint: Endpoint) -> Endpoint:
        return Endpoint(f"{RdmaDevice.SERVICE_PREFIX}:{endpoint.host}",
                        endpoint.port)

    @classmethod
    def lookup(cls, host: Host, endpoint: Endpoint) -> "RdmaDevice":
        device = host.cluster.services.get(cls._service_key(endpoint))
        if not isinstance(device, RdmaDevice):
            raise DeviceError(f"no RDMA device at {endpoint}")
        return device

    # -- Table 1 interface ------------------------------------------------------------

    def allocate_mem_region(self, size_in_bytes: int,
                            label: str = "") -> MemRegion:
        """AllocateMemRegion: RDMA-accessible memory on this device."""
        buffer = self.host.allocate(size_in_bytes, label=label or "memregion")
        region = self.host.nic.register_memory(buffer)
        mem = MemRegion(self, buffer, region)
        self.regions.append(mem)
        return mem

    def register_existing(self, buffer: Buffer) -> MemRegion:
        """Register an already-allocated buffer (e.g. an executor arena)."""
        region = self.host.nic.register_memory(buffer)
        mem = MemRegion(self, buffer, region)
        self.regions.append(mem)
        return mem

    def free_mem_region(self, mem: MemRegion) -> None:
        self.host.nic.deregister_memory(mem.region)
        self.host.address_space.free(mem.buffer)
        self.regions.remove(mem)

    def get_channel(self, remote_endpoint: Endpoint, qp_idx: int = 0) -> RdmaChannel:
        """GetChannel: a channel to a peer over the qp_idx-th QP.

        QPs are created lazily on first use and spread over this
        device's CQs round-robin (Figure 4).
        """
        if not 0 <= qp_idx < self.num_qps_per_peer:
            raise DeviceError(
                f"qp_idx {qp_idx} out of range (device configured with "
                f"{self.num_qps_per_peer} QPs per peer)")
        key = (remote_endpoint, qp_idx)
        channel = self._channels.get(key)
        if channel is None:
            peer = RdmaDevice.lookup(self.host, remote_endpoint)
            if self.qp_mode == "shared":
                if peer.qp_mode != "shared":
                    raise DeviceError(
                        f"qp_mode mismatch: {self.endpoint} is shared but "
                        f"{remote_endpoint} is {peer.qp_mode}")
                # No connection to establish: both ends already own their
                # DCT endpoints; the channel just records which remote
                # endpoint WRs should target.
                channel = SharedChannel(self, remote_endpoint,
                                        self._shared_qps[qp_idx], qp_idx,
                                        target=peer._shared_qps[qp_idx])
                self._channels[key] = channel
                peer._channels[(self.endpoint, qp_idx)] = SharedChannel(
                    peer, self.endpoint, peer._shared_qps[qp_idx], qp_idx,
                    target=self._shared_qps[qp_idx])
            else:
                cq = self.cqs[self._next_cq % self.num_cqs]
                self._next_cq += 1
                local_qp = self.host.nic.create_qp(cq)
                peer_cq = peer.cqs[peer._next_cq % peer.num_cqs]
                peer._next_cq += 1
                remote_qp = peer.host.nic.create_qp(peer_cq)
                local_qp.connect(remote_qp)
                channel = RdmaChannel(self, remote_endpoint, local_qp, qp_idx)
                self._channels[key] = channel
                # The peer gets the mirror channel for send/recv messaging.
                peer._channels[(self.endpoint, qp_idx)] = RdmaChannel(
                    peer, self.endpoint, remote_qp, qp_idx)
        return channel

    def post_recv(self, channel: RdmaChannel, mem: MemRegion,
                  callback: Optional[Callable[[Completion], None]] = None,
                  offset: int = 0, size: Optional[int] = None) -> int:
        """Post a two-sided receive into ``mem`` (messaging verbs).

        Used by the vanilla-RPC address-distribution path (§3.1), not
        by tensor transfer.
        """
        wr = WorkRequest(opcode=Opcode.RECV,
                         size=size if size is not None else mem.size - offset,
                         local_addr=mem.addr + offset, lkey=mem.lkey)
        self._register_callback(wr.wr_id, callback)
        channel.messaging_qp().post_recv(wr)
        return wr.wr_id

    def post_send_message(self, channel: RdmaChannel, data: bytes,
                          callback: Optional[Callable[[Completion], None]] = None) -> int:
        """Send a small message over the messaging verbs (inline)."""
        wr = WorkRequest(opcode=Opcode.SEND, inline_data=data,
                         role="control")
        self._register_callback(wr.wr_id, callback)
        channel.messaging_qp().post_send(wr)
        return wr.wr_id

    # -- completion dispatch -------------------------------------------------------------

    def _register_callback(self, wr_id: int,
                           callback: Optional[Callable]) -> None:
        self._callbacks[wr_id] = callback

    def _poll_loop(self, cq: CompletionQueue) -> Generator:
        """One CQ poller of the device's thread pool."""
        while True:
            yield cq.wait()
            tracer = self.host.cluster.tracer
            woke_at = self.sim.now
            depth = len(cq)
            drained = 0
            for completion in cq.poll(max_entries=64):
                drained += 1
                callback = self._callbacks.pop(completion.wr_id, None)
                if callback is not None:
                    callback(completion)
            if tracer is not None and drained:
                # Callbacks never yield, so the drain itself is
                # instantaneous in simulated time: a zero-duration span
                # still marks the wake on the poller's timeline.
                tracer.record(
                    "cq_poll", f"drain {drained}", self.host.name,
                    f"cq:{cq.cq_id}", woke_at, self.sim.now,
                    args={"depth_at_wake": depth, "drained": drained})
                tracer.metrics.histogram("cq_depth_at_wake").observe(depth)
                tracer.metrics.histogram(
                    "cq_completions_per_wake").observe(drained)
