"""Zero-copy tensor transfer protocols (paper §3.2 and §3.3).

**Static placement** (:class:`StaticSender`/:class:`StaticReceiver`):
the receiver-side tensor is preallocated in an RDMA region and its
address distributed ahead of time.  The sender writes the payload with
one-sided WRITEs and finally sets a one-byte flag at the *tail* of the
receive region; because RDMA writes commit in ascending address order
(and verbs on one QP execute FIFO), a set flag proves the payload is
complete.  The receiver polls the flag (polling-async execution mode),
clears it for reuse, and hands the tensor — already in place — to its
consumers.  No copies anywhere.

**Dynamic allocation** (:class:`DynamicSender`/:class:`DynamicReceiver`):
when shapes vary between mini-batches, only the fixed-size metadata
slot (rank never changes, §3.3) is preallocated.  The sender writes
``TensorMeta`` (dims, dtype, its own tensor's address/rkey) plus the
flag; the receiver polls the flag, allocates a right-sized tensor, and
*pulls* the payload with a one-sided READ.

Both senders support a **staged** path (used when the tensor is not in
RDMA-registered memory, and always used in ``RDMA.cp`` mode): allocate
a staging block from the arena, pay a real memcpy, transfer from
staging.  The zero-copy path requires the tensor's buffer to be the
registered arena — exactly what the analyzer and the dynamic tracer
arrange.
"""

from __future__ import annotations

from typing import Generator, List, Optional

from ..observability.tracer import protocol_track
from ..graph.allocator import ArenaAllocator
from ..graph.dtypes import DType
from ..graph.executor import Executor
from ..graph.shapes import Shape
from ..graph.tensor import META_FLAG_SIZE, Tensor, TensorMeta
from ..graph.transfer_api import Outcome
from ..simnet.simulator import Event
from .device import (DeviceError, Direction, MemRegion, RdmaChannel,
                     RemoteMemRegion)
from .recovery import RecoveryManager


FLAG_SET = b"\x01"
FLAG_CLEAR = b"\x00"


def _next_epoch(epoch: int) -> int:
    """Advance a flag epoch, cycling 1..255 (0 is always "empty").

    In recovery mode the flag byte carries an epoch rather than a bare
    1: a retried attempt re-writes the *same* epoch, so a stale
    duplicate that lands after the receiver consumed it (and after the
    sender moved on) can never be mistaken for the next transfer.
    """
    return epoch % 255 + 1


class TransferState:
    """Counters shared by all protocol objects of one mechanism."""

    def __init__(self) -> None:
        self.zero_copy_sends = 0
        self.staged_sends = 0
        self.bytes_sent = 0


def _in_region(tensor: Tensor, region: Optional[MemRegion]) -> bool:
    """Whether the tensor's storage lies inside the registered region."""
    return region is not None and tensor.buffer is region.buffer


def _account_serialization(executor: Executor, start: float,
                           name: str) -> None:
    """Attribute CPU-side copy/pack time on the device's protocol track.

    Staging copies and metadata packing run in sender processes that
    overlap the executor's own timeline, so they are accounted on the
    *protocol* track — the stall report shows them as overlapped work
    rather than adding them to the executor's exact time budget.
    """
    tracer = executor.host.cluster.tracer
    if tracer is not None:
        tracer.account(executor.host.name, protocol_track(executor.device),
                       executor.iteration, "serialization", start,
                       executor.sim.now, name=name)


class StaticSender:
    """Sender half of the static-placement protocol for one edge."""

    def __init__(self, channel: RdmaChannel, remote: RemoteMemRegion,
                 nbytes: int, arena: ArenaAllocator, arena_region: MemRegion,
                 state: TransferState,
                 role: str = "static-write", key: str = "",
                 priority: int = 0,
                 recovery: Optional[RecoveryManager] = None) -> None:
        self.channel = channel
        self.remote = remote
        self.nbytes = nbytes
        self.arena = arena
        self.arena_region = arena_region
        self.state = state
        self.role = role
        self.key = key
        self.priority = priority
        self.recovery = recovery
        self._epoch = 0
        if remote.size < nbytes + 1:
            raise DeviceError(
                f"remote region of {remote.size} bytes cannot hold "
                f"{nbytes} payload bytes plus the flag")

    def send(self, executor: Executor, tensor: Tensor,
             force_copy: bool = False,
             extra_delay: float = 0.0) -> Generator:
        """Process: transfer; returns Outcome waiting on the flag write."""
        if tensor.nbytes != self.nbytes:
            raise DeviceError(
                f"static transfer expected {self.nbytes} bytes, "
                f"got {tensor.nbytes} (shape changed on a static edge?)")
        if extra_delay > 0:
            yield (extra_delay)
        zero_copy = _in_region(tensor, self.arena_region) and not force_copy
        staging_offset: Optional[int] = None
        if zero_copy:
            local_addr = tensor.addr
            self.state.zero_copy_sends += 1
        else:
            # RDMA.cp path: extra allocation + copy into registered memory.
            staging_offset = self.arena.allocate_block(self.nbytes)
            local_addr = self.arena_region.addr + staging_offset
            staging_start = executor.sim.now
            yield (
                executor.cost.malloc_time(self.nbytes))
            # The staging copy is CPU work contending with every other
            # concurrent copy on this host (the cost the analyzer's
            # zero-copy placement removes).
            yield from executor.host.cpu.run(
                executor.cost.memcpy_time(self.nbytes))
            _account_serialization(executor, staging_start, "staging-copy")
            if tensor.is_dense:
                self.arena_region.buffer.backing.write(
                    staging_offset, tensor.array.tobytes())
            self.state.staged_sends += 1
        self.state.bytes_sent += self.nbytes
        # Payload write (unsignaled) then the tail flag (signaled): QP
        # FIFO order plus ascending-address commit give the paper's
        # "flag is the last byte delivered" guarantee.
        wr_local_region = _RegionRef(self.arena_region, local_addr)
        proto_start = executor.sim.now
        if self.recovery is not None:
            return Outcome.wait(executor.sim.spawn(
                self._send_reliable(executor, wr_local_region, local_addr,
                                    staging_offset, proto_start),
                name=f"reliable-send-{self.key or self.role}"))
        self.channel.memcpy(
            local_addr=local_addr, local_region=wr_local_region,
            remote_addr=self.remote.addr, remote_region=self.remote,
            size=self.nbytes, direction=Direction.LOCAL_TO_REMOTE,
            role=self.role, priority=self.priority)
        flag_event = self.channel.memcpy_event(
            local_addr=0, local_region=None,
            remote_addr=self.remote.addr + self.nbytes,
            remote_region=self.remote,
            size=1, direction=Direction.LOCAL_TO_REMOTE,
            inline_data=FLAG_SET, role=self.role, priority=self.priority)
        done = executor.sim.event()
        tracer = executor.host.cluster.tracer
        hostname = executor.host.name
        track = protocol_track(executor.device)

        def on_flag(event: Event) -> None:
            if staging_offset is not None:
                self.arena.free_block(staging_offset)
            if tracer is not None:
                category = ("collective" if self.role == "collective-chunk"
                            else "protocol")
                tracer.record(
                    category, self.key or f"static {self.nbytes}B",
                    hostname, track, proto_start, executor.sim.now,
                    args={"nbytes": self.nbytes, "role": self.role,
                          "phase": "write+flag"})
            if event._exception is not None:
                done.fail(event._exception)
            else:
                done.succeed([])
        flag_event.add_callback(on_flag)
        return Outcome.wait(done)

    def _send_reliable(self, executor: Executor, wr_local_region,
                       local_addr: int, staging_offset: Optional[int],
                       proto_start: float) -> Generator:
        """Recovery-mode tail of :meth:`send` (fault plane armed).

        The payload is confirmed (its own CQE, retried as needed)
        *before* the flag is posted, so a lost payload can never be
        hidden behind a flag that landed; the flag then carries this
        edge's next epoch.
        """
        yield from self.recovery.reliable_memcpy(
            self.channel, local_addr=local_addr,
            local_region=wr_local_region, remote_addr=self.remote.addr,
            remote_region=self.remote, size=self.nbytes,
            direction=Direction.LOCAL_TO_REMOTE, role=self.role,
            priority=self.priority)
        self._epoch = _next_epoch(self._epoch)
        yield from self.recovery.reliable_memcpy(
            self.channel, remote_addr=self.remote.addr + self.nbytes,
            remote_region=self.remote, size=1,
            direction=Direction.LOCAL_TO_REMOTE,
            inline_data=bytes([self._epoch]), role=self.role,
            priority=self.priority)
        if staging_offset is not None:
            self.arena.free_block(staging_offset)
        tracer = executor.host.cluster.tracer
        if tracer is not None:
            category = ("collective" if self.role == "collective-chunk"
                        else "protocol")
            tracer.record(
                category, self.key or f"static {self.nbytes}B",
                executor.host.name, protocol_track(executor.device),
                proto_start, executor.sim.now,
                args={"nbytes": self.nbytes, "role": self.role,
                      "phase": "write+flag", "epoch": self._epoch})
        return []


class _RegionRef:
    """Adapter giving a MemRegion-compatible lkey for arena interiors."""

    def __init__(self, region: MemRegion, addr: int) -> None:
        self.lkey = region.lkey
        self.addr = addr


class StaticReceiver:
    """Receiver half: preallocated tensor + tail flag, polled.

    With ``epochs`` (recovery mode) the flag byte must equal the next
    expected epoch, not merely be non-zero: a stale duplicate flag from
    a retried attempt carries an already-consumed epoch and is ignored.
    """

    def __init__(self, tensor: Tensor, flag_offset_in_buffer: int,
                 epochs: bool = False) -> None:
        self.tensor = tensor
        self.flag_offset = flag_offset_in_buffer
        self.epochs = epochs
        self._expect = 1
        self.receives = 0

    def poll(self) -> bool:
        byte = self.tensor.buffer.backing.read_byte(self.flag_offset)
        if self.epochs:
            return byte == self._expect
        return byte == 1

    def make_outcome(self, executor: Executor,
                     extra_delay: float = 0.0) -> Outcome:
        def complete() -> Outcome:
            # Clear the flag for the next iteration's transfer.
            self.tensor.buffer.backing.write(self.flag_offset, FLAG_CLEAR)
            if self.epochs:
                self._expect = _next_epoch(self._expect)
            self.receives += 1
            if extra_delay <= 0:
                return Outcome.done([self.tensor])

            def stage() -> Generator:
                yield (extra_delay)
                return [self.tensor]
            return Outcome.wait(executor.sim.spawn(stage()))
        return Outcome.polling(
            poll=self.poll, complete=complete,
            flag=(self.tensor.buffer.backing, self.flag_offset))


class DynamicSender:
    """Sender half of the dynamic-allocation protocol for one edge."""

    def __init__(self, channel: RdmaChannel, meta_slot: RemoteMemRegion,
                 ndims: int, arena: ArenaAllocator, arena_region: MemRegion,
                 state: TransferState, key: str = "",
                 priority: int = 0,
                 recovery: Optional[RecoveryManager] = None) -> None:
        self.channel = channel
        self.meta_slot = meta_slot
        self.ndims = ndims
        self.arena = arena
        self.arena_region = arena_region
        self.state = state
        self.key = key
        self.priority = priority
        self.recovery = recovery
        self._epoch = 0
        expected = TensorMeta.slot_size(ndims)
        if meta_slot.size < expected:
            raise DeviceError(
                f"meta slot of {meta_slot.size} bytes too small for rank "
                f"{ndims} (need {expected})")

    def send(self, executor: Executor, tensor: Tensor,
             force_copy: bool = False, extra_delay: float = 0.0) -> Generator:
        if tensor.shape.rank != self.ndims:
            raise DeviceError(
                f"dynamic transfer rank changed: {tensor.shape.rank} != "
                f"{self.ndims} (the paper's protocol fixes the rank)")
        if extra_delay > 0:
            yield (extra_delay)
        zero_copy = _in_region(tensor, self.arena_region) and not force_copy
        source_addr = tensor.addr
        if not zero_copy:
            staging_offset = self.arena.allocate_block(max(tensor.nbytes, 1))
            source_addr = self.arena_region.addr + staging_offset
            staging_start = executor.sim.now
            yield (
                executor.cost.malloc_time(tensor.nbytes))
            yield from executor.host.cpu.run(
                executor.cost.memcpy_time(tensor.nbytes))
            _account_serialization(executor, staging_start, "staging-copy")
            if tensor.is_dense:
                self.arena_region.buffer.backing.write(
                    staging_offset, tensor.array.tobytes())
            self.state.staged_sends += 1
            # Note: the staging block stays live until the receiver's
            # READ completes; the iteration barrier bounds its lifetime,
            # so it is freed at the next send from this edge.
            self._pending_staging = getattr(self, "_pending_staging", [])
            self._release_staging()
            self._pending_staging.append(staging_offset)
        else:
            self.state.zero_copy_sends += 1
            self._release_staging()
        self.state.bytes_sent += tensor.nbytes
        meta = TensorMeta(dtype=tensor.dtype,
                          dims=tensor.shape.as_tuple(),
                          remote_addr=source_addr,
                          remote_rkey=self.arena_region.rkey)
        # Pack the (small, fixed-size) metadata — §3.3 counts this as
        # the protocol's extra overhead versus static placement.  It is
        # a fixed struct, not a general serializer: near-memcpy cost.
        if self.recovery is not None:
            self._epoch = _next_epoch(self._epoch)
            flag = bytes([self._epoch])
        else:
            flag = FLAG_SET
        encoded = meta.encode() + flag
        pack_start = executor.sim.now
        yield (
            executor.cost.memcpy_time(len(encoded)))
        _account_serialization(executor, pack_start, "meta-pack")
        proto_start = executor.sim.now
        if self.recovery is not None:
            return Outcome.wait(executor.sim.spawn(
                self._send_reliable(executor, encoded, proto_start),
                name=f"reliable-meta-{self.key or 'dynamic'}"))
        event = self.channel.memcpy_event(
            local_addr=0, local_region=None,
            remote_addr=self.meta_slot.addr, remote_region=self.meta_slot,
            size=len(encoded), direction=Direction.LOCAL_TO_REMOTE,
            inline_data=encoded, role="dynamic-metadata",
            priority=self.priority)
        done = executor.sim.event()
        tracer = executor.host.cluster.tracer
        hostname = executor.host.name
        track = protocol_track(executor.device)

        def on_meta(e: Event) -> None:
            if tracer is not None:
                tracer.record(
                    "protocol", self.key or "dynamic-meta", hostname, track,
                    proto_start, executor.sim.now,
                    args={"nbytes": len(encoded),
                          "role": "dynamic-metadata",
                          "phase": "metadata-write"})
            if e._exception is not None:
                done.fail(e._exception)
            else:
                done.succeed([])
        event.add_callback(on_meta)
        return Outcome.wait(done)

    def _send_reliable(self, executor: Executor, encoded: bytes,
                       proto_start: float) -> Generator:
        """Recovery-mode metadata write (single inline meta+flag write).

        The flag trails the metadata in one write, so a torn write
        never exposes a flag without its metadata; a retry re-sends the
        identical bytes (same epoch), which is idempotent.
        """
        yield from self.recovery.reliable_memcpy(
            self.channel, remote_addr=self.meta_slot.addr,
            remote_region=self.meta_slot, size=len(encoded),
            direction=Direction.LOCAL_TO_REMOTE, inline_data=encoded,
            role="dynamic-metadata", priority=self.priority)
        tracer = executor.host.cluster.tracer
        if tracer is not None:
            tracer.record(
                "protocol", self.key or "dynamic-meta", executor.host.name,
                protocol_track(executor.device), proto_start,
                executor.sim.now,
                args={"nbytes": len(encoded), "role": "dynamic-metadata",
                      "phase": "metadata-write", "epoch": self._epoch})
        return []

    def _release_staging(self) -> None:
        for offset in getattr(self, "_pending_staging", []):
            self.arena.free_block(offset)
        self._pending_staging = []


class DynamicReceiver:
    """Receiver half: poll the meta slot, allocate, one-sided READ."""

    def __init__(self, meta_region: MemRegion, ndims: int,
                 channel: RdmaChannel, arena: ArenaAllocator,
                 arena_region: MemRegion, dtype: DType,
                 priority: int = 0, epochs: bool = False,
                 recovery: Optional[RecoveryManager] = None) -> None:
        self.meta_region = meta_region
        self.ndims = ndims
        self.channel = channel
        self.arena = arena
        self.arena_region = arena_region
        self.dtype = dtype
        self.priority = priority
        self.epochs = epochs
        self.recovery = recovery
        self._expect = 1
        self.flag_offset = TensorMeta.encoded_size(ndims)
        self.receives = 0
        self._last_tensor: Optional[Tensor] = None

    def poll(self) -> bool:
        byte = self.meta_region.buffer.backing.read_byte(self.flag_offset)
        if self.epochs:
            return byte == self._expect
        return byte == 1

    def make_outcome(self, executor: Executor, node_name: str,
                     extra_delay: float = 0.0) -> Outcome:
        def complete() -> Outcome:
            self.meta_region.buffer.backing.write(self.flag_offset, FLAG_CLEAR)
            if self.epochs:
                self._expect = _next_epoch(self._expect)
            raw = self.meta_region.read(0, self.flag_offset)
            meta = TensorMeta.decode(raw)
            self.receives += 1

            def fetch() -> Generator:
                # Unpack metadata (fixed struct), allocate, pull payload.
                unpack_start = executor.sim.now
                yield (
                    executor.cost.memcpy_time(len(raw))
                    + executor.cost.malloc_time(meta.data_nbytes))
                _account_serialization(executor, unpack_start, "meta-unpack")
                # The previous mini-batch's dynamically allocated tensor
                # is dead by now (iteration barrier) — reclaim it so the
                # arena footprint stays bounded (§3.2's "reduced memory
                # footprint" motivation for dynamic allocation).
                if self._last_tensor is not None:
                    self.arena.free_tensor(self._last_tensor)
                tensor = self.arena.allocate_tensor(
                    meta.dtype, meta.shape, node_name=node_name)
                self._last_tensor = tensor
                remote = RemoteMemRegion(addr=meta.remote_addr,
                                         rkey=meta.remote_rkey,
                                         size=meta.data_nbytes)
                read_start = executor.sim.now
                if self.recovery is not None:
                    yield from self.recovery.reliable_memcpy(
                        self.channel, local_addr=tensor.addr,
                        local_region=_RegionRef(self.arena_region,
                                                tensor.addr),
                        remote_addr=meta.remote_addr, remote_region=remote,
                        size=meta.data_nbytes,
                        direction=Direction.REMOTE_TO_LOCAL,
                        role="dynamic-payload-read", priority=self.priority)
                else:
                    read_done = self.channel.memcpy_event(
                        local_addr=tensor.addr,
                        local_region=_RegionRef(self.arena_region,
                                                tensor.addr),
                        remote_addr=meta.remote_addr, remote_region=remote,
                        size=meta.data_nbytes,
                        direction=Direction.REMOTE_TO_LOCAL,
                        role="dynamic-payload-read", priority=self.priority)
                    yield read_done
                tracer = executor.host.cluster.tracer
                if tracer is not None:
                    tracer.record(
                        "protocol", f"payload-read {meta.data_nbytes}B",
                        executor.host.name, protocol_track(executor.device),
                        read_start, executor.sim.now,
                        args={"nbytes": meta.data_nbytes,
                              "role": "dynamic-payload-read",
                              "phase": "payload-read"})
                if extra_delay > 0:
                    yield (extra_delay)
                return [tensor]
            return Outcome.wait(executor.sim.spawn(fetch()))
        return Outcome.polling(
            poll=self.poll, complete=complete,
            flag=(self.meta_region.buffer.backing, self.flag_offset))
