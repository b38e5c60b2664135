"""Zero-copy tensor transfer protocols (paper §3.2 and §3.3).

**Static placement** (:class:`StaticSender`/:class:`StaticReceiver`):
the receiver-side tensor is preallocated in an RDMA region and its
address distributed ahead of time.  The sender writes the payload with
one-sided WRITEs and finally sets a one-byte flag — the edge's next
epoch, see :class:`EpochLane` — at the *tail* of the receive region;
because RDMA writes commit in ascending address order (and verbs on
one QP execute FIFO), a set flag proves the payload is complete.  The
receiver polls the flag (polling-async execution mode), clears it for
reuse, and hands the tensor — already in place — to its consumers.
No copies anywhere.

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
from ..graph.tensor import Tensor, TensorMeta
from ..graph.transfer_api import Outcome
from ..simnet.memory import Backing
from .device import (DeviceError, Direction, MemRegion, RdmaChannel,
                     RemoteMemRegion)
from .recovery import RecoveryManager, land


FLAG_CLEAR = b"\x00"


class EpochLane:
    """The flag bytes one slot carries, in order: 1, 2, ..., 255, then
    1 again (0 is always "empty").

    Every flag exchange sends epochs, not a bare 1: a re-issued write
    carries the *same* epoch, so a stale duplicate that lands after the
    receiver consumed it can never be mistaken for the next transfer.
    A sender takes each flag's byte from its own lane; a receiver's
    :class:`CompletionFlag` walks a lane of the bytes it expects.
    """

    __slots__ = ("next",)

    def __init__(self) -> None:
        #: the byte the next flag on this lane carries
        self.next = 1

    def advance(self) -> int:
        """Take the lane's next epoch."""
        epoch = self.next
        self.next = epoch % 255 + 1
        return epoch


class CompletionFlag:
    """Receiver side of one flag byte, ``offset`` in ``backing``.

    The NIC commits the flag after the payload it guards, so an armed
    flag proves the transfer landed.  :meth:`armed` is a pure read
    (``Outcome.polling``'s contract); :meth:`consume` clears the byte
    for reuse and moves on to the next epoch.
    """

    __slots__ = ("backing", "offset", "lane")

    def __init__(self, backing: Backing, offset: int) -> None:
        self.backing = backing
        self.offset = offset
        self.lane = EpochLane()

    def armed(self) -> bool:
        """Whether the byte holds the next expected epoch."""
        return self.backing.read_byte(self.offset) == self.lane.next

    def consume(self) -> None:
        self.backing.write(self.offset, FLAG_CLEAR)
        self.lane.advance()


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


def _source(executor: Executor, tensor: Tensor, force_copy: bool,
            arena: ArenaAllocator, arena_region: MemRegion,
            state: TransferState) -> Generator:
    """Process: where a send's payload leaves from.

    Returns ``(addr, staging offset)``.  A tensor already in the
    registered arena goes out in place (offset None); otherwise — the
    RDMA.cp path — it is copied into a fresh arena staging block
    first, which the caller frees once nothing reads it any more.
    """
    if _in_region(tensor, arena_region) and not force_copy:
        state.zero_copy_sends += 1
        return tensor.addr, None
    nbytes = tensor.nbytes
    offset = arena.allocate_block(max(nbytes, 1))
    staging_start = executor.sim.now
    yield (executor.cost.malloc_time(nbytes))
    # The staging copy is CPU work contending with every other
    # concurrent copy on this host (the cost the analyzer's
    # zero-copy placement removes).
    yield from executor.host.cpu.run(executor.cost.memcpy_time(nbytes))
    _account_serialization(executor, staging_start, "staging-copy")
    if tensor.is_dense:
        arena_region.buffer.backing.write(offset, tensor.array.tobytes())
    state.staged_sends += 1
    return arena_region.addr + offset, offset


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
        self.lane = EpochLane()
        if remote.size < nbytes + 1:
            raise DeviceError(
                f"remote region of {remote.size} bytes cannot hold "
                f"{nbytes} payload bytes plus the flag")

    def send(self, executor: Executor, tensor: Tensor,
             force_copy: bool = False,
             extra_delay: float = 0.0) -> Generator:
        """Process: write the payload, then its epoch flag; returns the
        send's outputs (none) once the flag landed."""
        if tensor.nbytes != self.nbytes:
            raise DeviceError(
                f"static transfer expected {self.nbytes} bytes, "
                f"got {tensor.nbytes} (shape changed on a static edge?)")
        if extra_delay > 0:
            yield (extra_delay)
        local_addr, staging_offset = yield from _source(
            executor, tensor, force_copy, self.arena, self.arena_region,
            self.state)
        self.state.bytes_sent += self.nbytes
        # Payload write, then the tail flag: QP FIFO order plus
        # ascending-address commit give the paper's "flag is the last
        # byte delivered" guarantee.  Only an armed fault plane awaits
        # the payload's CQE (``land``): it is confirmed before the flag
        # goes out, so a lost payload never hides behind a landed flag,
        # and a retried flag re-sends the same epoch.
        proto_start = executor.sim.now
        epoch = self.lane.advance()
        yield from land(
            self.recovery, self.channel, local_addr=local_addr,
            local_region=self.arena_region, remote_addr=self.remote.addr,
            remote_region=self.remote, size=self.nbytes,
            direction=Direction.LOCAL_TO_REMOTE, role=self.role,
            priority=self.priority, wait=False)
        yield from land(
            self.recovery, self.channel,
            remote_addr=self.remote.addr + self.nbytes,
            remote_region=self.remote, size=1,
            direction=Direction.LOCAL_TO_REMOTE, inline_data=bytes([epoch]),
            role=self.role, priority=self.priority)
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
                      "phase": "write+flag", "epoch": epoch})
        return []


class StaticReceiver:
    """Receiver half: preallocated tensor + tail flag, polled.

    The flag byte must equal the next expected epoch, not merely be
    non-zero, so a stale duplicate of a consumed flag — a retried write
    landing late — never completes a second receive.
    """

    def __init__(self, tensor: Tensor, flag_offset_in_buffer: int) -> None:
        self.tensor = tensor
        self.flag = CompletionFlag(tensor.buffer.backing,
                                   flag_offset_in_buffer)
        self.receives = 0

    def make_outcome(self, executor: Executor,
                     extra_delay: float = 0.0) -> Outcome:
        flag = self.flag

        def complete() -> Outcome:
            # Clear the flag for the next iteration's transfer.
            flag.consume()
            self.receives += 1
            if extra_delay <= 0:
                return Outcome.done([self.tensor])

            def stage() -> Generator:
                yield (extra_delay)
                return [self.tensor]
            return Outcome.wait(executor.sim.spawn(stage()))
        return Outcome.polling(poll=flag.armed, complete=complete,
                               flag=(flag.backing, flag.offset))


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
        self.lane = EpochLane()
        #: staging blocks the receiver's READ may still be reading
        self._pending_staging: List[int] = []
        expected = TensorMeta.slot_size(ndims)
        if meta_slot.size < expected:
            raise DeviceError(
                f"meta slot of {meta_slot.size} bytes too small for rank "
                f"{ndims} (need {expected})")

    def send(self, executor: Executor, tensor: Tensor,
             force_copy: bool = False, extra_delay: float = 0.0) -> Generator:
        """Process: write the metadata and its trailing flag as one
        inline write (a retry re-sends the same bytes, same epoch);
        returns the send's outputs (none) once it landed."""
        if tensor.shape.rank != self.ndims:
            raise DeviceError(
                f"dynamic transfer rank changed: {tensor.shape.rank} != "
                f"{self.ndims} (the paper's protocol fixes the rank)")
        if extra_delay > 0:
            yield (extra_delay)
        source_addr, staging_offset = yield from _source(
            executor, tensor, force_copy, self.arena, self.arena_region,
            self.state)
        # A staging block stays live until the receiver's READ
        # completes; the iteration barrier bounds its lifetime, so it is
        # freed at the next send from this edge.
        for offset in self._pending_staging:
            self.arena.free_block(offset)
        self._pending_staging = ([] if staging_offset is None
                                 else [staging_offset])
        self.state.bytes_sent += tensor.nbytes
        meta = TensorMeta(dtype=tensor.dtype,
                          dims=tensor.shape.as_tuple(),
                          remote_addr=source_addr,
                          remote_rkey=self.arena_region.rkey)
        # Pack the (small, fixed-size) metadata — §3.3 counts this as
        # the protocol's extra overhead versus static placement.  It is
        # a fixed struct, not a general serializer: near-memcpy cost.
        # The flag trails the metadata in one write, so a torn write
        # never exposes a flag without its metadata.
        epoch = self.lane.advance()
        encoded = meta.encode() + bytes([epoch])
        pack_start = executor.sim.now
        yield executor.cost.memcpy_time(len(encoded))
        _account_serialization(executor, pack_start, "meta-pack")
        proto_start = executor.sim.now
        yield from land(
            self.recovery, self.channel, remote_addr=self.meta_slot.addr,
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
                      "phase": "metadata-write", "epoch": epoch})
        return []


class DynamicReceiver:
    """Receiver half: poll the meta slot, allocate, one-sided READ."""

    def __init__(self, meta_region: MemRegion, ndims: int,
                 channel: RdmaChannel, arena: ArenaAllocator,
                 arena_region: MemRegion, dtype: DType,
                 priority: int = 0,
                 recovery: Optional[RecoveryManager] = None) -> None:
        self.meta_region = meta_region
        self.ndims = ndims
        self.channel = channel
        self.arena = arena
        self.arena_region = arena_region
        self.dtype = dtype
        self.priority = priority
        self.recovery = recovery
        self.flag = CompletionFlag(meta_region.buffer.backing,
                                   TensorMeta.encoded_size(ndims))
        self.receives = 0
        self._last_tensor: Optional[Tensor] = None

    def make_outcome(self, executor: Executor, node_name: str,
                     extra_delay: float = 0.0) -> Outcome:
        flag = self.flag

        def complete() -> Outcome:
            flag.consume()
            raw = self.meta_region.read(0, flag.offset)
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
                yield from land(
                    self.recovery, self.channel, local_addr=tensor.addr,
                    local_region=self.arena_region,
                    remote_addr=meta.remote_addr, remote_region=remote,
                    size=meta.data_nbytes,
                    direction=Direction.REMOTE_TO_LOCAL,
                    role="dynamic-payload-read", priority=self.priority)
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
        return Outcome.polling(poll=flag.armed, complete=complete,
                               flag=(flag.backing, flag.offset))
