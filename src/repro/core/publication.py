"""Versioned weight publication into double-buffered replica arenas.

The serving plane's trainer-to-replica path: the trainer pushes each
new parameter snapshot into one of two preallocated RDMA arenas on
every replica with one-sided writes (static placement, §3.2) and
commits the version with the epoch-flag protocol from the recovery
layer — replicas swap arenas on the flag, so a forward pass always
reads a complete snapshot and **never a torn one**:

* each arena holds every variable's payload followed by a 4-byte
  *version stamp*, and a trailer carrying the arena version plus the
  flag byte.  The flag is written last (its own inline verb; in
  recovery mode only after every payload/stamp completion is
  confirmed), so an armed flag implies the whole snapshot landed;
* version ``v`` goes to arena ``v % 2``; the publisher never starts
  writing an arena until the replica has *acknowledged* swapping onto
  the other one (a small one-sided "weight-ack" write back), so the
  arena a replica serves from is never under modification;
* a replica can therefore assert, at serve time, that every stamp in
  its active arena equals the active version — the torn-read check the
  chaos sweep exercises.

Distribution follows a :mod:`repro.collectives.broadcast` schedule:
``direct`` (trainer writes every replica) or ``chain`` (replica ``r``
store-and-forwards the snapshot to ``r + 1``, keeping the root's
egress at one model per publish regardless of replica count).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, Generator, List, Optional, Sequence, Tuple

from ..collectives.broadcast import broadcast_hops
from ..models.spec import ModelSpec
from ..simnet.simulator import Simulator
from ..simnet.topology import Host
from ..simnet.verbs import (PUBLICATION_PRIORITY, ROLE_WEIGHT_ACK,
                            ROLE_WEIGHT_PUBLISH, ROLE_WEIGHT_STAMP)
from .device import Direction, MemRegion, RdmaChannel, RemoteMemRegion
from .recovery import RecoveryManager
from .transfer import FLAG_CLEAR, _next_epoch


STAMP_BYTES = 4
_VERSION_STRUCT = struct.Struct("<I")


def pack_version(version: int) -> bytes:
    return _VERSION_STRUCT.pack(version & 0xFFFFFFFF)


def read_version(data: bytes) -> int:
    return _VERSION_STRUCT.unpack(data)[0]


def park_until(sim: Simulator, host: Host, predicate: Callable[[], bool],
               backoff_base: float = 2e-6,
               backoff_max: float = 50e-6) -> Generator:
    """Process: poll ``predicate``, parking on the host's commit wakeups.

    The flag-byte poller idiom of §3.2 outside the executor: check,
    then sleep until either remote data commits into this host's
    memory or an exponential-backoff timer fires (the timer only
    bounds simulator events; a real spinning poller would see the flag
    within its poll interval).  Returns once ``predicate()`` is true.
    """
    backoff = backoff_base
    while not predicate():
        wake = sim.event()

        def _notify(*_landed, event=wake) -> None:
            if not event.triggered:
                event.succeed()

        host.wake_listeners.append(_notify)
        try:
            yield sim.any_of([wake, sim.timeout(backoff)])
        finally:
            host.wake_listeners.remove(_notify)
        backoff = min(backoff * 2, backoff_max)


@dataclass(frozen=True)
class VariableSlot:
    """One variable's placement inside a publication arena."""

    name: str
    offset: int          # payload start (arena-relative)
    nbytes: int
    stamp_offset: int    # 4-byte version stamp, directly after payload


class PublicationLayout:
    """Static arena layout for one model: payload+stamp slots, trailer.

    Computed once from the :class:`~repro.models.spec.ModelSpec` and
    shared by publisher and subscribers — both sides address the same
    offsets, which is what makes the writes one-sided.
    """

    def __init__(self, spec: ModelSpec) -> None:
        self.spec = spec
        self.slots: List[VariableSlot] = []
        offset = 0
        for var in spec.variables:
            self.slots.append(VariableSlot(
                name=var.name, offset=offset, nbytes=var.nbytes,
                stamp_offset=offset + var.nbytes))
            offset += var.nbytes + STAMP_BYTES
        self.version_offset = offset
        self.flag_offset = offset + STAMP_BYTES
        self.size = self.flag_offset + 1

    @property
    def payload_bytes(self) -> int:
        return sum(slot.nbytes for slot in self.slots)


class SnapshotWriter:
    """Writes versioned snapshots into one peer's arena pair.

    Shared by the trainer-side publisher and by chain-forwarding
    subscribers.  ``source_region``/``source_offsets`` say where the
    payload bytes live locally; ``relay_stamps`` distinguishes the
    trainer (synthesizes each stamp from the version being published)
    from a forwarder (relays the stamp bytes already in its own arena,
    so a corrupted hop stays detectable at the end of the chain).
    """

    def __init__(self, channel: RdmaChannel, layout: PublicationLayout,
                 arenas: Tuple[RemoteMemRegion, RemoteMemRegion],
                 ack_region: MemRegion,
                 recovery: Optional[RecoveryManager] = None,
                 relay_stamps: bool = False,
                 priority: int = PUBLICATION_PRIORITY) -> None:
        self.channel = channel
        self.layout = layout
        self.arenas = arenas
        self.ack_region = ack_region
        self.recovery = recovery
        self.relay_stamps = relay_stamps
        self.priority = priority
        self.source_region: Optional[MemRegion] = None
        self.source_offsets: Sequence[int] = ()
        self._epochs = [0, 0]  # per-arena flag epoch lane

    def set_source(self, region: MemRegion, offsets: Sequence[int]) -> None:
        self.source_region = region
        self.source_offsets = list(offsets)

    def acked_version(self) -> int:
        """Last version the target acknowledged swapping onto."""
        return read_version(self.ack_region.read(0, STAMP_BYTES))

    def _transfer(self, *, remote_addr: int, remote_region: RemoteMemRegion,
                  size: int, local_addr: int = 0,
                  local_region: Optional[MemRegion] = None,
                  inline_data: Optional[bytes] = None, role: str,
                  awaited: bool = True) -> Generator:
        if self.recovery is not None:
            # Recovery mode confirms every completion before the next
            # verb goes out, which is what keeps "flag last" true even
            # through retries and QP re-establishment.
            yield from self.recovery.reliable_memcpy(
                self.channel, local_addr=local_addr,
                local_region=local_region, remote_addr=remote_addr,
                remote_region=remote_region, size=size,
                direction=Direction.LOCAL_TO_REMOTE,
                inline_data=inline_data, role=role, priority=self.priority)
        elif awaited:
            yield self.channel.memcpy_event(
                local_addr, local_region, remote_addr, remote_region, size,
                Direction.LOCAL_TO_REMOTE, inline_data=inline_data,
                role=role, priority=self.priority)
        else:
            # Fault-free fabric: per-QP FIFO commits in post order, so
            # intermediate verbs need no completion wait of their own.
            self.channel.memcpy(
                local_addr, local_region, remote_addr, remote_region, size,
                Direction.LOCAL_TO_REMOTE, inline_data=inline_data,
                role=role, priority=self.priority)

    def write_snapshot(self, version: int) -> Generator:
        """Process: land snapshot ``version``, then arm the arena flag."""
        assert self.source_region is not None, "set_source before writing"
        arena_idx = version % 2
        arena = self.arenas[arena_idx]
        for slot, src_off in zip(self.layout.slots, self.source_offsets):
            yield from self._transfer(
                remote_addr=arena.addr + slot.offset, remote_region=arena,
                size=slot.nbytes,
                local_addr=self.source_region.addr + src_off,
                local_region=self.source_region,
                role=ROLE_WEIGHT_PUBLISH, awaited=False)
            if self.relay_stamps:
                stamp = self.source_region.read(slot.stamp_offset,
                                                STAMP_BYTES)
            else:
                stamp = pack_version(version)
            yield from self._transfer(
                remote_addr=arena.addr + slot.stamp_offset,
                remote_region=arena, size=STAMP_BYTES, inline_data=stamp,
                role=ROLE_WEIGHT_STAMP, awaited=False)
        self._epochs[arena_idx] = _next_epoch(self._epochs[arena_idx])
        trailer = pack_version(version) + bytes([self._epochs[arena_idx]])
        # Version + flag travel in one small inline verb with the flag
        # byte last: partial commits land ascending prefixes, so a torn
        # trailer can never show an armed flag over a stale version.
        yield from self._transfer(
            remote_addr=arena.addr + self.layout.version_offset,
            remote_region=arena, size=len(trailer), inline_data=trailer,
            role=ROLE_WEIGHT_PUBLISH, awaited=True)


class WeightSubscriber:
    """Replica-side arena pair: swap on flag, ack, forward, verify."""

    def __init__(self, rank: int, host: Host, layout: PublicationLayout,
                 arenas: Tuple[MemRegion, MemRegion],
                 ack_channel: RdmaChannel, ack_remote: RemoteMemRegion,
                 recovery: Optional[RecoveryManager] = None,
                 metrics=None,
                 latest_version: Optional[Callable[[], int]] = None) -> None:
        self.rank = rank
        self.host = host
        self.sim = host.sim
        self.layout = layout
        self.arenas = arenas
        self.ack_channel = ack_channel
        self.ack_remote = ack_remote
        self.recovery = recovery
        self.metrics = metrics
        self.latest_version = latest_version or (lambda: 0)
        #: the arena a forward pass reads from; None until first publish
        self.active: Optional[int] = None
        self.active_version = 0
        self.swaps = 0
        self._expect = [1, 1]
        self._stopped = False
        #: chain mode: downstream writer fed from this replica's arenas
        self.forward: Optional[SnapshotWriter] = None

    def link_downstream(self, writer: SnapshotWriter) -> None:
        """Chain broadcast: forward every activated snapshot downstream."""
        self.forward = writer

    # -- state -------------------------------------------------------------------

    @property
    def ready(self) -> bool:
        return self.active is not None

    def staleness(self) -> int:
        """Versions the active snapshot lags the trainer's latest."""
        return max(0, self.latest_version() - self.active_version)

    def stamps(self, arena_idx: Optional[int] = None) -> List[int]:
        """Per-variable version stamps of an arena (default: active)."""
        idx = self.active if arena_idx is None else arena_idx
        if idx is None:
            return []
        region = self.arenas[idx]
        return [read_version(region.read(slot.stamp_offset, STAMP_BYTES))
                for slot in self.layout.slots]

    def snapshot_consistent(self) -> bool:
        """Serve-time torn-read assertion: all stamps == active version.

        Vacuously true before the first publish — a replica with no
        snapshot serves nothing (the router gates on :attr:`ready`).
        """
        if self.active is None:
            return True
        return all(stamp == self.active_version for stamp in self.stamps())

    # -- the watcher process -----------------------------------------------------

    def stop(self) -> None:
        self._stopped = True
        self.host.notify_memory_commit()

    def _armed_arena(self) -> Optional[int]:
        for idx in (0, 1):
            flag = self.arenas[idx].read_byte(self.layout.flag_offset)
            if flag == self._expect[idx]:
                return idx
        return None

    def watch(self) -> Generator:
        """Process: swap the active arena whenever a publish commits."""
        while not self._stopped:
            yield from park_until(
                self.sim, self.host,
                lambda: self._stopped or self._armed_arena() is not None)
            if self._stopped:
                return
            idx = self._armed_arena()
            if idx is None:  # pragma: no cover - racing stop()
                continue
            arena = self.arenas[idx]
            arena.write(FLAG_CLEAR, self.layout.flag_offset)
            self._expect[idx] = _next_epoch(self._expect[idx])
            version = read_version(
                arena.read(self.layout.version_offset, STAMP_BYTES))
            # Zero-copy version swap: forward passes read the new arena
            # the moment the pointer flips; no weight copy, no lock.
            self.active = idx
            self.active_version = version
            self.swaps += 1
            if self.metrics is not None:
                self.metrics.counter("serving.weight_swaps").add(1)
                self.metrics.histogram("serving.staleness_versions").observe(
                    self.staleness())
            if self.forward is not None:
                yield from self._forward_downstream(version, idx)
            yield from self._ack(version)

    def _forward_downstream(self, version: int, arena_idx: int) -> Generator:
        # Chain hop: wait until downstream swapped off the target arena
        # (its ack >= version - 1), then relay this arena's snapshot.
        writer = self.forward
        writer.set_source(self.arenas[arena_idx],
                          [slot.offset for slot in self.layout.slots])
        yield from park_until(
            self.sim, self.host,
            lambda: self._stopped or writer.acked_version() >= version - 1)
        if self._stopped:
            return
        yield from writer.write_snapshot(version)

    def _ack(self, version: int) -> Generator:
        payload = pack_version(version)
        if self.recovery is not None:
            yield from self.recovery.reliable_memcpy(
                self.ack_channel, remote_addr=self.ack_remote.addr,
                remote_region=self.ack_remote, size=STAMP_BYTES,
                direction=Direction.LOCAL_TO_REMOTE, inline_data=payload,
                role=ROLE_WEIGHT_ACK, priority=PUBLICATION_PRIORITY)
        else:
            yield self.ack_channel.memcpy_event(
                0, None, self.ack_remote.addr, self.ack_remote, STAMP_BYTES,
                Direction.LOCAL_TO_REMOTE, inline_data=payload,
                role=ROLE_WEIGHT_ACK, priority=PUBLICATION_PRIORITY)


class WeightPublisher:
    """Trainer-side snapshot source driving a broadcast schedule."""

    def __init__(self, host: Host, layout: PublicationLayout,
                 source_region: MemRegion,
                 writers: Sequence[SnapshotWriter],
                 metrics=None) -> None:
        self.host = host
        self.sim = host.sim
        self.layout = layout
        self.source_region = source_region
        self.writers = list(writers)
        self.metrics = metrics
        #: latest snapshot version the trainer has produced
        self.version = 0
        self.publishes = 0
        self._stopped = False

    def stop(self) -> None:
        self._stopped = True
        self.host.notify_memory_commit()

    def publish(self) -> Generator:
        """Process: one publish round over every root-attached target."""
        self.version += 1
        version = self.version
        started = self.sim.now
        for writer in self.writers:
            # Double-buffer gate: never touch an arena the target may
            # still be serving (or forwarding) from.
            yield from park_until(
                self.sim, self.host,
                lambda w=writer: self._stopped
                or w.acked_version() >= version - 1)
            if self._stopped:
                return
            yield from writer.write_snapshot(version)
        self.publishes += 1
        if self.metrics is not None:
            self.metrics.counter("serving.weight_publishes").add(1)
            self.metrics.histogram("serving.publish_duration_s").observe(
                self.sim.now - started)

    def run(self, interval: float) -> Generator:
        """Process: publish at a fixed cadence until stopped."""
        while not self._stopped:
            yield from self.publish()
            if self._stopped:
                return
            yield (interval)


def build_publication(trainer_device, replica_devices, spec: ModelSpec,
                      mode: str = "direct",
                      recovery: Optional[RecoveryManager] = None,
                      metrics=None, qp_idx: int = 0
                      ) -> Tuple[WeightPublisher, List[WeightSubscriber]]:
    """Wire the publication plane over already-created RDMA devices.

    Allocates the trainer's snapshot source, each replica's arena pair
    and the per-link ack slots, then connects writers along the
    ``direct`` or ``chain`` broadcast schedule.  Descriptor exchange
    happens at build time (the vanilla-RPC setup path of §3.1), never
    on the serving critical path.
    """
    layout = PublicationLayout(spec)
    hops = broadcast_hops(len(replica_devices), mode)

    source = trainer_device.allocate_mem_region(
        max(layout.payload_bytes, 1), label="publish-src", dense=False)
    source_offsets: List[int] = []
    cursor = 0
    for slot in layout.slots:
        source_offsets.append(cursor)
        cursor += slot.nbytes

    arena_pairs: List[Tuple[MemRegion, MemRegion]] = [
        tuple(device.allocate_mem_region(layout.size,
                                         label=f"weights[{i}]", dense=False)
              for i in range(2))
        for device in replica_devices
    ]

    publisher_writers: List[SnapshotWriter] = []
    writer_for = {}   # dst rank -> (src rank, SnapshotWriter)
    for src_rank, dst_rank in hops:
        src_device = (trainer_device if src_rank == -1
                      else replica_devices[src_rank])
        dst_device = replica_devices[dst_rank]
        ack_region = src_device.allocate_mem_region(
            STAMP_BYTES, label=f"weight-ack[{dst_rank}]", dense=True)
        writer = SnapshotWriter(
            channel=src_device.get_channel(dst_device.endpoint, qp_idx),
            layout=layout,
            arenas=tuple(r.descriptor() for r in arena_pairs[dst_rank]),
            ack_region=ack_region, recovery=recovery,
            relay_stamps=src_rank >= 0)
        if src_rank == -1:
            writer.set_source(source, source_offsets)
            publisher_writers.append(writer)
        writer_for[dst_rank] = (src_rank, writer)

    publisher = WeightPublisher(trainer_device.host, layout, source,
                                publisher_writers, metrics=metrics)

    subscribers: List[WeightSubscriber] = []
    for rank, device in enumerate(replica_devices):
        src_rank, writer = writer_for[rank]
        upstream_device = (trainer_device if src_rank == -1
                           else replica_devices[src_rank])
        subscribers.append(WeightSubscriber(
            rank=rank, host=device.host, layout=layout,
            arenas=arena_pairs[rank],
            ack_channel=device.get_channel(upstream_device.endpoint, qp_idx),
            ack_remote=writer.ack_region.descriptor(), recovery=recovery,
            metrics=metrics, latest_version=lambda: publisher.version))

    # Chain mode: replica r owns the writer that feeds r + 1.
    for dst_rank, (src_rank, writer) in writer_for.items():
        if src_rank >= 0:
            subscribers[src_rank].link_downstream(writer)

    return publisher, subscribers
