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

The trainer writes every replica's arenas itself, so its egress is one
model per replica per publish.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, Generator, List, Optional, Sequence, Tuple

from ..models.spec import ModelSpec
from ..simnet.simulator import Simulator
from ..simnet.topology import Host
from ..simnet.verbs import (PUBLICATION_PRIORITY, ROLE_WEIGHT_ACK,
                            ROLE_WEIGHT_PUBLISH, ROLE_WEIGHT_STAMP)
from .device import Direction, MemRegion, RdmaChannel, RemoteMemRegion
from .recovery import RecoveryManager, land
from .transfer import CompletionFlag, EpochLane


STAMP_BYTES = 4
_VERSION_STRUCT = struct.Struct("<I")


def pack_version(version: int) -> bytes:
    return _VERSION_STRUCT.pack(version & 0xFFFFFFFF)


def read_version(data: bytes) -> int:
    return _VERSION_STRUCT.unpack(data)[0]


#: first and largest idle-backoff timer of :func:`park_until`, sim s
PARK_BACKOFF_BASE = 2e-6
PARK_BACKOFF_MAX = 50e-6


def park_until(sim: Simulator, host: Host,
               predicate: Callable[[], bool]) -> Generator:
    """Process: poll ``predicate``, parking on the host's commit wakeups.

    The flag-byte poller idiom of §3.2 outside the executor: check,
    then sleep until either remote data commits into this host's
    memory or an exponential-backoff timer fires.  Returns once
    ``predicate()`` is true.  A predicate that a commit turns true is
    seen at that commit; one that turns true any other way (in a
    callback, such as a drain count) is seen only when the timer
    fires, up to ``PARK_BACKOFF_MAX`` late.
    """
    backoff = PARK_BACKOFF_BASE
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
        backoff = min(backoff * 2, PARK_BACKOFF_MAX)


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
    """Writes the trainer's versioned snapshots into one replica's arena
    pair.  ``source_region``/``source_offsets`` say where the payload
    bytes live on the trainer; each stamp is the version published."""

    def __init__(self, channel: RdmaChannel, layout: PublicationLayout,
                 arenas: Tuple[RemoteMemRegion, RemoteMemRegion],
                 ack_region: MemRegion, source_region: MemRegion,
                 source_offsets: Sequence[int],
                 recovery: Optional[RecoveryManager] = None) -> None:
        self.channel = channel
        self.layout = layout
        self.arenas = arenas
        self.ack_region = ack_region
        self.source_region = source_region
        self.source_offsets = list(source_offsets)
        self.recovery = recovery
        self._lanes = (EpochLane(), EpochLane())  # one per arena

    def acked_version(self) -> int:
        """Last version the target acknowledged swapping onto."""
        return read_version(self.ack_region.read(0, STAMP_BYTES))

    def write_snapshot(self, version: int) -> Generator:
        """Process: land snapshot ``version``, then arm the arena flag."""
        arena_idx = version % 2
        arena = self.arenas[arena_idx]
        # Recovery mode confirms every completion before the next verb
        # goes out, which keeps "flag last" true through retries and QP
        # re-establishment; fault-free, only the trailer is awaited.
        for slot, src_off in zip(self.layout.slots, self.source_offsets):
            yield from land(
                self.recovery, self.channel,
                local_addr=self.source_region.addr + src_off,
                local_region=self.source_region,
                remote_addr=arena.addr + slot.offset, remote_region=arena,
                size=slot.nbytes, direction=Direction.LOCAL_TO_REMOTE,
                role=ROLE_WEIGHT_PUBLISH, priority=PUBLICATION_PRIORITY,
                wait=False)
            yield from land(
                self.recovery, self.channel,
                remote_addr=arena.addr + slot.stamp_offset,
                remote_region=arena, size=STAMP_BYTES,
                direction=Direction.LOCAL_TO_REMOTE,
                inline_data=pack_version(version), role=ROLE_WEIGHT_STAMP,
                priority=PUBLICATION_PRIORITY, wait=False)
        trailer = (pack_version(version)
                   + bytes([self._lanes[arena_idx].advance()]))
        # Version + flag travel in one small inline verb with the flag
        # byte last: partial commits land ascending prefixes, so a torn
        # trailer can never show an armed flag over a stale version.
        yield from land(
            self.recovery, self.channel,
            remote_addr=arena.addr + self.layout.version_offset,
            remote_region=arena, size=len(trailer),
            direction=Direction.LOCAL_TO_REMOTE, inline_data=trailer,
            role=ROLE_WEIGHT_PUBLISH, priority=PUBLICATION_PRIORITY)


class WeightSubscriber:
    """Replica-side arena pair: swap on flag, ack, verify."""

    def __init__(self, rank: int, host: Host, layout: PublicationLayout,
                 arenas: Tuple[MemRegion, MemRegion],
                 ack_channel: RdmaChannel, ack_remote: RemoteMemRegion,
                 latest_version: Callable[[], int],
                 recovery: Optional[RecoveryManager] = None,
                 metrics=None) -> None:
        self.rank = rank
        self.host = host
        self.sim = host.sim
        self.layout = layout
        self.arenas = arenas
        self.ack_channel = ack_channel
        self.ack_remote = ack_remote
        self.recovery = recovery
        self.metrics = metrics
        self.latest_version = latest_version
        #: the arena a forward pass reads from; None until first publish
        self.active: Optional[int] = None
        self.active_version = 0
        self.swaps = 0
        self._flags = tuple(
            CompletionFlag(arena.buffer.backing, layout.flag_offset)
            for arena in arenas)
        self._stopped = False

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
            if self._flags[idx].armed():
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
            self._flags[idx].consume()
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
            yield from self._ack(version)

    def _ack(self, version: int) -> Generator:
        yield from land(
            self.recovery, self.ack_channel,
            remote_addr=self.ack_remote.addr, remote_region=self.ack_remote,
            size=STAMP_BYTES, direction=Direction.LOCAL_TO_REMOTE,
            inline_data=pack_version(version), role=ROLE_WEIGHT_ACK,
            priority=PUBLICATION_PRIORITY)


class WeightPublisher:
    """Trainer-side snapshot source writing to every replica."""

    def __init__(self, host: Host, writers: Sequence[SnapshotWriter],
                 metrics=None) -> None:
        self.host = host
        self.sim = host.sim
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
        """Process: one publish round over every replica."""
        self.version += 1
        version = self.version
        started = self.sim.now
        for writer in self.writers:
            # Double-buffer gate: never touch an arena the target may
            # still be serving from.
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
                      recovery: Optional[RecoveryManager] = None,
                      metrics=None, qp_idx: int = 0
                      ) -> Tuple[WeightPublisher, List[WeightSubscriber]]:
    """Wire the publication plane over already-created RDMA devices.

    Allocates the trainer's snapshot source, each replica's arena pair
    and its ack slot on the trainer, then connects one writer per
    replica.  Descriptor exchange happens at build time (the
    vanilla-RPC setup path of §3.1), never on the serving critical
    path.
    """
    layout = PublicationLayout(spec)
    source = trainer_device.allocate_mem_region(
        max(layout.payload_bytes, 1), label="publish-src")
    source_offsets: List[int] = []
    cursor = 0
    for slot in layout.slots:
        source_offsets.append(cursor)
        cursor += slot.nbytes

    arena_pairs: List[Tuple[MemRegion, MemRegion]] = [
        tuple(device.allocate_mem_region(layout.size,
                                         label=f"weights[{i}]")
              for i in range(2))
        for device in replica_devices
    ]

    writers: List[SnapshotWriter] = []
    for rank, device in enumerate(replica_devices):
        ack_region = trainer_device.allocate_mem_region(
            STAMP_BYTES, label=f"weight-ack[{rank}]")
        writers.append(SnapshotWriter(
            channel=trainer_device.get_channel(device.endpoint, qp_idx),
            layout=layout,
            arenas=tuple(r.descriptor() for r in arena_pairs[rank]),
            ack_region=ack_region, source_region=source,
            source_offsets=source_offsets, recovery=recovery))

    publisher = WeightPublisher(trainer_device.host, writers,
                                metrics=metrics)
    subscribers = [
        WeightSubscriber(
            rank=rank, host=device.host, layout=layout,
            arenas=arena_pairs[rank],
            ack_channel=device.get_channel(trainer_device.endpoint, qp_idx),
            ack_remote=writer.ack_region.descriptor(), recovery=recovery,
            metrics=metrics, latest_version=lambda: publisher.version)
        for rank, (device, writer) in enumerate(zip(replica_devices,
                                                    writers))
    ]
    return publisher, subscribers
