"""The serving frontend: admission control, dispatch, health, reroute.

The router is the only component that talks to clients.  It admits
requests (shedding beyond a queue limit), batches them dynamically,
and dispatches each batch to an idle replica with two one-sided
writes — the batched payload, then the 16-byte meta record whose
epoch flag commits the batch (same-QP FIFO makes the flag imply the
payload).  Responses come back the same way in reverse; a per-replica
response slot on the router is polled by one poller process.

Health is timeout-based, the same end-to-end evidence the recovery
layer uses: a dispatch that produces no response within
``dispatch_timeout`` is a strike, two strikes mark the replica dead
and its in-flight batch is rerouted through the batcher to the
survivors.  Late responses from a presumed-dead replica are ignored
by batch-id mismatch, so a slow replica can rejoin the pool
harmlessly (it simply stops being dispatched to).
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Tuple

from ..core.device import DeviceError, Direction, RdmaDevice
from ..core.publication import park_until
from ..core.transfer import CompletionFlag, EpochLane
from ..simnet.verbs import ROLE_SERVING_REQUEST, SERVING_PRIORITY
from .batcher import DynamicBatcher
from .load import REQUEST_BYTES, RESPONSE_BYTES, Request
from .replica import (META_FLAG_OFFSET, META_SIZE, META_STRUCT,
                      RESP_FLAG_OFFSET, RESP_RECORD_SIZE, RESP_STRUCT,
                      Replica)


#: admission control: shed new requests once this many are in the
#: system (queued + dispatched), the classic open-loop overload guard
ADMISSION_LIMIT = 128

#: unanswered dispatches after which the router marks a replica dead
MAX_STRIKES = 2


class _ReplicaLink:
    """Router-side state for one attached replica."""

    def __init__(self, replica: Replica, channel, resp_region) -> None:
        self.replica = replica
        self.channel = channel
        self.meta_remote = replica.meta_region.descriptor()
        self.input_remote = replica.input_region.descriptor()
        self.resp_region = resp_region
        self.meta_lane = EpochLane()
        self.resp_flag = CompletionFlag(resp_region.buffer.backing,
                                        RESP_FLAG_OFFSET)
        self.busy = False
        #: the router's own belief, earned from dispatch timeouts —
        #: never read off the (possibly crashed) replica itself
        self.alive = True
        self.strikes = 0

    @property
    def available(self) -> bool:
        return self.alive and not self.busy and self.replica.ready


class Router:
    """Admission + dynamic batching + SLO-tagged dispatch + health."""

    def __init__(self, device: RdmaDevice, batcher: DynamicBatcher, *,
                 max_batch: int, dispatch_timeout: float = 0.1,
                 metrics=None) -> None:
        self.device = device
        self.host = device.host
        self.sim = self.host.sim
        self.batcher = batcher
        self.max_batch = max_batch
        self.dispatch_timeout = dispatch_timeout
        self.metrics = metrics
        self.links: List[_ReplicaLink] = []
        # Payload staging the dispatch write reads from (virtual).
        self._payload_src = self.device.allocate_mem_region(
            max_batch * REQUEST_BYTES, label="dispatch-src")
        self._outstanding: Dict[int, Tuple] = {}  # batch_id -> (event, link)
        self._next_batch_id = 1
        self._rr = 0
        self._freed: Optional = None
        self._stopped = False
        # Accounting for the drain condition and the result report.
        self.submitted = 0
        self.completed = 0
        self.shed = 0
        self.failed = 0
        self.in_system = 0
        self.latencies: List[float] = []
        #: (completion sim-time, latency) pairs — the burn-rate
        #: detector's windowed input (see observability.anomaly)
        self.latency_samples: List[Tuple[float, float]] = []
        self.replica_deaths = 0

    # -- wiring -------------------------------------------------------------------

    def attach_replica(self, replica: Replica) -> None:
        """Connect one replica: channels + slot descriptors, both ways."""
        channel = self.device.get_channel(replica.device.endpoint, 0)
        resp_region = self.device.allocate_mem_region(
            RESP_RECORD_SIZE + self.max_batch * RESPONSE_BYTES,
            label=f"resp-slot[{replica.rank}]")
        link = _ReplicaLink(replica, channel, resp_region)
        self.links.append(link)
        replica.connect_router(
            resp_channel=replica.device.get_channel(self.device.endpoint, 0),
            resp_remote=resp_region.descriptor())

    # -- admission ----------------------------------------------------------------

    def submit(self, request: Request) -> None:
        """Admit or shed one request (called by the load generator)."""
        self.submitted += 1
        if self.in_system >= ADMISSION_LIMIT:
            request.shed = True
            self.shed += 1
            if self.metrics is not None:
                self.metrics.counter("serving.shed").add(1)
            return
        self.in_system += 1
        if self.metrics is not None:
            self.metrics.gauge("serving.in_system").set(self.in_system)
        self.batcher.add(request)

    def drained(self, total: int) -> bool:
        """Every submitted request reached a terminal state."""
        return (self.submitted >= total
                and self.completed + self.shed + self.failed >= total)

    # -- lifecycle ----------------------------------------------------------------

    def stop(self) -> None:
        self._stopped = True
        self.batcher.stop()
        self.batcher.batches.put(None)  # wake the dispatcher's get()
        if self._freed is not None and not self._freed.triggered:
            self._freed.succeed()
        self.host.notify_memory_commit()

    def _notify_freed(self) -> None:
        if self._freed is not None and not self._freed.triggered:
            self._freed.succeed()

    # -- dispatch -----------------------------------------------------------------

    def dispatcher(self) -> Generator:
        """Process: pull closed batches, place each on an idle replica."""
        while not self._stopped:
            batch = yield self.batcher.batches.get()
            if batch is None or self._stopped:
                return
            link = yield from self._acquire_link(batch)
            if link is None:
                continue  # batch failed (no replicas left)
            link.busy = True
            self.sim.spawn(self._dispatch(batch, link),
                           name=f"dispatch-r{link.replica.rank}")

    def _acquire_link(self, batch: List[Request]):
        """Process: wait for an available replica (round-robin pick).

        Returns None — after recording the batch as failed — once no
        replica is left alive (total-loss degraded mode).
        """
        while not self._stopped:
            if not any(link.alive for link in self.links):
                self.failed += len(batch)
                self.in_system -= len(batch)
                if self.metrics is not None:
                    self.metrics.counter("serving.failed").add(len(batch))
                return None
            candidates = [link for link in self.links if link.available]
            if candidates:
                link = candidates[self._rr % len(candidates)]
                self._rr += 1
                return link
            # Wake on a dispatch finishing, or poll: a replica can also
            # become available without freeing (its first weight
            # snapshot arriving), which only a timer notices.
            self._freed = self.sim.event()
            yield self.sim.any_of([self._freed, self.sim.timeout(200e-6)])
            self._freed = None
        return None

    def _dispatch(self, batch: List[Request], link: _ReplicaLink) -> Generator:
        """Process: one batch on one replica, with timeout health check."""
        batch_id = self._next_batch_id
        self._next_batch_id += 1
        response = self.sim.event()
        self._outstanding[batch_id] = (response, link)
        total_nbytes = len(batch) * REQUEST_BYTES
        ok = False
        try:
            # Payload, then meta+flag, same QP: the armed flag implies
            # the payload committed (FIFO), mirroring §3.2's protocol.
            link.channel.memcpy(
                self._payload_src.addr, self._payload_src,
                link.input_remote.addr, link.input_remote,
                max(total_nbytes, 1), Direction.LOCAL_TO_REMOTE,
                role=ROLE_SERVING_REQUEST, priority=SERVING_PRIORITY)
            meta = (META_STRUCT.pack(batch_id, len(batch), total_nbytes)
                    + b"\x00" * (META_FLAG_OFFSET - META_STRUCT.size)
                    + bytes([link.meta_lane.advance()]))
            link.channel.memcpy(
                0, None, link.meta_remote.addr, link.meta_remote,
                len(meta), Direction.LOCAL_TO_REMOTE, inline_data=meta,
                role=ROLE_SERVING_REQUEST, priority=SERVING_PRIORITY)
            yield self.sim.any_of(
                [response, self.sim.timeout(self.dispatch_timeout)])
            ok = response.triggered
        except DeviceError:
            ok = False  # broken QP counts as a strike, like a timeout
        self._outstanding.pop(batch_id, None)
        if ok:
            link.strikes = 0
            now = self.sim.now
            for request in batch:
                request.completed = now
                latency = request.latency
                self.latencies.append(latency)
                self.latency_samples.append((now, latency))
                if self.metrics is not None:
                    self.metrics.histogram("serving.latency_s").observe(
                        latency)
            self.completed += len(batch)
            self.in_system -= len(batch)
            if self.metrics is not None:
                self.metrics.gauge("serving.in_system").set(self.in_system)
        else:
            link.strikes += 1
            if link.strikes >= MAX_STRIKES and link.alive:
                link.alive = False
                self.replica_deaths += 1
                if self.metrics is not None:
                    self.metrics.counter("serving.replica_deaths").add(1)
            # Reroute through the batcher; the batch keeps its requests'
            # original arrival times, so rerouting cost shows up in the
            # latency distribution rather than vanishing.
            for request in batch:
                request.redispatches += 1
                self.batcher.add(request)
        link.busy = False
        self._notify_freed()

    # -- responses ----------------------------------------------------------------

    def response_poller(self) -> Generator:
        """Process: match armed response slots to outstanding batches."""
        while not self._stopped:
            yield from park_until(
                self.sim, self.host,
                lambda: self._stopped or self._armed_link() is not None)
            if self._stopped:
                return
            link = self._armed_link()
            if link is None:  # pragma: no cover - racing stop()
                continue
            batch_id, _count = RESP_STRUCT.unpack(
                link.resp_region.read(0, RESP_STRUCT.size))
            link.resp_flag.consume()
            entry = self._outstanding.get(batch_id)
            if entry is not None:
                event, _link = entry
                if not event.triggered:
                    event.succeed()
            # else: late response from a rerouted batch — ignored.

    def _armed_link(self) -> Optional[_ReplicaLink]:
        for link in self.links:
            if link.resp_flag.armed():
                return link
        return None
