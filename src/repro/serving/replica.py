"""A model-serving replica: forward-only executor behind an RDMA slot.

Each replica owns two router-writable regions (static placement — the
router writes request payloads and batch metadata with one-sided
verbs, no replica CPU on the receive path) and a long-lived
single-device session whose graph is one forward pass.  The session
is built once and reused for every batch: variables stay resident in
the publication arenas (the executor's compute cost is what we model,
the weights feed it via the zero-copy version swap), so serving a
batch is poll flag -> decode -> forward -> write response.

Wire protocol (all little-endian, flag byte last so a torn commit can
never arm it):

* meta slot (16 B, router -> replica): ``batch_id u32 | count u16 |
  nbytes u32 | pad | epoch-flag u8`` — posted *after* the payload
  write on the same QP, so FIFO commit order makes the armed flag
  imply the payload landed;
* response record (8 B, replica -> router): ``batch_id u32 |
  count u16 | pad | epoch-flag u8``, again posted after the response
  payload on the same QP.
"""

from __future__ import annotations

import struct
from typing import Generator

from ..core.device import Direction, RdmaDevice
from ..core.publication import WeightSubscriber, park_until
from ..graph.builder import GraphBuilder
from ..graph.session import Session
from ..graph.transfer_api import NullComm
from ..core.transfer import CompletionFlag, EpochLane
from ..models.spec import ModelSpec
from ..simnet.verbs import ROLE_SERVING_RESPONSE, SERVING_PRIORITY
from .load import REQUEST_BYTES, RESPONSE_BYTES


META_STRUCT = struct.Struct("<IHI")
META_SIZE = 16
META_FLAG_OFFSET = META_SIZE - 1

RESP_STRUCT = struct.Struct("<IH")
RESP_RECORD_SIZE = 8
RESP_FLAG_OFFSET = RESP_RECORD_SIZE - 1

#: fraction of a full training step one forward pass costs; backward
#: is roughly as expensive as forward, so inference runs at half the
#: per-sample time of Table 2
FORWARD_FRACTION = 0.5


def forward_time(spec: ModelSpec, batch_size: int) -> float:
    """Simulated forward-pass time for one batch on a replica GPU."""
    return spec.compute_time(batch_size) * FORWARD_FRACTION


class Replica:
    """One serving replica: RDMA request slots + a reusable session."""

    def __init__(self, rank: int, cluster, device: RdmaDevice,
                 spec: ModelSpec, *, max_batch: int,
                 subscriber: WeightSubscriber, metrics=None) -> None:
        self.rank = rank
        self.device = device
        self.host = device.host
        self.sim = self.host.sim
        self.spec = spec
        self.subscriber = subscriber
        self.metrics = metrics
        # Router-writable request slots (descriptors go to the router
        # at attach time, the setup path is out-of-band RPC).
        self.meta_region = device.allocate_mem_region(
            META_SIZE, label=f"serve-meta[{rank}]")
        self.input_region = device.allocate_mem_region(
            max_batch * REQUEST_BYTES,
            label=f"serve-input[{rank}]")
        # Local staging the response write reads from (size-only: it
        # holds no real bytes, so only timing moves).
        self.resp_src = device.allocate_mem_region(
            max_batch * RESPONSE_BYTES,
            label=f"serve-resp-src[{rank}]")
        # Filled in by Router.attach_replica().
        self.resp_channel = None
        self.resp_remote = None
        self._resp_lane = EpochLane()
        self._meta_flag = CompletionFlag(self.meta_region.buffer.backing,
                                         META_FLAG_OFFSET)
        self._stopped = False
        self.crashed = False
        self.batches_served = 0
        self.requests_served = 0
        self.torn_serves = 0
        self._build_session(cluster, max_batch)

    def _build_session(self, cluster, max_batch: int) -> None:
        device_name = f"replica{self.rank}"
        builder = GraphBuilder(f"serve-{self.spec.name}-{self.rank}",
                               default_device=device_name)
        compute = builder.synthetic_compute(
            time=forward_time(self.spec, max_batch), name="forward")
        self._compute_node = compute.node
        self.session = Session(cluster, builder.finalize(),
                               {device_name: self.host}, comm=NullComm())

    # -- wiring (called by the router) -------------------------------------------

    def connect_router(self, resp_channel, resp_remote) -> None:
        """Give the replica its response path back to the router."""
        self.resp_channel = resp_channel
        self.resp_remote = resp_remote

    @property
    def ready(self) -> bool:
        """Readiness probe: has a weight snapshot to serve from.

        Deliberately does *not* reflect crashes — the router learns
        about a dead replica only the honest way, from dispatch
        timeouts (the same end-to-end evidence the recovery layer
        uses), never by peeking at remote state.
        """
        return self.subscriber.ready

    # -- lifecycle ----------------------------------------------------------------

    def stop(self) -> None:
        self._stopped = True
        self.host.notify_memory_commit()

    def fail(self) -> None:
        """Kill the replica (crash injection for rerouting tests).

        The serve loop stops consuming its meta slot; the router's
        dispatch timeout then detects the death and reroutes.
        """
        self.crashed = True
        self.stop()

    # -- the serve loop -----------------------------------------------------------

    def serve(self) -> Generator:
        """Process: consume batches from the meta slot until stopped."""
        cost = self.host.cost
        while not self._stopped:
            yield from park_until(
                self.sim, self.host,
                lambda: self._stopped or self._meta_flag.armed())
            if self._stopped:
                return
            batch_id, count, nbytes = META_STRUCT.unpack(
                self.meta_region.read(0, META_STRUCT.size))
            self._meta_flag.consume()
            # Decode + per-batch activation allocation on a CPU lane.
            yield from self.host.cpu.run(cost.sched_dispatch
                                         + cost.malloc_time(nbytes))
            if self.subscriber.ready:
                # The zero-copy torn-read assertion: every stamp in the
                # active arena must match the active version.
                if not self.subscriber.snapshot_consistent():
                    self.torn_serves += 1
                    if self.metrics is not None:
                        self.metrics.counter("serving.torn_serves").add(1)
            # Forward pass: batch-scaled compute through the reusable
            # session (attrs are read at execution time).
            self._compute_node.attrs["time"] = forward_time(self.spec, count)
            yield self.session.iteration_process()
            self.batches_served += 1
            self.requests_served += count
            if self._stopped or self.resp_channel is None:
                return
            yield from self._respond(batch_id, count)

    def _respond(self, batch_id: int, count: int) -> Generator:
        resp_nbytes = count * RESPONSE_BYTES
        # Payload first, record+flag second, same QP: FIFO commit order
        # is the correctness argument, exactly like the request side.
        self.resp_channel.memcpy(
            self.resp_src.addr, self.resp_src,
            self.resp_remote.addr + RESP_RECORD_SIZE, self.resp_remote,
            resp_nbytes, Direction.LOCAL_TO_REMOTE,
            role=ROLE_SERVING_RESPONSE, priority=SERVING_PRIORITY)
        record = (RESP_STRUCT.pack(batch_id, count)
                  + b"\x00" * (RESP_FLAG_OFFSET - RESP_STRUCT.size)
                  + bytes([self._resp_lane.advance()]))
        yield self.resp_channel.memcpy_event(
            0, None, self.resp_remote.addr, self.resp_remote, len(record),
            Direction.LOCAL_TO_REMOTE, inline_data=record,
            role=ROLE_SERVING_RESPONSE, priority=SERVING_PRIORITY)
