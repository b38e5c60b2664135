"""The simulated RDMA NIC: queue pairs, completion queues, DMA engine.

Timing model
------------
Every posted verb runs one pipeline (:meth:`RdmaNic._post`): fault gate,
resolve endpoints and payload, book the wire, land (commit or deliver,
wire record, CQE, verb span).  A READ is a WRITE with the two NICs
swapped plus a request leg; a SEND is a WRITE delivered to the remote
RECV queue.  The wire is a cut-through booking of the sender's egress
and the receiver's ingress: an uncontended transfer costs one
serialization delay, fan-in to a hot receiver queues on its ingress.

Each direction of a port is a *link server* answering ``book(size,
ready, then, priority, after)``; ``CostModel.wire_quantum_bytes`` picks
which.  :class:`Pipe` (0) books one contiguous interval, backfills idle
gaps and resolves at booking time with no heap events (64 KiB WRITE /
READ / SEND: 2 / 2 / 3 events).  :class:`WireScheduler` serves a quantum
at a time in (priority, arrival) order so an urgent transfer preempts a
bulk one mid-flight, at 4 more events per verb (6 / 6 / 7) and ~70 %
more host time; alone on the wire it reproduces the pipe's clock.  Each
does what the other cannot, so both stay, and only the verbs'
cut-through booking (``_book_wire_*``) knows which one it talks to.

Semantics model
---------------
One-sided WRITEs commit into the destination address space in
**ascending address order**, in several chunks spread across the
transfer window — exactly the property the paper's flag-byte completion
protocol relies on (§3.2).  A concurrent reader observes a committed
prefix.  The landing is one heap entry, at its end: the chunks before
the last commit when the backing is touched
(:class:`~repro.simnet.memory.Landing`).  READs pull remote memory with
an extra request leg.  SENDs require a posted RECV on the destination
queue pair and consume it in FIFO order.
"""

from __future__ import annotations

import itertools
import operator
from bisect import bisect_right
from collections import defaultdict, deque
from heapq import heappop, heappush
from typing import Callable, Deque, Dict, List, Optional, Tuple

from .costmodel import CostModel
from .faults import FaultVerdict
from .memory import (Backing, Landing, MemoryRegion, MrTable, MemoryError_,
                     Pieces, clip_pieces)
from .simulator import Event, Simulator
from .verbs import Completion, Opcode, WcStatus, WorkRequest


#: What a link server calls when a booking resolves: ``(start, end)``.
Then = Callable[[float, float], None]

#: Commit chunks per WRITE/READ landing over ``SINGLE_CHUNK_LIMIT``: how
#: finely a reader in mid-window sees the ascending prefix grow.
MAX_COMMIT_CHUNKS = 4
#: Writes at or below this size commit in a single chunk.
SINGLE_CHUNK_LIMIT = 4096

_interval_end = operator.itemgetter(1)


def record_wire(cluster, kind: str, src: str, dst: str, size: int,
                start: float, end: float, role: str = "") -> None:
    """Account one wire transfer to the cluster's metrics and tracer."""
    metrics = cluster.metrics
    if metrics is not None:
        metrics.record_transfer(kind, src, dst, size, start, end, role=role)
    tracer = cluster.tracer
    if tracer is not None:
        tracer.record("wire", f"{kind} {size}B", src, "nic:wire", start, end,
                      args={"dst": dst, "nbytes": size, "role": role})
        tracer.metrics.histogram("transfer_size_bytes").observe(size)


class Pipe:
    """One direction of a NIC port: bandwidth reservation with backfill.

    A transfer of ``S`` bytes books ``S / bandwidth`` seconds of pipe
    time starting no earlier than its data is available.  Bookings may
    fill idle gaps left by transfers whose data arrives later, so a
    backed-up flow does not head-of-line-block unrelated traffic (the
    wire interleaves packets); ordering guarantees within one QP are
    enforced by the QP itself, not the pipe.
    """

    def __init__(self, bandwidth: float) -> None:
        self.bandwidth = bandwidth
        self.bytes_carried = 0
        #: sorted, disjoint busy intervals
        self._busy: List[List[float]] = []

    @property
    def available_at(self) -> float:
        """Time at which all booked work is done."""
        return self._busy[-1][1] if self._busy else 0.0

    def reserve(self, earliest: float, size: int) -> Tuple[float, float]:
        """Reserve ``size`` bytes in the first gap that fits them and
        starts >= ``earliest``; returns (start, end) times."""
        self.bytes_carried += size
        duration = size / self.bandwidth
        if duration <= 0:
            return earliest, earliest
        cursor = earliest
        # Skip every interval that ends at or before the cursor in one
        # bisect instead of a linear scan from index 0: the intervals
        # are sorted and disjoint, so once the walk below advances the
        # cursor past an interval's end, no later interval can satisfy
        # ``busy_end <= cursor`` again.
        index = bisect_right(self._busy, cursor, key=_interval_end)
        while index < len(self._busy):
            busy_start, busy_end = self._busy[index]
            if busy_start >= cursor + duration:
                break  # the gap before this interval fits
            cursor = max(cursor, busy_end)
            index += 1
        slot = (cursor, cursor + duration)
        interval = [slot[0], slot[1]]
        self._busy.insert(index, interval)
        # Coalesce with neighbours to keep the list short.
        if index + 1 < len(self._busy) and \
                self._busy[index + 1][0] <= interval[1]:
            interval[1] = max(interval[1], self._busy[index + 1][1])
            self._busy.pop(index + 1)
        if index > 0 and self._busy[index - 1][1] >= interval[0]:
            self._busy[index - 1][1] = max(self._busy[index - 1][1],
                                           interval[1])
            self._busy.pop(index)
        return slot

    def book(self, size: int, ready: float, then: Then, priority: int = 0,
             after: None = None) -> None:
        """The link-server call shared with :class:`WireScheduler`:
        reserve and call ``then(start, end)`` — synchronously, a pipe
        resolves at booking time.  ``priority`` and ``after`` are the
        quantum server's; a pipe backfills, so it hands back no tail.
        """
        then(*self.reserve(ready, size))

    def reserve_after(self, earliest: float, size: int, data_ready: float) -> float:
        """Reserve capacity that cannot finish before ``data_ready``.

        Used for the receiving pipe of a cut-through transfer: the pipe
        spends ``size / bandwidth`` of its own capacity starting when
        the first bit can arrive, but the last byte cannot land before
        it was sent.
        """
        _start, end = self.reserve(earliest, size)
        return max(end, data_ready)


class WireBooking:
    """One transfer's claim on a :class:`WireScheduler` direction.

    ``first_start``/``end`` are filled in as the scheduler serves the
    booking; ``on_start`` fires when the first quantum begins (used to
    release the cut-through ingress half), ``then(first_start, end)``
    when the last quantum ends.  ``_done_callbacks`` implement
    ``after`` chaining: a booking gated on this one is enqueued the
    moment this one finishes.
    """

    __slots__ = ("size", "priority", "data_ready", "quantum", "remaining",
                 "first_start", "end", "on_start", "then", "done",
                 "_done_callbacks", "_after", "seq")

    def __init__(self, size: int, priority: int, data_ready: Optional[float],
                 quantum: int, seq: int, then: Then) -> None:
        self.size = size
        self.priority = priority
        self.data_ready = data_ready
        self.quantum = quantum
        self.remaining = size
        self.first_start: Optional[float] = None
        self.end: Optional[float] = None
        self.on_start: Optional[Callable[[], None]] = None
        self.then = then
        self.done = False
        self._done_callbacks: List[Callable[[], None]] = []
        self._after: Optional["WireBooking"] = None
        self.seq = seq


class WireScheduler:
    """Preemptive priority quantum server for one NIC port direction.

    The classic :class:`Pipe` books every transfer as one contiguous
    interval, so a 32MB fusion buffer head-of-line-blocks each small,
    urgently-needed tensor posted behind it.  Here the wire serves one
    *quantum* at a time, always picking the highest-priority runnable
    booking, so a high-priority transfer interleaves at the next
    quantum boundary instead of waiting out the whole booking.  Large
    transfers use ``max(quantum_bytes, size / max_quanta)`` per quantum
    so the event count per transfer stays bounded.

    Per-QP FIFO is not the scheduler's job: the NIC chains each QP's
    bookings with ``after`` so one QP's verbs start (and therefore
    finish) in post order no matter how the wire interleaves quanta.
    """

    def __init__(self, sim: Simulator, bandwidth: float, quantum_bytes: int,
                 max_quanta: int = 8) -> None:
        self.sim = sim
        self.bandwidth = bandwidth
        self.quantum_bytes = max(int(quantum_bytes), 1)
        self.max_quanta = max(int(max_quanta), 1)
        self.bytes_carried = 0
        #: runnable bookings, highest priority first (FIFO within a tie)
        self._heap: List[Tuple[int, int, WireBooking]] = []
        #: the wire is committed to the current quantum until this time
        self._busy_until = 0.0
        self._seq = itertools.count()

    # -- booking lifecycle -------------------------------------------------------

    def book(self, size: int, ready: float, then: Then, priority: int = 0,
             after: Optional[WireBooking] = None) -> WireBooking:
        """The link-server call shared with :class:`Pipe`: serve ``size``
        bytes once ``ready`` passes and ``after`` (an earlier booking
        of this server, if given) has finished, then call ``then(start,
        end)``.  Returns the booking — the tail a later call passes as
        ``after`` to stay behind this one."""
        booking = self._make(size, priority, ready, then)
        self._gate(booking, after)
        return booking

    def hold(self, size: int, then: Then, priority: int = 0,
             after: Optional[WireBooking] = None) -> WireBooking:
        """Create a booking that is not yet runnable (see :meth:`release`).

        Used for the ingress half of a cut-through transfer: the booking
        must exist at post time so the QP can chain ordering through it,
        but it only becomes runnable once the sender's egress starts and
        the first bit's arrival time is known.
        """
        booking = self._make(size, priority, None, then)
        booking._after = after
        return booking

    def release(self, booking: WireBooking, data_ready: float) -> None:
        """Make a held booking runnable from ``data_ready`` onwards."""
        booking.data_ready = data_ready
        self._gate(booking, booking._after)

    def _make(self, size: int, priority: int, data_ready: Optional[float],
              then: Then) -> WireBooking:
        quantum = max(self.quantum_bytes, -(-size // self.max_quanta))
        booking = WireBooking(size, priority, data_ready, quantum,
                              next(self._seq), then)
        self.bytes_carried += size
        return booking

    def _gate(self, booking: WireBooking,
              after: Optional[WireBooking]) -> None:
        if after is None or after.done:
            self._enqueue(booking)
        else:
            after._done_callbacks.append(lambda: self._enqueue(booking))

    def _enqueue(self, booking: WireBooking) -> None:
        heappush(self._heap, (-booking.priority, booking.seq, booking))
        self._schedule_decision()

    # -- the serving loop --------------------------------------------------------

    def _schedule_decision(self) -> None:
        if not self._heap:
            return
        when = max(self.sim.now, self._busy_until)
        if not any(b.data_ready <= when for _, _, b in self._heap):
            when = min(b.data_ready for _, _, b in self._heap)
        self.sim.call_at(when, self._decide)

    def _decide(self) -> None:
        """Serve one quantum of the best runnable booking.

        The simulator cannot cancel scheduled events, so stale
        ``_decide`` callbacks are expected; the guard makes them
        harmless no-ops.
        """
        now = self.sim.now
        if now < self._busy_until or not self._heap:
            return
        deferred = []
        chosen: Optional[WireBooking] = None
        while self._heap:
            entry = heappop(self._heap)
            if entry[2].data_ready <= now:
                chosen = entry[2]
                break
            deferred.append(entry)
        for entry in deferred:
            heappush(self._heap, entry)
        if chosen is None:
            self._schedule_decision()
            return
        if chosen.first_start is None:
            chosen.first_start = now
            if chosen.on_start is not None:
                chosen.on_start()
        take = min(chosen.quantum, chosen.remaining)
        chosen.remaining -= take
        end = now + take / self.bandwidth
        self._busy_until = end
        self.sim.call_at(end, lambda: self._finish_quantum(chosen))

    def _finish_quantum(self, booking: WireBooking) -> None:
        if booking.remaining > 0:
            # Preemption point: the booking re-competes on priority.
            heappush(self._heap, (-booking.priority, booking.seq, booking))
        else:
            booking.end = self.sim.now
            booking.done = True
            booking.then(booking.first_start, booking.end)
            callbacks, booking._done_callbacks = booking._done_callbacks, []
            for callback in callbacks:
                callback()
        self._schedule_decision()


class CompletionQueue:
    """A completion queue: poll for entries or register a waiter."""

    _ids = itertools.count(1)

    def __init__(self, sim: Simulator, capacity: int = 4096) -> None:
        self.sim = sim
        self.cq_id = next(self._ids)
        self.capacity = capacity
        self._entries: Deque[Completion] = deque()
        self._waiters: List[Event] = []

    def __len__(self) -> int:
        return len(self._entries)

    def push(self, completion: Completion) -> None:
        if len(self._entries) >= self.capacity:
            raise MemoryError_(f"CQ {self.cq_id} overflow (capacity {self.capacity})")
        self._entries.append(completion)
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            waiter.succeed()

    def poll(self, max_entries: int = 16) -> List[Completion]:
        """Drain up to ``max_entries`` completions (non-blocking)."""
        out: List[Completion] = []
        while self._entries and len(out) < max_entries:
            out.append(self._entries.popleft())
        return out

    def wait(self) -> Event:
        """Event that fires when the CQ is (or becomes) non-empty."""
        event = self.sim.event()
        if self._entries:
            event.succeed()
        else:
            self._waiters.append(event)
        return event


class _Arrivals:
    """Delivery order of one QP's verbs at one destination: a later verb
    never lands before an earlier one.  A pipe clamps landing times to
    ``watermark``; the quantum server interleaves transfers, so there
    the ingress bookings are chained behind ``chain`` instead."""

    __slots__ = ("watermark", "chain")

    def __init__(self) -> None:
        self.watermark = 0.0
        self.chain: Optional[WireBooking] = None


class QueuePair:
    """A reliable-connected queue pair bound to send and receive CQs."""

    _qp_nums = itertools.count(100)

    def __init__(self, nic: "RdmaNic", send_cq: CompletionQueue,
                 recv_cq: CompletionQueue) -> None:
        self.nic = nic
        self.qp_num = next(self._qp_nums)
        self.send_cq = send_cq
        self.recv_cq = recv_cq
        self.remote: Optional["QueuePair"] = None
        #: error state (set by an injected qp_break): posted verbs are
        #: flushed with WR_FLUSH_ERR until the channel re-establishes
        self.broken = False
        self._recv_queue: Deque[WorkRequest] = deque()
        self._pending_sends: Deque = deque()
        #: per-QP FIFO guarantees (verbs on one QP execute in order):
        #: the send queue's tail — a time under a pipe, the last egress
        #: booking under the quantum server — and the delivery order
        self._egress_free = 0.0
        self._egress_chain: Optional[WireBooking] = None
        self._arrivals = _Arrivals()

    # -- connection management ---------------------------------------------------

    def connect(self, remote: "QueuePair") -> None:
        """Pair this QP with its remote counterpart (both directions)."""
        if self.remote is not None or remote.remote is not None:
            raise MemoryError_("queue pair already connected")
        self.remote = remote
        remote.remote = self

    def _require_remote(self, wr: Optional[WorkRequest] = None) -> "QueuePair":
        """Destination endpoint for one verb.

        RC QPs always use the connected remote; a per-WR ``dct_target``
        (shared/DCT endpoints) overrides it.  On the RC path the target
        is ``None`` so resolution is the same attribute read as before.
        """
        if wr is not None and wr.dct_target is not None:
            return wr.dct_target
        if self.remote is None:
            raise MemoryError_(f"QP {self.qp_num} is not connected")
        return self.remote

    def _arrivals_at(self, remote_qp: "QueuePair") -> _Arrivals:
        """RC QPs have one destination; shared QPs override this with
        per-destination state (DCT orders per target)."""
        return self._arrivals

    # -- posting -----------------------------------------------------------------

    def post_recv(self, wr: WorkRequest) -> None:
        """Post a receive buffer for an incoming SEND."""
        if wr.opcode is not Opcode.RECV:
            raise ValueError("post_recv requires a RECV work request")
        self._recv_queue.append(wr)
        if self._pending_sends:
            send_wr, data, arrival, pieces = self._pending_sends.popleft()
            self._deliver_send(send_wr, data, max(arrival, self.nic.sim.now),
                               pieces)

    def post_send(self, wr: WorkRequest) -> None:
        """Post a WRITE, READ, or SEND; executes asynchronously."""
        if wr.opcode is Opcode.RECV:
            raise ValueError(f"cannot post {wr.opcode} to the send queue")
        self.nic._post(self, wr)

    # -- send/recv matching (called by the remote NIC) ----------------------------

    def _incoming_send(self, wr: WorkRequest, data: bytes, arrival: float,
                       pieces: Pieces = ()) -> None:
        if self._recv_queue:
            self._deliver_send(wr, data, arrival, pieces)
        else:
            # Receiver-not-ready: the message waits for a posted RECV,
            # modelling RNR retries without failing the connection.
            self._pending_sends.append((wr, data, arrival, pieces))

    def _deliver_send(self, send_wr: WorkRequest, data: bytes, arrival: float,
                      pieces: Pieces = ()) -> None:
        recv_wr = self._recv_queue.popleft()
        sim = self.nic.sim
        # A size-only payload arrives as b"": its length is the WR's.
        size = len(data) if data else send_wr.size
        if recv_wr.size < size:
            def fail() -> None:
                self.recv_cq.push(Completion(
                    wr_id=recv_wr.wr_id, opcode=Opcode.RECV,
                    status=WcStatus.LOCAL_LENGTH_ERROR, byte_len=size,
                    qp_num=self.qp_num, timestamp=sim.now))
            sim.call_at(arrival, fail)
            return

        def commit() -> None:
            space = self.nic.host.address_space
            if data:
                space.write(recv_wr.local_addr, data)
            else:
                # Size-only payload: its pieces still land, carrying
                # headers and flags.
                buf, off = space.resolve(recv_wr.local_addr, max(size, 1))
                buf.backing.write_virtual(off, size, pieces)
            self.recv_cq.push(Completion(
                wr_id=recv_wr.wr_id, opcode=Opcode.RECV,
                status=WcStatus.SUCCESS, byte_len=size,
                qp_num=self.qp_num, timestamp=sim.now))
        sim.call_at(arrival, commit)


class SharedQp(QueuePair):
    """A DCT-style shared connection endpoint (dynamically connected
    transport): one QP object serves *every* peer, so a NIC talking to
    N hosts needs O(1) QP state instead of O(N) RC connections.

    Semantics mirror Mellanox DC transport:

    * the destination is named per work request (``wr.dct_target``),
      not fixed at connect time — :meth:`connect` is a hard error;
    * the send queue is one FIFO shared across all peers, so a verb to
      a slow peer head-of-line blocks later verbs to other peers
      (``_egress_free`` / ``_egress_chain`` stay shared — the DCT
      scalability trade the loss-recovery paper calls out);
    * delivery ordering is only guaranteed *per target*: the arrival
      state is keyed by the destination endpoint, matching what
      per-peer RC QPs enforce;
    * on the receive side the shared QP behaves as an SRQ: every
      peer's SENDs consume from the one ``_recv_queue`` in FIFO order;
    * an injected ``qp_break`` has a wider blast radius than RC: the
      one endpoint carries every peer's traffic, so all of it flushes
      until the channel layer clears the error state.
    """

    def __init__(self, nic: "RdmaNic", send_cq: CompletionQueue,
                 recv_cq: CompletionQueue) -> None:
        super().__init__(nic, send_cq, recv_cq)
        self._arrivals_by_target: Dict[int, _Arrivals] = defaultdict(_Arrivals)

    def connect(self, remote: "QueuePair") -> None:
        raise MemoryError_(
            f"shared QP {self.qp_num} is connectionless; name the "
            f"destination per work request via dct_target")

    def _require_remote(self, wr: Optional[WorkRequest] = None) -> QueuePair:
        if wr is None or wr.dct_target is None:
            raise MemoryError_(
                f"shared QP {self.qp_num} needs wr.dct_target")
        return wr.dct_target

    def _arrivals_at(self, remote_qp: QueuePair) -> _Arrivals:
        return self._arrivals_by_target[remote_qp.qp_num]


class RdmaNic:
    """A host's RDMA NIC: MR table, CQs, QPs, and the DMA/wire engine."""

    def __init__(self, sim: Simulator, host: "Host", cost: CostModel) -> None:
        self.sim = sim
        self.host = host
        self.cost = cost
        self.mr_table = MrTable(cost.mr_table_capacity)
        # One link server per direction (see the module docstring).
        if cost.wire_quantum_bytes > 0:
            self.egress, self.ingress = (
                WireScheduler(sim, cost.rdma_bandwidth,
                              cost.wire_quantum_bytes, cost.wire_max_quanta)
                for _ in range(2))
            self._book_wire = self._book_wire_quantum
        else:
            self.egress = Pipe(cost.rdma_bandwidth)
            self.ingress = Pipe(cost.rdma_bandwidth)
            self._book_wire = self._book_wire_pipe
        self.registration_time_spent = 0.0
        #: QP objects this NIC has created — the O(1)-vs-O(N) state
        #: footprint that shared (DCT) endpoints exist to collapse
        self.qps_created = 0

    # -- memory registration -------------------------------------------------------

    def register_memory(self, buf) -> MemoryRegion:
        """Register a buffer with the NIC (charged via ``register_delay``)."""
        region = self.mr_table.register(buf)
        self.registration_time_spent += self.cost.mr_register_time(buf.size)
        return region

    def register_delay(self, size: int) -> float:
        """Simulated duration of registering ``size`` bytes."""
        return self.cost.mr_register_time(size)

    def deregister_memory(self, region: MemoryRegion) -> None:
        self.mr_table.deregister(region)

    def create_cq(self, capacity: int = 4096) -> CompletionQueue:
        return CompletionQueue(self.sim, capacity)

    def create_qp(self, send_cq: CompletionQueue,
                  recv_cq: Optional[CompletionQueue] = None) -> QueuePair:
        self.qps_created += 1
        return QueuePair(self, send_cq, recv_cq or send_cq)

    def create_shared_qp(self, send_cq: CompletionQueue,
                         recv_cq: Optional[CompletionQueue] = None
                         ) -> SharedQp:
        """Create a DCT-style shared endpoint (see :class:`SharedQp`)."""
        self.qps_created += 1
        return SharedQp(self, send_cq, recv_cq or send_cq)

    # -- internal verb execution ---------------------------------------------------

    #: bytes at each end of a size-only transfer that still move for real,
    #: so flag bytes (tail) and metadata headers (head) are preserved.
    EDGE_WINDOW = 64

    @staticmethod
    def _edge_payload(backing: Backing, offset: int, size: int
                      ) -> Tuple[Optional[bytes], Pieces]:
        """Fetch outgoing bytes as (full_payload, pieces).

        ``full_payload`` is None unless the source range is wholly real:
        a size-only source moves timing and its pieces — the head and
        tail windows, not real, and the real bytes it holds (flag
        bytes, headers), never a zero in their place.
        """
        if backing.is_real(offset, size):
            return backing.read(offset, size), ()
        win = min(RdmaNic.EDGE_WINDOW, size)
        pieces = ((0, backing.read(offset, win), False),)
        if size > win:
            pieces += ((size - win, backing.read(offset + size - win, win),
                        False),)
        return None, pieces + backing.real_pieces(offset, size)

    def _fail(self, qp: QueuePair, wr: WorkRequest, status: WcStatus) -> None:
        comp = Completion(wr_id=wr.wr_id, opcode=wr.opcode, status=status,
                          byte_len=0, qp_num=qp.qp_num, timestamp=self.sim.now)
        self.sim.call_after(self.cost.rdma_verb_overhead, lambda: qp.send_cq.push(comp))

    def _fault_gate(self, qp: QueuePair, wr: WorkRequest, target: QueuePair
                    ) -> Tuple[bool, Optional[FaultVerdict]]:
        """Broken-QP flush + fault-plane consult for one posted verb.

        Returns ``(proceed, verdict)``.  With no fault plane installed
        this is two attribute checks and schedules nothing, so clean
        runs keep bit-identical timing.
        """
        if qp.broken or target.broken:
            self._fail(qp, wr, WcStatus.WR_FLUSH_ERR)
            return False, None
        plane = self.host.cluster.fault_plane
        if plane is None:
            return True, None
        verdict = plane.on_post(self, qp, wr, dst=target.nic.host.name)
        if verdict is None:
            return True, None
        if verdict.kind == "blackhole":
            # Lost in the fabric: no wire time, no commit, no CQE —
            # only the recovery layer's timeout can notice.
            return False, None
        if verdict.fail_fast:
            self._fail(qp, wr, verdict.status)
            return False, None
        if verdict.break_qp:
            qp.broken = target.broken = True
        return True, verdict

    def _faulted_commit(self, verdict: Optional[FaultVerdict],
                        backing: Backing, offset: int, size: int,
                        payload: Optional[bytes], start: float, end: float,
                        pieces: Pieces, wake) -> None:
        """Land a transfer in ``backing`` in ascending address order,
        honouring a fault verdict's committed prefix.

        The range commits in chunks whose times are spread across
        (start, end]; the tail chunk (which carries any flag byte)
        always commits exactly at ``end``.  A size-only payload's
        ``pieces`` commit with the chunks they fall in, so protocol
        headers and flag bytes land.

        The transfer is one :class:`~repro.simnet.memory.Landing` on
        the backing and one heap entry at ``end``, which commits what is
        left and then calls ``wake(backing, lo, hi)`` with the tail
        chunk's range (the moment a spinning flag poller would see it).
        A reader in mid-window sees the prefix due by then.

        A torn write is the same landing cut at its prefix: a strict
        prefix — never the last byte, where the protocols keep their
        flag — that wakes nobody.
        """
        commit = size if verdict is None else verdict.commit_size(size)
        if commit <= 0:
            return
        if commit < size:
            payload = payload[:commit] if payload is not None else None
            pieces = clip_pieces(pieces, 0, commit)
            wake = None
        sim = self.sim
        chunks = 1 if commit <= SINGLE_CHUNK_LIMIT else MAX_COMMIT_CHUNKS
        landing = Landing(backing, sim, offset, commit, payload, start, end,
                          pieces, chunks, wake)
        sim.call_at(max(end, sim.now), landing.finish)

    def _fabric_traverse(self, dst_nic: "RdmaNic", start: float,
                         egress_end: float, size: int):
        """Charge the cluster fabric (if any) for a transfer leaving this
        NIC for ``dst_nic``.  Returns the :class:`PathTiming`, or None
        when no fabric is installed or the pair has no path to charge —
        in which case the caller keeps the flat-topology timing, making
        fabric-less clusters bit-identical to pre-fabric builds."""
        fabric = self.host.cluster.fabric
        if fabric is None:
            return None
        return fabric.traverse(self.host.name, dst_nic.host.name,
                               start, egress_end, size)

    def _fabric_latency(self, dst_nic: "RdmaNic") -> float:
        """One-way first-bit latency towards ``dst_nic``: the fabric
        path's summed hop latency, or the flat model's base latency."""
        fabric = self.host.cluster.fabric
        if fabric is not None:
            latency = fabric.path_latency(self.host.name, dst_nic.host.name)
            if latency is not None:
                return latency
        return self.cost.rdma_base_latency

    def _post(self, qp: QueuePair, wr: WorkRequest) -> None:
        """The one verb pipeline: gate, resolve, book the wire, land.

        A READ is the same transfer as a WRITE with source and
        destination NIC swapped: the data leg leaves the *remote*
        egress one request round trip late and does not advance this
        QP's egress tail.  A SEND is a WRITE whose delivery is the
        remote QP's RECV matching instead of an ascending commit.
        """
        remote_qp = qp._require_remote(wr)
        proceed, verdict = self._fault_gate(qp, wr, remote_qp)
        if not proceed:
            return
        opcode, size = wr.opcode, wr.size
        src_nic, dst_nic, lead = self, remote_qp.nic, 0.0
        source = None         # stays None for an inline payload
        dest_backing = None   # stays None for SEND: delivery is two-sided
        try:
            if opcode is Opcode.READ:
                src_nic, dst_nic = dst_nic, self
                lead = self.cost.rdma_read_extra_rtt
                source = src_nic.mr_table.lookup(
                    wr.rkey, wr.remote_addr, size).buffer
                source_off = wr.remote_addr - source.addr
                local = self.mr_table.lookup(
                    wr.lkey, wr.local_addr, size).buffer
                dest_backing, dest_off = local.backing, wr.local_addr - local.addr
            elif wr.inline_data is None:
                source = self.mr_table.lookup(
                    wr.lkey, wr.local_addr, size).buffer
                source_off = wr.local_addr - source.addr
            if source is None:
                payload, pieces = bytes(wr.inline_data), ()
                if len(payload) < size:  # real head of a size-only payload
                    payload, pieces = None, ((0, payload, True),)
            else:
                payload, pieces = self._edge_payload(
                    source.backing, source_off, size)
            if opcode is Opcode.WRITE:
                dst_nic.mr_table.lookup(wr.rkey, wr.remote_addr, size)
                remote, dest_off = dst_nic.host.address_space.resolve(
                    wr.remote_addr, max(size, 1))
                dest_backing = remote.backing
        except MemoryError_:
            self._fail(qp, wr, WcStatus.REMOTE_ACCESS_ERROR)
            return
        posted = self.sim.now

        def land(start: float, end: float) -> None:
            status = WcStatus.SUCCESS if verdict is None else verdict.status
            ok = status is WcStatus.SUCCESS
            if dest_backing is not None:
                self._faulted_commit(verdict, dest_backing, dest_off, size,
                                     payload, start, end, pieces,
                                     dst_nic.host.notify_memory_commit)
            elif ok:
                # A faulted SEND never reaches the remote RECV queue:
                # the message vanishes and only the error CQE reports it.
                data = payload if payload is not None else b""
                self.sim.call_at(end, lambda: remote_qp._incoming_send(
                    wr, data, end, pieces))
            record_wire(self.host.cluster, opcode.value, src_nic.host.name,
                        dst_nic.host.name, size, start, end, wr.role)
            completed = end
            # Error completions are delivered even for unsignaled
            # posts: the NIC always reports failed work requests.
            if wr.signaled or not ok:
                completed = end + self.cost.rdma_completion_overhead
                comp = Completion(wr_id=wr.wr_id, opcode=opcode,
                                  status=status,
                                  byte_len=size if ok else 0,
                                  qp_num=qp.qp_num, timestamp=completed)
                self.sim.call_at(completed, lambda: qp.send_cq.push(comp))
            self._trace_verb(qp, wr, posted, completed)

        extra = verdict.delay if verdict is not None else 0.0
        self._book_wire(qp, remote_qp, wr, src_nic, dst_nic,
                        posted + self.cost.rdma_verb_overhead + extra, lead,
                        land)

    # -- cut-through booking: the only code that knows the link server ---------------

    def _book_wire_pipe(self, qp: QueuePair, remote_qp: QueuePair,
                        wr: WorkRequest, src_nic: "RdmaNic",
                        dst_nic: "RdmaNic", ready: float, lead: float,
                        land: Then) -> None:
        """Book both directions at post time and land synchronously.

        The ingress half starts when the first bit can arrive and cannot
        finish before the last byte was sent; on a fabric the routed
        path supplies both times (trunk queueing included).
        """
        size = wr.size
        depart = max(ready, qp._egress_free) + lead
        start, egress_end = src_nic.egress.reserve(depart, size)
        if wr.opcode is not Opcode.READ:
            qp._egress_free = egress_end
        path = src_nic._fabric_traverse(dst_nic, start, egress_end, size)
        if path is None:
            first_bit = start + self.cost.rdma_base_latency
            last_byte = first_bit + size / self.cost.rdma_bandwidth
        else:
            first_bit, last_byte = path.first_bit, path.last_byte
        arrivals = qp._arrivals_at(remote_qp)
        arrivals.watermark = end = max(
            dst_nic.ingress.reserve_after(first_bit, size, last_byte),
            arrivals.watermark)
        land(start, end)

    def _book_wire_quantum(self, qp: QueuePair, remote_qp: QueuePair,
                           wr: WorkRequest, src_nic: "RdmaNic",
                           dst_nic: "RdmaNic", ready: float, lead: float,
                           land: Then) -> None:
        """Chain both directions behind the QP's earlier verbs and land
        when both have served all quanta.

        The ingress booking exists from post time (so the QP's FIFO
        chain covers it) but is held until the egress actually starts,
        when the first bit's arrival time is known.  The last byte
        cannot land before it was sent (``egress end + propagation``);
        trunk capacity is charged once the egress booking is known.
        """
        size, priority = wr.size, wr.priority
        latency = src_nic._fabric_latency(dst_nic)
        ingress = dst_nic.ingress

        def finish(_start: float, _end: float) -> None:
            if not (eb.done and ib.done):
                return
            end = max(ib.end, eb.end + latency)
            path = src_nic._fabric_traverse(dst_nic, eb.first_start, eb.end,
                                            size)
            if path is not None:
                end = max(end, path.last_byte)
            land(eb.first_start, end)

        eb = src_nic.egress.book(size, ready + lead, finish, priority,
                                 after=qp._egress_chain)
        if wr.opcode is not Opcode.READ:
            qp._egress_chain = eb
        arrivals = qp._arrivals_at(remote_qp)
        arrivals.chain = ib = ingress.hold(size, finish, priority,
                                           after=arrivals.chain)
        eb.on_start = lambda: ingress.release(ib, eb.first_start + latency)

    def _trace_verb(self, qp: QueuePair, wr: WorkRequest, posted: float,
                    completed: float) -> None:
        """Span from verb post to completion delivery on the QP track."""
        tracer = self.host.cluster.tracer
        if tracer is not None:
            tracer.record(
                "verb", f"{wr.opcode.value} {wr.size}B", self.host.name,
                f"nic:qp{qp.qp_num}", posted, completed,
                args={"wr_id": wr.wr_id, "nbytes": wr.size, "role": wr.role,
                      "signaled": wr.signaled})
