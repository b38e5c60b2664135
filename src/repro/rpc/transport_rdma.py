"""gRPC over RDMA: TensorFlow's verbs-under-gRPC baseline.

This is the "RPC implementation optimized for RDMA" the paper measures
against (the gRPC.RDMA curves).  It rides RDMA SEND/RECV verbs but
keeps the RPC abstraction's structural costs:

* messages are serialized, then **copied into private registered
  staging memory** on the sender (the NIC can only transmit from
  registered memory, and the RPC library cannot know the caller's
  buffer ahead of time); the copy is charged as ``memcpy_time(total)``
  and performed as each fragment's join of header and concrete prefix;
* the receiver lands fragments in a **fixed-size ring buffer** per
  channel (FaRM-style, §2.3) and **copies each record out** to the
  application (the record is the header and the concrete prefix);
* messages larger than the ring are **fragmented** as one byte stream
  (real bytes first, then size-only bytes), each fragment carrying a
  real header for reassembly;
* credit-based flow control stops a sender from overrunning the ring;
* messages above ``rpc_max_message_size`` crash the call — faithfully
  reproducing TensorFlow's gRPC.RDMA failure at 1 GB (paper §5.1).
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Deque, Dict, Generator, List, Optional, Sequence, Tuple

from ..simnet.costmodel import CostModel
from ..simnet.memory import Buffer
from ..simnet.simulator import Event, Simulator, Store
from ..simnet.topology import Endpoint, Host
from ..simnet.verbs import Opcode, WorkRequest
from .core import RpcEndpoint, RpcError, WireLink
from .framing import Fragment, HEADER_SIZE, Reassembler, fragment
from .ring_buffer import RECORD_OVERHEAD, RingBuffer, RingBufferFull
from .serialization import Part


class CreditGate:
    """Sender-side byte credits mirroring the peer ring's free space.

    ``acquire`` blocks (as a process) until enough credits exist;
    ``release`` (invoked by the consumer) returns credits after a
    simulated credit-notification delay.
    """

    def __init__(self, sim: Simulator, capacity: int, return_latency: float) -> None:
        self.sim = sim
        self.capacity = capacity
        self.available = capacity
        self.return_latency = return_latency
        self._waiters: Deque[Tuple[int, Event]] = deque()

    def acquire(self, amount: int) -> Generator:
        if amount > self.capacity:
            raise RingBufferFull(
                f"fragment of {amount} bytes exceeds ring capacity {self.capacity}")
        if self.available >= amount and not self._waiters:
            self.available -= amount
            return
            yield  # pragma: no cover - makes this a generator
        event = self.sim.event()
        self._waiters.append((amount, event))
        yield event

    def release(self, amount: int) -> None:
        def credit_arrives() -> None:
            self.available += amount
            while self._waiters and self._waiters[0][0] <= self.available:
                need, event = self._waiters.popleft()
                self.available -= need
                event.succeed()
        self.sim.call_after(self.return_latency, credit_arrives)


class _ConnectionSide:
    """Per-direction state: QP, recv slot, ring."""

    def __init__(self, host: Host, name: str) -> None:
        self.host = host
        self.sim = host.sim
        self.cost: CostModel = host.cost
        self.name = name
        nic = host.nic
        self.cq = nic.create_cq()
        self.qp = nic.create_qp(self.cq)
        ring_cap = self.cost.rpc_ring_buffer_size
        self.frag_body_max = max(4096, ring_cap // 4 - HEADER_SIZE)
        # Receive ring (the in-library fixed buffer of §2.2).
        self.ring = RingBuffer(ring_cap)
        self.records: Store = Store(self.sim)  # record sizes, FIFO w/ ring
        # The recv slot is dense so concrete fragments round-trip
        # exactly; only real bytes (header + concrete prefix) touch it.
        self.recv_region: Buffer = host.allocate(
            self.frag_body_max + HEADER_SIZE, label=f"{name}-recvslot",
            dense=True)
        self.recv_mr = nic.register_memory(self.recv_region)
        self.credits: Optional[CreditGate] = None  # credits for *sending*
        self._recv_loop_started = False

    def start_recv_loop(self, peer: "_ConnectionSide") -> None:
        if self._recv_loop_started:
            return
        self._recv_loop_started = True
        self._peer = peer
        self._post_recv()
        self.sim.spawn(self._recv_loop(), name=f"{self.name}-recv")

    def _post_recv(self) -> None:
        self.qp.post_recv(WorkRequest(
            opcode=Opcode.RECV, size=self.recv_region.size,
            local_addr=self.recv_region.addr, lkey=self.recv_mr.lkey))

    def _recv_loop(self) -> Generator:
        try:
            yield from self._recv_loop_body()
        except Exception as exc:
            # Surface the failure to whoever is waiting for records
            # instead of deadlocking the whole endpoint.
            self.records.fail_all(exc)
            raise

    def _recv_loop_body(self) -> Generator:
        while True:
            yield self.cq.wait()
            for completion in self.cq.poll(max_entries=64):
                if completion.opcode is not Opcode.RECV:
                    continue
                if not completion.ok:
                    raise RpcError(f"recv failed: {completion.status}")
                frag = Fragment.parse_header(
                    self.recv_region.read(0, HEADER_SIZE))
                # The one copy out of the slot is the ring record: the
                # header and the concrete prefix, of which the fragment
                # body is a view.  (Size-only bytes are not recorded:
                # byte occupancy is enforced by the peer's CreditGate.)
                record = self.recv_region.read(0, HEADER_SIZE + frag.concrete)
                frag.body = [memoryview(record)[HEADER_SIZE:]]
                self.ring.push(record)
                self._post_recv()
                self.records.put(frag)


class GrpcRdmaLink(WireLink):
    """One side's WireLink over a connected pair of RDMA QPs."""

    def __init__(self, side: _ConnectionSide) -> None:
        self.side = side
        self.sim = side.sim
        self.cost = side.cost
        self.host = side.host
        self._reassembler = Reassembler()
        self._msg_ids = itertools.count(1)

    # -- sending -------------------------------------------------------------------

    def send(self, parts: Sequence[Part], virtual_size: int) -> Generator:
        total = sum(map(len, parts)) + virtual_size
        if total > self.cost.rpc_max_message_size:
            # TensorFlow's gRPC.RDMA crashes beyond 1 GB (paper §5.1).
            raise RpcError(
                f"gRPC.RDMA: message of {total} bytes exceeds the maximum "
                f"of {self.cost.rpc_max_message_size}; transfer aborted")
        fragments = fragment(next(self._msg_ids), parts, virtual_size,
                             self.side.frag_body_max)
        # The RPC library cannot transmit from the caller's buffer: it
        # copies the whole serialized message into registered staging
        # (charged here; performed per fragment as the join below).
        yield from self.host.cpu.run(self.cost.memcpy_time(total))
        assert self.side.credits is not None, "link not connected"
        for frag in fragments:
            # +RECORD_OVERHEAD: the ring stores a length prefix per
            # record; credits must cover it or a burst can overflow.
            yield from self.side.credits.acquire(
                frag.wire_size + RECORD_OVERHEAD)
            # One SEND per fragment: the header and concrete prefix land
            # as its real head, the size-only rest moves as timing only.
            self.side.qp.post_send(WorkRequest(
                opcode=Opcode.SEND, size=frag.wire_size,
                inline_data=b"".join((frag.header_bytes(), *frag.body))))
        # Completions are drained by the peer's recv loop; the sender
        # does not block on them (gRPC pipelines requests).

    # -- receiving ------------------------------------------------------------------

    def recv(self) -> Generator:
        while True:
            frag: Fragment = yield self.side.records.get()
            # Copy the record out of the ring into application memory —
            # the per-byte cost the paper's design eliminates.
            yield from self.host.cpu.run(
                self.cost.memcpy_time(frag.wire_size))
            record = self.side.ring.pop()
            if record is None:
                raise RpcError("ring/record stream out of sync")
            # Return ring space to the peer's sender.
            peer_credits = self.side._peer.credits
            assert peer_credits is not None
            peer_credits.release(frag.wire_size + RECORD_OVERHEAD)
            assembled = self._reassembler.add(frag)
            if assembled is not None:
                return assembled.parts, assembled.virtual_size


class GrpcRdmaListener:
    """Registered in the cluster's service registry; accepts dials."""

    def __init__(self, host: Host, port: int) -> None:
        self.host = host
        self.port = port
        self.handlers: Dict[str, object] = {}
        self.endpoints: List[RpcEndpoint] = []


class GrpcRdmaServer:
    """Server facade: register handlers, accept RDMA RPC connections."""

    def __init__(self, host: Host, port: int, name: str = "") -> None:
        self.host = host
        self.name = name or f"grpc-rdma:{host.name}:{port}"
        self._listener = GrpcRdmaListener(host, port)
        key = Endpoint(host.name, port)
        registry = host.cluster.services
        if key in registry:
            raise RpcError(f"{key} already has a listener")
        registry[key] = self._listener

    def register(self, method: str, handler) -> None:
        self._listener.handlers[method] = handler
        for endpoint in self._listener.endpoints:
            endpoint.register(method, handler)

    @property
    def endpoints(self) -> List[RpcEndpoint]:
        return self._listener.endpoints


def connect_grpc_rdma(client_host: Host, server_endpoint: Endpoint,
                      name: str = "") -> RpcEndpoint:
    """Dial a :class:`GrpcRdmaServer`; returns a started client endpoint.

    Builds the QP pair, recv slot and ring on both sides, and wires
    credit gates (connection setup is off the measured critical path).
    """
    listener = client_host.cluster.services.get(server_endpoint)
    if not isinstance(listener, GrpcRdmaListener):
        raise RpcError(f"nothing listening for RDMA RPC on {server_endpoint}")
    server_host = listener.host
    tag = name or f"grpc-rdma:{client_host.name}->{server_endpoint}"
    client_side = _ConnectionSide(client_host, f"{tag}/client")
    server_side = _ConnectionSide(server_host, f"{tag}/server")
    client_side.qp.connect(server_side.qp)
    credit_latency = client_host.cost.rdma_send_time(16)
    client_side.credits = CreditGate(
        client_host.sim, server_side.ring.capacity, credit_latency)
    server_side.credits = CreditGate(
        server_host.sim, client_side.ring.capacity, credit_latency)
    client_side.start_recv_loop(peer=server_side)
    server_side.start_recv_loop(peer=client_side)

    server_ep = RpcEndpoint(server_host.sim, server_host.cost,
                            GrpcRdmaLink(server_side), name=f"{tag}/server")
    for method, handler in listener.handlers.items():
        server_ep.register(method, handler)
    server_ep.start()
    listener.endpoints.append(server_ep)

    client_ep = RpcEndpoint(client_host.sim, client_host.cost,
                            GrpcRdmaLink(client_side), name=f"{tag}/client")
    client_ep.start()
    return client_ep
