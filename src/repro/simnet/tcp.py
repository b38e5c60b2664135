"""A simulated kernel TCP stack.

Deliberately models the costs that make gRPC-over-TCP slow relative to
RDMA in the paper: user/kernel crossings on both sides, a kernel copy
of every payload byte into and out of socket buffers, per-segment
overhead, higher base latency, and a lower effective wire bandwidth.

The unit of exchange is a message (the RPC layer above does framing);
content may be real bytes or virtual (size-only) for large payloads.
Connections are exposed as a pair of :class:`Socket` endpoints, so
loopback (worker talking to the parameter-server process on the same
machine, as in the paper's deployment) works like any other pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, Optional, TYPE_CHECKING

from .costmodel import CostModel
from .simulator import Simulator, Store

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .topology import Endpoint, Host


class TcpError(RuntimeError):
    """Connection failures (no listener, connection reset)."""


@dataclass
class TcpMessage:
    """A delivered message: real bytes, or virtual with only a size.

    ``meta`` can carry an arbitrary object alongside the accounted
    bytes; upper layers use it to attach parsed wire structures so that
    large payloads need not be physically materialized.
    """

    size: int
    data: Optional[bytes] = None
    meta: object = None

    def __post_init__(self) -> None:
        if self.data is not None and len(self.data) != self.size:
            raise ValueError("TcpMessage size does not match data length")


class Socket:
    """One endpoint of an established connection."""

    def __init__(self, stack: "TcpStack") -> None:
        self.stack = stack
        self.inbox = Store(stack.sim)
        self.peer: Optional["Socket"] = None
        self.closed = False

    @property
    def loopback(self) -> bool:
        assert self.peer is not None
        return self.peer.stack.host is self.stack.host

    def send(self, message: TcpMessage) -> Generator:
        """Process: transmit a message; returns when the kernel accepts it.

        Charges the sender-side syscall/segment/copy cost in the calling
        process, then schedules wire transit and delivery to the peer's
        inbox.  Use as ``yield from socket.send(msg)``.
        """
        if self.closed or self.peer is None:
            raise TcpError("send on closed or unconnected socket")
        sim = self.stack.sim
        cost = self.stack.cost
        # The kernel transmit path (syscalls, segmentation, socket-buffer
        # copy) is CPU work on the host's communication lanes.
        yield from self.stack.host.cpu.run(cost.tcp_send_time(message.size))
        peer = self.peer
        if self.loopback:
            # Loopback skips the wire but still crosses the kernel.
            arrival = sim.now
        else:
            start, _ = self.stack.egress.reserve(sim.now, message.size)
            data_ready = (start + cost.tcp_base_latency
                          + message.size / cost.tcp_bandwidth)
            arrival = peer.stack.ingress.reserve_after(
                start + cost.tcp_base_latency, message.size, data_ready)
        metrics = self.stack.host.cluster.metrics
        if metrics is not None:
            metrics.record_transfer("TCP", self.stack.host.name,
                                    peer.stack.host.name, message.size,
                                    sim.now, arrival)
        tracer = self.stack.host.cluster.tracer
        if tracer is not None:
            tracer.record("wire", f"TCP {message.size}B",
                          self.stack.host.name, "tcp:wire", sim.now, arrival,
                          args={"dst": peer.stack.host.name,
                                "nbytes": message.size})
            tracer.metrics.histogram("transfer_size_bytes").observe(
                message.size)
        sim.call_at(arrival, lambda: peer.inbox.put(message))

    def recv(self) -> Generator:
        """Process: receive the next message, charging the kernel read path.

        Use as ``msg = yield from socket.recv()``.
        """
        message: TcpMessage = yield self.inbox.get()
        yield from self.stack.host.cpu.run(
            self.stack.cost.tcp_recv_time(message.size))
        return message

    def close(self) -> None:
        self.closed = True
        if self.peer is not None:
            self.peer.closed = True


class Listener:
    """A passive socket; ``accept()`` yields established endpoints."""

    def __init__(self, stack: "TcpStack", port: int) -> None:
        self.stack = stack
        self.port = port
        self._backlog: Store = Store(stack.sim)

    def accept(self):
        """Event yielding the next established server-side :class:`Socket`."""
        return self._backlog.get()


class TcpStack:
    """Per-host TCP state: listeners and the host's TCP wire pipes."""

    def __init__(self, sim: Simulator, host: "Host", cost: CostModel) -> None:
        # Local import to avoid a cycle at module load.
        from .nic import Pipe

        self.sim = sim
        self.host = host
        self.cost = cost
        self.egress = Pipe(cost.tcp_bandwidth)
        self.ingress = Pipe(cost.tcp_bandwidth)
        self._listeners: Dict[int, Listener] = {}

    def listen(self, port: int) -> Listener:
        if port in self._listeners:
            raise TcpError(f"port {port} already listening on {self.host.name}")
        listener = Listener(self, port)
        self._listeners[port] = listener
        return listener

    def connect(self, endpoint: "Endpoint") -> Socket:
        """Establish a connection to a listening remote endpoint.

        Returns the client-side socket.  The three-way handshake is off
        the critical path of every experiment, so setup is immediate.
        """
        remote = self.host.cluster.resolve(endpoint)
        listener = remote.tcp._listeners.get(endpoint.port)
        if listener is None:
            raise TcpError(f"connection refused: nothing listening on {endpoint}")
        client = Socket(self)
        server = Socket(remote.tcp)
        client.peer = server
        server.peer = client
        listener._backlog.put(server)
        return client
