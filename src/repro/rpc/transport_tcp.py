"""gRPC over TCP: the stock TensorFlow communication baseline.

The wire link sends each serialized message through the simulated
kernel TCP stack, paying: sender syscalls + kernel copy, per-segment
overhead, TCP wire time, receiver syscalls + kernel copy out of socket
buffers, and finally the RPC-library copy from its receive buffer into
the application buffer (the copy the paper's §2.2 explains cannot be
avoided without redesigning the abstraction).
"""

from __future__ import annotations

from typing import Generator, Sequence

from ..simnet.costmodel import CostModel
from ..simnet.tcp import Socket, TcpMessage
from ..simnet.topology import Endpoint, Host
from .core import RpcEndpoint, WireLink
from .serialization import Part


class TcpWireLink(WireLink):
    """A WireLink over one simulated TCP connection."""

    def __init__(self, socket: Socket) -> None:
        self.socket = socket
        self.sim = socket.stack.sim
        self.cost = socket.stack.cost
        self.host = socket.stack.host

    def send(self, parts: Sequence[Part], virtual_size: int) -> Generator:
        total = sum(map(len, parts)) + virtual_size
        message = TcpMessage(size=total, meta=(parts, virtual_size))
        yield from self.socket.send(message)

    def recv(self) -> Generator:
        message = yield from self.socket.recv()
        # The RPC library copies from its in-library receive buffer into
        # the application-visible message (the unavoidable extra copy):
        # charged here, while the parts themselves arrive by reference.
        yield from self.host.cpu.run(self.cost.memcpy_time(message.size))
        return message.meta


class GrpcTcpServer:
    """Listening side: accepts connections, one RpcEndpoint each."""

    def __init__(self, host: Host, port: int, name: str = "") -> None:
        self.host = host
        self.port = port
        self.name = name or f"grpc-tcp:{host.name}:{port}"
        self._listener = host.tcp.listen(port)
        self._handlers = {}
        self.endpoints = []
        host.sim.spawn(self._accept_loop(), name=f"{self.name}-accept")

    def register(self, method: str, handler) -> None:
        self._handlers[method] = handler
        for endpoint in self.endpoints:
            endpoint.register(method, handler)

    def _accept_loop(self) -> Generator:
        while True:
            socket = yield self._listener.accept()
            endpoint = RpcEndpoint(self.host.sim, self.host.cost,
                                   TcpWireLink(socket), name=self.name)
            for method, handler in self._handlers.items():
                endpoint.register(method, handler)
            endpoint.start()
            self.endpoints.append(endpoint)


def connect_grpc_tcp(client_host: Host, server_endpoint: Endpoint,
                     name: str = "") -> RpcEndpoint:
    """Dial a :class:`GrpcTcpServer`; returns a started client endpoint."""
    socket = client_host.tcp.connect(server_endpoint)
    endpoint = RpcEndpoint(
        client_host.sim, client_host.cost, TcpWireLink(socket),
        name=name or f"grpc-tcp-client:{client_host.name}->{server_endpoint}")
    endpoint.start()
    return endpoint
