"""The gRPC baselines as CommRuntimes (TensorFlow's rendezvous).

TensorFlow transfers tensors between partitions through a rendezvous:
the *receiver* issues a ``RecvTensor`` RPC to the producer's server,
which replies with the serialized tensor once the local Send op has
produced it.  Both baselines share this logic and differ only in the
RPC transport underneath:

* ``GrpcCommRuntime(transport="tcp")``  — the stock gRPC.TCP;
* ``GrpcCommRuntime(transport="rdma")`` — gRPC over RDMA verbs with
  private message buffers (TensorFlow r1.0+'s verbs integration).

Every transfer pays the full RPC toll the paper identifies: request
leg, serialization, transport copies, deserialization, and a final
copy into a freshly allocated destination tensor — in simulated time.
On the host, bytes are copied twice per tracked byte (the sender's
snapshot, the receiver's delivery) and untracked tensors travel as
lengths.
"""

from __future__ import annotations

from typing import Dict, Generator, Tuple

import numpy as np

from ..graph.dtypes import DType
from ..graph.executor import Executor
from ..graph.node import Node
from ..graph.shapes import Shape
from ..graph.tensor import Tensor
from ..graph.transfer_api import CommRuntime, Outcome
from ..rpc.core import RpcEndpoint, RpcError
from ..rpc.serialization import Message, Payload
from ..rpc.transport_rdma import GrpcRdmaServer, connect_grpc_rdma
from ..rpc.transport_tcp import GrpcTcpServer, connect_grpc_tcp
from ..simnet.simulator import Store
from ..simnet.topology import Endpoint


_PORT_BASE = 6200


class _Rendezvous:
    """Per-device table: produced tensors waiting for remote pickup."""

    def __init__(self, sim) -> None:
        self.sim = sim
        self._slots: Dict[Tuple[str, int], Store] = {}

    def _slot(self, key: str, iteration: int) -> Store:
        return self._slots.setdefault((key, iteration), Store(self.sim))

    def produce(self, key: str, iteration: int, tensor: Tensor) -> None:
        self._slot(key, iteration).put(tensor)

    def consume(self, key: str, iteration: int):
        """Event yielding the tensor (waits for the producer)."""
        return self._slot(key, iteration).get()

    def gc(self, before_iteration: int) -> None:
        stale = [k for k in self._slots if k[1] < before_iteration]
        for k in stale:
            del self._slots[k]


class GrpcCommRuntime(CommRuntime):
    """Tensor transfer over the RPC substrate (the baselines)."""

    def __init__(self, transport: str = "tcp") -> None:
        if transport not in ("tcp", "rdma"):
            raise ValueError(f"unknown transport {transport!r}")
        self.transport = transport
        self.name = "gRPC.TCP" if transport == "tcp" else "gRPC.RDMA"
        self.servers: Dict[str, object] = {}
        self.rendezvous: Dict[str, _Rendezvous] = {}
        self.channels: Dict[Tuple[str, str], RpcEndpoint] = {}
        self.endpoints: Dict[str, Endpoint] = {}
        self.bytes_sent = 0

    # -- setup -----------------------------------------------------------------------

    def prepare(self, session) -> None:
        for index, device_name in enumerate(sorted(session.executors)):
            executor = session.executors[device_name]
            endpoint = Endpoint(executor.host.name, _PORT_BASE + index)
            self.endpoints[device_name] = endpoint
            rendezvous = _Rendezvous(session.sim)
            self.rendezvous[device_name] = rendezvous
            if self.transport == "tcp":
                server = GrpcTcpServer(executor.host, endpoint.port,
                                       name=f"tf-{device_name}")
            else:
                server = GrpcRdmaServer(executor.host, endpoint.port,
                                        name=f"tf-{device_name}")
            server.register("recv_tensor",
                            self._make_recv_tensor_handler(rendezvous))
            self.servers[device_name] = server

        # Dial every (consumer -> producer) pair that has transfers.
        pairs = {(t.dst_device, t.src_device)
                 for t in session.partitioned.transfers}
        for dst_device, src_device in sorted(pairs):
            executor = session.executors[dst_device]
            endpoint = self.endpoints[src_device]
            if self.transport == "tcp":
                channel = connect_grpc_tcp(executor.host, endpoint)
            else:
                channel = connect_grpc_rdma(executor.host, endpoint)
            self.channels[(dst_device, src_device)] = channel

    def _make_recv_tensor_handler(self, rendezvous: _Rendezvous):
        def handler(request: Message) -> Generator:
            key = request["key"]
            iteration = request["iteration"]
            tensor: Tensor = yield rendezvous.consume(key, iteration)
            if tensor.is_dense:
                # A snapshot: ApplyGradient updates variables in place,
                # so the payload must not alias the live array.
                payload = Payload(data=tensor.array.tobytes())
            else:
                payload = Payload(size=tensor.nbytes)
            dims = [int(d) for d in tensor.shape.dims]
            return Message(data=payload, dims=dims,
                           dtype=tensor.dtype.code)
        return handler

    def on_iteration_start(self, session, iteration: int) -> None:
        for rendezvous in self.rendezvous.values():
            rendezvous.gc(iteration - 1)

    # -- executor interface -------------------------------------------------------------

    def execute_send(self, executor: Executor, node: Node, tensor: Tensor):
        """Send is a local rendezvous deposit (TF semantics): cheap."""
        self.bytes_sent += tensor.nbytes
        self.rendezvous[executor.device].produce(
            node.attrs["key"], executor.iteration, tensor)
        return Outcome.done([])

    def execute_recv(self, executor: Executor, node: Node):
        key = node.attrs["key"]
        src_device = node.attrs["src_device"]
        channel = self.channels.get((executor.device, src_device))
        if channel is None:
            raise RpcError(f"no channel {executor.device}->{src_device}")

        def fetch() -> Generator:
            reply = yield channel.call(
                "recv_tensor", Message(key=key, iteration=executor.iteration))
            error = reply.get("_error")
            if error:
                raise RpcError(error)
            payload: Payload = reply["data"]
            dtype = DType.from_code(reply["dtype"])
            shape = Shape(reply["dims"])
            # The receive tensor follows the payload: a virtual payload
            # is an untracked tensor, size-only whatever its size.
            tensor = executor.allocate_output(node, 0, dtype, shape)
            # The RPC path cannot deliver into the consumer's buffer:
            # one more copy from the deserialized message into the
            # freshly allocated tensor.
            yield from executor.host.cpu.run(
                executor.cost.memcpy_time(payload.size))
            if payload.data is not None:
                tensor.copy_from(
                    np.frombuffer(payload.data, dtype=dtype.np).reshape(
                        shape.as_tuple()))
            return [tensor]
        return Outcome.wait(executor.sim.spawn(fetch(), name=f"recv-{key}"))
