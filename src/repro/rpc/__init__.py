"""The RPC substrate: the abstraction the paper argues against.

Implements a gRPC-like framework — real serialization, framing with
fragmentation/reassembly, FaRM-style ring-buffer receive paths — over
two transports:

* :mod:`transport_tcp` — gRPC over the simulated kernel TCP stack
  (the ``gRPC.TCP`` baseline);
* :mod:`transport_rdma` — gRPC over RDMA SEND/RECV verbs with private
  message buffers (the ``gRPC.RDMA`` baseline, as in TensorFlow r1.0+).

The stack moves lengths and references: every copy the modelled library
makes is charged in simulated time, and performed only where someone
can read the result.
"""

from .core import Handler, RpcEndpoint, RpcError, WireLink, check_reply
from .framing import (AssembledMessage, Fragment, FramingError, HEADER_SIZE,
                      Reassembler, fragment)
from .ring_buffer import RingBuffer, RingBufferFull
from .serialization import (Message, Payload, SerializationError, decode,
                            decode_parts, encode, encode_parts)
from .transport_rdma import (CreditGate, GrpcRdmaServer, connect_grpc_rdma)
from .transport_tcp import GrpcTcpServer, connect_grpc_tcp

__all__ = [
    "AssembledMessage", "CreditGate", "Fragment", "FramingError",
    "GrpcRdmaServer", "GrpcTcpServer", "HEADER_SIZE", "Handler", "Message",
    "Payload", "Reassembler", "RingBuffer", "RingBufferFull", "RpcEndpoint",
    "RpcError", "SerializationError", "WireLink", "check_reply",
    "connect_grpc_rdma", "connect_grpc_tcp", "decode", "decode_parts",
    "encode", "encode_parts", "fragment",
]
