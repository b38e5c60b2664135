"""RPC framework core: services, stubs, futures, dispatch.

This is the general-purpose abstraction the paper argues *against* for
tensor transfer: convenient (arbitrary message schemas, any time), but
structurally unable to deliver bytes directly into the consumer's
buffer.  Both baselines (gRPC over TCP, gRPC over RDMA) share this
core and differ only in their :class:`WireLink`.

A :class:`WireLink` is an ordered, bidirectional message pipe whose
``send``/``recv`` are simulation processes charging transport costs.
:class:`RpcEndpoint` layers request/response semantics on top:
serialization (charged via the cost model), method dispatch, and
request-id matching for futures.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Generator, Optional, Sequence

from ..simnet.costmodel import CostModel
from ..simnet.simulator import Event, Simulator
from .serialization import Message, Part, decode_parts, encode_parts


class RpcError(RuntimeError):
    """RPC-level failures (unknown method, oversized message, crash)."""


class WireLink:
    """Ordered bidirectional message link; transports implement this."""

    #: simulated cost model, set by implementations
    cost: CostModel
    sim: Simulator
    #: the host whose CPU engine performs this link's per-byte work
    host: object

    def send(self, parts: Sequence[Part], virtual_size: int) -> Generator:
        """Process: transmit one wire message (real parts + virtual bytes)."""
        raise NotImplementedError

    def recv(self) -> Generator:
        """Process: receive one wire message -> (parts, virtual_size)."""
        raise NotImplementedError


Handler = Callable[[Message], Any]  # returns Message or a generator of one


class RpcEndpoint:
    """One side of an RPC conversation over a :class:`WireLink`.

    Acts as both client (``call``) and server (``register``); gRPC
    channels are similarly bidirectional.  A dispatch loop must be
    started with :meth:`start` before any traffic flows.
    """

    def __init__(self, sim: Simulator, cost: CostModel, link: WireLink,
                 name: str = "rpc") -> None:
        self.sim = sim
        self.cost = cost
        self.link = link
        self.name = name
        self._handlers: Dict[str, Handler] = {}
        self._pending: Dict[int, Event] = {}
        self._req_ids = itertools.count(1)
        self._started = False
        self.requests_served = 0

    # -- service side -------------------------------------------------------------

    def register(self, method: str, handler: Handler) -> None:
        """Register a handler; it may return a Message or be a generator
        process that yields simulated work before returning one."""
        if method.startswith("_"):
            raise RpcError("method names starting with '_' are reserved")
        self._handlers[method] = handler

    def start(self) -> None:
        """Spawn the receive/dispatch loop."""
        if self._started:
            return
        self._started = True
        self.sim.spawn(self._dispatch_loop(), name=f"{self.name}-dispatch")

    # -- client side ---------------------------------------------------------------

    def call(self, method: str, request: Optional[Message] = None) -> Event:
        """Invoke a remote method; returns a future for the reply Message."""
        if not self._started:
            raise RpcError("endpoint not started")
        request = request or Message()
        req_id = next(self._req_ids)
        future = self.sim.event()
        self._pending[req_id] = future
        sender = self.sim.spawn(
            self._send_one(method, req_id, kind=0, body=request),
            name=f"{self.name}-call-{method}")

        def on_sender_done(event) -> None:
            # A transport-level crash (e.g. the gRPC.RDMA 1 GB limit)
            # surfaces on the caller's future instead of deadlocking.
            if event._exception is not None and not future.triggered:
                self._pending.pop(req_id, None)
                future.fail(event._exception)
        sender.add_callback(on_sender_done)
        return future

    def call_proc(self, method: str, request: Optional[Message] = None) -> Generator:
        """Process form of :meth:`call`: ``reply = yield from ep.call_proc(...)``."""
        reply = yield self.call(method, request)
        return reply

    # -- internals -------------------------------------------------------------------

    def _send_one(self, method: str, req_id: int, kind: int,
                  body: Message) -> Generator:
        envelope = Message(_method=method, _id=req_id, _kind=kind,
                           **body.fields)
        parts, virtual = encode_parts(envelope)
        total = sum(map(len, parts)) + virtual
        # Serialization is real CPU work proportional to message size,
        # performed on the host's bounded communication lanes.
        yield from self.link.host.cpu.run(self.cost.serialize_time(total))
        yield from self.link.send(parts, virtual)

    def _dispatch_loop(self) -> Generator:
        while True:
            parts, virtual = yield from self.link.recv()
            total = sum(map(len, parts)) + virtual
            yield from self.link.host.cpu.run(
                self.cost.deserialize_time(total))
            envelope = decode_parts(parts)
            kind = envelope["_kind"]
            if kind == 0:
                self.sim.spawn(
                    self._serve(envelope),
                    name=f"{self.name}-serve-{envelope['_method']}")
            else:
                future = self._pending.pop(envelope["_id"], None)
                if future is not None:
                    body = Message(**{
                        k: v for k, v in envelope.fields.items()
                        if not k.startswith("_") or k == "_error"})
                    future.succeed(body)

    def _serve(self, envelope: Message) -> Generator:
        method = envelope["_method"]
        req_id = envelope["_id"]
        handler = self._handlers.get(method)
        body = Message(**{k: v for k, v in envelope.fields.items()
                          if not k.startswith("_")})
        yield (self.cost.rpc_dispatch)
        if handler is None:
            reply = Message(_error=f"unknown method {method!r}")
        else:
            result = handler(body)
            if hasattr(result, "send"):  # generator handler: simulated work
                result = yield from result
            reply = result if isinstance(result, Message) else Message()
        self.requests_served += 1
        try:
            yield from self._send_one(method, req_id, kind=1, body=reply)
        except RpcError as exc:
            # The reply could not be transmitted (e.g. it exceeds the
            # transport's maximum message size); surface an error
            # status to the caller like gRPC would.
            yield from self._send_one(method, req_id, kind=1,
                                      body=Message(_error=str(exc)))


def check_reply(reply: Message) -> Message:
    """Raise :class:`RpcError` if the reply carries an error marker."""
    error = reply.get("_error")
    if error is not None:
        raise RpcError(error)
    return reply
