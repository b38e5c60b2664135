"""Remote-address distribution: the vanilla RPC of §3.1.

To use the one-sided memory-copy interface, a sender must know the
address (and rkey) of the remote region it targets.  The device
library therefore ships "a simple vanilla RPC mechanism implemented
using the RDMA send/recv verbs for this auxiliary purpose"; it runs
off the critical path (addresses are distributed before computation).

Each device owns an :class:`AddressBook`.  Local regions are
``publish``-ed under string keys; a remote peer ``lookup``-s them with
a real request/reply over messaging verbs on a dedicated QP.  Because
RC SEND/RECV has no tag matching, each side runs a demultiplexer on
the shared address QP: every message carries a type byte, requests are
answered in place, replies are routed to the waiting lookup.
"""

from __future__ import annotations

import struct
from typing import Dict, Generator, Optional

from ..simnet.simulator import Store
from ..simnet.topology import Endpoint
from ..simnet.verbs import Completion
from .device import DeviceError, MemRegion, RdmaChannel, RdmaDevice, RemoteMemRegion


_MSG_REQUEST = 1
_MSG_REPLY = 2
_REPLY = struct.Struct("<BBQIQ")   # type, found, addr, rkey, size
_RECV_SLOT = 512

#: dedicated QP index for address traffic, by convention QP 0
ADDRESS_QP = 0

#: sim seconds a lookup waits before asking again for an unpublished key
LOOKUP_RETRY_INTERVAL = 50e-6

#: lookup attempts before an unpublished key is an error
LOOKUP_MAX_RETRIES = 200


class AddressBook:
    """Per-device registry of published regions, remotely queryable."""

    def __init__(self, device: RdmaDevice) -> None:
        self.device = device
        self.sim = device.sim
        self._published: Dict[str, RemoteMemRegion] = {}
        #: peers whose address channel demux is running
        self._demux_running: Dict[Endpoint, bool] = {}
        #: replies awaiting their lookup, FIFO per peer
        self._replies: Dict[Endpoint, Store] = {}

    # -- publishing -------------------------------------------------------------------

    def publish(self, key: str, region_or_descriptor) -> None:
        """Expose a region's address under ``key``."""
        if isinstance(region_or_descriptor, MemRegion):
            descriptor = region_or_descriptor.descriptor()
        elif isinstance(region_or_descriptor, RemoteMemRegion):
            descriptor = region_or_descriptor
        else:
            raise DeviceError(f"cannot publish {type(region_or_descriptor)}")
        self._published[key] = descriptor

    def publish_raw(self, key: str, addr: int, rkey: int, size: int) -> None:
        self._published[key] = RemoteMemRegion(addr=addr, rkey=rkey, size=size)

    def local_lookup(self, key: str) -> Optional[RemoteMemRegion]:
        return self._published.get(key)

    # -- the shared-QP demultiplexer ----------------------------------------------------

    def _ensure_demux(self, peer: Endpoint) -> RdmaChannel:
        """Start this side's receive loop on the address QP to ``peer``."""
        channel = self.device.get_channel(peer, ADDRESS_QP)
        if self._demux_running.get(peer):
            return channel
        self._demux_running[peer] = True
        self._replies.setdefault(peer, Store(self.sim))
        slot = self.device.allocate_mem_region(
            _RECV_SLOT, label=f"addrbook-rx:{peer}")

        def on_message(completion: Completion) -> None:
            raw = slot.read(0, completion.byte_len)
            self.device.post_recv(channel, slot, on_message)
            if not raw:
                return
            if raw[0] == _MSG_REQUEST:
                key = raw[1:].decode("utf-8", errors="replace")
                found = self._published.get(key)
                if found is None:
                    reply = _REPLY.pack(_MSG_REPLY, 0, 0, 0, 0)
                else:
                    reply = _REPLY.pack(_MSG_REPLY, 1, found.addr,
                                        found.rkey, found.size)
                self.device.post_send_message(channel, reply)
            elif raw[0] == _MSG_REPLY:
                self._replies[peer].put(raw)
            # Unknown types are dropped (forward compatibility).

        self.device.post_recv(channel, slot, on_message)
        return channel

    # -- remote lookup --------------------------------------------------------------------

    def lookup(self, peer: Endpoint, key: str) -> Generator:
        """Process: fetch a remote region descriptor from ``peer``.

        Retries every :data:`LOOKUP_RETRY_INTERVAL`, up to
        :data:`LOOKUP_MAX_RETRIES` times, while the peer has not
        published the key yet (setup races are expected: both sides
        prepare concurrently).
        Usage: ``descriptor = yield from book.lookup(peer, key)``.

        Lookups toward one peer must be issued sequentially from the
        same device (replies are matched FIFO, as on a real RC QP);
        the analyzer's address-distribution phase complies.
        """
        remote_device = RdmaDevice.lookup(self.device.host, peer)
        # Both ends must be demultiplexing before traffic flows.
        attach_address_book(remote_device)._ensure_demux(self.device.endpoint)
        channel = self._ensure_demux(peer)
        replies = self._replies[peer]

        for _attempt in range(LOOKUP_MAX_RETRIES):
            request = bytes([_MSG_REQUEST]) + key.encode("utf-8")
            self.device.post_send_message(channel, request)
            raw = yield replies.get()
            _type, found, addr, rkey, size = _REPLY.unpack(raw[:_REPLY.size])
            if found:
                return RemoteMemRegion(addr=addr, rkey=rkey, size=size)
            yield (LOOKUP_RETRY_INTERVAL)
        raise DeviceError(
            f"address lookup for {key!r} on {peer} never succeeded")


def attach_address_book(device: RdmaDevice) -> AddressBook:
    """Create (or return) the device's address book."""
    book = getattr(device, "address_book", None)
    if book is None:
        book = AddressBook(device)
        device.address_book = book  # type: ignore[attr-defined]
    return book
