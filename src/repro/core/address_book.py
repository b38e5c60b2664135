"""Remote-address distribution: the vanilla RPC of §3.1.

To use the one-sided memory-copy interface, a sender must know the
address (and rkey) of the remote region it targets.  The device
library therefore ships "a simple vanilla RPC mechanism implemented
using the RDMA send/recv verbs for this auxiliary purpose"; it runs
off the critical path (addresses are distributed before computation).

Each device owns an :class:`AddressBook`.  Local regions are
``publish``-ed under string keys; a remote peer ``lookup_many``-s every
key it needs from that peer in one exchange over messaging verbs on a
dedicated QP: one request names the keys and one reply carries their
descriptors in request order, split only where either would overflow
a receive slot.  Because RC SEND/RECV has no tag matching, each side
runs a demultiplexer on the shared address QP: every message carries a
type byte, requests are answered in place, replies are routed to the
waiting lookup.
"""

from __future__ import annotations

import struct
from typing import Dict, Generator, Iterator, List, Optional, Sequence

from ..simnet.simulator import Store
from ..simnet.topology import Endpoint
from ..simnet.verbs import Completion
from .device import DeviceError, MemRegion, RdmaChannel, RdmaDevice, RemoteMemRegion


_MSG_KEYS = 1      # type byte, then the keys, NUL-separated
_MSG_ENTRIES = 2   # type byte, then one _ENTRY per key, in request order
_ENTRY = struct.Struct("<BQIQ")   # found, addr, rkey, size
_RECV_SLOT = 512
#: descriptors one reply holds, so keys one request may name
_ENTRIES_PER_REPLY = (_RECV_SLOT - 1) // _ENTRY.size

#: dedicated QP index for address traffic, by convention QP 0
ADDRESS_QP = 0

#: sim seconds a lookup waits before asking again for an unpublished key
LOOKUP_RETRY_INTERVAL = 50e-6

#: lookup attempts before an unpublished key is an error
LOOKUP_MAX_RETRIES = 200


def _batches(keys: Sequence[str]) -> Iterator[List[str]]:
    """Split ``keys`` into requests whose keys and reply each fit a slot."""
    batch: List[str] = []
    size = 0
    for key in keys:
        cost = len(key.encode("utf-8")) + 1   # the key, its NUL or type byte
        if batch and (size + cost > _RECV_SLOT
                      or len(batch) == _ENTRIES_PER_REPLY):
            yield batch
            batch, size = [], 0
        batch.append(key)
        size += cost
    if batch:
        yield batch


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
            if raw[0] == _MSG_KEYS:
                keys = raw[1:].decode("utf-8", "replace").split("\0")
                entries = b"".join(_ENTRY.pack(0, 0, 0, 0) if d is None else
                                   _ENTRY.pack(1, d.addr, d.rkey, d.size)
                                   for d in map(self._published.get, keys))
                self.device.post_send_message(
                    channel, bytes([_MSG_ENTRIES]) + entries)
            elif raw[0] == _MSG_ENTRIES:
                self._replies[peer].put(raw)
            # Unknown types are dropped (forward compatibility).

        self.device.post_recv(channel, slot, on_message)
        return channel

    # -- remote lookup --------------------------------------------------------------------

    def lookup_many(self, peer: Endpoint, keys: Sequence[str]) -> Generator:
        """Process: fetch the descriptors of ``keys`` from ``peer``.

        The keys go in as few requests as fit a receive slot (each
        reply fitting one too), one after another, each awaiting its
        reply.  Keys the peer has not published yet are asked again,
        alone, every :data:`LOOKUP_RETRY_INTERVAL`, up to
        :data:`LOOKUP_MAX_RETRIES` attempts (setup races are expected:
        both sides prepare concurrently).  Returns the descriptors in
        key order: ``descriptors = yield from book.lookup_many(peer,
        keys)``.  Replies match FIFO per peer, as on an RC QP, so a
        device runs one lookup toward a peer at a time; the runtime
        runs one per (device, peer) pair, all pairs at once.
        """
        remote_device = RdmaDevice.lookup(self.device.host, peer)
        # Both ends must be demultiplexing before traffic flows.
        attach_address_book(remote_device)._ensure_demux(self.device.endpoint)
        channel = self._ensure_demux(peer)
        replies = self._replies[peer]

        found: Dict[str, RemoteMemRegion] = {}
        pending = list(keys)
        for _attempt in range(LOOKUP_MAX_RETRIES):
            for batch in _batches(pending):
                self.device.post_send_message(channel, bytes([_MSG_KEYS])
                                              + "\0".join(batch).encode())
                raw = yield replies.get()
                for key, (ok, *entry) in zip(batch,
                                             _ENTRY.iter_unpack(raw[1:])):
                    if ok:
                        found[key] = RemoteMemRegion(*entry)
            pending = [key for key in pending if key not in found]
            if not pending:
                return [found[key] for key in keys]
            yield (LOOKUP_RETRY_INTERVAL)
        raise DeviceError(
            f"address lookup for {pending[0]!r} on {peer} never succeeded")

    def lookup(self, peer: Endpoint, key: str) -> Generator:
        """Process: one key's descriptor, a :meth:`lookup_many` of one."""
        return (yield from self.lookup_many(peer, [key]))[0]


def attach_address_book(device: RdmaDevice) -> AddressBook:
    """Create (or return) the device's address book."""
    book = getattr(device, "address_book", None)
    if book is None:
        book = AddressBook(device)
        device.address_book = book  # type: ignore[attr-defined]
    return book
