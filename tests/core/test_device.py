"""Unit tests for the RDMA device library (Table 1 interface)."""

import collections
import math

import pytest

from repro.core import (DeviceError, Direction, RdmaDevice,
                        attach_address_book)
from repro.core.address_book import (LOOKUP_MAX_RETRIES,
                                     LOOKUP_RETRY_INTERVAL)
from repro.simnet import Cluster, Endpoint


@pytest.fixture
def rig():
    cluster = Cluster(2)
    a, b = cluster.hosts
    dev_a = RdmaDevice.create(a, num_cqs=4, num_qps_per_peer=4,
                              local_endpoint=Endpoint(a.name, 7000))
    dev_b = RdmaDevice.create(b, num_cqs=4, num_qps_per_peer=4,
                              local_endpoint=Endpoint(b.name, 7000))
    return cluster, dev_a, dev_b


class TestDeviceCreation:
    def test_create_registers_service(self, rig):
        cluster, dev_a, dev_b = rig
        assert RdmaDevice.lookup(cluster.hosts[0],
                                 Endpoint(cluster.hosts[1].name, 7000)) is dev_b

    def test_duplicate_endpoint_rejected(self, rig):
        cluster, dev_a, _ = rig
        with pytest.raises(DeviceError):
            RdmaDevice.create(cluster.hosts[0], 1, 1,
                              Endpoint(cluster.hosts[0].name, 7000))

    def test_bad_configuration(self, rig):
        cluster, *_ = rig
        with pytest.raises(DeviceError):
            RdmaDevice.create(cluster.hosts[0], 0, 1,
                              Endpoint(cluster.hosts[0].name, 7050))

    def test_cq_count(self, rig):
        _, dev_a, _ = rig
        assert len(dev_a.cqs) == 4

    def test_two_devices_same_host_different_ports(self):
        cluster = Cluster(1)
        host = cluster.hosts[0]
        d1 = RdmaDevice.create(host, 1, 1, Endpoint(host.name, 7001))
        d2 = RdmaDevice.create(host, 1, 1, Endpoint(host.name, 7002))
        assert d1 is not d2


class TestMemRegions:
    def test_allocate_mem_region(self, rig):
        _, dev_a, _ = rig
        mem = dev_a.allocate_mem_region(4096)
        assert mem.size == 4096
        assert mem.rkey > 0

    def test_free_mem_region(self, rig):
        _, dev_a, _ = rig
        mem = dev_a.allocate_mem_region(4096)
        dev_a.free_mem_region(mem)
        assert mem not in dev_a.regions

    def test_descriptor(self, rig):
        _, dev_a, _ = rig
        mem = dev_a.allocate_mem_region(128)
        descriptor = mem.descriptor()
        assert descriptor.addr == mem.addr
        assert descriptor.rkey == mem.rkey
        assert descriptor.size == 128


class TestChannels:
    def test_get_channel_lazily_connects(self, rig):
        cluster, dev_a, dev_b = rig
        channel = dev_a.get_channel(dev_b.endpoint, qp_idx=0)
        assert channel.qp.remote is not None

    def test_channel_cached(self, rig):
        _, dev_a, dev_b = rig
        c1 = dev_a.get_channel(dev_b.endpoint, 1)
        c2 = dev_a.get_channel(dev_b.endpoint, 1)
        assert c1 is c2

    def test_distinct_qp_indices_distinct_qps(self, rig):
        _, dev_a, dev_b = rig
        c0 = dev_a.get_channel(dev_b.endpoint, 0)
        c1 = dev_a.get_channel(dev_b.endpoint, 1)
        assert c0.qp is not c1.qp

    def test_qp_idx_out_of_range(self, rig):
        _, dev_a, dev_b = rig
        with pytest.raises(DeviceError):
            dev_a.get_channel(dev_b.endpoint, 4)

    def test_qps_spread_over_cqs_round_robin(self, rig):
        _, dev_a, dev_b = rig
        cqs = [dev_a.get_channel(dev_b.endpoint, i).qp.send_cq
               for i in range(4)]
        assert len({cq.cq_id for cq in cqs}) > 1


class TestMemcpy:
    def test_write_moves_data(self, rig):
        cluster, dev_a, dev_b = rig
        src = dev_a.allocate_mem_region(64)
        dst = dev_b.allocate_mem_region(64)
        src.write(b"device-api-bytes")
        channel = dev_a.get_channel(dev_b.endpoint, 0)
        event = channel.memcpy_event(
            local_addr=src.addr, local_region=src,
            remote_addr=dst.addr, remote_region=dst.descriptor(),
            size=16, direction=Direction.LOCAL_TO_REMOTE)
        cluster.sim.run()
        assert event.triggered and event.ok
        assert dst.read(0, 16) == b"device-api-bytes"

    def test_read_pulls_data(self, rig):
        cluster, dev_a, dev_b = rig
        local = dev_a.allocate_mem_region(64)
        remote = dev_b.allocate_mem_region(64)
        remote.write(b"pull-me")
        channel = dev_a.get_channel(dev_b.endpoint, 2)
        channel.memcpy_event(
            local_addr=local.addr, local_region=local,
            remote_addr=remote.addr, remote_region=remote.descriptor(),
            size=7, direction=Direction.REMOTE_TO_LOCAL)
        cluster.sim.run()
        assert local.read(0, 7) == b"pull-me"

    def test_callback_fires_on_completion(self, rig):
        cluster, dev_a, dev_b = rig
        src = dev_a.allocate_mem_region(64)
        dst = dev_b.allocate_mem_region(64)
        channel = dev_a.get_channel(dev_b.endpoint, 0)
        fired = []
        channel.memcpy(local_addr=src.addr, local_region=src,
                       remote_addr=dst.addr, remote_region=dst.descriptor(),
                       size=64, direction=Direction.LOCAL_TO_REMOTE,
                       callback=lambda c: fired.append(c.ok))
        cluster.sim.run()
        assert fired == [True]

    def test_bad_remote_region_fails_event(self, rig):
        cluster, dev_a, dev_b = rig
        from repro.core import RemoteMemRegion
        src = dev_a.allocate_mem_region(64)
        channel = dev_a.get_channel(dev_b.endpoint, 0)
        event = channel.memcpy_event(
            local_addr=src.addr, local_region=src,
            remote_addr=999, remote_region=RemoteMemRegion(999, 42, 64),
            size=64, direction=Direction.LOCAL_TO_REMOTE)
        cluster.sim.run()
        assert event.triggered
        with pytest.raises(DeviceError):
            _ = event.value

    def test_inline_write(self, rig):
        cluster, dev_a, dev_b = rig
        dst = dev_b.allocate_mem_region(64)
        channel = dev_a.get_channel(dev_b.endpoint, 0)
        channel.memcpy_event(
            local_addr=0, local_region=None,
            remote_addr=dst.addr + 63, remote_region=dst.descriptor(),
            size=1, direction=Direction.LOCAL_TO_REMOTE,
            inline_data=b"\x01")
        cluster.sim.run()
        assert dst.read_byte(63) == 1

    def test_inline_read_rejected(self, rig):
        _, dev_a, dev_b = rig
        dst = dev_b.allocate_mem_region(64)
        channel = dev_a.get_channel(dev_b.endpoint, 0)
        with pytest.raises(DeviceError):
            channel.memcpy(local_addr=0, local_region=None,
                           remote_addr=dst.addr,
                           remote_region=dst.descriptor(), size=1,
                           direction=Direction.REMOTE_TO_LOCAL,
                           inline_data=b"x")

    def test_missing_local_region_rejected(self, rig):
        _, dev_a, dev_b = rig
        dst = dev_b.allocate_mem_region(64)
        channel = dev_a.get_channel(dev_b.endpoint, 0)
        with pytest.raises(DeviceError):
            channel.memcpy(local_addr=0, local_region=None,
                           remote_addr=dst.addr,
                           remote_region=dst.descriptor(), size=8,
                           direction=Direction.LOCAL_TO_REMOTE)


class TestAddressBook:
    def test_publish_and_remote_lookup(self, rig):
        cluster, dev_a, dev_b = rig
        book_a = attach_address_book(dev_a)
        book_b = attach_address_book(dev_b)
        mem = dev_b.allocate_mem_region(256)
        book_b.publish("weights/W0", mem)

        fetch = cluster.sim.spawn(book_a.lookup(dev_b.endpoint, "weights/W0"))
        descriptor = cluster.sim.run_until_complete(fetch, limit=5.0)
        assert descriptor.addr == mem.addr
        assert descriptor.rkey == mem.rkey
        assert descriptor.size == 256

    def test_lookup_retries_until_published(self, rig):
        cluster, dev_a, dev_b = rig
        book_a = attach_address_book(dev_a)
        book_b = attach_address_book(dev_b)
        mem = dev_b.allocate_mem_region(64)

        def publish_late():
            yield cluster.sim.timeout(0.001)
            book_b.publish("late-key", mem)

        cluster.sim.spawn(publish_late())
        fetch = cluster.sim.spawn(book_a.lookup(dev_b.endpoint, "late-key"))
        descriptor = cluster.sim.run_until_complete(fetch, limit=5.0)
        assert descriptor.addr == mem.addr

    def test_lookup_gives_up(self, rig):
        cluster, dev_a, dev_b = rig
        book_a = attach_address_book(dev_a)
        attach_address_book(dev_b)
        fetch = cluster.sim.spawn(
            book_a.lookup(dev_b.endpoint, "never"))
        cluster.sim.run()
        assert fetch.triggered
        # every attempt waited out its retry interval first
        assert cluster.sim.now >= LOOKUP_MAX_RETRIES * LOOKUP_RETRY_INTERVAL
        with pytest.raises(DeviceError):
            _ = fetch.value

    def test_local_lookup(self, rig):
        _, dev_a, _ = rig
        book = attach_address_book(dev_a)
        mem = dev_a.allocate_mem_region(64)
        book.publish("k", mem)
        assert book.local_lookup("k").addr == mem.addr
        assert book.local_lookup("missing") is None


def _record_messages(device):
    """Make ``device`` log every address message it sends (payloads)."""
    sent = []
    post = device.post_send_message

    def spy(channel, data, callback=None):
        sent.append(data)
        return post(channel, data, callback)

    device.post_send_message = spy
    return sent


def _publish_fakes(book, keys, base):
    for i, key in enumerate(keys):
        book.publish_raw(key, addr=base + 64 * i, rkey=base + i, size=64)


class TestAddressExchange:
    """One request names every key a device wants from a peer and one
    reply carries their descriptors, split only where the keys or their
    descriptors would overflow a receive slot."""

    def test_batch_is_split_at_the_recv_slot_and_kept_in_key_order(self, rig):
        from repro.core.address_book import _ENTRIES_PER_REPLY, _RECV_SLOT
        cluster, dev_a, dev_b = rig
        book_a = attach_address_book(dev_a)
        book_b = attach_address_book(dev_b)
        keys = [f"tensor/{i:03d}/grad" for i in range(100)]   # 15 bytes each
        _publish_fakes(book_b, keys, base=0x10000)
        requests, replies = _record_messages(dev_a), _record_messages(dev_b)

        wanted = keys[::-1]
        fetch = cluster.sim.spawn(book_a.lookup_many(dev_b.endpoint, wanted))
        descriptors = cluster.sim.run_until_complete(fetch, limit=5.0)

        assert [d.addr for d in descriptors] == [
            book_b.local_lookup(key).addr for key in wanted]
        assert all(len(m) <= _RECV_SLOT for m in requests + replies)
        # a type byte, then NUL-separated keys: 32 such keys fit a slot,
        # but their reply would not, so a request names fewer
        fit = (_RECV_SLOT + 1) // (len(keys[0]) + 1)
        assert fit > _ENTRIES_PER_REPLY
        assert len(requests) == len(replies) == math.ceil(
            len(keys) / _ENTRIES_PER_REPLY)
        # and long keys split on the request's size
        long_keys = [f"{'x' * 60}/{i:03d}" for i in range(50)]
        _publish_fakes(book_b, long_keys, base=0x50000)
        del requests[:]
        fetch = cluster.sim.spawn(book_a.lookup_many(dev_b.endpoint,
                                                     long_keys))
        descriptors = cluster.sim.run_until_complete(fetch, limit=5.0)
        assert [d.addr for d in descriptors] == [
            book_b.local_lookup(key).addr for key in long_keys]
        fit = (_RECV_SLOT + 1) // (len(long_keys[0]) + 1)
        assert fit < _ENTRIES_PER_REPLY
        assert len(requests) == math.ceil(len(long_keys) / fit)
        assert all(len(m) <= _RECV_SLOT for m in requests)

    def test_only_the_late_key_is_asked_again(self, rig):
        cluster, dev_a, dev_b = rig
        book_a = attach_address_book(dev_a)
        book_b = attach_address_book(dev_b)
        keys = [f"k{i}" for i in range(20)]
        _publish_fakes(book_b, [k for k in keys if k != "k17"], base=0x20000)
        requests = _record_messages(dev_a)

        def publish_late():
            yield cluster.sim.timeout(0.001)
            book_b.publish_raw("k17", addr=0x9000, rkey=9, size=8)

        cluster.sim.spawn(publish_late())
        fetch = cluster.sim.spawn(book_a.lookup_many(dev_b.endpoint, keys))
        descriptors = cluster.sim.run_until_complete(fetch, limit=5.0)

        assert descriptors[17].addr == 0x9000
        assert [d.addr for d in descriptors[:17]] == [
            0x20000 + 64 * i for i in range(17)]
        assert descriptors[18].addr == 0x20000 + 64 * 17
        assert requests[0].count(b"\0") == len(keys) - 1
        assert len(requests) > 1
        assert set(requests[1:]) == {requests[0][:1] + b"k17"}

    def test_an_unpublished_key_still_gives_up(self, rig):
        cluster, dev_a, dev_b = rig
        book_a = attach_address_book(dev_a)
        book_b = attach_address_book(dev_b)
        keys = [f"k{i}" for i in range(10)]
        _publish_fakes(book_b, keys, base=0x30000)
        requests = _record_messages(dev_a)
        fetch = cluster.sim.spawn(
            book_a.lookup_many(dev_b.endpoint, keys + ["never"]))
        cluster.sim.run()
        assert fetch.triggered
        assert cluster.sim.now >= LOOKUP_MAX_RETRIES * LOOKUP_RETRY_INTERVAL
        assert len(requests) == LOOKUP_MAX_RETRIES
        assert set(requests[1:]) == {requests[0][:1] + b"never"}
        with pytest.raises(DeviceError, match="never"):
            _ = fetch.value

    def test_two_peers_served_concurrently_replies_fifo_per_peer(self):
        from repro.core.address_book import _MSG_KEYS
        cluster = Cluster(3)
        devices = [RdmaDevice.create(host, num_cqs=2, num_qps_per_peer=2,
                                     local_endpoint=Endpoint(host.name, 7000))
                   for host in cluster.hosts]
        books = [attach_address_book(device) for device in devices]
        # the same key names on every device, each with its own regions;
        # enough of them that every peer's exchange spans several requests
        keys = [f"layer{i:02d}/weights/shard" for i in range(60)]
        for n, book in enumerate(books):
            _publish_fakes(book, keys, base=0x100000 * (n + 1))
        posted = []
        post = devices[0].post_send_message

        def spy(channel, data, callback=None):
            if data[0] == _MSG_KEYS:
                posted.append((cluster.sim.now, channel.peer))
            return post(channel, data, callback)

        devices[0].post_send_message = spy
        asks = [(0, 1), (0, 2), (1, 0), (2, 0)]
        fetches = [cluster.sim.spawn(books[src].lookup_many(
            devices[dst].endpoint, keys)) for src, dst in asks]
        results = cluster.sim.run_until_complete(
            cluster.sim.all_of(fetches), limit=5.0)
        for (src, dst), descriptors in zip(asks, results):
            assert [d.addr for d in descriptors] == [
                books[dst].local_lookup(key).addr for key in keys]
        # device 0's exchanges with its two peers ran side by side: each
        # took several requests, and they interleave in time
        to_1 = [when for when, peer in posted if peer == devices[1].endpoint]
        to_2 = [when for when, peer in posted if peer == devices[2].endpoint]
        assert len(to_1) == len(to_2) > 1
        assert to_2[0] < to_1[-1] and to_1[0] < to_2[-1]


class TestBindSenders:
    def test_gru_ring_binds_in_one_run_one_batch_per_pair(self, monkeypatch):
        """A GRU ring n=4 session fetches its senders' descriptors in one
        simulator run, at most one request/reply pair per slot's worth
        of keys and (device, peer) pair."""
        from repro.core import RdmaCommRuntime
        from repro.core.address_book import (_ENTRIES_PER_REPLY, _MSG_KEYS,
                                             _RECV_SLOT, ADDRESS_QP)
        from repro.distributed import run_training_benchmark
        from repro.models import get_model

        runs, keys = [], collections.defaultdict(list)
        messages = collections.Counter()
        bind = RdmaCommRuntime._bind_senders

        def spy_bind(self, session):
            sim = session.sim
            run = sim.run_until_complete

            def counted(*args, **kwargs):
                runs.append(args)
                return run(*args, **kwargs)

            sim.run_until_complete = counted
            try:
                bind(self, session)
            finally:
                del sim.run_until_complete
            for edge in session.partitioned.transfers:
                keys[(self.endpoints[edge.src_device],
                      self.endpoints[edge.dst_device])].append(edge.key)

        post = RdmaDevice.post_send_message

        def spy_post(self, channel, data, callback=None):
            assert channel.qp_idx == ADDRESS_QP
            asker = ((self.endpoint, channel.peer) if data[0] == _MSG_KEYS
                     else (channel.peer, self.endpoint))
            messages[asker, data[0] == _MSG_KEYS] += 1
            return post(self, channel, data, callback)

        monkeypatch.setattr(RdmaCommRuntime, "_bind_senders", spy_bind)
        monkeypatch.setattr(RdmaDevice, "post_send_message", spy_post)
        run_training_benchmark(get_model("GRU"), "RDMA", num_servers=4,
                               batch_size=8, iterations=1, strategy="ring")

        assert len(runs) == 1
        assert len(keys) == 4
        for pair, pair_keys in keys.items():
            longest = max(len(key) for key in pair_keys)
            batch = min(_ENTRIES_PER_REPLY,
                        (_RECV_SLOT + 1) // (longest + len("#meta") + 1))
            bound = math.ceil(len(pair_keys) / batch)
            assert 1 <= messages[pair, True] <= bound
            assert 1 <= messages[pair, False] <= bound
