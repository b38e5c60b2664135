"""Unit tests for the RDMA device library (Table 1 interface)."""

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
