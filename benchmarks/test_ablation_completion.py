"""Ablation D1: flag-byte completion vs two-sided notification.

The paper's receiver detects transfer completion by polling a flag
byte at the tail of the preallocated region (§3.2) instead of using
two-sided verbs.  This ablation drives both designs over raw device
channels: (a) one-sided WRITE of payload+flag with receiver-side
polling; (b) one-sided WRITE of the payload followed by a SEND
notification consumed by a posted RECV.  The flag design avoids the
remote CPU's receive-path work and an extra message, so per-transfer
latency is lower — at the price of burning receiver cycles polling.
"""

import pytest

from repro.core import Direction, RdmaDevice, attach_address_book
from repro.simnet import Cluster, Endpoint, Opcode, WorkRequest
from repro.simnet.costmodel import MB


SIZES = (64 * 1024, 1 * MB, 16 * MB)
ROUNDS = 6


def _setup():
    cluster = Cluster(2)
    a, b = cluster.hosts
    dev_a = RdmaDevice.create(a, 4, 4, Endpoint(a.name, 7300))
    dev_b = RdmaDevice.create(b, 4, 4, Endpoint(b.name, 7300))
    return cluster, dev_a, dev_b


def run_flag_polling(size: int) -> float:
    """Total time for ROUNDS transfers with flag-byte completion."""
    cluster, dev_a, dev_b = _setup()
    src = dev_a.allocate_mem_region(size)
    dst = dev_b.allocate_mem_region(size + 1)
    channel = dev_a.get_channel(dev_b.endpoint, 1)
    cost = cluster.cost

    def receiver():
        for _ in range(ROUNDS):
            while dst.read_byte(size) != 1:
                yield cluster.sim.timeout(cost.poll_check + cost.idle_poll_interval)
            dst.write(b"\x00", offset=size)

    def sender():
        for _ in range(ROUNDS):
            channel.memcpy(local_addr=src.addr, local_region=src,
                           remote_addr=dst.addr, remote_region=dst.descriptor(),
                           size=size, direction=Direction.LOCAL_TO_REMOTE)
            done = channel.memcpy_event(
                local_addr=0, local_region=None,
                remote_addr=dst.addr + size, remote_region=dst.descriptor(),
                size=1, direction=Direction.LOCAL_TO_REMOTE,
                inline_data=b"\x01")
            yield done

    recv_proc = cluster.sim.spawn(receiver())
    cluster.sim.spawn(sender())
    cluster.sim.run_until_complete(recv_proc, limit=60.0)
    return cluster.sim.now


def run_send_notification(size: int) -> float:
    """Total time with a two-sided SEND notifying each completion."""
    cluster, dev_a, dev_b = _setup()
    src = dev_a.allocate_mem_region(size)
    dst = dev_b.allocate_mem_region(size)
    notify_slot = dev_b.allocate_mem_region(64)
    channel_a = dev_a.get_channel(dev_b.endpoint, 1)
    channel_b = dev_b.get_channel(dev_a.endpoint, 1)

    def receiver():
        for _ in range(ROUNDS):
            got = cluster.sim.event()
            dev_b.post_recv(channel_b, notify_slot, got.succeed)
            yield got

    def sender():
        for _ in range(ROUNDS):
            done = channel_a.memcpy_event(
                local_addr=src.addr, local_region=src,
                remote_addr=dst.addr, remote_region=dst.descriptor(),
                size=size, direction=Direction.LOCAL_TO_REMOTE)
            yield done
            dev_a.post_send_message(channel_a, b"ready")

    recv_proc = cluster.sim.spawn(receiver())
    cluster.sim.spawn(sender())
    cluster.sim.run_until_complete(recv_proc, limit=60.0)
    return cluster.sim.now


def test_ablation_completion_mechanism(benchmark):
    results = benchmark.pedantic(
        lambda: {size: (run_flag_polling(size), run_send_notification(size))
                 for size in SIZES},
        rounds=1, iterations=1)
    print()
    print("== Ablation D1: completion detection ==")
    print(f"{'size':>12}  {'flag-poll ms':>14}  {'send-notify ms':>15}")
    for size, (flag, notify) in results.items():
        print(f"{size:>12}  {flag * 1e3:>14.4f}  {notify * 1e3:>15.4f}")
        # The flag design is never slower; the two-sided variant pays
        # the sender-side completion wait plus an extra message.
        assert flag <= notify * 1.02, size
    # For small transfers the relative gap is most visible.
    small_flag, small_notify = results[SIZES[0]]
    assert small_notify > small_flag
