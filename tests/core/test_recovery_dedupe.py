"""Regression: the retry-accounting dedupe for the timeout race.

A transfer whose completion lands *during the backoff window* — the
verb was merely slow, not lost — used to be double-counted: the retry
loop recorded a retry, re-issued the payload, and the chaos suite's
``retries == len(injected)`` identity only held because fixed schedules
never hit the window.  The fix checks ``event.ok`` after the backoff
sleep and records the race as a ``late_completion`` instead: no retry
counter, no duplicate bytes on the wire.

These tests pin the race deterministically by shrinking the attempt
timeout below one transfer's wire time while keeping
``timeout + backoff`` above it, so the original completion always
arrives mid-backoff.
"""

import pytest

from repro.core.device import Direction, RdmaDevice
from repro.core.recovery import RecoveryManager, RetryPolicy
from repro.simnet import Cluster, Endpoint

SIZE = 4 << 20  # ~341us of wire at the default cost model


def _rig(policy):
    cluster = Cluster(2)
    metrics = cluster.enable_metrics()
    a, b = cluster.hosts
    dev_a = RdmaDevice.create(a, 1, 1, Endpoint(a.name, 7950))
    dev_b = RdmaDevice.create(b, 1, 1, Endpoint(b.name, 7951))
    channel = dev_a.get_channel(dev_b.endpoint, 0)
    src = dev_a.allocate_mem_region(SIZE)
    dst = dev_b.allocate_mem_region(SIZE)
    src.write(b"\xab" * 256)
    recovery = RecoveryManager(cluster.sim, cluster.cost, policy=policy)
    return cluster, metrics, channel, src, dst, recovery


def _push(recovery, channel, src, dst):
    yield from recovery.reliable_memcpy(
        channel, local_addr=src.addr, local_region=src,
        remote_addr=dst.addr, remote_region=dst.descriptor(),
        size=SIZE, direction=Direction.LOCAL_TO_REMOTE, role="gradient-push")


def test_late_completion_is_not_a_retry():
    wire = Cluster(2).cost.rdma_write_time(SIZE)
    policy = RetryPolicy(
        # The timeout fires at 0.6x the wire time (a spurious timeout:
        # the verb is still in flight), and the backoff stretches past
        # the completion, which therefore lands mid-window.
        timeout_base=0.6 * wire, timeout_per_byte=0.0,
        backoff_base=wire, backoff_factor=1.0, backoff_max=wire)
    cluster, metrics, channel, src, dst, recovery = _rig(policy)
    cluster.sim.spawn(_push(recovery, channel, src, dst))
    cluster.sim.run()
    stats = recovery.stats
    assert stats.timeouts == 1
    assert stats.late_completions == 1
    # The dedupe: a late original is goodput, never retry traffic.
    assert stats.retries == 0
    assert stats.retries_by_role == {}
    assert stats.retransmits == 0
    assert stats.gave_up == 0
    # Exactly one transfer hit the wire — nothing was re-sent.
    assert metrics.count("RDMA_WRITE") == 1
    assert metrics.total_bytes() == SIZE
    assert dst.read(0, 256) == b"\xab" * 256


def test_fast_completion_records_nothing():
    cluster, metrics, channel, src, dst, recovery = _rig(RetryPolicy())
    cluster.sim.spawn(_push(recovery, channel, src, dst))
    cluster.sim.run()
    assert recovery.stats.to_dict() == RecoveryManager(
        cluster.sim, cluster.cost).stats.to_dict()
    assert metrics.count("RDMA_WRITE") == 1


def test_true_blackhole_still_retries():
    """The dedupe must not swallow real losses: a verb that never
    completes keeps retrying (checked via a timeout far below any
    completion the 30s-limit run could deliver)."""
    wire = Cluster(2).cost.rdma_write_time(SIZE)
    policy = RetryPolicy(
        timeout_base=0.6 * wire, timeout_per_byte=0.0,
        # Backoff shorter than the remaining wire time: the first retry
        # decision happens while the verb is STILL in flight, so the
        # re-issue path must run (event not ok yet).
        backoff_base=0.05 * wire, backoff_factor=1.0,
        backoff_max=0.05 * wire)
    cluster, metrics, channel, src, dst, recovery = _rig(policy)
    cluster.sim.spawn(_push(recovery, channel, src, dst))
    cluster.sim.run()
    stats = recovery.stats
    # First attempt timed out mid-flight and was legitimately retried;
    # later attempts (original + re-issue both land) may dedupe.
    assert stats.retries >= 1
    assert stats.retries_by_role.get("gradient-push", 0) >= 1
    assert metrics.count("RDMA_WRITE") >= 2
    assert dst.read(0, 256) == b"\xab" * 256
