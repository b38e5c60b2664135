"""Regression: the retry-accounting dedupe for the timeout race.

A transfer whose completion lands *during the backoff window* — the
verb was merely slow, not lost — used to be double-counted: the retry
loop recorded a retry, re-issued the payload, and the chaos suite's
``retries == len(injected)`` identity only held because fixed schedules
never hit the window.  The fix checks whether the chunk landed after
the backoff sleep and records the race as a ``late_completion``: no retry
counter, no duplicate bytes on the wire.

These tests pin the race deterministically by shrinking the attempt
timeout below one transfer's wire time while keeping
``timeout + backoff`` above it, so the original completion always
arrives mid-backoff.
"""

import pytest

from repro.core.device import Direction, RdmaDevice
from repro.core.recovery import RecoveryManager, RetryPolicy
from repro.simnet import Cluster, Endpoint, FaultInjector

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


def _timed(sim, process):
    """Run ``process``; return the instant it returned."""
    yield from process
    return sim.now


def test_a_late_completion_never_settles_the_next_round():
    """Selective repeat over chunks: a round that times out with two
    chunks still in flight re-issues them at once (a backoff far
    shorter than their wire time), so the first round's two CQEs
    arrive while the second round waits on its own two.  Each round
    settles only its own gate: the transfer returns after the
    re-issued chunks land, not when the stale completions arrive."""
    rig = _rig(RetryPolicy())
    cluster, metrics, channel, src, dst, _ = rig
    cost = cluster.cost
    chunks = SIZE // cost.loss_chunk_bytes
    clean = RecoveryManager(cluster.sim, cost, lossy=True)
    # One clean round of every chunk, post to last completion.
    wire = cluster.sim.run_until_complete(cluster.sim.spawn(
        _timed(cluster.sim, _push(clean, channel, src, dst))))
    # Times out with the last two chunks still on the wire; the second
    # round (those two, behind the first round's copies) ends inside
    # its own deadline.
    timeout = wire * (chunks - 1.5) / chunks
    policy = RetryPolicy(timeout_base=timeout, timeout_per_byte=0.0,
                         backoff_base=1e-9, backoff_factor=1.0,
                         backoff_max=1e-9)
    cluster, metrics, channel, src, dst, _ = _rig(policy)
    recovery = RecoveryManager(cluster.sim, cluster.cost, policy=policy,
                               lossy=True)
    returned = cluster.sim.run_until_complete(cluster.sim.spawn(
        _timed(cluster.sim, _push(recovery, channel, src, dst))))
    cluster.sim.run()
    stats = recovery.stats
    assert stats.timeouts == 1 and stats.retries == 1
    assert stats.retransmits == 2 and stats.late_completions == 0
    writes = metrics.transfers
    assert len(writes) == chunks + 2
    # Round one's last two chunks ended before round two's copies, and
    # the transfer returned only after the copies' completions.
    stale_end = max(t.end for t in writes[:chunks])
    retransmit_end = max(t.end for t in writes[chunks:])
    assert stale_end < retransmit_end
    assert returned >= retransmit_end + cost.rdma_completion_overhead
    assert dst.read(0, 256) == b"\xab" * 256


def _drawn_rig(policy, spec):
    """``_rig`` on a fabric whose spec is one ``loss`` clause: rounds
    are drawn at once and post each clean run as one verb."""
    cluster, metrics, channel, src, dst, _ = _rig(policy)
    cluster.install_faults(FaultInjector.from_spec(spec, seed=0))
    recovery = RecoveryManager(cluster.sim, cluster.cost, policy=policy,
                               lossy=True)
    return cluster, metrics, channel, src, dst, recovery


def test_a_late_run_completion_never_settles_the_next_round():
    """The same race with coalesced runs: round one posts chunks 0-61
    as one verb, loses chunk 62 and posts chunk 63 as a run of one; it
    times out with that run still on the wire, and round two re-sends
    62-63 as one run.  The stale run's CQE lands while round two
    waits and settles round one only: the transfer returns after the
    re-sent run's completion."""
    cluster, _metrics, channel, src, dst, recovery = _drawn_rig(
        RetryPolicy(), "loss:p=0")
    cost = cluster.cost
    chunks = SIZE // cost.loss_chunk_bytes
    # One loss-free round is one verb, post to completion.
    wire = cluster.sim.run_until_complete(cluster.sim.spawn(
        _timed(cluster.sim, _push(recovery, channel, src, dst))))
    timeout = wire * (chunks - 0.5) / chunks
    policy = RetryPolicy(timeout_base=timeout, timeout_per_byte=0.0,
                         backoff_base=1e-9, backoff_factor=1.0,
                         backoff_max=1e-9)
    cluster, metrics, channel, src, dst, recovery = _drawn_rig(
        policy, f"loss:p=1,count=1,skip={chunks - 2}")
    returned = cluster.sim.run_until_complete(cluster.sim.spawn(
        _timed(cluster.sim, _push(recovery, channel, src, dst))))
    cluster.sim.run()
    stats = recovery.stats
    assert stats.timeouts == 1 and stats.retries == 1
    assert stats.retransmits == 2 and stats.late_completions == 0
    chunk = cost.loss_chunk_bytes
    writes = metrics.transfers
    assert [t.nbytes for t in writes] == [
        (chunks - 2) * chunk, chunk, chunk, 2 * chunk]
    stale_end = max(t.end for t in writes[:3])
    retransmit_end = writes[3].end
    assert stale_end < retransmit_end
    assert returned >= retransmit_end + cost.rdma_completion_overhead
    assert dst.read(0, 256) == b"\xab" * 256
