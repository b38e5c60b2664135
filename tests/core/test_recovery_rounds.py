"""The shape of a drawn selective-repeat round.

Under a spec of one ``loss`` clause, a round asks the fault plane once
which chunks it loses, then posts each run of contiguous surviving
chunks as one verb and each lost chunk as a verb of its own.  These
tests spy on the chain each round posts.
"""

from repro.core.device import Direction, RdmaDevice
from repro.core.recovery import RecoveryManager
from repro.simnet import Cluster, Endpoint, FaultInjector
from repro.simnet.verbs import ROLE_RETRANSMIT

CHUNKS = 10


def _rig(spec):
    cluster = Cluster(2)
    metrics = cluster.enable_metrics()
    cluster.install_faults(FaultInjector.from_spec(spec, seed=0))
    a, b = cluster.hosts
    dev_a = RdmaDevice.create(a, 1, 1, Endpoint(a.name, 7960))
    dev_b = RdmaDevice.create(b, 1, 1, Endpoint(b.name, 7961))
    channel = dev_a.get_channel(dev_b.endpoint, 0)
    chunk = cluster.cost.loss_chunk_bytes
    src = dev_a.allocate_mem_region(CHUNKS * chunk)
    dst = dev_b.allocate_mem_region(CHUNKS * chunk)
    # One distinct byte per chunk, so a chunk that never lands shows.
    src.write(b"".join(bytes([i + 1]) * chunk for i in range(CHUNKS)))
    recovery = RecoveryManager(cluster.sim, cluster.cost, lossy=True)
    chains = []
    post = channel.memcpy_chain

    def spy(spans, *args, role="", verdicts=None, **kwargs):
        offsets = [(lo - src.addr, size) for lo, _hi, size in spans]
        chains.append((role, offsets, None if verdicts is None
                       else [verdict.kind for verdict in verdicts]))
        return post(spans, *args, role=role, verdicts=verdicts, **kwargs)
    channel.memcpy_chain = spy
    cluster.sim.spawn(recovery.reliable_memcpy(
        channel, local_addr=src.addr, local_region=src,
        remote_addr=dst.addr, remote_region=dst.descriptor(),
        size=CHUNKS * chunk, direction=Direction.LOCAL_TO_REMOTE,
        role="gradient-push"))
    cluster.sim.run()
    assert dst.read(0, CHUNKS * chunk) == src.read(0, CHUNKS * chunk)
    return cluster, metrics, recovery, chains, chunk


def test_one_loss_splits_the_round_into_run_lost_run():
    cluster, metrics, recovery, chains, chunk = _rig(
        "loss:p=1,count=1,skip=4")
    first, second = chains
    # Round one: chunks 0-3 as one verb, chunk 4 lost alone, 5-9 as one.
    assert first == ("gradient-push",
                     [(0, 4 * chunk), (4 * chunk, chunk),
                      (5 * chunk, 5 * chunk)],
                     ["pass", "loss", "pass"])
    # Round two re-sends exactly chunk 4 (the rule is spent).
    assert second == (ROLE_RETRANSMIT, [(4 * chunk, chunk)], ["pass"])
    stats = recovery.stats
    assert stats.retransmits == 1 and stats.retransmitted_bytes == chunk
    assert stats.retries == 1 and stats.gave_up == 0
    assert [e["size"] for e in cluster.fault_plane.injected] == [chunk]
    assert [(t.role, t.nbytes) for t in metrics.transfers] == [
        ("gradient-push", 4 * chunk), ("gradient-push", chunk),
        ("gradient-push", 5 * chunk), (ROLE_RETRANSMIT, chunk)]


def test_retransmits_count_chunks_not_verbs():
    """Adjacent losses re-send as one run, but the counters stay per
    chunk: three lost chunks are three retransmits."""
    cluster, metrics, recovery, chains, chunk = _rig(
        "loss:p=1,count=3,skip=2")
    first, second = chains
    assert first[2] == ["pass", "loss", "loss", "loss", "pass"]
    assert second == (ROLE_RETRANSMIT, [(2 * chunk, 3 * chunk)], ["pass"])
    stats = recovery.stats
    assert stats.retransmits == 3
    assert stats.retransmitted_bytes == 3 * chunk
    lost = sum(e["size"] for e in cluster.fault_plane.injected)
    assert lost == stats.retransmitted_bytes


def test_a_loss_free_draw_posts_one_verb():
    _cluster, metrics, recovery, chains, chunk = _rig("loss:p=0")
    assert chains == [("gradient-push", [(0, CHUNKS * chunk)], ["pass"])]
    assert len(metrics.transfers) == 1
    assert recovery.stats.retransmits == 0


def test_any_other_spec_keeps_a_verb_per_chunk():
    _cluster, metrics, _recovery, chains, chunk = _rig(
        "loss:p=0;straggler:p=0")
    assert chains == [("gradient-push",
                       [(i * chunk, chunk) for i in range(CHUNKS)], None)]
    assert len(metrics.transfers) == CHUNKS
