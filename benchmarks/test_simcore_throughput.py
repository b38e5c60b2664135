"""Microbench: raw event throughput of the discrete-event engine.

The 128-256-worker fat-tree sweeps are meant to be engine-bound:
storage follows content, so a tensor nobody can read takes a size-only
backing and wall-clock is events processed per second.  This benchmark
drives the engine's hot paths directly, with no cluster on top:

* the bare-delay fast path (``yield 1e-6`` — allocation-free timeouts),
  which executor, NIC, and transfer loops sit on;
* the event-wait path (``yield event`` park/wake pairs), which models
  completion signalling;
* the absolute-time path (``yield SleepUntil(t)``), which the
  executors' batched poll visits ride: dispatch + flag check merged
  into one heap event per polling sweep.

It prints the sustained events/second and asserts a conservative floor
so a future regression to the scheduling core (an accidental object
per yield, a linear scan in the heap path) fails loudly rather than
silently doubling the scale-sweep CI budget.

One layer up, a verb-level bandwidth test (after blue-rdma's
``testcase_bandwidth_test.py``) posts WRITEs of 64 B / 64 KiB / 4 MiB
between two size-only regions and between two dense ones and bounds
the *host* microseconds each costs: a size-only verb must cost the
same whatever it moves, a dense one may grow with its bytes.  A second
table runs WRITE / READ / SEND through both link servers (the
backfilling pipe and the 512 KiB quantum server) and pins the heap
events each verb costs exactly, so a stray push on either path fails
here before it shows up as wall-clock.
"""

from dataclasses import replace

import pytest

from repro.simnet import Cluster, Opcode, WorkRequest
from repro.simnet.costmodel import DEFAULT_COST_MODEL
from repro.simnet.simulator import Simulator, SleepUntil


def _run_bare_delay(num_processes: int, yields_per_process: int) -> int:
    sim = Simulator()

    def worker(delay):
        for _ in range(yields_per_process):
            yield delay

    for i in range(num_processes):
        # Distinct delays keep the heap honestly interleaved.
        sim.spawn(worker(1e-6 * (1 + i % 7)))
    sim.run()
    return sim.event_count


def _run_event_pingpong(pairs: int, rounds: int) -> int:
    sim = Simulator()

    def ping(peer_events, my_events):
        for r in range(rounds):
            peer_events[r].succeed()
            yield my_events[r]

    def pong(peer_events, my_events):
        for r in range(rounds):
            yield my_events[r]
            peer_events[r].succeed()

    for _ in range(pairs):
        a_waits = [sim.event() for _ in range(rounds)]
        b_waits = [sim.event() for _ in range(rounds)]
        sim.spawn(ping(b_waits, a_waits))
        sim.spawn(pong(a_waits, b_waits))
    sim.run()
    return sim.event_count


def _run_sleep_until(num_processes: int, wakes_per_process: int) -> int:
    sim = Simulator()

    def poller(period):
        # Replays the executor's poll-visit pattern: the process
        # precomputes its wake time (dispatch + flag check back to
        # back) and parks on the absolute-time sentinel.
        when = 0.0
        for _ in range(wakes_per_process):
            when = when + period
            yield SleepUntil(when)

    for i in range(num_processes):
        # Distinct periods keep the heap honestly interleaved.
        sim.spawn(poller(1e-6 * (1 + i % 7)))
    sim.run()
    return sim.event_count


def test_bare_delay_throughput(benchmark):
    events = {}

    def run():
        events["count"] = _run_bare_delay(num_processes=64,
                                          yields_per_process=2000)

    benchmark.pedantic(run, rounds=3, iterations=1)
    wall = benchmark.stats.stats.mean
    rate = events["count"] / wall
    print(f"\nbare-delay: {events['count']} events in {wall:.3f}s "
          f"= {rate / 1e6:.2f}M events/s")
    # Conservative floor: the fast path sustains well over 1M events/s
    # on any recent CPU; trip only on an order-of-magnitude regression.
    assert rate > 200_000


def test_event_wait_throughput(benchmark):
    events = {}

    def run():
        events["count"] = _run_event_pingpong(pairs=64, rounds=1000)

    benchmark.pedantic(run, rounds=3, iterations=1)
    wall = benchmark.stats.stats.mean
    rate = events["count"] / wall
    print(f"\nevent-wait: {events['count']} events in {wall:.3f}s "
          f"= {rate / 1e6:.2f}M events/s")
    assert rate > 100_000


def test_sleep_until_throughput(benchmark):
    events = {}

    def run():
        events["count"] = _run_sleep_until(num_processes=64,
                                           wakes_per_process=2000)

    benchmark.pedantic(run, rounds=3, iterations=1)
    wall = benchmark.stats.stats.mean
    rate = events["count"] / wall
    print(f"\nsleep-until: {events['count']} events in {wall:.3f}s "
          f"= {rate / 1e6:.2f}M events/s")
    # The absolute-time sentinel must stay on the allocation-free fast
    # path: one heap event per poll visit, no Timeout object churn.
    assert rate > 200_000


def _run_verbs(opcode: Opcode, quantum: int, size: int, dense: bool,
               verbs: int) -> int:
    """Post ``verbs`` verbs one at a time; returns the heap events used."""
    cluster = Cluster(2, cost=replace(DEFAULT_COST_MODEL,
                                      wire_quantum_bytes=quantum))
    a, b = cluster.hosts
    cq = a.nic.create_cq()
    recv_cq = b.nic.create_cq()
    qp_a = a.nic.create_qp(cq)
    qp_b = b.nic.create_qp(recv_cq)
    qp_a.connect(qp_b)
    local = a.allocate(size, dense=dense)
    remote = b.allocate(size, dense=dense)
    local_mr = a.nic.register_memory(local)
    remote_mr = b.nic.register_memory(remote)
    for _ in range(verbs):
        if opcode is Opcode.SEND:
            qp_b.post_recv(WorkRequest(
                opcode=Opcode.RECV, size=size, local_addr=remote.addr,
                lkey=remote_mr.lkey))
        qp_a.post_send(WorkRequest(
            opcode=opcode, size=size, local_addr=local.addr,
            lkey=local_mr.lkey, remote_addr=remote.addr,
            rkey=remote_mr.rkey))
        cluster.sim.run()
        (completion,) = cq.poll()
        assert completion.ok
        recv_cq.poll()
    return cluster.sim.event_count


# Measured 14 / 22 / 21 us size-only and 14 / 30 / 930 us dense; the
# ceilings trip on a per-byte loop, not on a slow CI minute.
@pytest.mark.parametrize("storage,size,verbs,ceiling_us", [
    ("size-only", 64, 500, 150.0),
    ("size-only", 64 << 10, 500, 250.0),
    ("size-only", 4 << 20, 500, 250.0),
    ("dense", 64, 500, 150.0),
    ("dense", 64 << 10, 500, 400.0),
    ("dense", 4 << 20, 50, 10_000.0),
])
def test_write_host_cost_per_verb(benchmark, storage, size, verbs, ceiling_us):
    benchmark.pedantic(_run_verbs, rounds=3, iterations=1, args=(
        Opcode.WRITE, 0, size, storage == "dense", verbs))
    per_verb_us = benchmark.stats.stats.min / verbs * 1e6
    print(f"\nWRITE {size} B {storage}: {per_verb_us:.1f} host us/verb "
          f"= {size / per_verb_us:.1f} MB/s of simulated payload")
    assert per_verb_us < ceiling_us


# Measured 23.5 / 23.1 / 17.8 us on the pipe and 39.4 / 39.7 / 34.4 us
# on the quantum server (64 KiB size-only).  A one-sided verb is four
# commit chunks and a CQE; a SEND is the delivery, the RECV commit and a
# CQE; the quantum server adds one decide and one finish event per
# direction.  The two servers stay two because of exactly this gap.
@pytest.mark.parametrize("quantum,ceiling_us,events", [
    (0, 250.0, {Opcode.WRITE: 5, Opcode.READ: 5, Opcode.SEND: 3}),
    (512 << 10, 400.0, {Opcode.WRITE: 9, Opcode.READ: 9, Opcode.SEND: 7}),
], ids=["pipe", "quantum"])
@pytest.mark.parametrize("opcode", [Opcode.WRITE, Opcode.READ, Opcode.SEND],
                         ids=lambda op: op.name)
def test_verb_host_cost_and_events(benchmark, opcode, quantum, ceiling_us,
                                   events):
    verbs, size = 500, 64 << 10
    counts = []
    benchmark.pedantic(
        lambda: counts.append(_run_verbs(opcode, quantum, size, False, verbs)),
        rounds=3, iterations=1)
    per_verb_us = benchmark.stats.stats.min / verbs * 1e6
    print(f"\n{opcode.name} {size} B size-only, quantum {quantum}: "
          f"{per_verb_us:.1f} host us/verb, "
          f"{counts[0] / verbs:g} events/verb")
    assert counts == [events[opcode] * verbs] * 3
    assert per_verb_us < ceiling_us
