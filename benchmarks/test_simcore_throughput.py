"""Microbench: raw event throughput of the discrete-event engine.

The 128-256-worker fat-tree sweeps are meant to be engine-bound:
storage follows content, so a tensor nobody can read takes a size-only
backing and wall-clock is events processed per second.  This benchmark
drives the engine's hot paths directly, with no cluster on top:

* the bare-delay fast path (``yield 1e-6`` — allocation-free timeouts),
  which executor, NIC, and transfer loops sit on;
* the event-wait path (``yield event`` park/wake pairs), which models
  completion signalling.

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

Beside it, the event the repository simulates most: a polling-async
miss.  One executor holds 1 or 32 scripted pollers that miss a fixed
number of times, tracer off and on, and the test pins the heap events
a visit costs (2 per miss — the flag check and the requeue — and 1 per
hit) and bounds its host microseconds.

A third group bounds the host cost of each layer of the gRPC baseline
(codec, framing, one call over gRPC.TCP, one over gRPC.RDMA) as
point-to-point latency, back-to-back bandwidth and an 8-to-1 fan-in,
over uniform and skewed payload mixes: the baseline charges its copies
in simulated time, so a concrete payload may cost the host the copies
the layer really makes and a virtual one may not cost its size at all.
"""

import functools
import resource
from dataclasses import replace

import numpy as np
import pytest

from repro.graph import (CommRuntime, DType, GraphBuilder, Outcome, Session,
                         Shape)
from repro.rpc import (GrpcRdmaServer, GrpcTcpServer, HEADER_SIZE, Message,
                       Payload, Reassembler, connect_grpc_rdma,
                       connect_grpc_tcp, decode_parts, encode_parts, fragment)
from repro.simnet import Cluster, Endpoint, Opcode, WorkRequest
from repro.simnet.costmodel import DEFAULT_COST_MODEL
from repro.simnet.simulator import Simulator


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


# -- host cost and heap events per poll visit ---------------------------------------
#
# A polling-async recv (paper section 4) is visited until its flag is
# set.  A miss is two heap events - ``check`` where dispatch + flag read
# end, ``requeue`` where the op has rejoined the tail of the ready queue
# - and a hit is one: the op completes inside its ``check``.  When a whole
# sweep of the queue has missed the executor parks with backoff: a
# ``Timeout`` and the ``AnyOf`` it wakes.  The counts are pinned so that
# eliding miss chains (ROADMAP item 1b) has to change them on purpose.

EVENTS_PER_MISS, EVENTS_PER_HIT, EVENTS_PER_PARK = 2, 1, 2


class _ScriptedFlags(CommRuntime):
    """Every recv polls: ``misses`` misses, then a hit (after
    ``tests/graph/test_polling_async.py::ScriptedComm``); with
    ``misses=None`` the recv completes at once, visited never."""

    name = "scripted"

    def __init__(self, misses) -> None:
        self.misses = misses

    def execute_send(self, executor, node, tensor):
        return Outcome.done([])

    def execute_recv(self, executor, node):
        done = Outcome.done([executor.allocate_output(
            node, 0, DType.float32, Shape([4]), dense=False)])
        if self.misses is None:
            return done
        left = [self.misses]

        def poll() -> bool:
            left[0] -= 1
            return left[0] < 0
        return Outcome.polling(poll=poll, complete=lambda: done)


def _poller_session(pollers: int, misses, traced: bool) -> Session:
    """``pollers`` cut edges worker0 -> ps0: ps0's executor polls them."""
    cluster = Cluster(2)
    if traced:
        cluster.enable_tracing()
    b = GraphBuilder()
    for i in range(pollers):
        x = b.synthetic_compute(0.0, outputs=[(DType.float32, Shape([4]))],
                                name=f"x{i}", device="worker0")
        b.synthetic_compute(0.0, inputs=[x], name=f"sink{i}", device="ps0")
    return Session(cluster, b.finalize(),
                   {"worker0": cluster.hosts[0], "ps0": cluster.hosts[1]},
                   comm=_ScriptedFlags(misses))


# Measured user us/miss: 1 poller 5.9 untraced / 10.9 traced (every miss
# is a whole sweep, so each is followed by a park: two generator round
# trips, a Timeout and an AnyOf), 32 pollers 1.1 / 2.2 (one park per 32
# misses; traced, three account() calls per visit).  While a visit was
# two generator round trips: 9.3 / 12.9 and 3.0 / 4.4.
@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("pollers,sweeps,ceiling_us", [
    (1, 20_000, {False: 12.0, True: 22.0}),
    (32, 1_000, {False: 2.5, True: 5.0})], ids=["1-poller", "32-pollers"])
def test_poll_visit_host_cost_and_events(benchmark, pollers, sweeps,
                                         ceiling_us, traced):
    baseline = _poller_session(pollers, None, traced)
    baseline.run()
    sessions = []

    def setup():
        sessions.append(_poller_session(pollers, sweeps, traced))
        return (sessions[-1],), {}
    timed, spent = _in_user_time(Session.run)
    benchmark.pedantic(timed, setup=setup, rounds=3, iterations=1)
    misses = pollers * sweeps
    per_miss_us = min(spent) / misses * 1e6
    visit_events = [s.sim.event_count - baseline.sim.event_count
                    for s in sessions]
    print(f"\n{pollers} pollers x {sweeps} missed sweeps, "
          f"{'traced' if traced else 'untraced'}: {per_miss_us:.2f} user "
          f"us/miss, {visit_events[0]} heap events for {misses} misses, "
          f"{pollers} hits and {sweeps} parks")
    assert [s.executor_for("ps0").poll_misses for s in sessions] == [misses] * 3
    # + 1: the first completion notifies the wake event the last park
    # left pending
    assert visit_events == [misses * EVENTS_PER_MISS
                            + pollers * EVENTS_PER_HIT
                            + sweeps * EVENTS_PER_PARK + 1] * 3
    assert per_miss_us < ceiling_us[traced]


# -- host cost per rpc layer (after Biswas et al.'s gRPC micro-benchmarks) ----------
#
# The gRPC baselines charge their copies in simulated time and perform
# as few as the model lets them: none in the codec, in framing or over
# gRPC.TCP (parts travel by reference), and over gRPC.RDMA the four the
# modelled library makes where someone reads the result (the gather into
# the SEND, the NIC into the RECV slot, the slot into the ring record,
# the records into the application's payload).  A cell's ceiling is
#
#     base_us + fragment_us x declared MiB + 2 x copies x copy_us x concrete MiB
#
# per message: a wide fixed allowance, the bookkeeping of one fragment
# per MiB where the layer fragments (a verb, a credit and a ring record
# each - virtual bytes cost that and nothing else), and the layer's
# copies of its concrete bytes at what those same four copies cost in
# this process, with 2x slack.  Where ``copies`` is 0 nothing may grow
# with size at all.
# The clock is user-mode CPU time: a copy is user time, while what the
# page faults on its fresh memory cost is system time and follows the
# machine's minute (4 to 200 ms per 16 MiB gRPC.RDMA message, same code,
# same box, a minute apart).

KIB, MIB = 1 << 10, 1 << 20
#: mix -> one batch of calls as (payload bytes, virtual)
RPC_PAYLOADS = {
    "64K": [(64 * KIB, False)] * 8,
    "4M": [(4 * MIB, False)] * 8,
    "16M": [(16 * MIB, False)] * 8,
    "64M-virtual": [(64 * MIB, True)] * 8,
    # LSTM-like: many small tensors, a few large ones
    "skewed": ([(4 * KIB, False)] * 7 + [(8 * MIB, False)]) * 4,
}


def _user_seconds() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_utime


def _in_user_time(run):
    """``run`` wrapped to log the user-mode CPU seconds of each call."""
    spent = []

    def timed(*args):
        start = _user_seconds()
        run(*args)
        spent.append(_user_seconds() - start)
    return timed, spent


@functools.lru_cache(maxsize=None)
def _four_copies_us_per_mib() -> float:
    """User microseconds for the four copies gRPC.RDMA makes of one MiB
    (gather, slot write, slot read, join), as 16 MiB cost here and now."""
    source, header = memoryview(bytes(16 * MIB)), bytes(HEADER_SIZE)
    slot = np.zeros(MIB + HEADER_SIZE, dtype=np.uint8)

    def copies():
        records = []
        for start in range(0, len(source), MIB):
            wire = b"".join((header, source[start:start + MIB]))
            slot[...] = np.frombuffer(wire, dtype=np.uint8)
            records.append(memoryview(slot.tobytes())[HEADER_SIZE:])
        return b"".join(records)
    timed, spent = _in_user_time(copies)
    for _ in range(5):
        timed()
    return sorted(spent)[2] / 16 * 1e6


@functools.lru_cache(maxsize=None)
def _zeros(size: int) -> bytes:
    return bytes(size)


def _reply(size: int, virtual: bool, **envelope) -> Message:
    """What ``recv_tensor`` answers."""
    payload = Payload(size=size) if virtual else Payload(data=_zeros(size))
    return Message(data=payload, dims=[size // 4], dtype=1, **envelope)


def _wire_parts(size: int, virtual: bool):
    return encode_parts(_reply(size, virtual, _method="recv_tensor", _id=1,
                               _kind=1))


def _assert_rpc_ceiling(label, seconds, payloads, base_us, fragment_us,
                        copies):
    count = len(payloads)
    declared = sum(size for size, _ in payloads) / MIB / count
    concrete = sum(size for size, virtual in payloads
                   if not virtual) / MIB / count
    per_message_us = seconds / count * 1e6
    ceiling_us = base_us + fragment_us * declared
    if copies:
        ceiling_us += (2.0 * copies / 4 * _four_copies_us_per_mib()
                       * concrete)
    print(f"\n{label}: {per_message_us:.0f} user us/message "
          f"(ceiling {ceiling_us:.0f}; {declared:.2f} MiB declared, "
          f"{concrete:.2f} concrete)")
    assert per_message_us < ceiling_us


def _run_codec(payloads):
    for size, virtual in payloads:
        parts, _ = _wire_parts(size, virtual)
        assert decode_parts(parts)["data"].size == size


def _run_framing(payloads):
    body_max = DEFAULT_COST_MODEL.rpc_ring_buffer_size // 4 - HEADER_SIZE
    for size, virtual in payloads:
        parts, virtual_size = _wire_parts(size, virtual)
        assembler, whole = Reassembler(), None
        for frag in fragment(1, parts, virtual_size, body_max):
            whole = assembler.add(frag)
        assert whole.total_size == sum(map(len, parts)) + virtual_size


# Measured user us/message at 64K / 4M / 16M / 64M-virtual / skewed:
# codec 20 / 20 / 22 / 20 / 22 (25 / 738 / 3 683 / 22 / 249 while it
# joined and sliced), framing 12 / 16 / 38 / 75 / 14 (12 / 1 307 /
# 4 197 / 75 / 273).
@pytest.mark.parametrize("mix", sorted(RPC_PAYLOADS))
@pytest.mark.parametrize("layer,run,fragment_us", [
    ("codec", _run_codec, 0.0), ("framing", _run_framing, 20.0)])
def test_rpc_codec_and_framing_host_cost(benchmark, layer, run, fragment_us,
                                         mix):
    payloads = RPC_PAYLOADS[mix]
    timed, spent = _in_user_time(run)
    benchmark.pedantic(timed, rounds=3, iterations=1, args=(payloads,))
    _assert_rpc_ceiling(f"{layer} {mix}", min(spent), payloads, 200.0,
                        fragment_us, copies=0)


def _rpc_rig(transport: str, clients: int):
    """One server, ``clients`` dialled channels, a recv_tensor handler."""
    cluster = Cluster(clients + 1)
    server_host = cluster.hosts[clients]
    address = Endpoint(server_host.name, 4000)
    if transport == "tcp":
        server = GrpcTcpServer(server_host, 4000)
        connect = connect_grpc_tcp
    else:
        server = GrpcRdmaServer(server_host, 4000)
        connect = connect_grpc_rdma
    server.register("recv_tensor", lambda request: _reply(
        request["size"], bool(request["virtual"])))
    return cluster, [connect(host, address)
                     for host in cluster.hosts[:clients]]


def _run_calls(cluster, channels, payloads, pipelined: bool):
    """Deal the calls round-robin over the channels; a pipelined channel
    posts all of its calls before it reads the first reply."""
    def client(channel, mine):
        futures = []
        for size, virtual in mine:
            future = channel.call("recv_tensor", Message(
                size=size, virtual=int(virtual)))
            if pipelined:
                futures.append(future)
            else:
                assert (yield future)["data"].size == size
        for future in futures:
            yield future
    done = [cluster.sim.spawn(client(channel, payloads[i::len(channels)]))
            for i, channel in enumerate(channels)]
    for process in done:
        cluster.sim.run_until_complete(process, limit=600.0)


# Measured user us/call at 64K / 4M / 16M / 64M-virtual / skewed.
# gRPC.TCP: 120-220 in every cell (latency 96 / 1 278 / 3 590 / 78 /
# 321 while it joined and sliced).  gRPC.RDMA: latency 220 / 2 100 /
# 8 000 / 3 300 / 700, fan-in 250 / 2 700 / 8 900 / 3 500 / 760 (latency
# 338 / 7 568 / 27 104 / 5 263 / 2 038, fan-in 274 / 8 500 / 33 948 /
# 5 814 / 2 384 with eleven copies and a 4 MiB ring array); a 64 MiB
# virtual reply is 65 fragments of about 50 us each.
@pytest.mark.parametrize("mix", sorted(RPC_PAYLOADS))
@pytest.mark.parametrize("pattern,clients,pipelined", [
    ("latency", 1, False), ("bandwidth", 1, True), ("fan-in", 8, True)])
@pytest.mark.parametrize("transport,base_us,fragment_us,copies", [
    ("tcp", 1000.0, 0.0, 0), ("rdma", 2500.0, 150.0, 4)])
def test_rpc_call_host_cost(benchmark, transport, base_us, fragment_us,
                            copies, pattern, clients, pipelined, mix):
    payloads = RPC_PAYLOADS[mix]
    timed, spent = _in_user_time(_run_calls)
    benchmark.pedantic(
        timed, rounds=3, iterations=1,
        setup=lambda: ((*_rpc_rig(transport, clients), payloads, pipelined),
                       {}))
    _assert_rpc_ceiling(f"gRPC.{transport.upper()} {pattern} {mix}",
                        min(spent), payloads, base_us, fragment_us, copies)


# Measured 0.2-0.3 ms; 1.5-3.6 ms while each side allocated a zero-filled
# 4 MiB ring array (16-32 ms per connection inside a training run, where
# the allocator recycles freed blocks and the fill is a real memset).
def test_grpc_rdma_connect_host_cost(benchmark):
    cluster = Cluster(2)
    address = Endpoint(cluster.hosts[1].name, 4000)
    GrpcRdmaServer(cluster.hosts[1], 4000)
    dials, channels = 16, []
    benchmark.pedantic(
        lambda: channels.extend(connect_grpc_rdma(cluster.hosts[0], address)
                                for _ in range(dials)),
        rounds=3, iterations=1)
    per_connect_ms = benchmark.stats.stats.min / dials * 1e3
    print(f"\nconnect_grpc_rdma: {per_connect_ms:.2f} host ms/connection")
    assert per_connect_ms < 1.0
