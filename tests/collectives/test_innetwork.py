"""Numeric and fallback tests for the switch-aggregated allreduce.

The equivalence tests use integer-valued float32 gradients: switch
aggregation, the host-tree fallback, and the flat ring then all compute
exact sums, so their outputs must be bit-identical even though their
floating-point reduction orders differ.  Fallback coverage exercises
the two degradation paths separately:

* **whole-round degrade** — a failed switch sends every chunk of the
  round down the host tree (``rounds_degraded``);
* **per-chunk spill** — a full aggregation slot pool spills only the
  excess chunks while the rest ride the switches (``chunks_spilled``).
"""

import numpy as np
import pytest

from repro.collectives import (innetwork_allreduce, innetwork_uplink_bytes,
                               innetwork_wire_bytes, ring_allreduce)
from repro.core import RdmaCommRuntime
from repro.graph import GraphBuilder, Session
from repro.simnet import Cluster, FaultInjector
from repro.simnet.costmodel import CostModel
from repro.simnet.fabric import build_fat_tree

from .test_fragments import run_fragment, worker_inputs


def _integer_arrays(n, size=6000, seed=0):
    rng = np.random.default_rng(seed=seed)
    return [rng.integers(-8, 8, size=size).astype(np.float32)
            for _ in range(n)]


def _run_innetwork(arrays, hosts_per_rack, size=None, cost=None,
                   fault_spec=None, fault_seed=0, iterations=1):
    """Build + run one in-network fragment on a fat tree.

    Returns ``(session, cluster, outputs)`` with metrics enabled so
    callers can assert on wire-byte roles and plane counters.
    """
    n = len(arrays)
    builder = GraphBuilder(f"innet{n}x{hosts_per_rack}")
    inputs, devices = worker_inputs(builder, arrays)
    outputs = innetwork_allreduce(builder, inputs, devices,
                                  hosts_per_rack=hosts_per_rack)
    fabric = build_fat_tree(n, hosts_per_rack, cost=cost)
    cluster = Cluster(n, cost=cost, fabric=fabric)
    cluster.enable_metrics()
    if fault_spec:
        cluster.install_faults(FaultInjector.from_spec(fault_spec,
                                                       seed=fault_seed))
    hosts = {dev: cluster.hosts[i] for i, dev in enumerate(devices)}
    session = Session(cluster, builder.finalize(), hosts,
                      comm=RdmaCommRuntime())
    session.run(iterations=iterations)
    return session, cluster, outputs


def _bytes_by_role(cluster):
    roles = {}
    for t in cluster.metrics.transfers:
        roles[t.role] = roles.get(t.role, 0) + t.nbytes
    return roles


@pytest.mark.parametrize("n,hosts_per_rack", [
    (2, 2),   # single rack: no spine leg
    (4, 2),   # 2 racks of 2
    (6, 2),   # 3 racks
    (6, 3),   # 2 racks of 3
    (8, 4),   # 2 racks of 4
])
def test_innetwork_sums_exactly(n, hosts_per_rack):
    arrays = _integer_arrays(n, seed=n * 10 + hosts_per_rack)
    expected = np.sum(arrays, axis=0)
    session, cluster, outputs = _run_innetwork(arrays, hosts_per_rack)
    for out in outputs:
        np.testing.assert_array_equal(
            session.numpy(out.node.name, out.index), expected)
    snap = session.comm.innetwork.snapshot()["innet"]
    assert snap["rounds_degraded"] == 0
    assert snap["chunks_spilled"] == 0
    assert snap["chunks_switched"] == snap["chunks_per_round"]


def test_innetwork_matches_flat_ring_bitwise():
    # Integer-valued inputs: both schedules are exact, so the tensors
    # must agree bit for bit despite different reduction orders.
    arrays = _integer_arrays(4, seed=901)

    ring_builder = GraphBuilder("ring4")
    ring_in, ring_dev = worker_inputs(ring_builder, arrays)
    ring_out = ring_allreduce(ring_builder, ring_in, ring_dev)
    ring_session = run_fragment(ring_builder, ring_dev)

    _, _, innet_out = (session, cluster, outputs) = \
        _run_innetwork(arrays, hosts_per_rack=2)
    for r, i in zip(ring_out, innet_out):
        assert (ring_session.numpy(r.node.name, r.index).tobytes()
                == session.numpy(i.node.name, i.index).tobytes())


def test_innetwork_multiple_iterations_reuse_epochs():
    # Three rounds through the same flag byte: the epoch counter must
    # keep stale completions from round k satisfying round k+1.
    arrays = _integer_arrays(4, seed=55)
    expected = np.sum(arrays, axis=0)
    session, cluster, outputs = _run_innetwork(arrays, 2, iterations=3)
    for out in outputs:
        np.testing.assert_array_equal(
            session.numpy(out.node.name, out.index), expected)
    snap = session.comm.innetwork.snapshot()["innet"]
    assert snap["rounds_switched"] == 3


def test_worker_egress_is_exactly_m():
    # The headline identity: each worker sends its M gradient bytes up
    # to the ToR once and receives M back — no 2(N-1)/N inflation.
    arrays = _integer_arrays(8, seed=3)
    nbytes = arrays[0].nbytes
    session, cluster, _ = _run_innetwork(arrays, hosts_per_rack=4)
    per_host = {}
    for t in cluster.metrics.transfers:
        if t.role == "in-network-aggregate":
            per_host[t.src_host] = per_host.get(t.src_host, 0) + t.nbytes
    assert len(per_host) == 8
    assert set(per_host.values()) == {nbytes}
    assert innetwork_wire_bytes(nbytes, 8) == nbytes


def test_switch_failure_degrades_to_host_tree():
    # A dead ToR aggregation engine: every round must detour down the
    # host-collective tree and still sum exactly.
    arrays = _integer_arrays(4, seed=77)
    expected = np.sum(arrays, axis=0)
    session, cluster, outputs = _run_innetwork(
        arrays, 2, fault_spec="switch-fail:host=tor0,p=1.0", fault_seed=3,
        iterations=2)
    for out in outputs:
        np.testing.assert_array_equal(
            session.numpy(out.node.name, out.index), expected)
    snap = session.comm.innetwork.snapshot()["innet"]
    assert snap["rounds_degraded"] == 2
    assert snap["chunks_switched"] == 0
    roles = _bytes_by_role(cluster)
    # Fallback traffic is tagged with the host-collective role, and no
    # aggregate ever reached a switch.
    assert roles.get("collective-chunk", 0) > 0
    assert "in-network-aggregate" not in roles


def test_slot_exhaustion_spills_only_excess_chunks():
    # One 8000-byte slot for a 24000-byte tensor: the first chunk of a
    # round rides the switch, the rest spill to the host path — and the
    # sum stays exact across the mixed delivery.
    arrays = _integer_arrays(4, size=6000, seed=11)
    expected = np.sum(arrays, axis=0)
    cost = CostModel(switch_agg_slots=1, switch_agg_slot_bytes=8000)
    session, cluster, outputs = _run_innetwork(arrays, 2, cost=cost)
    for out in outputs:
        np.testing.assert_array_equal(
            session.numpy(out.node.name, out.index), expected)
    snap = session.comm.innetwork.snapshot()["innet"]
    assert snap["chunks_spilled"] > 0
    assert snap["chunks_switched"] > 0
    assert snap["rounds_degraded"] == 0
    plane = session.comm.innetwork.snapshot()["plane"]
    assert plane["spilled_chunks"]["innet"] == snap["chunks_spilled"]


@pytest.mark.parametrize("fault_spec", [
    None,                               # switched rounds
    "switch-fail:host=tor0,p=1.0",      # host-tree fallback
], ids=["switched", "host-tree"])
def test_quantum_link_server_carries_every_booking(fault_spec):
    # Under the quantum server there is no pipe beside it: uplinks,
    # downlinks and every fallback tree hop book the one server, so each
    # NIC direction carried exactly the bytes the metrics recorded for
    # that host — and the sum is still exact.  (A tree hop books the
    # receiver's ingress only at its terminal hop, leader -> member.)
    arrays = _integer_arrays(4, seed=21)
    expected = np.sum(arrays, axis=0)
    cost = CostModel(wire_quantum_bytes=8000)
    session, cluster, outputs = _run_innetwork(
        arrays, 2, cost=cost, fault_spec=fault_spec, iterations=2)
    for out in outputs:
        np.testing.assert_array_equal(
            session.numpy(out.node.name, out.index), expected)
    snap = session.comm.innetwork.snapshot()["innet"]
    assert snap["rounds_degraded"] == (2 if fault_spec else 0)
    leaders = {"server0", "server2"} if fault_spec else set()
    for host in cluster.hosts:
        sent = sum(t.nbytes for t in cluster.metrics.transfers
                   if t.src_host == host.name)
        landed = sum(t.nbytes for t in cluster.metrics.transfers
                     if t.dst_host == host.name)
        assert host.nic.egress.bytes_carried == sent > 0
        assert host.nic.ingress.bytes_carried == \
            (0 if host.name in leaders else landed)
        assert landed > 0


def test_single_worker_is_identity():
    builder = GraphBuilder("innet1")
    arrays = _integer_arrays(1, seed=5)
    inputs, devices = worker_inputs(builder, arrays)
    outputs = innetwork_allreduce(builder, inputs, devices,
                                  hosts_per_rack=1)
    assert outputs == inputs
    assert innetwork_wire_bytes(arrays[0].nbytes, 1) == 0


def test_wire_byte_analytics():
    M = 10 * 1024 * 1024
    # Per-worker egress is M regardless of N...
    assert innetwork_wire_bytes(M, 8) == M
    assert innetwork_wire_bytes(M, 128) == M
    # ...and each rack trunk carries its partial up plus the result
    # down; a single rack never touches the spine.
    assert innetwork_uplink_bytes(M, 4) == 2 * M
    assert innetwork_uplink_bytes(M, 1) == 0


def test_requires_fat_tree_fabric():
    from repro.core import DeviceError

    arrays = _integer_arrays(2, seed=9)
    builder = GraphBuilder("innetflat")
    inputs, devices = worker_inputs(builder, arrays)
    innetwork_allreduce(builder, inputs, devices, hosts_per_rack=2)
    cluster = Cluster(2)  # flat topology: no switches to aggregate in
    hosts = {dev: cluster.hosts[i] for i, dev in enumerate(devices)}
    with pytest.raises(DeviceError, match="fat-tree"):
        Session(cluster, builder.finalize(), hosts,
                comm=RdmaCommRuntime()).run(iterations=1)
