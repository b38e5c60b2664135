"""Numeric and predictive tests for the rack-hierarchical allreduce.

The equivalence tests use integer-valued float32 gradients: both the
flat ring and the hierarchical schedule then compute exact sums, so
their outputs must be bit-identical even though their floating-point
reduction orders differ.
"""

import numpy as np
import pytest

from repro.collectives import (hierarchical_allreduce,
                               hierarchical_wire_bytes, rack_uplink_bytes,
                               ring_allreduce, ring_allreduce_wire_bytes)
from repro.core import RdmaCommRuntime
from repro.graph import GraphBuilder, Session
from repro.simnet import Cluster

from .test_fragments import run_fragment, worker_inputs


def _integer_arrays(n, size=24, seed=0):
    rng = np.random.default_rng(seed=seed)
    return [rng.integers(-8, 8, size=size).astype(np.float32)
            for _ in range(n)]


@pytest.mark.parametrize("n,hosts_per_rack", [
    (4, 2),   # 2 racks of 2
    (6, 2),   # 3 racks of 2
    (6, 3),   # 2 racks of 3
    (8, 2),   # 4 racks of 2
    (8, 4),   # 2 racks of 4
])
def test_hierarchical_sums_exactly(n, hosts_per_rack):
    arrays = _integer_arrays(n, seed=n * 10 + hosts_per_rack)
    expected = np.sum(arrays, axis=0)
    builder = GraphBuilder(f"hier{n}x{hosts_per_rack}")
    inputs, devices = worker_inputs(builder, arrays)
    outputs = hierarchical_allreduce(builder, inputs, devices,
                                     hosts_per_rack=hosts_per_rack)
    session = run_fragment(builder, devices)
    for out in outputs:
        np.testing.assert_array_equal(
            session.numpy(out.node.name, out.index), expected)


@pytest.mark.parametrize("n,hosts_per_rack", [(4, 2), (8, 4)])
def test_hierarchical_matches_flat_ring_bitwise(n, hosts_per_rack):
    # Integer-valued inputs: both schedules are exact, so the tensors
    # must agree bit for bit despite different reduction orders.
    arrays = _integer_arrays(n, seed=777 + n)

    ring_builder = GraphBuilder(f"ring{n}")
    ring_in, ring_dev = worker_inputs(ring_builder, arrays)
    ring_out = ring_allreduce(ring_builder, ring_in, ring_dev)
    ring_session = run_fragment(ring_builder, ring_dev)

    hier_builder = GraphBuilder(f"hier{n}")
    hier_in, hier_dev = worker_inputs(hier_builder, arrays)
    hier_out = hierarchical_allreduce(hier_builder, hier_in, hier_dev,
                                      hosts_per_rack=hosts_per_rack)
    hier_session = run_fragment(hier_builder, hier_dev)

    for r_out, h_out in zip(ring_out, hier_out):
        ring_tensor = ring_session.numpy(r_out.node.name, r_out.index)
        hier_tensor = hier_session.numpy(h_out.node.name, h_out.index)
        assert ring_tensor.tobytes() == hier_tensor.tobytes()


@pytest.mark.parametrize("algorithm", ["ring"])
def test_hierarchical_inter_algorithms(algorithm):
    # 8 workers, 2 racks of 4: the inter-rack phase runs the ring, the
    # one inter-rack collective the builder emits.
    arrays = _integer_arrays(8, seed=31)
    expected = np.sum(arrays, axis=0)
    builder = GraphBuilder(f"hier-inter-{algorithm}")
    inputs, devices = worker_inputs(builder, arrays)
    outputs = hierarchical_allreduce(builder, inputs, devices,
                                     hosts_per_rack=4)
    session = run_fragment(builder, devices)
    for out in outputs:
        np.testing.assert_array_equal(
            session.numpy(out.node.name, out.index), expected)


def test_single_rack_degenerates_to_ring():
    # hosts_per_rack >= n: one rack, so the builder must emit a plain
    # intra-rack ring (no inter phase, no concat wrapper).
    arrays = _integer_arrays(4, seed=4)
    hier = GraphBuilder("one-rack")
    inputs, devices = worker_inputs(hier, arrays)
    outputs = hierarchical_allreduce(hier, inputs, devices, hosts_per_rack=8)
    ring = GraphBuilder("flat")
    ring_in, ring_dev = worker_inputs(ring, arrays)
    ring_allreduce(ring, ring_in, ring_dev)
    ring_graph = ring.finalize()
    cluster = Cluster(len(devices))
    hosts = {dev: cluster.hosts[i] for i, dev in enumerate(devices)}
    graph = hier.finalize()
    assert (len(graph.topological_order())
            == len(ring_graph.topological_order()))
    session = Session(cluster, graph, hosts, comm=RdmaCommRuntime())
    session.run(iterations=1)
    for out in outputs:
        np.testing.assert_array_equal(
            session.numpy(out.node.name, out.index), np.sum(arrays, axis=0))


def test_one_host_racks_degenerate_to_flat_inter():
    arrays = _integer_arrays(4, seed=9)
    builder = GraphBuilder("singleton-racks")
    inputs, devices = worker_inputs(builder, arrays)
    outputs = hierarchical_allreduce(builder, inputs, devices,
                                     hosts_per_rack=1)
    session = run_fragment(builder, devices)
    for out in outputs:
        np.testing.assert_array_equal(
            session.numpy(out.node.name, out.index), np.sum(arrays, axis=0))


def test_uneven_racks_rejected():
    builder = GraphBuilder("uneven-racks")
    arrays = _integer_arrays(6, seed=6)
    inputs, devices = worker_inputs(builder, arrays)
    with pytest.raises(ValueError, match="tile into racks"):
        hierarchical_allreduce(builder, inputs, devices, hosts_per_rack=4)
    with pytest.raises(ValueError, match="tile into racks"):
        hierarchical_wire_bytes(1 << 20, 6, 4)


def test_wire_bytes_predictor_structure():
    M = 64 << 20
    # Degenerate shapes mirror the builder's fallbacks exactly.
    assert hierarchical_wire_bytes(M, 1, 4) == 0.0
    assert (hierarchical_wire_bytes(M, 4, 8)
            == ring_allreduce_wire_bytes(M, 4))
    assert (hierarchical_wire_bytes(M, 4, 1)
            == ring_allreduce_wire_bytes(M, 4))
    # Multi-rack: intra share plus a 1/H share of the inter collective.
    h, racks = 8, 4
    n = h * racks
    expected = (2.0 * M * (h - 1) / h
                + ring_allreduce_wire_bytes(M, racks) / h)
    assert hierarchical_wire_bytes(M, n, h) == pytest.approx(expected)
    # With the ring inter-collective the per-worker volume equals the
    # flat ring's bandwidth-optimal 2·M·(N-1)/N exactly — the
    # hierarchical win is *where* the bytes flow (mostly intra-rack),
    # not how many there are.
    assert (hierarchical_wire_bytes(M, n, h)
            == ring_allreduce_wire_bytes(M, n))


def test_rack_uplink_bytes_analytic():
    M = 48 << 20
    assert rack_uplink_bytes(M, 1) == 0.0
    assert rack_uplink_bytes(M, 4) == pytest.approx(2.0 * M * 3 / 4)
    # Approaches 2M from below as racks grow.
    assert rack_uplink_bytes(M, 64) < 2.0 * M
