"""Numeric and structural tests for the collective graph fragments.

The numeric tests run the fragments end-to-end: one simulated host per
worker, chunk transfers over the zero-copy RDMA runtime, and exact
equality against the expected elementwise sum.
"""

import numpy as np
import pytest

from repro.collectives import (halving_doubling_allreduce,
                               halving_doubling_wire_bytes, ring_allreduce,
                               ring_allreduce_wire_bytes, ring_reduce_scatter)
from repro.collectives.bucketing import chunk_ranges
from repro.core import RdmaCommRuntime
from repro.graph import GraphBuilder, Session
from repro.graph.partition import partition
from repro.simnet import Cluster


def worker_inputs(builder, arrays):
    """One constant per worker, each placed on its own device."""
    devices = [f"worker{i}" for i in range(len(arrays))]
    inputs = [builder.constant(np.asarray(a, dtype=np.float32),
                               name=f"in{i}", device=dev)
              for i, (a, dev) in enumerate(zip(arrays, devices))]
    return inputs, devices


def run_fragment(builder, devices):
    cluster = Cluster(len(devices))
    hosts = {dev: cluster.hosts[i] for i, dev in enumerate(devices)}
    session = Session(cluster, builder.finalize(), hosts,
                      comm=RdmaCommRuntime())
    session.run(iterations=1)
    return session


@pytest.mark.parametrize("n", [2, 3, 4])
def test_ring_allreduce_sums_exactly(n):
    rng = np.random.default_rng(seed=n)
    arrays = [rng.integers(-8, 8, size=12).astype(np.float32)
              for _ in range(n)]
    expected = np.sum(arrays, axis=0)
    builder = GraphBuilder(f"ring{n}")
    inputs, devices = worker_inputs(builder, arrays)
    outputs = ring_allreduce(builder, inputs, devices)
    session = run_fragment(builder, devices)
    for out in outputs:
        np.testing.assert_array_equal(
            session.numpy(out.node.name, out.index), expected)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_halving_doubling_sums_exactly(n):
    # 3 and 5 exercise the non-power-of-two pre/post folding phases.
    rng = np.random.default_rng(seed=100 + n)
    arrays = [rng.integers(-8, 8, size=16).astype(np.float32)
              for _ in range(n)]
    expected = np.sum(arrays, axis=0)
    builder = GraphBuilder(f"hd{n}")
    inputs, devices = worker_inputs(builder, arrays)
    outputs = halving_doubling_allreduce(builder, inputs, devices)
    session = run_fragment(builder, devices)
    for out in outputs:
        np.testing.assert_array_equal(
            session.numpy(out.node.name, out.index), expected)


def test_ring_allreduce_uneven_chunks():
    # 10 elements over 3 workers: chunks of 4/3/3, no padding.
    arrays = [np.arange(10, dtype=np.float32) * (i + 1) for i in range(3)]
    expected = np.sum(arrays, axis=0)
    builder = GraphBuilder("uneven")
    inputs, devices = worker_inputs(builder, arrays)
    outputs = ring_allreduce(builder, inputs, devices)
    session = run_fragment(builder, devices)
    for out in outputs:
        np.testing.assert_array_equal(
            session.numpy(out.node.name, out.index), expected)


def test_reduce_scatter_ownership_and_values():
    n = 4
    arrays = [np.arange(8, dtype=np.float32) + 10 * i for i in range(n)]
    expected = np.sum(arrays, axis=0)
    ranges = chunk_ranges(8, n)
    builder = GraphBuilder("rs")
    inputs, devices = worker_inputs(builder, arrays)
    owned = ring_reduce_scatter(builder, inputs, devices)
    session = run_fragment(builder, devices)
    for i, ref in enumerate(owned):
        assert ref.chunk == (i + 1) % n
        assert (ref.begin, ref.size) == ranges[ref.chunk]
        np.testing.assert_array_equal(
            session.numpy(ref.value.node.name, ref.value.index),
            expected[ref.begin:ref.begin + ref.size])


class TestSingleWorker:
    def test_ring_is_identity_noop(self):
        builder = GraphBuilder("solo")
        inputs, devices = worker_inputs(builder, [np.ones(4)])
        outputs = ring_allreduce(builder, inputs, devices)
        assert outputs == list(inputs)
        # No cross-device edges: the partitioner emits zero transfers.
        assert partition(builder.finalize()).transfers == []

    def test_halving_doubling_is_noop(self):
        builder = GraphBuilder("solo-hd")
        inputs, devices = worker_inputs(builder, [np.ones(4)])
        assert halving_doubling_allreduce(
            builder, inputs, devices) == list(inputs)

    def test_reduce_scatter_owns_whole_buffer(self):
        builder = GraphBuilder("solo-rs")
        inputs, devices = worker_inputs(builder, [np.ones(6)])
        (ref,) = ring_reduce_scatter(builder, inputs, devices)
        assert (ref.chunk, ref.begin, ref.size) == (0, 0, 6)
        assert ref.value is inputs[0]


class TestErrors:
    def test_input_device_count_mismatch(self):
        builder = GraphBuilder()
        inputs, _ = worker_inputs(builder, [np.ones(4), np.ones(4)])
        with pytest.raises(ValueError, match="2 inputs for 3"):
            ring_allreduce(builder, inputs, ["a", "b", "c"])

    def test_empty_participants(self):
        with pytest.raises(ValueError, match="at least one"):
            ring_allreduce(GraphBuilder(), [], [])

    def test_mismatched_shapes(self):
        builder = GraphBuilder()
        inputs, devices = worker_inputs(builder, [np.ones(4), np.ones(5)])
        with pytest.raises(ValueError, match="mismatched"):
            ring_allreduce(builder, inputs, devices)

    def test_non_flat_buffer_rejected(self):
        builder = GraphBuilder()
        inputs, devices = worker_inputs(builder, [np.ones((2, 2)),
                                                  np.ones((2, 2))])
        with pytest.raises(ValueError, match="flat"):
            ring_allreduce(builder, inputs, devices)

    def test_buffer_smaller_than_workers(self):
        builder = GraphBuilder()
        inputs, devices = worker_inputs(builder, [np.ones(2)] * 3)
        with pytest.raises(ValueError):
            ring_allreduce(builder, inputs, devices)

    def test_halving_doubling_buffer_too_small(self):
        builder = GraphBuilder()
        inputs, devices = worker_inputs(builder, [np.ones(2)] * 4)
        with pytest.raises(ValueError, match="too small"):
            halving_doubling_allreduce(builder, inputs, devices)


class TestWirePredictions:
    def test_ring_formula(self):
        assert ring_allreduce_wire_bytes(1000, 4) == pytest.approx(1500.0)
        assert ring_allreduce_wire_bytes(1000, 1) == 0.0

    def test_halving_doubling_power_of_two_matches_ring(self):
        for n in (2, 4, 8):
            assert halving_doubling_wire_bytes(4096, n) == pytest.approx(
                ring_allreduce_wire_bytes(4096, n))

    def test_halving_doubling_mean_matches_ring(self):
        # The extras' fold/unfold adds 2·B per extra, which exactly
        # balances the core discount: the *mean* per-worker volume is
        # 2·B·(N-1)/N for every N (the load is just skewed onto the
        # folded pairs).
        for n in (3, 5, 6, 7):
            assert halving_doubling_wire_bytes(4096, n) == pytest.approx(
                ring_allreduce_wire_bytes(4096, n))
