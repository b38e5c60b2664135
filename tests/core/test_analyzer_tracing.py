"""Unit tests for the RDMA graph analyzer and allocation-site tracer."""

import numpy as np
import pytest

from repro.core import RdmaGraphAnalyzer, find_static_source
from repro.core.tracing import AllocationSiteTracer
from repro.graph import (DType, GraphBuilder, HostAllocator, Shape,
                         partition)
from repro.graph.allocator import ArenaAllocator
from repro.graph.executor import Executor
from repro.graph.transfer_api import NullComm
from repro.simnet import Cluster


def two_device_graph(static=True, send_variable=False):
    b = GraphBuilder()
    if send_variable:
        w = b.variable([32, 32], name="w", device="ps0",
                       initializer=np.zeros((32, 32), dtype=np.float32))
        g = b.constant(np.ones((32, 32), dtype=np.float32), device="ps0")
        step = b.apply_gradient(w, g, lr=0.1, name="step", device="ps0")
        b.identity(step, name="out", device="worker0")
    else:
        shape = [16, 16] if static else [None, 16]
        x = b.placeholder(shape, name="x", device="worker0")
        y = b.square(x, name="y", device="worker0")
        b.identity(y, name="sink", device="ps0")
    return partition(b.finalize())


class TestAnalyzerPlans:
    def test_static_edge_planned_static(self):
        plans = RdmaGraphAnalyzer(two_device_graph(static=True)).plan()
        (edge_plan,) = plans["ps0"].edges_in
        assert edge_plan.static

    def test_dynamic_edge_planned_dynamic(self):
        plans = RdmaGraphAnalyzer(two_device_graph(static=False)).plan()
        (edge_plan,) = plans["ps0"].edges_in
        assert not edge_plan.static
        assert edge_plan.ndims == 2

    def test_force_dynamic(self):
        analyzer = RdmaGraphAnalyzer(two_device_graph(static=True),
                                     force_dynamic=True)
        (edge_plan,) = analyzer.plan()["ps0"].edges_in
        assert not edge_plan.static

    def test_arena_sized_for_static_recv(self):
        plans = RdmaGraphAnalyzer(two_device_graph(static=True)).plan()
        nbytes = 16 * 16 * 4
        assert plans["ps0"].arena_size >= nbytes + 1

    def test_sender_headroom(self):
        plans = RdmaGraphAnalyzer(two_device_graph(static=True)).plan()
        nbytes = 16 * 16 * 4
        # Sender side reserves ~2x the outgoing volume for traced
        # tensors plus staging.
        assert plans["worker0"].arena_size >= 2 * nbytes

    def test_variable_marked_for_static_placement(self):
        plans = RdmaGraphAnalyzer(two_device_graph(send_variable=True)).plan()
        assert ("w", 0) in plans["ps0"].static_variable_sites


class TestFindStaticSource:
    def test_direct_variable(self):
        b = GraphBuilder()
        w = b.variable([2], name="w", device="d")
        graph = b.finalize()
        assert find_static_source(graph, w.node) is w.node

    def test_through_apply_gradient(self):
        b = GraphBuilder()
        w = b.variable([2], name="w",
                       initializer=np.zeros(2, dtype=np.float32))
        g = b.constant(np.ones(2, dtype=np.float32))
        step = b.apply_gradient(w, g, lr=0.1)
        graph = b.finalize()
        assert find_static_source(graph, step.node).name == "w"

    def test_through_identity_chain(self):
        b = GraphBuilder()
        w = b.variable([2], name="w")
        alias = b.identity(b.identity(w))
        graph = b.finalize()
        assert find_static_source(graph, alias.node).name == "w"

    def test_compute_output_is_not_static(self):
        b = GraphBuilder()
        x = b.placeholder([2], name="x")
        y = b.square(x)
        graph = b.finalize()
        assert find_static_source(graph, y.node) is None


class TestTracer:
    def _executor(self):
        cluster = Cluster(1)
        b = GraphBuilder()
        b.placeholder([2], name="x", device="d")
        graph = b.finalize()
        executor = Executor(cluster.hosts[0], graph, "d", NullComm())
        executor.arena = ArenaAllocator(
            cluster.hosts[0].allocate(1 << 16))
        return executor

    def test_latest_allocation_wins(self):
        executor = self._executor()
        tracer = AllocationSiteTracer(executor)
        tracer.observe_arena(executor.arena)
        t1 = executor.heap.allocate_tensor(DType.float32, Shape([4]),
                                           node_name="a", alloc_index=0)
        # Re-attribute the same address to another node (in-place pass).
        tracer._on_allocation(t1, "b", 1)
        tracer.on_send(t1)
        assert ("b", 1) in tracer.hot_sites
        assert ("a", 0) not in tracer.hot_sites

    def test_policy_routes_hot_sites_to_arena(self):
        executor = self._executor()
        tracer = AllocationSiteTracer(executor)
        tracer.observe_arena(executor.arena)
        tensor = executor.heap.allocate_tensor(DType.float32, Shape([4]),
                                               node_name="y", alloc_index=0)
        tracer.on_send(tensor)
        assert executor.allocation_policy("y", 0) is executor.arena
        assert executor.allocation_policy("z", 0) is None

    def test_static_sites_also_routed(self):
        executor = self._executor()
        tracer = AllocationSiteTracer(executor)
        tracer.static_sites = {("w", 0)}
        assert executor.allocation_policy("w", 0) is executor.arena

    def test_unknown_address_counts_miss(self):
        executor = self._executor()
        tracer = AllocationSiteTracer(executor)
        orphan = executor.heap.allocate_tensor(DType.float32, Shape([4]))
        tracer.on_send(orphan)  # allocated with no node attribution
        assert tracer.lookups_missed == 1
        assert tracer.hot_sites == set()
