"""Fabric graph, deterministic ECMP routing, and uplink accounting."""

import pytest

from repro.collectives import rack_uplink_bytes
from repro.distributed import run_training_benchmark
from repro.models.spec import MB, ModelSpec, VariableSpec
from repro.simnet.costmodel import DEFAULT_COST_MODEL
from repro.simnet.fabric import (Fabric, FabricError, build_fat_tree,
                                 rack_groups, rack_of)
from repro.simnet.topology import Cluster


def test_rack_assignment():
    assert [rack_of(i, 2) for i in range(6)] == [0, 0, 1, 1, 2, 2]
    assert rack_groups(5, 2) == [[0, 1], [2, 3], [4]]
    with pytest.raises(FabricError):
        rack_of(0, 0)


def test_build_fat_tree_shape():
    fabric = build_fat_tree(8, hosts_per_rack=4, oversubscription=4.0)
    kinds = {}
    for node in fabric.nodes.values():
        kinds[node.kind] = kinds.get(node.kind, 0) + 1
    assert kinds == {"host": 8, "tor": 2, "spine": 1}
    # Access links are full host rate; uplinks carry the rack's
    # oversubscribed aggregate: 4 hosts / 4.0 over 1 spine = 1 host bw.
    host_bw = DEFAULT_COST_MODEL.rdma_bandwidth
    access = fabric.links[("server0", "tor0")]
    uplink = fabric.links[("tor0", "spine0")]
    assert not access.trunk and uplink.trunk
    assert access.bandwidth == host_bw
    assert uplink.bandwidth == pytest.approx(host_bw)
    # 4:1 with 2 racks of 8: uplink aggregate is 2 hosts' worth.
    wide = build_fat_tree(16, hosts_per_rack=8, oversubscription=4.0)
    agg = sum(l.bandwidth for (src, dst), l in wide.links.items()
              if src == "tor0" and dst.startswith("spine"))
    assert agg == pytest.approx(8 * host_bw / 4.0)


def test_build_fat_tree_validation():
    with pytest.raises(FabricError):
        build_fat_tree(0, hosts_per_rack=2)
    with pytest.raises(FabricError):
        build_fat_tree(4, hosts_per_rack=0)
    with pytest.raises(FabricError):
        build_fat_tree(4, hosts_per_rack=2, oversubscription=0.5)


def test_intra_rack_latency_matches_flat():
    # Two hops of base_latency/2 each: exactly the flat one-way cost.
    fabric = build_fat_tree(8, hosts_per_rack=4)
    base = DEFAULT_COST_MODEL.rdma_base_latency
    assert fabric.path_latency("server0", "server1") == pytest.approx(base)
    # Inter-rack crosses 4 hops: twice the flat latency.
    assert (fabric.path_latency("server0", "server4")
            == pytest.approx(2 * base))


def test_intra_rack_traverse_charges_no_trunk():
    fabric = build_fat_tree(8, hosts_per_rack=4, oversubscription=4.0)
    timing = fabric.traverse("server0", "server1", 0.0, 1e-4, 1 << 20)
    assert timing.queueing == 0.0
    assert all(link.bytes_carried == 0 for link in fabric.trunk_links())


def test_ecmp_routing_deterministic():
    # Same construction => same routes, across independent instances.
    # Eight racks derive four spines.
    a = build_fat_tree(32, hosts_per_rack=4)
    b = build_fat_tree(32, hosts_per_rack=4)
    for src in a.hosts():
        for dst in a.hosts():
            if src == dst:
                continue
            assert ([l.name for l in a.route(src, dst)]
                    == [l.name for l in b.route(src, dst)])
    # A flow sticks to one path even when many equal-cost paths exist.
    paths = a.equal_cost_paths("server0", "server4")
    assert len(paths) == 4  # one per spine
    chosen = a.route("server0", "server4")
    assert chosen in paths
    assert a.route("server0", "server4") is chosen  # cached


def test_ecmp_spreads_flows():
    # Eight racks derive four spines.
    fabric = build_fat_tree(64, hosts_per_rack=8)
    spines = set()
    for dst in range(8, 16):
        for link in fabric.route("server0", f"server{dst}"):
            if link.dst.kind == "spine":
                spines.add(link.dst.name)
    # crc32 of distinct pairs should land on more than one spine.
    assert len(spines) > 1


def test_oversubscribed_uplink_queues():
    # Two flows from the same rack race for one skinny uplink: the
    # second booking must wait for the first and record queueing.
    # Two racks derive one spine.
    fabric = build_fat_tree(8, hosts_per_rack=4, oversubscription=4.0)
    size = 8 << 20
    first = fabric.traverse("server0", "server4", 0.0, 1e-6, size)
    second = fabric.traverse("server1", "server5", 0.0, 1e-6, size)
    assert first.queueing == 0.0
    assert second.queueing > 0.0
    uplink = fabric.links[("tor0", "spine0")]
    assert uplink.queue_seconds == pytest.approx(second.queueing)
    assert uplink.bytes_carried == 2 * size
    stats = fabric.link_stats(horizon=1.0)
    assert stats["tor0->spine0"]["transfers"] == 2
    assert 0.0 < stats["tor0->spine0"]["utilization"] <= 1.0


def test_no_path_between_unknown_hosts():
    fabric = build_fat_tree(4, hosts_per_rack=2)
    assert fabric.traverse("server0", "server0", 0.0, 0.0, 100) is None
    assert fabric.traverse("server0", "elsewhere", 0.0, 0.0, 100) is None
    with pytest.raises(FabricError):
        fabric.equal_cost_paths("server0", "elsewhere")


def test_cluster_rejects_fabric_missing_hosts():
    fabric = build_fat_tree(2, hosts_per_rack=2)
    with pytest.raises(ValueError):
        Cluster(4, fabric=fabric)


def _tiny_spec():
    elements = (2 * MB) // 4
    return ModelSpec(name="Tiny-2MB", family="FCN",
                     variables=(VariableSpec("v0", (elements,)),),
                     sample_time=0.001)


def test_hierarchical_uplink_bytes_match_analytic():
    # 4 workers in 2 racks of 2: during phase 2 each rack exchanges
    # 2·M·(R-1)/R bytes with the other racks, so tor->spine payload
    # across both racks is R times that per iteration.  Protocol
    # framing (flag bytes, metadata) adds a little on top.
    spec = _tiny_spec()
    iterations = 2
    bench = run_training_benchmark(
        spec, "RDMA", num_servers=4, batch_size=1, iterations=iterations,
        strategy="hierarchical", topology="fat-tree", hosts_per_rack=2,
        oversubscription=4.0)
    stats = bench.link_stats()
    uplink_bytes = sum(s["bytes_carried"] for name, s in stats.items()
                      if name.startswith("tor"))
    racks = 2
    expected = racks * rack_uplink_bytes(spec.model_bytes, racks) * iterations
    assert uplink_bytes >= expected
    assert uplink_bytes <= expected * 1.15


def test_flat_default_is_fabric_free():
    spec = _tiny_spec()
    bench = run_training_benchmark(spec, "RDMA", num_servers=4,
                                   batch_size=1, iterations=1,
                                   strategy="ring")
    assert bench.fabric is None
    assert bench.link_stats() == {}
