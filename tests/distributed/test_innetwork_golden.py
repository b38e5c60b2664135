"""In-network clock pinning under loss: a golden lossy switch-plane cell.

Sixteen workers behind four ToRs (4:1 oversubscribed) reduce one 24 MiB
bucket through the switches for two iterations with ``loss:p=0.01``.
Each member streams 96 chunks up its access link; a lost chunk still
burns its wire slot and is re-issued as retransmit traffic, and the
switch plane combines, crosses the trunks and multicasts the result.
The constants are exact ``repr()`` captures, so any drift in the
aggregation plane, the uplink loss draw or the NIC pipes fails here:
the iteration end times, the loss log (time, host, size), the wire
bytes per role and the heap entries the run processes
(``BenchmarkResult.sim_events``).  A host-cost change to the switch
plane makes fewer heap entries and must move nothing else.
"""

from repro.distributed import run_training_benchmark
from repro.harness.experiments import _scale_spec
from repro.models import MB

GOLDEN_INNET16_LOSS_END_TIMES = ["0.008497633759999998",
                                 "0.016827995360000028"]

#: (time, host, size) of every injected loss, in log order
GOLDEN_INNET16_LOSS_LOG = [
    ("0.004639945599999999", "server2", 262144),
    ("0.0048725323199999985", "server9", 262144),
    ("0.0049354468799999995", "server15", 262144),
    ("0.00501933296", "server7", 262144),
    ("0.005103219040000001", "server2", 262144),
    ("0.0052500196800000015", "server13", 262144),
    ("0.00540042032", "server0", 262144),
    ("0.00540042032", "server10", 262144),
    ("0.005525749440000001", "server15", 262144),
    ("0.005546720960000001", "server2", 262144),
    ("0.00565157856", "server13", 262144),
    ("0.005756436160000001", "server8", 262144),
    ("0.00603266592", "server14", 262144),
    ("0.00615849504", "server10", 262144),
    ("0.00620043808", "server3", 262144),
    ("0.006326267200000002", "server7", 262144),
    ("0.006560553920000002", "server3", 262144),
    ("0.006790740640000001", "server1", 262144),
    ("0.006874626720000002", "server15", 262144),
    ("0.006895598240000003", "server10", 262144),
    ("0.00702452736", "server2", 262144),
    ("0.00702452736", "server9", 262144),
    ("0.01313757936", "server4", 262144),
    ("0.013265308480000003", "server3", 262144),
    ("0.013726681920000003", "server13", 262144),
    ("0.013747653440000002", "server5", 262144),
    ("0.01389755408000001", "server10", 262144),
    ("0.014023383200000007", "server2", 262144),
    ("0.014236698400000013", "server3", 262144),
    ("0.014236698400000013", "server7", 262144),
    ("0.014341556000000016", "server15", 262144),
    ("0.01457224272000001", "server13", 262144),
    ("0.01463515728000001", "server15", 262144),
    ("0.014785057920000023", "server14", 262144),
    ("0.014995273120000017", "server9", 262144),
    ("0.015079159200000018", "server5", 262144),
    ("0.015165645280000025", "server6", 262144),
]

GOLDEN_INNET16_LOSS_ROLE_BYTES = {
    "in-network-aggregate": 805306368,
    "in-network-result": 805306368,
    "in-network-trunk": 402653184,
    "retransmit": 9699328,
}

#: re-pinned on purpose, no clock moving, when an uplink arrival stopped
#: being a heap entry (one per member-chunk before, one per chunk after)
#: and a window wake began to resume its sender in place: before -> after
GOLDEN_INNET16_LOSS_EVENTS = 8502  # 14198 -> 8502


def test_lossy_innetwork_fat_tree_clock_bit_identical():
    bench = run_training_benchmark(
        _scale_spec(num_variables=1), "RDMA", num_servers=16, batch_size=1,
        iterations=2, strategy="innetwork", topology="fat-tree",
        hosts_per_rack=4, oversubscription=4.0, fusion_bytes=64 * MB,
        loss_rate=0.01, collect_metrics=True)
    assert ([repr(t) for t in bench.stats.iteration_end_times]
            == GOLDEN_INNET16_LOSS_END_TIMES)
    log = bench.stats.faults["injected"]["log"]
    assert ([(repr(e["time"]), e["host"], e["size"]) for e in log]
            == GOLDEN_INNET16_LOSS_LOG)
    assert {e["kind"] for e in log} == {"loss"}
    assert bench.metrics.bytes_by_role() == GOLDEN_INNET16_LOSS_ROLE_BYTES
    assert bench.sim_events == GOLDEN_INNET16_LOSS_EVENTS
