"""Storage-kind clock pinning: golden fat-tree and gRPC step times.

Whether a tensor's buffer holds real bytes or only a size is a host
memory decision and must not move a simulated clock.  It can in exactly
one place: ``rpc/framing.py`` puts concrete and virtual spans in
separate fragments, so over gRPC.RDMA ``distributed/rpc_comm.py`` pins
the payload kind to the buffer's size instead of following the tensor
(left to follow it, the FCN-5 gRPC.RDMA step below becomes 253.82 ms
over 7360 verbs).  gRPC.TCP books one message of the total size
whatever the kind, so there untracked tensors travel as lengths; the
gRPC.TCP constants below were captured while they still travelled as
zero bytes.  All constants are exact ``repr()`` captures from the
commit before the storage rule they guard changed; re-record them only
in a PR that *intends* to change fat-tree or gRPC timing, and say so
there.

The ``*_EVENTS`` constants pin the event stream itself: the heap entries
each run processes (``BenchmarkResult.sim_events``), captured at the
commit before poll visits became heap callbacks (PR 19's tree).  A
change to the engine's or the executor's host cost must make the same
pushes at the same instants in the same order; one added or dropped
push moves these before it moves a clock.
"""

import pytest

from repro.distributed import run_training_benchmark
from repro.harness.experiments import _scale_spec
from repro.models import MB, get_model

GOLDEN_HIER16_SYNTH24 = ["0.014562679480000059", "0.011614363480000466"]
GOLDEN_HIER16_SYNTH24_EVENTS = 110755

GOLDEN_FCN5_GRPC_RDMA = ["0.2535015876558077", "0.25350158765579384"]
GOLDEN_FCN5_GRPC_RDMA_VERBS = 7264
GOLDEN_FCN5_GRPC_RDMA_EVENTS = 72033

#: model -> (iteration time reprs, TCP messages recorded)
GOLDEN_GRPC_TCP = {
    "FCN-5": (["0.680075736535318", "0.6800755296811527"], 640),
    "LSTM": (["0.1276772375544567", "0.12767732581834523"], 896),
}
GOLDEN_GRPC_TCP_EVENTS = {"FCN-5": 10394, "LSTM": 14310}


def test_hierarchical_fat_tree_clock_bit_identical():
    bench = run_training_benchmark(
        _scale_spec(num_variables=1), "RDMA", num_servers=16, batch_size=1, iterations=2,
        strategy="hierarchical", topology="fat-tree", hosts_per_rack=8,
        oversubscription=4.0, fusion_bytes=64 * MB)
    assert ([repr(t) for t in bench.stats.iteration_times]
            == GOLDEN_HIER16_SYNTH24)
    assert bench.sim_events == GOLDEN_HIER16_SYNTH24_EVENTS


def test_fcn5_grpc_rdma_step_and_verbs_bit_identical():
    bench = run_training_benchmark(get_model("FCN-5"), "gRPC.RDMA",
                                   num_servers=8, batch_size=32,
                                   iterations=2, collect_metrics=True)
    assert ([repr(t) for t in bench.stats.iteration_times]
            == GOLDEN_FCN5_GRPC_RDMA)
    assert bench.metrics.count() == GOLDEN_FCN5_GRPC_RDMA_VERBS
    assert bench.sim_events == GOLDEN_FCN5_GRPC_RDMA_EVENTS


@pytest.mark.parametrize("model", sorted(GOLDEN_GRPC_TCP))
def test_grpc_tcp_step_and_messages_bit_identical(model):
    bench = run_training_benchmark(get_model(model), "gRPC.TCP",
                                   num_servers=8, batch_size=32,
                                   iterations=2, collect_metrics=True)
    times, messages = GOLDEN_GRPC_TCP[model]
    assert [repr(t) for t in bench.stats.iteration_times] == times
    assert bench.metrics.count(kind="TCP") == messages
    assert bench.sim_events == GOLDEN_GRPC_TCP_EVENTS[model]
