"""Storage-kind clock pinning: golden fat-tree and gRPC step times.

Whether a tensor's buffer holds real bytes or only a size is a host
memory decision and must not move a simulated clock.  Both gRPC
transports see one byte stream per message whatever its kind: gRPC.TCP
books one message of the total size, and gRPC.RDMA (``rpc/framing.py``)
cuts the stream (real bytes first, then size-only bytes) into
``max(1, ceil(total / F))`` fragments, so untracked tensors travel as
lengths on both.  The gRPC.TCP constants below were captured while
untracked tensors still travelled as zero bytes.  The FCN-5 gRPC.RDMA
constants were re-recorded when gRPC.RDMA began sending one stream per
message (two streams, concrete and virtual, gave 0.2535015876558077 s
over 7264 verbs and 72033 events): its > 16 MiB weights lost the
fragment that started their virtual span.  All other constants are
exact ``repr()`` captures from the commit before the storage rule they
guard changed; re-record them only in a PR that *intends* to change
fat-tree or gRPC timing, and say so there.

The ``*_EVENTS`` constants pin the event stream itself: the heap entries
each run processes (``BenchmarkResult.sim_events``).  A change to the
engine's or the executor's host cost must make the same pushes at the
same instants in the same order; one added or dropped push moves these
before it moves a clock.  The hierarchical count was re-pinned on
purpose when poll misses stopped being heap entries, when an idle park
became a step of the poll chain, and when a landing became one heap
entry; the gRPC cells poll nothing and land no one-sided verb.  Both
were re-pinned when a completion began to reach its parked CQ poller
(the gRPC.RDMA receive loop among them) inside the push, one wake
entry per drain fewer.  No clock moved any of these times.  The
hierarchical cell was re-recorded, clock and count, when a session's
address lookups became one exchange per (device, peer) pair: setup's
simulated time shrank, so iteration 0 starts at another absolute time
and its step moved in the last bits.
"""

import pytest

from repro.distributed import run_training_benchmark
from repro.harness.experiments import _scale_spec
from repro.models import MB, get_model

# step 0: 0.014562679480000059 -> 0.014562679479999997
GOLDEN_HIER16_SYNTH24 = ["0.014562679479999997", "0.011614363480000466"]
GOLDEN_HIER16_SYNTH24_EVENTS = 15286  # 110755 -> ... -> 17301 -> 15286

GOLDEN_FCN5_GRPC_RDMA = ["0.25355023383275194", "0.25355023383273806"]
GOLDEN_FCN5_GRPC_RDMA_VERBS = 7136  # 7264 -> 7136
GOLDEN_FCN5_GRPC_RDMA_EVENTS = 56735  # 72033 -> 71003 -> 56735

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
