"""Flat-topology clock pinning: golden full-precision step times.

The fabric subsystem and the simulator-core fast paths must not move a
single bit of any flat-topology clock.  These constants are exact
``repr()`` captures of simulated times from the flat model; any ulp of
drift — a reordered float addition, a merged timeout, an accidental
fabric charge on the default topology — fails the comparison.

If a future change *intends* to alter flat timing (a cost-model
recalibration, say), re-record these constants in that PR and say so
in its description.
"""

from repro.distributed import run_training_benchmark
from repro.models import get_model
from repro.workloads import run_microbench

GOLDEN_MICROBENCH_RDMA_4MB = "0.00034234437"

GOLDEN_GRU = {
    # (num_servers, strategy, priority_sched) -> exact iteration times
    (2, "ps", False): ["0.03237252906103142", "0.03190254480000011"],
    (4, "ring", False): ["0.03987071006845732", "0.03703838768000032"],
    (4, "halving-doubling", False): ["0.039787400882148584",
                                     "0.036956287680000234"],
    (3, "ring", True): ["0.03901281854669927", "0.03649596168000036"],
}
#: heap entries each GRU run processes (``BenchmarkResult.sim_events``),
#: RC and shared-QP alike; captured at the commit before poll visits
#: became heap callbacks (PR 19's tree).  The event stream is part of
#: the golden: a host-cost change makes the same pushes, so an added or
#: dropped one moves these before it moves a clock.
GOLDEN_GRU_EVENTS = {
    (2, "ps", False): 11968,
    (4, "ring", False): 9225,
    (4, "halving-doubling", False): 6041,
    (3, "ring", True): 5341,
}


def test_microbench_clock_bit_identical():
    result = run_microbench("RDMA", 4 << 20, iterations=3)
    assert repr(result.transfer_seconds) == GOLDEN_MICROBENCH_RDMA_4MB


def _iteration_reprs(num_servers, strategy, priority_sched, qp_mode="rc"):
    kwargs = {}
    if strategy != "ps":
        kwargs["strategy"] = strategy
    if priority_sched:
        kwargs["priority_sched"] = True
    bench = run_training_benchmark(get_model("GRU"), "RDMA",
                                   num_servers=num_servers, batch_size=8,
                                   iterations=2, qp_mode=qp_mode, **kwargs)
    assert (bench.sim_events
            == GOLDEN_GRU_EVENTS[(num_servers, strategy, priority_sched)])
    return [repr(t) for t in bench.stats.iteration_times]


def test_gru_ps_clock_bit_identical():
    assert _iteration_reprs(2, "ps", False) == GOLDEN_GRU[(2, "ps", False)]


def test_gru_ring_clock_bit_identical():
    assert (_iteration_reprs(4, "ring", False)
            == GOLDEN_GRU[(4, "ring", False)])


def test_gru_halving_doubling_clock_bit_identical():
    assert (_iteration_reprs(4, "halving-doubling", False)
            == GOLDEN_GRU[(4, "halving-doubling", False)])


def test_gru_ring_priority_clock_bit_identical():
    assert (_iteration_reprs(3, "ring", True)
            == GOLDEN_GRU[(3, "ring", True)])


def test_gru_ps_shared_qp_clock_bit_identical():
    """DCT-style shared endpoints must keep loss-free clocks pinned to
    the RC constants: connection multiplexing changes QP state, never
    loss-free wire timing."""
    assert (_iteration_reprs(2, "ps", False, qp_mode="shared")
            == GOLDEN_GRU[(2, "ps", False)])


def test_gru_ring_shared_qp_clock_bit_identical():
    assert (_iteration_reprs(4, "ring", False, qp_mode="shared")
            == GOLDEN_GRU[(4, "ring", False)])


def test_gru_ring_priority_shared_qp_clock_bit_identical():
    """Shared endpoints under the priority quantum scheduler: the
    per-destination prio ingress chains keep the RC clock exactly."""
    assert (_iteration_reprs(3, "ring", True, qp_mode="shared")
            == GOLDEN_GRU[(3, "ring", True)])
