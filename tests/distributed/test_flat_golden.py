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
    # (num_servers, strategy, priority_sched) -> exact iteration times.
    # Re-recorded when address distribution became one batched exchange
    # per (device, peer) pair, all pairs in one run: setup's simulated
    # time shrank, so iteration 0 starts at another absolute time and
    # the sums move in their last bits (before -> after):
    # ps 0.03190254480000011 -> ...12; ring 0.03987071006845732 -> ...33,
    # 0.03703838768000032 -> ...31; priority ring 0.03649596168000036
    # -> 0.036495961680000355; halving-doubling did not move.
    (2, "ps", False): ["0.03237252906103142", "0.03190254480000012"],
    (4, "ring", False): ["0.03987071006845733", "0.03703838768000031"],
    (4, "halving-doubling", False): ["0.039787400882148584",
                                     "0.036956287680000234"],
    (3, "ring", True): ["0.03901281854669927", "0.036495961680000355"],
}
#: heap entries each GRU run processes (``BenchmarkResult.sim_events``),
#: RC and shared-QP alike.  The event stream is part of the golden: a
#: host-cost change makes the same pushes, so an added or dropped one
#: moves these before it moves a clock.  Re-pinned on purpose five
#: times, the clocks above not moving any time: when poll misses stopped
#: being heap entries (two per miss before, none after), when an idle
#: park became a step of the poll chain (a timed-out park three entries
#: before, one after), when a landing became one heap entry (a landing
#: over 4 KiB four entries before, one after), then when a completion
#: reached its parked CQ poller inside the push (one wake entry per
#: drain before, none after), then when a send awaited its flag's event
#: itself, in the process the executor spawns (one more entry per send
#: before: the event it was passed on through).  Re-pinned a sixth time
#: with the clocks above, when a session's address lookups became one
#: exchange per (device, peer) pair instead of a request/reply per edge:
#: each comment reads before -> ... -> after.
GOLDEN_GRU_EVENTS = {
    (2, "ps", False): 2230,        # 11968 -> ... -> 2641 -> 2553 -> 2230
    (4, "ring", False): 2554,      # 9225 -> ... -> 2781 -> 2733 -> 2554
    (4, "halving-doubling", False): 2218,  # 6041 -> ... -> 2289 -> 2218
    (3, "ring", True): 2519,       # 5341 -> ... -> 2695 -> 2671 -> 2519
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
