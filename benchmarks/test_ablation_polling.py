"""Ablation D2: the polling-async executor mode (§4).

The paper introduces *polling-async* so RdmaRecv's flag polling
neither busy-spins (wasting the processor) nor sleeps on a timer
(adding latency).  This ablation sweeps the executor's idle-poll
backoff: a sleep-poll design (long fixed sleeps) inflates step time on
a communication-bound workload, while the paper's re-enqueue-at-tail
scheme keeps detection latency near the ready-queue churn rate.
"""

import dataclasses

import pytest

from repro.distributed import run_training_benchmark
from repro.models import get_model
from repro.simnet.costmodel import DEFAULT_COST_MODEL


def step_time_with_idle_interval(multiplier: float) -> float:
    cost = DEFAULT_COST_MODEL.scaled(idle_poll_interval=multiplier)
    spec = get_model("FCN-5")
    result = run_training_benchmark(spec, "RDMA", num_servers=4,
                                    batch_size=8, iterations=3, cost=cost)
    assert not result.crashed, result.crash_reason
    return result.step_time


@pytest.mark.xfail(strict=True, reason=(
    "the NIC wakes a parked executor on every commit, so the idle backoff "
    "never decides when a poll hits: 75.59 ms/step at 1x, 250x and 2500x "
    "(76.08 / 75.92 / 80.73 at a00a251; failing since 4e36fba)"))
def test_ablation_polling_strategy(benchmark):
    # idle_poll_interval multipliers: 1x = the tuned polling-async
    # backoff; 250x ~= a 0.5 ms sleep-poll; 2500x ~= a 5 ms sleep-poll.
    sweep = benchmark.pedantic(
        lambda: {m: step_time_with_idle_interval(m)
                 for m in (1.0, 250.0, 2500.0)},
        rounds=1, iterations=1)
    print()
    print("== Ablation D2: receiver polling strategy (FCN-5, 4 servers) ==")
    for multiplier, step in sweep.items():
        label = {1.0: "polling-async (paper)", 250.0: "sleep-poll 0.5ms",
                 2500.0: "sleep-poll 5ms"}[multiplier]
        print(f"  {label:>22}: {step * 1e3:8.2f} ms/step")
    # The tuned backoff is at least as good as a 0.5 ms sleep-poll
    # (within noise: the adaptive backoff caps at 0.5 ms anyway) and
    # clearly better than a coarse 5 ms sleep-poll.
    assert sweep[1.0] <= sweep[250.0] * 1.01
    assert sweep[2500.0] > sweep[1.0] * 1.05
    assert sweep[2500.0] > sweep[250.0]
