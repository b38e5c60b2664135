"""Ablation D4: static placement vs always-dynamic transfer (§3.2-3.3).

The analyzer uses the static-placement protocol whenever shapes are
statically known, and falls back to the dynamic-allocation protocol
(metadata write + one-sided READ + per-batch allocation) only when it
must.  This ablation forces every edge through the dynamic protocol
and measures what the static fast path is worth per benchmark.
"""

import pytest

from repro.core import RdmaCommRuntime
from repro.distributed import run_training_benchmark
from repro.models import get_model


MODELS = ("FCN-5", "Inception-v3", "LSTM")


def sweep():
    out = {}
    for name in MODELS:
        spec = get_model(name)
        static = run_training_benchmark(spec, "RDMA", num_servers=4,
                                        batch_size=8, iterations=3)
        dynamic = run_training_benchmark(
            spec, "RDMA(dyn)", num_servers=4, batch_size=8, iterations=3,
            comm=RdmaCommRuntime(force_dynamic=True))
        assert not static.crashed and not dynamic.crashed
        out[name] = (static.step_time, dynamic.step_time)
    return out


@pytest.mark.xfail(strict=True, reason=(
    "always-dynamic measures faster than static placement: FCN-5 -4.7 %, "
    "Inception-v3 -2.4 %, LSTM -1.1 % (+3.9 / +29.1 / -3.2 % at a00a251; "
    "failing since 4e36fba)"))
def test_ablation_dynamic_protocol(benchmark):
    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print("== Ablation D4: static placement vs always-dynamic ==")
    print(f"{'benchmark':>14}  {'static ms':>10}  {'dynamic ms':>11}  "
          f"{'overhead %':>10}")
    overheads = {}
    for name, (static, dynamic) in results.items():
        overhead = (dynamic - static) / static * 100
        overheads[name] = overhead
        print(f"{name:>14}  {static * 1e3:>10.2f}  {dynamic * 1e3:>11.2f}  "
              f"{overhead:>10.1f}")
        # Dynamic is never meaningfully faster: it adds metadata
        # exchange, a per-batch allocation, and an extra data round
        # trip (small inversions are pull-scheduling noise).
        assert dynamic >= static * 0.95, name
    # On average the static fast path wins.
    assert sum(overheads.values()) / len(overheads) > 0

    # Many-small-tensor models suffer the most per-transfer overhead.
    inc_overhead = (results["Inception-v3"][1] - results["Inception-v3"][0]) \
        / results["Inception-v3"][0]
    fcn_overhead = (results["FCN-5"][1] - results["FCN-5"][0]) \
        / results["FCN-5"][0]
    assert inc_overhead > fcn_overhead
