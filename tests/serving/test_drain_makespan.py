"""A serving run's makespan is the moment its last request went terminal.

Both benchmarks end by parking on ``drained()``, a predicate that turns
true in a callback rather than on a memory commit, so the drain poller
only notices at its next backoff timer: ``makespan = sim.now`` then
includes up to ``PARK_BACKOFF_MAX`` of idle waiting (ROADMAP item 15).
"""

import pytest

import repro.llm.benchmark as llm_benchmark
import repro.serving.benchmark as serving_benchmark
from repro.llm import run_llm_serving_benchmark
from repro.models import get_model
from repro.serving import run_serving_benchmark

DRAIN_LAG = pytest.mark.xfail(
    strict=True, reason="makespan includes the drain poller's backoff")


def _recorded(monkeypatch, module, name):
    """Swap ``module.name`` for a subclass that keeps its instances."""
    made = []
    base = getattr(module, name)

    class Recording(base):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(module, name, Recording)
    return made


@DRAIN_LAG
def test_serving_makespan_is_the_last_completion(monkeypatch):
    loads = _recorded(monkeypatch, serving_benchmark, "LoadGenerator")
    result = run_serving_benchmark(get_model("FCN-5"), replicas=2,
                                   qps=1200.0, requests=60, seed=3)
    (load,) = loads
    assert result.completed == 60
    assert result.makespan == max(r.completed for r in load.requests)


@DRAIN_LAG
def test_llm_serving_makespan_is_the_last_completion(monkeypatch):
    loads = _recorded(monkeypatch, llm_benchmark, "LLMLoadGenerator")
    result = run_llm_serving_benchmark(get_model("TF-Tiny"), replicas=2,
                                       qps=400.0, requests=60, seed=3)
    (load,) = loads
    assert result.completed == 60
    assert result.makespan == max(r.completed for r in load.requests)
