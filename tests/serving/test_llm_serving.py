"""End-to-end tests for the LLM serving plane (continuous + static)."""

import pytest

from repro.llm import run_llm_serving_benchmark
from repro.models import MB, get_model


TINY = get_model("TF-Tiny")

COMMON = dict(replicas=2, qps=400.0, requests=60, seed=3)


class TestContinuousBatching:
    def test_all_requests_terminal_and_accounted(self):
        run = run_llm_serving_benchmark(TINY, mode="continuous", **COMMON)
        assert run.completed + run.shed == COMMON["requests"]
        assert run.decode_tokens > 0
        assert run.prefills >= run.completed

    def test_no_kv_leak_after_drain(self):
        run = run_llm_serving_benchmark(TINY, mode="continuous", **COMMON)
        assert run.kv_leaked_bytes == 0
        assert run.kv["outstanding"] == 0

    def test_metrics_populated(self):
        run = run_llm_serving_benchmark(TINY, mode="continuous", **COMMON)
        assert run.ttft.get("count") == run.completed
        assert run.tpot.get("p50", 0.0) > 0
        assert run.mean_width >= 1.0

    def test_deterministic(self):
        a = run_llm_serving_benchmark(TINY, mode="continuous", **COMMON)
        b = run_llm_serving_benchmark(TINY, mode="continuous", **COMMON)
        assert a.makespan == b.makespan
        assert a.to_dict() == b.to_dict()

    def test_beats_static_on_decode_throughput(self):
        cont = run_llm_serving_benchmark(TINY, mode="continuous", **COMMON)
        static = run_llm_serving_benchmark(TINY, mode="static", **COMMON)
        assert cont.decode_tokens_per_s > static.decode_tokens_per_s
        assert cont.ttft.get("p99", 0.0) <= static.ttft.get("p99", 0.0)


class TestDrainCost:
    def test_drain_poll_does_not_walk_every_request(self, monkeypatch):
        """The drain tail polls every <= 50 us of sim time; a predicate
        that walks the request list makes the run O(N x polls)."""
        from repro.serving.llm import LLMRequest
        calls = []
        terminal = LLMRequest.terminal.fget
        monkeypatch.setattr(LLMRequest, "terminal", property(
            lambda request: calls.append(1) or terminal(request)))
        requests = 200
        run = run_llm_serving_benchmark(
            TINY, mode="continuous", **{**COMMON, "requests": requests})
        assert run.completed + run.shed == requests
        assert len(calls) <= 4 * requests


class TestKVPressure:
    def test_preemption_under_tiny_budget(self):
        # ~3 MB holds two mid-flight requests at most: growth denials
        # must preempt (evict + requeue), never deadlock or leak.
        run = run_llm_serving_benchmark(
            TINY, mode="continuous", kv_budget_mb=3,
            **COMMON)
        assert run.completed + run.shed == COMMON["requests"]
        assert run.preemptions > 0 or run.kv["denials"] > 0
        assert run.kv_leaked_bytes == 0
        assert run.kv["peak_bytes"] <= 3 * 1024 * 1024

    def test_impossible_request_shed_not_hung(self):
        # Budget below a single prompt's footprint: everything sheds.
        run = run_llm_serving_benchmark(
            TINY, mode="continuous", kv_budget_mb=16 * 4096 / MB, **COMMON)
        assert run.completed + run.shed == COMMON["requests"]
        assert run.kv_leaked_bytes == 0


class TestStaticBaseline:
    def test_all_terminal_and_leak_free(self):
        run = run_llm_serving_benchmark(TINY, mode="static",
                                        batch_timeout=20e-3, **COMMON)
        assert run.completed + run.shed == COMMON["requests"]
        assert run.kv_leaked_bytes == 0

    def test_batch_respects_kv_budget(self):
        # The static engine must chunk a closed batch down to what the
        # worst-case (prompt + max_new) footprints allow.
        run = run_llm_serving_benchmark(
            TINY, mode="static", batch_timeout=50e-3,
            kv_budget_mb=4, **COMMON)
        assert run.completed + run.shed == COMMON["requests"]
        assert run.kv["peak_bytes"] <= 4 * 1024 * 1024
        assert run.kv_leaked_bytes == 0

    def test_longer_timeout_widens_batches(self):
        narrow = run_llm_serving_benchmark(TINY, mode="static",
                                           batch_timeout=1e-4, **COMMON)
        wide = run_llm_serving_benchmark(TINY, mode="static",
                                         batch_timeout=50e-3, **COMMON)
        assert wide.mean_width > narrow.mean_width


class TestValidation:
    def test_non_transformer_rejected(self):
        with pytest.raises(ValueError, match="transformer"):
            run_llm_serving_benchmark(get_model("FCN-5"), **COMMON)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            run_llm_serving_benchmark(TINY, mode="clockwork", **COMMON)
