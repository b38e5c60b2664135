"""End-to-end LLM serving benchmark: one deployment, one result row.

Builds a ``1 + replicas``-host cluster — ``hosts[0]`` the frontend
and ingest point, the rest one token engine each — wires the request
plane (seeded load -> admission -> least-loaded dispatch -> KV-budgeted
engine) and drives it until every request is terminal.  The same entry
point runs both engine modes, so ``llmserve`` measures continuous
batching against the fixed-batcher baseline on identical arrivals.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Generator, Tuple

from ..core.publication import park_until
from ..models.spec import MB
from ..models.transformer import TransformerSpec
from ..observability.registry import MetricsRegistry
from ..serving.config import ServingConfig
from ..serving.llm import (LLMFrontend, LLMReplica, LLMServingResult,
                           LLM_MODES)
from ..simnet.topology import Cluster
from .workload import (DEFAULT_OUTPUT_RANGE, DEFAULT_PROMPT_RANGE,
                       LLMLoadGenerator)


def run_llm_serving_benchmark(
        spec: TransformerSpec, *, config: ServingConfig = ServingConfig(),
        mode: str = "continuous", qps: float = 60.0,
        requests: int = 200, seed: int = 0,
        prompt_range: Tuple[int, int] = DEFAULT_PROMPT_RANGE,
        output_range: Tuple[int, int] = DEFAULT_OUTPUT_RANGE,
        time_limit: float = 3600.0, **overrides) -> LLMServingResult:
    """Run one LLM serving deployment to completion.

    The deployment shape (replicas, arrival process, KV budget, batch
    width, batcher, admission limit) is ``config`` with ``overrides``
    applied — :class:`~repro.serving.config.ServingConfig` fields by
    name, validated like any other construction.  The offered load is
    this call's ``qps``, not the config's.
    """
    if not isinstance(spec, TransformerSpec):
        raise ValueError(f"{spec.name} is not a transformer; LLM serving "
                         "needs a KV-cache cost model")
    if mode not in LLM_MODES:
        raise ValueError(f"unknown llm mode {mode!r}; have {LLM_MODES}")
    config = replace(config, **overrides)
    replicas, arrival = config.replicas, config.arrival
    max_width, max_batch = config.max_width, config.max_batch
    batch_timeout = config.batch_timeout
    kv_budget_bytes = int(config.kv_budget_mb * MB)

    cluster = Cluster(1 + replicas, name_prefix="llm")
    sim = cluster.sim
    metrics = MetricsRegistry()
    replica_objs = [
        LLMReplica(rank, sim, spec, kv_budget_bytes=kv_budget_bytes,
                   max_width=max_width, mode=mode, max_batch=max_batch,
                   batch_timeout=batch_timeout, metrics=metrics)
        for rank in range(replicas)
    ]
    frontend = LLMFrontend(replica_objs,
                           admission_limit=config.admission_limit,
                           metrics=metrics)
    load = LLMLoadGenerator(sim, frontend, cluster.hosts[0], qps=qps,
                            count=requests, seed=seed, arrival=arrival,
                            prompt_range=prompt_range,
                            output_range=output_range)
    for replica in replica_objs:
        sim.spawn(replica.engine(), name=f"llm-engine-{replica.rank}")
        if replica.batcher is not None:
            sim.spawn(replica.batcher.run(),
                      name=f"llm-batcher-{replica.rank}")
    sim.spawn(load.run(), name="llm-load")

    def main() -> Generator:
        yield load.done
        yield from park_until(sim, cluster.hosts[0],
                              lambda: frontend.drained(requests))

    sim.run_until_complete(sim.spawn(main(), name="llm-main"),
                           limit=time_limit)
    makespan = sim.now
    for replica in replica_objs:
        replica.stop()

    def hist_dict(name: str):
        histogram = metrics.histograms.get(name)
        return histogram.to_dict() if histogram is not None else {}

    width_hist = metrics.histograms.get("llm.decode_width")
    kv_stats = {
        "budget_bytes": kv_budget_bytes,
        "peak_bytes": max(r.cache.peak for r in replica_objs),
        "admissions": sum(r.cache.admissions for r in replica_objs),
        "denials": sum(r.cache.denials for r in replica_objs),
        "evictions": sum(r.cache.evictions for r in replica_objs),
        "grown_tokens": sum(r.cache.grown_tokens for r in replica_objs),
        "outstanding": sum(r.cache.outstanding for r in replica_objs),
    }
    return LLMServingResult(
        model=spec.name, mode=mode, replicas=replicas, qps=qps, seed=seed,
        arrival=arrival, kv_budget_bytes=kv_budget_bytes,
        max_width=max_width, max_batch=max_batch,
        batch_timeout=batch_timeout, total=requests,
        completed=sum(r.completed for r in replica_objs),
        shed=frontend.shed,
        preemptions=sum(r.cache.evictions for r in replica_objs),
        makespan=makespan,
        prefills=sum(r.prefills for r in replica_objs),
        decode_steps=sum(r.decode_steps for r in replica_objs),
        decode_tokens=sum(r.decode_tokens for r in replica_objs),
        mean_width=(width_hist.mean if width_hist is not None else 0.0),
        ttft=hist_dict("llm.ttft_s"), tpot=hist_dict("llm.tpot_s"),
        latency=hist_dict("llm.latency_s"), kv=kv_stats,
        kv_leaked_bytes=sum(r.cache.used for r in replica_objs))
