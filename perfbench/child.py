"""One fresh interpreter: set up, run one pass over a workload, print JSON.

The parent (:mod:`perfbench.__main__`) starts this module once per timed
repetition and once per pass of a traced run, with ``src/`` on
``PYTHONPATH`` and the BLAS thread pools pinned to one thread.  The program
only ever receives generated inputs: a ``ModelSpec``, a seed integer for the
serving trace, a ``fault_seed``.

Every pass is: imports -> inputs from ``--seed`` -> untimed warm-up cell ->
every cell of the workload once (``gc.collect()`` between cells).  The
passes differ in what the cells are asked to collect and what is hooked:

``measure``  nothing collected, nothing hooked: the end-to-end host numbers
``count``    ``collect_metrics=True`` and boundary spans: counts, wire bytes
             by role, link stats, span times; then the direct probes (bare
             event loop, Fig. 8 point-to-point)
``stall``    ``collect_trace=True`` (``ps8-rdma`` only): the stall report
``profile``  ``cProfile`` around every cell: the layer self-time table

Each pass gets its own interpreter because the allocator's state carries
over between runs in one process (README, "Sizing"), which would make the
ratio of two passes depend on their order.

The last line of stdout is one JSON object; progress goes to stderr.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import pstats
import resource
import sys
import time
from contextlib import nullcontext
from statistics import geometric_mean
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core import RdmaCommRuntime
from repro.distributed import runner
from repro.llm import benchmark as llm_benchmark
from repro.models import MB, ModelSpec, VariableSpec, get_model
from repro.simnet import Simulator
from repro.simnet.verbs import (ROLE_COLLECTIVE_CHUNK, ROLE_CONTROL,
                                ROLE_DYNAMIC_PAYLOAD_READ,
                                ROLE_INNETWORK_AGGREGATE, ROLE_RETRANSMIT,
                                ROLE_STATIC_WRITE)
from repro.workloads import microbench

from .metrics import (COLLECTIVE_CELLS, P2P_MECHANISMS, P2P_SIZES,
                      STALL_COMPONENTS, WIRE_IDENTITY_CELLS)
from .tracing import SpanTracer, layer_table
from .workloads import (FUSION_MB, HOSTS_PER_RACK, LOSS_RATE,
                        OVERSUBSCRIPTION, SYNTH_SAMPLE_TIME,
                        SYNTH_VARIABLE_MB, TTFT_SLO_MS, Cell, Workload,
                        get_workload)


def log(message: str) -> None:
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


# -- inputs ---------------------------------------------------------------

def build_spec(model: str) -> ModelSpec:
    """A zoo model, or the synthetic scale model ``Synth-<n>MB``.

    The synthetic model is n MiB of float32 in variables of 24 MiB each (a
    smaller last one takes the remainder): a 24 MiB variable exceeds the
    simulator's dense limit, so replicas and fusion buffers take size-only
    backings and the cell costs events, not arithmetic.
    """
    if not model.startswith("Synth-"):
        return get_model(model)
    count, remainder = divmod(int(model[len("Synth-"):-len("MB")]),
                              SYNTH_VARIABLE_MB)
    sizes_mb = [SYNTH_VARIABLE_MB] * count + [remainder] * bool(remainder)
    return ModelSpec(
        name=model, family="FCN", sample_time=SYNTH_SAMPLE_TIME,
        variables=tuple(VariableSpec(f"synth/v{i}", (size_mb * MB // 4,))
                        for i, size_mb in enumerate(sizes_mb)))


def run_cell(cell: Cell, seed: int, *, collect_metrics: bool = False,
             collect_trace: bool = False):
    """One call into the program; returns its public result object."""
    spec = build_spec(cell.model)
    if cell.kind == "serve":
        return llm_benchmark.run_llm_serving_benchmark(
            spec, mode="continuous", qps=cell.qps, requests=cell.requests,
            seed=seed)
    kwargs = dict(num_servers=cell.servers, batch_size=cell.batch,
                  iterations=cell.iterations,
                  strategy=cell.strategy,
                  collect_metrics=collect_metrics,
                  collect_trace=collect_trace)
    if cell.fat_tree:
        kwargs.update(topology="fat-tree", hosts_per_rack=HOSTS_PER_RACK,
                      oversubscription=OVERSUBSCRIPTION,
                      fusion_bytes=FUSION_MB * MB)
    if cell.lossy:
        kwargs.update(loss_rate=LOSS_RATE, fault_seed=seed)
    if cell.force_dynamic:
        kwargs["comm"] = RdmaCommRuntime(force_dynamic=True)
    return runner.run_training_benchmark(spec, cell.mechanism, **kwargs)


# -- reading the public result objects --------------------------------------

def _lost(result) -> List[dict]:
    faults = result.stats.faults or {}
    return [entry for entry in faults.get("injected", {}).get("log", [])
            if entry["kind"] == "loss"]


def cell_facts(cell: Cell, result) -> Dict[str, object]:
    """What one result object says, as plain numbers.

    Everything here is on the simulated clock or a count, so two passes
    over the same inputs must produce equal dictionaries.
    """
    if cell.kind == "serve":
        return {
            "completed": result.completed, "shed": result.shed,
            "ttft_p50_ms": result.ttft.get("p50", 0.0) * 1e3,
            "ttft_p99_ms": result.ttft.get("p99", 0.0) * 1e3,
            "ttft_samples": result.ttft.get("count", 0),
            "tpot_p50_ms": result.tpot.get("p50", 0.0) * 1e3,
            "decode_tok_s": result.decode_tokens_per_s,
            "mean_width": result.mean_width,
            "kv_peak_mb": result.kv["peak_bytes"] / 1e6,
            "kv_denials": result.kv["denials"],
            "preemptions": result.preemptions,
            "kv_leaked_bytes": result.kv_leaked_bytes,
        }
    facts: Dict[str, object] = {
        "crashed": result.crashed, "crash_reason": result.crash_reason,
        "step_ms": result.step_time * 1e3,
        "iteration_ms": [t * 1e3 for t in result.stats.iteration_times],
        "events": result.sim_events,
        "steps": len(result.stats.iteration_times),
    }
    if result.stats.faults is not None:
        recovery = result.stats.faults["recovery"] or {}
        lost = _lost(result)
        facts.update(injected=len(lost),
                     injected_bytes=sum(e["size"] for e in lost),
                     retries=recovery.get("retries", 0),
                     gave_up=recovery.get("gave_up", 0))
    collector = result.metrics
    if collector is not None:
        roles = collector.bytes_by_role()
        facts.update(
            verbs=collector.count(), wire_bytes=collector.total_bytes(),
            tcp_bytes=collector.total_bytes(kind="TCP"),
            roles=roles,
            retransmits=collector.count(role=ROLE_RETRANSMIT),
            retransmitted_bytes=roles.get(ROLE_RETRANSMIT, 0),
            chunk_bytes=max((t.nbytes for t in collector.transfers
                             if t.role == ROLE_COLLECTIVE_CHUNK),
                            default=0),
            wire_per_worker=result.wire_bytes_per_worker(),
            predicted_per_worker=result.predicted_wire_bytes)
    links = result.link_stats()
    if links:
        facts.update(
            trunk_bytes=sum(s["bytes_carried"] for s in links.values()),
            queue_s=sum(s["queue_seconds"] for s in links.values()),
            max_uplink_util=max(s.get("utilization", 0.0)
                                for s in links.values()))
    if result.innetwork:
        groups = [g for name, g in result.innetwork.items()
                  if name != "plane"]
        facts.update(
            rounds_switched=sum(g["rounds_switched"] for g in groups),
            chunks_spilled=sum(g["chunks_spilled"] for g in groups))
    return facts


def cell_failures(cell: Cell, facts: Dict[str, object]) -> List[str]:
    """Why the cell's outputs are wrong (empty = correct)."""
    problems: List[str] = []
    if cell.kind == "serve":
        if facts["completed"] + facts["shed"] != cell.requests:
            problems.append(
                f"completed {facts['completed']} + shed {facts['shed']} "
                f"!= {cell.requests} requests")
        if facts["kv_leaked_bytes"]:
            problems.append(f"{facts['kv_leaked_bytes']} KV bytes leaked")
        return problems
    if facts["crashed"]:
        return [f"crashed: {facts['crash_reason']}"]
    if facts["steps"] != cell.iterations:
        problems.append(f"ran {facts['steps']} of {cell.iterations} steps")
    if cell.lossy:
        if facts["gave_up"]:
            problems.append(f"recovery gave up on {facts['gave_up']} "
                            "transfers")
        # needs the collector's role bytes: the count pass checks it
        if facts.get("retransmitted_bytes",
                     facts["injected_bytes"]) != facts["injected_bytes"]:
            problems.append(
                f"retransmitted {facts['retransmitted_bytes']} B != lost "
                f"{facts['injected_bytes']} B")
    elif facts.get("injected"):
        problems.append("faults injected on a loss-free cell")
    return problems


def failed_ops(cell: Cell, facts: Dict[str, object],
               problems: Sequence[str]) -> int:
    """A training cell's iterations all fail if the cell does; a serving
    request fails if it was shed or never completed."""
    if cell.kind == "serve":
        return cell.requests - facts["completed"]
    return cell.iterations if problems else 0


def result_metrics(workload: Workload,
                   facts: Dict[str, Dict[str, object]]) -> Dict[str, float]:
    """Metrics that need nothing but the result objects of one pass."""
    out: Dict[str, float] = {}
    train = [c for c in workload.cells
             if c.kind == "train" and not facts[c.id]["crashed"]]
    if train:
        out["sim_step_ms"] = geometric_mean(
            facts[c.id]["step_ms"] for c in train)
        for cell in train:
            out[f"distributed.step_ms.{cell.id}"] = facts[cell.id]["step_ms"]
    in_slo = [0.0]
    for cell in workload.cells:
        if cell.kind != "serve":
            continue
        f, rate = facts[cell.id], f"q{cell.qps:g}"
        out[f"sim_ttft_p99_ms.{rate}"] = f["ttft_p99_ms"]
        out[f"serving.ttft_p50_ms.{rate}"] = f["ttft_p50_ms"]
        out[f"serving.tpot_p50_ms.{rate}"] = f["tpot_p50_ms"]
        if (f["ttft_p99_ms"] <= TTFT_SLO_MS and not f["shed"]
                and f["completed"] == cell.requests):
            in_slo.append(cell.qps)
    if workload.cells[-1].kind == "serve":
        top = facts[workload.cells[-1].id]      # the highest fixed rate
        out["sim_max_qps_in_slo"] = max(in_slo)
        out["sim_decode_tok_s.q80"] = top["decode_tok_s"]
        out["serving.mean_width"] = top["mean_width"]
        out["serving.kv_peak_mb"] = top["kv_peak_mb"]
        for key in ("kv_denials", "preemptions", "shed", "kv_leaked_bytes"):
            out[f"serving.{key}"] = top[key]
    return out


def cross_cell_failures(workload: Workload,
                        facts: Dict[str, Dict[str, object]]) -> List[str]:
    """Checks that compare two cells of one workload."""
    problems: List[str] = []
    static, dynamic = facts.get("lstm-rdma"), facts.get("lstm-rdmadyn")
    if static and dynamic and not (static["crashed"] or dynamic["crashed"]):
        if dynamic["step_ms"] < 0.95 * static["step_ms"]:
            problems.append(
                f"lstm-rdmadyn step {dynamic['step_ms']:.3f} ms < 0.95 x "
                f"lstm-rdma {static['step_ms']:.3f} ms")
    return problems


# -- passes ---------------------------------------------------------------

#: pass name -> keyword arguments every training cell gets
PASSES = {
    "measure": {},
    "count": {"collect_metrics": True},
    "stall": {"collect_trace": True},
    "profile": {},
}


def bare_events_per_s(processes: int = 64, yields: int = 2000) -> float:
    """The event loop alone: bare-delay yields on a bare ``Simulator``."""
    sim = Simulator()

    def worker(delay):
        for _ in range(yields):
            yield delay

    for i in range(processes):
        sim.spawn(worker(1e-6 * (1 + i % 7)))   # keeps the heap interleaved
    started = time.perf_counter()
    sim.run()
    return sim.event_count / (time.perf_counter() - started)


def probe_metrics(workload: Workload, tracer: SpanTracer) -> Dict[str, float]:
    """Direct probes of single layers (Fig. 8 p2p where the layer works)."""
    tracer.cell = "probe:bare-events"
    out = {"simnet.simulator.bare_events_per_s": bare_events_per_s()}
    ps_cells = [c for c in workload.cells
                if c.kind == "train" and c.strategy == "ps"]
    probed = {"core": any(c.mechanism == "RDMA" for c in ps_cells),
              "rpc": any(c.mechanism.startswith("gRPC") for c in ps_cells)}
    for short, (layer, mechanism) in P2P_MECHANISMS.items():
        if not probed[layer]:
            continue
        for label, nbytes in P2P_SIZES.items():
            tracer.cell = f"probe:p2p-{short}-{label}"
            point = microbench.run_microbench(mechanism, nbytes)
            if point.throughput_gbps is not None:
                out[f"{layer}.p2p_gbps.{short}.{label}"] = (
                    point.throughput_gbps)
    return out


def stall_metrics(reports: Dict[str, object]
                  ) -> Tuple[Dict[str, float], List[str]]:
    """Per-step critical-path components over every steady iteration."""
    totals = {name: 0.0 for name in STALL_COMPONENTS.values()}
    steps, problems, overlaps = 0, [], []
    for cell_id, report in reports.items():
        for iteration in report.iterations[1:]:
            steps += 1
            gap = abs(sum(iteration.components.values())
                      - iteration.duration)
            if gap > 1e-9:
                problems.append(f"{cell_id}: stall components miss the "
                                f"step by {gap:.3e} s")
            for category, seconds in iteration.components.items():
                totals[STALL_COMPONENTS[category]] += seconds
        if report.overlap_efficiency() is not None:
            overlaps.append(report.overlap_efficiency())
    out = {f"graph.executor.{name}": seconds * 1e3 / steps
           for name, seconds in totals.items()}
    if overlaps:
        out["observability.overlap_efficiency"] = sum(overlaps) / len(overlaps)
    return out, problems


def session_split(tracer: SpanTracer,
                  cell_prefix: str) -> Tuple[float, float, int]:
    """``(warm-up seconds, steady seconds, steady steps)`` over all runs.

    The second ``graph.iteration_start`` mark inside a ``Session.run`` span
    is where iteration 0 ends, so both halves come from one and the same
    run and share its allocator state.
    """
    warmup_s, steady_s, steady_steps = 0.0, 0.0, 0
    for run in tracer.named("graph.session.run", cell_prefix):
        marks = tracer.children(run, "graph.iteration_start")
        if len(marks) < 2:
            warmup_s += run.duration
            continue
        warmup_s += marks[1].start - run.start
        steady_s += run.end - marks[1].start
        steady_steps += len(marks) - 1
    return warmup_s, steady_s, steady_steps


def count_metrics(workload: Workload, facts: Dict[str, Dict[str, object]],
                  tracer: SpanTracer, wall_s: float) -> Dict[str, float]:
    """Counts from the collectors and span times of the ``count`` pass."""
    train = [facts[c.id] for c in workload.cells
             if c.kind == "train" and not facts[c.id]["crashed"]]

    def total(key: str):
        return sum(f.get(key) or 0 for f in train)

    def role_mb(role: str) -> float:
        return sum(f.get("roles", {}).get(role, 0) for f in train) / 1e6

    events = total("events")
    out: Dict[str, float] = {}
    for cell in workload.cells:
        if cell.kind != "serve":
            continue
        label = f"count:{cell.id}"
        call, = tracer.named("llm.run_llm_serving_benchmark", label)
        out[f"serving.host_us_per_request.q{cell.qps:g}"] = (
            call.duration * 1e6 / cell.requests)
        # the simulator's own tally when the request plane drained
        events += max(span.extra["events"] for span in tracer.named(
            "simnet.simulator.run_until_complete", label))
    out.update({"simnet.simulator.events": events,
                "simnet.simulator.events_per_s": events / wall_s})
    if not train:
        return out
    steps, verbs = total("steps"), total("verbs")
    run_s = tracer.total("graph.session.run", "count:")
    warmup_s, steady_s, steady_steps = session_split(tracer, "count:")
    out.update({
        "simnet.simulator.events_per_step": events / steps,
        "simnet.nic.verbs": verbs,
        "simnet.nic.events_per_verb": events / verbs,
        "simnet.nic.wire_mb": total("wire_bytes") / 1e6,
        "simnet.nic.host_us_per_verb": run_s * 1e6 / verbs,
        "simnet.fabric.build_s": tracer.total("simnet.fabric.build",
                                              "count:"),
        "simnet.fabric.trunk_mb": total("trunk_bytes") / 1e6,
        "simnet.fabric.queue_ms": total("queue_s") * 1e3,
        "simnet.fabric.max_uplink_util": max(
            f.get("max_uplink_util", 0.0) for f in train),
        "simnet.faults.injected": total("injected"),
        "simnet.faults.injected_mb": total("injected_bytes") / 1e6,
        "core.recovery.retransmits": total("retransmits"),
        "core.recovery.retransmitted_mb": total("retransmitted_bytes") / 1e6,
        "core.recovery.retries": total("retries"),
        "core.recovery.gave_up": total("gave_up"),
        "core.static_write_mb": role_mb(ROLE_STATIC_WRITE),
        "core.dynamic_read_mb": role_mb(ROLE_DYNAMIC_PAYLOAD_READ),
        "core.control_mb": role_mb(ROLE_CONTROL),
        "core.innetwork.rounds_switched": total("rounds_switched"),
        "core.innetwork.chunks_spilled": total("chunks_spilled"),
        "core.innetwork.aggregate_mb": role_mb(ROLE_INNETWORK_AGGREGATE),
        "collectives.chunk_mb": max(f.get("chunk_bytes", 0)
                                    for f in train) / 1e6,
        "graph.session.init_s": tracer.total("graph.session.init", "count:"),
        "graph.session.run_s": run_s,
        "graph.session.warmup_s": warmup_s,
        "graph.session.steady_s_per_step": steady_s / steady_steps,
        "distributed.graph_build_s": tracer.total("distributed.graph_build",
                                                  "count:"),
    })
    if total("injected_bytes"):
        out["core.recovery.retx_over_lost"] = (
            total("retransmitted_bytes") / total("injected_bytes"))
    wire = [f["wire_per_worker"] for f in train if f.get("wire_per_worker")]
    if wire:
        out["sim_wire_mb_per_worker"] = geometric_mean(wire) / 1e6
    identity_err = []
    for cell in workload.cells:
        f = facts[cell.id]
        if cell.id not in COLLECTIVE_CELLS or not f.get("wire_per_worker"):
            continue
        measured, predicted = f["wire_per_worker"], f["predicted_per_worker"]
        out[f"collectives.wire_mb_per_worker.{cell.id}"] = measured / 1e6
        out[f"collectives.predicted_wire_mb_per_worker.{cell.id}"] = (
            predicted / 1e6)
        if cell.id in WIRE_IDENTITY_CELLS:
            identity_err.append(abs(measured - predicted) / 1e6)
    if identity_err:
        out["collectives.wire_identity_err_mb"] = max(identity_err)
    if any(c.mechanism.startswith("gRPC") for c in workload.cells):
        out["rpc.wire_mb"] = total("wire_bytes") / 1e6
        out["simnet.tcp.wire_mb"] = total("tcp_bytes") / 1e6
    return out


def run_pass(workload: Workload, seed: int, mode: str,
             spawned_at: float) -> dict:
    """Set up, run every cell once in ``mode``, derive that pass's numbers."""
    with SpanTracer() if mode != "measure" else nullcontext() as tracer:
        if tracer is not None:
            tracer.cell = "warmup-cell"
        run_cell(workload.warmup_cell(), seed)
        gc.collect()
        setup_s = time.time() - spawned_at

        profiler = cProfile.Profile() if mode == "profile" else None
        cells, facts, reports = [], {}, {}
        for cell in workload.cells:
            gc.collect()
            if tracer is not None:
                tracer.cell = f"{mode}:{cell.id}"
            started = time.perf_counter()
            if profiler is not None:
                profiler.enable()
            try:
                result = run_cell(cell, seed, **PASSES[mode])
            finally:
                if profiler is not None:
                    profiler.disable()
            host_s = time.perf_counter() - started
            facts[cell.id] = cell_facts(cell, result)
            problems = cell_failures(cell, facts[cell.id])
            cells.append({"id": cell.id, "host_s": host_s,
                          "problems": problems,
                          "failed": failed_ops(cell, facts[cell.id],
                                               problems)})
            if mode == "stall":
                reports[cell.id] = result.stall_report()
            log(f"{mode} {cell.id}: {host_s:.2f} s")
            del result
        wall_s = sum(row["host_s"] for row in cells)
        attempted = sum(cell.ops for cell in workload.cells)
        failed = sum(row["failed"] for row in cells)
        problems = [f"{row['id']}: {p}"
                    for row in cells for p in row["problems"]]
        problems += cross_cell_failures(workload, facts)

        metrics = result_metrics(workload, facts)
        metrics["ops_failed_share"] = failed / attempted
        doc = {"cells": cells, "facts": facts, "metrics": metrics,
               "attempted": attempted, "failed": failed,
               "problems": problems, "setup_s": setup_s, "wall_s": wall_s}
        if mode == "measure":
            metrics.update(
                setup_s=setup_s, wall_s=wall_s,
                peak_rss_mb=resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024)
            return doc
        if mode == "count":
            metrics.update(count_metrics(workload, facts, tracer, wall_s))
            metrics.update(probe_metrics(workload, tracer))
            error = metrics.get("collectives.wire_identity_err_mb", 0.0)
            if error > 0.01:
                problems.append(f"wire identity off by {error:.4f} MB")
        elif mode == "stall":
            stall, stall_problems = stall_metrics(reports)
            metrics.update(stall)
            problems += stall_problems
        else:
            profile = pstats.Stats(profiler)
            # the profiler's own total, so that a layer table which drops or
            # double-charges time can be told from one that adds up
            doc["profiled_total_s"] = profile.total_tt
            metrics.update({f"{layer}.self_s": seconds for layer, seconds
                            in layer_table(profile.stats).items()})
        doc["spans"] = [span.to_dict() for span in tracer.spans]
        return doc


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass", dest="mode", choices=tuple(PASSES),
                        required=True)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args(argv)
    workload = get_workload(args.workload, quick=args.quick)
    print(json.dumps(run_pass(workload, args.seed, args.mode,
                              args.spawned_at)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
