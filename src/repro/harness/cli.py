"""Command-line entry point: regenerate the paper's tables and figures.

Usage::

    python -m repro.harness                 # every experiment, smoke grids
    python -m repro.harness --full          # full grids (tens of minutes)
    python -m repro.harness table2 figure8  # a subset, smoke grids
    python -m repro.harness --full scale --bench-dir results
                                            # regenerate a committed file

Exits nonzero, printing each, when a payload violates one of its
experiment's headline invariants: a CI smoke is just this command.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from ..core.device import QP_MODES
from ..distributed.runner import SCHEDULES, TOPOLOGIES, RunConfig
from ..distributed.allreduce import ALLREDUCE_ALGORITHMS
from ..serving.config import ServingConfig
from ..observability.capture import (configure_capture, flush_capture,
                                     reset_capture)
from .experiments import ALL_EXPERIMENTS, execute


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.harness",
        description="Regenerate the evaluation of 'Fast Distributed Deep "
                    "Learning over RDMA' (EuroSys '19) on the simulator.")
    parser.add_argument("experiments", nargs="*", metavar="EXPERIMENT",
                        help="subset to run (default: all); known names: "
                             + ", ".join(ALL_EXPERIMENTS))
    parser.add_argument("--full", action="store_true",
                        help="each experiment's full grid (what its "
                             "committed results file holds) instead of its "
                             "smoke grid")
    parser.add_argument("--bench-dir", default=None, metavar="DIR",
                        help="write each results-owning experiment's "
                             "payload to DIR/BENCH_<name>.json, rewritten "
                             "after every finished cell")
    parser.add_argument("--num-cqs", type=int, default=None, metavar="N",
                        help="completion queues per RDMA device (default 4)")
    parser.add_argument("--qps-per-peer", type=int, default=None,
                        metavar="N",
                        help="queue pairs per peer endpoint (default 4)")
    parser.add_argument("--qp-mode", choices=QP_MODES, default=None,
                        help="queue-pair layout: 'rc' keeps per-peer "
                             "reliable-connected pairs (default); 'shared' "
                             "multiplexes every peer over O(1) DCT-style "
                             "shared endpoints per NIC")
    parser.add_argument("--fusion-mb", type=float, default=None,
                        metavar="MB",
                        help="gradient fusion bucket size in MiB for "
                             "collective runs (default: model-dependent)")
    parser.add_argument("--priority-sched", action="store_true",
                        default=None,
                        help="priority-aware transfer scheduling: preemptive "
                             "quantum wire scheduler + urgency-ordered "
                             "executor ready queue")
    parser.add_argument("--eager-flush", action=argparse.BooleanOptionalAction,
                        default=None,
                        help="flush fusion buckets during backward "
                             "(--no-eager-flush holds them behind a "
                             "post-backward barrier)")
    parser.add_argument("--fault-spec", default=None, metavar="SPEC",
                        help="inject fabric faults, e.g. "
                             "'drop:p=0.01;flap:host=server1,at=0.001,"
                             "for=0.0005' (kinds: drop, blackhole, partial, "
                             "qp-break, flap, straggler)")
    parser.add_argument("--fault-seed", type=int, default=None, metavar="N",
                        help="RNG seed for probabilistic fault rules "
                             "(default 0; same seed => same schedule)")
    parser.add_argument("--loss", type=float, default=None, metavar="RATE",
                        help="lossy fabric: drop each transfer attempt with "
                             "this probability (ECN-coupled on fat trees); "
                             "shorthand for a 'loss:p=RATE' fault clause, "
                             "switches recovery to selective repeat")
    parser.add_argument("--retry-limit", type=int, default=None, metavar="N",
                        help="transfer re-issues before degrading to TCP "
                             "(default 4)")
    parser.add_argument("--retry-timeout", type=float, default=None,
                        metavar="SEC",
                        help="base per-attempt transfer timeout in seconds "
                             "(default 0.02; scales with size)")
    parser.add_argument("--tcp-fallback", action=argparse.BooleanOptionalAction,
                        default=None,
                        help="degrade persistently failing RDMA channels to "
                             "the kernel TCP path (--no-tcp-fallback raises "
                             "instead)")
    fabric_group = parser.add_argument_group(
        "fabric", "multi-rack fabric topology (the 'scale' experiment and "
                  "any run on a fat tree)")
    fabric_group.add_argument("--topology", choices=TOPOLOGIES, default=None,
                              help="physical fabric shape: 'flat' is the "
                                   "classic single-switch full-bisection "
                                   "model; 'fat-tree' adds racks, ToR/spine "
                                   "switches, and contended uplinks")
    fabric_group.add_argument("--racks", type=int, default=None, metavar="N",
                              help="number of racks on the fat tree (workers "
                                   "are split evenly across them)")
    fabric_group.add_argument("--hosts-per-rack", type=int, default=None,
                              metavar="N",
                              help="hosts under each top-of-rack switch "
                                   "(takes precedence over --racks)")
    fabric_group.add_argument("--oversubscription", type=float, default=None,
                              metavar="X",
                              help="rack uplink oversubscription ratio "
                                   "(1.0 = full bisection, 4.0 = the "
                                   "classic 4:1)")
    fabric_group.add_argument("--collective", choices=ALLREDUCE_ALGORITHMS,
                              default=None,
                              help="allreduce algorithm used where an "
                                   "experiment asks for the configured "
                                   "default (hierarchical is rack-aware)")
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="write a merged Chrome trace_event JSON of "
                             "every benchmark run (open in Perfetto)")
    parser.add_argument("--metrics-json", default=None, metavar="PATH",
                        help="write per-run counters/histograms and the "
                             "stall-attribution report as JSON")
    telemetry_group = parser.add_argument_group(
        "telemetry", "fleet-scale telemetry: streaming series, incident "
                     "logs, and span-retention budgets for traced runs")
    telemetry_group.add_argument("--telemetry-out", default=None,
                                 metavar="PATH",
                                 help="write per-run streaming time-series "
                                      "summaries (per-host/rack/fleet "
                                      "rollups) plus the anomaly incident "
                                      "log as JSON")
    telemetry_group.add_argument("--trace-sample", type=float, default=None,
                                 metavar="RATE",
                                 help="retain this fraction of emitted "
                                      "spans per category (deterministic "
                                      "1-in-k); telemetry and stall "
                                      "accounting always see every span")
    telemetry_group.add_argument("--trace-hosts", default=None,
                                 metavar="HOSTS",
                                 help="retain spans only from these hosts: "
                                      "a comma-separated name list or an "
                                      "integer prefix count (e.g. '4' = "
                                      "server0..server3)")
    telemetry_group.add_argument("--trace-event-cap", type=int, default=None,
                                 metavar="N",
                                 help="cap span events in the merged Chrome "
                                      "trace; overflow is counted in an "
                                      "explicit truncation marker "
                                      "(default 1000000)")
    pipeline_group = parser.add_argument_group(
        "pipeline", "pipeline-parallel transformer training (the 'llm' "
                    "strategy and the 'llmtrain' experiment)")
    pipeline_group.add_argument("--pipeline-stages", type=int, default=None,
                                metavar="N",
                                help="pipeline stages for the llm strategy, "
                                     "clamped to the model's variable count; "
                                     "pins the llmtrain sweep to one stage "
                                     "count (default: sweep 2/4/8)")
    pipeline_group.add_argument("--microbatches", type=int, default=None,
                                metavar="N",
                                help="microbatches per training step; the "
                                     "global batch must divide evenly "
                                     "(default 4)")
    pipeline_group.add_argument("--schedule", choices=SCHEDULES, default=None,
                                help="pipeline schedule: 'gpipe' runs all "
                                     "forwards then all backwards (pays "
                                     "activation rematerialization); '1f1b' "
                                     "interleaves to bound live activations "
                                     "(default; llmtrain sweeps both unless "
                                     "pinned)")
    serving_group = parser.add_argument_group(
        "serving", "knobs for the inference serving plane (the 'serving' "
                   "experiment)")
    serving_group.add_argument("--replicas", type=int, default=None,
                               metavar="N",
                               help="model replicas behind the router "
                                    "(default 2)")
    serving_group.add_argument("--qps", type=float, default=None, metavar="R",
                               help="open-loop offered load in requests/s "
                                    "(default 1200)")
    serving_group.add_argument("--max-batch", type=int, default=None,
                               metavar="N",
                               help="dynamic batcher: close a batch at N "
                                    "requests (default 8)")
    serving_group.add_argument("--batch-timeout", type=float, default=None,
                               metavar="SEC",
                               help="dynamic batcher: or this long after "
                                    "the first request (default 0.002)")
    serving_group.add_argument("--slo-ms", type=float, default=None,
                               metavar="MS",
                               help="latency objective for SLO-attainment "
                                    "accounting (default 25)")
    serving_group.add_argument("--kv-budget-mb", type=float, default=None,
                               metavar="MB",
                               help="per-replica KV-cache byte budget for "
                                    "LLM serving (default 2048)")
    serving_group.add_argument("--max-width", type=int, default=None,
                               metavar="N",
                               help="continuous batching: running-batch "
                                    "width cap per replica (default 16)")
    args = parser.parse_args(argv)

    unknown = [name for name in args.experiments
               if name not in ALL_EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiment(s): {', '.join(unknown)} "
                     f"(known: {', '.join(ALL_EXPERIMENTS)})")

    def given(**flags):
        return {key: value for key, value in flags.items()
                if value is not None}
    try:
        # The config's own validation is the one copy of every range
        # check: a bad value is a usage error, not a traceback.
        config = RunConfig(
            serving=ServingConfig(**given(
                replicas=args.replicas,
                qps=args.qps,
                max_batch=args.max_batch,
                batch_timeout=args.batch_timeout,
                slo_ms=args.slo_ms,
                kv_budget_mb=args.kv_budget_mb,
                max_width=args.max_width)),
            **given(
                num_cqs=args.num_cqs,
                num_qps_per_peer=args.qps_per_peer,
                qp_mode=args.qp_mode,
                fusion_bytes=(None if args.fusion_mb is None
                              else int(args.fusion_mb * 1024 * 1024)),
                priority_sched=args.priority_sched,
                eager_flush=args.eager_flush,
                fault_spec=args.fault_spec,
                fault_seed=args.fault_seed,
                loss_rate=args.loss,
                retry_limit=args.retry_limit,
                retry_timeout=args.retry_timeout,
                tcp_fallback=args.tcp_fallback,
                topology=args.topology,
                racks=args.racks,
                hosts_per_rack=args.hosts_per_rack,
                oversubscription=args.oversubscription,
                collective=args.collective,
                trace_sample=args.trace_sample,
                trace_hosts=args.trace_hosts,
                pipeline_stages=args.pipeline_stages,
                microbatches=args.microbatches,
                schedule=args.schedule))
    except ValueError as exc:
        parser.error(str(exc))

    # Pairings the runner does not hold: it accepts a rack shape for
    # the hierarchical collective on a flat fabric and degrades
    # innetwork to it; the command line refuses both.
    rack_shape = args.racks is not None or args.hosts_per_rack is not None
    if config.topology == "flat" \
            and (rack_shape or args.oversubscription is not None):
        parser.error("--racks/--hosts-per-rack/--oversubscription describe "
                     "a fat tree; add --topology fat-tree")
    if config.topology == "fat-tree" and not rack_shape:
        parser.error("--topology fat-tree needs a rack shape; give "
                     "--racks or --hosts-per-rack")
    if config.collective == "innetwork" and config.topology != "fat-tree":
        parser.error("--collective innetwork aggregates gradients in the "
                     "ToR/spine switches; add --topology fat-tree (plus "
                     "--racks or --hosts-per-rack)")

    capturing = (args.trace_out is not None
                 or args.metrics_json is not None
                 or args.telemetry_out is not None)
    if (args.trace_sample is not None or args.trace_hosts is not None) \
            and not capturing:
        parser.error("--trace-sample/--trace-hosts budget the spans of "
                     "captured runs; add --trace-out, --metrics-json, or "
                     "--telemetry-out")
    if args.trace_event_cap is not None and args.trace_out is None:
        parser.error("--trace-event-cap bounds the merged Chrome trace; "
                     "add --trace-out")
    if args.trace_event_cap is not None and args.trace_event_cap < 1:
        parser.error("--trace-event-cap must be positive")

    if capturing:
        # like --bench-dir, a capture path may name a directory to create
        for path in (args.trace_out, args.metrics_json, args.telemetry_out):
            if path is not None:
                os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        from ..observability.capture import DEFAULT_TRACE_EVENT_CAP
        configure_capture(trace_out=args.trace_out,
                          metrics_json=args.metrics_json,
                          telemetry_out=args.telemetry_out,
                          trace_event_cap=(args.trace_event_cap
                                           if args.trace_event_cap is not None
                                           else DEFAULT_TRACE_EVENT_CAP))

    violated = []
    try:
        for name in args.experiments or ALL_EXPERIMENTS:
            entry = ALL_EXPERIMENTS[name]
            started = time.time()
            grid = entry.full if args.full else entry.smoke
            payload = execute(entry, grid, args.bench_dir, config)
            print(f"[{name} regenerated in {time.time() - started:.1f}s]",
                  file=sys.stderr)
            print(entry.table(payload).render())
            print()
            violated += [f"{name}: {headline}"
                         for headline in entry.headlines(payload)]

        if capturing:
            for kind, path in flush_capture().items():
                print(f"[{kind} written to {path}]", file=sys.stderr)
    finally:
        if capturing:
            reset_capture()

    for headline in violated:
        print(f"[headline violated] {headline}", file=sys.stderr)
    return 1 if violated else 0


if __name__ == "__main__":
    raise SystemExit(main())
