"""Every metric the benchmark prints: name, unit, clock, layer, direction.

``BENCHMARK.json`` carries the names, units and directions the driver needs;
this table carries what that schema has no room for: the **clock** (``sim``:
what the modelled cluster would take, deterministic, compared exactly;
``host``: what the simulator costs us, noisy, compared against a bound;
``count``: a tally that repeats exactly), the **layer** (a module name under
``src/repro``) and which end-to-end metric on which workload the layer
metric is expected to **move** -- written down before measuring.

A simulated time has the unit ``sim_ms``, so that the clock survives in
``BENCHMARK.json`` too, whose entries have no clock field.

The twelve end-to-end metrics all carry a bound here and ``check`` applies
it.  ``BENCHMARK.json`` lists only the three host ones under ``end_to_end``:
its contract wants every end-to-end metric on every workload, never zero and
never reading the same twice, which a simulated time cannot promise.  The
nine simulated ones sit in its ``per_layer`` list under the same names.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .tracing import LAYERS
from .workloads import SERVE_RATES, WORKLOADS

EXACT = 0.0


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    clock: str                    # "sim" | "host" | "count"
    better: str                   # "lower" | "higher"
    layer: str                    # module name, or "end-to-end"
    moves: str = ""               # end-to-end metric @ workload it should move
    #: end-to-end only: share of the base by which the metric may worsen;
    #: EXACT (every metric off the host clock) means any difference fails
    bound: Optional[float] = None

    @property
    def end_to_end(self) -> bool:
        return self.bound is not None

    @property
    def driver_group(self) -> str:
        """The ``BENCHMARK.json`` list the metric is declared in."""
        return ("end_to_end" if self.end_to_end and self.clock == "host"
                else "per_layer")


def _e2e(name, unit, clock, better, bound) -> Metric:
    return Metric(name, unit, clock, better, "end-to-end", bound=bound)


END_TO_END: Tuple[Metric, ...] = (
    _e2e("setup_s", "s", "host", "lower", 0.25),
    _e2e("wall_s", "s", "host", "lower", 0.25),
    _e2e("peak_rss_mb", "MB", "host", "lower", 0.10),
    _e2e("sim_step_ms", "sim_ms", "sim", "lower", EXACT),
    _e2e("sim_wire_mb_per_worker", "MB", "sim", "lower", EXACT),
    *(_e2e(f"sim_ttft_p99_ms.q{rate}", "sim_ms", "sim", "lower", EXACT)
      for rate in SERVE_RATES),
    _e2e("sim_decode_tok_s.q80", "tok/s", "sim", "higher", EXACT),
    _e2e("sim_max_qps_in_slo", "qps", "sim", "higher", EXACT),
    _e2e("ops_failed_share", "ratio", "count", "lower", EXACT),
)

#: cells whose collective wire volume has an analytic prediction
COLLECTIVE_CELLS = ("ring24", "hier48", "hier16-loss", "innet64-loss")
#: cells where measured == predicted must hold (loss adds retransmits)
WIRE_IDENTITY_CELLS = ("ring24", "hier48")
TRAIN_CELLS = tuple(cell.id for workload in WORKLOADS.values()
                    for cell in workload.cells if cell.kind == "train")
#: stall-report category -> metric suffix; together they sum to the step
STALL_COMPONENTS = {"op": "sim_op_ms", "sched": "sim_sched_ms",
                    "poll": "sim_poll_ms", "poll_wait": "sim_poll_wait_ms",
                    "wire_wait": "sim_wire_wait_ms",
                    "serialization": "sim_serialization_ms"}
P2P_SIZES = {"64k": 64 * 1024, "16m": 16 * 1024 * 1024}
P2P_MECHANISMS = {"rdma": ("core", "RDMA"), "rdmacp": ("core", "RDMA.cp"),
                  "grpcrdma": ("rpc", "gRPC.RDMA"),
                  "grpctcp": ("rpc", "gRPC.TCP")}


def _layer(layer: str, moves: str, *rows) -> Tuple[Metric, ...]:
    return tuple(Metric(f"{layer}.{suffix}", unit, clock, better, layer, moves)
                 for suffix, unit, clock, better in rows)


PER_LAYER: Tuple[Metric, ...] = (
    *(Metric(f"{layer}.self_s", "s", "host", "lower", layer,
             "wall_s on the workload where its share is largest")
      for layer in LAYERS),
    *_layer("simnet.simulator",
            "wall_s @ ring24-fattree; flat on ps8-grpc",
            ("events", "count", "count", "lower"),
            ("events_per_step", "count", "count", "lower"),
            ("events_per_s", "1/s", "host", "higher"),
            ("bare_events_per_s", "1/s", "host", "higher")),
    *_layer("simnet.nic",
            "wall_s @ ring24-fattree, ps8-rdma; flat on ps8-grpc, llm-serve",
            ("verbs", "count", "count", "lower"),
            ("events_per_verb", "count", "count", "lower"),
            ("wire_mb", "MB", "sim", "lower"),
            ("host_us_per_verb", "us", "host", "lower")),
    *_layer("simnet.fabric",
            "wall_s, sim_step_ms @ hier48-fattree, ring24-fattree; "
            "flat on ps8-*",
            ("build_s", "s", "host", "lower"),
            ("trunk_mb", "MB", "sim", "lower"),
            ("queue_ms", "sim_ms", "sim", "lower"),
            ("max_uplink_util", "ratio", "sim", "lower")),
    *_layer("simnet.faults",
            "sim_step_ms, sim_wire_mb_per_worker @ lossy-fattree; "
            "0 on every loss-free workload",
            ("injected", "count", "count", "lower"),
            ("injected_mb", "MB", "sim", "lower")),
    *_layer("core.recovery",
            "wall_s, sim_step_ms @ lossy-fattree; gave_up -> "
            "ops_failed_share; flat on loss-free workloads",
            ("retransmits", "count", "count", "lower"),
            ("retransmitted_mb", "MB", "sim", "lower"),
            ("retries", "count", "count", "lower"),
            ("gave_up", "count", "count", "lower"),
            ("retx_over_lost", "ratio", "sim", "lower")),
    *_layer("core", "sim_step_ms, wall_s @ ps8-rdma; flat on ps8-grpc",
            ("static_write_mb", "MB", "sim", "lower"),
            ("dynamic_read_mb", "MB", "sim", "lower"),
            ("control_mb", "MB", "sim", "lower"),
            *((f"p2p_gbps.{mech}.{size}", "Gb/s", "sim", "higher")
              for mech, (layer, _) in P2P_MECHANISMS.items()
              if layer == "core" for size in P2P_SIZES)),
    *_layer("core.innetwork",
            "sim_step_ms @ lossy-fattree (innet64-loss cell)",
            ("rounds_switched", "count", "count", "higher"),
            ("chunks_spilled", "count", "count", "lower"),
            ("aggregate_mb", "MB", "sim", "lower")),
    *_layer("collectives",
            "sim_wire_mb_per_worker, sim_step_ms @ ring24-fattree, "
            "hier48-fattree; flat on ps8-*",
            ("chunk_mb", "MB", "sim", "lower"),
            *((f"wire_mb_per_worker.{cell}", "MB", "sim", "lower")
              for cell in COLLECTIVE_CELLS),
            *((f"predicted_wire_mb_per_worker.{cell}", "MB", "sim", "lower")
              for cell in COLLECTIVE_CELLS),
            ("wire_identity_err_mb", "MB", "sim", "lower")),
    *_layer("graph.session",
            "wall_s wherever a Session runs; warm-up vs steady tells a "
            "set-up gain from a stepping one; flat on llm-serve",
            ("init_s", "s", "host", "lower"),
            ("run_s", "s", "host", "lower"),
            ("warmup_s", "s", "host", "lower"),
            ("steady_s_per_step", "s", "host", "lower")),
    *_layer("graph.executor",
            "sim_step_ms @ ps8-rdma (stall-report totals per step)",
            *((suffix, "sim_ms", "sim", "lower")
              for suffix in STALL_COMPONENTS.values())),
    *_layer("distributed", "sim_step_ms on the owning workload",
            ("graph_build_s", "s", "host", "lower"),
            *((f"step_ms.{cell}", "sim_ms", "sim", "lower")
              for cell in TRAIN_CELLS)),
    *_layer("rpc", "wall_s, sim_step_ms @ ps8-grpc; flat everywhere else",
            ("wire_mb", "MB", "sim", "lower"),
            *((f"p2p_gbps.{mech}.{size}", "Gb/s", "sim", "higher")
              for mech, (layer, _) in P2P_MECHANISMS.items()
              if layer == "rpc" for size in P2P_SIZES)),
    *_layer("simnet.tcp", "wall_s, sim_step_ms @ ps8-grpc",
            ("wire_mb", "MB", "sim", "lower")),
    *_layer("serving",
            "sim_ttft_p99_ms.*, sim_max_qps_in_slo, wall_s @ llm-serve; "
            "flat on training workloads",
            *((f"ttft_p50_ms.q{rate}", "sim_ms", "sim", "lower")
              for rate in SERVE_RATES),
            *((f"tpot_p50_ms.q{rate}", "sim_ms", "sim", "lower")
              for rate in SERVE_RATES),
            *((f"host_us_per_request.q{rate}", "us", "host", "lower")
              for rate in SERVE_RATES),
            ("mean_width", "count", "sim", "higher"),
            ("kv_peak_mb", "MB", "sim", "lower"),
            ("kv_denials", "count", "count", "lower"),
            ("preemptions", "count", "count", "lower"),
            ("shed", "count", "count", "lower"),
            ("kv_leaked_bytes", "count", "count", "lower")),
    *_layer("observability",
            "none when off: wall_s must not move with tracing off",
            ("trace_overhead_x", "ratio", "host", "lower"),
            ("profile_overhead_x", "ratio", "host", "lower"),
            ("overlap_efficiency", "ratio", "sim", "higher")),
)

METRICS: Dict[str, Metric] = {m.name: m for m in END_TO_END + PER_LAYER}
if len(METRICS) != len(END_TO_END) + len(PER_LAYER):
    raise RuntimeError("duplicate metric name in perfbench.metrics")


def driver_names(trace: bool) -> Tuple[str, ...]:
    """Names the driver's one-line result carries for ``--trace 0|1``."""
    group = "per_layer" if trace else "end_to_end"
    return tuple(m.name for m in METRICS.values() if m.driver_group == group)
