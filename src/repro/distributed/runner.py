"""End-to-end distributed training benchmark runner.

One call = one cell of the paper's evaluation matrix: (model,
mechanism, number of servers, mini-batch size) -> steady-state
mini-batch time and throughput.  The deployment follows §5.2: every
server runs one worker process and one parameter-server process, and
the paper's "Local" baseline runs compute and variables on a single
server with no communication.  ``strategy`` swaps the communication
architecture: ``"ps"`` is the paper's parameter-server graph, while
``"ring"``, ``"halving-doubling"`` and ``"hierarchical"`` replace the
PS shards with worker-to-worker collectives
(:mod:`repro.distributed.allreduce`).  ``topology="fat-tree"`` swaps
the flat full-bisection network for the multi-rack leaf/spine fabric
of :mod:`repro.simnet.fabric`, whose oversubscribed uplinks are what
the hierarchical collective is shaped around.  ``"innetwork"`` moves
the reduction arithmetic *into* those switches (the aggregation plane
of the fabric module): it requires the fat-tree topology and degrades
cleanly to the hierarchical host collective everywhere else.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from ..core.device import QP_MODES
from ..core.rdma_comm import RdmaCommRuntime
from ..core.recovery import RetryPolicy
from ..graph.session import RunStats, Session
from ..serving.config import ServingConfig
from ..simnet.faults import FaultInjector, parse_fault_spec
from ..observability.anomaly import Incident, detect_run_anomalies
from ..observability.capture import capture_enabled, capture_run
from ..observability.registry import Histogram
from ..observability.stall import StallReport, build_stall_report
from ..observability.timeseries import Telemetry
from ..observability.tracer import TraceBudget, Tracer
from ..graph.transfer_api import CommRuntime, NullComm
from ..models.spec import ModelSpec
from ..simnet.costmodel import (DEFAULT_COST_MODEL,
                                DEFAULT_WIRE_QUANTUM_BYTES, CostModel)
from ..simnet.fabric import Fabric, build_fat_tree
from ..simnet.metrics import MetricsCollector
from ..simnet.topology import Cluster
from .allreduce import (ALLREDUCE_ALGORITHMS, AllreduceTrainingJob,
                        build_allreduce_training_graph)
from .model_parallel import (SCHEDULES, PipelineJob,
                             build_model_parallel_graph)
from .replication import TrainingJob, build_training_graph
from .rpc_comm import GrpcCommRuntime


MECHANISMS = ("gRPC.TCP", "gRPC.RDMA", "RDMA", "RDMA.cp", "RDMA.gpu",
              "RDMA+GDR", "Local")

STRATEGIES = ("ps", "ring", "halving-doubling", "hierarchical",
              "innetwork", "llm")

TOPOLOGIES = ("flat", "fat-tree")

#: pipeline-schedule fallbacks when the run's config does not pin them
#: (``strategy="llm"``)
DEFAULT_MICROBATCHES = 4
DEFAULT_SCHEDULE = "1f1b"


def resolve_trace_hosts(spec: str, num_servers: int,
                        name_prefix: str = "server") -> frozenset:
    """Expand a ``--trace-hosts`` spec into a host-name set.

    Two forms: an integer ``N`` keeps the first N hosts
    (``server0..serverN-1``), and a comma-separated list keeps exactly
    the named hosts.  Raises ``ValueError`` for an empty spec or a
    prefix count outside [1, num_servers].
    """
    spec = spec.strip()
    if not spec:
        raise ValueError("trace_hosts cannot be empty")
    try:
        count = int(spec)
    except ValueError:
        names = [name.strip() for name in spec.split(",")]
        if any(not name for name in names):
            raise ValueError(f"malformed trace_hosts list {spec!r}")
        return frozenset(names)
    if count < 1:
        raise ValueError("trace_hosts prefix count must be positive")
    if count > num_servers:
        raise ValueError(f"trace_hosts prefix count {count} exceeds "
                         f"{num_servers} servers")
    return frozenset(f"{name_prefix}{i}" for i in range(count))


@dataclass(frozen=True)
class RunConfig:
    """Everything a run takes from the harness rather than from its cell.

    One immutable value, validated at construction (so
    ``dataclasses.replace`` re-validates): the CLI builds one from its
    flags and hands it down ``execute -> entry.run ->
    run_*_benchmark -> make_mechanism``; a programmatic caller passes
    ``config=`` or per-call overrides.  Precedence is override, then
    the config that was handed in; nothing reads process-wide state.
    """

    num_cqs: int = 4
    num_qps_per_peer: int = 4
    #: queue-pair layout (``--qp-mode``): ``"rc"`` keeps the paper's
    #: per-peer reliable-connected pairs (bit-identical timing);
    #: ``"shared"`` multiplexes every peer over O(1) DCT-style shared
    #: endpoints per NIC
    qp_mode: str = "rc"
    #: fusion-bucket capacity for collective strategies (``--fusion-mb``);
    #: None keeps ``DEFAULT_FUSION_BYTES``
    fusion_bytes: Optional[int] = None
    #: run the priority wire scheduler + priority-aware ready queues
    priority_sched: bool = False
    #: flush each fusion bucket's allreduce as soon as its last gradient
    #: is produced; False holds every reduction behind a backward barrier
    eager_flush: bool = True
    #: fault-injection schedule (``--fault-spec`` syntax, see
    #: :func:`repro.simnet.faults.parse_fault_spec`); None disables the
    #: fault plane entirely and keeps runs bit-identical to the default
    fault_spec: Optional[str] = None
    #: RNG seed for probabilistic fault rules (``--fault-seed``)
    fault_seed: int = 0
    #: lossy-fabric drop probability per transfer attempt (``--loss``):
    #: merges a ``loss:p=<rate>`` clause into the effective fault spec,
    #: so runs see ECN-style probabilistic drops without writing a full
    #: ``--fault-spec``; None/0 keeps the fabric lossless
    loss_rate: Optional[float] = None
    #: recovery-layer overrides; None keeps ``RetryPolicy`` defaults
    retry_limit: Optional[int] = None
    retry_timeout: Optional[float] = None
    retry_backoff: Optional[float] = None
    tcp_fallback: Optional[bool] = None
    #: cluster fabric shape: ``"flat"`` is the historical full-bisection
    #: model (bit-identical timing), ``"fat-tree"`` builds the two-tier
    #: leaf/spine fabric of :func:`repro.simnet.fabric.build_fat_tree`
    topology: str = "flat"
    #: rack count for fat-tree runs; None derives it from hosts_per_rack
    racks: Optional[int] = None
    #: hosts per rack for fat-tree/hierarchical runs; None derives it
    #: from racks (at least one of the two is needed for either)
    hosts_per_rack: Optional[int] = None
    #: rack uplink oversubscription ratio (4.0 = the classic 4:1)
    oversubscription: float = 1.0
    #: collective algorithm used where an experiment asks for the
    #: configured default (``--collective``)
    collective: str = "hierarchical"
    #: span-retention sampling rate for traced runs (``--trace-sample``);
    #: None keeps every span (the historical unbudgeted tracer)
    trace_sample: Optional[float] = None
    #: host subset whose spans are retained (``--trace-hosts``): either
    #: a comma-separated name list or an integer prefix count; None
    #: keeps every host
    trace_hosts: Optional[str] = None
    #: pipeline-parallel (``llm`` strategy) shape (``--pipeline-stages``):
    #: None lets each caller pick (llmtrain sweeps 2/4/8)
    pipeline_stages: Optional[int] = None
    #: microbatches per mini-batch for the pipeline schedules
    #: (``--microbatches``); None = :data:`DEFAULT_MICROBATCHES`
    microbatches: Optional[int] = None
    #: pipeline schedule (``--schedule``): ``"gpipe"`` or ``"1f1b"``;
    #: None = :data:`DEFAULT_SCHEDULE` (and llmtrain runs both)
    schedule: Optional[str] = None
    #: the inference serving plane's knobs (``--replicas`` ...)
    serving: ServingConfig = ServingConfig()

    def __post_init__(self) -> None:
        if self.num_cqs < 1:
            raise ValueError("num_cqs must be at least 1")
        if self.num_qps_per_peer < 1:
            raise ValueError("num_qps_per_peer must be at least 1")
        if self.qp_mode not in QP_MODES:
            raise ValueError(f"unknown qp_mode {self.qp_mode!r}; "
                             f"have {QP_MODES}")
        if self.fusion_bytes is not None and self.fusion_bytes < 1:
            raise ValueError("fusion_bytes must be positive")
        # An empty spec and a zero rate both mean "off".
        if not self.fault_spec:
            object.__setattr__(self, "fault_spec", None)
        else:
            # Validate eagerly so a bad --fault-spec fails here.
            parse_fault_spec(self.fault_spec)
        if not self.loss_rate:
            object.__setattr__(self, "loss_rate", None)
        elif not 0.0 <= self.loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1), "
                             f"got {self.loss_rate}")
        if self.retry_limit is not None and self.retry_limit < 0:
            raise ValueError("retry_limit must be non-negative")
        if self.retry_timeout is not None and self.retry_timeout <= 0:
            raise ValueError("retry_timeout must be positive")
        if self.retry_backoff is not None and self.retry_backoff <= 0:
            raise ValueError("retry_backoff must be positive")
        if self.topology not in TOPOLOGIES:
            raise ValueError(f"unknown topology {self.topology!r}; "
                             f"have {TOPOLOGIES}")
        if self.racks is not None and self.racks < 1:
            raise ValueError("racks must be at least 1")
        if self.hosts_per_rack is not None and self.hosts_per_rack < 1:
            raise ValueError("hosts_per_rack must be at least 1")
        if self.oversubscription < 1.0:
            raise ValueError("oversubscription must be at least 1.0 "
                             "(1.0 = full bisection)")
        if self.collective not in ALLREDUCE_ALGORITHMS:
            raise ValueError(f"unknown collective {self.collective!r}; "
                             f"have {ALLREDUCE_ALGORITHMS}")
        if self.trace_sample is not None \
                and not 0.0 < self.trace_sample <= 1.0:
            raise ValueError(f"trace_sample must be in (0, 1], "
                             f"got {self.trace_sample}")
        if self.trace_hosts is not None:
            # The spec's shape only: prefix-count bounds are checked
            # against num_servers at run time.
            resolve_trace_hosts(self.trace_hosts, num_servers=1 << 30)
        if self.pipeline_stages is not None and self.pipeline_stages < 1:
            raise ValueError("pipeline_stages must be at least 1")
        if self.microbatches is not None and self.microbatches < 1:
            raise ValueError("microbatches must be at least 1")
        if self.schedule is not None and self.schedule not in SCHEDULES:
            raise ValueError(f"unknown schedule {self.schedule!r}; "
                             f"have {SCHEDULES}")

    def trace_budget(self, num_servers: int,
                     name_prefix: str = "server") -> Optional[TraceBudget]:
        """The retention budget implied by the trace knobs (None = keep all).

        Breakdown accounting is never budgeted — the sum-to-step-time
        invariant holds on every host — so these knobs only thin the
        span list behind trace export.  The ``iteration`` category is
        exempt from sampling: it is one span per step and anchors the
        timeline.
        """
        if self.trace_sample is None and self.trace_hosts is None:
            return None
        hosts = None
        if self.trace_hosts is not None:
            hosts = resolve_trace_hosts(self.trace_hosts, num_servers,
                                        name_prefix=name_prefix)
        return TraceBudget(default_rate=(self.trace_sample
                                         if self.trace_sample is not None
                                         else 1.0),
                           sample_rates={"iteration": 1.0},
                           hosts=hosts)

    def rack_width(self, num_servers: int) -> Optional[int]:
        """Resolve the rack width for ``num_servers`` workers.

        ``hosts_per_rack`` wins when set; otherwise ``racks`` splits the
        servers into that many equal racks (rounding up).  None when
        neither knob is set.
        """
        if self.hosts_per_rack is not None:
            return self.hosts_per_rack
        if self.racks is not None:
            return (num_servers + self.racks - 1) // self.racks
        return None

    def retry_policy(self) -> Optional[RetryPolicy]:
        """The configured recovery policy (None = library defaults)."""
        if (self.retry_limit is None and self.retry_timeout is None
                and self.retry_backoff is None and self.tcp_fallback is None):
            return None
        default = RetryPolicy()
        return RetryPolicy(
            max_retries=(self.retry_limit if self.retry_limit is not None
                         else default.max_retries),
            timeout_base=(self.retry_timeout if self.retry_timeout is not None
                          else default.timeout_base),
            backoff_base=(self.retry_backoff if self.retry_backoff is not None
                          else default.backoff_base),
            tcp_fallback=(self.tcp_fallback if self.tcp_fallback is not None
                          else default.tcp_fallback))


#: per-mechanism ``RdmaCommRuntime`` flags.  ``RDMA.gpu`` keeps tensors
#: in GPU memory without GPUDirect: PCIe staging on both ends of every
#: transfer (the Table 3 "RDMA" column).
_RDMA_MECHANISMS = {
    "RDMA": dict(zero_copy=True),
    "RDMA.cp": dict(zero_copy=False),
    "RDMA.gpu": dict(zero_copy=True, gpu_tensors=True),
    "RDMA+GDR": dict(zero_copy=True, gpu_tensors=True, gpudirect=True),
}


def make_mechanism(name: str, config: RunConfig = RunConfig()) -> CommRuntime:
    """Instantiate a transfer mechanism by its evaluation label.

    RDMA mechanisms pick up ``config``'s CQ/QP layout and retry policy.
    """
    if name == "gRPC.TCP":
        return GrpcCommRuntime(transport="tcp")
    if name == "gRPC.RDMA":
        return GrpcCommRuntime(transport="rdma")
    if name in _RDMA_MECHANISMS:
        return RdmaCommRuntime(num_cqs=config.num_cqs,
                               num_qps_per_peer=config.num_qps_per_peer,
                               retry_policy=config.retry_policy(),
                               qp_mode=config.qp_mode,
                               **_RDMA_MECHANISMS[name])
    if name == "Local":
        return NullComm()
    raise ValueError(f"unknown mechanism {name!r}; have {MECHANISMS}")


@dataclass
class BenchmarkResult:
    """Outcome of one benchmark configuration."""

    model: str
    mechanism: str
    num_servers: int
    batch_size: int
    stats: RunStats
    crashed: bool = False
    crash_reason: str = ""
    strategy: str = "ps"
    #: predicted mean wire payload per worker per step (collectives)
    predicted_wire_bytes: Optional[float] = None
    #: wire-transfer records, populated when ``collect_metrics=True``
    metrics: Optional[MetricsCollector] = None
    #: span tracer, populated when the run was traced
    tracer: Optional[Tracer] = None
    #: simulated hosts carrying workers (for per-worker accounting)
    worker_hosts: Tuple[str, ...] = field(default_factory=tuple)
    #: the fabric graph the run used (fat-tree runs only)
    fabric: Optional[Fabric] = None
    #: simulated clock at the end of the run (utilization horizon)
    sim_horizon: float = 0.0
    #: simulator events processed by the run (engine-load figure)
    sim_events: int = 0
    #: anomaly-detector output for the run (traced runs only)
    incidents: List[Incident] = field(default_factory=list)
    #: in-network aggregation counters (per-group rounds/chunks plus the
    #: plane's per-switch occupancy/spill stats); None unless the run
    #: actually built switch-aggregated collectives
    innetwork: Optional[Dict[str, object]] = None
    #: the built pipeline job (``llm`` strategy only): stage layout,
    #: per-stage compute model, schedule — what
    #: :func:`repro.distributed.model_parallel.pipeline_bubble_report`
    #: consumes together with :meth:`stall_report`
    pipeline: Optional[PipelineJob] = None

    def link_stats(self) -> Dict[str, Dict]:
        """Per-trunk-link bytes/queueing/utilization (empty when flat)."""
        if self.fabric is None:
            return {}
        return self.fabric.link_stats(self.sim_horizon or None)

    @property
    def step_time(self) -> float:
        """Steady-state seconds per mini-batch (excludes iteration 0)."""
        return self.stats.steady_state_time

    @property
    def throughput(self) -> float:
        """Mini-batches per second (per worker, steady state)."""
        return self.stats.throughput

    @property
    def samples_per_second(self) -> float:
        """Aggregate samples/s across all workers."""
        return self.throughput * self.batch_size * self.num_servers

    def step_time_percentiles(self,
                              percentiles: Optional[Tuple[float, ...]] = None
                              ) -> Dict[str, float]:
        """Per-iteration step-time distribution (p50/p90/p99/p99.9).

        Excludes iteration 0 (warm-up staging and tracing), matching
        :attr:`step_time`'s steady-state convention.  Returns an empty
        dict for crashed or zero-iteration runs.
        """
        steady = self.stats.iteration_times[1:] or self.stats.iteration_times
        if not steady:
            return {}
        histogram = Histogram("step_time_s", percentiles=percentiles)
        for value in steady:
            histogram.observe(value)
        return histogram.to_dict()

    @property
    def step_time_p50(self) -> float:
        return self.step_time_percentiles().get("p50", 0.0)

    @property
    def step_time_p99(self) -> float:
        return self.step_time_percentiles().get("p99", 0.0)

    def wire_bytes_per_worker(self) -> Optional[float]:
        """Measured mean egress bytes per worker per steady-state step.

        Counts transfers starting after iteration 0 finished (warm-up
        staging, tracing, and address distribution excluded) across the
        worker hosts, averaged over hosts and steady iterations.
        Requires the run to have been made with ``collect_metrics``.
        """
        if (self.metrics is None or self.crashed or not self.worker_hosts
                or len(self.stats.iteration_end_times) < 2):
            return None
        steady_start = self.stats.iteration_end_times[0]
        steady_iterations = len(self.stats.iteration_end_times) - 1
        total = sum(
            self.metrics.bytes_in_window(lo=steady_start, host=host,
                                         direction="egress")
            for host in self.worker_hosts)
        return total / (len(self.worker_hosts) * steady_iterations)

    def stall_report(self) -> Optional[StallReport]:
        """Per-iteration stall attribution; None unless the run was traced."""
        if self.tracer is None:
            return None
        return build_stall_report(self.tracer)


def run_training_benchmark(spec: ModelSpec, mechanism: str,
                           num_servers: int, batch_size: int,
                           iterations: int = 4, *,
                           config: RunConfig = RunConfig(),
                           cost: Optional[CostModel] = None,
                           comm: Optional[CommRuntime] = None,
                           placement: str = "round_robin",
                           strategy: str = "ps",
                           collect_metrics: bool = False,
                           collect_trace: bool = False,
                           time_limit: float = 36000.0,
                           **overrides) -> BenchmarkResult:
    """Run one (model, mechanism, scale, batch) configuration.

    ``comm`` overrides the mechanism object (for ablations); the
    ``mechanism`` string is still used for labeling.  gRPC.RDMA crashes
    (oversized messages, §5.1/§5.2) are captured as a crashed result
    rather than raising, mirroring how the paper reports them.

    ``overrides`` are :class:`RunConfig` fields by name, applied over
    ``config`` for this call (``fusion_bytes=``, ``topology=``,
    ``loss_rate=``, ...): an unknown name is a ``TypeError``, a bad
    value the ``ValueError`` constructing the config would raise.
    ``priority_sched`` turns on the NIC's priority quantum scheduler
    (unless ``cost`` already sets ``wire_quantum_bytes``) and the
    executors' priority-aware ready queues; ``eager_flush=False``
    builds the post-barrier collective baseline.

    ``collect_trace`` enables the observability layer for this run;
    tracing also turns on automatically while a harness capture sink is
    configured (``--trace-out``/``--metrics-json``), and traced runs
    register themselves with that sink.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; have {STRATEGIES}")
    config = replace(config, **overrides)
    priority_sched, topology = config.priority_sched, config.topology
    fault_spec = config.fault_spec
    if config.loss_rate:
        clause = f"loss:p={config.loss_rate}"
        fault_spec = f"{fault_spec};{clause}" if fault_spec else clause
    rack_width = config.rack_width(num_servers)
    if priority_sched:
        base_cost = cost if cost is not None else DEFAULT_COST_MODEL
        if base_cost.wire_quantum_bytes <= 0:
            cost = replace(base_cost,
                           wire_quantum_bytes=DEFAULT_WIRE_QUANTUM_BYTES)
    local = mechanism == "Local"
    predicted: Optional[float] = None
    if strategy == "llm":
        # Pipeline-parallel training: one stage per server, the
        # mini-batch cut into microbatches, boundary activations as
        # static RDMA writes.  The stage count is the server count.
        if local:
            raise ValueError("the llm strategy pipelines across servers; "
                             "it has no Local mode")
        # Transformers ship real sequence activations (seq_len x
        # hidden per sample); other specs keep the generic width.
        elements = 4096
        seq_len = getattr(spec, "seq_len", None)
        hidden = getattr(spec, "hidden", None)
        if seq_len and hidden:
            elements = seq_len * hidden
        job = build_model_parallel_graph(
            spec, num_stages=num_servers, batch_size=batch_size,
            activation_elements_per_sample=elements,
            microbatches=config.microbatches or DEFAULT_MICROBATCHES,
            schedule=config.schedule or DEFAULT_SCHEDULE)
        predicted = job.cross_stage_bytes_per_step / max(num_servers, 1)
    elif strategy == "ps" or local:
        job = build_training_graph(spec,
                                   num_workers=1 if local else num_servers,
                                   batch_size=batch_size, local=local,
                                   placement=placement)
    else:
        kwargs = {}
        if config.fusion_bytes is not None:
            kwargs["fusion_bytes"] = config.fusion_bytes
        algorithm = strategy
        if strategy == "innetwork" and topology != "fat-tree":
            # There is no switch to aggregate in on a flat fabric:
            # degrade cleanly to the hierarchical host collective (same
            # rack shape, bit-identical to asking for it directly).
            # ``job.algorithm`` records what actually ran; the result's
            # ``strategy`` keeps what was requested.
            algorithm = "hierarchical"
        if algorithm in ("hierarchical", "innetwork"):
            if rack_width is None:
                raise ValueError(
                    f"the {strategy} strategy needs a rack shape; set "
                    "racks= or hosts_per_rack= (or --racks/--hosts-per-rack)")
            kwargs["hosts_per_rack"] = rack_width
        job = build_allreduce_training_graph(
            spec, num_workers=num_servers, batch_size=batch_size,
            algorithm=algorithm, eager_flush=config.eager_flush, **kwargs)
        predicted = job.bytes_per_worker_per_step
    fabric: Optional[Fabric] = None
    if topology == "fat-tree" and not local:
        if rack_width is None:
            raise ValueError(
                "the fat-tree topology needs a rack shape; set racks= or "
                "hosts_per_rack= (or --racks/--hosts-per-rack)")
        fabric = build_fat_tree(num_servers, rack_width,
                                oversubscription=config.oversubscription,
                                cost=cost)
    cluster = Cluster(1 if local else num_servers, cost=cost, fabric=fabric)
    if fault_spec:
        cluster.install_faults(
            FaultInjector.from_spec(fault_spec, seed=config.fault_seed))
    tracing = collect_trace or capture_enabled()
    collector = (cluster.enable_metrics()
                 if collect_metrics or tracing else None)
    tracer = None
    if tracing:
        # The telemetry digest sees every span before any sampling, so
        # anomaly detection is independent of the retention budget.
        tracer = cluster.enable_tracing(
            budget=None if local else config.trace_budget(num_servers),
            telemetry=Telemetry(
                hosts_per_rack=rack_width or max(num_servers, 1)))
    device_hosts = {}
    for device in job.devices:
        if device == "local0":
            device_hosts[device] = cluster.hosts[0]
        elif device.startswith("stage"):
            # Pipeline stages: stripping the worker/ps letter set would
            # eat the "s"/"e" of "stage", so peel the prefix exactly.
            device_hosts[device] = cluster.hosts[int(device[len("stage"):])]
        else:
            index = int(device.lstrip("workerps"))
            device_hosts[device] = cluster.hosts[index]
    worker_hosts = tuple(sorted({host.name
                                 for host in device_hosts.values()}))
    comm = comm or make_mechanism(mechanism, config)
    try:
        session = Session(cluster, job.graph, device_hosts, comm=comm,
                          priority_sched=priority_sched)
        stats = session.run(iterations=iterations, time_limit=time_limit)
    except Exception as exc:  # noqa: BLE001 - crash capture is the point
        return BenchmarkResult(model=spec.name, mechanism=mechanism,
                               num_servers=num_servers,
                               batch_size=batch_size,
                               stats=RunStats(iterations=0),
                               crashed=True, crash_reason=str(exc),
                               strategy=strategy,
                               predicted_wire_bytes=predicted,
                               metrics=collector, tracer=tracer,
                               worker_hosts=worker_hosts, fabric=fabric,
                               sim_horizon=cluster.sim.now,
                               sim_events=cluster.sim.event_count)
    link_utilization: Dict[str, float] = {}
    if tracer is not None and fabric is not None:
        # Per-trunk-link gauges: steady utilization + queueing seconds.
        horizon = cluster.sim.now
        for link_name, stats_ in fabric.link_stats(horizon).items():
            link_utilization[link_name] = stats_["utilization"]
            tracer.metrics.gauge(
                f"link_utilization:{link_name}").set(stats_["utilization"])
            tracer.metrics.gauge(
                f"link_queue_seconds:{link_name}").set(
                    stats_["queue_seconds"])
    incidents: List[Incident] = []
    if tracer is not None:
        incidents = detect_run_anomalies(tracer,
                                         link_utilization=link_utilization,
                                         now=cluster.sim.now)
        capture_run(
            label=(f"{spec.name}/{mechanism}/{strategy}/"
                   f"n{num_servers}/b{batch_size}"),
            tracer=tracer,
            meta={"model": spec.name, "mechanism": mechanism,
                  "strategy": strategy, "num_servers": num_servers,
                  "batch_size": batch_size, "iterations": iterations,
                  "step_time": stats.steady_state_time},
            incidents=[incident.to_dict() for incident in incidents])
    innetwork_snapshot = None
    runtime = getattr(session.comm, "innetwork", None)
    if runtime is not None:
        innetwork_snapshot = runtime.snapshot()
    return BenchmarkResult(model=spec.name, mechanism=mechanism,
                           num_servers=num_servers, batch_size=batch_size,
                           stats=stats, strategy=strategy,
                           predicted_wire_bytes=predicted,
                           metrics=collector, tracer=tracer,
                           worker_hosts=worker_hosts, fabric=fabric,
                           sim_horizon=cluster.sim.now,
                           sim_events=cluster.sim.event_count,
                           incidents=incidents,
                           innetwork=innetwork_snapshot,
                           pipeline=(job if isinstance(job, PipelineJob)
                                     else None))
