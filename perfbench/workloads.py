"""The six named workloads, as data.

A workload is a fixed list of cells; a cell is one call into the program
(``run_training_benchmark`` or ``run_llm_serving_benchmark``).  This module
imports nothing from ``repro`` so that the parent process, ``check`` and
the tests can read the definitions without the program on ``sys.path``;
:mod:`perfbench.child` turns a :class:`Cell` into the call.

Worker counts, rack shape, models, loss rate and request rates define the
regime each workload measures and are never changed to save time; only
``ITERATIONS``, ``REQUESTS`` and the repetition count are (see README,
"Sizing").
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Tuple

#: mini-batches per training cell: iteration 0 is the program's own warm-up
#: (staging, registration, address distribution), iteration 1 the steady
#: step.  Two is the least that has a steady step; the driver's total time
#: cap leaves no room for the three the issue sized.
ITERATIONS = 2
#: the in-network cell keeps its two extra steps (its rounds are cheap and
#: the per-round heal path needs more than one steady round to show)
INNET_ITERATIONS = ITERATIONS + 2
#: requests per serving rate: 10 samples beyond p99, so p99 is the highest
#: percentile reported
REQUESTS = 1000
SERVE_RATES = (40, 60, 70, 80)
#: TTFT p99 limit for ``sim_max_qps_in_slo``
TTFT_SLO_MS = 200.0

LOSS_RATE = 0.001
HOSTS_PER_RACK = 8
OVERSUBSCRIPTION = 4.0
FUSION_MB = 64
SYNTH_VARIABLE_MB = 24
SYNTH_SAMPLE_TIME = 0.004
#: what a fat-tree workload warms up on (see ``Workload.warmup_cell``)
WARMUP_SYNTH = "Synth-1MB"

QUICK_WORKERS = 8
QUICK_REQUESTS = 200


@dataclass(frozen=True)
class Cell:
    """One call into the program."""

    id: str
    model: str
    kind: str = "train"            # "train" | "serve"
    mechanism: str = "RDMA"
    servers: int = 8
    batch: int = 32
    iterations: int = ITERATIONS
    strategy: str = "ps"
    fat_tree: bool = False
    #: RdmaCommRuntime(force_dynamic=True): metadata WRITE + payload READ
    force_dynamic: bool = False
    #: loss_rate=LOSS_RATE with fault_seed=--seed
    lossy: bool = False
    qps: float = 0.0
    requests: int = 0

    @property
    def ops(self) -> int:
        """Operations the cell attempts (iterations or requests)."""
        return self.requests if self.kind == "serve" else self.iterations


@dataclass(frozen=True)
class Workload:
    name: str
    loop: str
    why: str
    cells: Tuple[Cell, ...]
    #: what ``--seed`` feeds when it is not given
    default_seed: int = 0
    #: the traced pass adds a ``collect_trace=True`` step (stall report)
    stall_pass: bool = False
    #: Every repetition of a run takes its own sub-seed.  Set where the seed
    #: moves host time by more than the machine does: one serving trace
    #: drains in 0.9 s of host time and the next in 1.6 s (quartiles 14 %
    #: of the median apart over 36 seeds), while the fault seed moves
    #: ``lossy-fattree`` by 2.6 %.
    vary_seed: bool = False

    def rep_seed(self, seed: int, rep: int) -> int:
        """The seed of repetition ``rep`` of a run started with ``seed``.

        Repetitions 0 and 1 always run ``seed`` itself: the simulated numbers
        are read from the first and must repeat in the second.  With
        ``vary_seed`` the later repetitions run sub-seeds so that the run's
        host time is a median over inputs.
        """
        return seed + 7919 * (rep - 1) if self.vary_seed and rep > 1 else seed

    def quick(self) -> "Workload":
        """The smoke-test profile: 8-worker cells, 200 requests."""
        cells = tuple(
            replace(cell, servers=min(cell.servers, QUICK_WORKERS),
                    requests=min(cell.requests, QUICK_REQUESTS))
            for cell in self.cells)
        return replace(self, cells=cells)

    def warmup_cell(self) -> Cell:
        """The untimed warm-up: the quick form of the first cell, with a
        synthetic model shrunk to ``WARMUP_SYNTH``.

        It loads lazy imports and numpy's code paths without costing a
        whole 24- or 48-worker cell inside ``setup_s``.  A 24 or 48 MB
        model would make a third to a half of the set-up page faults
        (110 k of them, 0.2-0.7 s of system time depending on the box's
        minute), and ``setup_s`` would follow the machine's memory instead
        of the program's set-up work.
        """
        cell = self.quick().cells[0]
        if cell.model.startswith("Synth-"):
            cell = replace(cell, model=WARMUP_SYNTH)
        return cell


def _ps(cell_id: str, model: str, mechanism: str = "RDMA",
        **kwargs) -> Cell:
    return Cell(id=cell_id, model=model, mechanism=mechanism, **kwargs)


def _fat(cell_id: str, model: str, servers: int, strategy: str,
         **kwargs) -> Cell:
    return Cell(id=cell_id, model=model, servers=servers, batch=1,
                strategy=strategy, fat_tree=True, **kwargs)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="ps8-rdma", loop="closed, 8 workers",
        why=("paper Fig. 9 cell on the paper's mechanism: core transfer "
             "protocol, executor polling and NIC verbs work; rpc, fabric "
             "and collectives do none; one dynamic (READ) cell beside the "
             "static (WRITE) ones"),
        cells=(_ps("fcn5-rdma", "FCN-5"),
               _ps("alexnet-rdma", "AlexNet"),
               _ps("lstm-rdma", "LSTM"),
               _ps("vgg16-rdma", "VGGNet-16"),
               _ps("lstm-rdmadyn", "LSTM", force_dynamic=True)),
        stall_pass=True),
    Workload(
        name="ps8-grpc", loop="closed, 8 workers",
        why=("the paper's gRPC baseline: rpc serialization, tensor copies "
             "and byte joins; the RDMA transfer path is bypassed, so a "
             "gain in core or simnet.nic must show no change here"),
        cells=(_ps("fcn5-grpctcp", "FCN-5", "gRPC.TCP"),
               _ps("fcn5-grpcrdma", "FCN-5", "gRPC.RDMA"),
               _ps("lstm-grpctcp", "LSTM", "gRPC.TCP"))),
    Workload(
        name="ring24-fattree", loop="closed, 24 workers",
        why=("most events per step: event heap, executor polling and "
             "per-chunk verb posting dominate, so the engine's per-event "
             "cost is the bottleneck"),
        cells=(_fat("ring24", "Synth-48MB", 24, "ring"),)),
    Workload(
        name="hier48-fattree", loop="closed, 48 workers",
        why=("same fabric, fewer but costlier events: buffer allocation "
             "and registration in iteration 0, collectives.ops, trunk "
             "booking; separates fewer events from cheaper events"),
        cells=(_fat("hier48", "Synth-24MB", 48, "hierarchical"),)),
    Workload(
        name="lossy-fattree", loop="closed, 16 and 64 workers",
        why=("armed fault plane: transfers go through core.recovery "
             "(host selective repeat) or the switch plane's uplink repair; "
             "shows a loss-free fast path taxing the lossy one and checks "
             "retransmit == lost"),
        # innet first: the 64-worker cell sets the peak RSS, and run after
        # the hierarchical cell it starts on a heap that cell's retransmits
        # left fragmented differently for every fault seed (peak_rss_mb
        # 740-882 MB over ten seeds, quartiles 7.3 % of the median apart,
        # against 1 % this way round)
        cells=(_fat("innet64-loss", "Synth-24MB", 64, "innetwork",
                    lossy=True, iterations=INNET_ITERATIONS),
               _fat("hier16-loss", "Synth-24MB", 16, "hierarchical",
                    lossy=True)),
        default_seed=3),
    Workload(
        name="llm-serve", loop="open, fixed rates 40/60/70/80 qps",
        why=("the simulator driven by a request plane instead of a "
             "training graph: serving, llm and the event engine with "
             "almost no NIC traffic; 80 qps sits at the knee"),
        cells=tuple(Cell(id=f"q{rate}", model="GPT-350M", kind="serve",
                         qps=float(rate), requests=REQUESTS)
                    for rate in SERVE_RATES),
        default_seed=11, vary_seed=True),
)}


def get_workload(name: str, quick: bool = False) -> Workload:
    try:
        workload = WORKLOADS[name]
    except KeyError:
        raise SystemExit(f"unknown workload {name!r}; have "
                         f"{', '.join(WORKLOADS)}") from None
    return workload.quick() if quick else workload
