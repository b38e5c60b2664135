"""Harness-level knobs for the inference serving plane.

One frozen value, validated at construction: the CLI builds it from
``--replicas``, ``--qps``, ``--max-batch``, ``--batch-timeout``,
``--slo-ms``, ``--kv-budget-mb`` and ``--max-width`` (as the ``serving``
field of :class:`repro.distributed.runner.RunConfig`) and the serving
experiments hand it to the benchmark they call, so sweeps vary the
serving shape without code edits.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..collectives.broadcast import BROADCAST_MODES
from ..simnet.arrivals import ARRIVAL_KINDS


@dataclass(frozen=True)
class ServingConfig:
    """Shape of one simulated serving deployment."""

    #: model replicas behind the router (each on its own host)
    replicas: int = 2
    #: open-loop offered load, requests per (simulated) second
    qps: float = 1200.0
    #: dynamic batcher: close a batch at this many requests ...
    max_batch: int = 8
    #: ... or this many seconds after its first request, whichever
    #: comes first
    batch_timeout: float = 2e-3
    #: latency objective used for SLO-attainment accounting (ms)
    slo_ms: float = 25.0
    #: arrival process of the load generator (see
    #: :data:`repro.simnet.arrivals.ARRIVAL_KINDS`)
    arrival: str = "poisson"
    #: admission control: shed new requests once this many are in the
    #: system (queued + dispatched)
    admission_limit: int = 128
    #: weight-broadcast schedule ("direct" or "chain")
    broadcast: str = "direct"
    #: per-replica KV-cache byte budget for LLM serving (MB);
    #: admission reserves the prompt's footprint against it
    kv_budget_mb: float = 2048.0
    #: continuous batching: running-batch width cap per replica
    max_width: int = 16

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ValueError("replicas must be at least 1")
        if self.qps <= 0:
            raise ValueError("qps must be positive")
        if self.max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if self.batch_timeout < 0:
            raise ValueError("batch_timeout must be non-negative")
        if self.slo_ms <= 0:
            raise ValueError("slo_ms must be positive")
        if self.arrival not in ARRIVAL_KINDS:
            raise ValueError(f"unknown arrival kind {self.arrival!r}; "
                             f"have {ARRIVAL_KINDS}")
        if self.admission_limit < 1:
            raise ValueError("admission_limit must be at least 1")
        if self.broadcast not in BROADCAST_MODES:
            raise ValueError(f"unknown broadcast mode {self.broadcast!r}; "
                             f"have {BROADCAST_MODES}")
        if self.kv_budget_mb <= 0:
            raise ValueError("kv_budget_mb must be positive")
        if self.max_width < 1:
            raise ValueError("max_width must be at least 1")
