"""Inference serving plane: zero-copy model serving over the RDMA
device layer.

Three planes on one simulated cluster:

* **request plane** — seeded open-loop load generation, admission
  control, dynamic batching (max-batch-size / batching-timeout), and
  replica dispatch with one-sided writes;
* **weight publication** — the trainer publishes versioned parameter
  snapshots into double-buffered replica arenas with the epoch-flag
  protocol (:mod:`repro.core.publication`), so replicas swap versions
  zero-copy and never serve a torn snapshot;
* **SLO-aware co-location** — serving transfers carry a high wire
  priority, so the priority quantum scheduler bounds inference tail
  latency while bulk training traffic saturates the same links.
"""

from .batcher import DynamicBatcher
from .benchmark import ServingResult, run_serving_benchmark
from .config import ServingConfig
from .frontend import Router
from .load import REQUEST_BYTES, RESPONSE_BYTES, LoadGenerator, Request
from .replica import Replica, forward_time

__all__ = [
    "DynamicBatcher", "LoadGenerator", "REQUEST_BYTES", "RESPONSE_BYTES",
    "Replica", "Request", "Router", "ServingConfig",
    "ServingResult", "forward_time", "run_serving_benchmark",
]
