"""Seeded request arrivals for open-loop workloads.

The serving plane drives the cluster with an *open-loop* load: request
arrival times are drawn from a seeded generator and do not depend on
how fast the system answers (closed-loop generators hide queueing
collapse; see the "coordinated omission" literature).  Arrivals are
Poisson — exponential interarrival gaps at a fixed rate, the classic
memoryless approximation of many independent clients.

Everything is a pure function of ``(seed, rate)`` via one
``random.Random``; the simulator never adds randomness of its own, so
a workload is exactly reproducible from its seed.
"""

from __future__ import annotations

import random
from typing import Iterator


def poisson_gaps(rng: random.Random, rate: float) -> Iterator[float]:
    """Exponential interarrival gaps for a ``rate``/sec Poisson process."""
    if rate <= 0:
        raise ValueError(f"arrival rate must be positive, got {rate}")
    while True:
        yield rng.expovariate(rate)
