"""Open-loop load generation for the serving plane.

Clients issue requests on a seeded Poisson arrival process
*independently of completions* — an overloaded system keeps
receiving requests, which is what makes queueing delay and admission
control observable at all.  Each request is delivered to the router
over kernel TCP: clients live outside the RDMA fabric, the paper's
front-end case.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Generator, List, Optional

from ..simnet.arrivals import poisson_gaps
from ..simnet.simulator import Simulator


#: per-request payload sizes: a few KB of input features in, a small
#: prediction out — serving traffic is latency-, not bandwidth-bound
REQUEST_BYTES = 4 * 1024
RESPONSE_BYTES = 512


@dataclass
class Request:
    """One inference request's lifetime, all times in sim seconds."""

    req_id: int
    #: when the client issued it (latency is measured from here)
    created: float
    #: when the router admitted it (post client->router transport)
    admitted: Optional[float] = None
    #: when its response left the router back toward the client
    completed: Optional[float] = None
    #: admission control turned it away
    shed: bool = False
    #: times the router had to re-dispatch it (replica death)
    redispatches: int = 0

    @property
    def latency(self) -> Optional[float]:
        if self.completed is None:
            return None
        return self.completed - self.created


class LoadGenerator:
    """Seeded open-loop client population feeding one router."""

    def __init__(self, sim: Simulator, router, *, qps: float, count: int,
                 seed: int = 0) -> None:
        self.sim = sim
        self.router = router
        self.qps = qps
        self.count = count
        self.seed = seed
        self.requests: List[Request] = []
        self.done = sim.event()

    def run(self) -> Generator:
        """Process: emit ``count`` requests, then trigger :attr:`done`."""
        rng = random.Random(self.seed)
        gaps = poisson_gaps(rng, self.qps)
        pending = []
        for req_id in range(self.count):
            yield (next(gaps))
            request = Request(req_id=req_id, created=self.sim.now)
            self.requests.append(request)
            # Open loop: delivery runs as its own process so a slow
            # ingest path never delays the next arrival.
            pending.append(self.sim.spawn(self._deliver(request),
                                          name=f"ingest-{req_id}"))
        yield self.sim.all_of(pending)
        if not self.done.triggered:
            self.done.succeed()

    def _deliver(self, request: Request) -> Generator:
        host = self.router.host
        cost = host.cost
        # Kernel path into the router: wire time through the router's
        # shared TCP ingress pipe, then the syscall+copy receive cost on
        # a router CPU lane.
        ready = self.sim.now + cost.tcp_wire_time(REQUEST_BYTES)
        end = host.tcp.ingress.reserve_after(self.sim.now, REQUEST_BYTES,
                                             ready)
        yield (end - self.sim.now)
        yield from host.cpu.run(cost.tcp_recv_time(REQUEST_BYTES))
        request.admitted = self.sim.now
        self.router.submit(request)
