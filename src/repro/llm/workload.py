"""Seeded open-loop LLM request generation.

The CNN serving plane's load generator emits fixed-size feature
payloads; LLM traffic instead varies in two dimensions — prompt
length (what prefill pays) and output length (how long the request
occupies a decode slot and how far its KV cache grows).  Both are
drawn from seeded uniform ranges so every run is reproducible.

Requests reach the frontend over the simulated fabric: token ids are
4 bytes each and travel as one one-sided RDMA write (fabric-resident
clients, the zero-copy ingest path the paper argues for).
"""

from __future__ import annotations

import random
from typing import Generator, List, Tuple

from ..serving.llm import LLMFrontend, LLMRequest
from ..simnet.arrivals import poisson_gaps
from ..simnet.simulator import Simulator
from ..simnet.topology import Host


#: bytes per token id on the wire
TOKEN_BYTES = 4

DEFAULT_PROMPT_RANGE = (32, 256)
DEFAULT_OUTPUT_RANGE = (16, 96)


class LLMLoadGenerator:
    """Open-loop client population feeding one LLM frontend."""

    def __init__(self, sim: Simulator, frontend: LLMFrontend, host: Host, *,
                 qps: float, count: int, seed: int = 0,
                 prompt_range: Tuple[int, int] = DEFAULT_PROMPT_RANGE,
                 output_range: Tuple[int, int] = DEFAULT_OUTPUT_RANGE
                 ) -> None:
        if prompt_range[0] < 1 or prompt_range[0] > prompt_range[1]:
            raise ValueError(f"bad prompt range {prompt_range}")
        if output_range[0] < 1 or output_range[0] > output_range[1]:
            raise ValueError(f"bad output range {output_range}")
        self.sim = sim
        self.frontend = frontend
        self.host = host
        self.qps = qps
        self.count = count
        self.seed = seed
        self.prompt_range = prompt_range
        self.output_range = output_range
        self.requests: List[LLMRequest] = []
        self.done = sim.event()

    def run(self) -> Generator:
        """Process: emit ``count`` requests, then trigger :attr:`done`."""
        rng = random.Random(self.seed)
        gaps = poisson_gaps(rng, self.qps)
        pending = []
        for req_id in range(self.count):
            yield (next(gaps))
            request = LLMRequest(
                req_id=req_id, created=self.sim.now,
                prompt_tokens=rng.randint(*self.prompt_range),
                max_new_tokens=rng.randint(*self.output_range))
            self.requests.append(request)
            # Open loop: delivery is its own process so ingest never
            # delays the next arrival.
            pending.append(self.sim.spawn(self._deliver(request),
                                          name=f"llm-ingest-{req_id}"))
        yield self.sim.all_of(pending)
        if not self.done.triggered:
            self.done.succeed()

    def _deliver(self, request: LLMRequest) -> Generator:
        cost = self.host.cost
        yield (cost.rdma_write_time(request.prompt_tokens * TOKEN_BYTES))
        self.frontend.submit(request, self.sim.now)
