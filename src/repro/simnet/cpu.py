"""A bounded per-host CPU engine for per-byte communication work.

The paper's core observation is that "the high-bandwidth of RDMA and
its kernel-bypassing nature make any communication related computation
overhead significant" (§2.3): serialization, deserialization, and
buffer copies burn CPU and cannot overlap without bound.  This engine
models a small pool of communication threads (gRPC completion threads,
kernel softirq time): each unit of per-byte work occupies one lane for
its full duration, so a hot parameter server's RPC byte-handling
serializes once the lanes are busy — while one-sided RDMA transfers
bypass the engine entirely.
"""

from __future__ import annotations

from typing import Generator, List

from .simulator import Simulator


class CpuEngine:
    """N identical lanes; work occupies the least-loaded lane."""

    def __init__(self, sim: Simulator, lanes: int) -> None:
        if lanes < 1:
            raise ValueError("need at least one CPU lane")
        self.sim = sim
        self._lanes: List[float] = [0.0] * lanes
        self.busy_seconds = 0.0

    def reserve(self, duration: float) -> float:
        """Book ``duration`` seconds of work; returns the finish time."""
        if duration <= 0:
            return self.sim.now
        index = min(range(len(self._lanes)), key=self._lanes.__getitem__)
        start = max(self.sim.now, self._lanes[index])
        end = start + duration
        self._lanes[index] = end
        self.busy_seconds += duration
        return end

    def run(self, duration: float) -> Generator:
        """Process: perform ``duration`` seconds of CPU-bound work.

        Usage: ``yield from host.cpu.run(cost.serialize_time(n))``.
        """
        end = self.reserve(duration)
        if end > self.sim.now:
            yield (end - self.sim.now)
