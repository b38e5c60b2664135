"""Per-request KV-cache accounting for transformer serving.

Each in-flight request pins ``kv_bytes_per_token * tokens`` of replica
memory — a tensor that *grows every decode step*, the dynamic
allocation the paper's §3.3 machinery exists for.  A
:class:`KVTracker` sizes one request's cache token by token; a
:class:`KVCache` enforces the replica's byte budget: admission reserves
the prompt's footprint, each decode step grows it by one token, and
budget pressure preempts (evicts) a running request, whose cache is
rebuilt from its tokens on re-admission.

The shape follows the Helix cluster simulator's KVTracker/KVCache
(SNIPPETS.md snippet 3), reduced to what the continuous-batching loop
needs: exact byte accounting with leak detection, not paged blocks.
"""

from __future__ import annotations

from typing import Dict


class KVTracker:
    """One request's KV-cache footprint, sized token by token."""

    __slots__ = ("req_id", "bytes_per_token", "tokens")

    def __init__(self, req_id: int, bytes_per_token: int,
                 tokens: int = 0) -> None:
        if bytes_per_token < 1:
            raise ValueError("bytes_per_token must be positive")
        if tokens < 0:
            raise ValueError("tokens must be non-negative")
        self.req_id = req_id
        self.bytes_per_token = bytes_per_token
        self.tokens = tokens

    @property
    def nbytes(self) -> int:
        return self.tokens * self.bytes_per_token

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"KVTracker(req={self.req_id}, tokens={self.tokens}, "
                f"bytes={self.nbytes})")


class KVCache:
    """A replica's KV arena: a byte budget over live trackers.

    Counters make the two invariants checkable from outside: every
    admitted byte is released (``used == 0`` after drain, else it
    leaked), and ``used`` never exceeds ``budget_bytes``.
    """

    def __init__(self, budget_bytes: int) -> None:
        if budget_bytes < 1:
            raise ValueError("budget must be positive")
        self.budget_bytes = budget_bytes
        self.used = 0
        self.peak = 0
        self.trackers: Dict[int, KVTracker] = {}
        self.admissions = 0
        self.denials = 0
        self.evictions = 0
        self.grown_tokens = 0

    @property
    def free_bytes(self) -> int:
        return self.budget_bytes - self.used

    @property
    def outstanding(self) -> int:
        """Live trackers — non-zero after drain means a leak."""
        return len(self.trackers)

    def fits(self, nbytes: int) -> bool:
        return nbytes <= self.free_bytes

    def admit(self, tracker: KVTracker) -> bool:
        """Reserve a tracker's current footprint; False if over budget."""
        if tracker.req_id in self.trackers:
            raise ValueError(f"request {tracker.req_id} already admitted")
        if not self.fits(tracker.nbytes):
            self.denials += 1
            return False
        self.trackers[tracker.req_id] = tracker
        self.used += tracker.nbytes
        self.peak = max(self.peak, self.used)
        self.admissions += 1
        return True

    def grow(self, tracker: KVTracker, tokens: int = 1) -> bool:
        """Extend a live tracker by ``tokens``; False if over budget."""
        if tracker.req_id not in self.trackers:
            raise ValueError(f"request {tracker.req_id} not admitted")
        need = tokens * tracker.bytes_per_token
        if not self.fits(need):
            return False
        tracker.tokens += tokens
        self.used += need
        self.peak = max(self.peak, self.used)
        self.grown_tokens += tokens
        return True

    def release(self, tracker: KVTracker) -> None:
        """Free a finished request's cache."""
        if self.trackers.pop(tracker.req_id, None) is None:
            raise ValueError(f"request {tracker.req_id} not admitted")
        self.used -= tracker.nbytes
        assert self.used >= 0, "KV accounting went negative"

    def evict(self, tracker: KVTracker) -> None:
        """Free a *running* request's cache under budget pressure."""
        self.release(tracker)
        self.evictions += 1
