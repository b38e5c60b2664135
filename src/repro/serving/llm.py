"""Token-level LLM serving: KV-budgeted continuous batching.

Transformer inference has two phases with opposite cost shapes:
*prefill* ingests the whole prompt at once (priced by prompt length)
and *decode* generates one token per iteration for every running
request (priced by batch width).  The fixed close-on-size/timeout
batcher from the CNN serving plane wastes decode slots — a batch runs
at the width of its longest member, and new arrivals wait for the
whole batch to finish.  This module adds the vLLM-style alternative:

* **continuous mode** — an iteration-level decode loop.  Each step the
  replica admits new requests into the running batch (prefill,
  KV-budget permitting), decodes one token for everyone, and retires
  finished requests immediately, freeing their KV cache for the next
  admission.  Budget pressure preempts a request (its cache is
  evicted; it re-prefills prompt + generated tokens on re-admission).
* **static mode** — the PR 5 fixed batcher semantics applied to
  tokens: batches close on size/timeout, prefill and decode run at
  the padded batch width, and every request returns when the whole
  batch finishes.  This is the baseline `llmserve` measures against.

TTFT (time to first token) and TPOT (time per output token) flow
through the existing streaming histograms in the metrics registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Deque, Dict, Generator, List, Optional, Tuple

import collections

from ..models.transformer import TransformerSpec
from ..observability.registry import MetricsRegistry
from ..simnet.simulator import Simulator
from .batcher import DynamicBatcher
from .frontend import ADMISSION_LIMIT
from .kvcache import KVCache, KVTracker


LLM_MODES = ("continuous", "static")

#: new prefills admitted per decode iteration (continuous mode); keeps
#: one prompt from starving the running batch of decode steps
MAX_PREFILLS_PER_STEP = 2


@dataclass
class LLMRequest:
    """One generation request's lifetime, all times in sim seconds."""

    req_id: int
    created: float
    prompt_tokens: int
    max_new_tokens: int
    #: when the frontend admitted it (post transport)
    admitted: Optional[float] = None
    #: when its first output token was produced (end of prefill)
    first_token: Optional[float] = None
    completed: Optional[float] = None
    shed: bool = False
    #: output tokens produced so far (survives preemption)
    generated: int = 0
    #: times this request's KV cache was evicted under budget pressure
    preemptions: int = 0
    replica: Optional[int] = None

    @property
    def terminal(self) -> bool:
        return self.shed or self.completed is not None

    @property
    def ttft(self) -> Optional[float]:
        if self.first_token is None:
            return None
        return self.first_token - self.created

    @property
    def latency(self) -> Optional[float]:
        if self.completed is None:
            return None
        return self.completed - self.created

    @property
    def tpot(self) -> Optional[float]:
        """Mean seconds per output token after the first."""
        if self.completed is None or self.generated < 2:
            return None
        return (self.completed - self.first_token) / (self.generated - 1)


class LLMReplica:
    """One replica's token engine: KV cache + a decode loop."""

    def __init__(self, rank: int, sim: Simulator, spec: TransformerSpec, *,
                 kv_budget_bytes: int, max_width: int = 16,
                 mode: str = "continuous", max_batch: int = 8,
                 batch_timeout: float = 2e-3,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        if mode not in LLM_MODES:
            raise ValueError(f"unknown llm mode {mode!r}; have {LLM_MODES}")
        if max_width < 1:
            raise ValueError("max_width must be at least 1")
        self.rank = rank
        self.sim = sim
        self.spec = spec
        self.mode = mode
        self.max_width = max_width
        self.cache = KVCache(kv_budget_bytes)
        self.metrics = metrics
        #: set by the :class:`LLMFrontend` the replica serves
        self.frontend: Optional[LLMFrontend] = None
        self.queue: Deque[LLMRequest] = collections.deque()
        self.running: List[Tuple[LLMRequest, KVTracker]] = []
        self.batcher = (DynamicBatcher(sim, max_batch, batch_timeout,
                                       metrics=metrics)
                        if mode == "static" else None)
        self._arrival = None
        self._stopped = False
        self.prefills = 0
        self.decode_steps = 0
        self.decode_tokens = 0
        self.completed = 0
        self.kv_shed = 0

    # -- request intake ----------------------------------------------------

    @property
    def load(self) -> int:
        """Queued + running requests (the frontend's balance figure)."""
        return len(self.queue) + len(self.running) + (
            len(self.batcher) if self.batcher is not None else 0)

    def submit(self, request: LLMRequest) -> None:
        request.replica = self.rank
        if self.batcher is not None:
            self.batcher.add(request)
            return
        self.queue.append(request)
        if self._arrival is not None and not self._arrival.triggered:
            self._arrival.succeed()

    def stop(self) -> None:
        self._stopped = True
        if self.batcher is not None:
            self.batcher.stop()
        if self._arrival is not None and not self._arrival.triggered:
            self._arrival.succeed()

    def engine(self) -> Generator:
        if self.mode == "static":
            return self._static_engine()
        return self._continuous_engine()

    # -- continuous mode ---------------------------------------------------

    def _wait_arrival(self) -> Generator:
        self._arrival = self.sim.event()
        yield self._arrival
        self._arrival = None

    def _finish(self, request: LLMRequest, tracker: KVTracker) -> None:
        request.completed = self.sim.now
        self.cache.release(tracker)
        self.completed += 1
        if self.metrics is not None:
            self.metrics.histogram("llm.tpot_s").observe(
                request.tpot if request.tpot is not None else 0.0)
            self.metrics.histogram("llm.latency_s").observe(request.latency)
        if self.frontend is not None:
            self.frontend.done(request)

    def _shed(self, request: LLMRequest) -> None:
        request.shed = True
        self.kv_shed += 1
        if self.frontend is not None:
            self.frontend.done(request)

    def _admit_one(self) -> Generator:
        """Process: prefill the queue head into the running batch.

        The tracker reserves prompt + already-generated tokens (a
        preempted request rebuilds its evicted cache) plus the first
        new token the prefill emits.
        """
        request = self.queue.popleft()
        context = request.prompt_tokens + request.generated
        tracker = KVTracker(request.req_id, self.spec.kv_bytes_per_token,
                            tokens=context + 1)
        if not self.cache.admit(tracker):
            if not self.running and self.cache.outstanding == 0:
                # Can never fit, even on an idle replica: shed rather
                # than deadlock the drain.
                self._shed(request)
            else:
                self.queue.appendleft(request)
            return
        yield self.spec.prefill_time(context)
        self.prefills += 1
        request.generated += 1
        if request.first_token is None:
            request.first_token = self.sim.now
            if self.metrics is not None:
                self.metrics.histogram("llm.ttft_s").observe(request.ttft)
        if request.generated >= request.max_new_tokens:
            self._finish(request, tracker)
            return
        self.running.append((request, tracker))

    def _continuous_engine(self) -> Generator:
        """Process: the iteration-level batching loop."""
        while True:
            if not self.queue and not self.running:
                if self._stopped:
                    return
                yield from self._wait_arrival()
                continue
            # Join phase: admit up to MAX_PREFILLS_PER_STEP waiting
            # requests, stopping at the width cap or the KV budget.
            admitted = 0
            while (self.queue and len(self.running) < self.max_width
                   and admitted < MAX_PREFILLS_PER_STEP):
                before = len(self.running) + self.completed + self.kv_shed
                yield from self._admit_one()
                if len(self.running) + self.completed + self.kv_shed \
                        == before:
                    break  # head didn't fit; stop admitting this round
                admitted += 1
            if not self.running:
                continue
            # Decode phase: one token for the whole running batch.
            width = len(self.running)
            yield self.spec.decode_step_time(width)
            self.decode_steps += 1
            self.decode_tokens += width
            if self.metrics is not None:
                self.metrics.histogram("llm.decode_width").observe(width)
            still: List[Tuple[LLMRequest, KVTracker]] = []
            for request, tracker in self.running:
                request.generated += 1
                if request.generated >= request.max_new_tokens:
                    self._finish(request, tracker)
                elif not self.cache.grow(tracker):
                    # Budget pressure: evict and resume later — the
                    # re-prefill rebuilds prompt + generated tokens.
                    self.cache.evict(tracker)
                    request.preemptions += 1
                    self.queue.appendleft(request)
                else:
                    still.append((request, tracker))
            self.running = still

    # -- static mode (the PR 5 fixed-batcher baseline) ---------------------

    def _static_engine(self) -> Generator:
        """Process: serve closed batches at padded width.

        Mirrors classic batched inference: the batch prefills
        together (padded to its longest prompt), decodes at constant
        width until its longest generation finishes, and only then
        returns — no joins, no early exits.
        """
        while True:
            if self._stopped and not len(self.batcher) \
                    and not len(self.batcher.batches):
                return
            batch = yield self.batcher.batches.get()
            pending: Deque[LLMRequest] = collections.deque(batch)
            while pending:
                # Take the KV-feasible prefix; batches whose combined
                # worst-case cache exceeds the budget run in chunks.
                chunk: List[Tuple[LLMRequest, KVTracker]] = []
                while pending and len(chunk) < self.max_width:
                    request = pending[0]
                    worst = request.prompt_tokens + request.max_new_tokens
                    tracker = KVTracker(request.req_id,
                                        self.spec.kv_bytes_per_token,
                                        tokens=worst)
                    if not self.cache.admit(tracker):
                        if not chunk and self.cache.outstanding == 0:
                            pending.popleft()
                            self._shed(request)
                            continue
                        break
                    pending.popleft()
                    chunk.append((request, tracker))
                if not chunk:
                    continue
                yield from self._serve_static_chunk(chunk)

    def _serve_static_chunk(
            self, chunk: List[Tuple[LLMRequest, KVTracker]]) -> Generator:
        width = len(chunk)
        longest_prompt = max(r.prompt_tokens for r, _ in chunk)
        # Padded prefill: every slot pays the longest prompt, and the
        # pass runs at batch width.
        yield (self.spec.prefill_time(longest_prompt)
               * max(1.0, width / self.spec.width_saturation))
        self.prefills += width
        now = self.sim.now
        for request, _ in chunk:
            request.generated = 1
            if request.first_token is None:
                request.first_token = now
                if self.metrics is not None:
                    self.metrics.histogram("llm.ttft_s").observe(
                        request.ttft)
        steps = max(r.max_new_tokens for r, _ in chunk) - 1
        for _ in range(steps):
            yield self.spec.decode_step_time(width)
            self.decode_steps += 1
            if self.metrics is not None:
                self.metrics.histogram("llm.decode_width").observe(width)
            for request, _ in chunk:
                if request.generated < request.max_new_tokens:
                    request.generated += 1
                    self.decode_tokens += 1
        # The whole batch returns together (and its KV frees together).
        for request, tracker in chunk:
            self._finish(request, tracker)


class LLMFrontend:
    """Admission + least-loaded dispatch over the LLM replicas."""

    def __init__(self, replicas: List[LLMReplica],
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.replicas = replicas
        self.metrics = metrics
        self.in_system = 0
        self.submitted = 0
        self.shed = 0
        self.finished: List[LLMRequest] = []
        for replica in replicas:
            replica.frontend = self

    def submit(self, request: LLMRequest, now: float) -> None:
        self.submitted += 1
        if self.in_system >= ADMISSION_LIMIT:
            request.shed = True
            self.shed += 1
            self.finished.append(request)
            return
        request.admitted = now
        self.in_system += 1
        target = min(self.replicas, key=lambda r: r.load)
        target.submit(request)

    def done(self, request: LLMRequest) -> None:
        """Replica callback: a request reached a terminal state."""
        self.in_system -= 1
        if request.shed:
            self.shed += 1
        self.finished.append(request)

    def drained(self, total: int) -> bool:
        return len(self.finished) >= total


@dataclass
class LLMServingResult:
    """One LLM serving run, JSON-ready."""

    model: str
    mode: str
    replicas: int
    qps: float
    seed: int
    kv_budget_bytes: int
    max_width: int
    max_batch: int
    batch_timeout: float
    total: int
    completed: int
    shed: int
    preemptions: int
    makespan: float
    prefills: int
    decode_steps: int
    decode_tokens: int
    mean_width: float
    ttft: Dict[str, float]
    tpot: Dict[str, float]
    latency: Dict[str, float]
    kv: Dict[str, int] = field(default_factory=dict)
    #: bytes still pinned after drain — any non-zero value is a leak
    kv_leaked_bytes: int = 0

    @property
    def decode_tokens_per_s(self) -> float:
        return self.decode_tokens / self.makespan if self.makespan else 0.0

    def to_dict(self) -> Dict:
        return {
            "model": self.model, "mode": self.mode,
            "replicas": self.replicas, "qps": self.qps, "seed": self.seed,
            "kv_budget_bytes": self.kv_budget_bytes,
            "max_width": self.max_width, "max_batch": self.max_batch,
            "batch_timeout": self.batch_timeout,
            "total": self.total, "completed": self.completed,
            "shed": self.shed, "preemptions": self.preemptions,
            "makespan": self.makespan, "prefills": self.prefills,
            "decode_steps": self.decode_steps,
            "decode_tokens": self.decode_tokens,
            "decode_tokens_per_s": self.decode_tokens_per_s,
            "mean_width": self.mean_width,
            "ttft": self.ttft, "tpot": self.tpot, "latency": self.latency,
            "kv": self.kv, "kv_leaked_bytes": self.kv_leaked_bytes,
        }
