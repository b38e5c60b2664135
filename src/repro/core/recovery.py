"""Retriable RDMA transfers: timeout, backoff, re-issue, degradation.

The paper's transfer protocols (§3.2/§3.3) assume the fabric never
fails; this module makes them survive the faults that
:mod:`repro.simnet.faults` injects.  A :class:`RecoveryManager` wraps a
channel memcpy in a retry loop:

* every attempt races the verb's completion against a per-transfer
  timeout scaled to the transfer size (so a blackholed verb — no CQE at
  all — is still detected);
* failed or timed-out attempts back off exponentially (capped) and
  re-issue; payload re-writes are idempotent because the simulated
  fabric never signals success without committing the bytes, and the
  flag byte always trails the payload;
* a broken queue pair is re-established (``qp_reestablish_time``)
  before the re-issue;
* when the retry budget is exhausted the channel **degrades**: this and
  every later transfer on it take the kernel TCP path
  (:meth:`RdmaChannel.fallback_transfer`), trading bandwidth for
  progress.  With ``tcp_fallback`` disabled the failure is raised to
  the caller instead.

Safety against torn writes comes from the protocols, not from here:
the NIC commits in ascending address order and an injected partial
write lands a strict prefix, never the last byte, so a receiver
polling the trailing flag byte can never observe a half-landed
payload.  Every flag carries
an *epoch* (1..255, cycling; ``transfer.EpochLane``), so a stale
duplicate from a timed-out-but-delivered attempt can never be consumed
twice.

Selective repeat
----------------
There is one retry loop: selective repeat over a per-transfer landed
bitmap, where each round re-issues **only the chunks that did not
land**.  What the fabric decides is how a transfer is cut:

* on a fault plane without ``loss`` rules, faults are rare whole-verb
  events and a transfer is *one* chunk: selective repeat with one
  chunk is whole-transfer retry.  A re-issue keeps its protocol role,
  so a role-addressed fault rule keeps matching it;
* on a PFC-less fabric that drops individual packets
  (``RecoveryManager(lossy=True)``, which the comm runtime passes when
  a ``loss`` rule is armed) a transfer without inline data is cut into
  ``CostModel.loss_chunk_bytes`` chunks, and every re-issue is tagged
  :data:`~repro.simnet.verbs.ROLE_RETRANSMIT` on the wire, so
  retransmitted bytes equal lost bytes: recovery costs O(lost bytes),
  not O(window).

When the spec is one ``loss`` clause alone, a round asks the fault
plane once which chunks it loses
(:meth:`~repro.simnet.faults.FaultInjector.draw_round`) and posts
each run of contiguous surviving chunks as one verb, each lost chunk
as its own: the host pays per loss, not per chunk.

The epoch flag still trails the whole payload (the protocols post it
after ``reliable_memcpy`` returns), so consumers never observe a
partially repaired tensor.

:func:`land` is the one place a protocol picks how a transfer's bytes
are confirmed: retried until they land when the fault plane is armed,
otherwise posted once and, if asked, awaited.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Dict, Generator, Iterator, List, Optional, Sequence, Set,
                    Tuple)

from ..simnet.costmodel import CostModel
from ..simnet.simulator import Event, Simulator
from ..simnet.verbs import ROLE_RETRANSMIT
from .device import DeviceError, Direction, MemRegion, RdmaChannel, RemoteMemRegion


#: sentinel yielded by the timeout leg of the completion race
_TIMEOUT = object()


@dataclass(frozen=True)
class RetryPolicy:
    """Knobs for the retry loop (all times in seconds)."""

    #: re-issues after the first attempt; exhausting this degrades the
    #: channel to TCP (or raises, with ``tcp_fallback`` off)
    max_retries: int = 4
    #: per-attempt timeout: ``timeout_base + size * timeout_per_byte``.
    #: The timeout only has to catch *blackholes* (a lost verb with no
    #: CQE); every other fault surfaces as an immediate error CQE.  The
    #: base is therefore deliberately generous — it must exceed the
    #: fabric's worst-case queueing (a small write stuck behind a full
    #: model's worth of bulk transfers), or spurious timeouts inject
    #: duplicate traffic that compounds the backlog.  Real NICs size
    #: their ACK timeout × retry budget in the same tens-of-ms range.
    timeout_base: float = 20e-3
    timeout_per_byte: float = 1e-9
    #: capped exponential backoff between attempts
    backoff_base: float = 20e-6
    backoff_factor: float = 2.0
    backoff_max: float = 500e-6
    #: degrade a persistently failing channel to the kernel TCP path
    tcp_fallback: bool = True

    def attempt_timeout(self, size: int) -> float:
        return self.timeout_base + size * self.timeout_per_byte

    def backoff_delay(self, attempt: int) -> float:
        """Backoff before re-issue number ``attempt`` (1-based)."""
        delay = self.backoff_base * (self.backoff_factor ** (attempt - 1))
        return min(delay, self.backoff_max)


@dataclass
class RecoveryStats:
    """Counters the chaos tests assert against (JSON-able)."""

    retries: int = 0
    timeouts: int = 0
    failed_completions: int = 0
    qp_reconnects: int = 0
    fallback_transfers: int = 0
    channels_degraded: int = 0
    gave_up: int = 0
    #: timed-out attempts whose original completion landed during the
    #: backoff window — goodput, not loss; never re-issued (the
    #: retry-accounting dedupe)
    late_completions: int = 0
    #: chunks re-issued on a lossy fabric
    retransmits: int = 0
    #: bytes re-sent under ROLE_RETRANSMIT — the O(lost) invariant the
    #: lossy chaos suite bounds against injected-loss bytes
    retransmitted_bytes: int = 0
    retries_by_role: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "retries": self.retries,
            "timeouts": self.timeouts,
            "failed_completions": self.failed_completions,
            "qp_reconnects": self.qp_reconnects,
            "fallback_transfers": self.fallback_transfers,
            "channels_degraded": self.channels_degraded,
            "gave_up": self.gave_up,
            "late_completions": self.late_completions,
            "retransmits": self.retransmits,
            "retransmitted_bytes": self.retransmitted_bytes,
            "retries_by_role": dict(self.retries_by_role),
        }


class _Round:
    """One selective-repeat round: the chunks posted as one chain and
    what became of each.  Their completion callbacks settle this
    round's own state, so a late CQE of an earlier round can never
    settle a later round's ``gate``; AllOf would fail fast on the first
    lost chunk and hide the fate of the rest."""

    __slots__ = ("gate", "wrs", "size", "landed", "failed")

    def __init__(self, sim: Simulator, size: int) -> None:
        #: succeeds once every chunk of the round has a completion
        self.gate: Event = sim.event()
        #: work-request id -> the chunk indices that WR carries
        self.wrs: Dict[int, Sequence[int]] = {}
        #: chunks in the round
        self.size = size
        self.landed: Set[int] = set()
        #: chunks whose completion reported an error
        self.failed: Set[int] = set()

    def settle(self, completion) -> None:
        chunks = self.wrs[completion.wr_id]
        (self.landed if completion.ok else self.failed).update(chunks)
        if len(self.landed) + len(self.failed) == self.size:
            self.gate.succeed()


def _cut(pending: List[int], segments) -> Iterator[Tuple[List[int], object]]:
    """The WRs of a drawn round: each maximal run of contiguous
    pending chunks that one segment of the draw
    (:meth:`~repro.simnet.faults.FaultInjector.draw_round`) covers,
    with that segment's verdict; a lost chunk is a segment of its own."""
    start = 0
    for end, verdict in segments:
        run = [pending[start]]
        for index in pending[start + 1:end]:
            if index != run[-1] + 1:
                yield run, verdict
                run = []
            run.append(index)
        yield run, verdict
        start = end


class RecoveryManager:
    """Executes channel memcpys with timeout/retry/degradation."""

    def __init__(self, sim: Simulator, cost: CostModel,
                 policy: Optional[RetryPolicy] = None,
                 tracer=None, lossy: bool = False) -> None:
        self.sim = sim
        self.cost = cost
        self.policy = policy or RetryPolicy()
        self.tracer = tracer
        self.stats = RecoveryStats()
        #: the fabric drops packets, not whole verbs: cut transfers into
        #: ``loss_chunk_bytes`` chunks and tag re-issues ROLE_RETRANSMIT
        self.lossy = lossy

    # -- the retry loop ----------------------------------------------------------

    def reliable_memcpy(self, channel: RdmaChannel, *,
                        local_addr: int = 0,
                        local_region: Optional[MemRegion] = None,
                        remote_addr: int = 0,
                        remote_region: Optional[RemoteMemRegion] = None,
                        size: int,
                        direction: Direction,
                        inline_data: Optional[bytes] = None,
                        role: str = "", priority: int = 0) -> Generator:
        """Process: one logical transfer, retried until it lands.

        Use as ``yield from recovery.reliable_memcpy(...)``.  Returns
        once the bytes are at the destination — over RDMA if every
        chunk lands within the budget, over TCP for the chunks still
        out once the channel degrades.  Raises :class:`DeviceError`
        only when the budget is exhausted and TCP fallback is disabled.

        Each round posts every pending chunk as one chain of verbs (one
        per chunk, or one per drawn run; per-QP FIFO keeps them in
        sequence order) and waits until all of them settle — error
        CQEs included — or the per-transfer timeout fires (a blackhole
        produces no CQE at all).  Chunks that landed are marked; only the rest are
        re-issued, at the original priority.  A chunk whose completion
        arrives during the backoff window is goodput, not loss, and is
        never re-sent.
        """
        policy = self.policy
        step = (self.cost.loss_chunk_bytes
                if self.lossy and inline_data is None else max(size, 1))
        bounds = ([(lo, min(lo + step, size)) for lo in range(0, size, step)]
                  or [(0, size)])
        pending = list(range(len(bounds)))
        limit = policy.attempt_timeout(size)
        attempt = 0
        while True:
            if channel.degraded:
                for index in pending:
                    lo, hi = bounds[index]
                    yield from self._fallback(
                        channel, local_addr + lo, remote_addr + lo,
                        hi - lo, direction, inline_data, role)
                return
            retransmit = self.lossy and attempt > 0
            if retransmit:
                self.stats.retransmits += len(pending)
                self.stats.retransmitted_bytes += sum(
                    bounds[i][1] - bounds[i][0] for i in pending)
            wire_role = ROLE_RETRANSMIT if retransmit else role
            plane = channel.device.host.cluster.fault_plane
            if self.lossy and plane is not None and plane.samples_loss:
                groups, verdicts = zip(*_cut(pending, plane.draw_round(
                    channel.device.host.nic, channel.peer.host, wire_role,
                    len(pending))))
            else:
                groups, verdicts = [[index] for index in pending], None
            spans = []
            for group in groups:
                lo, hi = bounds[group[0]][0], bounds[group[-1]][1]
                spans.append((local_addr + lo, remote_addr + lo, hi - lo))
            round_ = _Round(self.sim, len(pending))
            round_.wrs = dict(zip(channel.memcpy_chain(
                spans, local_region, remote_region, direction, round_.settle,
                inline_data=inline_data, role=wire_role, priority=priority,
                verdicts=verdicts), groups))
            started = self.sim.now
            result = yield self.sim.any_of(
                [round_.gate, self.sim.timeout(limit, _TIMEOUT)])
            timed_out = result is _TIMEOUT
            if timed_out:
                # No CQE (a blackholed verb, or a straggler pushed past
                # the deadline): re-issuing is idempotent, because
                # success is never signaled without the bytes committing.
                self.stats.timeouts += 1
            still_out = [index for index in pending
                         if index not in round_.landed]
            self.stats.failed_completions += len(round_.failed)
            if not still_out:
                return
            cause = "timeout" if timed_out else "error CQE"
            attempt += 1
            if attempt > policy.max_retries:
                self.stats.gave_up += 1
                if not policy.tcp_fallback:
                    raise DeviceError(
                        f"transfer failed after {policy.max_retries} "
                        f"retries: {len(still_out)} of {len(bounds)} "
                        f"chunks still out ({cause})")
                if not channel.degraded:
                    channel.degraded = True
                    self.stats.channels_degraded += 1
                pending = still_out
                continue
            yield (policy.backoff_delay(attempt))
            pending = []
            for index in still_out:
                if index in round_.landed:
                    # Merely late: the completion landed during the
                    # backoff.  Goodput, never re-sent or counted a retry.
                    self.stats.late_completions += 1
                else:
                    pending.append(index)
            if not pending:
                return
            self.stats.retries += 1
            self.stats.retries_by_role[role] = \
                self.stats.retries_by_role.get(role, 0) + 1
            if channel.broken:
                yield (self.cost.qp_reestablish_time)
                channel.reconnect()
                self.stats.qp_reconnects += 1
            lost = sum(bounds[i][1] - bounds[i][0] for i in pending)
            self._trace_retry(channel, role, lost, attempt, cause, started)

    def _fallback(self, channel: RdmaChannel, local_addr: int,
                  remote_addr: int, size: int, direction: Direction,
                  inline_data: Optional[bytes], role: str) -> Generator:
        self.stats.fallback_transfers += 1
        if self.tracer is not None:
            self.tracer.metrics.counter("tcp_fallbacks").add(1)
        yield from channel.fallback_transfer(
            local_addr=local_addr, remote_addr=remote_addr, size=size,
            direction=direction, inline_data=inline_data, role=role)

    def _trace_retry(self, channel: RdmaChannel, role: str, size: int,
                     attempt: int, failure: str, started: float) -> None:
        if self.tracer is None:
            return
        host = channel.device.host.name
        self.tracer.record(
            "retry", f"retry#{attempt} {role or 'transfer'}", host,
            f"recovery:{host}", started, self.sim.now,
            args={"role": role, "size": size, "attempt": attempt,
                  "cause": failure, "peer": str(channel.peer),
                  "retransmit": self.lossy})
        self.tracer.metrics.counter("transfer_retries").add(1)
        if self.lossy:
            self.tracer.metrics.counter("retransmitted_bytes").add(size)

    # -- reporting ---------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        return self.stats.to_dict()


def land(recovery: Optional[RecoveryManager], channel: RdmaChannel, *,
         local_addr: int = 0, local_region: Optional[MemRegion] = None,
         remote_addr: int, remote_region: RemoteMemRegion, size: int,
         direction: Direction, inline_data: Optional[bytes] = None,
         role: str, priority: int, wait: bool = True) -> Generator:
    """Process: move one transfer's bytes (``yield from`` it).

    With a recovery manager — the fault plane is armed — the bytes are
    retried until they land, confirming every completion before the
    next verb goes out.  Otherwise the verb is posted once, and awaited
    only with ``wait``: per-QP FIFO commits in post order, so a verb
    followed by an awaited one on the same QP needs no wait of its own.
    """
    if recovery is not None:
        yield from recovery.reliable_memcpy(
            channel, local_addr=local_addr, local_region=local_region,
            remote_addr=remote_addr, remote_region=remote_region, size=size,
            direction=direction, inline_data=inline_data, role=role,
            priority=priority)
    elif wait:
        yield channel.memcpy_event(
            local_addr, local_region, remote_addr, remote_region, size,
            direction, inline_data=inline_data, role=role, priority=priority)
    else:
        channel.memcpy(
            local_addr, local_region, remote_addr, remote_region, size,
            direction, inline_data=inline_data, role=role, priority=priority)
