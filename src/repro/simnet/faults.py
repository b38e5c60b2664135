"""Deterministic fault injection for the simulated RDMA fabric.

The paper's protocols assume the fabric never loses a write or breaks
a queue pair mid-transfer; this module makes those assumptions break on
purpose.  A :class:`FaultInjector` installed on a cluster (see
:meth:`repro.simnet.topology.Cluster.install_faults`) is consulted by
the NIC on every posted data verb and renders a :class:`FaultVerdict`:

* ``drop`` — the verb occupies the wire but nothing commits at the
  destination; the sender gets an error CQE (wire-level loss that the
  NIC detects, e.g. a retry-exhausted ACK timeout).
* ``blackhole`` — the verb vanishes without a trace: no commit, **no
  CQE**.  Exercises the recovery layer's per-transfer timeout.
* ``partial`` — a torn write: an ascending-order prefix of the payload
  commits and then the transfer dies, error CQE.  The tail (where the
  protocols put their flag byte) never lands, which is exactly why the
  flag protocol is safe against torn writes.
* ``qp_break`` — like ``partial``, and additionally both ends of the
  queue pair enter the error state: every later verb posted on the QP
  fails fast with a flush status until the channel re-establishes it.
* ``flap`` — the host's NIC is down for a time window; every data verb
  posted in the window fails fast.
* ``loss`` — lossy-fabric packet loss (no PFC): like ``drop`` the verb
  occupies the wire and nothing commits, but the rule's probability is
  *congestion-coupled*.  On a fat tree, trunk links along the routed
  path whose utilization exceeds ``CostModel.ecn_mark_threshold`` both
  ECN-mark the flow (the sender pays ``ecn_pace_delay`` per post) and
  scale the base loss probability by ``1 + ecn_loss_scale * excess``.
  On the flat topology there are no trunk links, so ``loss`` is pure
  probabilistic wire loss.  Arming a ``loss`` rule also switches the
  recovery layer to chunk-granular selective repeat (see
  :mod:`repro.core.recovery`); when that rule is the whole spec, a
  selective-repeat round draws all its chunks' fates at once
  (:meth:`FaultInjector.draw_round`) instead of one verb at a time.
* ``straggler`` — a transient slowdown: the verb departs ``delay``
  seconds late but succeeds (can push a transfer past the recovery
  layer's timeout, making spurious retries reachable in tests).
* ``switch_fail`` — a ToR/spine switch loses its aggregation engine
  for the time window: in-network reductions touching it degrade to
  the host-collective fallback.  Never consulted on the verb path —
  the aggregation plane queries :meth:`FaultInjector.switch_failed`
  instead, and ``host=`` addresses the *switch* name (``tor0``,
  ``spine1``; unset matches every switch).

All randomness comes from one seeded ``random.Random``; draws happen in
verb (or round) post order, which the simulator makes deterministic, so a fault
schedule is a pure function of (spec, seed, workload).  Every injected
fault is appended to :attr:`FaultInjector.injected` so tests can match
retry counts against the schedule exactly.

Verbs with ``role == "control"`` (address-book RPC) are never faulted:
connection setup is out of scope for the recovery layer, which lives in
the transfer protocols.
"""

from __future__ import annotations

import math
import random
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .verbs import WcStatus, WorkRequest


#: fault kinds that terminate the verb (at most one fires per post)
TERMINAL_KINDS = ("drop", "blackhole", "partial", "qp_break", "flap",
                  "loss")
#: all spec-addressable kinds: the additive straggler delay plus the
#: switch-plane ``switch_fail`` (queried by the aggregation plane, never
#: rendered on the verb path)
FAULT_KINDS = TERMINAL_KINDS + ("straggler", "switch_fail")


class FaultSpecError(ValueError):
    """A malformed ``--fault-spec`` string."""


@dataclass
class FaultRule:
    """One clause of a fault spec.

    A rule is *eligible* for a posted verb when the sim time is inside
    ``[after, until)``, the posting host matches ``host`` (if set) and
    the verb's protocol role matches ``role`` (if set; unset matches
    every non-control role).  Eligible posts first burn ``skip``, then
    draw against ``probability``; ``count`` caps total firings so tests
    can assert exact retry counts.
    """

    kind: str
    probability: float = 1.0
    count: Optional[int] = None
    skip: int = 0
    after: float = 0.0
    until: float = float("inf")
    host: Optional[str] = None
    role: Optional[str] = None
    #: extra seconds a straggler adds to the verb's departure
    delay: float = 200e-6
    #: fraction of the payload a partial/qp_break commits before dying
    frac: float = 0.5
    fired: int = 0
    seen: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultSpecError(
                f"unknown fault kind {self.kind!r}; have {FAULT_KINDS}")
        if not 0.0 <= self.probability <= 1.0:
            raise FaultSpecError(f"probability {self.probability} not in [0,1]")
        if not 0.0 <= self.frac < 1.0:
            raise FaultSpecError(f"frac {self.frac} must be in [0,1)")

    def matches(self, now: float, host: str, role: str) -> bool:
        return (self.after <= now < self.until
                and self.host in (None, host) and self.role in (None, role))

    def exhausted(self) -> bool:
        return self.count is not None and self.fired >= self.count


@dataclass(frozen=True)
class FaultVerdict:
    """What the NIC must do to one posted verb."""

    kind: str
    status: WcStatus = WcStatus.SUCCESS
    #: extra departure delay (straggler rules, additive)
    delay: float = 0.0
    #: committed payload fraction for partial/qp_break
    frac: float = 0.0

    @property
    def fail_fast(self) -> bool:
        """Fails at post time, before touching the wire."""
        return self.kind == "flap"

    @property
    def break_qp(self) -> bool:
        return self.kind == "qp_break"

    def commit_size(self, size: int) -> int:
        """Bytes that land at the destination (< size for faults)."""
        if self.kind in ("drop", "blackhole", "flap", "loss"):
            return 0
        if self.kind in ("partial", "qp_break"):
            return min(int(size * self.frac), size - 1) if size else 0
        return size


#: the verdicts of a drawn WR the fabric neither loses nor paces, and
#: of one it loses unpaced
PASS = FaultVerdict(kind="pass")
LOST = FaultVerdict(kind="loss", status=WcStatus.RETRY_EXC_ERR)


def parse_fault_spec(spec: str) -> List[FaultRule]:
    """Parse ``"kind:key=value,...;kind:..."`` into rules.

    Keys: ``p`` (probability), ``count``, ``skip``, ``at``/``after``,
    ``until``, ``for`` (duration, sets ``until = after + for``),
    ``host``, ``role``, ``delay``, ``frac``.  Example::

        drop:p=0.05;flap:host=server1,at=0.001,for=0.0005
    """
    rules: List[FaultRule] = []
    for clause in spec.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        kind, _, rest = clause.partition(":")
        kind = kind.strip().replace("-", "_")
        kwargs: Dict[str, object] = {}
        duration: Optional[float] = None
        for item in filter(None, (s.strip() for s in rest.split(","))):
            key, sep, value = item.partition("=")
            if not sep:
                raise FaultSpecError(f"expected key=value, got {item!r}")
            key = key.strip()
            value = value.strip()
            if key in ("p", "prob", "probability"):
                kwargs["probability"] = float(value)
            elif key == "count":
                kwargs["count"] = int(value)
            elif key == "skip":
                kwargs["skip"] = int(value)
            elif key in ("at", "after"):
                kwargs["after"] = float(value)
            elif key == "until":
                kwargs["until"] = float(value)
            elif key == "for":
                duration = float(value)
            elif key == "host":
                kwargs["host"] = value
            elif key == "role":
                kwargs["role"] = value
            elif key == "delay":
                kwargs["delay"] = float(value)
            elif key == "frac":
                kwargs["frac"] = float(value)
            else:
                raise FaultSpecError(f"unknown fault-spec key {key!r}")
        if duration is not None:
            kwargs["until"] = float(kwargs.get("after", 0.0)) + duration
        try:
            rules.append(FaultRule(kind=kind, **kwargs))  # type: ignore[arg-type]
        except TypeError as exc:
            raise FaultSpecError(str(exc)) from exc
    return rules


class FaultInjector:
    """Seeded, schedulable fault plane for a cluster's RDMA fabric."""

    def __init__(self, rules: Optional[List[FaultRule]] = None,
                 seed: int = 0) -> None:
        self.rules: List[FaultRule] = list(rules or [])
        #: the rules a verb's walk consults (switch-plane rules never
        #: touch the verb path), and the ``loss`` ones, all an uplink's does
        self._verb_rules = [r for r in self.rules if r.kind != "switch_fail"]
        self._loss_rules = [r for r in self.rules if r.kind == "loss"]
        self.seed = seed
        self._rng = random.Random(seed)
        #: chronological log of every injected fault (dicts, so a
        #: ``RunStats.faults`` snapshot is JSON-able and comparable)
        self.injected: List[Dict[str, object]] = []
        #: cached per-(rule, switch) draws for ``switch_fail`` rules
        self._switch_draws: Dict[Tuple[int, str], bool] = {}

    @classmethod
    def from_spec(cls, spec: str, seed: int = 0) -> "FaultInjector":
        return cls(parse_fault_spec(spec), seed=seed)

    @property
    def armed(self) -> bool:
        """Whether any rule exists.

        An installed-but-empty injector is *not* armed: the NIC's fast
        path and the comm runtime's recovery gating both key off this,
        so an empty spec stays bit-identical to no injector at all.
        """
        return bool(self.rules)

    @property
    def has_loss(self) -> bool:
        """Whether any ``loss`` rule is armed (selective-repeat gate)."""
        return bool(self._loss_rules)

    @property
    def samples_loss(self) -> bool:
        """Whether the spec is one ``loss`` clause alone: a round of
        chunks can then be drawn at once (:meth:`draw_round`), because
        no other rule's draw interleaves with its chunks'."""
        return len(self.rules) == 1 and self.rules[0].kind == "loss"

    def _ecn_factor(self, nic, dst: str) -> Tuple[float, float]:
        """Congestion coupling for one post: (probability multiplier,
        pacing delay).

        Walks the routed fabric path and takes the hottest trunk link's
        running utilization; beyond ``ecn_mark_threshold`` the flow is
        ECN-marked (sender pacing) and its loss probability scales with
        the excess.  Flat topology / own host → (1, 0).
        """
        fabric = getattr(nic.host.cluster, "fabric", None)
        if fabric is None or dst == nic.host.name:
            return 1.0, 0.0
        cost = nic.cost
        now = nic.sim.now
        horizon = max(now, cost.ecn_utilization_horizon)
        util = 0.0
        for link in fabric.route(nic.host.name, dst):
            if link.trunk:
                util = max(util, link.utilization(horizon))
        over = util - cost.ecn_mark_threshold
        if over <= 0.0:
            return 1.0, 0.0
        return 1.0 + cost.ecn_loss_scale * over, cost.ecn_pace_delay

    def draw_round(self, nic, dst: str, role: str, count: int
                   ) -> List[Tuple[int, FaultVerdict]]:
        """The fates of ``count`` chunk WRs posted now in one chain, for
        a spec of one ``loss`` clause (:attr:`samples_loss`), as
        segments ``(end, verdict)``: the positions from the previous
        segment's end up to ``end`` take ``verdict`` (``wr.verdict``).
        A lost chunk is a segment of its own.

        Equal in distribution to ``count`` :meth:`on_post` walks at the
        same instant, whose window, host and role cannot change: ``skip``
        burns the first posts, each loss is one geometric gap at
        ``p × ECN factor``, and a spent ``count`` stops the rule seeing
        the rest.  The ECN factor is read once, before the round's own
        bookings, and paces only the posts the rule draws for.
        """
        rule = self.rules[0]
        now = nic.sim.now
        if (role == "control" or rule.exhausted()
                or not rule.matches(now, nic.host.name, role)):
            return [(count, PASS)]
        segments: List[Tuple[int, FaultVerdict]] = []
        index = min(count, max(rule.skip - rule.seen, 0))
        rule.seen += index
        if index:
            segments.append((index, PASS))
        factor, pace = self._ecn_factor(nic, dst)
        probability = min(1.0, rule.probability * factor)
        clean, lost = PASS, LOST
        if pace:
            clean = FaultVerdict(kind="straggler", delay=pace)
            lost = FaultVerdict(kind="loss", status=WcStatus.RETRY_EXC_ERR,
                                delay=pace)
        while index < count and not rule.exhausted():
            gap = self._gap(probability, count)
            if gap >= count - index:
                break
            if gap:
                segments.append((index + gap, clean))
            index += gap + 1
            rule.seen += gap + 1
            rule.fired += 1
            segments.append((index, lost))
        if index < count:
            if rule.exhausted():
                segments.append((count, PASS))
            else:
                rule.seen += count - index
                segments.append((count, clean))
        return segments

    def _gap(self, probability: float, never: int) -> int:
        """Clean posts before the next loss, Geometric(``probability``)
        on {0, 1, ...}: one draw, by inverting a uniform in (0, 1].
        ``never`` stands for "no loss" at probability 0."""
        if probability >= 1.0:
            return 0
        if probability <= 0.0:
            return never
        return int(math.log(1.0 - self._rng.random())
                   / math.log1p(-probability))

    def on_post(self, nic, qp, wr: WorkRequest,
                dst: Optional[str] = None) -> Optional[FaultVerdict]:
        """Render the verdict for one posted verb (None = untouched):
        :meth:`_walk` over the verb rules, with ``dst`` (the destination
        host name, when the caller knows it) for the ECN coupling of
        ``loss`` rules.  A WR whose round was drawn (:meth:`draw_round`)
        carries its verdict: it is rendered, and logged if lost, without
        a second draw.
        """
        drawn = wr.verdict
        if drawn is not None:
            if drawn.kind == "loss":
                self._log(nic, "loss", nic.sim.now, wr.role,
                          wr.opcode.value, wr.size, wr.wr_id)
            return None if drawn is PASS else drawn
        if wr.role == "control" or not self._verb_rules:
            return None
        return self._walk(nic, self._verb_rules, wr.role, wr.opcode.value,
                          wr.size, wr.wr_id, dst)

    def on_uplink(self, nic, role: str, size: int) -> bool:
        """Loss-only consultation for one switch-aggregation uplink chunk.

        These chunks book the wire directly, so :meth:`on_post` never
        sees them: they take its walk over the ``loss`` rules with no
        destination, so no ECN coupling (an uplink ends at its ToR,
        before any trunk).  Returns whether the attempt was lost; the
        caller re-issues it as retransmit traffic, and the loss is
        logged with its size, so retransmitted bytes equal lost ones."""
        return self._walk(nic, self._loss_rules, role, "RDMA_WRITE", size,
                          None, None) is not None

    def _walk(self, nic, rules: List[FaultRule], role: str, opcode: str,
              size: int, wr_id: Optional[int], dst: Optional[str]
              ) -> Optional[FaultVerdict]:
        """One post's walk over ``rules``: its verdict, None if untouched.

        Straggler delays accumulate across matching rules; the first
        terminal rule to fire wins and stops the walk.  RNG draws are
        made only for eligible probabilistic rules, in spec order, so
        the schedule is deterministic given the workload.  A ``loss``
        rule reads the ECN coupling only for a post with a ``dst``.
        """
        now = nic.sim.now
        host = nic.host.name
        delay = 0.0
        terminal: Optional[FaultRule] = None
        for rule in rules:
            if rule.exhausted() or not rule.matches(now, host, role):
                continue
            rule.seen += 1
            if rule.seen <= rule.skip:
                continue
            probability = rule.probability
            if rule.kind == "loss" and dst is not None:
                factor, pace = self._ecn_factor(nic, dst)
                probability = min(1.0, probability * factor)
                delay += pace
            if probability < 1.0 and self._rng.random() >= probability:
                continue
            rule.fired += 1
            self._log(nic, rule.kind, now, role, opcode, size, wr_id)
            if rule.kind == "straggler":
                delay += rule.delay
                continue
            terminal = rule
            break
        if terminal is None:
            return None if delay == 0.0 else FaultVerdict(
                kind="straggler", delay=delay)
        status = (WcStatus.WR_FLUSH_ERR if terminal.kind == "qp_break"
                  else WcStatus.RETRY_EXC_ERR)
        return FaultVerdict(kind=terminal.kind, status=status, delay=delay,
                            frac=terminal.frac)

    def _log(self, nic, kind: str, now: float, role: str, opcode: str,
             size: int, wr_id: Optional[int] = None) -> None:
        # wr_id is drawn from a process-global counter and so differs
        # between back-to-back runs; keep the log run-deterministic.
        self.injected.append({
            "time": now, "kind": kind, "host": nic.host.name,
            "role": role, "opcode": opcode, "size": size,
        })
        tracer = nic.host.cluster.tracer
        if tracer is not None:
            tracer.record("fault", f"{kind} {role or opcode}",
                          nic.host.name, "nic:faults", now, now,
                          args={"kind": kind, "role": role,
                                "wr_id": wr_id, "size": size})
            tracer.metrics.counter("faults_injected").add(1)

    def switch_failed(self, name: str, now: float) -> bool:
        """Whether switch ``name`` has lost its aggregation engine.

        ``switch_fail`` rules address switches via ``host=`` (the
        switch's node name; unset matches every switch) inside the
        usual ``[after, until)`` window.  Each (rule, switch) pair gets
        one probability draw, cached for the run and seeded from
        ``(seed, rule, switch)`` independently of the verb-fault RNG —
        querying the plane never perturbs the verb fault schedule.
        """
        if not self.rules:
            return False
        failed = False
        for index, rule in enumerate(self.rules):
            if rule.kind != "switch_fail":
                continue
            if not rule.after <= now < rule.until:
                continue
            if rule.host is not None and rule.host != name:
                continue
            key = (index, name)
            verdict = self._switch_draws.get(key)
            if verdict is None:
                if rule.exhausted():
                    continue
                draw = random.Random(
                    self.seed * 1000003
                    + zlib.crc32(f"{index}|{name}".encode()))
                verdict = draw.random() < rule.probability
                self._switch_draws[key] = verdict
                if verdict:
                    rule.fired += 1
                    self.injected.append({
                        "time": now, "kind": "switch_fail", "host": name,
                        "role": "in-network-aggregate", "opcode": "switch",
                        "size": 0,
                    })
            failed = failed or verdict
        return failed

    # -- reporting ---------------------------------------------------------------

    def counts_by_kind(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for entry in self.injected:
            kind = str(entry["kind"])
            out[kind] = out.get(kind, 0) + 1
        return out

    def snapshot(self) -> Dict[str, object]:
        """JSON-able summary for ``RunStats.faults``."""
        return {
            "seed": self.seed,
            "total": len(self.injected),
            "by_kind": self.counts_by_kind(),
            "log": [dict(entry) for entry in self.injected],
        }
