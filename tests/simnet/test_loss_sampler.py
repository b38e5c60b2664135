"""The round sampler of the ``loss`` fault kind.

A selective-repeat round asks the fault plane once which of its chunks
the fabric loses (:meth:`FaultInjector.draw_round`): one geometric gap
per loss instead of one uniform draw per chunk.  The statistical tests
pin that the losses are still independent Bernoulli(p) per chunk; the
exact cases pin that ``skip``, ``count``, the ``[after, until)`` window,
``host`` and ``role`` act as :meth:`FaultInjector.on_post` would on the
same posts, one by one, at the same instant.
"""

import math
import types

import pytest

from repro.simnet import Opcode, WorkRequest
from repro.simnet.faults import PASS, FaultInjector

#: chi-square 0.999 quantile at 9 degrees of freedom (10 bins): a
#: correct sampler fails one fixed seed in a thousand
CHI2_999_DOF9 = 27.877
#: loss counts must fall within this many binomial standard deviations
#: of n·p (two-sided, about 6e-7 for a correct sampler)
SIGMAS = 5.0


def _nic(now=0.0, host="server0"):
    """Just enough NIC surface for draw_round and on_post (no fabric:
    the ECN factor is 1)."""
    return types.SimpleNamespace(
        sim=types.SimpleNamespace(now=now),
        host=types.SimpleNamespace(
            name=host, cluster=types.SimpleNamespace(tracer=None)))


def _fates(segments):
    """Per-position verdict kinds of one drawn round."""
    out, start = [], 0
    for end, verdict in segments:
        out += [verdict.kind] * (end - start)
        start = end
    return out


def _lost_positions(plane, chunks, round_size):
    """Positions, in the whole chunk sequence, that ``plane`` loses when
    ``chunks`` chunk posts go out in rounds of ``round_size``."""
    lost, base = [], 0
    while base < chunks:
        size = min(round_size, chunks - base)
        start = 0
        for end, verdict in plane.draw_round(_nic(), None, "x", size):
            if verdict.kind == "loss":
                assert end == start + 1, "a lost chunk is its own segment"
                lost.append(base + start)
            start = end
        assert start == size
        base += size
    return lost


@pytest.mark.parametrize("p,chunks,round_size", [
    (1e-3, 1_000_000, 1024),
    (0.05, 200_000, 45),
], ids=["p1e-3", "p0.05"])
def test_losses_are_bernoulli_per_chunk(p, chunks, round_size):
    plane = FaultInjector.from_spec(f"loss:p={p}", seed=7)
    lost = _lost_positions(plane, chunks, round_size)
    # The count: Binomial(chunks, p).
    mean = chunks * p
    sigma = math.sqrt(chunks * p * (1 - p))
    assert abs(len(lost) - mean) < SIGMAS * sigma, (len(lost), mean, sigma)
    assert plane.rules[0].fired == len(lost)
    assert plane.rules[0].seen == chunks
    # The gaps between consecutive losses, across round boundaries
    # too: Geometric(p) on {0, 1, ...}, in ten bins of (about) equal
    # mass, P(gap >= k) = (1 - p)^k.
    gaps = [b - a - 1 for a, b in zip(lost, lost[1:])]
    q = 1.0 - p
    edges = sorted({math.ceil(math.log(1 - i / 10) / math.log(q))
                    for i in range(1, 10)})
    assert len(edges) == 9
    bounds = [0] + edges + [None]
    chi2 = 0.0
    for lo, hi in zip(bounds, bounds[1:]):
        mass = q ** lo - (q ** hi if hi is not None else 0.0)
        expected = mass * len(gaps)
        assert expected >= 5
        seen = sum(1 for g in gaps if g >= lo and (hi is None or g < hi))
        chi2 += (seen - expected) ** 2 / expected
    assert chi2 < CHI2_999_DOF9, chi2


def test_rounds_draw_once_per_loss():
    """The sampler's cost is per loss: a round of 100,000 chunks at
    p = 1e-3 makes one uniform draw per loss and one for the tail."""
    plane = FaultInjector.from_spec("loss:p=0.001", seed=3)
    calls = []
    uniform = plane._rng.random

    def counted():
        calls.append(1)
        return uniform()
    plane._rng = types.SimpleNamespace(random=counted)
    segments = plane.draw_round(_nic(), None, "x", 100_000)
    lost = sum(1 for _end, verdict in segments if verdict.kind == "loss")
    assert len(calls) == lost + 1


def _walk(spec, rounds, *, now=0.0, host="server0", role="x"):
    """Per-position fates two ways: a fresh plane drawing each round
    at once, and a fresh plane walking each post through on_post."""
    drawn_plane = FaultInjector.from_spec(spec, seed=1)
    walked_plane = FaultInjector.from_spec(spec, seed=1)
    drawn, walked = [], []
    for size in rounds:
        drawn.append(_fates(drawn_plane.draw_round(
            _nic(now, host), None, role, size)))
        fates = []
        for _ in range(size):
            verdict = walked_plane.on_post(
                _nic(now, host), None,
                WorkRequest(opcode=Opcode.WRITE, size=64, role=role))
            fates.append("pass" if verdict is None else verdict.kind)
        walked.append(fates)
    drawn_rule, walked_rule = drawn_plane.rules[0], walked_plane.rules[0]
    assert (drawn_rule.seen, drawn_rule.fired) == \
        (walked_rule.seen, walked_rule.fired)
    assert drawn == walked
    return drawn, drawn_rule


class TestExactCases:
    def test_skip_then_count(self):
        (fates,), rule = _walk("loss:p=1,count=1,skip=4", [10])
        assert fates == ["pass"] * 4 + ["loss"] + ["pass"] * 5
        # Once spent, the rule sees no more posts.
        assert (rule.seen, rule.fired) == (5, 1)

    def test_skip_and_count_span_rounds(self):
        fates, rule = _walk("loss:p=1,count=3,skip=3", [2, 3, 4, 5])
        assert fates == [["pass", "pass"], ["pass", "loss", "loss"],
                         ["loss", "pass", "pass", "pass"], ["pass"] * 5]
        assert (rule.seen, rule.fired) == (6, 3)

    @pytest.mark.parametrize("now,expect", [
        (0.0009, "pass"), (0.001, "loss"), (0.0019, "loss"),
        (0.002, "pass")])
    def test_window_is_half_open(self, now, expect):
        (fates,), _ = _walk("loss:p=1,after=0.001,until=0.002", [3],
                            now=now)
        assert fates == [expect] * 3

    def test_host_and_role_filters(self):
        spec = "loss:p=1,host=server1,role=static-write"
        (fates,), rule = _walk(spec, [4], host="server0",
                               role="static-write")
        assert fates == ["pass"] * 4 and rule.seen == 0
        (fates,), _ = _walk(spec, [4], host="server1", role="retransmit")
        assert fates == ["pass"] * 4
        (fates,), _ = _walk(spec, [4], host="server1", role="static-write")
        assert fates == ["loss"] * 4

    def test_control_is_never_drawn(self):
        plane = FaultInjector.from_spec("loss:p=1", seed=0)
        assert plane.draw_round(_nic(), None, "control", 8) == [(8, PASS)]
        assert plane.rules[0].seen == 0

    def test_zero_probability_sees_every_post(self):
        plane = FaultInjector.from_spec("loss:p=0", seed=0)
        assert plane.draw_round(_nic(), None, "x", 8) == [(8, PASS)]
        assert plane.rules[0].seen == 8

    def test_ecn_is_read_once_per_round_and_paces_drawn_posts(self):
        plane = FaultInjector.from_spec("loss:p=0.5,skip=2", seed=0)
        reads = []

        def ecn(nic, dst):
            reads.append(dst)
            return 2.0, 1e-6  # doubles p, paces each post 1 us
        plane._ecn_factor = ecn
        segments = plane.draw_round(_nic(), "server1", "x", 64)
        assert reads == ["server1"]
        # p × factor = 1: every post past the skip is lost and paced;
        # the skipped posts are neither, as in on_post.
        assert segments[0] == (2, PASS)
        assert len(segments) == 1 + 62
        assert all(verdict.kind == "loss" and verdict.delay == 1e-6
                   for _end, verdict in segments[1:])

    def test_only_a_lone_loss_clause_samples(self):
        assert FaultInjector.from_spec("loss:p=0.1").samples_loss
        for spec in ("drop:p=0.1", "loss:p=0.1;loss:p=0.2",
                     "loss:p=0.1;straggler:p=0.2"):
            assert not FaultInjector.from_spec(spec).samples_loss

    def test_a_drawn_verdict_is_rendered_not_redrawn(self):
        plane = FaultInjector.from_spec("loss:p=0.5", seed=0)
        segments = plane.draw_round(_nic(), None, "x", 64)
        state = plane._rng.getstate()
        for _end, verdict in segments:
            wr = WorkRequest(opcode=Opcode.WRITE, size=64, role="x",
                             verdict=verdict)
            rendered = plane.on_post(_nic(), None, wr)
            assert rendered is (None if verdict is PASS else verdict)
        assert plane._rng.getstate() == state
        lost = sum(1 for _end, verdict in segments if verdict.kind == "loss")
        assert [e["kind"] for e in plane.injected] == ["loss"] * lost
