"""Property-based tests (hypothesis) for the recovery state machine.

Two liveness/safety properties the chaos sweep's fixed schedules can't
pin down on their own:

* **No deadlock**: for *any* generated fault schedule the executor
  finishes every iteration — each faulted transfer is retried, degraded
  to TCP, or surfaced as an error, never silently parked.
* **No double-consume**: a flag byte is consumed at most once per
  epoch.  Stale duplicates (a retried write whose first copy actually
  landed, e.g. after a straggler-induced spurious timeout) must be
  ignored, which the tests observe as bit-identical numerics: a
  double-consume would hand the receiver a stale tensor and shift
  every later iteration's values.

Workloads are kept tiny so hypothesis can afford dozens of end-to-end
simulator runs.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import RdmaCommRuntime
from repro.core.transfer import EpochLane
from repro.graph import GraphBuilder, Session, minimize
from repro.simnet import Cluster, FaultInjector
from repro.simnet.faults import FaultRule

_SIM_TIME_LIMIT = 30.0  # seconds of simulated time; a hang trips this


def _run_training(injector=None, force_dynamic=False, iterations=3):
    cluster = Cluster(2)
    if injector is not None:
        cluster.install_faults(injector)
    rng = np.random.default_rng(21)
    b = GraphBuilder()
    x = b.placeholder([4, 3], name="x", device="worker0")
    y = b.placeholder([4, 2], name="y", device="worker0")
    w = b.variable([3, 2], name="w", device="ps0",
                   initializer=rng.normal(0, 0.3, (3, 2)))
    loss, _ = b.softmax_cross_entropy(b.matmul(x, w, device="worker0"), y,
                                      name="loss", device="worker0")
    minimize(b, loss, lr=0.4)
    session = Session(cluster, b.finalize(),
                      {"ps0": cluster.hosts[0], "worker0": cluster.hosts[1]},
                      comm=RdmaCommRuntime(force_dynamic=force_dynamic))
    feeds = {"x": rng.normal(size=(4, 3)).astype(np.float32),
             "y": np.eye(4, 2, dtype=np.float32)}
    numerics = []
    for _ in range(iterations):
        session.run(feeds=feeds, time_limit=_SIM_TIME_LIMIT)
        numerics.append(session.numpy("loss").tobytes())
    numerics.append(session.variable("w").array.tobytes())
    return numerics


_BASELINES = {False: _run_training(), True: _run_training(force_dynamic=True)}


def _rules(draw):
    kinds = st.sampled_from(
        ["drop", "blackhole", "partial", "qp_break", "flap", "straggler"])
    n = draw(st.integers(min_value=1, max_value=3))
    rules = []
    for _ in range(n):
        kind = draw(kinds)
        rules.append(FaultRule(
            kind=kind,
            probability=draw(st.floats(min_value=0.0, max_value=0.35)),
            count=draw(st.one_of(st.none(),
                                 st.integers(min_value=0, max_value=4))),
            skip=draw(st.integers(min_value=0, max_value=5)),
            delay=draw(st.sampled_from([1e-4, 1.5e-3, 30e-3])),
            frac=draw(st.floats(min_value=0.0, max_value=0.95)),
        ))
    return rules


schedules = st.composite(_rules)()
seeds = st.integers(min_value=0, max_value=2 ** 31)


class TestRecoveryStateMachine:
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(rules=schedules, seed=seeds)
    def test_random_schedules_never_deadlock_static(self, rules, seed):
        numerics = _run_training(FaultInjector(rules, seed=seed))
        assert numerics == _BASELINES[False]

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(rules=schedules, seed=seeds)
    def test_random_schedules_never_deadlock_dynamic(self, rules, seed):
        numerics = _run_training(FaultInjector(rules, seed=seed),
                                 force_dynamic=True)
        assert numerics == _BASELINES[True]

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=seeds, delay=st.sampled_from([25e-3, 40e-3, 60e-3]))
    def test_spurious_retries_never_double_consume(self, seed, delay):
        """Stragglers past the attempt timeout force duplicate flag
        writes with stale epochs; the receiver must consume each epoch
        exactly once or the numerics shift."""
        injector = FaultInjector(
            [FaultRule(kind="straggler", probability=0.3, delay=delay)],
            seed=seed)
        numerics = _run_training(injector)
        assert numerics == _BASELINES[False]


class TestEpochProtocol:
    """The one epoch lane every flag exchange takes its bytes from."""

    @given(steps=st.integers(min_value=1, max_value=600))
    def test_epochs_cycle_without_touching_empty(self, steps):
        lane = EpochLane()
        previous = None
        for n in range(1, steps + 1):
            epoch = lane.advance()
            assert 1 <= epoch <= 255    # 0 always means "no flag yet"
            assert epoch != previous    # a duplicate is always stale
            assert epoch == (n - 1) % 255 + 1
            previous = epoch

    @given(skip=st.integers(min_value=0, max_value=600))
    def test_epoch_advance_is_a_255_cycle(self, skip):
        lane = EpochLane()
        for _ in range(skip):
            lane.advance()
        cycle = [lane.advance() for _ in range(255)]
        assert sorted(cycle) == list(range(1, 256))
        assert lane.advance() == cycle[0]
