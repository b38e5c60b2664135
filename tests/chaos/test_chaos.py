"""Seeded chaos suite: every fixed seed must recover to exact numerics.

Each workload runs twice per seed: once fault-free (computed once and
cached — the injector seed doesn't change the clean run) and once with
a seeded fault schedule injected into the fabric.  The faulted run must

* complete (no deadlock, no crash),
* produce **bit-identical numerics** to the fault-free run — retries
  re-issue the same bytes, epochs keep stale flags from being consumed,
  so faults may only ever cost time, and
* retry exactly once per injected terminal fault, which pins the
  recovery layer's accounting to the injector's schedule.

The spec below uses only terminal kinds whose error surfaces stay on
the faulted verb (drop / blackhole / partial): those retry 1:1 with the
schedule.  qp_break additionally flush-fails innocent verbs posted on
the broken pair and stragglers cause spurious timeout retries, so those
kinds get completion + numerics (not exact-count) coverage in
``TestChaosOtherKinds``.
"""

import numpy as np
import pytest

from repro.collectives import ring_allreduce
from repro.core import RdmaCommRuntime
from repro.graph import GraphBuilder, Session, minimize
from repro.simnet import Cluster, FaultInjector

SEEDS = list(range(20))

#: terminal-only schedule: each injected fault costs exactly one retry
CHAOS_SPEC = "drop:p=0.08;partial:p=0.05,frac=0.6;blackhole:p=0.03"


# -- workloads -------------------------------------------------------------------------


def _install(cluster, fault_spec, seed):
    if fault_spec:
        cluster.install_faults(FaultInjector.from_spec(fault_spec, seed=seed))


def _run_ps_training(fault_spec=None, seed=0, force_dynamic=False,
                     qp_mode="rc"):
    """PS-style training: static writes (or dynamic metadata+read)."""
    cluster = Cluster(2)
    _install(cluster, fault_spec, seed)
    rng = np.random.default_rng(7)
    b = GraphBuilder()
    x = b.placeholder([8, 4], name="x", device="worker0")
    y = b.placeholder([8, 2], name="y", device="worker0")
    w = b.variable([4, 2], name="w", device="ps0",
                   initializer=rng.normal(0, 0.3, (4, 2)))
    logits = b.matmul(x, w, device="worker0")
    loss, _ = b.softmax_cross_entropy(logits, y, name="loss",
                                      device="worker0")
    minimize(b, loss, lr=0.5)
    comm = RdmaCommRuntime(force_dynamic=force_dynamic, qp_mode=qp_mode)
    session = Session(cluster, b.finalize(),
                      {"ps0": cluster.hosts[0], "worker0": cluster.hosts[1]},
                      comm=comm)
    x_val = rng.normal(size=(8, 4)).astype(np.float32)
    y_val = np.eye(8, 2, dtype=np.float32)
    numerics = []
    for _ in range(5):
        session.run(feeds={"x": x_val, "y": y_val})
        numerics.append(session.numpy("loss").tobytes())
    numerics.append(session.variable("w").array.tobytes())
    return numerics, cluster, comm


def _run_static(fault_spec=None, seed=0, qp_mode="rc"):
    return _run_ps_training(fault_spec, seed, force_dynamic=False,
                            qp_mode=qp_mode)


def _run_dynamic(fault_spec=None, seed=0):
    return _run_ps_training(fault_spec, seed, force_dynamic=True)


def _run_allreduce(fault_spec=None, seed=0):
    """Ring allreduce over three workers: collective-chunk transfers."""
    rng = np.random.default_rng(13)
    arrays = [rng.integers(-8, 8, size=24).astype(np.float32)
              for _ in range(3)]
    builder = GraphBuilder("chaos-ring")
    devices = [f"worker{i}" for i in range(3)]
    inputs = [builder.constant(a, name=f"in{i}", device=dev)
              for i, (a, dev) in enumerate(zip(arrays, devices))]
    outputs = ring_allreduce(builder, inputs, devices)
    cluster = Cluster(3)
    _install(cluster, fault_spec, seed)
    comm = RdmaCommRuntime()
    session = Session(cluster, builder.finalize(),
                      {dev: cluster.hosts[i]
                       for i, dev in enumerate(devices)},
                      comm=comm)
    session.run(iterations=2)
    numerics = [session.numpy(out.node.name, out.index).tobytes()
                for out in outputs]
    return numerics, cluster, comm


WORKLOADS = {
    "static": _run_static,
    "dynamic": _run_dynamic,
    "allreduce": _run_allreduce,
}

_baselines = {}


def _baseline(workload):
    if workload not in _baselines:
        numerics, _, comm = WORKLOADS[workload]()
        assert comm.recovery_snapshot() is None  # fault-free: no recovery
        _baselines[workload] = numerics
    return _baselines[workload]


def _assert_recovered(workload, seed):
    numerics, cluster, comm = WORKLOADS[workload](CHAOS_SPEC, seed)
    assert numerics == _baseline(workload), \
        f"{workload} numerics diverged under fault seed {seed}"
    injected = cluster.fault_plane.injected
    recovery = comm.recovery_snapshot()
    assert recovery is not None
    assert recovery["gave_up"] == 0, \
        f"seed {seed} exhausted a retry budget; raise it or lower p"
    assert recovery["retries"] == len(injected), \
        (f"{workload} seed {seed}: {recovery['retries']} retries != "
         f"{len(injected)} injected faults: {cluster.fault_plane.snapshot()}")
    return len(injected)


# -- the seeded sweep ------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_static_workload_recovers(seed):
    _assert_recovered("static", seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_dynamic_workload_recovers(seed):
    _assert_recovered("dynamic", seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_allreduce_workload_recovers(seed):
    _assert_recovered("allreduce", seed)


def test_sweep_actually_injects_faults():
    """Guard against a silently toothless sweep: across the fixed
    seeds, every workload must see a nonzero number of faults."""
    for workload in WORKLOADS:
        total = sum(_assert_recovered(workload, seed) for seed in SEEDS[:8])
        assert total > 0, f"{workload}: no faults injected over 8 seeds"


# -- kinds excluded from the exact-count sweep ----------------------------------------


class TestChaosOtherKinds:
    # a broken shared endpoint heals through SharedChannel.reconnect,
    # a broken RC pair through RdmaChannel.reconnect; both back to the
    # RC run's numerics
    @pytest.mark.parametrize("qp_mode,seed", [
        *[pytest.param("rc", seed, id=str(seed)) for seed in range(5)],
        *[pytest.param("shared", seed, id=f"shared-{seed}")
          for seed in range(5)]])
    def test_qp_break_heals_to_identical_numerics(self, qp_mode, seed):
        numerics, cluster, comm = _run_static(
            f"qp_break:count=1,skip={seed * 3}", seed, qp_mode=qp_mode)
        assert numerics == _baseline("static")
        recovery = comm.recovery_snapshot()
        assert recovery["qp_reconnects"] >= 1
        assert recovery["gave_up"] == 0
        assert cluster.fault_plane.counts_by_kind() == {"qp_break": 1}

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_stragglers_only_cost_time(self, seed):
        # 30 ms extra departure latency exceeds the per-attempt
        # timeout, so the recovery layer retries a transfer that was
        # never lost — the duplicate must be harmless (epoch flags).
        numerics, cluster, comm = _run_static(
            "straggler:p=0.2,delay=30e-3", seed)
        assert numerics == _baseline("static")
        recovery = comm.recovery_snapshot()
        assert recovery["gave_up"] == 0
        if cluster.fault_plane.injected:
            assert recovery["timeouts"] >= 1

    def test_flap_window_recovers(self):
        numerics, cluster, comm = _run_static(
            "flap:host=server1,at=0.0,for=2e-4", 0)
        assert numerics == _baseline("static")
        assert cluster.fault_plane.counts_by_kind().get("flap", 0) >= 1
        assert comm.recovery_snapshot()["gave_up"] == 0
