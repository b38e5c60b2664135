"""Wire-byte identity tests: analytic formulas vs measured traffic.

Each collective has a closed-form per-worker egress volume:

* flat ring — ``2·M·(N-1)/N`` (reduce-scatter + all-gather);
* halving-doubling — the same ``2·M·(N-1)/N`` at power-of-two N;
* hierarchical — intra-rack ring twice over ``H`` hosts plus the
  leaders' inter-rack exchange amortized across the rack;
* in-network — ``M``: each worker writes its gradient up to the ToR
  once and receives the reduced result back once.

The simulator is deterministic and the metrics layer counts every
payload byte, so the measured steady-state egress must match the
formula to 1% — a drift means the collective changed shape, not noise.
"""

import pytest

from repro.collectives import (hierarchical_wire_bytes,
                               innetwork_wire_bytes,
                               innetwork_uplink_bytes)
from repro.distributed import run_training_benchmark
from repro.models import get_model
from repro.simnet.verbs import (ROLE_INNETWORK_AGGREGATE,
                                ROLE_INNETWORK_RESULT,
                                ROLE_INNETWORK_TRUNK, ROLE_RETRANSMIT)


@pytest.fixture(scope="module")
def fcn5():
    return get_model("FCN-5")


def _steady_bytes_by_role(result):
    """Measured bytes per role per steady step, averaged over workers.

    Mirrors ``wire_bytes_per_worker`` (same steady window, same
    per-host averaging) but keeps the per-role breakdown.
    """
    steady_start = result.stats.iteration_end_times[0]
    steady_iterations = len(result.stats.iteration_end_times) - 1
    workers = set(result.worker_hosts)
    by_role = {}
    for t in result.metrics.transfers:
        if t.start >= steady_start and t.src_host in workers:
            by_role[t.role] = by_role.get(t.role, 0) + t.nbytes
    return {role: total / (len(workers) * steady_iterations)
            for role, total in by_role.items()}


def _run(spec, strategy, n, **extra):
    result = run_training_benchmark(
        spec, "RDMA", num_servers=n, batch_size=8, iterations=3,
        strategy=strategy, collect_metrics=True, **extra)
    assert not result.crashed, result.crash_reason
    return result


def test_ring_identity(fcn5):
    n, M = 4, fcn5.model_bytes
    result = _run(fcn5, "ring", n)
    assert result.wire_bytes_per_worker() == \
        pytest.approx(2.0 * M * (n - 1) / n, rel=0.01)


def test_halving_doubling_identity(fcn5):
    # Power-of-two N: recursive halving/doubling moves the same
    # 2·M·(N-1)/N as the ring, just in log(N) rounds.
    n, M = 4, fcn5.model_bytes
    result = _run(fcn5, "halving-doubling", n)
    assert result.wire_bytes_per_worker() == \
        pytest.approx(2.0 * M * (n - 1) / n, rel=0.01)


def test_hierarchical_identity(fcn5):
    n, hosts_per_rack = 8, 4
    result = _run(fcn5, "hierarchical", n, topology="fat-tree",
                  hosts_per_rack=hosts_per_rack)
    predicted = hierarchical_wire_bytes(fcn5.model_bytes, n,
                                        hosts_per_rack)
    assert result.wire_bytes_per_worker() == \
        pytest.approx(predicted, rel=0.01)


def test_innetwork_identity(fcn5):
    # The tentpole claim: switch aggregation cuts per-worker egress
    # from 2·M·(N-1)/N to exactly M.
    n, M = 8, fcn5.model_bytes
    result = _run(fcn5, "innetwork", n, topology="fat-tree",
                  hosts_per_rack=4)
    measured = result.wire_bytes_per_worker()
    assert measured == pytest.approx(M, rel=0.01)
    assert innetwork_wire_bytes(M, n) == M
    # All steady worker egress carries the aggregate role: nothing
    # spilled to the host path, nothing rode a different collective.
    by_role = _steady_bytes_by_role(result)
    assert by_role[ROLE_INNETWORK_AGGREGATE] == pytest.approx(M, rel=0.01)
    assert set(by_role) == {ROLE_INNETWORK_AGGREGATE}


def test_innetwork_result_bytes_match_model(fcn5):
    # Downstream identity: each worker also receives exactly M back.
    n, M = 8, fcn5.model_bytes
    result = _run(fcn5, "innetwork", n, topology="fat-tree",
                  hosts_per_rack=4)
    steady_start = result.stats.iteration_end_times[0]
    steady = len(result.stats.iteration_end_times) - 1
    workers = set(result.worker_hosts)
    landed = sum(t.nbytes for t in result.metrics.transfers
                 if t.start >= steady_start and t.dst_host in workers
                 and t.role == ROLE_INNETWORK_RESULT)
    assert landed / (len(workers) * steady) == pytest.approx(M, rel=0.01)


def test_innetwork_trunk_identity(fcn5):
    # Each rack's trunk carries its partial up and the result down:
    # 2·M per rack per step, independent of rack width.
    n, hosts_per_rack, M = 8, 4, fcn5.model_bytes
    racks = n // hosts_per_rack
    result = _run(fcn5, "innetwork", n, topology="fat-tree",
                  hosts_per_rack=hosts_per_rack)
    steady_start = result.stats.iteration_end_times[0]
    steady = len(result.stats.iteration_end_times) - 1
    trunk = sum(t.nbytes for t in result.metrics.transfers
                if t.start >= steady_start
                and t.role == ROLE_INNETWORK_TRUNK)
    per_rack = innetwork_uplink_bytes(M, racks)
    assert per_rack == 2 * M
    assert trunk / (racks * steady) == pytest.approx(per_rack, rel=0.01)


def _total_bytes_by_role(result):
    """Whole-run wire bytes by role (no steady window): comparable to
    the fault plane's whole-run injected log."""
    by_role = {}
    for t in result.metrics.transfers:
        by_role[t.role] = by_role.get(t.role, 0) + t.nbytes
    return by_role


def _injected_loss_bytes(result):
    log = result.stats.faults["injected"]["log"]
    return sum(e["size"] for e in log if e["kind"] == "loss")


def test_ring_loss_retransmit_byte_identity(fcn5):
    """The loss-tolerant transport's wire accounting, both halves:

    * goodput identity — every original role's byte total is exactly
      the loss-free volume (first attempts keep their role, even when
      the fabric eats them, and late originals are never re-sent);
    * retransmit identity — ``ROLE_RETRANSMIT`` bytes equal the
      injected-loss bytes exactly, one re-issue per loss event.
    """
    n = 4
    clean = _run(fcn5, "ring", n)
    lossy = _run(fcn5, "ring", n, loss_rate=2e-3, fault_seed=5)
    clean_roles = _total_bytes_by_role(clean)
    lossy_roles = _total_bytes_by_role(lossy)
    lost = _injected_loss_bytes(lossy)
    assert lost > 0, "seed produced no losses; pick another"
    recovery = lossy.stats.faults["recovery"]
    assert recovery["gave_up"] == 0
    retransmitted = lossy_roles.pop(ROLE_RETRANSMIT)
    assert retransmitted == lost
    assert retransmitted == recovery["retransmitted_bytes"]
    assert lossy_roles == clean_roles


def test_hierarchical_loss_retransmit_byte_identity(fcn5):
    n, hosts_per_rack = 8, 4
    kwargs = dict(topology="fat-tree", hosts_per_rack=hosts_per_rack)
    clean = _run(fcn5, "hierarchical", n, **kwargs)
    lossy = _run(fcn5, "hierarchical", n, loss_rate=2e-3, fault_seed=5,
                 **kwargs)
    lost = _injected_loss_bytes(lossy)
    assert lost > 0
    assert lossy.stats.faults["recovery"]["gave_up"] == 0
    clean_roles = _total_bytes_by_role(clean)
    lossy_roles = _total_bytes_by_role(lossy)
    assert lossy_roles.pop(ROLE_RETRANSMIT) == lost
    assert lossy_roles == clean_roles


def test_innetwork_loss_retransmit_byte_identity(fcn5):
    """Aggregation uplinks bypass the verb path; their loss hook must
    keep the same identity: lost uplink chunks burn wire under their
    original role and come back as exactly-matching retransmit bytes."""
    n = 8
    kwargs = dict(topology="fat-tree", hosts_per_rack=4)
    clean = _run(fcn5, "innetwork", n, **kwargs)
    lossy = _run(fcn5, "innetwork", n, loss_rate=2e-3, fault_seed=5,
                 **kwargs)
    lost = _injected_loss_bytes(lossy)
    assert lost > 0
    clean_roles = _total_bytes_by_role(clean)
    lossy_roles = _total_bytes_by_role(lossy)
    assert lossy_roles.pop(ROLE_RETRANSMIT, 0) == lost
    assert lossy_roles == clean_roles


def test_loss_free_metrics_identical_in_shared_qp_mode(fcn5):
    """Same transfers, same roles, same bytes: the shared-endpoint data
    plane moves identical wire traffic to RC when nothing is lost."""
    rc = _run(fcn5, "ring", 4)
    shared = _run(fcn5, "ring", 4, qp_mode="shared")
    assert _total_bytes_by_role(shared) == _total_bytes_by_role(rc)
    assert shared.stats.iteration_times == rc.stats.iteration_times


def test_innetwork_beats_ring_on_the_wire(fcn5):
    # The comparative identity the whole backend exists for: ~M vs
    # ~2M per worker at N=8 (ring sends 1.75M).
    n = 8
    ring = _run(fcn5, "ring", n)
    innet = _run(fcn5, "innetwork", n, topology="fat-tree",
                 hosts_per_rack=4)
    ratio = (innet.wire_bytes_per_worker()
             / ring.wire_bytes_per_worker())
    assert ratio == pytest.approx(n / (2.0 * (n - 1)), rel=0.01)
