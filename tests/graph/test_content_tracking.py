"""Storage follows content: what the executor cannot read costs no bytes.

An op whose inputs are untracked (size-only), or that computes nothing
(``SyntheticCompute``), produces size-only outputs whatever their size,
so the slices, reductions and concats of a collective over an untracked
fusion buffer do no numpy work.  Variables follow the same rule: one
gets real bytes only if an ``initializer`` gives it content, so a model
zoo variable (none has one) is size-only at any size.  Initialized
variables, feeds and every op whose inputs are all dense keep real bytes
(the collective suites check their sums bit for bit).
"""

import numpy as np

from repro.distributed import build_allreduce_training_graph
from repro.distributed.runner import make_mechanism
from repro.graph import GraphBuilder, Session
from repro.harness.experiments import _scale_spec
from repro.models import MB, get_model
from repro.simnet import Cluster
from repro.simnet.fabric import build_fat_tree
from repro.simnet.memory import DENSE_LIMIT

WORKERS = 16
HOSTS_PER_RACK = 8


def _hierarchical_session(spec=None):
    job = build_allreduce_training_graph(
        spec or _scale_spec(num_variables=1), num_workers=WORKERS,
        batch_size=1, algorithm="hierarchical",
        hosts_per_rack=HOSTS_PER_RACK, fusion_bytes=64 * MB)
    cluster = Cluster(WORKERS, fabric=build_fat_tree(
        WORKERS, HOSTS_PER_RACK, oversubscription=4.0))
    hosts = {device: cluster.hosts[int(device.lstrip("workerps"))]
             for device in job.devices}
    return cluster, Session(cluster, job.graph, hosts,
                            comm=make_mechanism("RDMA"))


def _dense_bytes(cluster):
    return sum(host.address_space.dense_bytes_allocated
               for host in cluster.hosts)


def test_untracked_collective_allocates_no_tensor_bytes():
    cluster, session = _hierarchical_session()
    transients = []
    for executor in session.executors.values():
        executor.heap.add_observer(
            lambda tensor, node_name, index: transients.append(
                (node_name, tensor)))
    before = _dense_bytes(cluster)
    session.run(iterations=2)

    # 3 MiB chunk slices, reductions and concats fit DENSE_LIMIT, yet
    # none may be dense: their content derives from a 24 MiB size-only
    # variable and nothing can read it.
    assert len(transients) >= WORKERS * 10
    assert any(tensor.nbytes <= DENSE_LIMIT for _, tensor in transients)
    dense = [(name, tensor) for name, tensor in transients if tensor.is_dense]
    assert dense == []
    for executor in session.executors.values():
        assert not any(tensor.is_dense for _, tensor in executor._transient)

    # What remains dense is control state bound at the first iteration
    # (address-book slots, flag bytes): a few hundred bytes per worker,
    # where sizing by DENSE_LIMIT alone allocated 1.7 GB of zeros.
    assert _dense_bytes(cluster) - before <= WORKERS * 4096


def _mixed_bucket_session(small_init):
    builder = GraphBuilder("mixed", default_device="worker0")
    small = builder.variable((small_init.size,), name="small",
                             initializer=small_init)
    big = builder.variable((DENSE_LIMIT // 4 + 1,), name="big")
    packed = builder.add_op("FusionPack", [small, big], name="pack")
    chunk = builder.add_op("ChunkSlice", [packed], name="chunk",
                           attrs={"begin": 0, "size": small_init.size})
    only_small = builder.add_op("FusionPack", [small], name="pack_small")
    cluster = Cluster(1)
    session = Session(cluster, builder.finalize(),
                      {"worker0": cluster.hosts[0]})
    session.run(iterations=1)
    return session, packed, chunk, only_small


def test_bucket_mixing_dense_and_size_only_is_untracked():
    init = np.arange(8, dtype=np.float32)
    session, packed, chunk, only_small = _mixed_bucket_session(init)
    assert session.variable("small").is_dense
    assert not session.variable("big").is_dense
    # One untracked member makes the whole fusion buffer untracked ...
    assert not session.value(packed.node.name).is_dense
    # ... and so is everything cut from it, even the part that came
    # from the dense variable and would fit in real storage.
    assert not session.value(chunk.node.name).is_dense
    # An all-dense bucket keeps its bytes.
    np.testing.assert_array_equal(session.numpy(only_small.node.name), init)
    np.testing.assert_array_equal(session.variable("small").array, init)


def test_variables_get_real_bytes_only_from_an_initializer():
    init = np.random.default_rng(3).standard_normal(1024).astype(np.float32)
    builder = GraphBuilder("variables", default_device="worker0")
    builder.variable((1024,), name="small")              # 4 KiB
    builder.variable((2 * 1024 * 1024,), name="large")   # 8 MiB
    builder.variable(init.shape, name="initialized", initializer=init)
    cluster = Cluster(1)
    session = Session(cluster, builder.finalize(),
                      {"worker0": cluster.hosts[0]})

    # Both fit DENSE_LIMIT, yet no initializer gives them content.
    assert session.variable("small").nbytes == 4 * 1024
    assert session.variable("large").nbytes == 8 * 1024 * 1024
    assert not session.variable("small").is_dense
    assert not session.variable("large").is_dense
    initialized = session.variable("initialized")
    assert initialized.is_dense
    assert initialized.array.tobytes() == init.tobytes()
    assert (cluster.hosts[0].address_space.dense_bytes_allocated
            == init.nbytes)


def test_gru_hierarchical_allreduce_holds_no_model_bytes():
    # GRU's 11 variables are each below DENSE_LIMIT; sized by the limit
    # alone they and their collective copies held 84 MB on every host.
    cluster, session = _hierarchical_session(get_model("GRU"))
    session.run(iterations=2)
    for host in cluster.hosts:
        assert host.address_space.dense_bytes_allocated <= 64 * 1024
