"""Unit and integration tests for the metrics collector."""

import pytest

from repro.simnet import Cluster, Opcode, WorkRequest
from repro.simnet.metrics import MetricsCollector, TransferRecord


class TestCollectorQueries:
    def _collector(self):
        collector = MetricsCollector()
        collector.record_transfer("RDMA_WRITE", "a", "b", 1000, 0.0, 1.0)
        collector.record_transfer("RDMA_WRITE", "a", "c", 500, 0.5, 1.5)
        collector.record_transfer("TCP", "b", "a", 200, 1.0, 3.0)
        return collector

    def test_totals(self):
        collector = self._collector()
        assert collector.total_bytes() == 1700
        assert collector.total_bytes("TCP") == 200
        assert collector.count() == 3
        assert collector.count("RDMA_WRITE") == 2

    def test_bad_direction(self):
        with pytest.raises(ValueError):
            self._collector().bytes_in_window(direction="sideways")

    def test_record_role_defaults_to_unlabelled(self):
        record = TransferRecord("TCP", "a", "b", 10, 1.0, 2.5)
        assert record.role == ""

    def test_bytes_in_window(self):
        collector = self._collector()
        # Starts in [0, 1): only the first RDMA_WRITE and the 0.5 one.
        assert collector.bytes_in_window(0.0, 1.0) == 1500
        assert collector.bytes_in_window(0.5) == 700
        assert collector.bytes_in_window(0.0, 1.0, host="a") == 1500
        assert collector.bytes_in_window(0.0, None, host="a",
                                         direction="ingress") == 200
        assert collector.bytes_in_window(kinds=("TCP",)) == 200
        with pytest.raises(ValueError):
            collector.bytes_in_window(direction="sideways")


class TestRoleAccounting:
    def _collector(self):
        collector = MetricsCollector()
        collector.record_transfer("RDMA_WRITE", "a", "b", 1000, 0.0, 1.0,
                                  role="static-write")
        collector.record_transfer("RDMA_WRITE", "a", "b", 64, 1.0, 1.1,
                                  role="dynamic-metadata")
        collector.record_transfer("RDMA_READ", "b", "a", 900, 1.1, 2.0,
                                  role="dynamic-payload-read")
        collector.record_transfer("RDMA_WRITE", "b", "c", 500, 2.0, 2.5,
                                  role="collective-chunk")
        collector.record_transfer("SEND", "a", "b", 32, 0.0, 0.1)
        return collector

    def test_bytes_by_role(self):
        assert self._collector().bytes_by_role() == {
            "static-write": 1000, "dynamic-metadata": 64,
            "dynamic-payload-read": 900, "collective-chunk": 500, "": 32}

    def test_role_filters(self):
        collector = self._collector()
        assert collector.total_bytes(role="static-write") == 1000
        assert collector.count(role="collective-chunk") == 1
        assert collector.total_bytes("RDMA_WRITE",
                                     role="dynamic-metadata") == 64
        assert collector.count(role="missing") == 0

    def test_collective_run_tags_chunks(self):
        from repro.distributed.runner import run_training_benchmark
        from repro.models import get_model

        bench = run_training_benchmark(
            get_model("FCN-5"), "RDMA", num_servers=2, batch_size=32,
            iterations=2, strategy="ring", collect_metrics=True)
        roles = bench.metrics.bytes_by_role()
        assert roles.get("collective-chunk", 0) > 0
        assert bench.metrics.count(role="collective-chunk") > 0


class TestClusterIntegration:
    def test_rdma_writes_recorded(self):
        cluster = Cluster(2)
        metrics = cluster.enable_metrics()
        a, b = cluster.hosts
        cq = a.nic.create_cq()
        qp_a = a.nic.create_qp(cq)
        qp_b = b.nic.create_qp(b.nic.create_cq())
        qp_a.connect(qp_b)
        src = a.allocate(4096)
        dst = b.allocate(4096)
        src_mr = a.nic.register_memory(src)
        dst_mr = b.nic.register_memory(dst)
        qp_a.post_send(WorkRequest(
            opcode=Opcode.WRITE, size=4096, local_addr=src.addr,
            lkey=src_mr.lkey, remote_addr=dst.addr, rkey=dst_mr.rkey))
        cluster.sim.run()
        assert metrics.count("RDMA_WRITE") == 1
        assert metrics.total_bytes() == 4096
        assert metrics.bytes_in_window(host="server0") == 4096

    def test_disabled_by_default(self):
        cluster = Cluster(2)
        assert cluster.metrics is None

    def test_enable_idempotent(self):
        cluster = Cluster(1)
        assert cluster.enable_metrics() is cluster.enable_metrics()

    def test_training_run_traffic_accounting(self):
        """End to end: the recorded bytes equal the model's 2x volume."""
        from repro.core import RdmaCommRuntime
        from repro.distributed.replication import build_training_graph
        from repro.graph import Session
        from repro.models import get_model

        spec = get_model("GRU")
        job = build_training_graph(spec, num_workers=2, batch_size=8)
        cluster = Cluster(2)
        hosts = {d: cluster.hosts[int(d.lstrip("workerps"))]
                 for d in job.devices}
        session = Session(cluster, job.graph, hosts,
                          comm=RdmaCommRuntime())
        metrics = cluster.enable_metrics()  # after setup: measure steps only
        session.run(iterations=2)
        expected = 2 * 2 * 2 * spec.model_bytes  # iters x workers x dirs
        measured = metrics.total_bytes("RDMA_WRITE")
        assert measured == pytest.approx(expected, rel=0.01)
