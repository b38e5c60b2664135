"""Unit tests for workload generators and the micro-benchmark."""

import pytest

from repro.workloads import (run_microbench, sweep_microbench,
                             variable_length_batches)
from repro.workloads.microbench import MICRO_MECHANISMS


MB = 1024 * 1024


class TestSyntheticData:
    def test_variable_length_batches(self):
        batches = variable_length_batches(max_length=10, feature_dim=3,
                                          count=20, seed=0)
        lengths = {b.shape[0] for b in batches}
        assert all(1 <= n <= 10 for n in lengths)
        assert len(lengths) > 1  # shapes actually vary
        assert all(b.shape[1] == 3 for b in batches)


class TestMicrobench:
    def test_single_point(self):
        result = run_microbench("RDMA", 1 * MB, iterations=3)
        assert result.transfer_seconds > 0
        assert result.throughput_gbps > 10

    def test_throughput_none_when_crashed(self):
        result = run_microbench("gRPC.RDMA", 2 * 1024 * MB, iterations=2)
        assert result.transfer_seconds is None
        assert result.throughput_gbps is None
        assert result.crash_reason

    def test_sweep_structure(self):
        sizes = (256 * 1024, 1 * MB)
        sweep = sweep_microbench(sizes, mechanisms=("RDMA", "gRPC.TCP"),
                                 iterations=2)
        assert set(sweep) == {"RDMA", "gRPC.TCP"}
        for points in sweep.values():
            assert [p.message_bytes for p in points] == list(sizes)

    def test_mechanism_ordering_at_1mb(self):
        times = {m: run_microbench(m, 1 * MB, iterations=3).transfer_seconds
                 for m in MICRO_MECHANISMS}
        assert (times["RDMA"] < times["RDMA.cp"]
                < times["gRPC.RDMA"] < times["gRPC.TCP"])

    def test_time_scales_with_size(self):
        small = run_microbench("RDMA", 1 * MB, iterations=3)
        large = run_microbench("RDMA", 64 * MB, iterations=3)
        assert large.transfer_seconds > 10 * small.transfer_seconds
