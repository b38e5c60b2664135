"""Unit tests for the one-to-many broadcast schedules."""

import pytest

from repro.collectives import (BROADCAST_MODES, broadcast_hops,
                               root_egress_bytes)


class TestSchedules:
    def test_direct_fans_out_from_root(self):
        assert broadcast_hops(3, "direct") == [(-1, 0), (-1, 1), (-1, 2)]

    def test_chain_pipelines_through_replicas(self):
        assert broadcast_hops(4, "chain") == [(-1, 0), (0, 1), (1, 2), (2, 3)]

    def test_single_replica_schedules_coincide(self):
        assert broadcast_hops(1, "direct") == broadcast_hops(1, "chain")

    def test_every_replica_covered_exactly_once(self):
        for mode in BROADCAST_MODES:
            for replicas in (1, 2, 5, 8):
                hops = broadcast_hops(replicas, mode)
                assert sorted(dst for _, dst in hops) == list(range(replicas))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            broadcast_hops(0, "direct")
        with pytest.raises(ValueError):
            broadcast_hops(2, "tree")


class TestTopologyQueries:
    def test_root_egress(self):
        model = 100
        assert root_egress_bytes(5, "direct", model) == 500
        assert root_egress_bytes(5, "chain", model) == 100
