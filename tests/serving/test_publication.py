"""Unit tests for the versioned weight-publication plane."""

import pytest

from repro.core.device import RdmaDevice
from repro.core.publication import (PublicationLayout, build_publication,
                                    park_until)
from repro.models.spec import ModelSpec, VariableSpec
from repro.simnet import Cluster, Endpoint


def tiny_spec(num_vars: int = 3, elements: int = 1024) -> ModelSpec:
    return ModelSpec(
        name="tiny", family="FCN",
        variables=tuple(VariableSpec(f"w{i}", (elements,))
                        for i in range(num_vars)),
        sample_time=1e-3, batch_saturation=8)


def build(replicas: int):
    cluster = Cluster(1 + replicas, name_prefix="pub")
    devices = [RdmaDevice.create(host, 2, 2, Endpoint(host.name, 7400 + i))
               for i, host in enumerate(cluster.hosts)]
    publisher, subscribers = build_publication(
        devices[0], devices[1:], tiny_spec())
    return cluster, publisher, subscribers


def run_to_version(cluster, publisher, subscribers, version: int,
                   interval: float = 1e-3) -> None:
    sim = cluster.sim
    for subscriber in subscribers:
        sim.spawn(subscriber.watch(), name=f"sub-{subscriber.rank}")
    sim.spawn(publisher.run(interval), name="publisher")

    def main():
        yield from park_until(
            sim, cluster.hosts[0],
            lambda: all(s.active_version >= version for s in subscribers))

    sim.run_until_complete(sim.spawn(main(), name="main"), limit=30.0)
    publisher.stop()
    for subscriber in subscribers:
        subscriber.stop()


class TestLayout:
    def test_slots_and_trailer(self):
        spec = tiny_spec(num_vars=2, elements=256)
        layout = PublicationLayout(spec)
        assert len(layout.slots) == 2
        # Each slot is payload + a 4-byte stamp; the arena ends with a
        # 4-byte version trailer and the 1-byte epoch flag, flag last.
        assert layout.flag_offset == layout.size - 1
        assert layout.version_offset == layout.size - 5
        assert layout.payload_bytes == spec.model_bytes

    def test_stamp_follows_payload(self):
        layout = PublicationLayout(tiny_spec(num_vars=1, elements=16))
        slot = layout.slots[0]
        assert slot.stamp_offset == slot.offset + slot.nbytes


class TestDirectPublication:
    def test_replicas_converge(self):
        cluster, publisher, subscribers = build(replicas=3)
        run_to_version(cluster, publisher, subscribers, version=4)
        for subscriber in subscribers:
            assert subscriber.active_version >= 4
            assert subscriber.snapshot_consistent()
            assert subscriber.swaps >= 4

    def test_staleness_bounded_by_double_buffer(self):
        cluster, publisher, subscribers = build(replicas=2)
        run_to_version(cluster, publisher, subscribers, version=5)
        # The ack-gated double buffer keeps a replica at most one
        # version behind the last fully published snapshot.
        for subscriber in subscribers:
            assert publisher.version - subscriber.active_version <= 1

    def test_stamps_match_active_version(self):
        cluster, publisher, subscribers = build(replicas=2)
        run_to_version(cluster, publisher, subscribers, version=3)
        for subscriber in subscribers:
            stamps = subscriber.stamps()
            assert stamps == [subscriber.active_version] * len(stamps)


class TestTornReadChaosSweep:
    """Acceptance: publication is torn-read-free under 20 fault seeds."""

    @pytest.mark.parametrize("seed", range(20))
    def test_no_torn_serves_under_faults(self, seed):
        from repro.models import get_model
        from repro.serving import run_serving_benchmark
        result = run_serving_benchmark(
            get_model("FCN-5"), replicas=2, qps=1500.0, requests=80,
            seed=seed, fault_seed=seed,
            fault_spec=("partial:role=weight-publish,p=0.15;"
                        "drop:role=weight-stamp,p=0.1;"
                        "drop:role=weight-ack,p=0.1"))
        # Every consumed snapshot had per-variable stamps matching the
        # arena's version trailer: no replica ever served a torn read.
        assert result.torn_serves == 0
        assert result.swaps > 0
        assert result.completed + result.shed + result.failed == 80
