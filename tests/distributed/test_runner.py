"""Integration tests for the distributed benchmark runner."""

import pytest

from repro.core import RdmaCommRuntime
from repro.distributed import (MECHANISMS, RunConfig, make_mechanism,
                               run_training_benchmark)
from repro.models import MB, get_model
from repro.models.convergence import sentence_embedding_spec


@pytest.fixture(scope="module")
def fcn5():
    return get_model("FCN-5")


class TestMechanismFactory:
    @pytest.mark.parametrize("name", MECHANISMS)
    def test_factory_builds_each(self, name):
        assert make_mechanism(name) is not None

    def test_unknown_mechanism(self):
        with pytest.raises(ValueError):
            make_mechanism("carrier-pigeon")

    def test_labels(self):
        assert make_mechanism("RDMA").name == "RDMA"
        assert make_mechanism("RDMA.cp").name == "RDMA.cp"
        assert make_mechanism("RDMA+GDR").name == "RDMA+GDR"
        assert make_mechanism("gRPC.TCP").name == "gRPC.TCP"


class TestRunner:
    def test_result_fields(self, fcn5):
        result = run_training_benchmark(fcn5, "RDMA", num_servers=2,
                                        batch_size=8, iterations=3)
        assert not result.crashed
        assert result.model == "FCN-5"
        assert result.num_servers == 2
        assert result.step_time > 0
        assert result.throughput == pytest.approx(1 / result.step_time)

    def test_steady_state_excludes_warmup(self, fcn5):
        result = run_training_benchmark(fcn5, "RDMA", num_servers=2,
                                        batch_size=8, iterations=4)
        times = result.stats.iteration_times
        assert len(times) == 4
        # Iteration 0 stages (tracing not yet active): slowest.
        assert times[0] >= max(times[1:])

    def test_local_runs_single_host(self, fcn5):
        result = run_training_benchmark(fcn5, "Local", num_servers=8,
                                        batch_size=8, iterations=2)
        assert not result.crashed
        assert result.step_time > 0

    def test_mechanism_ranking_end_to_end(self, fcn5):
        times = {}
        for mechanism in ("RDMA", "RDMA.cp", "gRPC.RDMA", "gRPC.TCP"):
            result = run_training_benchmark(fcn5, mechanism, num_servers=2,
                                            batch_size=8, iterations=3)
            times[mechanism] = result.step_time
        assert times["RDMA"] <= times["RDMA.cp"] * 1.01
        assert times["RDMA.cp"] < times["gRPC.RDMA"] < times["gRPC.TCP"]

    def test_gdr_beats_gpu_staging(self, fcn5):
        gpu = run_training_benchmark(fcn5, "RDMA.gpu", num_servers=2,
                                     batch_size=8, iterations=3)
        gdr = run_training_benchmark(fcn5, "RDMA+GDR", num_servers=2,
                                     batch_size=8, iterations=3)
        assert gdr.step_time < gpu.step_time

    def test_se_crashes_grpc_rdma_but_not_others(self):
        spec = sentence_embedding_spec()
        crash = run_training_benchmark(spec, "gRPC.RDMA", num_servers=2,
                                       batch_size=8, iterations=2)
        assert crash.crashed
        assert "exceeds the maximum" in crash.crash_reason
        ok = run_training_benchmark(spec, "RDMA", num_servers=2,
                                    batch_size=8, iterations=2)
        assert not ok.crashed

    def test_comm_override_used(self, fcn5):
        comm = RdmaCommRuntime(force_dynamic=True)
        result = run_training_benchmark(fcn5, "RDMA(custom)", num_servers=2,
                                        batch_size=8, iterations=2, comm=comm)
        assert not result.crashed
        assert comm.state.bytes_sent > 0

    def test_scaling_servers_increases_aggregate_throughput(self, fcn5):
        results = {n: run_training_benchmark(fcn5, "RDMA", num_servers=n,
                                             batch_size=8, iterations=3)
                   for n in (2, 4)}
        assert (results[4].throughput * 4) > (results[2].throughput * 2)

    @pytest.mark.parametrize("strategy,mechanism,shape", [
        ("ps", "RDMA", {}),
        ("ring", "RDMA", {}),
        ("halving-doubling", "RDMA", {}),
        ("hierarchical", "RDMA", {"hosts_per_rack": 2}),
        ("innetwork", "RDMA", {"topology": "fat-tree", "hosts_per_rack": 2}),
        ("llm", "RDMA", {}),
        ("ps", "Local", {}),
    ], ids=["ps", "ring", "halving-doubling", "hierarchical", "innetwork",
            "llm", "Local"])
    def test_every_strategy_maps_devices_to_hosts(self, strategy, mechanism,
                                                  shape):
        # Every builder names its devices <letters><host index> (ps3,
        # worker3, stage3, local0); the runner places each on the host
        # with that index.
        result = run_training_benchmark(
            get_model("TF-Tiny"), mechanism, num_servers=4, batch_size=4,
            iterations=2, strategy=strategy, **shape)
        assert not result.crashed, result.crash_reason
        expected = 1 if mechanism == "Local" else 4
        assert result.worker_hosts == tuple(f"server{i}"
                                            for i in range(expected))


class TestConfigAndOverrides:
    """``config=`` and per-call overrides are two spellings of one run."""

    SHAPE = dict(topology="fat-tree", hosts_per_rack=4, oversubscription=4.0,
                 fusion_bytes=8 * MB)

    def test_config_and_overrides_agree(self, fcn5):
        common = dict(num_servers=8, batch_size=8, iterations=2,
                      strategy="hierarchical", collect_metrics=True)
        by_config = run_training_benchmark(
            fcn5, "RDMA", config=RunConfig(**self.SHAPE), **common)
        by_override = run_training_benchmark(fcn5, "RDMA", **self.SHAPE,
                                             **common)
        flat = run_training_benchmark(fcn5, "RDMA", hosts_per_rack=4,
                                      **common)
        assert by_config.step_time == by_override.step_time
        assert by_config.sim_events == by_override.sim_events
        assert (by_config.wire_bytes_per_worker()
                == by_override.wire_bytes_per_worker())
        assert by_config.step_time != flat.step_time  # the shape arrived

    def test_override_wins_over_config(self, fcn5):
        result = run_training_benchmark(
            fcn5, "RDMA", num_servers=2, batch_size=8, iterations=2,
            strategy="ring", config=RunConfig(fusion_bytes=64 * MB),
            fusion_bytes=1 * MB)
        wide = run_training_benchmark(
            fcn5, "RDMA", num_servers=2, batch_size=8, iterations=2,
            strategy="ring", config=RunConfig(fusion_bytes=64 * MB))
        assert result.sim_events != wide.sim_events

    def test_unknown_override_is_a_type_error(self, fcn5):
        with pytest.raises(TypeError, match="fusion_byts"):
            run_training_benchmark(fcn5, "RDMA", num_servers=2,
                                   batch_size=8, fusion_byts=1 * MB)

    def test_bad_override_raises_the_configs_own_error(self, fcn5):
        with pytest.raises(ValueError) as constructed:
            RunConfig(oversubscription=0.5)
        with pytest.raises(ValueError) as overridden:
            run_training_benchmark(fcn5, "RDMA", num_servers=2,
                                   batch_size=8, oversubscription=0.5)
        assert str(overridden.value) == str(constructed.value)
