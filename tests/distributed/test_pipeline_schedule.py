"""Tests for the microbatched pipeline schedules (GPipe / 1F1B)."""

import pytest

from repro.core import RdmaCommRuntime
from repro.distributed.model_parallel import (build_model_parallel_graph,
                                              pipeline_bubble_report,
                                              schedule_order)
from repro.distributed.runner import run_training_benchmark
from repro.graph import Session
from repro.graph.partition import partition
from repro.models import get_model
from repro.simnet import Cluster


def _run_traced(schedule, stages=4, microbatches=4, batch=8,
                model="TF-Tiny", iterations=3):
    bench = run_training_benchmark(
        get_model(model), "RDMA", num_servers=stages, batch_size=batch,
        iterations=iterations, strategy="llm", microbatches=microbatches,
        schedule=schedule, collect_trace=True)
    assert not bench.crashed, bench.crash_reason
    return bench


class TestScheduleOrder:
    @pytest.mark.parametrize("schedule", ["gpipe", "1f1b"])
    def test_every_microbatch_once(self, schedule):
        for stage in range(4):
            order = schedule_order(schedule, 4, stage, 6)
            assert sorted(c for c in order if c[0] == "F") == \
                [("F", m) for m in range(6)]
            assert sorted(c for c in order if c[0] == "B") == \
                [("B", m) for m in range(6)]

    def test_gpipe_all_forwards_first(self):
        order = schedule_order("gpipe", 4, 2, 4)
        kinds = [kind for kind, _ in order]
        assert kinds == ["F"] * 4 + ["B"] * 4

    def test_1f1b_warmup_depth(self):
        # Stage s warms up min(S-1-s, M) forwards, then alternates
        # F,B: the last stage alternates immediately, the first holds
        # S-1 microbatches in flight.
        for stage in range(4):
            order = schedule_order("1f1b", 4, stage, 8)
            kinds = [kind for kind, _ in order]
            assert kinds.index("B") == min(4 - 1 - stage, 8) + 1

    def test_1f1b_backwards_in_order(self):
        order = schedule_order("1f1b", 4, 1, 6)
        backs = [mb for kind, mb in order if kind == "B"]
        assert backs == sorted(backs)

    def test_unknown_schedule(self):
        with pytest.raises(ValueError):
            schedule_order("interleaved", 4, 0, 4)


class TestScheduledGraph:
    def test_transfer_count(self):
        job = build_model_parallel_graph(get_model("TF-Tiny"), num_stages=4,
                                         batch_size=8, microbatches=4)
        parts = partition(job.graph)
        # One forward + one backward activation per boundary per
        # microbatch, all statically shaped for pre-registered RDMA.
        assert len(parts.transfers) == 2 * 4 * (4 - 1)
        assert all(t.static_shape for t in parts.transfers)

    def test_microbatch_scales_transfer_bytes(self):
        spec = get_model("TF-Tiny")
        whole = build_model_parallel_graph(spec, num_stages=2, batch_size=8,
                                           microbatches=1)
        split = build_model_parallel_graph(spec, num_stages=2, batch_size=8,
                                           microbatches=4)
        whole_bytes = sum(t.nbytes_static
                          for t in partition(whole.graph).transfers)
        split_bytes = sum(t.nbytes_static
                          for t in partition(split.graph).transfers)
        # Same total activation volume, just chunked into microbatches.
        assert whole_bytes == split_bytes
        assert split.cross_stage_bytes_per_step == split_bytes

    def test_batch_must_divide(self):
        with pytest.raises(ValueError):
            build_model_parallel_graph(get_model("TF-Tiny"), num_stages=2,
                                       batch_size=6, microbatches=4)

    def test_runs_over_rdma(self):
        job = build_model_parallel_graph(get_model("TF-Tiny"), num_stages=2,
                                         batch_size=8, microbatches=4)
        cluster = Cluster(2)
        hosts = {f"stage{i}": cluster.hosts[i] for i in range(2)}
        session = Session(cluster, job.graph, hosts, comm=RdmaCommRuntime())
        stats = session.run(iterations=3)
        assert stats.steady_state_time > 0


class TestBubbleAccounting:
    def test_1f1b_beats_gpipe_at_4_stages(self):
        gpipe = _run_traced("gpipe")
        onef1b = _run_traced("1f1b")
        g = pipeline_bubble_report(gpipe.pipeline, gpipe.stall_report())
        f = pipeline_bubble_report(onef1b.pipeline, onef1b.stall_report())
        assert f["bubble_fraction"] < g["bubble_fraction"]
        assert onef1b.step_time < gpipe.step_time

    @pytest.mark.parametrize("schedule", ["gpipe", "1f1b"])
    def test_decomposition_sums_to_step(self, schedule):
        bench = _run_traced(schedule)
        report = pipeline_bubble_report(bench.pipeline,
                                        bench.stall_report())
        # op + bubble - remat must reconstruct the measured step time
        # exactly: the bubble is accounted, not estimated.
        assert abs(report["accounting_residual_s"]) < 1e-9
        for stage in report["per_stage"]:
            assert stage["bubble_s"] >= 0
            assert 0 <= stage["useful_fraction"] <= 1

    def test_gpipe_pays_rematerialization(self):
        bench = _run_traced("gpipe")
        report = pipeline_bubble_report(bench.pipeline,
                                        bench.stall_report())
        assert report["rematerialize"]
        assert all(s["remat_s"] > 0 for s in report["per_stage"])
        onef1b = _run_traced("1f1b")
        f = pipeline_bubble_report(onef1b.pipeline, onef1b.stall_report())
        assert not f["rematerialize"]
        assert all(s["remat_s"] == 0 for s in f["per_stage"])


class TestRunnerIntegration:
    def test_llm_strategy_end_to_end(self):
        bench = _run_traced("1f1b", stages=2, microbatches=2, batch=4,
                            iterations=2)
        assert bench.pipeline is not None
        assert bench.pipeline.schedule == "1f1b"
        assert bench.step_time > 0

    def test_llm_rejects_local(self):
        with pytest.raises(ValueError, match="no Local mode"):
            run_training_benchmark(
                get_model("TF-Tiny"), "Local", num_servers=2, batch_size=4,
                iterations=2, strategy="llm")

    def test_works_on_cnn_models_too(self):
        # The llm strategy is about the pipeline schedule, not the
        # model family: any layered spec can ride it.
        bench = run_training_benchmark(
            get_model("FCN-5"), "RDMA", num_servers=2, batch_size=8,
            iterations=2, strategy="llm", microbatches=2)
        assert not bench.crashed, bench.crash_reason
        assert bench.pipeline is not None
