"""Unit tests for the experiment result container and fast experiments."""

import pytest

from repro.harness import ExperimentResult, figure7, figure8, table2
from repro.harness.experiments import ALL_EXPERIMENTS, KB, MB


class TestExperimentResult:
    def _sample(self):
        result = ExperimentResult(experiment="Figure X", title="demo",
                                  columns=["a", "b"])
        result.add_row("x", 1.5)
        result.add_row("y", 2.5)
        return result

    def test_add_row_validates_width(self):
        result = self._sample()
        with pytest.raises(ValueError):
            result.add_row("too", "many", "values")

    def test_column(self):
        assert self._sample().column("b") == [1.5, 2.5]

    def test_find_and_cell(self):
        result = self._sample()
        assert result.find(a="x") == [["x", 1.5]]
        assert result.cell("b", a="y") == 2.5

    def test_cell_requires_unique_match(self):
        result = self._sample()
        result.add_row("x", 9.0)
        with pytest.raises(KeyError):
            result.cell("b", a="x")

    def test_render_contains_everything(self):
        result = self._sample()
        result.note("a caveat")
        text = result.render()
        assert "Figure X" in text and "demo" in text
        assert "1.50" in text and "a caveat" in text

    def test_render_formats_none_as_dash(self):
        result = ExperimentResult(experiment="E", title="t", columns=["v"])
        result.add_row(None)
        assert "-" in result.render().splitlines()[-1]

    def test_csv(self):
        csv_text = self._sample().to_csv()
        assert csv_text.splitlines()[0] == "a,b"
        assert "x,1.5" in csv_text

    def test_registry_covers_all_tables_and_figures(self):
        assert set(ALL_EXPERIMENTS) == {
            "table2", "figure7", "figure8", "figure9", "figure10",
            "figure11", "figure12", "table3", "allreduce", "stallreport",
            "overlap", "chaos", "serving", "scale", "netreduce",
            "telemetry", "lossy", "llmtrain", "llmserve"}


class TestFastExperiments:
    def test_table2_rows(self):
        result = table2()
        assert len(result.rows) == 6
        assert result.cell("variable_tensors", benchmark="Inception-v3") == 196

    def test_figure7_ccdf_monotone(self):
        result = figure7()
        fractions = result.column("fraction_of_tensors_larger")
        assert fractions == sorted(fractions, reverse=True)

    def test_figure8_small_sweep(self):
        result = figure8(sizes=(64 * KB, 1 * MB), iterations=2)
        assert len(result.rows) == 4 * 2  # 4 mechanisms x 2 sizes
        rdma = result.cell("transfer_ms", mechanism="RDMA",
                           message_bytes=1 * MB)
        tcp = result.cell("transfer_ms", mechanism="gRPC.TCP",
                          message_bytes=1 * MB)
        assert rdma < tcp

    def test_overlap_single_model(self, recorded):
        payload = recorded.committed["overlap"]
        result = ALL_EXPERIMENTS["overlap"].table(payload)
        assert result.cell("faster", benchmark="FCN-5") is True
        assert result.cell("eager_priority_ms", benchmark="FCN-5") \
            < result.cell("barrier_ms", benchmark="FCN-5")
        # What the parent's ci.yml asserted of the FCN-5 + GRU smoke; no
        # headline, it does not hold on the committed 4-server grid.
        assert [c["benchmark"] for c in payload["cells"]] == ["FCN-5", "GRU"]
        for cell in payload["cells"]:
            assert cell["eager_overlap_efficiency"] \
                > cell["barrier_overlap_efficiency"]

    def test_serving_experiment(self, recorded):
        payload = recorded.committed["serving"]
        result = ALL_EXPERIMENTS["serving"].table(payload)
        assert [row[0] for row in result.rows] == payload["config"]["runs"]
        assert "batching_wins=True" in result.notes[0]
        assert "priority_wins=True" in result.notes[1]
        fifo, prio = payload["cells"][2:]
        assert prio["latency"]["p99"] < fifo["latency"]["p99"]
