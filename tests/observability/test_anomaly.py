"""Anomaly detectors: MAD stragglers, link hotspots, SLO burn rate."""

import pytest

from repro.observability import (Incident, detect_link_hotspots,
                                 detect_outliers, detect_stragglers,
                                 mad_zscores, slo_burn_alerts)


class TestMadZscores:
    def test_empty(self):
        assert mad_zscores({}) == {}

    def test_symmetric_population_small_z(self):
        stats = {f"h{i}": 10.0 for i in range(8)}
        for _, (_, median, z) in mad_zscores(stats).items():
            assert median == 10.0
            assert z == 0.0

    def test_outlier_dominates(self):
        stats = {f"h{i}": 10.0 + 0.01 * i for i in range(7)}
        stats["bad"] = 20.0
        scores = mad_zscores(stats)
        assert scores["bad"][2] > max(z for name, (_, _, z) in scores.items()
                                      if name != "bad") * 5

    def test_mad_floor_prevents_divide_by_zero(self):
        stats = {"a": 10.0, "b": 10.0, "c": 10.0, "d": 10.000001}
        scores = mad_zscores(stats)
        assert all(abs(z) < 1.0 for _, _, z in scores.values())


class TestDetectOutliers:
    def test_min_points_guard(self):
        stats = {"a": 1.0, "b": 1.0, "c": 100.0}
        assert detect_outliers(stats) == []

    def test_min_excess_guard(self):
        # Statistically extreme but only 10% above the median: a fleet
        # this uniform should not page anyone.
        stats = {f"h{i}": 10.0 + 1e-9 * i for i in range(7)}
        stats["h7"] = 11.0
        assert detect_outliers(stats) == []

    def test_high_side_only(self):
        stats = {f"h{i}": 10.0 + 0.01 * i for i in range(7)}
        stats["fast"] = 1.0  # a *fast* outlier is not a straggler
        assert detect_outliers(stats) == []

    def test_detects_and_ranks(self):
        stats = {f"h{i}": 10.0 + 0.05 * i for i in range(6)}
        stats["bad"] = 30.0
        stats["worse"] = 50.0
        names = [name for name, _, _, z in detect_outliers(stats)]
        assert names == ["worse", "bad"]


class TestDetectStragglers:
    def test_emits_structured_incident(self):
        stats = {f"server{i}": 1.0 + 0.001 * i for i in range(7)}
        stats["server7"] = 3.0
        incidents = detect_stragglers(stats, now=12.5)
        assert len(incidents) == 1
        incident = incidents[0]
        assert incident.kind == "straggler"
        assert incident.subject == "server7"
        assert incident.time == 12.5
        assert incident.zscore > 3.5
        assert incident.details["metric"] == "verb_latency"
        out = incident.to_dict()
        assert out["subject"] == "server7"
        assert "flight" not in out  # empty flight omitted

    def test_clean_fleet_silent(self):
        stats = {f"server{i}": 1.0 + 0.001 * i for i in range(8)}
        assert detect_stragglers(stats, now=0.0) == []


class TestLinkHotspots:
    def test_idle_fabric_never_alerts(self):
        utils = {f"tor{i}-up": 0.01 + 0.001 * i for i in range(8)}
        utils["tor7-up"] = 0.2  # an outlier, but below the floor
        assert detect_link_hotspots(utils, now=0.0) == []

    def test_relative_hotspot(self):
        utils = {f"tor{i}-up": 0.40 + 0.001 * i for i in range(7)}
        utils["hot"] = 0.85
        incidents = detect_link_hotspots(utils, now=1.0)
        assert [i.subject for i in incidents] == ["hot"]
        assert incidents[0].severity == "warning"

    def test_absolute_saturation_alerts_even_when_uniform(self):
        utils = {f"tor{i}-up": 0.97 for i in range(6)}
        incidents = detect_link_hotspots(utils, now=1.0)
        assert len(incidents) == 6
        assert all(i.severity == "critical" for i in incidents)

    def test_uniform_busy_fabric_silent_below_absolute(self):
        utils = {f"tor{i}-up": 0.6 for i in range(8)}
        assert detect_link_hotspots(utils, now=0.0) == []


class TestSloBurn:
    @staticmethod
    def _samples(count, latency, t0=0.0, spacing=0.001):
        return [(t0 + i * spacing, latency) for i in range(count)]

    def test_healthy_traffic_silent(self):
        samples = self._samples(500, latency=0.005)
        assert slo_burn_alerts(samples, slo=0.025) == []

    def test_sustained_burn_is_one_incident(self):
        samples = self._samples(1000, latency=0.5)  # every request violates
        incidents = slo_burn_alerts(samples, slo=0.025)
        assert len(incidents) == 1
        incident = incidents[0]
        assert incident.kind == "slo_burn"
        assert incident.severity == "critical"
        assert incident.value == 1.0
        assert incident.details["windows"] >= 3
        assert incident.details["samples"] == 1000

    def test_sparse_window_below_min_samples_ignored(self):
        samples = self._samples(5, latency=0.5)
        assert slo_burn_alerts(samples, slo=0.025) == []

    def test_partial_violation_below_threshold(self):
        good = self._samples(400, latency=0.005)
        bad = self._samples(40, latency=0.5, spacing=0.01)
        incidents = slo_burn_alerts(sorted(good + bad), slo=0.025)
        assert incidents == []

    def test_separate_bursts_separate_incidents(self):
        burst1 = self._samples(100, latency=0.5, t0=0.0)
        burst2 = self._samples(100, latency=0.5, t0=2.0)
        calm = self._samples(100, latency=0.001, t0=1.0)
        incidents = slo_burn_alerts(sorted(burst1 + calm + burst2),
                                    slo=0.025)
        assert len(incidents) == 2
        assert incidents[0].time < incidents[1].time

    def test_degenerate_inputs(self):
        assert slo_burn_alerts([], slo=0.025) == []
        assert slo_burn_alerts([(0.0, 1.0)], slo=0.0) == []


class TestIncidentSerialization:
    def test_round_trip_fields(self):
        incident = Incident(kind="straggler", subject="server3", time=1.0,
                            severity="warning", value=2.0, baseline=1.0,
                            zscore=4.2, details={"metric": "verb_latency"},
                            flight=[{"category": "verb"}])
        out = incident.to_dict()
        assert out["zscore"] == 4.2
        assert out["flight"] == [{"category": "verb"}]
