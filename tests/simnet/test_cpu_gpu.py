"""Unit tests for the CPU copy engine."""

import pytest

from repro.simnet.cpu import CpuEngine
from repro.simnet.simulator import Simulator


class TestCpuEngine:
    def test_single_task_full_duration(self):
        sim = Simulator()
        engine = CpuEngine(sim, lanes=4)
        assert engine.reserve(1.0) == 1.0

    def test_parallel_up_to_lane_count(self):
        sim = Simulator()
        engine = CpuEngine(sim, lanes=2)
        assert engine.reserve(1.0) == 1.0
        assert engine.reserve(1.0) == 1.0   # second lane
        assert engine.reserve(1.0) == 2.0   # queues behind the first

    def test_least_loaded_lane_chosen(self):
        sim = Simulator()
        engine = CpuEngine(sim, lanes=2)
        engine.reserve(3.0)
        engine.reserve(1.0)
        # Next work lands on the lane free at t=1.
        assert engine.reserve(1.0) == 2.0

    def test_run_process_charges_wall_time(self):
        sim = Simulator()
        engine = CpuEngine(sim, lanes=1)
        done = []

        def worker(tag):
            yield from engine.run(0.5)
            done.append((tag, sim.now))

        sim.spawn(worker("a"))
        sim.spawn(worker("b"))
        sim.run()
        assert done == [("a", 0.5), ("b", 1.0)]

    def test_zero_duration_free(self):
        sim = Simulator()
        engine = CpuEngine(sim, lanes=1)
        assert engine.reserve(0.0) == sim.now
        assert engine.busy_seconds == 0.0

    def test_busy_accounting(self):
        sim = Simulator()
        engine = CpuEngine(sim, lanes=3)
        engine.reserve(1.0)
        engine.reserve(2.0)
        assert engine.busy_seconds == 3.0

    def test_bad_lane_count(self):
        with pytest.raises(ValueError):
            CpuEngine(Simulator(), lanes=0)

