"""Unit tests for the seeded open-loop arrival process."""

import itertools
import random

import pytest

from repro.simnet.arrivals import poisson_gaps


def _times(seed: int, rate: float, count: int):
    gaps = poisson_gaps(random.Random(seed), rate)
    return list(itertools.accumulate(itertools.islice(gaps, count)))


class TestPoisson:
    def test_mean_gap_matches_rate(self):
        times = _times(seed=0, rate=1000.0, count=5000)
        mean_gap = times[-1] / len(times)
        assert mean_gap == pytest.approx(1e-3, rel=0.1)

    def test_seeded_reproducibility(self):
        assert _times(seed=42, rate=500.0, count=100) == \
            _times(seed=42, rate=500.0, count=100)
        assert _times(seed=42, rate=500.0, count=100) != \
            _times(seed=43, rate=500.0, count=100)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            next(poisson_gaps(random.Random(0), 0.0))
