"""Tests for the per-request KV-cache byte accounting."""

import pytest

from repro.serving.kvcache import KVCache, KVTracker


def _tracker(req_id=0, bpt=100, tokens=10):
    return KVTracker(req_id, bpt, tokens=tokens)


class TestTracker:
    def test_nbytes(self):
        assert _tracker(bpt=64, tokens=5).nbytes == 320


class TestAdmission:
    def test_admit_reserves_bytes(self):
        cache = KVCache(10_000)
        tracker = _tracker()
        assert cache.admit(tracker)
        assert cache.used == tracker.nbytes
        assert cache.admissions == 1
        assert cache.outstanding == 1

    def test_denial_counts_and_leaves_nothing(self):
        cache = KVCache(500)
        assert not cache.admit(_tracker(tokens=10))  # 1000 > 500
        assert cache.used == 0
        assert cache.denials == 1
        assert cache.outstanding == 0

    def test_double_admit_rejected(self):
        cache = KVCache(10_000)
        tracker = _tracker()
        cache.admit(tracker)
        with pytest.raises(ValueError):
            cache.admit(tracker)

    def test_fits(self):
        cache = KVCache(1000)
        cache.admit(_tracker(req_id=1, tokens=6))
        assert cache.fits(400)
        assert not cache.fits(401)
        assert cache.free_bytes == 400


class TestGrowth:
    def test_grow_charges_per_token(self):
        cache = KVCache(10_000)
        tracker = _tracker()
        cache.admit(tracker)
        assert cache.grow(tracker)
        assert tracker.tokens == 11
        assert cache.used == tracker.nbytes == 1100
        assert cache.grown_tokens == 1

    def test_grow_denied_at_budget(self):
        cache = KVCache(1000)
        tracker = _tracker()
        cache.admit(tracker)
        assert not cache.grow(tracker)  # would need 1100
        assert tracker.tokens == 10
        assert cache.used == 1000

    def test_peak_tracks_high_water(self):
        cache = KVCache(10_000)
        a, b = _tracker(0), _tracker(1)
        cache.admit(a)
        cache.admit(b)
        cache.release(a)
        assert cache.peak == 2000
        assert cache.used == 1000


class TestReleaseAndEvict:
    def test_release_returns_bytes(self):
        cache = KVCache(1000)
        tracker = _tracker()
        cache.admit(tracker)
        cache.release(tracker)
        assert cache.used == 0
        assert cache.outstanding == 0

    def test_release_unknown_rejected(self):
        cache = KVCache(1000)
        with pytest.raises(ValueError):
            cache.release(_tracker())

    def test_evict_counts_separately(self):
        cache = KVCache(10_000)
        tracker = _tracker()
        cache.admit(tracker)
        cache.evict(tracker)
        assert cache.used == 0
        assert cache.evictions == 1
        # An evicted request re-admits after preemption.
        assert cache.admit(tracker)

    def test_leak_detection_via_outstanding(self):
        cache = KVCache(10_000)
        a, b = _tracker(0), _tracker(1)
        cache.admit(a)
        cache.admit(b)
        cache.release(a)
        assert cache.outstanding == 1  # b never released: a leak
