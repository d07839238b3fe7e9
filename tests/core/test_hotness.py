"""Tests for the multiple-Bloom-filter hotness tracker."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hotness import MultiBloomHotness
from repro.errors import ConfigurationError


class TestBasics:
    def test_unseen_key_is_cold(self):
        tracker = MultiBloomHotness()
        assert tracker.hotness(42) == 0
        assert tracker.frequency_level(42) == 1

    def test_hotness_grows_across_windows(self):
        tracker = MultiBloomHotness(n_filters=4, window=10)
        for _ in range(4):  # four windows
            for access in range(10):
                tracker.record_read(7 if access == 0 else 1000 + access)
        assert tracker.hotness(7) >= 3

    def test_single_read_is_not_hot(self):
        """One access must not mark a page hot (the promotion-thrash bug)."""
        tracker = MultiBloomHotness(n_filters=4, freq_levels=2)
        tracker.record_read(7)
        assert tracker.frequency_level(7) == 1

    def test_persistent_key_reaches_top_level(self):
        tracker = MultiBloomHotness(n_filters=4, window=5, freq_levels=2)
        for _ in range(25):
            tracker.record_read(7)
        assert tracker.frequency_level(7) == 2

    def test_ageing_forgets_stale_keys(self):
        tracker = MultiBloomHotness(n_filters=2, window=4, bits_per_filter=1 << 12)
        tracker.record_read(7)
        # Two full window rotations without key 7 clear both filters.
        for i in range(8):
            tracker.record_read(100 + i)
        assert tracker.hotness(7) == 0

    def test_fill_ratios_bounded(self):
        tracker = MultiBloomHotness(bits_per_filter=256, n_hashes=2, window=100)
        for i in range(50):
            tracker.record_read(i)
        assert all(0.0 <= r <= 1.0 for r in tracker.fill_ratios())


class TestLevels:
    def test_level_monotone_in_hotness(self):
        tracker = MultiBloomHotness(n_filters=4, window=3, freq_levels=4)
        levels = []
        for _ in range(4):
            for _ in range(3):
                tracker.record_read(7)
            levels.append(tracker.frequency_level(7))
        assert levels == sorted(levels)

    def test_level_bounded_by_freq_levels(self):
        tracker = MultiBloomHotness(n_filters=8, window=2, freq_levels=3)
        for _ in range(40):
            tracker.record_read(7)
        assert tracker.frequency_level(7) <= 3


class TestValidation:
    def test_rejects_single_filter(self):
        with pytest.raises(ConfigurationError):
            MultiBloomHotness(n_filters=1)

    def test_rejects_single_level(self):
        with pytest.raises(ConfigurationError):
            MultiBloomHotness(freq_levels=1)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ConfigurationError):
            MultiBloomHotness(bits_per_filter=0)
        with pytest.raises(ConfigurationError):
            MultiBloomHotness(window=0)


class _NumpyBloomOracle:
    """The hash contract as numpy once computed it, filter by filter.

    Kept as the reference the plain-int tracker must match bit for bit:
    64-bit modular multiply of ``key + golden`` by each odd seed, shift
    right 17, reduce modulo the filter size.
    """

    def __init__(
        self,
        n_filters=4,
        bits_per_filter=1 << 16,
        n_hashes=2,
        window=4096,
        freq_levels=2,
        seed=0x5EED,
    ):
        rng = np.random.default_rng(seed)
        self.n_filters = n_filters
        self.freq_levels = freq_levels
        self.window = window
        self.bits = [np.zeros(bits_per_filter, dtype=bool) for _ in range(n_filters)]
        self.seeds = []
        for _ in range(n_filters):
            drawn = rng.integers(1, 2**63 - 1, size=n_hashes, dtype=np.int64)
            self.seeds.append((drawn.astype(np.uint64) << np.uint64(1)) | np.uint64(1))
        self.current = 0
        self.accesses = 0

    def _positions(self, f, key):
        mixed = (np.uint64(key) + np.uint64(0x9E3779B97F4A7C15)) * self.seeds[f]
        return (mixed >> np.uint64(17)) % np.uint64(len(self.bits[f]))

    def record_read(self, key):
        self.bits[self.current][self._positions(self.current, key)] = True
        self.accesses += 1
        if self.accesses >= self.window:
            self.current = (self.current + 1) % self.n_filters
            self.bits[self.current][:] = False
            self.accesses = 0

    def hotness(self, key):
        return sum(
            1
            for f in range(self.n_filters)
            if self.bits[f][self._positions(f, key)].all()
        )

    def frequency_level(self, key):
        scaled = 1 + (self.hotness(key) * self.freq_levels) // (self.n_filters + 1)
        return min(scaled, self.freq_levels)

    def fill_ratios(self):
        return [float(bits.mean()) for bits in self.bits]


_KEY = st.integers(0, 2**40)


@st.composite
def _tracker_config(draw):
    return {
        "n_filters": draw(st.integers(2, 8)),
        "n_hashes": draw(st.integers(1, 4)),
        "bits_per_filter": draw(
            st.one_of(st.sampled_from([1000, 1024, 4096, 1 << 16]), st.integers(1, 5000))
        ),
        "window": draw(st.integers(1, 50)),
        "freq_levels": draw(st.integers(2, 5)),
        "seed": draw(st.integers(0, 2**32)),
    }


class TestHashContract:
    @settings(max_examples=60, deadline=None)
    @given(config=_tracker_config(), data=st.data())
    def test_matches_numpy_oracle(self, config, data):
        # Hypothesis draws the repeated keys (edge values included); a
        # seeded generator spreads them over a stream long enough to
        # rotate the ring several times, mixed with one-off keys.
        pool = data.draw(st.lists(_KEY, min_size=1, max_size=6), label="pool")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32), label="seed"))
        length = data.draw(st.integers(1, 300), label="length")
        repeated = rng.random(length) < data.draw(st.floats(0.0, 1.0), label="share")
        stream = [
            pool[rng.integers(len(pool))] if pick else int(rng.integers(0, 2**40 + 1))
            for pick in repeated
        ]
        tracker = MultiBloomHotness(**config)
        oracle = _NumpyBloomOracle(**config)
        for key in stream:
            tracker.record_read(key)
            oracle.record_read(key)
            assert tracker.hotness(key) == oracle.hotness(key)
            assert tracker.frequency_level(key) == oracle.frequency_level(key)
        assert tracker.fill_ratios() == oracle.fill_ratios()

    def test_zipf_level_sequence_is_pinned(self):
        """50k Zipf reads under the default config: the level sequence
        is the one the numpy-scalar filter produced."""
        keys = (np.random.default_rng(2015).zipf(1.2, size=50_000) - 1) % (1 << 20)
        tracker = MultiBloomHotness()
        levels = bytearray()
        for key in keys.tolist():
            tracker.record_read(key)
            levels.append(tracker.frequency_level(key))
        assert set(levels) == {1, 2}
        assert hashlib.sha256(levels).hexdigest() == (
            "7dc104d7cce5302a0b8d9b19c09936086c22e48d56215e66220a7366b5121560"
        )

    @pytest.mark.parametrize("key", [-1, -(2**40), 2**64])
    def test_rejects_keys_outside_64_bits(self, key):
        tracker = MultiBloomHotness()
        for call in (tracker.record_read, tracker.hotness, tracker.frequency_level):
            with pytest.raises(ConfigurationError):
                call(key)
        assert tracker.fill_ratios() == [0.0] * tracker.n_filters


def _read_in_last_windows(tracker, key, offsets, noise):
    """Read ``key`` once in each of ``len(offsets)`` consecutive windows,
    at slot ``offsets[i]`` of window ``i``, padding with ``noise``.

    The tracker must sit at a window boundary.  Every window but the
    last is filled; the last stops right after its read of ``key``, so
    it is still the current window (each offset is below ``window - 1``
    or the read would rotate it out).
    """
    for i, offset in enumerate(offsets):
        length = offset + 1 if i == len(offsets) - 1 else tracker.window
        for slot in range(length):
            tracker.record_read(key if slot == offset else next(noise))


class TestNoFalseNegatives:
    @settings(max_examples=60, deadline=None)
    @given(config=_tracker_config(), data=st.data())
    def test_key_in_last_j_windows_has_hotness_at_least_j(self, config, data):
        config["window"] = data.draw(st.integers(2, 50), label="window")
        tracker = MultiBloomHotness(**config)
        noise_seed = data.draw(st.integers(0, 2**32), label="noise seed")
        rng = np.random.default_rng(noise_seed)
        noise = iter(lambda: int(rng.integers(0, 2**40)), None)
        for _ in range(tracker.window * data.draw(st.integers(0, 3), label="before")):
            tracker.record_read(next(noise))
        key = data.draw(_KEY, label="key")
        j = data.draw(st.integers(1, tracker.n_filters), label="j")
        offsets = data.draw(
            st.lists(st.integers(0, tracker.window - 2), min_size=j, max_size=j),
            label="offsets",
        )
        _read_in_last_windows(tracker, key, offsets, noise)
        assert tracker.hotness(key) >= j

    def test_three_consecutive_windows_reach_top_level(self):
        tracker = MultiBloomHotness()
        assert (tracker.n_filters, tracker.freq_levels) == (4, 2)
        _read_in_last_windows(tracker, 0, [17, 4000, 2048], iter(range(1, 10**6)))
        assert tracker.frequency_level(0) == 2
