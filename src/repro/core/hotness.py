"""Read-frequency tracking with multiple Bloom filters.

AccessEval needs to know how often a logical page is read.  The paper
points to Park et al. (FAST'11), which tracks hot data with ``V``
Bloom filters used round-robin over time windows: each access inserts
the key into the current filter, and a key's hotness is the number of
filters that contain it (recency-weighted frequency with bounded
memory).  Ageing is free — the oldest filter is cleared when the window
rotates.

Hash contract
-------------
The filter state, and so every hotness and frequency level, is a pure
function of the constructor arguments and the key stream:

* **Seeds.** ``np.random.default_rng(seed)`` draws, filter by filter,
  ``n_hashes`` integers in ``[1, 2**63 - 1)`` (``rng.integers(...,
  dtype=np.int64)``); each becomes the odd 64-bit multiplier
  ``(drawn << 1) | 1``.
* **Positions.** Hash ``i`` of a filter sets or tests bit
  ``((((key + 0x9E3779B97F4A7C15) * seed_i) & (2**64 - 1)) >> 17)
  % bits_per_filter`` (Knuth-style multiplicative hashing in 64-bit
  modular arithmetic).  Keys are integers in ``[0, 2**64)``.
* **Rotation.** ``record_read`` inserts into the current filter, then,
  once ``window`` reads have been recorded into it, advances to the
  next filter in the ring and clears it.

``tests/core/test_hotness.py`` pins this contract against a numpy
transcription of the formula.  The arithmetic runs on plain Python ints
over one ``bytearray`` per filter: numpy is used only to draw the seeds.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError

_GOLDEN = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1
_SHIFT = 17


class MultiBloomHotness:
    """Recency-weighted read-frequency estimation (Park et al., FAST'11).

    Parameters
    ----------
    n_filters:
        Number of Bloom filters (the maximum raw hotness count).
    bits_per_filter:
        Size of each filter in bits.
    n_hashes:
        Hash functions per filter.
    window:
        Number of recorded accesses before the ring rotates and the
        oldest filter is cleared.
    freq_levels:
        Number of discrete read-frequency levels ``Lf`` exposed to the
        overhead rule (paper §5).
    """

    def __init__(
        self,
        n_filters: int = 4,
        bits_per_filter: int = 1 << 16,
        n_hashes: int = 2,
        window: int = 4096,
        freq_levels: int = 2,
        seed: int = 0x5EED,
    ):
        if n_filters < 2:
            raise ConfigurationError("need at least 2 filters for ageing")
        if bits_per_filter <= 0 or n_hashes <= 0 or window <= 0:
            raise ConfigurationError("filter sizes must be positive")
        if freq_levels < 2:
            raise ConfigurationError("need at least 2 frequency levels")
        rng = np.random.default_rng(seed)
        self.n_filters = n_filters
        self.bits_per_filter = bits_per_filter
        self.freq_levels = freq_levels
        self.window = window
        self._seeds: list[tuple[int, ...]] = []
        for _ in range(n_filters):
            drawn = rng.integers(1, 2**63 - 1, size=n_hashes, dtype=np.int64)
            self._seeds.append(tuple((int(d) << 1) | 1 for d in drawn))
        # One byte per filter bit: 1 when set.
        self._bits = [bytearray(bits_per_filter) for _ in range(n_filters)]
        self._current = 0
        self._accesses_in_window = 0

    def record_read(self, key: int) -> None:
        """Record one read of ``key`` and rotate the window if due."""
        mixed = _mixed(key)
        n_bits = self.bits_per_filter
        bits = self._bits[self._current]
        for seed in self._seeds[self._current]:
            bits[(((mixed * seed) & _MASK64) >> _SHIFT) % n_bits] = 1
        self._accesses_in_window += 1
        if self._accesses_in_window >= self.window:
            self._rotate()

    def hotness(self, key: int) -> int:
        """Raw hotness: how many filters have seen ``key`` (0..n_filters)."""
        return self._count(key)

    def frequency_level(self, key: int) -> int:
        """The key's read-frequency level ``Lf`` in ``[1, freq_levels]``.

        Counts map linearly onto the levels with the top level demanding
        presence in most windows: with 4 filters and 2 levels, a key
        reaches level 2 only when 3+ filters have seen it — one access
        in the current window must not mark a page hot.
        """
        scaled = 1 + (self._count(key) * self.freq_levels) // (self.n_filters + 1)
        return min(scaled, self.freq_levels)

    def fill_ratios(self) -> list[float]:
        """Diagnostic: fraction of set bits in each filter."""
        return [bits.count(1) / self.bits_per_filter for bits in self._bits]

    def _count(self, key: int) -> int:
        # A filter contains the key when all its hash bits are set; the
        # first clear bit settles it, so cold filters cost one hash.
        mixed = _mixed(key)
        n_bits = self.bits_per_filter
        count = 0
        for bits, seeds in zip(self._bits, self._seeds):
            for seed in seeds:
                if not bits[(((mixed * seed) & _MASK64) >> _SHIFT) % n_bits]:
                    break
            else:
                count += 1
        return count

    def _rotate(self) -> None:
        self._current = (self._current + 1) % self.n_filters
        self._bits[self._current] = bytearray(self.bits_per_filter)
        self._accesses_in_window = 0


def _mixed(key: int) -> int:
    """The key-dependent half of every hash position: ``key + golden``."""
    if not 0 <= key <= _MASK64:
        raise ConfigurationError(f"hotness key {key} outside [0, 2**64)")
    return int(key) + _GOLDEN
