"""LevelAdjust: the device-level state policy (paper §4).

A cell is either *normal* (four Vth levels, Gray-coded) or *reduced*
(three levels, ReduceCode + NUNMA).  This module answers the questions
the storage system asks at run time:

* what is the raw BER of a page in a given mode, at a given P/E count
  and data age, and
* how many extra LDPC soft-sensing levels does reading it require?

BER evaluations run through the calibrated analyzers and are cached on
a (mode, P/E bucket, age bucket) grid so the trace-driven simulator can
query them millions of times.
"""

from __future__ import annotations

import bisect
from enum import Enum

from repro.core.reduce_code import ReduceCodeCoding
from repro.device.ber import BerAnalyzer
from repro.device.coding import SlcCoding
from repro.device.voltages import normal_mlc_plan, reduced_plan, slc_plan
from repro.ecc.ldpc.sensing import SensingLevelPolicy
from repro.errors import ConfigurationError

#: Retention-age buckets (hours) used for BER caching.
DEFAULT_AGE_GRID_HOURS: tuple[float, ...] = (0.0, 1.0, 6.0, 24.0, 48.0, 168.0, 360.0, 720.0, 1440.0)

#: P/E-count bucket width used for BER caching.
DEFAULT_PE_BUCKET = 500


class CellMode(Enum):
    """Cell states: the paper's two LevelAdjust modes plus the SLC mode
    used by the SLC-caching extension system."""

    NORMAL = "normal"
    REDUCED = "reduced"
    SLC = "slc"

    # Members are singletons compared by identity, so the identity hash
    # is consistent with equality; ``Enum.__hash__`` (a Python-level
    # ``hash(self._name_)``) would run on every per-read memo lookup.
    __hash__ = object.__hash__


class LevelAdjustPolicy:
    """BER / sensing-level oracle for both cell modes.

    Parameters
    ----------
    normal_analyzer, reduced_analyzer, slc_analyzer:
        BER analyzers per mode.  Defaults: the calibrated baseline MLC
        analyzer, the calibrated NUNMA 3 + ReduceCode analyzer (the
        configuration the paper selects) and the calibrated SLC analyzer
        (for the SLC-caching extension).
    sensing:
        The extra-sensing-level policy.
    include_c2c:
        Include interference in the run-time BER (the system-level
        experiments use retention + wear only, matching how Table 4
        feeds Table 5 in the paper).
    """

    def __init__(
        self,
        normal_analyzer: BerAnalyzer | None = None,
        reduced_analyzer: BerAnalyzer | None = None,
        slc_analyzer: BerAnalyzer | None = None,
        sensing: SensingLevelPolicy | None = None,
        include_c2c: bool = False,
        age_grid_hours: tuple[float, ...] = DEFAULT_AGE_GRID_HOURS,
        pe_bucket: int = DEFAULT_PE_BUCKET,
    ):
        if normal_analyzer is None or reduced_analyzer is None or slc_analyzer is None:
            from repro.analysis.calibration import calibrated_analyzer

            if normal_analyzer is None:
                normal_analyzer = calibrated_analyzer(normal_mlc_plan())
            if reduced_analyzer is None:
                reduced_analyzer = calibrated_analyzer(
                    reduced_plan("nunma3"), coding=ReduceCodeCoding()
                )
            if slc_analyzer is None:
                slc_analyzer = calibrated_analyzer(slc_plan(), coding=SlcCoding())
        if list(age_grid_hours) != sorted(age_grid_hours) or not age_grid_hours:
            raise ConfigurationError("age grid must be non-empty and sorted")
        if pe_bucket <= 0:
            raise ConfigurationError("pe_bucket must be positive")
        self._analyzers = {
            CellMode.NORMAL: normal_analyzer,
            CellMode.REDUCED: reduced_analyzer,
            CellMode.SLC: slc_analyzer,
        }
        self.sensing = sensing or SensingLevelPolicy()
        self.include_c2c = include_c2c
        self.age_grid = tuple(age_grid_hours)
        self.pe_bucket = pe_bucket
        self._ber_cache: dict[tuple[CellMode, int, float], float] = {}
        self._levels_cache: dict[tuple[CellMode, int, float], int] = {}
        #: Bucket-grid cache hits / misses (the trace simulators copy
        #: per-run deltas of these into :class:`~repro.ftl.stats.SsdStats`).
        self.cache_hits: int = 0
        self.cache_misses: int = 0

    # --- queries ----------------------------------------------------------------

    def ber(self, mode: CellMode, pe_cycles: float, age_hours: float) -> float:
        """Raw BER of a page in ``mode`` (cached on the bucket grid)."""
        cache_key = self._cache_key(mode, pe_cycles, age_hours)
        cached = self._ber_cache.get(cache_key)
        if cached is not None:
            self.cache_hits += 1
            return cached
        self.cache_misses += 1
        return self._evaluate_ber(cache_key)

    def extra_levels(self, mode: CellMode, pe_cycles: float, age_hours: float) -> int:
        """Extra soft-sensing levels a read of the page requires.

        Memoized end to end on the same (mode, P/E bucket, age bucket)
        grid as :meth:`ber`, so the per-read hot path of the trace
        simulators is one dictionary lookup — no distribution integrals,
        no ladder walk.
        """
        cache_key = self._cache_key(mode, pe_cycles, age_hours)
        cached = self._levels_cache.get(cache_key)
        if cached is not None:
            self.cache_hits += 1
            return cached
        self.cache_misses += 1
        ber = self._ber_cache.get(cache_key)
        if ber is None:
            ber = self._evaluate_ber(cache_key)
        levels = self.sensing.required_levels(ber)
        self._levels_cache[cache_key] = levels
        return levels

    def cache_hit_rate(self) -> float:
        """Fraction of BER / sensing-level queries answered from cache."""
        total = self.cache_hits + self.cache_misses
        if total == 0:
            return 0.0
        return self.cache_hits / total

    def should_reduce(self, pe_cycles: float, age_hours: float) -> bool:
        """True when a normal-state page would need extra sensing levels
        — the trigger for switching cells to reduced state (paper §3)."""
        return self.extra_levels(CellMode.NORMAL, pe_cycles, age_hours) > 0

    def reduction_benefit(self, pe_cycles: float, age_hours: float) -> int:
        """Sensing levels saved by storing the page in reduced state."""
        normal = self.extra_levels(CellMode.NORMAL, pe_cycles, age_hours)
        reduced = self.extra_levels(CellMode.REDUCED, pe_cycles, age_hours)
        return max(normal - reduced, 0)

    # --- internals ------------------------------------------------------------------

    def _cache_key(
        self, mode: CellMode, pe_cycles: float, age_hours: float
    ) -> tuple[CellMode, int, float]:
        """The memo cell of a query: P/E rounded to the nearest bucket,
        age snapped to the nearer of its two surrounding grid points."""
        if pe_cycles < 0:
            raise ConfigurationError(f"negative P/E cycles: {pe_cycles}")
        if age_hours < 0:
            raise ConfigurationError(f"negative age: {age_hours}")
        bucket = self.pe_bucket
        grid = self.age_grid
        index = bisect.bisect_right(grid, age_hours)
        if index < len(grid):
            low, high = grid[index - 1], grid[index]
            age_key = high if (age_hours - low) > (high - age_hours) else low
        else:
            age_key = grid[-1]
        return (mode, int(round(pe_cycles / bucket)) * bucket, age_key)

    def _evaluate_ber(self, cache_key: tuple[CellMode, int, float]) -> float:
        mode, pe_key, age_key = cache_key
        analyzer = self._analyzers[mode]
        value = analyzer.bit_error_rate(
            pe_cycles=float(pe_key),
            t_hours=age_key,
            include_c2c=self.include_c2c,
            include_retention=True,
        ).total
        self._ber_cache[cache_key] = value
        return value
