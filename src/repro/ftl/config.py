"""SSD configuration (paper Table 6 and §6.2).

Paper values: 16 KB pages, 1 MB blocks (64 pages), program 1000 us,
read 90 us, erase 3 ms, 27 % over-provisioning.  The paper quotes a
256 GB system; the default here is a scaled-down instance (the paper's
chip itself is 4 GB — 4096 blocks x 1 MB — replicated across channels)
so pure-Python trace simulations stay tractable.  Every experiment can
pass its own geometry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.errors import ConfigurationError
from repro.units import KIB


@dataclass(frozen=True)
class NandTiming:
    """NAND operation latencies in microseconds (paper Table 6)."""

    read_us: float = 90.0
    program_us: float = 1000.0
    erase_us: float = 3000.0
    buffer_hit_us: float = 2.0

    def __post_init__(self) -> None:
        if min(self.read_us, self.program_us, self.erase_us) <= 0:
            raise ConfigurationError("NAND timings must be positive")
        if self.buffer_hit_us < 0:
            raise ConfigurationError("buffer hit latency must be non-negative")


#: The paper's Table 6 timings.
NAND_TIMING = NandTiming()


@dataclass(frozen=True)
class SsdConfig:
    """Geometry and policy knobs of the simulated SSD.

    Parameters
    ----------
    n_blocks:
        Physical blocks.
    pages_per_block:
        Pages per block in normal mode (64 = 1 MB blocks of 16 KB pages).
    page_size_bytes:
        Page size.
    over_provisioning:
        Physical-over-logical overhead: logical capacity is
        ``physical / (1 + over_provisioning)`` (27 % in the paper).
    reduced_capacity_factor:
        Usable fraction of a block in reduced mode (ReduceCode: 75 %).
    slc_capacity_factor:
        Usable fraction of a block in SLC mode (one bit per cell: 50 %),
        used by the SLC-caching extension system.
    gc_free_block_threshold:
        Garbage collection starts when the free-block count drops to
        this value.
    initial_pe_cycles:
        P/E wear at simulation start (the paper evaluates at 4000-6000).
    pe_budget:
        Rated P/E endurance used by the lifetime accounting.
    timing:
        NAND operation latencies.
    """

    n_blocks: int = 1024
    pages_per_block: int = 64
    page_size_bytes: int = 16 * KIB
    over_provisioning: float = 0.27
    reduced_capacity_factor: float = 0.75
    slc_capacity_factor: float = 0.50
    gc_free_block_threshold: int = 4
    initial_pe_cycles: float = 6000.0
    pe_budget: float = 10000.0
    timing: NandTiming = field(default_factory=NandTiming)

    def __post_init__(self) -> None:
        if self.n_blocks <= 0 or self.pages_per_block <= 0 or self.page_size_bytes <= 0:
            raise ConfigurationError("geometry values must be positive")
        if not 0.0 <= self.over_provisioning < 1.0:
            raise ConfigurationError(
                f"over-provisioning {self.over_provisioning} outside [0, 1)"
            )
        if not 0.0 < self.reduced_capacity_factor <= 1.0:
            raise ConfigurationError("reduced capacity factor outside (0, 1]")
        if not 0.0 < self.slc_capacity_factor <= 1.0:
            raise ConfigurationError("SLC capacity factor outside (0, 1]")
        if self.gc_free_block_threshold < 1:
            raise ConfigurationError("GC threshold must be >= 1")
        if self.gc_free_block_threshold >= self.n_blocks // 2:
            raise ConfigurationError("GC threshold too close to the block count")
        if self.initial_pe_cycles < 0 or self.pe_budget <= 0:
            raise ConfigurationError("P/E settings must be non-negative / positive")

    @property
    def physical_pages(self) -> int:
        """Total physical pages in normal mode."""
        return self.n_blocks * self.pages_per_block

    @cached_property
    def logical_pages(self) -> int:
        """Host-visible pages (physical minus over-provisioning).

        Cached on first use: every LPN range check reads it.  The cache
        lives in the instance ``__dict__``, outside the dataclass
        fields, so equality, hashing and ``asdict`` see only the fields;
        the frozen ``__setattr__`` keeps it read-only.
        """
        return int(self.physical_pages / (1.0 + self.over_provisioning))

    @property
    def reduced_pages_per_block(self) -> int:
        """Usable pages in a reduced-mode block."""
        return int(self.pages_per_block * self.reduced_capacity_factor)

    @property
    def slc_pages_per_block(self) -> int:
        """Usable pages in an SLC-mode block."""
        return int(self.pages_per_block * self.slc_capacity_factor)

    @property
    def logical_capacity_bytes(self) -> int:
        """Host-visible capacity in bytes."""
        return self.logical_pages * self.page_size_bytes
