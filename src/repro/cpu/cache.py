"""Cache hierarchy model (paper Section VII extension).

The paper notes that GeST "is possible to stress LLC or DRAM by
instructing the framework to optimize towards cache-misses and
providing in the input file load/store instruction definitions with
various strides, base memory registers and various min-max immediate
values.  We are currently investigating such extensions."  This module
implements that extension's substrate: a two-level set-associative
cache hierarchy with LRU replacement, per-level latencies and energies.

The stock power/dI/dt experiments keep the hierarchy disabled — the
paper observes that power viruses have "extremely high L1 hit rates",
so a flat L1-hit latency is the right default — but a
:class:`MemoryHierarchy` can be attached to a simulated machine, after
which memory instructions see real hit/miss latencies, misses burn
L2/DRAM energy, and the new cache-miss measurement becomes meaningful.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict

from ..core.errors import ConfigError

__all__ = ["CacheConfig", "CacheStats", "Cache", "MemoryHierarchy",
           "AccessResult", "STOCK_L1", "STOCK_L2"]


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and costs of one cache level."""

    name: str
    size_bytes: int
    line_bytes: int
    ways: int
    hit_latency: int          # cycles
    hit_energy_pj: float

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.line_bytes <= 0 or self.ways <= 0:
            raise ConfigError(f"{self.name}: geometry must be positive")
        if self.size_bytes % (self.line_bytes * self.ways) != 0:
            raise ConfigError(
                f"{self.name}: size must be divisible by line*ways")
        if self.line_bytes & (self.line_bytes - 1):
            raise ConfigError(f"{self.name}: line size must be a power of 2")

    @property
    def sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.ways)


@dataclass
class CacheStats:
    """Hit/miss counters for one level."""

    accesses: int = 0
    hits: int = 0

    @property
    def misses(self) -> int:
        return self.accesses - self.hits

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one memory access through the hierarchy."""

    level: str                # 'l1', 'l2' or 'dram'
    latency: int              # total cycles to data
    energy_pj: float          # total energy beyond the core's load EPI


class Cache:
    """One set-associative LRU cache level."""

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.stats = CacheStats()
        # One OrderedDict per set: tag -> None, LRU order = insertion.
        self._sets = [OrderedDict() for _ in range(config.sets)]
        self._offset_bits = config.line_bytes.bit_length() - 1

    def lookup(self, address: int) -> bool:
        """Access ``address``; returns True on hit.  On miss the line is
        installed (allocate-on-miss for loads and stores alike)."""
        line = address >> self._offset_bits
        index = line % self.config.sets
        tag = line // self.config.sets
        entries = self._sets[index]
        self.stats.accesses += 1
        if tag in entries:
            entries.move_to_end(tag)
            self.stats.hits += 1
            return True
        if len(entries) >= self.config.ways:
            entries.popitem(last=False)     # evict LRU
        entries[tag] = None
        return False

    def reset_stats(self) -> None:
        self.stats = CacheStats()

    def flush(self) -> None:
        for entries in self._sets:
            entries.clear()
        self.reset_stats()


#: The stock geometries, loosely modelled on the X-Gene2-class server
#: core: a :class:`MemoryHierarchy`'s defaults and the geometry the static
#: footprint check (SC104) compares against.
STOCK_L1 = CacheConfig(name="l1d", size_bytes=32 * 1024, line_bytes=64,
                       ways=8, hit_latency=4, hit_energy_pj=0.0)
STOCK_L2 = CacheConfig(name="l2", size_bytes=256 * 1024, line_bytes=64,
                       ways=8, hit_latency=14, hit_energy_pj=450.0)


@dataclass
class MemoryHierarchy:
    """L1 + L2 + DRAM.

    ``hit_energy_pj`` of the L1 is zero because the core's load/store
    EPI already covers it; L2 hits and DRAM accesses add their energy
    on top (that extra energy is what makes an LLC/DRAM virus draw
    power the flat model cannot represent).
    """

    l1_config: CacheConfig = STOCK_L1
    l2_config: CacheConfig = STOCK_L2
    dram_latency: int = 140
    dram_energy_pj: float = 6500.0

    def __post_init__(self) -> None:
        self.l1 = Cache(self.l1_config)
        self.l2 = Cache(self.l2_config)

    def access(self, address: int) -> AccessResult:
        """One load/store through the hierarchy."""
        if self.l1.lookup(address):
            return AccessResult("l1", self.l1_config.hit_latency, 0.0)
        if self.l2.lookup(address):
            return AccessResult(
                "l2",
                self.l1_config.hit_latency + self.l2_config.hit_latency,
                self.l2_config.hit_energy_pj)
        return AccessResult(
            "dram",
            self.l1_config.hit_latency + self.l2_config.hit_latency
            + self.dram_latency,
            self.l2_config.hit_energy_pj + self.dram_energy_pj)

    def reset(self) -> None:
        self.l1.flush()
        self.l2.flush()

    # -- figures the cache-miss measurement reports ------------------------

    def l1_miss_rate(self) -> float:
        return self.l1.stats.miss_rate

    def l2_miss_rate(self) -> float:
        return self.l2.stats.miss_rate

    def llc_misses(self) -> int:
        """Misses past the last cache level (DRAM accesses)."""
        return self.l2.stats.misses

    def summary(self) -> Dict[str, float]:
        return {
            "l1_accesses": self.l1.stats.accesses,
            "l1_misses": self.l1.stats.misses,
            "l1_miss_rate": self.l1_miss_rate(),
            "l2_accesses": self.l2.stats.accesses,
            "l2_misses": self.l2.stats.misses,
            "l2_miss_rate": self.l2_miss_rate(),
            "llc_misses": float(self.llc_misses()),
        }
