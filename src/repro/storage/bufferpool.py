"""A page-granular buffer pool with pluggable replacement policies.

The paper's Section 1 argument against running an in-memory MCE algorithm
over a disk-resident graph is that clique search touches vertices "in a
rather arbitrary manner", turning every neighborhood fetch into a random
disk access.  To *measure* that claim rather than assert it, this module
provides the component such a system would realistically use: a bounded
page cache in front of the metered store.  Hits cost nothing; misses cost
a seek plus a page read on the underlying :class:`PageStore`.

Replacement policies: ``lru`` (default), ``fifo``, and ``clock`` (the
second-chance approximation real buffer managers use).

An optional :class:`~repro.faults.FaultPlan` can inject faults at the
cache-fill site (operation ``"pool_read"``): corrupted page contents,
I/O errors, and latency — modelling bit rot *between* the device and the
cache, which only record-level checksums downstream can catch.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from types import SimpleNamespace
from typing import TYPE_CHECKING

from repro import metrics
from repro.errors import StorageError, StorageIOError
from repro.storage.memory import MemoryModel
from repro.storage.pagestore import PAGE_SIZE_BYTES, PageStore

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults import FaultPlan

#: Accounting units per cached page (8-byte units, 4096-byte pages).
UNITS_PER_PAGE = PAGE_SIZE_BYTES // 8

_POLICIES = ("lru", "fifo", "clock")

#: Cache behaviour across every pool in the process (hits cost nothing,
#: misses cost a seek + page read on the underlying store).
_METRICS = metrics.bound(
    lambda registry: SimpleNamespace(
        hits=registry.counter(
            "repro_bufferpool_hits_total", "page requests served from cache"
        ),
        misses=registry.counter(
            "repro_bufferpool_misses_total", "page requests that went to disk"
        ),
        evictions=registry.counter(
            "repro_bufferpool_evictions_total", "cached pages evicted"
        ),
        resident=registry.gauge(
            "repro_bufferpool_resident_pages", "currently cached pages"
        ),
    )
)


class BufferPool:
    """Bounded cache of file pages with hit/miss accounting."""

    def __init__(
        self,
        store: PageStore,
        capacity_pages: int,
        policy: str = "lru",
        memory: MemoryModel | None = None,
        fault_plan: "FaultPlan | None" = None,
    ) -> None:
        if capacity_pages < 1:
            raise StorageError(f"capacity must be at least one page, got {capacity_pages}")
        if policy not in _POLICIES:
            raise StorageError(f"unknown policy {policy!r}; choose from {_POLICIES}")
        self._store = store
        self._capacity = capacity_pages
        self._policy = policy
        self._memory = memory
        self._faults = fault_plan if fault_plan is not None else store.fault_plan
        self._pages: OrderedDict[int, bytes] = OrderedDict()
        self._ref_bits: dict[int, bool] = {}
        self._clock_ring: list[int] = []
        self._clock_hand = 0
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def capacity_pages(self) -> int:
        """Maximum simultaneously cached pages."""
        return self._capacity

    @property
    def resident_pages(self) -> int:
        """Currently cached pages."""
        return len(self._pages)

    @property
    def hit_rate(self) -> float:
        """Fraction of page requests served from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def read(self, offset: int, length: int) -> bytes:
        """Read ``length`` bytes at ``offset`` through the cache."""
        if length <= 0:
            return b""
        first = offset // PAGE_SIZE_BYTES
        start = offset - first * PAGE_SIZE_BYTES
        if start + length <= PAGE_SIZE_BYTES:
            # One page (an index entry, most records): slice it directly.
            return self._page(first)[start : start + length]
        last = (offset + length - 1) // PAGE_SIZE_BYTES
        blob = b"".join(self._page(index) for index in range(first, last + 1))
        return blob[start : start + length]

    def drop(self) -> None:
        """Evict everything (and release the memory charge)."""
        while self._pages:
            self._evict_index(next(iter(self._pages)))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _page(self, index: int) -> bytes:
        cached = self._pages.get(index)
        if cached is not None:
            self.hits += 1
            _METRICS().hits.inc()
            if self._policy == "lru":
                self._pages.move_to_end(index)
            elif self._policy == "clock":
                self._ref_bits[index] = True
            return cached
        self.misses += 1
        _METRICS().misses.inc()
        while len(self._pages) >= self._capacity:
            self._evict_one()
        offset = index * PAGE_SIZE_BYTES
        remaining = self._store.size_bytes() - offset
        if remaining <= 0:
            raise StorageError(f"page {index} is beyond the end of {self._store.path}")
        data = self._store.read_at(offset, min(PAGE_SIZE_BYTES, remaining))
        data = self._inject(index, data)
        if self._memory is not None:
            self._memory.allocate(UNITS_PER_PAGE, label="buffer pool")
        self._pages[index] = data
        _METRICS().resident.inc()
        if self._policy == "clock":
            self._ref_bits[index] = True
            self._clock_ring.append(index)
        return data

    def _inject(self, index: int, data: bytes) -> bytes:
        """Consult the fault plan at the cache-fill boundary."""
        if self._faults is None:
            return data
        fault = self._faults.draw("pool_read", path=str(self._store.path))
        if fault is None:
            return data
        if fault.kind == "io_error":
            raise StorageIOError(
                "pool_read", self._store.path, f"injected I/O error on page {index}"
            )
        if fault.kind == "latency":
            time.sleep(fault.latency_seconds)
            return data
        if fault.kind == "corrupt":
            from repro.faults import corrupt_bytes

            return corrupt_bytes(data, fault.fraction)
        return data

    def _evict_one(self) -> None:
        if self._policy in ("lru", "fifo"):
            victim = next(iter(self._pages))  # LRU order / insertion order
        else:  # clock: sweep for an unreferenced page, clearing ref bits
            while True:
                if self._clock_hand >= len(self._clock_ring):
                    self._clock_hand = 0
                candidate = self._clock_ring[self._clock_hand]
                if candidate not in self._pages:
                    self._clock_ring.pop(self._clock_hand)
                    continue
                if self._ref_bits.get(candidate, False):
                    self._ref_bits[candidate] = False
                    self._clock_hand += 1
                    continue
                victim = candidate
                self._clock_ring.pop(self._clock_hand)
                break
        self._evict_index(victim)

    def _evict_index(self, index: int) -> None:
        if self._pages.pop(index, None) is not None:
            bundle = _METRICS()
            bundle.evictions.inc()
            bundle.resident.dec()
        self._ref_bits.pop(index, None)
        if self._memory is not None:
            self._memory.release(UNITS_PER_PAGE, label="buffer pool")
