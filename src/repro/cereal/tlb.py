"""Accelerator TLB (paper Section V-E, "Address Translation").

Cereal assumes 1 GB huge pages; with a 128-entry TLB and a 128 GB physical
memory there are effectively no misses on the evaluated system, but the
model still tracks hits/misses and charges a page-walk penalty so larger
memories (or smaller pages, for ablations) behave sensibly. Replacement is
LRU. :attr:`TLB.mru_page` is the page the last translation touched, which
sits at the LRU's most-recent end: a repeat translation of it is a hit
that moves nothing, which the MAI counts without the call.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.common.errors import SimulationError

DEFAULT_ENTRIES = 128
DEFAULT_PAGE_BYTES = 1 << 30  # 1 GB huge pages
PAGE_WALK_NS = 120.0  # four-level walk from memory, amortized


class TLB:
    """LRU translation lookaside buffer with hit/miss accounting."""

    def __init__(
        self,
        entries: int = DEFAULT_ENTRIES,
        page_bytes: int = DEFAULT_PAGE_BYTES,
    ):
        if entries <= 0:
            raise SimulationError("TLB needs at least one entry")
        if page_bytes <= 0 or page_bytes & (page_bytes - 1):
            raise SimulationError("page size must be a positive power of two")
        self.entries = entries
        self.page_bytes = page_bytes
        self._pages: OrderedDict[int, None] = OrderedDict()
        self.mru_page: Optional[int] = None
        self.hits = 0
        self.misses = 0

    def translate(self, address: int) -> float:
        """Translate ``address``; returns the added latency in nanoseconds."""
        page = address // self.page_bytes
        self.mru_page = page
        if page in self._pages:
            self._pages.move_to_end(page)
            self.hits += 1
            return 0.0
        self.misses += 1
        self._pages[page] = None
        if len(self._pages) > self.entries:
            self._pages.popitem(last=False)
        return PAGE_WALK_NS

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
