"""Physical memory: a sparse byte store with TrustZone filtering.

Every read/write names its bus master (CPU in a world, or a DMA device)
and is filtered through the TZASC before touching bytes.  This is what
makes the security tests *functional*: a compromised-REE attack is a
real ``cpu_read`` in the non-secure world, and it really raises
:class:`~repro.errors.AccessDenied` instead of returning parameter bytes.

Pages are materialized lazily (16 GiB of simulated RAM costs nothing
until written).  A per-chunk bitmask indexes the materialized pages, so
scrub, zeroing and page-migration copies cost host time in proportion to
the pages actually written, not to the bytes they span.  There is no
timing here — callers charge simulated time through their own cost
models.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..config import PAGE_SIZE
from ..errors import ConfigurationError
from .common import AddrRange, World
from .tzasc import TZASC

__all__ = ["PhysicalMemory"]

#: pages per materialization-index chunk: one ``int`` bitmask each.
_CHUNK_SHIFT = 8
_CHUNK_PAGES = 1 << _CHUNK_SHIFT
_ZEROS = memoryview(bytes(PAGE_SIZE))


class PhysicalMemory:
    """Sparse real-byte RAM; every access is TZASC-filtered."""

    def __init__(self, total_bytes: int, tzasc: Optional[TZASC] = None):
        if total_bytes <= 0 or total_bytes % PAGE_SIZE != 0:
            raise ConfigurationError("total_bytes must be a positive page multiple")
        self.total_bytes = total_bytes
        self.tzasc = tzasc if tzasc is not None else TZASC()
        self._pages: Dict[int, bytearray] = {}
        #: chunk index -> bitmask of its materialized pages (bit ``i`` is
        #: page ``chunk * _CHUNK_PAGES + i``); mirrors ``_pages``' keys.
        self._chunks: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # bounds + raw access
    # ------------------------------------------------------------------
    def _check_bounds(self, base: int, size: int) -> None:
        if base < 0 or size < 0 or base + size > self.total_bytes:
            raise ConfigurationError(
                "access [0x%x, 0x%x) outside RAM of %d bytes" % (base, base + size, self.total_bytes)
            )

    def _page(self, index: int) -> bytearray:
        page = self._pages.get(index)
        if page is None:
            page = bytearray(PAGE_SIZE)
            self._pages[index] = page
            chunk = index >> _CHUNK_SHIFT
            self._chunks[chunk] = self._chunks.get(chunk, 0) | (1 << (index & (_CHUNK_PAGES - 1)))
        return page

    def _materialized(self, base: int, size: int) -> List[int]:
        """Indices of materialized pages overlapping ``[base, base+size)``,
        ascending; ``size`` must be positive."""
        first_page = base // PAGE_SIZE
        last_page = (base + size - 1) // PAGE_SIZE
        found: List[int] = []
        chunks = self._chunks
        for chunk in range(first_page >> _CHUNK_SHIFT, (last_page >> _CHUNK_SHIFT) + 1):
            mask = chunks.get(chunk)
            if not mask:
                continue
            head = chunk << _CHUNK_SHIFT
            if head < first_page:
                mask &= -1 << (first_page - head)
            if last_page < head + _CHUNK_PAGES - 1:
                mask &= (1 << (last_page - head + 1)) - 1
            while mask:
                low = mask & -mask
                found.append(head + low.bit_length() - 1)
                mask ^= low
        return found

    def _raw_read(self, base: int, size: int) -> bytes:
        self._check_bounds(base, size)
        out = bytearray(size)
        pos = 0
        addr = base
        while pos < size:
            page_index, offset = divmod(addr, PAGE_SIZE)
            chunk = min(size - pos, PAGE_SIZE - offset)
            page = self._pages.get(page_index)
            if page is not None:
                out[pos : pos + chunk] = page[offset : offset + chunk]
            pos += chunk
            addr += chunk
        return bytes(out)

    def _raw_write(self, base: int, data: bytes) -> None:
        self._check_bounds(base, len(data))
        pos = 0
        addr = base
        size = len(data)
        while pos < size:
            page_index, offset = divmod(addr, PAGE_SIZE)
            chunk = min(size - pos, PAGE_SIZE - offset)
            self._page(page_index)[offset : offset + chunk] = data[pos : pos + chunk]
            pos += chunk
            addr += chunk

    # ------------------------------------------------------------------
    # filtered access
    # ------------------------------------------------------------------
    def cpu_read(self, base: int, size: int, world: World) -> bytes:
        """CPU load; TZASC-filtered against ``world``."""
        self.tzasc.check_cpu(AddrRange(base, size), world)
        return self._raw_read(base, size)

    def cpu_write(self, base: int, data: bytes, world: World) -> None:
        """CPU store; TZASC-filtered against ``world``."""
        self.tzasc.check_cpu(AddrRange(base, len(data)), world)
        self._raw_write(base, data)

    def dma_read(self, base: int, size: int, device: str) -> bytes:
        """Device DMA read; TZASC DMA-filtered for ``device``."""
        self.tzasc.check_dma(AddrRange(base, size), device)
        return self._raw_read(base, size)

    def dma_write(self, base: int, data: bytes, device: str) -> None:
        """Device DMA write; TZASC DMA-filtered for ``device``."""
        self.tzasc.check_dma(AddrRange(base, len(data)), device)
        self._raw_write(base, data)

    def scrub(self, base: int, size: int, world: World) -> None:
        """Zero a range (TEE OS clears sensitive data before release).

        Only materialized pages hold data, so only they are touched: the
        chunk index finds them, and scrubbing never-written simulated RAM
        costs one dict probe per 256-page chunk spanned.
        """
        self.tzasc.check_cpu(AddrRange(base, size), world)
        self._zero_raw(base, size)

    def _zero_raw(self, base: int, size: int) -> None:
        if size <= 0:
            return
        end = base + size
        for page_index in self._materialized(base, size):
            page_base = page_index * PAGE_SIZE
            start = max(base - page_base, 0)
            stop = min(end - page_base, PAGE_SIZE)
            self._pages[page_index][start:stop] = _ZEROS[: stop - start]

    def copy_range(self, src: int, dst: int, size: int) -> None:
        """Raw copy that skips never-materialized (all-zero) source pages.

        Used by page migration: copying a mostly-untouched granule costs
        only its written pages, exactly like copying zero pages costs the
        real kernel a memset it would do anyway.  The source is left as
        it was; ``src`` and ``dst`` ranges must not overlap.
        """
        self._check_bounds(src, size)
        self._check_bounds(dst, size)
        if size <= 0:
            return
        if src < dst + size and dst < src + size:
            raise ConfigurationError(
                "overlapping copy [0x%x, +0x%x) -> [0x%x, +0x%x)" % (src, size, dst, size)
            )
        # Clear stale destination content first: absent source pages are
        # logically zero, and the copy must not leak a prior occupant.
        self._zero_raw(dst, size)
        end = src + size
        for page_index in self._materialized(src, size):
            page_base = page_index * PAGE_SIZE
            start = max(src, page_base)
            stop = min(end, page_base + PAGE_SIZE)
            self._raw_write(
                dst + (start - src), self._pages[page_index][start - page_base : stop - page_base]
            )
