"""Paged backing storage for BLOBs.

A :class:`PageStore` hands out fixed-size pages from a backing *pager*
(memory or file), tracks a free list, and reports fragmentation
statistics. BLOBs allocate page chains from it; freeing returns pages for
reuse, which is how interleaved capture of several growing BLOBs produces
the fragmented ("non-contiguous") layouts the paper mentions.

The layout of BLOBs "is a performance issue and not directly relevant to
data modeling" (§4.1) — but the model must tolerate it, so we build it.
"""

from __future__ import annotations

import os
import zlib
from typing import TYPE_CHECKING, Iterable

from repro.errors import BlobCorruptionError, BlobError
from repro.obs.events import Severity
from repro.obs.instrument import Instrumented, Observability

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cache.pool import BufferPool

#: Default page size (bytes). Small enough that test blobs fragment,
#: large enough to amortize per-page bookkeeping.
PAGE_SIZE = 4096


class MemoryPager:
    """Backing pager keeping pages in a list of bytearrays."""

    def __init__(self, page_size: int = PAGE_SIZE):
        self.page_size = page_size
        self._pages: list[bytearray] = []

    def __len__(self) -> int:
        return len(self._pages)

    def grow(self) -> int:
        """Append a zeroed page; return its page number."""
        self._pages.append(bytearray(self.page_size))
        return len(self._pages) - 1

    def read_page(self, page_no: int) -> bytes:
        self._check(page_no)
        return bytes(self._pages[page_no])

    def write_page(self, page_no: int, data: bytes, offset: int = 0) -> None:
        self._check(page_no)
        if offset + len(data) > self.page_size:
            raise BlobError(
                f"write of {len(data)} bytes at offset {offset} exceeds "
                f"page size {self.page_size}"
            )
        self._pages[page_no][offset:offset + len(data)] = data

    def _check(self, page_no: int) -> None:
        if not 0 <= page_no < len(self._pages):
            raise BlobError(f"page {page_no} out of range (have {len(self._pages)})")


class FilePager:
    """Backing pager over a single file.

    The file is opened (and created if missing) in binary read/write
    mode. Pages are addressed by number; growing extends the file with a
    zeroed page.

    ``fs`` selects the filesystem the pager writes through — the real OS
    by default, or a crashable
    :class:`~repro.faults.disk.SimulatedMedium` under the crash matrix.
    :meth:`sync` is the durability barrier
    :class:`~repro.durability.store.DurablePageStore` checkpoints
    against.
    """

    def __init__(self, path: str | os.PathLike, page_size: int = PAGE_SIZE,
                 fs=None, repair: bool = False):
        # Imported lazily: repro.durability.fs is dependency-free, but
        # pulling it in at module scope would run repro.durability's
        # package init, which imports this module right back.
        from repro.durability.fs import resolve

        self.page_size = page_size
        self.path = os.fspath(path)
        self.fs = resolve(fs)
        self.repaired_bytes = 0
        mode = "r+b" if self.fs.exists(self.path) else "w+b"
        self._file = self.fs.open(self.path, mode)
        self._file.seek(0, os.SEEK_END)
        size = self._file.tell()
        if size % page_size:
            if not repair:
                self._file.close()
                raise BlobError(
                    f"{self.path} size {size} is not a multiple of page size"
                )
            # A crash can tear the file's last page mid-write. Pad it
            # back to a page boundary: WAL replay rewrites any damaged
            # committed page from its full image, and bytes past the
            # last commit were never acknowledged.
            pad = page_size - (size % page_size)
            self._file.write(b"\x00" * pad)
            self.repaired_bytes = pad
            size += pad
        self._page_count = size // page_size

    def __len__(self) -> int:
        return self._page_count

    def grow(self) -> int:
        page_no = self._page_count
        self._file.seek(page_no * self.page_size)
        self._file.write(b"\x00" * self.page_size)
        self._page_count += 1
        return page_no

    def read_page(self, page_no: int) -> bytes:
        self._check(page_no)
        self._file.seek(page_no * self.page_size)
        data = self._file.read(self.page_size)
        if len(data) != self.page_size:
            raise BlobError(f"short read on page {page_no}")
        return data

    def write_page(self, page_no: int, data: bytes, offset: int = 0) -> None:
        self._check(page_no)
        if offset + len(data) > self.page_size:
            raise BlobError(
                f"write of {len(data)} bytes at offset {offset} exceeds "
                f"page size {self.page_size}"
            )
        self._file.seek(page_no * self.page_size + offset)
        self._file.write(data)

    def flush(self) -> None:
        self._file.flush()

    def sync(self) -> None:
        """Flush and fsync the backing file: pages are durable after this.

        Also fsyncs the parent directory — a file this pager *created*
        has no durable name until its directory entry is synced, and a
        crash would otherwise resurrect an empty namespace around a
        perfectly synced file (the crash matrix caught exactly that).
        """
        self.fs.fsync(self._file)
        fsync_dir = getattr(self.fs, "fsync_dir", None)
        if fsync_dir is not None:
            fsync_dir(os.path.dirname(self.path) or ".")

    def close(self) -> None:
        if not self._file.closed:
            self._file.flush()
            self._file.close()

    def __enter__(self) -> "FilePager":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _check(self, page_no: int) -> None:
        if not 0 <= page_no < self._page_count:
            raise BlobError(f"page {page_no} out of range (have {self._page_count})")


class PageStore(Instrumented):
    """Page allocator with a free list over a backing pager.

    With ``checksums=True`` the store keeps a CRC-32 per page, updated
    on every write and verified on every read, so silent corruption
    beneath the pager (bad media, an injected bit flip) surfaces as
    :class:`~repro.errors.BlobCorruptionError` instead of decoding
    garbage downstream. Checksums are computed from the write path's own
    data — a fault-injecting pager may expose ``read_page_raw`` so the
    maintenance read bypasses injected read faults (the controller
    checksums bytes still in its buffer).

    With a ``buffer_pool`` (:class:`~repro.cache.pool.BufferPool`) the
    store reads through a bounded LRU page cache: hits skip the pager
    *and* checksum verification (only verified bytes are cached), and
    every write, free or reuse invalidates or refreshes the cached copy
    so the pool never serves stale data.
    """

    def __init__(self, pager: MemoryPager | FilePager | None = None,
                 checksums: bool = False,
                 buffer_pool: "BufferPool | None" = None,
                 obs: Observability | None = None):
        # Explicit None check: an empty pager is falsy (len() == 0), so
        # `pager or MemoryPager()` would silently discard it.
        self.pager = MemoryPager() if pager is None else pager
        self.buffer_pool = buffer_pool
        if obs is not None:
            self.instrument(obs)
        # Free pages: the set answers membership in O(1) (double-free
        # checks, bulk release of large blobs), the list preserves LIFO
        # reuse order. Both are updated together.
        self._free: set[int] = set()
        self._free_order: list[int] = []
        self.checksums = checksums
        self._checksums: dict[int, int] = {}
        self._zero_page = bytes(self.page_size)
        self._zero_crc = zlib.crc32(self._zero_page)

    def _instrument_children(self, obs: Observability) -> None:
        if isinstance(self.pager, Instrumented):
            self.pager.instrument(obs)
        if self.buffer_pool is not None:
            self.buffer_pool.instrument(obs)

    @property
    def page_size(self) -> int:
        return self.pager.page_size

    @property
    def allocated_pages(self) -> int:
        return len(self.pager) - len(self._free)

    @property
    def free_pages(self) -> int:
        return len(self._free)

    def allocate(self) -> int:
        """Return a zeroed page number, reusing freed pages before growing.

        A reused page is zeroed (and its checksum reset) before it is
        handed out — freshly grown pages arrive zeroed from the pager,
        and the new owner must never see the previous owner's bytes.
        """
        if self._free_order:
            page_no = self._free_order.pop()
            self._free.discard(page_no)
            self.pager.write_page(page_no, self._zero_page)
            if self.checksums:
                self._checksums[page_no] = self._zero_crc
            if self.buffer_pool is not None:
                self.buffer_pool.invalidate(page_no)
            self._obs.metrics.counter("blob.page.zeroed").inc()
            self._obs.metrics.counter("blob.page.allocations").inc(
                source="reuse"
            )
            return page_no
        page_no = self.pager.grow()
        if self.checksums:
            self._checksums[page_no] = self._zero_crc
        self._obs.metrics.counter("blob.page.allocations").inc(source="grow")
        return page_no

    def allocate_many(self, count: int) -> list[int]:
        return [self.allocate() for _ in range(count)]

    def free(self, page_no: int) -> None:
        if not 0 <= page_no < len(self.pager):
            raise BlobError(
                f"cannot free page {page_no}: out of range "
                f"(have {len(self.pager)})"
            )
        if page_no in self._free:
            raise BlobError(f"double free of page {page_no}")
        self._free.add(page_no)
        self._free_order.append(page_no)
        if self.buffer_pool is not None:
            self.buffer_pool.invalidate(page_no)
        self._obs.metrics.counter("blob.page.frees").inc()

    def free_many(self, pages: Iterable[int]) -> None:
        for page_no in pages:
            self.free(page_no)

    def read(self, page_no: int, verify: bool = True) -> bytes:
        metrics = self._obs.metrics
        metrics.counter("blob.page.reads").inc()
        pool = self.buffer_pool
        if pool is not None:
            cached = pool.get(page_no)
            if cached is not None:
                # Cached bytes were verified at fill time; serving the
                # hit skips both the pager and the CRC pass.
                metrics.counter("blob.page.cache_hits").inc()
                metrics.counter("blob.page.bytes_read").inc(len(cached))
                return cached
        data = self.pager.read_page(page_no)
        metrics.counter("blob.page.pager_reads").inc()
        metrics.counter("blob.page.bytes_read").inc(len(data))
        if verify and self.checksums:
            expected = self._checksums.get(page_no)
            if expected is not None:
                metrics.counter("blob.page.checksum_verifications").inc()
                if zlib.crc32(data) != expected:
                    metrics.counter("blob.page.checksum_failures").inc()
                    self._obs.events.record(
                        Severity.ERROR, "blob.pages", "checksum.failure",
                        page=page_no,
                    )
                    raise BlobCorruptionError(
                        f"page {page_no} failed checksum verification"
                    )
        if pool is not None and (verify or not self.checksums):
            # Only verified (or checksum-free) bytes may enter the pool;
            # a salvage read with verify=False must not poison it.
            pool.put(page_no, data)
        return data

    def write(self, page_no: int, data: bytes, offset: int = 0) -> None:
        metrics = self._obs.metrics
        metrics.counter("blob.page.writes").inc()
        metrics.counter("blob.page.bytes_written").inc(len(data))
        self.pager.write_page(page_no, data, offset)
        full_page = offset == 0 and len(data) == self.page_size
        if self.checksums:
            if full_page:
                self._checksums[page_no] = zlib.crc32(data)
            else:
                self._checksums[page_no] = zlib.crc32(self._read_raw(page_no))
        pool = self.buffer_pool
        if pool is not None and page_no in pool:
            # Write-through: refresh a cached full page in place, drop a
            # partially overwritten one (the pool never holds stale data).
            if full_page:
                pool.put(page_no, data)
            else:
                pool.invalidate(page_no)

    def verify_page(self, page_no: int) -> bool:
        """Does ``page_no`` currently match its recorded checksum?

        Pages never written through a checksumming store (e.g. from a
        reopened file) have no recorded checksum and verify trivially;
        use :meth:`rebuild_checksums` to adopt them.
        """
        expected = self._checksums.get(page_no)
        if expected is None:
            return True
        return zlib.crc32(self.pager.read_page(page_no)) == expected

    def rebuild_checksums(self) -> None:
        """Recompute checksums for every page from the raw backing data."""
        self._checksums = {
            page_no: zlib.crc32(self._read_raw(page_no))
            for page_no in range(len(self.pager))
        }

    def _read_raw(self, page_no: int) -> bytes:
        """Maintenance read for checksum upkeep, accounted separately.

        Raw re-reads (partial-write checksum refresh, rebuilds) are
        *not* logical page reads: they bump ``blob.page.raw_reads`` /
        ``raw_bytes_read``, never ``blob.page.reads`` or ``bytes_read``,
        so cache hit-ratio math over the read counters stays truthful.
        """
        raw_read = getattr(self.pager, "read_page_raw", self.pager.read_page)
        data = raw_read(page_no)
        metrics = self._obs.metrics
        metrics.counter("blob.page.raw_reads").inc()
        metrics.counter("blob.page.raw_bytes_read").inc(len(data))
        return data

    def flush(self) -> None:
        flush = getattr(self.pager, "flush", None)
        if flush is not None:
            flush()

    def close(self) -> None:
        close = getattr(self.pager, "close", None)
        if close is not None:
            close()

    def fragmentation(self, chain: list[int]) -> float:
        """Fraction of non-adjacent successors in a page chain.

        0.0 means perfectly contiguous; approaching 1.0 means every page
        jump is a seek. Used by the layout ablation benchmark.
        """
        if len(chain) < 2:
            return 0.0
        breaks = sum(
            1 for a, b in zip(chain, chain[1:]) if b != a + 1
        )
        return breaks / (len(chain) - 1)
