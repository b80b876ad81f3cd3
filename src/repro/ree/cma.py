"""Contiguous Memory Allocator with real movable-page migration.

A :class:`CMARegion` reserves a contiguous frame range at boot.  The buddy
allocator may place *movable* pages inside it (via :meth:`spill_frames`)
when the rest of memory is full; to hand out a contiguous run the CMA then
migrates those pages out: it takes a destination frame outside the region,
**copies the page's bytes** in simulated physical memory, retargets the
owning allocation, and frees the source frame — exactly the kernel's
sequence described in §2.2.

Timing: migration is charged at the calibrated 1.9 GB/s single-thread
throughput, scaling with ``threads**alpha`` (α=0.5 reproduces the paper's
3.8 GB/s at 4 threads); claiming already-free frames costs only the buddy
fast-path rate.  Busy intervals are logged so the Fig. 16 interference
model can see when migration stole memory bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set

from ..config import MemorySpec
from ..errors import (
    ConfigurationError,
    ContiguityError,
    MemoryError_,
    MigrationError,
    OutOfMemory,
)
from ..hw.memory import PhysicalMemory
from ..sim import Simulator
from .buddy import BuddyAllocator
from .pages import Allocation, FrameDB, FrameState

__all__ = ["CMARegion", "MigrationRecord"]


@dataclass
class MigrationRecord:
    """One timed migration burst (for interference accounting)."""

    start: float
    end: float
    bytes_migrated: int
    threads: int

    @property
    def duration(self) -> float:
        return self.end - self.start

    def overlap(self, window_start: float, window_end: float) -> float:
        return max(0.0, min(self.end, window_end) - max(self.start, window_start))


class CMARegion:
    """One reserved contiguous region: spill, migrate, carve, release."""

    def __init__(
        self,
        sim: Simulator,
        db: FrameDB,
        buddy: BuddyAllocator,
        memory: Optional[PhysicalMemory],
        start_frame: int,
        n_frames: int,
        spec: MemorySpec,
        name: str = "cma",
    ):
        if start_frame < 0 or start_frame + n_frames > db.n_frames:
            raise ConfigurationError("CMA region outside RAM")
        self.sim = sim
        self.db = db
        self.buddy = buddy
        self.memory = memory
        self.spec = spec
        self.name = name
        self.start_frame = start_frame
        self.end_frame = start_frame + n_frames
        self.n_frames = n_frames
        self._free: Set[int] = set(range(start_frame, self.end_frame))
        self.migrations: List[MigrationRecord] = []
        self.total_migrated_bytes = 0
        #: fault site ``cma.migration_fail`` (repro.faults): a movable
        #: page is transiently pinned mid-migration.  The fallback path
        #: backs off and retries the frame; the pin is usually gone.
        self.fault_injector = None
        self.migration_retry_attempts = 3
        self.migration_retry_backoff = 250e-6
        self.migration_failures = 0
        self.migration_retries = 0
        #: observability attach points (repro.obs.instrument).
        self.metrics = None
        self.recorder = None
        buddy.attach_cma(self)

    # ------------------------------------------------------------------
    @property
    def free_frames(self) -> int:
        return len(self._free)

    @property
    def base_addr(self) -> int:
        return self.db.frame_addr(self.start_frame)

    @property
    def size_bytes(self) -> int:
        return self.n_frames * self.db.granule

    # ------------------------------------------------------------------
    # buddy spill interface (movable pages parked in the region)
    # ------------------------------------------------------------------
    def spill_frames(self, count: int) -> List[int]:
        """Give the buddy up to ``count`` free frames (highest-index first,
        mirroring the kernel's preference to keep the region head clear)."""
        take = sorted(self._free, reverse=True)[:count]
        for frame in take:
            self._free.discard(frame)
        return take

    def return_frame(self, frame: int) -> None:
        if not self.start_frame <= frame < self.end_frame:
            raise MemoryError_("frame %d outside CMA region %s" % (frame, self.name))
        self._free.add(frame)

    # ------------------------------------------------------------------
    # contiguous allocation (timed generator)
    # ------------------------------------------------------------------
    def allocate_range(self, start_frame: int, n_frames: int, threads: int = 1, tag: str = ""):
        """Carve the *specific* contiguous run ``[start_frame, +n_frames)``.

        Generator: migrates any movable occupants out (copying real bytes,
        charging migration time), claims the run, and returns a contiguous
        :class:`Allocation`.  Raises :class:`ContiguityError` if the run
        lies outside the region and :class:`OutOfMemory` if migration
        destinations run out.
        """
        if n_frames <= 0:
            raise ConfigurationError("n_frames must be positive")
        if start_frame < self.start_frame or start_frame + n_frames > self.end_frame:
            raise ContiguityError(
                "run [%d,%d) outside CMA region [%d,%d)"
                % (start_frame, start_frame + n_frames, self.start_frame, self.end_frame)
            )
        metrics = self.metrics
        if metrics is not None:
            metrics.counter(
                "cma_allocations_total", "Contiguous runs carved from CMA regions"
            ).inc(region=self.name)
        migrated_bytes = 0
        for frame in range(start_frame, start_frame + n_frames):
            state = self.db.state(frame)
            if state is FrameState.FREE:
                continue
            if state is FrameState.UNMOVABLE:
                raise MemoryError_("unmovable page inside CMA region %s" % self.name)
            attempt = 1
            while True:
                try:
                    migrated_bytes += self._migrate_out(frame)
                    break
                except MigrationError:
                    # Fallback: the pin is transient — back off (with the
                    # run's other migrations still batched) and retry the
                    # frame a bounded number of times before surfacing.
                    if attempt >= self.migration_retry_attempts:
                        raise
                    self.migration_retries += 1
                    if metrics is not None:
                        metrics.counter(
                            "cma_migration_retries_total",
                            "Migration retries after transient pins",
                        ).inc(region=self.name)
                    if self.recorder is not None:
                        self.recorder.record(
                            "retry", "cma.migration_fail",
                            "retrying pinned frame", frame=frame, attempt=attempt,
                        )
                    yield self.sim.timeout(
                        self.migration_retry_backoff * (2 ** (attempt - 1))
                    )
                    attempt += 1
        if migrated_bytes:
            start = self.sim.now
            yield self.sim.timeout(self.migration_seconds(migrated_bytes, threads))
            self.migrations.append(
                MigrationRecord(start, self.sim.now, migrated_bytes, threads)
            )
            self.total_migrated_bytes += migrated_bytes
            if metrics is not None:
                metrics.counter(
                    "cma_pages_migrated_total", "Movable granules migrated out"
                ).inc(migrated_bytes // self.db.granule, region=self.name)
                metrics.counter(
                    "cma_migrated_bytes_total", "Bytes copied by CMA migration"
                ).inc(migrated_bytes, region=self.name)
        # Fast-path claim cost for the whole run.
        yield self.sim.timeout(self.buddy.alloc_seconds(n_frames * self.db.granule, self.spec))
        frames = list(range(start_frame, start_frame + n_frames))
        for frame in frames:
            self._free.discard(frame)
        return self.db.claim(frames, movable=False, tag=tag or self.name, contiguous=True)

    def _migrate_out(self, frame: int) -> int:
        """Move one movable granule out of the region. Returns bytes moved."""
        owner = self.db.owner(frame)
        if owner is None:
            raise MemoryError_("occupied frame %d has no owner" % frame)
        if self.fault_injector is not None and self.fault_injector.fires(
            "cma.migration_fail"
        ):
            self.migration_failures += 1
            if self.recorder is not None:
                self.recorder.record(
                    "fault", "cma.migration_fail", "frame transiently pinned",
                    frame=frame, region=self.name,
                )
            raise MigrationError(
                "frame %d transiently pinned during migration out of %s"
                % (frame, self.name)
            )
        # The destination granule joins the owner allocation directly.
        dest = self.buddy.take_frame_outside()
        if self.memory is not None:
            self.memory.copy_range(
                self.db.frame_addr(frame), self.db.frame_addr(dest), self.db.granule
            )
        self.db.move_frame(owner, frame, dest)
        self._free.add(frame)
        return self.db.granule

    def release(self, alloc: Allocation) -> None:
        """Return a contiguous allocation's frames to the region."""
        frames = list(alloc.frames)
        for frame in frames:
            if not self.start_frame <= frame < self.end_frame:
                raise MemoryError_("allocation %d not inside region %s" % (alloc.alloc_id, self.name))
        self.db.release(alloc)
        self._free.update(frames)

    def release_tail(self, alloc: Allocation, n_frames: int) -> None:
        """Release the last ``n_frames`` granules of a contiguous allocation
        (the shrink path of the extend-and-shrink interface)."""
        if n_frames <= 0 or n_frames > alloc.n_frames:
            raise MemoryError_("cannot release %d of %d frames" % (n_frames, alloc.n_frames))
        tail = alloc.sorted_frames()[-n_frames:]
        self.db.release_frames(alloc, tail)
        self._free.update(tail)

    # cost model --------------------------------------------------------
    def migration_seconds(self, n_bytes: float, threads: int) -> float:
        if threads < 1:
            raise ConfigurationError("threads must be >= 1")
        aggregate = self.spec.cma_migration_bw * (threads ** self.spec.cma_thread_scaling_alpha)
        return n_bytes / aggregate

    def migrated_bytes_between(self, start: float, end: float) -> float:
        """Bytes of migration traffic overlapping a time window (Fig. 16)."""
        total = 0.0
        for record in self.migrations:
            overlap = record.overlap(start, end)
            if overlap > 0 and record.duration > 0:
                total += record.bytes_migrated * (overlap / record.duration)
        return total
