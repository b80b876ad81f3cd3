"""Unit tests for the frame database and buddy allocator."""

import pytest

from repro.config import PAGE_SIZE
from repro.errors import ConfigurationError, MemoryError_, OutOfMemory
from repro.ree.buddy import BuddyAllocator
from repro.ree.pages import FrameDB, FrameState

PG = PAGE_SIZE


def make_db(n_frames=64, granule=PG):
    return FrameDB(n_frames * granule, granule)


def make_buddy(db):
    buddy = BuddyAllocator(db)
    buddy.finalize()
    return buddy


def test_framedb_validates_geometry():
    with pytest.raises(ConfigurationError):
        FrameDB(100, PG)  # not a granule multiple
    with pytest.raises(ConfigurationError):
        FrameDB(PG * 4, granule=100)  # granule not page multiple


def test_claim_and_release_roundtrip():
    db = make_db()
    alloc = db.claim([1, 2, 3], movable=True, tag="t")
    assert db.state(2) is FrameState.MOVABLE
    assert db.owner(2) is alloc
    db.release(alloc)
    assert db.state(2) is FrameState.FREE
    assert db.owner(2) is None
    with pytest.raises(MemoryError_):
        db.release(alloc)  # double free


def test_claim_occupied_frame_rejected():
    db = make_db()
    db.claim([5], movable=False, tag="a")
    with pytest.raises(MemoryError_):
        db.claim([5], movable=True, tag="b")


def test_move_frame_retargets_allocation():
    db = make_db()
    alloc = db.claim([10], movable=True, tag="app")
    db.move_frame(alloc, 10, 20)
    assert db.state(10) is FrameState.FREE
    assert db.state(20) is FrameState.MOVABLE
    assert alloc.owns(20) and not alloc.owns(10)


def test_move_unmovable_rejected():
    db = make_db()
    alloc = db.claim([10], movable=False, tag="kernel")
    with pytest.raises(MemoryError_):
        db.move_frame(alloc, 10, 20)


def test_release_frames_partial():
    db = make_db()
    alloc = db.claim([1, 2, 3, 4], movable=False, tag="x")
    db.release_frames(alloc, [3, 4])
    assert alloc.n_frames == 2
    assert db.state(3) is FrameState.FREE
    db.release_frames(alloc, [1, 2])
    assert alloc.freed


def test_buddy_prefers_outside_cma_when_plentiful():
    db = make_db(64)
    buddy = BuddyAllocator(db)

    class FakeCMA:
        start_frame, end_frame = 48, 64
        free_frames = 16

        def spill_frames(self, count):
            raise AssertionError("should not spill")

    buddy.attach_cma(FakeCMA())
    buddy.finalize()
    # Outside free (48) minus the request (16) still exceeds CMA free
    # (16), so the balancing heuristic stays out of the region.
    alloc = buddy.allocate(16, movable=True)
    assert max(alloc.frames) < 48


def test_buddy_balances_into_cma_when_it_dominates_free_memory():
    db = make_db(64)
    buddy = BuddyAllocator(db)

    class FakeCMA:
        start_frame, end_frame = 16, 64
        free_frames = 48

        def __init__(self):
            self.given = []

        def spill_frames(self, count):
            take = list(range(self.end_frame - len(self.given) - count,
                              self.end_frame - len(self.given)))
            self.given.extend(take)
            FakeCMA.free_frames -= count
            return take

    fake = FakeCMA()
    buddy.attach_cma(fake)
    buddy.finalize()
    alloc = buddy.allocate(32, movable=True)
    # CMA held 48 of 64 free frames: the movable allocation draws on it.
    assert any(f >= 16 for f in alloc.frames)
    assert fake.given


def test_buddy_unmovable_never_spills():
    db = make_db(64)
    buddy = BuddyAllocator(db)

    class FakeCMA:
        start_frame, end_frame = 32, 64
        free_frames = 32

        def spill_frames(self, count):
            raise AssertionError("unmovable must not spill")

    buddy.attach_cma(FakeCMA())
    buddy.finalize()
    buddy.allocate(32, movable=False)  # exactly fills outside
    with pytest.raises(OutOfMemory):
        buddy.allocate(1, movable=False)


def test_buddy_oom_reports_availability():
    db = make_db(8)
    buddy = make_buddy(db)
    buddy.allocate(8, movable=True)
    with pytest.raises(OutOfMemory):
        buddy.allocate(1, movable=True)


def test_buddy_free_returns_frames():
    db = make_db(8)
    buddy = make_buddy(db)
    a = buddy.allocate(8, movable=True)
    buddy.free(a)
    b = buddy.allocate(8, movable=True)
    assert b.n_frames == 8


def test_buddy_alloc_seconds_linear():
    from repro.config import MemorySpec

    db = make_db(8)
    buddy = make_buddy(db)
    spec = MemorySpec()
    assert buddy.alloc_seconds(2 * spec.buddy_alloc_bw, spec) == pytest.approx(2.0)


def test_buddy_lowest_index_first_determinism():
    db = make_db(16)
    buddy = make_buddy(db)
    a = buddy.allocate(4, movable=True)
    assert sorted(a.frames) == [0, 1, 2, 3]
    buddy.free(a)
    b = buddy.allocate(4, movable=True)
    assert sorted(b.frames) == [0, 1, 2, 3]


# ---------------------------------------------------------------------------
# reclaim (pressure pages dropped to make room)
# ---------------------------------------------------------------------------
def make_buddy_with_cma(n_frames=64, cma_start=32):
    from repro.config import MemorySpec
    from repro.ree.cma import CMARegion
    from repro.sim import Simulator

    db = make_db(n_frames)
    buddy = BuddyAllocator(db)
    CMARegion(Simulator(), db, buddy, None, cma_start, n_frames - cma_start, MemorySpec())
    buddy.finalize()
    return db, buddy


@pytest.mark.parametrize("n", [0, 1, 10, 24, 30, 100])
def test_reclaim_outside_frees_min_of_request_and_outside_frames(n):
    db, buddy = make_buddy_with_cma()
    # Balanced placement: 24 frames outside the region, 24 inside.
    alloc = buddy.allocate(48, movable=True, tag="pressure")
    outside = [f for f in alloc.frames if f < 32]
    inside = {f for f in alloc.frames if f >= 32}
    assert len(outside) == len(inside) == 24
    buddy.register_reclaimable(alloc)
    free_before = buddy.free_outside_cma

    freed = buddy.reclaim_outside(n)

    expected = outside[: min(n, 24)]
    assert freed == len(expected) == buddy.reclaimed_frames
    assert buddy.free_outside_cma == free_before + freed
    assert all(db.state(f) is FrameState.FREE for f in expected)
    assert alloc.frames == set(outside[len(expected) :]) | inside
    # CMA frames are never reclaimed; the allocation keeps them and so
    # stays registered.
    assert not alloc.freed
    assert alloc in buddy._reclaimable


def test_reclaim_outside_drops_drained_allocations_in_order():
    _db, buddy = make_buddy_with_cma(cma_start=48)  # both land outside
    first = buddy.allocate(4, movable=True, tag="a")
    second = buddy.allocate(4, movable=True, tag="b")
    buddy.register_reclaimable(first)
    buddy.register_reclaimable(second)

    assert buddy.reclaim_outside(6) == 6
    assert first.freed
    assert first not in buddy._reclaimable
    assert second.n_frames == 2 and not second.freed
    assert buddy._reclaimable == [second]

    assert buddy.reclaim_outside(5) == 2
    assert second.freed
    assert buddy._reclaimable == []
    assert buddy.reclaim_outside(1) == 0


def test_cma_migration_under_exhausted_outside_memory_uses_reclaim():
    from repro.config import RK3588
    from repro.stack import build_stack
    from repro.workloads import MemoryStress

    stack = build_stack(
        spec=RK3588.with_memory(256 * PG),
        granule=PG,
        os_footprint=0,
        cma_regions={"params": 64 * PG},
    )
    kernel = stack.kernel
    region = kernel.cma_regions["params"]
    stress = MemoryStress(kernel, 256 * PG, headroom=0)
    stress.start()
    assert kernel.buddy.free_outside_cma == 0
    run = range(region.start_frame, region.start_frame + 16)
    occupied = sum(1 for f in run if kernel.db.state(f) is not FrameState.FREE)
    assert occupied == 16

    proc = stack.sim.process(region.allocate_range(region.start_frame, 16))
    alloc = stack.sim.run_until(proc)

    # Every destination came from a dropped pressure page.
    assert kernel.buddy.reclaimed_frames == occupied
    assert kernel.buddy.free_outside_cma == 0
    assert region.total_migrated_bytes == occupied * PG
    assert sorted(alloc.frames) == list(run)
    assert stress.verify_surviving_pages() == stress.mapped_bytes // PG
    stress.stop()
