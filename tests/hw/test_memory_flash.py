"""Unit tests for physical memory (TZASC-filtered) and flash."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import PAGE_SIZE, FlashSpec
from repro.errors import AccessDenied, ConfigurationError, DMAViolation, StorageError
from repro.hw import AddrRange, Flash, PhysicalMemory, TZASC, World
from repro.sim import Simulator

S = World.SECURE
N = World.NONSECURE
PG = PAGE_SIZE


@pytest.fixture
def mem():
    return PhysicalMemory(64 * PG)


def test_read_back_what_was_written(mem):
    mem.cpu_write(100, b"hello world", N)
    assert mem.cpu_read(100, 11, N) == b"hello world"


def test_unwritten_memory_reads_zero(mem):
    assert mem.cpu_read(0, 8, N) == b"\x00" * 8


def test_cross_page_write_and_read(mem):
    data = bytes(range(256)) * 40  # > 2 pages
    base = PG - 100
    mem.cpu_write(base, data, N)
    assert mem.cpu_read(base, len(data), N) == data


def test_out_of_bounds_rejected(mem):
    with pytest.raises(ConfigurationError):
        mem.cpu_read(64 * PG - 4, 8, N)
    with pytest.raises(ConfigurationError):
        mem.cpu_write(-1, b"x", N)


def test_secure_region_blocks_nonsecure_cpu(mem):
    mem.cpu_write(4 * PG, b"secret-weights", S)
    mem.tzasc.configure(S, 0, 4 * PG, 2 * PG)
    with pytest.raises(AccessDenied):
        mem.cpu_read(4 * PG, 14, N)
    with pytest.raises(AccessDenied):
        mem.cpu_write(4 * PG, b"tamper", N)
    assert mem.cpu_read(4 * PG, 14, S) == b"secret-weights"


def test_dma_filtered_by_device_grants(mem):
    mem.cpu_write(4 * PG, b"weights", S)
    mem.tzasc.configure(S, 0, 4 * PG, 2 * PG)
    with pytest.raises(DMAViolation):
        mem.dma_read(4 * PG, 7, "npu")
    mem.tzasc.allow_device(S, 0, "npu")
    assert mem.dma_read(4 * PG, 7, "npu") == b"weights"
    with pytest.raises(DMAViolation):
        mem.dma_write(4 * PG, b"evil", "rogue-device")


def test_scrub_zeroes_range(mem):
    mem.cpu_write(10, b"abcdef", S)
    mem.scrub(10, 6, S)
    assert mem.cpu_read(10, 6, S) == b"\x00" * 6


def test_scrub_respects_tzasc(mem):
    mem.tzasc.configure(S, 0, 0, PG)
    with pytest.raises(AccessDenied):
        mem.scrub(0, 16, N)


def test_memory_requires_page_multiple():
    with pytest.raises(ConfigurationError):
        PhysicalMemory(100)


def test_copy_range_moves_bytes_and_keeps_source(mem):
    mem.cpu_write(PG + 7, b"payload", S)
    mem.cpu_write(9 * PG, b"stale-occupant", S)
    mem.copy_range(PG, 9 * PG, 2 * PG)
    assert mem.cpu_read(9 * PG, 14, S) == b"\x00" * 7 + b"payload"
    assert mem.cpu_read(PG + 7, 7, S) == b"payload"


def test_copy_range_rejects_overlap(mem):
    # Zeroing the destination first would wipe the overlapping source:
    # this copy used to leave only 2048 of the 8192 "A" bytes behind.
    mem.cpu_write(0, b"A" * 8192, S)
    with pytest.raises(ConfigurationError):
        mem.copy_range(0, 2048, 8192)
    with pytest.raises(ConfigurationError):
        mem.copy_range(2048, 0, 8192)
    with pytest.raises(ConfigurationError):
        mem.copy_range(0, 0, 1)
    assert mem.cpu_read(0, 8192, S) == b"A" * 8192
    mem.copy_range(0, 8192, 8192)  # adjacent ranges do not overlap
    mem.copy_range(0, 0, 0)  # nor do empty ones
    assert mem.cpu_read(8192, 8192, S) == b"A" * 8192


# ---------------------------------------------------------------------------
# property: the sparse store behaves like a dense bytearray
# ---------------------------------------------------------------------------
CHUNK = 256  # pages per materialization-index chunk
MODEL_PAGES = 2 * CHUNK + 4

_pages = st.one_of(
    st.sampled_from([0, 1, CHUNK - 2, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK - 1, 2 * CHUNK]),
    st.integers(0, MODEL_PAGES - 1),
)
_offsets = st.one_of(st.sampled_from([0, 1, PG - 1]), st.integers(0, PG - 1))
_addrs = st.builds(lambda page, off: page * PG + off, _pages, _offsets)
_sizes = st.one_of(
    st.sampled_from([0, 1, PG - 1, PG, PG + 1, 2 * PG, CHUNK * PG]),
    st.integers(0, 3 * PG),
)
_ops = st.one_of(
    st.tuples(st.sampled_from(["cpu_write", "raw_write"]), _addrs, _sizes, st.integers(1, 255)),
    st.tuples(st.just("scrub"), _addrs, _sizes),
    st.tuples(st.just("copy"), _addrs, _addrs, _sizes),
)


def _indexed_pages(mem):
    return {
        chunk * CHUNK + bit
        for chunk, mask in mem._chunks.items()
        for bit in range(CHUNK)
        if mask >> bit & 1
    }


@given(ops=st.lists(_ops, max_size=12))
@example(ops=[  # copy onto a destination with a prior occupant
    ("cpu_write", 3 * PG, 2 * PG, 7),
    ("cpu_write", (CHUNK + 1) * PG + 5, PG, 9),
    ("copy", 3 * PG, CHUNK * PG, 2 * PG),
])
@example(ops=[  # ranges straddling the page-255/256 chunk boundary
    ("raw_write", (CHUNK - 1) * PG + 10, 2 * PG, 3),
    ("copy", (CHUNK - 1) * PG + 1, 2 * PG + 3, PG + 17),
    ("scrub", (CHUNK - 1) * PG + 100, PG, 0),
])
@example(ops=[("cpu_write", 5, 0, 1), ("scrub", 5, 0), ("copy", 5, 9, 0)])
@settings(max_examples=60, deadline=None)
def test_sparse_memory_matches_dense_model(ops):
    total = MODEL_PAGES * PG
    mem = PhysicalMemory(total)
    ref = bytearray(total)
    for op in ops:
        kind, addr = op[0], op[1]
        if kind in ("cpu_write", "raw_write"):
            size = min(op[2], total - addr)
            data = bytes([op[3]]) * size
            if kind == "cpu_write":
                mem.cpu_write(addr, data, N)
            else:
                mem._raw_write(addr, data)
            ref[addr : addr + size] = data
        elif kind == "scrub":
            size = min(op[2], total - addr)
            mem.scrub(addr, size, N)
            ref[addr : addr + size] = bytes(size)
        else:
            dst = op[2]
            size = min(op[3], total - addr, total - dst)
            if size and addr < dst + size and dst < addr + size:
                with pytest.raises(ConfigurationError):
                    mem.copy_range(addr, dst, size)
            else:
                mem.copy_range(addr, dst, size)
                ref[dst : dst + size] = ref[addr : addr + size]
        assert _indexed_pages(mem) == set(mem._pages)
        assert all(len(page) == PG for page in mem._pages.values())
        assert mem._raw_read(0, total) == bytes(ref)


# ---------------------------------------------------------------------------
# Flash
# ---------------------------------------------------------------------------
def test_flash_read_takes_bandwidth_time():
    sim = Simulator()
    flash = Flash(sim, FlashSpec(seq_read_bw=1000.0, read_latency=0.5))
    flash.provision("model.bin", b"x" * 2000)

    result = {}

    def proc():
        data = yield from flash.read("model.bin", 0, 2000)
        result["data"] = data

    done = sim.process(proc())
    sim.run_until(done)
    assert result["data"] == b"x" * 2000
    assert sim.now == pytest.approx(0.5 + 2.0)


def test_flash_concurrent_reads_share_bandwidth():
    sim = Simulator()
    flash = Flash(sim, FlashSpec(seq_read_bw=1000.0, read_latency=0.0))
    flash.provision("a", b"a" * 1000)
    flash.provision("b", b"b" * 1000)
    finish = {}

    def proc(name):
        yield from flash.read(name, 0, 1000)
        finish[name] = sim.now

    sim.process(proc("a"))
    sim.process(proc("b"))
    sim.run()
    assert finish["a"] == pytest.approx(2.0)
    assert finish["b"] == pytest.approx(2.0)


def test_flash_partial_read_and_bounds():
    sim = Simulator()
    flash = Flash(sim, FlashSpec())
    flash.provision("f", b"0123456789")

    def proc():
        data = yield from flash.read("f", 3, 4)
        return data

    done = sim.process(proc())
    assert sim.run_until(done) == b"3456"

    def bad():
        yield from flash.read("f", 8, 5)

    bad_proc = sim.process(bad())
    with pytest.raises(ConfigurationError):
        sim.run_until(bad_proc)


def test_flash_write_then_peek():
    sim = Simulator()
    flash = Flash(sim, FlashSpec())

    def proc():
        yield from flash.write("log", 0, b"hello")
        yield from flash.write("log", 5, b" world")

    done = sim.process(proc())
    sim.run_until(done)
    assert flash.peek("log") == b"hello world"
    assert flash.size("log") == 11


def test_flash_missing_blob_rejected():
    sim = Simulator()
    flash = Flash(sim, FlashSpec())
    # A missing blob is a runtime storage failure (retryable by a
    # hardened caller), not a configuration mistake.
    with pytest.raises(StorageError):
        flash.size("ghost")
