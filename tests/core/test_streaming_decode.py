"""Tests for the §8 extension: parameter streaming during decode."""

import pytest

from repro.core import TZLLM, BatchConfig
from repro.errors import ConfigurationError
from repro.llm import TINYLLAMA


def make(residency):
    system = TZLLM(TINYLLAMA, decode_param_residency=residency)
    system.run_infer(8, 0)
    return system


def test_residency_bounds_validated():
    with pytest.raises(ConfigurationError):
        TZLLM(TINYLLAMA, decode_param_residency=0.0)
    with pytest.raises(ConfigurationError):
        TZLLM(TINYLLAMA, decode_param_residency=1.5)


def test_streaming_needs_a_single_stream_ta():
    """A concurrent prefill would need the parameters streaming evicts."""
    for config in (BatchConfig(max_batch_size=2), BatchConfig(max_batch_size=1, prefix_sharing=True)):
        with pytest.raises(ConfigurationError):
            TZLLM(TINYLLAMA, decode_param_residency=0.5, batch_config=config)
    TZLLM(TINYLLAMA, decode_param_residency=0.5, batch_config=BatchConfig(max_batch_size=1))


def test_streaming_reduces_resident_memory_during_decode():
    system = make(0.5)
    sim = system.sim
    observed = {}

    def snoop():
        # Sample resident parameter memory mid-decode.
        yield sim.timeout(1.2)
        observed["resident"] = system.ta.params_region.protected

    sim.process(snoop())
    record = system.run_infer(32, 12)
    total = system.ta.plan.total_alloc_bytes
    assert observed["resident"] <= 0.55 * total
    assert record.streamed_bytes_per_token > 0
    assert record.stream_sweeps == 12


def test_streaming_costs_decode_speed():
    resident = make(1.0)
    streaming = make(0.5)
    fast = resident.run_infer(32, 8).decode_tokens_per_second
    slow_rec = streaming.run_infer(32, 8)
    slow = slow_rec.decode_tokens_per_second
    # Flash-bound decode: the streamed half must be read every token.
    assert slow < 0.7 * fast
    floor = slow_rec.streamed_bytes_per_token / resident.stack.spec.flash.seq_read_bw
    assert min(slow_rec.decode.step_times) >= floor * 0.95


def test_streaming_overlaps_prefetch_with_compute():
    """Double buffering: steady-state token time ~= max(stream, compute),
    not their sum."""
    system = make(0.5)
    record = system.run_infer(32, 12)
    stream_time = record.streamed_bytes_per_token / system.stack.spec.flash.seq_read_bw
    steady = record.decode.step_times[3:]
    # Well below stream+compute (the non-overlapped upper bound).
    compute_alone = TZLLM(TINYLLAMA)
    compute_alone.run_infer(8, 0)
    base = compute_alone.run_infer(32, 4).decode.step_times[-1]
    for step in steady:
        assert step < 0.9 * (stream_time + base + stream_time * 0.5)


def test_full_residency_streams_nothing():
    system = make(1.0)
    record = system.run_infer(32, 4)
    assert record.streamed_bytes_per_token == 0
    assert record.stream_sweeps == 0
