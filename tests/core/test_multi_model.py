"""Tests for hosting multiple protected models on one device."""

from dataclasses import replace

import pytest

from repro.core import TZLLM
from repro.errors import AccessDenied, ConfigurationError, SecurityViolation
from repro.llm import TINYLLAMA

SECOND = replace(TINYLLAMA, model_id="tinyllama-clone-b", display_name="Clone-B")
TINY = [
    replace(TINYLLAMA, model_id="m%d" % i, display_name="M%d" % i) for i in range(5)
]


@pytest.fixture(scope="module")
def multi():
    system = TZLLM([TINYLLAMA, SECOND], cache_fraction=1.0)
    for model_id in (TINYLLAMA.model_id, SECOND.model_id):
        system.run_infer(8, 0, model_id=model_id)  # cold starts
    return system


def test_both_models_serve_requests(multi):
    a = multi.run_infer(64, 4, model_id=TINYLLAMA.model_id)
    b = multi.run_infer(64, 4, model_id=SECOND.model_id)
    assert a.decode.token_ids and b.decode.token_ids
    assert a.ttft > 0 and b.ttft > 0


def test_models_have_disjoint_secure_regions(multi):
    a = multi.tas[TINYLLAMA.model_id].params_region
    b = multi.tas[SECOND.model_id].params_region
    assert a.tzasc_slot != b.tzasc_slot
    ranges_disjoint = (
        a.base_addr + a.capacity <= b.base_addr
        or b.base_addr + b.capacity <= a.base_addr
    )
    assert ranges_disjoint


def test_cross_ta_isolation(multi):
    """TA for model A cannot read model B's cached parameters or key."""
    multi.run_infer(16, 0, model_id=SECOND.model_id)  # B's cache is resident
    ta_a = multi.tas[TINYLLAMA.model_id]
    region_b = multi.tas[SECOND.model_id].params_region
    assert region_b.protected > 0
    with pytest.raises(AccessDenied):
        multi.stack.tee_os.ta_read(ta_a, region_b.base_addr, 64)
    with pytest.raises(SecurityViolation):
        multi.stack.tee_os.unwrap_key_for(
            ta_a, multi.tas[SECOND.model_id].container.wrapped_key, SECOND.model_id
        )


def test_npu_grants_cover_both_models(multi):
    slots = set(multi.stack.tee_npu.allowed_slots)
    for model_id in (TINYLLAMA.model_id, SECOND.model_id):
        ta = multi.tas[model_id]
        assert ta.params_region.tzasc_slot in slots
        assert ta.data_region.tzasc_slot in slots


def test_tzasc_slot_limit_enforced():
    """Five models need ten regions; the TZC-400 has eight."""
    with pytest.raises(ConfigurationError, match="TZASC"):
        TZLLM(TINY)


def test_memory_budget_enforced():
    from repro.llm import LLAMA3_8B

    big = [
        replace(LLAMA3_8B, model_id="big-%d" % i, display_name="Big%d" % i)
        for i in range(3)
    ]
    with pytest.raises(ConfigurationError, match="CMA"):
        TZLLM(big)  # 3 x 8 GB cannot fit in 16 GB


def test_duplicate_or_empty_model_lists_rejected():
    with pytest.raises(ConfigurationError):
        TZLLM([])
    with pytest.raises(ConfigurationError):
        TZLLM([TINYLLAMA, TINYLLAMA])


def test_multi_model_request_enters_through_the_smc_like_tzllm():
    """One way into the TA: a multi-model request pays the CA invoke
    latency and counts its SMC exactly as a single-model one does."""
    single = TZLLM(TINYLLAMA, cache_fraction=1.0)
    multi = TZLLM([TINYLLAMA], cache_fraction=1.0)
    runs = (
        (single, lambda: single.run_infer(32, 4)),
        (multi, lambda: multi.run_infer(32, 4, model_id=TINYLLAMA.model_id)),
    )
    seen = []
    for system, run in runs:
        run()  # cold start
        monitor = system.stack.board.monitor
        t0, smc0 = system.sim.now, monitor.smc_count
        record = run()
        timing = system.stack.spec.timing
        assert record.started_at - t0 == pytest.approx(
            timing.ta_invoke_latency + monitor.smc_latency
        )
        # The invoke SMC plus every SMC the TA issued while serving.
        assert monitor.smc_count - smc0 == record.smc_count + 1
        seen.append((record.smc_count, record.ttft, record.decode.token_ids))
    assert seen[0] == seen[1]


def test_single_model_accessors_fail_loudly_on_two_models(multi):
    """``ta``, ``model`` and a model-less request name one TA; with two
    hosted models each raises instead of picking one."""
    for access in (
        lambda: multi.ta,
        lambda: multi.model,
        lambda: multi.run_infer(32, 4),
    ):
        with pytest.raises(ConfigurationError) as err:
            access()
        assert TINYLLAMA.model_id in str(err.value)
        assert SECOND.model_id in str(err.value)


def test_flags_reach_every_ta():
    """Every TA of a multi-model system carries the system's flags."""
    system = TZLLM(
        [TINYLLAMA, SECOND], use_checkpoint=False, decode_param_residency=0.5
    )
    for model_id, ta in system.tas.items():
        assert ta.use_checkpoint is False
        assert ta.decode_param_residency == 0.5
        record = system.run_infer(16, 4, model_id=model_id)
        assert len(record.decode.token_ids) == 4
        assert record.stream_sweeps > 0
