"""Multiple protected models on one device.

A real deployment hosts several models (assistant, summarizer, vision-
language) behind separate TAs on one TrustZone platform.  Each model
costs two TZASC regions (§4.2), and the TZC-400 has eight — so at most
four models can be resident, a hardware constraint this module surfaces
as a clean error rather than an obscure failure.

Every TA gets its own address space and its own wrapped model key, so
cross-model isolation inherits all the §6 guarantees (tested).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from ..config import GiB, MiB, PlatformSpec, RK3588
from ..crypto import derive_key
from ..errors import ConfigurationError
from ..llm.gguf import pack_model, parse_container
from ..llm.models import ModelSpec
from ..stack import build_stack
from .caching import FractionCachePolicy
from .llm_ta import InferenceRecord, LLMTA
from .pipeline import PipelineConfig
from .system import DEFAULT_OS_FOOTPRINT, provision_model

__all__ = ["TZLLMMulti"]


class TZLLMMulti:
    """One platform, several protected models (one LLM TA each)."""

    def __init__(
        self,
        models: List[ModelSpec],
        platform: PlatformSpec = RK3588,
        granule: int = 1 * MiB,
        max_tokens: int = 1024,
        os_footprint: int = DEFAULT_OS_FOOTPRINT,
        cache_fraction: float = 0.0,
        use_npu: Union[bool, str] = True,
        decode_use_npu: Union[bool, str] = "auto",
        pipeline_config: Optional[PipelineConfig] = None,
        recovery=None,
        batch_config=None,
        trace: bool = False,
        sim=None,
        device_name: str = "",
        device_seed=None,
    ):
        self.device_name = device_name
        if not models:
            raise ConfigurationError("need at least one model")
        ids = [m.model_id for m in models]
        if len(set(ids)) != len(ids):
            raise ConfigurationError("duplicate model ids")
        slots_needed = 2 * len(models)
        slots_available = platform.trustzone.tzasc_regions
        if slots_needed > slots_available:
            raise ConfigurationError(
                "%d models need %d TZASC regions; the hardware has %d"
                % (len(models), slots_needed, slots_available)
            )
        self.models = {m.model_id: m for m in models}
        cma_regions: Dict[str, int] = {}
        containers = {}
        for model in models:
            probe = parse_container(
                pack_model(
                    model,
                    derive_key(b"probe", model.model_id),
                    derive_key(b"probe", "hw"),
                )
            )
            params, data = LLMTA.cma_requirements(
                model, probe, granule, max_tokens, batch_config=batch_config
            )
            cma_regions["%s:params" % model.model_id] = params
            cma_regions["%s:data" % model.model_id] = data
        total_cma = sum(cma_regions.values())
        if total_cma + os_footprint > platform.memory.total_bytes:
            raise ConfigurationError(
                "models need %.1f GB of CMA; the board has %.1f GB"
                % (total_cma / 1e9, platform.memory.total_bytes / 1e9)
            )
        self.stack = build_stack(
            spec=platform,
            granule=granule,
            os_footprint=os_footprint,
            cma_regions=cma_regions,
            sim=sim,
            name=device_name,
            device_seed=device_seed,
        )
        self.tas: Dict[str, LLMTA] = {}
        for model in models:
            container = provision_model(self.stack, model)
            self.stack.tee_os.grant_model_access(
                model.model_id, "llm-ta:" + model.model_id
            )
            ta = LLMTA(
                self.stack,
                model,
                container,
                max_tokens=max_tokens,
                use_npu=use_npu,
                decode_use_npu=decode_use_npu,
                pipeline_config=pipeline_config,
                cache_policy=FractionCachePolicy(cache_fraction),
                recovery=recovery,
                batch_config=batch_config,
            )
            ta.setup()
            self.tas[model.model_id] = ta
            self.stack.board.monitor.register(self._smc_func(model.model_id), ta.infer)
        # One NPU co-driver serves every TA: its TZASC grants are the
        # union of all job-context regions (each TA re-points the list in
        # setup(); restore the union here).
        self.stack.tee_npu.allowed_slots = [
            slot
            for ta in self.tas.values()
            for slot in (ta.params_region.tzasc_slot, ta.data_region.tzasc_slot)
        ]
        # One shared tracer covers every TA (pipeline spans on the model's
        # lanes, serving spans on the gateway lane).
        self.tracer = None
        if trace:
            from ..sim.trace import Tracer

            self.tracer = Tracer(self.stack.sim)
            for ta in self.tas.values():
                ta.tracer = self.tracer

    @property
    def sim(self):
        return self.stack.sim

    @staticmethod
    def _smc_func(model_id: str) -> str:
        return "tee.llm.infer:" + model_id

    def ta(self, model_id: str) -> LLMTA:
        try:
            return self.tas[model_id]
        except KeyError:
            raise ConfigurationError("no TA for model %r" % model_id)

    def infer(
        self,
        model_id: str,
        prompt_tokens: int,
        output_tokens: int = 0,
        preempt=None,
        ctx=None,
        prompt=None,
    ):
        """Generator: serve a request on the named model's TA, entering
        it through the TZ driver's SMC exactly as :class:`TZLLM` does.

        ``ctx`` is an optional :class:`~repro.obs.TraceContext` for
        cross-world flow tracing; ``prompt`` an optional
        :class:`~repro.llm.PromptSpec` for the prefix-sharing path.
        """
        self.ta(model_id)  # unknown model: ConfigurationError
        yield self.sim.timeout(self.stack.spec.timing.ta_invoke_latency)
        record = yield from self.stack.tz_driver.invoke_ta(
            self._smc_func(model_id),
            prompt_tokens,
            output_tokens,
            preempt=preempt,
            ctx=ctx,
            prompt=prompt,
        )
        return record

    def run_infer(self, model_id: str, prompt_tokens: int, output_tokens: int = 0) -> InferenceRecord:
        proc = self.sim.process(self.infer(model_id, prompt_tokens, output_tokens))
        return self.sim.run_until(proc)
