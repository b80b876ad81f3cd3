"""The decode path: continuous batching (vLLM/Orca-style).

Every decode runs through a :class:`DecodeBatchEngine` — the LLM TA's
and the unprotected REE baselines' alike, so TZ-LLM's decode gap to
REE-LLM (Fig. 11) measures only the co-driver's cost.  The host hands
the engine its NPU backend (the TEE co-driver's, or the REE driver's)
and its KV backing region: the TA's second TZASC region, or ``None`` on
the REE, where KV lives in ordinary memory.  Built with
``BatchConfig(max_batch_size=1)`` — the TA's default — it is the paper's
deployed TA (§4.2): one inference at a time, a data region that grows
while decoding and is fully released afterwards.  Larger batches
multiplex the *decode* phase: every in-flight sequence runs through a
shared fused :class:`~repro.llm.runtime.GraphExecutor` step, new
sequences are admitted from a waiting queue at token boundaries, and a
serving gateway in batching mode evicts preempted ones by *parking*
their KV blocks (the block list survives; resume re-joins the batch
without re-running prefill).

Memory stays inside the paper's model: all KV blocks live in the second
TZASC region, which still only ever grows at its end (to the pool's
high-water mark) and shrinks all the way back when the TA is fully
drained — the free-list reuse absorbs per-sequence churn *inside* the
protected span, so the §4.2 no-fragmentation property is preserved
(see ``docs/batching.md``).

Prefill is not batched: requests serialize through the TA's prefill
lock (one restoration pipeline at a time, exactly the paper's §4.1
machinery), then join the decode batch.  The one physical NPU is shared
between a running prefill and the decode stepper through
:class:`SharedNPUBackend`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

from ..errors import ConfigurationError, OutOfMemory
from ..llm.graph import (
    batched_attention_cost,
    build_batched_decode_graph,
    build_chunked_prefill_graph,
)
from ..llm.kv_cache import (
    BlockCheckpoint,
    KVBlockPool,
    PagedKVCache,
    PrefixTree,
    PromptSpec,
)
from ..llm.runtime import DecodeResult, GraphExecutor, NPUBackend, sample_token
from ..sim import Resource

__all__ = [
    "BatchConfig",
    "BatchedSequence",
    "DecodeBatchEngine",
    "ParkedSequence",
    "SharedNPUBackend",
]


@dataclass
class BatchConfig:
    """Continuous-batching knobs for one TA."""

    #: sequences decoding concurrently in one fused step.
    max_batch_size: int = 4
    #: tokens per KV block (the paged-KV granularity).
    block_tokens: int = 16
    #: total KV block budget; ``None`` sizes it so ``max_batch_size``
    #: worst-case (``max_tokens``-long) sequences fit simultaneously.
    budget_blocks: Optional[int] = None
    #: share whole KV blocks across prompts with common prefixes
    #: (refcounted copy-on-write pages + a prefix tree on the pool).
    prefix_sharing: bool = False
    #: max tokens one chunked-prefill step computes inside the running
    #: decode batch (only used on the sharing path's miss suffix).
    prefill_chunk_tokens: int = 64

    def __post_init__(self):
        if self.max_batch_size < 1:
            raise ConfigurationError("max_batch_size must be positive")
        if self.block_tokens < 1:
            raise ConfigurationError("block_tokens must be positive")
        if self.budget_blocks is not None and self.budget_blocks < 1:
            raise ConfigurationError("budget_blocks must be positive")
        if self.prefill_chunk_tokens < 1:
            raise ConfigurationError("prefill_chunk_tokens must be positive")

    def resolved_budget(self, max_tokens: int) -> int:
        if self.budget_blocks is not None:
            return self.budget_blocks
        per_seq = -(-max_tokens // self.block_tokens)
        return self.max_batch_size * per_seq


class SharedNPUBackend(NPUBackend):
    """Serialize one physical NPU between prefill and the decode stepper.

    Per-request backends never overlapped in the single-stream design;
    with batching, a restoration pipeline's secure jobs and the decode
    batch's fused-step jobs would interleave inside the co-driver's
    sequence-number protocol.  A capacity-1 resource keeps whole jobs
    atomic (the device runs one job at a time anyway).
    """

    def __init__(self, inner: NPUBackend, lock: Resource):
        self.inner = inner
        self.lock = lock

    @property
    def busy_time(self):
        return self.inner.busy_time

    @property
    def overhead_time(self):
        return self.inner.overhead_time

    def run(self, op, duration):
        request = self.lock.request()
        yield request
        try:
            yield from self.inner.run(op, duration)
        finally:
            self.lock.release(request)


@dataclass
class BatchedSequence:
    """One in-flight sequence's decode state inside the batch."""

    seq_id: int
    model_id: str
    kv: PagedKVCache
    prompt_tokens: int
    #: total new tokens this sequence must generate (across park/resume).
    target_tokens: int
    done: object  # sim Event, succeeds when the sequence leaves the batch
    gate: Optional[object] = None  # PreemptionGate (callable) or None
    request_id: Optional[int] = None
    #: decode-step index, global across park/resume — it keys
    #: ``sample_token``, which is what makes a resumed stream identical
    #: to an unpreempted one.
    step_index: int = 0
    token_ids: List[int] = field(default_factory=list)
    step_times: List[float] = field(default_factory=list)
    attribution: List[dict] = field(default_factory=list)
    state: str = "waiting"  # waiting | active | finished | evicted | failed
    error: Optional[BaseException] = None
    joined_at: float = 0.0
    #: miss-suffix tokens still to prefill in-batch (sharing path); the
    #: sequence decodes only once this reaches zero.
    prefill_remaining: int = 0
    #: sim time the prompt became fully resident (TTFT anchor).
    prefill_done_at: Optional[float] = None
    #: data-region extensions made by the decode steps it was part of.
    kv_extends: int = 0
    #: §8 streaming decode: the parameter sweep prefetched during the
    #: previous step, and the number of sweeps issued.
    stream_pending: Optional[object] = None
    stream_sweeps: int = 0

    @property
    def remaining(self) -> int:
        return self.target_tokens - len(self.token_ids)

    def result(self, stopped_early: bool = False) -> DecodeResult:
        return DecodeResult(
            token_ids=list(self.token_ids),
            step_times=list(self.step_times),
            attribution=[dict(a) for a in self.attribution],
            stopped_early=stopped_early,
        )


@dataclass
class ParkedSequence:
    """A preempted sequence's checkpoint: blocks kept, prefill kept."""

    request_id: int
    kv: PagedKVCache
    checkpoint: BlockCheckpoint
    token_ids: List[int]
    step_times: List[float]
    attribution: List[dict]
    step_index: int
    prompt_tokens: int
    target_tokens: int
    #: original-attempt timing, re-reported on the resumed record so the
    #: gateway's TTFT reflects the *first* token, not the resume.
    ttft: float = 0.0
    first_token_at: float = 0.0
    parked_at: float = 0.0
    #: unfinished in-batch prefill carried across the park (sharing path).
    prefill_remaining: int = 0


class DecodeBatchEngine:
    """The continuous-batching decode scheduler for one model's host.

    The host is an :class:`~repro.core.llm_ta.LLMTA` or an
    :class:`~repro.core.system.REELLM` baseline.  The engine reads its
    ``sim``, ``model``, ``container``, ``max_tokens``, ``platform``,
    ``cpu``, ``use_npu``, ``decode_use_npu``, ``metrics``, ``tracer``,
    ``stream_bytes`` and ``data_region`` (``None`` on the REE), and
    when streaming its ``stack``, ``file_path`` and ``backend``.

    A single stepper process runs while any sequence is active: each
    iteration it (1) evicts sequences whose preemption gate fired —
    parking their block lists, (2) admits waiting sequences up to
    ``max_batch_size``, (3) pre-allocates this step's KV growth and
    extends the data region to the pool's high-water mark, (4) executes
    one fused batched decode step, and (5) retires finished sequences.
    Everything is driven by deques and the sim clock — no RNG — so
    batched serving stays deterministic end to end.
    """

    def __init__(self, host, config: BatchConfig):
        self.host = host
        self.sim = host.sim
        self.config = config
        self.pool = KVBlockPool(
            host.model, config.block_tokens, config.resolved_budget(host.max_tokens)
        )
        #: content-addressed residency index over the pool's blocks
        #: (``None`` when sharing is off: zero overhead, legacy behavior).
        self.tree: Optional[PrefixTree] = (
            PrefixTree(self.pool) if config.prefix_sharing else None
        )
        #: job execution context + worst-case activation scratch, laid
        #: out ahead of the block span in the data region.
        self.fixed_bytes = 4096 + host.model.activation_bytes(host.max_tokens)
        self.npu_lock = Resource(self.sim, capacity=1, name="npu-lock:" + host.model.model_id)
        #: serializes data-region growth: two interleaved extensions
        #: would both observe the old end and balloon the same frames.
        self._backing_lock = Resource(
            self.sim, capacity=1, name="backing-lock:" + host.model.model_id
        )
        #: the host's NPU backend behind the prefill/decode lock; set by
        #: :meth:`attach_npu` before the first request.
        self.npu_backend: Optional[SharedNPUBackend] = None
        self.waiting: Deque[BatchedSequence] = deque()
        self.active: List[BatchedSequence] = []
        self.parked: Dict[int, ParkedSequence] = {}
        self._stepper = None
        self._seq_ids = 0
        #: infer() attempts currently inside the TA (prefill or decode);
        #: the data region may only shrink when this reaches zero.
        self.inflight = 0
        self._executor: Optional[GraphExecutor] = None
        #: fused-step graphs by batch size, with their attention ops.
        self._step_graphs: Dict[int, tuple] = {}
        # engine-level stats (also exported through host.metrics when set)
        self.steps = 0
        self.tokens_generated = 0
        #: summed fused-step wall time: tokens_generated / busy_time is
        #: the engine's aggregate decode throughput.
        self.busy_time = 0.0
        self.occupancy_steps: Dict[int, int] = {}
        self.kv_extends = 0
        self.evictions = 0
        self.resumes = 0
        self.prefill_chunks = 0
        self.prefill_tokens = 0
        #: summed chunked-prefill wall time (decode busy_time excluded).
        self.prefill_busy_time = 0.0

    # ------------------------------------------------------------------
    # admission-side budget (called synchronously from gateway dispatch)
    # ------------------------------------------------------------------
    def blocks_needed(
        self,
        prompt_tokens: int,
        output_tokens: int,
        spec: Optional[PromptSpec] = None,
    ) -> int:
        """Worst-case fresh blocks a request may allocate.  With sharing
        on and a :class:`PromptSpec`, predicted whole-block prefix/session
        hits are subtracted — admission budgets only the *non-shared*
        part of the prompt (a shared block costs a ref, not a block)."""
        if spec is not None and self.tree is not None:
            worst = spec.worst_case_blocks(self.config.block_tokens, output_tokens)
            return max(0, worst - self.tree.probe(spec))
        return self.pool.blocks_for_tokens(prompt_tokens + output_tokens)

    def can_admit(
        self, prompt_tokens: int, output_tokens: int, request_id=None, spec=None
    ) -> bool:
        """Budget check for dispatch: a parked sequence already holds its
        blocks (plus leftover hold), so resuming always fits."""
        if request_id is not None and request_id in self.parked:
            return True
        return self.pool.can_admit(self.blocks_needed(prompt_tokens, output_tokens, spec))

    def reserve(
        self, prompt_tokens: int, output_tokens: int, request_id=None, spec=None
    ) -> int:
        """Hold a request's worst-case block count until its cache
        consumes it.  Returns the held count (0 for a parked resume)."""
        if request_id is not None and request_id in self.parked:
            return 0
        blocks = self.blocks_needed(prompt_tokens, output_tokens, spec)
        self.pool.reserve(
            blocks, owner="" if request_id is None else "r%s" % request_id
        )
        return blocks

    @property
    def idle(self) -> bool:
        """No sequence is in flight, active, waiting or parked: the
        parameters may be released to the cache policy's prefix."""
        return (
            self.inflight == 0 and not self.active and not self.waiting and not self.parked
        )

    # ------------------------------------------------------------------
    # joining the batch
    # ------------------------------------------------------------------
    def join(
        self,
        kv: PagedKVCache,
        prompt_tokens: int,
        target_tokens: int,
        gate=None,
        request_id=None,
        prefill_tokens: int = 0,
    ) -> BatchedSequence:
        """Queue a sequence for decode; returns the sequence whose
        ``done`` event fires when it finishes, evicts, or fails.  A
        nonzero ``prefill_tokens`` enters the sequence still owing that
        many miss-suffix tokens of in-batch chunked prefill."""
        self._seq_ids += 1
        seq = BatchedSequence(
            seq_id=self._seq_ids,
            model_id=self.host.model.model_id,
            kv=kv,
            prompt_tokens=prompt_tokens,
            target_tokens=target_tokens,
            done=self.sim.event(),
            gate=gate,
            request_id=request_id,
            joined_at=self.sim.now,
            prefill_remaining=prefill_tokens,
            prefill_done_at=self.sim.now if prefill_tokens <= 0 else None,
        )
        self.waiting.append(seq)
        if self._stepper is None:
            self._stepper = self.sim.process(
                self._run(), name="batch-decode:" + self.host.model.model_id
            )
        return seq

    def rejoin(self, parked: ParkedSequence, gate=None) -> BatchedSequence:
        """Resume a parked sequence: restore its checkpointed block list
        and re-enter the waiting queue with its decode state intact.

        Restore -> unpark -> join is atomic with respect to the parked
        map: the entry is removed exactly once, *after* the checkpoint
        validated.  A terminal restore failure (checkpoint divergence)
        drops the entry and releases the blocks — a parked sequence
        whose resume can never succeed must not strand its memory."""
        entry = self.parked.get(parked.request_id)
        if entry is not parked:
            raise ConfigurationError(
                "rejoin of request %r which is not parked" % (parked.request_id,)
            )
        try:
            parked.kv.restore(parked.checkpoint)
        except BaseException:
            self.parked.pop(parked.request_id, None)
            parked.kv.release()
            raise
        self.parked.pop(parked.request_id, None)
        self.resumes += 1
        seq = self.join(
            parked.kv,
            parked.prompt_tokens,
            parked.target_tokens,
            gate=gate,
            request_id=parked.request_id,
            prefill_tokens=parked.prefill_remaining,
        )
        seq.step_index = parked.step_index
        seq.token_ids = list(parked.token_ids)
        seq.step_times = list(parked.step_times)
        seq.attribution = [dict(a) for a in parked.attribution]
        return seq

    def park(self, seq: BatchedSequence, at: float) -> ParkedSequence:
        checkpoint = seq.kv.park()
        parked = ParkedSequence(
            request_id=seq.request_id,
            kv=seq.kv,
            checkpoint=checkpoint,
            token_ids=list(seq.token_ids),
            step_times=list(seq.step_times),
            attribution=[dict(a) for a in seq.attribution],
            step_index=seq.step_index,
            prompt_tokens=seq.prompt_tokens,
            target_tokens=seq.target_tokens,
            parked_at=at,
            prefill_remaining=max(0, seq.prefill_remaining),
        )
        self.parked[seq.request_id] = parked
        return parked

    # ------------------------------------------------------------------
    # data-region backing (end-grown to the pool's high-water mark)
    # ------------------------------------------------------------------
    def backing_bytes_needed(self) -> int:
        granule = self.host.data_region.granule
        needed = self.fixed_bytes + self.pool.backing_blocks * self.pool.block_bytes
        return -(-needed // granule) * granule

    def ensure_backing(self, threads: int = 1):
        """Extend the data region to cover every allocated block
        (generator; the §4.2 growth path).  Returns whether it extended.
        ``threads`` parallelizes the REE's CMA migration: request setup
        uses several, mid-decode growth one.  Without a region (the REE,
        whose KV lives in ordinary memory) there is nothing to back."""
        region = self.host.data_region
        if region is None or self.backing_bytes_needed() <= region.allocated:
            return False
        request = self._backing_lock.request()
        yield request
        try:
            # Re-check under the lock: a concurrent grower may have
            # covered this need while we queued.
            needed = self.backing_bytes_needed()
            if needed <= region.allocated:
                return False
            delta = needed - region.allocated
            yield from region.extend_allocated(delta, threads=threads)
            yield from region.extend_protected(delta)
            self.kv_extends += 1
            return True
        finally:
            self._backing_lock.release(request)

    def maybe_release_region(self):
        """Shrink the data region once the TA is fully drained
        (generator).  End-only TZASC shrink means nothing can release
        while any sequence — active or parked — still owns blocks."""
        region = self.host.data_region
        if (
            region is not None
            and self.inflight == 0
            and self.pool.used_blocks == 0
            and not self.active
            and not self.waiting
            and region.allocated > 0
        ):
            yield from region.shrink_all()

    # ------------------------------------------------------------------
    # the stepper
    # ------------------------------------------------------------------
    def attach_npu(self, backend: NPUBackend) -> None:
        """Take the host's NPU backend: prefill pipelines and the decode
        stepper share it through :attr:`npu_backend`."""
        self.npu_backend = SharedNPUBackend(backend, self.npu_lock)

    def _retire(self, seq: BatchedSequence, state: str, error=None) -> None:
        seq.state = state
        seq.error = error
        seq.done.succeed(seq)

    def _sweep_gates(self) -> None:
        """Token-boundary preemption: evict gated sequences, parking the
        ones the gateway can resume — its gate says it resumes parked
        sequences, and a request identity keys the checkpoint.  The
        others are discarded for a from-scratch retry."""
        for queue in (self.active, self.waiting):
            for seq in list(queue):
                if seq.gate is not None and seq.gate():
                    queue.remove(seq)
                    self.evictions += 1
                    if seq.request_id is not None and seq.gate.park:
                        self.park(seq, self.sim.now)
                    self._retire(seq, "evicted")

    def _admit(self) -> None:
        while self.waiting and len(self.active) < self.config.max_batch_size:
            seq = self.waiting.popleft()
            seq.state = "active"
            self.active.append(seq)

    def _prealloc_growth(self) -> None:
        """Allocate this step's KV growth up front so the region can be
        extended before compute touches it; a pool-exhausted sequence
        fails alone instead of sinking the whole batch.  Sequences still
        prefilling own their whole prompt span already and generate no
        token this step, so they are skipped."""
        for seq in list(self.active):
            if seq.prefill_remaining > 0:
                continue
            try:
                seq.kv.ensure_capacity(seq.kv.tokens + 1)
            except OutOfMemory as exc:
                self.active.remove(seq)
                self._retire(seq, "failed", error=exc)

    def _note_step(self, occupancy: int, step_time: float) -> None:
        self.steps += 1
        self.tokens_generated += occupancy
        self.busy_time += step_time
        self.occupancy_steps[occupancy] = self.occupancy_steps.get(occupancy, 0) + 1
        metrics = self.host.metrics
        model = self.host.model.model_id
        if metrics is not None:
            metrics.gauge(
                "batch_occupancy", "Sequences in the current fused decode step"
            ).set(occupancy, model=model)
            metrics.counter(
                "batch_steps_total", "Fused decode steps by batch occupancy"
            ).inc(model=model, occupancy=str(occupancy))
            metrics.counter(
                "batch_tokens_total", "Tokens generated by the batched decode path"
            ).inc(occupancy, model=model)
        self.host.tracer.counter("batch_occupancy:%s" % model, occupancy)

    def _prefill_chunk(self, seq: BatchedSequence):
        """One bounded chunked-prefill step for ``seq`` (generator).

        The blocks already exist (taken through the prefix tree at
        admission); this computes the KV content of the next
        ``prefill_chunk_tokens`` miss-suffix positions, attending over
        everything already resident — shared hits plus earlier chunks."""
        host = self.host
        executor = self._executor
        chunk = min(self.config.prefill_chunk_tokens, seq.prefill_remaining)
        context = seq.prompt_tokens - seq.prefill_remaining
        graph = build_chunked_prefill_graph(
            host.model,
            host.container.tensors,
            chunk,
            context_tokens=context,
            use_npu=host.use_npu,
            platform=host.platform,
        )
        start = self.sim.now
        try:
            yield from executor.execute(graph)
        except Exception as exc:
            # A faulted chunk fails this sequence alone: its infer()
            # re-raises and releases the blocks; decoders keep going.
            if seq in self.active:
                self.active.remove(seq)
            self._retire(seq, "failed", error=exc)
            return
        self.prefill_chunks += 1
        self.prefill_tokens += chunk
        self.prefill_busy_time += self.sim.now - start
        seq.prefill_remaining -= chunk
        if seq.prefill_remaining <= 0:
            seq.prefill_remaining = 0
            seq.prefill_done_at = self.sim.now
            if seq.remaining <= 0:
                # Prompt-only request: fully resident is fully done.
                self.active.remove(seq)
                self._retire(seq, "finished")

    def _step_graph(self, kv_token_counts: List[int]):
        """The fused step graph for this batch.  Only its attention cost
        depends on the sequences' KV lengths, so one graph per batch size
        is built once and its attention ops are resized every step."""
        cached = self._step_graphs.get(len(kv_token_counts))
        if cached is None:
            host = self.host
            graph = build_batched_decode_graph(
                host.model,
                host.container.tensors,
                kv_token_counts,
                use_npu=host.decode_use_npu,
                platform=host.platform,
            )
            attention = [op for op in graph.ops if op.name.endswith(".attention")]
            self._step_graphs[len(kv_token_counts)] = (graph, attention)
            return graph
        graph, attention = cached
        flops, nbytes = batched_attention_cost(self.host.model, kv_token_counts)
        for op in attention:
            op.flops = flops
            op.bytes_touched = nbytes
        return graph

    def _stream_sweep(self):
        """One flash sweep of the parameter suffix streaming decode keeps
        evicted, then its decryption on the TA CPU (generator)."""
        host = self.host
        yield from host.stack.kernel.fs.read(host.file_path, 0, 0, nominal=host.stream_bytes)
        request = host.cpu.request()
        yield request
        try:
            yield self.sim.timeout(host.backend.decrypt_duration(host.stream_bytes, 4))
        finally:
            host.cpu.release(request)

    def _await_stream(self, seq: BatchedSequence):
        """Double-buffered streaming (generator; §8): this step needs its
        sweep complete before computing — a sequence's first step fetches
        synchronously, later steps wait on the prefetch the previous step
        issued — then prefetch the next step's sweep to overlap compute."""
        if seq.stream_pending is None:
            yield self.sim.process(self._stream_sweep(), name="decode-stream")
        else:
            yield seq.stream_pending
        seq.stream_pending = self.sim.process(self._stream_sweep(), name="decode-stream")
        seq.stream_sweeps += 1

    def _run(self):
        """The stepper process: one fused decode step over the resident
        sequences, then at most one bounded prefill chunk for the oldest
        still-prefilling sequence, per iteration."""
        host = self.host
        if self._executor is None:
            self._executor = GraphExecutor(self.sim, host.platform, host.cpu, self.npu_backend)
        executor = self._executor
        try:
            while True:
                self._sweep_gates()
                self._admit()
                if not self.active:
                    break
                self._prealloc_growth()
                if not self.active:
                    continue
                batch = [s for s in self.active if s.prefill_remaining <= 0]
                # A step's time covers its region growth and its wait for
                # streamed parameters, as well as the fused compute.
                start = self.sim.now
                if (yield from self.ensure_backing()):
                    for seq in batch:
                        seq.kv_extends += 1
                if batch:
                    if host.stream_bytes:
                        yield from self._await_stream(batch[0])
                    graph = self._step_graph([seq.kv.tokens for seq in batch])
                    cpu0 = executor.cpu_busy_time
                    npu0 = executor.npu_busy_time
                    smc0 = executor.npu_overhead_time
                    try:
                        yield from executor.execute(graph)
                    except Exception as exc:
                        # A faulted fused step (TEE job hang, watchdog)
                        # fails every sequence it was computing: each
                        # waiting infer() re-raises the error and its
                        # finally block releases that sequence's KV
                        # blocks — the engine itself must not strand
                        # them.  Sequences still prefilling were not in
                        # the step and survive.
                        for seq in batch:
                            if seq in self.active:
                                self.active.remove(seq)
                            self._retire(seq, "failed", error=exc)
                        continue
                    step_time = self.sim.now - start
                    cpu_d = executor.cpu_busy_time - cpu0
                    npu_d = executor.npu_busy_time - npu0
                    smc_d = executor.npu_overhead_time - smc0
                    # Fair-share attribution: each sequence carries an
                    # equal slice of the fused step, so summed
                    # attributions across the batch reconstruct the wall
                    # time.
                    share = 1.0 / len(batch)
                    attribution = {
                        "cpu": cpu_d * share,
                        "npu_compute": npu_d * share,
                        "smc": smc_d * share,
                        "sched_wait": max(0.0, step_time - cpu_d - npu_d - smc_d) * share,
                    }
                    self._note_step(len(batch), step_time)
                    for seq in batch:
                        seq.token_ids.append(
                            sample_token(seq.model_id, seq.step_index, host.model.vocab)
                        )
                        seq.step_index += 1
                        seq.step_times.append(step_time)
                        seq.attribution.append(dict(attribution))
                        seq.kv.append_token()
                        if seq.remaining <= 0:
                            self.active.remove(seq)
                            self._retire(seq, "finished")
                prefilling = [s for s in self.active if s.prefill_remaining > 0]
                if prefilling:
                    yield from self._prefill_chunk(prefilling[0])
        finally:
            self._stepper = None

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def occupancy_mean(self) -> float:
        if self.steps == 0:
            return 0.0
        return self.tokens_generated / self.steps

    def to_dict(self) -> dict:
        return {
            "steps": self.steps,
            "tokens_generated": self.tokens_generated,
            "busy_time": self.busy_time,
            "mean_occupancy": self.occupancy_mean(),
            "occupancy_steps": {str(k): v for k, v in sorted(self.occupancy_steps.items())},
            "kv_extends": self.kv_extends,
            "evictions": self.evictions,
            "resumes": self.resumes,
            "parked": len(self.parked),
            "prefill_chunks": self.prefill_chunks,
            "prefill_chunk_tokens": self.prefill_tokens,
            "prefill_busy_time": self.prefill_busy_time,
            "pool": {
                "block_tokens": self.pool.block_tokens,
                "total_blocks": self.pool.total_blocks,
                "used_blocks": self.pool.used_blocks,
                "reserved": self.pool.reserved,
                "backing_blocks": self.pool.backing_blocks,
                "cached_blocks": self.pool.cached_blocks,
                "shared_saved_blocks": self.pool.shared_saved_blocks,
                "cows": self.pool.cows,
            },
            "prefix_tree": None if self.tree is None else self.tree.to_dict(),
        }
