"""Offline prefix-sharing opportunity analyzer (ROADMAP: KV reuse).

The ROADMAP's top item asks whether shared-prefix KV reuse is worth
building *inside the TEE* — cross-request reuse of the system-prompt KV
with the per-tenant isolation argument that entails.  Before anyone
writes that mechanism, this analyzer measures the opportunity: it
replays a multi-tenant fleet trace (:func:`~repro.workloads.fleet
.generate_fleet_trace`) through an idealized block-granular KV cache
and reports what a sharing-aware TA *could* have skipped.

The replay hashes each request's prompt into block keys the way a
paged KV cache would:

* the shared prefix hashes by *content* — ``(prefix_id, block_index)``
  — so any request carrying the same system prompt hits blocks a
  previous request (any session, same tenant) already prefilled;
* conversation context and new tokens hash by *stream* —
  ``(session_id, block_index)`` — they are session-private, so only a
  later turn of the same session can reuse them.

A bounded LRU over ``cache_blocks`` blocks models the secure region's
capacity; an unbounded pass (``cache_blocks=None``) gives the
no-capacity-limit upper bound.  Savings are priced with the same
analytic prefill model the fleet surrogate uses, so "saved prefill
seconds" and the projected TTFT deltas are directly comparable to
simulated fleet timings.

Deliberately *not* modeled: cross-tenant sharing.  Prefix ids are
minted per tenant upstream, so a hit never crosses a tenant boundary —
matching the paper's isolation stance (§3.1: per-model, per-tenant
protection domains).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .metrics import mean, percentile
from .tables import render_table

__all__ = ["PrefixShareReport", "TenantShareRow", "analyze_prefix_sharing"]


@dataclass
class TenantShareRow:
    """Per-tenant accumulator of the replay."""

    tenant: str
    requests: int = 0
    prompt_tokens: int = 0
    hit_tokens: int = 0
    prefix_hit_tokens: int = 0
    session_hit_tokens: int = 0
    saved_seconds: float = 0.0

    @property
    def hit_rate(self) -> float:
        return self.hit_tokens / self.prompt_tokens if self.prompt_tokens else 0.0

    def to_dict(self) -> Dict:
        return {
            "requests": self.requests,
            "prompt_tokens": self.prompt_tokens,
            "hit_tokens": self.hit_tokens,
            "prefix_hit_tokens": self.prefix_hit_tokens,
            "session_hit_tokens": self.session_hit_tokens,
            "hit_rate": round(self.hit_rate, 6),
            "saved_prefill_seconds": round(self.saved_seconds, 9),
        }


@dataclass
class PrefixShareReport:
    """What block-granular KV sharing would have saved on a trace."""

    block_tokens: int
    cache_blocks: Optional[int]
    requests: int
    prompt_tokens: int
    hit_tokens: int
    prefix_hit_tokens: int
    session_hit_tokens: int
    saved_prefill_seconds: float
    baseline_prefill_seconds: float
    evictions: int
    #: per-request projected TTFT improvement (the saved prefill time),
    #: in trace order — feed to percentile() for the tail view.
    ttft_deltas: List[float] = field(default_factory=list)
    tenants: Dict[str, TenantShareRow] = field(default_factory=dict)

    @property
    def hit_rate(self) -> float:
        """Fraction of offered prompt tokens already cached."""
        return self.hit_tokens / self.prompt_tokens if self.prompt_tokens else 0.0

    @property
    def saved_fraction(self) -> float:
        """Fraction of baseline prefill time sharing would remove."""
        if self.baseline_prefill_seconds <= 0:
            return 0.0
        return self.saved_prefill_seconds / self.baseline_prefill_seconds

    def ttft_delta(self, p: float) -> float:
        """Projected TTFT improvement at percentile ``p`` (seconds)."""
        return percentile(self.ttft_deltas, p) if self.ttft_deltas else 0.0

    def to_dict(self) -> Dict:
        return {
            "schema": "repro.analysis.prefix_share/1",
            "block_tokens": self.block_tokens,
            "cache_blocks": self.cache_blocks,
            "requests": self.requests,
            "prompt_tokens": self.prompt_tokens,
            "hit_tokens": self.hit_tokens,
            "prefix_hit_tokens": self.prefix_hit_tokens,
            "session_hit_tokens": self.session_hit_tokens,
            "hit_rate": round(self.hit_rate, 6),
            "saved_prefill_seconds": round(self.saved_prefill_seconds, 9),
            "baseline_prefill_seconds": round(self.baseline_prefill_seconds, 9),
            "saved_fraction": round(self.saved_fraction, 6),
            "evictions": self.evictions,
            "ttft_delta_mean": round(mean(self.ttft_deltas), 9) if self.ttft_deltas else 0.0,
            "ttft_delta_p50": round(self.ttft_delta(50), 9),
            "ttft_delta_p95": round(self.ttft_delta(95), 9),
            "tenants": {t: row.to_dict() for t, row in sorted(self.tenants.items())},
        }

    def render(self) -> str:
        rows = []
        for tenant in sorted(self.tenants):
            row = self.tenants[tenant]
            rows.append([
                tenant,
                row.requests,
                row.prompt_tokens,
                "%.1f%%" % (100 * row.hit_rate),
                row.prefix_hit_tokens,
                row.session_hit_tokens,
                "%.2f" % row.saved_seconds,
            ])
        rows.append([
            "TOTAL",
            self.requests,
            self.prompt_tokens,
            "%.1f%%" % (100 * self.hit_rate),
            self.prefix_hit_tokens,
            self.session_hit_tokens,
            "%.2f" % self.saved_prefill_seconds,
        ])
        title = (
            "prefix-sharing opportunity (block=%d tok, cache=%s blocks): "
            "%.1f%% of prefill time avoidable, TTFT -%.3fs p50 / -%.3fs p95"
            % (
                self.block_tokens,
                "inf" if self.cache_blocks is None else str(self.cache_blocks),
                100 * self.saved_fraction,
                self.ttft_delta(50),
                self.ttft_delta(95),
            )
        )
        return render_table(
            ["tenant", "reqs", "prompt tok", "hit%", "prefix hits",
             "session hits", "saved s"],
            rows, title=title,
        )


def analyze_prefix_sharing(
    trace,
    models,
    platform,
    block_tokens: int = 16,
    cache_blocks: Optional[int] = 8192,
    use_npu: bool = True,
) -> PrefixShareReport:
    """Replay ``trace`` through an idealized shared block cache.

    ``trace`` is a sequence of :class:`~repro.workloads.fleet
    .FleetRequest` (or anything with the same fields); ``models`` a
    :class:`~repro.llm.models.ModelSpec` list covering the trace's
    ``model_id``\\ s; ``platform`` the :class:`~repro.config
    .PlatformSpec` used to price saved prefill work.  ``cache_blocks``
    bounds the cache (LRU eviction); ``None`` removes the bound.
    Saved work is priced with the fleet surrogate's prefill formula.
    """
    # Imported here: repro.fleet imports repro.analysis at module level.
    from ..fleet.surrogate import prefill_seconds

    by_model = {m.model_id: m for m in models}
    # key -> True, ordered by recency.  Keys are tuples, never strings,
    # so prefix- and session-stream blocks cannot collide.
    cache: "OrderedDict[Tuple, bool]" = OrderedDict()
    report = PrefixShareReport(
        block_tokens=block_tokens,
        cache_blocks=cache_blocks,
        requests=0,
        prompt_tokens=0,
        hit_tokens=0,
        prefix_hit_tokens=0,
        session_hit_tokens=0,
        saved_prefill_seconds=0.0,
        baseline_prefill_seconds=0.0,
        evictions=0,
    )

    def touch(key) -> bool:
        """Look up one block; insert on miss; LRU-evict past the bound."""
        if key in cache:
            cache.move_to_end(key)
            return True
        cache[key] = True
        if cache_blocks is not None and len(cache) > cache_blocks:
            cache.popitem(last=False)
            report.evictions += 1
        return False

    for request in trace:
        model = by_model[request.model_id]
        prompt = request.prompt_tokens
        row = report.tenants.get(request.tenant)
        if row is None:
            row = report.tenants[request.tenant] = TenantShareRow(request.tenant)

        # Shared prefix: content-addressed, whole blocks only (a partial
        # tail block cannot be reused — its KV depends on what follows).
        prefix_hits = 0
        prefix_blocks = request.prefix_tokens // block_tokens
        if request.prefix_id:
            for i in range(prefix_blocks):
                if touch(("p", request.model_id, request.prefix_id, i)):
                    prefix_hits += 1

        # Session stream: the replayed context (and this turn's tokens,
        # once prefilled) keyed by position within the session's stream.
        # Turn N+1 replays turn N's prompt+reply, so those stream blocks
        # come back as hits — exactly the KV a session-sticky router
        # keeps resident.
        session_hits = 0
        stream_tokens = request.context_tokens + request.new_tokens
        stream_blocks = stream_tokens // block_tokens
        covered = 0
        for i in range(stream_blocks):
            if touch(("s", request.session_id, i)):
                # Context replays from the stream head; only hits inside
                # the replayed span save prefill work this turn.
                if covered < request.context_tokens:
                    session_hits += 1
                covered += block_tokens
            else:
                covered += block_tokens

        hit_tokens = min(prompt, (prefix_hits + session_hits) * block_tokens)
        full = prefill_seconds(platform, model, prompt, use_npu)
        residual = prefill_seconds(platform, model, prompt - hit_tokens, use_npu)
        saved = max(0.0, full - residual)

        report.requests += 1
        report.prompt_tokens += prompt
        report.hit_tokens += hit_tokens
        report.prefix_hit_tokens += prefix_hits * block_tokens
        report.session_hit_tokens += session_hits * block_tokens
        report.baseline_prefill_seconds += full
        report.saved_prefill_seconds += saved
        report.ttft_deltas.append(saved)

        row.requests += 1
        row.prompt_tokens += prompt
        row.hit_tokens += hit_tokens
        row.prefix_hit_tokens += prefix_hits * block_tokens
        row.session_hit_tokens += session_hits * block_tokens
        row.saved_seconds += saved

    return report
