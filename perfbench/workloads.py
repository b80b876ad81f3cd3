"""The two workloads, driven through the program's public API only.

Each workload turns a seed into inputs once (``inputs``), then per pass
builds a fresh system (``setup``, timed as set-up), drives every request
to completion (``drive``, the timed phase), and reads the simulated
outcome back from public objects (``outcome``).  ``check`` returns the
correctness misses found after the drain; any miss fails the run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from types import SimpleNamespace
from typing import Dict, List, Optional, Sequence

from repro import PAPER_PRESSURE, TZLLM
from repro.config import RK3588
from repro.errors import AccessDenied
from repro.fleet import Fleet, FleetLoadGenerator, scale_platform
from repro.hw import AddrRange, World
from repro.llm import LLAMA3_8B, TINYLLAMA
from repro.obs import TelemetryConfig
from repro.workloads import (
    YOLOV5S,
    FleetTenantSpec,
    NNAppRunner,
    generate_fleet_trace,
    generate_prompts,
)

from stats import fingerprint, median, pstdev_over_mean, tail

MiB = 1024 * 1024

#: every simulated per-layer metric; a workload fills those its layers
#: exercise and leaves the rest at zero.
SIM_LAYER_METRICS = (
    "sim.events_per_req",
    "core.pipeline.io_s",
    "core.pipeline.alloc_s",
    "core.pipeline.decrypt_s",
    "core.pipeline.compute_s",
    "core.pipeline.npu_overhead_s",
    "core.pipeline.cpu_idle_s",
    "core.pipeline.bound_ratio",
    "core.ta.init_s",
    "core.ta.data_setup_s",
    "core.ta.release_s",
    "ree.cma.migrated_mib_per_req",
    "ree.cma.migration_retries",
    "ree.app_fps",
    "hw.flash.read_mib_per_req",
    "hw.monitor.smc_per_req",
    "tee.npu.world_switches_per_req",
    "tee.npu.switch_s_per_req",
    "llm.decode.cpu_s_per_token",
    "llm.decode.npu_s_per_token",
    "llm.decode.smc_s_per_token",
    "llm.decode.sched_wait_s_per_token",
    "serve.queue_wait_p50_s",
    "serve.queue_wait_tail_s",
    "fleet.resident_route_frac",
    "fleet.spillover_frac",
    "fleet.device_load_cv",
)


@dataclass
class Sample:
    """One offered request as the user saw it, in simulated seconds."""

    klass: str
    due: float
    #: "done", "failed" or "shed" once drained; anything else is a miss.
    state: str
    output_tokens: int
    first_token_at: Optional[float] = None
    finished_at: Optional[float] = None
    token_ids: tuple = ()
    device: str = ""


@dataclass
class Outcome:
    samples: List[Sample]
    events: int
    #: simulated seconds from the first due instant to the drain.
    sim_span: float
    #: how late the generator submitted, worst case (open loops).
    gen_late_s: float
    layers: Dict[str, float] = field(default_factory=dict)

    @property
    def fingerprint(self) -> str:
        """Hash over each request's due instant, TTFT, output token ids
        and serving device: equal fingerprints mean bit-identical
        simulated results."""
        return fingerprint([
            [s.due, None if s.first_token_at is None else s.first_token_at - s.due,
             list(s.token_ids), s.device]
            for s in self.samples
        ])


def _serve_layers(served: Sequence, offered: int) -> Dict[str, float]:
    """Gateway-side metrics over the attempts that served requests."""
    waits = [r.queue_wait for r in served if r.dispatched_at is not None]
    return {
        "serve.queue_wait_p50_s": median(waits) if waits else 0.0,
        "serve.queue_wait_tail_s": tail(waits)[0] if waits else 0.0,
    }


def pinned_trace(tenants, window: float, seed: int):
    """A seeded session trace in which every tenant offers exactly its
    expected request count over ``window`` simulated seconds.

    Each tenant's stream is drawn on its own (the generator's per-tenant
    streams do not depend on one another), cut to its expected count
    ``sessions_per_hour * mean_turns * window / 3600`` and time-scaled so
    its last request is due at ``window``.  The seed draws sessions,
    turns, prompt sizes and arrival instants; the tenant mix and offered
    rate are the same for every seed.
    """
    trace = []
    for spec in tenants:
        count = round(spec.sessions_per_hour * spec.mean_turns * window / 3600.0)
        stream = generate_fleet_trace(2.0 * window, [spec], seed=seed)
        if len(stream) < count:
            raise ValueError(
                "seed %d drew only %d of %d %s requests" % (seed, len(stream), count, spec.name)
            )
        scale = window / stream[count - 1].at
        trace += [replace(r, at=r.at * scale) for r in stream[:count]]
    trace.sort(key=lambda r: (r.at, r.tenant, r.session_id, r.turn))
    return trace


# ---------------------------------------------------------------------------
# fleet_sessions
# ---------------------------------------------------------------------------


class FleetSessions:
    """Sticky multi-tenant sessions replayed open-loop over 8 surrogate
    devices behind cache-aware routing, with the telemetry pipeline on."""

    name = "fleet_sessions"
    WINDOW = 3600.0  # simulated seconds over which requests are due
    ASSISTANT = replace(TINYLLAMA, model_id="assistant-1.1b")
    SUMMARIZER = replace(TINYLLAMA, model_id="summarizer-1.1b")
    MODELS = [ASSISTANT, SUMMARIZER]
    _HUB = scale_platform(RK3588, "hub", cpu=1.6, npu=1.8, mem=1.5, flash=1.6)
    _TABLET = scale_platform(RK3588, "tablet", cpu=1.25, npu=1.4, mem=1.2, flash=1.2)
    _BUDGET = scale_platform(RK3588, "budget", cpu=0.7, npu=0.6, mem=0.75, flash=0.7)
    PLATFORMS = [
        ("hub-0", _HUB), ("hub-1", _HUB), ("tablet-0", _TABLET),
        ("phone-0", RK3588), ("phone-1", RK3588), ("phone-2", RK3588),
        ("budget-0", _BUDGET), ("budget-1", _BUDGET),
    ]
    TENANTS = [
        FleetTenantSpec(
            "chat", ASSISTANT.model_id, "interactive", sessions_per_hour=900.0,
            mean_turns=5.0, mean_think_time=30.0, stickiness=1.0,
            prefix_tokens=96, prefix_pool=4, output_tokens=(4, 12),
        ),
        FleetTenantSpec(
            "copilot", ASSISTANT.model_id, "interactive", sessions_per_hour=700.0,
            mean_turns=4.0, mean_think_time=15.0, stickiness=0.8,
            prefix_tokens=160, prefix_pool=8, output_tokens=(2, 8),
        ),
        FleetTenantSpec(
            "mail", SUMMARIZER.model_id, "batch", sessions_per_hour=350.0,
            workload="personachat", mean_turns=2.0, mean_think_time=60.0,
            stickiness=0.5, prefix_tokens=64, prefix_pool=2, output_tokens=(16, 32),
        ),
        FleetTenantSpec(
            "indexer", SUMMARIZER.model_id, "background", sessions_per_hour=250.0,
            workload="droidtask", mean_turns=1.5, mean_think_time=45.0,
            stickiness=0.0, output_tokens=(24, 48),
        ),
    ]
    TELEMETRY = TelemetryConfig(scrape_interval=30.0, ring_capacity=720)

    def inputs(self, seed: int):
        return pinned_trace(self.TENANTS, self.WINDOW, seed)

    def describe(self, trace) -> str:
        think = ", ".join(
            "%s %gs" % (t.name, t.mean_think_time) for t in self.TENANTS
        )
        return (
            "open loop: %d requests due over %.0f simulated s (%.2f req/s mean); "
            "sessions pre-scheduled with mean think time %s"
            % (len(trace), trace[-1].at, len(trace) / trace[-1].at, think)
        )

    def setup(self, trace):
        fleet = Fleet(self.PLATFORMS, self.MODELS, policy="cache-aware", warm=True)
        fleet.start_telemetry(until=2 * self.WINDOW, config=self.TELEMETRY)
        return SimpleNamespace(fleet=fleet, steps=fleet.sim.steps, start=fleet.sim.now)

    def drive(self, state, trace) -> None:
        state.gen = FleetLoadGenerator(state.fleet.router, trace).run_blocking()

    def outcome(self, state, trace) -> Outcome:
        fleet, gen = state.fleet, state.gen
        tickets = {id(t.request): t for t in gen.admitted}
        shed = {id(request) for request, _exc in gen.rejected}
        samples = []
        for request in trace:
            ticket = tickets.get(id(request))
            if ticket is None:
                fate = "shed" if id(request) in shed else "lost"
                samples.append(Sample(request.priority, request.at, fate, request.output_tokens))
                continue
            sample = Sample(
                request.priority, request.at, ticket.state, request.output_tokens,
                device=ticket.device_id or "",
            )
            if ticket.done:
                winner = ticket.winner
                sample.first_token_at = ticket.first_token_at
                sample.finished_at = winner.finished_at
                decode = winner.record.decode if winner.record is not None else None
                sample.token_ids = tuple(decode.token_ids) if decode else ()
            samples.append(sample)
        served = [t.winner for t in gen.admitted if t.done]
        layers = _serve_layers(served, len(trace))
        layers.update(self._routing_layers(gen.admitted))
        return Outcome(
            samples=samples,
            events=fleet.sim.steps - state.steps,
            sim_span=fleet.sim.now - state.start,
            gen_late_s=max((t.arrived_at - t.request.at for t in gen.admitted), default=0.0),
            layers=layers,
        )

    def _routing_layers(self, tickets) -> Dict[str, float]:
        """Routing outcomes: a route is *resident* when the chosen device
        had already finished a request of the same session or prefix by
        the time this one arrived."""
        routed = sorted(
            (t for t in tickets if t.device_id is not None), key=lambda t: t.arrived_at
        )
        finished = sorted(
            (t for t in tickets if t.done), key=lambda t: t.winner.finished_at
        )
        seen = {}
        resident = 0
        i = 0
        for ticket in routed:
            while i < len(finished) and finished[i].winner.finished_at <= ticket.arrived_at:
                done = finished[i]
                for key in (done.request.session_id, done.request.prefix_id):
                    if key:
                        seen.setdefault(key, set()).add(done.device_id)
                i += 1
            request = ticket.request
            if any(
                ticket.device_id in seen.get(key, ())
                for key in (request.session_id, request.prefix_id) if key
            ):
                resident += 1
        per_device = dict.fromkeys((d for d, _p in self.PLATFORMS), 0)
        for ticket in routed:
            per_device[ticket.device_id] += 1
        n = max(1, len(routed))
        return {
            "fleet.resident_route_frac": resident / n,
            "fleet.spillover_frac": sum(1 for t in routed if t.spilled_over) / n,
            "fleet.device_load_cv": pstdev_over_mean(list(per_device.values())),
        }

    def check(self, state, outcome) -> List[str]:
        return []  # no device-side state to audit on surrogates


# ---------------------------------------------------------------------------
# device helpers
# ---------------------------------------------------------------------------


def _device_counters(system) -> Dict[str, float]:
    stack = system.stack
    regions = stack.kernel.cma_regions.values()
    flash_read = sum(
        tag.bytes for key, tag in stack.board.flash.pipe.stats.tags.items()
        if key.startswith("('read'")
    )
    return {
        "cma_bytes": sum(r.total_migrated_bytes for r in regions),
        "cma_retries": sum(r.migration_retries for r in regions),
        "flash_bytes": flash_read,
        "smc": stack.board.monitor.smc_count,
        "switches": stack.tee_npu.world_switches,
        "switch_s": stack.tee_npu.world_switch_time,
    }


def _device_layers(system, before, records, offered: int) -> Dict[str, float]:
    after = _device_counters(system)
    delta = {k: after[k] - before[k] for k in after}
    layers = {
        "ree.cma.migrated_mib_per_req": delta["cma_bytes"] / MiB / offered,
        "ree.cma.migration_retries": float(delta["cma_retries"]),
        "hw.flash.read_mib_per_req": delta["flash_bytes"] / MiB / offered,
        "hw.monitor.smc_per_req": delta["smc"] / offered,
        "tee.npu.world_switches_per_req": delta["switches"] / offered,
        "tee.npu.switch_s_per_req": delta["switch_s"] / offered,
    }
    pipes = [r.pipeline for r in records if r.pipeline is not None]
    if pipes:
        n = len(pipes)
        layers.update({
            "core.pipeline.io_s": sum(p.io_time for p in pipes) / n,
            "core.pipeline.alloc_s": sum(p.alloc_time for p in pipes) / n,
            "core.pipeline.decrypt_s": sum(p.decrypt_time for p in pipes) / n,
            "core.pipeline.compute_s": sum(p.computation_path for p in pipes) / n,
            "core.pipeline.npu_overhead_s": sum(p.npu_overhead_time for p in pipes) / n,
            "core.pipeline.cpu_idle_s": sum(p.cpu_idle_time for p in pipes) / n,
            "core.pipeline.bound_ratio": (
                sum(p.ttft for p in pipes) / sum(p.lower_bound for p in pipes)
            ),
        })
    if records:
        n = len(records)
        layers.update({
            "core.ta.init_s": sum(r.init_time for r in records) / n,
            "core.ta.data_setup_s": sum(r.data_setup_time for r in records) / n,
            "core.ta.release_s": sum(r.release_time for r in records) / n,
        })
    decodes = [r.decode for r in records if r.decode is not None and r.decode.attribution]
    tokens = sum(len(d.attribution) for d in decodes)
    if tokens:
        totals = {"cpu": 0.0, "npu_compute": 0.0, "smc": 0.0, "sched_wait": 0.0}
        for d in decodes:
            for key, value in d.attribution_totals().items():
                totals[key] += value
        layers.update({
            "llm.decode.cpu_s_per_token": totals["cpu"] / tokens,
            "llm.decode.npu_s_per_token": totals["npu_compute"] / tokens,
            "llm.decode.smc_s_per_token": totals["smc"] / tokens,
            "llm.decode.sched_wait_s_per_token": totals["sched_wait"] / tokens,
        })
    return layers


def _probe_parameters(system) -> Optional[str]:
    """A normal-world CPU read of the TA's resident parameters must be
    refused by the TZASC; returns the miss, or None when refused."""
    region = system.ta.params_region
    if region.protected == 0:
        return "no resident parameters to probe"
    try:
        system.stack.board.tzasc.check_cpu(region.protected_range, World.NONSECURE)
    except AccessDenied:
        return None
    return "normal-world read of resident parameters was allowed"


# ---------------------------------------------------------------------------
# device_cold_restore
# ---------------------------------------------------------------------------


class DeviceColdRestore:
    """One phone user waiting on each reply: every request restores the
    8B model from flash under worst-case memory pressure while a YOLOv5
    app shares the NPU from the REE."""

    name = "device_cold_restore"
    DATASETS = ("ultrachat", "personachat", "droidtask")
    PER_DATASET = 10
    #: prompts drawn per dataset; PER_DATASET of them are taken at evenly
    #: spaced length quantiles, so a seed changes which prompts run but
    #: barely moves the length mix TTFT depends on.
    POOL = 1000
    OUTPUT_TOKENS = 16
    #: the parameter probe runs this long after each request is sent:
    #: past TA init, inside restoration, before the shortest first token.
    PROBE_AFTER_S = 4.0

    def inputs(self, seed: int):
        rng = random.Random(seed)
        sets = []
        for dataset in self.DATASETS:
            pool = sorted(generate_prompts(dataset, self.POOL, seed=seed), key=lambda p: p.tokens)
            picked = [
                pool[(2 * i + 1) * self.POOL // (2 * self.PER_DATASET)]
                for i in range(self.PER_DATASET)
            ]
            rng.shuffle(picked)
            sets.append(picked)
        return [prompt for trio in zip(*sets) for prompt in trio]

    def describe(self, prompts) -> str:
        return (
            "closed loop: 1 client, %d requests (%s interleaved), %d output "
            "tokens each, zero think time" % (
                len(prompts), "/".join(self.DATASETS), self.OUTPUT_TOKENS)
        )

    def setup(self, prompts):
        system = TZLLM(LLAMA3_8B, cache_fraction=0.0)
        system.run_infer(8, 0)  # cold init + checkpoint save
        stress = system.apply_pressure(PAPER_PRESSURE[LLAMA3_8B.model_id])
        kernel = system.stack.kernel
        ctx_alloc = kernel.alloc_unmovable(4096, tag="nn-ctx")
        ctx = AddrRange(kernel.db.frame_addr(min(ctx_alloc.frames)), 4096)
        runner = NNAppRunner(system.sim, system.stack.spec, system.stack.ree_npu, YOLOV5S, ctx)
        return SimpleNamespace(
            system=system, stress=stress, runner=runner, results=[], probes=[],
            steps=system.sim.steps, start=system.sim.now,
            counters=_device_counters(system),
        )

    def drive(self, state, prompts) -> None:
        system, sim = state.system, state.system.sim
        stop = sim.event()
        app = sim.process(state.runner.run_until(stop))
        for prompt in prompts:
            state.stress.refresh()
            sent = sim.now
            proc = sim.process(system.infer(prompt.tokens, self.OUTPUT_TOKENS))
            sim.run(until=sent + self.PROBE_AFTER_S)
            state.probes.append(_probe_parameters(system))
            record = sim.run_until(proc)
            state.results.append((sent, record, sim.now))
        stop.succeed()
        sim.run_until(app)

    def outcome(self, state, prompts) -> Outcome:
        system = state.system
        samples = [
            Sample(
                "interactive", sent, "done", record.output_tokens,
                first_token_at=record.first_token_at, finished_at=finished,
                token_ids=tuple(record.decode.token_ids), device="phone",
            )
            for sent, record, finished in state.results
        ]
        records = [record for _sent, record, _done in state.results]
        layers = _device_layers(system, state.counters, records, len(prompts))
        layers["ree.app_fps"] = state.runner.throughput
        return Outcome(
            samples=samples,
            events=system.sim.steps - state.steps,
            sim_span=system.sim.now - state.start,
            gen_late_s=0.0,
            layers=layers,
        )

    def check(self, state, outcome) -> List[str]:
        problems = sorted({p for p in state.probes if p is not None})
        if state.system.ta.kv_bytes_in_use != 0:
            problems.append("kv_bytes_in_use %d after drain" % state.system.ta.kv_bytes_in_use)
        return problems


WORKLOADS = {w.name: w for w in (FleetSessions(), DeviceColdRestore())}
