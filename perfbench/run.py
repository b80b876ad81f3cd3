"""The repository benchmark: one command, two workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (``BENCHMARK.json`` says why each was chosen):

* ``fleet_sessions``       open loop over an 8-device surrogate fleet;
* ``device_cold_restore``  closed loop, one client, cold 8B restores.

A run builds the workload's inputs from ``--seed`` once, then repeats
*passes* while they fit in ``--seconds`` of host time (at least one).  A
pass sets up a fresh system (timed as set-up), drives every request to
completion (the timed phase) and checks the outcome.  Every pass serves
the same inputs, so every pass must report the same simulated results.

``--trace 0`` reports the end-to-end metrics: simulated latency and SLO
figures from the first pass, host figures as medians over passes,
scaled to a reference host speed measured alongside (``speed.py``).
``--trace 1`` alternates unprofiled and profiled passes and reports the
per-layer metrics: the simulated layer counters of the first pass, the
host ledger of the profiled passes (``ledger.py``) and the profiling
overhead.  The last line of standard output is one JSON object; any
correctness miss makes it report ``"correct": false`` and exit 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time

from ledger import Ledger
from speed import SpeedProbe
from stats import label, median, tail

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
PACKAGE_DIR = os.path.join(ROOT, "src", "repro")

#: set-ups timed per run at least, so the set-up median has samples even
#: when a pass is long; a set-up of about a millisecond repeats until
#: ``MIN_SETUP_S`` is spent, so its median does not hang on a few.
MIN_SETUPS = 9
MIN_SETUP_S = 0.5

#: TTFT limit per priority class, fixed here rather than read from the
#: program so a change to the gateway's policy table cannot move it.
#: Background work has no limit of its own and is held to the batch one.
SLO_TTFT_S = {"interactive": 5.0, "batch": 60.0, "background": 60.0}


def _fail(message: str) -> None:
    print("perfbench: %s" % message, file=sys.stderr)
    sys.exit(2)


def _load_program() -> None:
    if not os.path.isfile(os.path.join(PACKAGE_DIR, "__init__.py")):
        _fail("no program source at %s" % PACKAGE_DIR)
    sys.path.insert(0, os.path.dirname(PACKAGE_DIR))
    import repro

    if os.path.dirname(os.path.abspath(repro.__file__)) != PACKAGE_DIR:
        _fail("imported repro from %s, not from this checkout" % repro.__file__)


def _read_json(path: str):
    if not os.path.isfile(path):
        _fail("missing %s" % path)
    with open(path) as fh:
        return json.load(fh)


def end_to_end(outcome, host_ms: float, setup_s: float, rss_mib: float):
    """Every end-to-end metric of one workload, plus notes for the log."""
    samples = outcome.samples
    offered = len(samples)
    done = [s for s in samples if s.state == "done"]
    ttfts = [s.first_token_at - s.due for s in done]
    # TPOT is what a waiting user sees stream, so it is taken over
    # interactive requests; batch and background replies are not
    # streamed to anyone, and their preemption pauses are by design.
    tpots = [
        (s.finished_at - s.first_token_at) / (s.output_tokens - 1)
        for s in done if s.klass == "interactive" and s.output_tokens > 1
    ]
    met = sum(1 for s, t in zip(done, ttfts) if t <= SLO_TTFT_S[s.klass])
    ttft_tail, ttft_q = tail(ttfts)
    tpot_tail, tpot_q = tail(tpots)
    metrics = {
        "ttft_p50_s": median(ttfts),
        "ttft_tail_s": ttft_tail,
        "tpot_p50_s": median(tpots),
        "tpot_tail_s": tpot_tail,
        "slo_attainment": met / offered,
        "goodput_rps": met / outcome.sim_span,
        "served_frac": len(done) / offered,
        "host_ms_per_req": host_ms,
        "setup_s": setup_s,
        "peak_rss_mib": rss_mib,
    }
    notes = {
        "ttft_tail_s": "%s of %d requests" % (label(ttft_q), len(ttfts)),
        "tpot_tail_s": "%s of %d interactive requests" % (label(tpot_q), len(tpots)),
    }
    extra = [("failed_frac", (offered - len(done)) / offered, "ratio")]
    if "ree.app_fps" in outcome.layers:
        extra.append(("ree_app_fps", outcome.layers["ree.app_fps"], "1/s"))
    return metrics, notes, extra


def _pass(workload, inputs, probe, ledger=None):
    """One set-up, drive and check: (setup span, drive span, outcome,
    problems)."""
    gc.collect()
    state, setup = probe.span(workload.setup, inputs)
    if ledger is None:
        _none, drive = probe.span(workload.drive, state, inputs)
    else:
        with ledger:
            _none, drive = probe.span(workload.drive, state, inputs)
    outcome = workload.outcome(state, inputs)
    problems = workload.check(state, outcome)
    unsettled = sum(1 for s in outcome.samples if s.state not in ("done", "failed", "shed"))
    if unsettled:
        problems.append("completed + failed + shed != offered (%d unsettled)" % unsettled)
    # Virtual time never runs late; the tolerance absorbs the rounding of
    # ``now + (due - now)`` in floating point.
    if outcome.gen_late_s > 1e-9:
        problems.append("generator ran %.3g s late" % outcome.gen_late_s)
    return setup, drive, outcome, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    declared = _read_json(os.path.join(ROOT, "BENCHMARK.json"))
    seed = args.seed
    if seed is None:
        seed = _read_json(os.path.join(BENCH_DIR, "plan.json"))["seeds"]["default"]
    _load_program()
    from workloads import SIM_LAYER_METRICS, WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        _fail("unknown workload %r (have: %s)" % (args.workload, ", ".join(WORKLOADS)))

    inputs = workload.inputs(seed)
    offered = len(inputs)
    print("workload %s seed %d: %s" % (workload.name, seed, workload.describe(inputs)))

    # Host times are scaled to the reference speed (``speed.py``); the
    # profiled runs leave the probe unarmed so it stays out of the ledger.
    probe = SpeedProbe(armed=not args.trace)
    ledger = Ledger(PACKAGE_DIR, BENCH_DIR) if args.trace else None
    hosts, problems, ratios = [], [], []
    first = rss_mib = None
    passes = 0

    def set_up_repeatedly():
        spans = []
        while len(spans) < MIN_SETUPS - 1 or sum(s.seconds for s in spans) < MIN_SETUP_S:
            # A full collection would cost more than a millisecond
            # set-up; the young generations hold the last one's garbage.
            gc.collect(1)
            spans.append(probe.span(workload.setup, inputs)[1])
        return spans

    with probe:
        # Set-ups too short for a speed sample of their own are scaled
        # by the samples taken over all of them together.
        setups, around = probe.span(set_up_repeatedly)
        setups = [probe.reference(s, around) for s in setups]
        started = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            results = [_pass(workload, inputs, probe)]
            setups.append(probe.reference(results[0][0]))
            hosts.append(probe.reference(results[0][1]))
            if rss_mib is None:
                # High-water through the set-ups and one pass, so it does
                # not depend on how many passes fit in the run.
                rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if ledger is not None:
                results.append(_pass(workload, inputs, probe, ledger))
                ledger.requests += offered
                ratios.append(results[1][1].seconds / results[0][1].seconds)
            for _setup, _host, outcome, missed in results:
                problems += missed
                first = first or outcome
                if outcome.fingerprint != first.fingerprint or outcome.layers != first.layers:
                    problems.append("simulated results differ between passes of one seed")
            passes += len(results)
            # Only the first outcome is kept, so memory does not grow with
            # the number of passes that fit.
            del results, outcome
            now = time.perf_counter()
            if now - started + (now - round_start) > args.seconds:
                break

    if ledger is None:
        metrics, notes, extra = end_to_end(
            first,
            1e3 * median(hosts) / offered,
            median(setups),
            rss_mib,
        )
        wanted = declared["end_to_end"]
    else:
        metrics = dict.fromkeys(SIM_LAYER_METRICS, 0.0)
        metrics.update(first.layers)
        metrics["sim.events_per_req"] = first.events / offered
        metrics.update(ledger.metrics())
        metrics["trace.overhead_ratio"] = median(ratios)
        notes, extra = {}, []
        wanted = declared["per_layer"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        problems.append("metrics not produced: %s" % ", ".join(missing))

    rows = [(m["name"], metrics[m["name"]], m["unit"]) for m in wanted if m["name"] in metrics]
    for name, value, unit in rows + extra:
        print("  %-40s %14.6g %-6s %s" % (name, value, unit, notes.get(name, "")))
    print("  passes %d of %d requests, gen_late_s %g, fingerprint %s"
          % (passes, offered, first.gen_late_s, first.fingerprint))
    for problem in sorted(set(problems)):
        print("CHECK FAILED: %s" % problem)

    print(json.dumps({
        "correct": not problems,
        "attempted": offered * passes,
        "failed": sum(1 for s in first.samples if s.state != "done") * passes,
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit in rows},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
