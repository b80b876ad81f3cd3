"""The instrumented pipeline example's exported artifacts, and the
Prometheus export of an instrumented system.

``examples/pipeline_trace.py`` writes a Chrome trace, a registry
snapshot and a collapsed-stack profile; each must load and be well
formed.
"""

import json
import os
import runpy
import sys

from repro import TINYLLAMA, TZLLM
from repro.obs import instrument

EXAMPLE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "examples",
    "pipeline_trace.py",
)


def test_pipeline_trace_example_exports_valid_artifacts(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "argv", [EXAMPLE, "--out", str(tmp_path)])
    runpy.run_path(EXAMPLE, run_name="__main__")

    with open(tmp_path / "tzllm_trace.json") as fh:
        trace = json.load(fh)  # fails the test on invalid JSON
    events = trace["traceEvents"]
    assert events, "empty Chrome trace"
    assert all("ph" in e and "ts" in e for e in events), "malformed trace event"

    with open(tmp_path / "tzllm_metrics.json") as fh:
        json.load(fh)

    with open(tmp_path / "tzllm_profile.collapsed") as fh:
        stacks = fh.read().splitlines()
    assert stacks, "empty collapsed-stack profile"
    for line in stacks:
        frame, _, count = line.rpartition(" ")
        assert frame and count.isdigit(), "malformed collapsed line: %r" % line


def test_instrumented_system_exports_prometheus_samples():
    system = TZLLM(TINYLLAMA)
    obs = instrument(system)
    system.run_infer(32, 0)
    text = obs.registry.render()
    samples = [l for l in text.splitlines() if l and not l.startswith("#")]
    assert samples, "empty Prometheus export"
