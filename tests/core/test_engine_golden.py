"""Golden differential test: the decode batch engine against the
per-request decode path it replaced.

``legacy_golden.json`` holds what the per-request path measured for the
four paper models × prompts 32/128/512 × ``cache_fraction`` 0 and 1,
each with 8 output tokens, on a system warmed by one prompt-only
request.  The engine must reproduce the token ids exactly and TTFT and
decode tok/s within 1%.

The fixture was captured with ``measure`` from the per-request path
before that path was deleted: it is a frozen record of it, not
something to regenerate from the engine.
"""

import json
import os

import pytest

from repro import TZLLM
from repro.llm import LLAMA3_8B, PHI3_MINI, QWEN25_3B, TINYLLAMA

FIXTURE = os.path.join(os.path.dirname(__file__), "legacy_golden.json")
MODELS = (TINYLLAMA, QWEN25_3B, PHI3_MINI, LLAMA3_8B)
PROMPTS = (32, 128, 512)
CACHE_FRACTIONS = (0.0, 1.0)
OUTPUT_TOKENS = 8
RTOL = 0.01


def measure(model, cache_fraction):
    """One warmed system per (model, cache fraction); the prompts run in
    grid order on it.  Returns ``{prompt: row}``."""
    system = TZLLM(model, cache_fraction=cache_fraction)
    system.run_infer(8, 0)
    rows = {}
    for prompt in PROMPTS:
        record = system.run_infer(prompt, OUTPUT_TOKENS)
        rows[prompt] = {
            "ttft_s": record.ttft,
            "decode_tok_s": record.decode_tokens_per_second,
            "token_ids": list(record.decode.token_ids),
        }
    return rows


def _key(model, cache_fraction):
    return "%s@cache=%g" % (model.model_id, cache_fraction)


@pytest.mark.parametrize("cache_fraction", CACHE_FRACTIONS, ids=["cold", "cached"])
@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.model_id)
def test_engine_matches_legacy_golden(model, cache_fraction):
    with open(FIXTURE) as fh:
        golden = json.load(fh)["grid"][_key(model, cache_fraction)]
    measured = measure(model, cache_fraction)
    for prompt in PROMPTS:
        want = golden[str(prompt)]
        got = measured[prompt]
        assert got["token_ids"] == want["token_ids"], prompt
        assert got["ttft_s"] == pytest.approx(want["ttft_s"], rel=RTOL), prompt
        assert got["decode_tok_s"] == pytest.approx(want["decode_tok_s"], rel=RTOL), prompt
