"""Golden differential test: the decode batch engine against the decode
paths it replaced.

``legacy_golden.json`` holds two frozen grids, each with 8 output tokens
per request on a system warmed by one prompt-only request:

* ``grid`` — what the per-request LLM TA path measured for the four
  paper models × prompts 32/128/512 × ``cache_fraction`` 0 and 1.  The
  engine must reproduce the token ids exactly and TTFT and decode tok/s
  within 1%.
* ``ree_grid`` — what the dense REE decode loop measured for the four
  paper models × ``REELLM`` memory/flash × prompts 32/128/512.  Both
  baselines now decode through the engine too, and must reproduce the
  token ids, TTFT and decode tok/s exactly.

Both grids were captured with ``measure`` from the deleted paths: they
are frozen records of them, not something to regenerate from the engine.
"""

import json
import os

import pytest

from repro import REELLM, TZLLM
from repro.llm import LLAMA3_8B, PHI3_MINI, QWEN25_3B, TINYLLAMA

FIXTURE = os.path.join(os.path.dirname(__file__), "legacy_golden.json")
MODELS = (TINYLLAMA, QWEN25_3B, PHI3_MINI, LLAMA3_8B)
PROMPTS = (32, 128, 512)
CACHE_FRACTIONS = (0.0, 1.0)
REE_MODES = ("memory", "flash")
OUTPUT_TOKENS = 8
RTOL = 0.01


def measure(system):
    """Warm ``system`` with one prompt-only request, then run the prompts
    in grid order on it.  Returns ``{prompt: row}``."""
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


def _golden(grid, key):
    with open(FIXTURE) as fh:
        return json.load(fh)[grid][key]


@pytest.mark.parametrize("cache_fraction", CACHE_FRACTIONS, ids=["cold", "cached"])
@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.model_id)
def test_engine_matches_legacy_golden(model, cache_fraction):
    golden = _golden("grid", "%s@cache=%g" % (model.model_id, cache_fraction))
    measured = measure(TZLLM(model, cache_fraction=cache_fraction))
    for prompt in PROMPTS:
        want = golden[str(prompt)]
        got = measured[prompt]
        assert got["token_ids"] == want["token_ids"], prompt
        assert got["ttft_s"] == pytest.approx(want["ttft_s"], rel=RTOL), prompt
        assert got["decode_tok_s"] == pytest.approx(want["decode_tok_s"], rel=RTOL), prompt


@pytest.mark.parametrize("mode", REE_MODES)
@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.model_id)
def test_ree_baseline_matches_dense_golden(model, mode):
    golden = _golden("ree_grid", "%s@%s" % (model.model_id, mode))
    measured = measure(REELLM(model, mode=mode))
    for prompt in PROMPTS:
        want = golden[str(prompt)]
        got = measured[prompt]
        assert got["token_ids"] == want["token_ids"], prompt
        assert got["ttft_s"] == want["ttft_s"], prompt
        assert got["decode_tok_s"] == want["decode_tok_s"], prompt
