"""Transformer computation DAG (the object pipelined restoration extends).

The prefill graph is a chain of operators in topological order — exactly
the structure llama.cpp schedules and the property §4.1 exploits: each
operator touches a known parameter group, so the restoration planner
knows precisely which tensors the pipeline must prefetch next.

Operator placement follows the paper: layer norms and self-attention run
on the CPU; projections / matmuls run on the NPU when one is available
(``use_npu``), or the CPU otherwise.  With ``use_npu="auto"``, each
matmul picks the cheaper engine analytically — which is how decode ends
up CPU-bound for tiny models (NPU launch latency eats the gain, §7.1.2)
and NPU-bound for large ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from ..config import PlatformSpec
from ..errors import ConfigurationError
from .models import ModelSpec
from .ops import Engine, op_duration_with_launch
from .tensors import TensorMeta

__all__ = [
    "ComputeOp",
    "ComputationGraph",
    "build_prefill_graph",
    "build_chunked_prefill_graph",
    "build_batched_decode_graph",
]


@dataclass
class ComputeOp:
    """One node of the DAG."""

    op_id: int
    name: str
    engine: str  # Engine.CPU or Engine.NPU
    layer: int
    flops: float
    bytes_touched: float
    tensors: List[TensorMeta] = field(default_factory=list)
    deps: List[int] = field(default_factory=list)

    @property
    def param_bytes(self) -> int:
        return sum(t.nominal_bytes for t in self.tensors)


class ComputationGraph:
    """Operators in topological order (a chain, plus explicit deps)."""

    def __init__(self, model: ModelSpec, ops: List[ComputeOp]):
        self.model = model
        self.ops = ops
        self._by_id = {op.op_id: op for op in ops}

    def __len__(self) -> int:
        return len(self.ops)

    def op(self, op_id: int) -> ComputeOp:
        return self._by_id[op_id]

    def tensors_in_order(self) -> List[TensorMeta]:
        """Parameter tensors in first-use (topological) order."""
        seen = set()
        ordered: List[TensorMeta] = []
        for op in self.ops:
            for tensor in op.tensors:
                if tensor.name not in seen:
                    seen.add(tensor.name)
                    ordered.append(tensor)
        return ordered

    def validate(self) -> None:
        """Check topological order and dependency sanity."""
        position = {op.op_id: index for index, op in enumerate(self.ops)}
        for op in self.ops:
            for dep in op.deps:
                if dep not in position:
                    raise ConfigurationError("op %d depends on unknown %d" % (op.op_id, dep))
                if position[dep] >= position[op.op_id]:
                    raise ConfigurationError(
                        "op %d depends on later op %d (not topological)" % (op.op_id, dep)
                    )


def _pick_engine(
    use_npu: Union[bool, str],
    flops: float,
    bytes_touched: float,
    platform: Optional[PlatformSpec],
) -> str:
    if use_npu is False:
        return Engine.CPU
    if use_npu is True:
        return Engine.NPU
    if use_npu == "auto":
        if platform is None:
            raise ConfigurationError("use_npu='auto' requires a platform spec")
        cpu = op_duration_with_launch(flops, bytes_touched, platform, Engine.CPU)
        npu = op_duration_with_launch(flops, bytes_touched, platform, Engine.NPU)
        return Engine.NPU if npu < cpu else Engine.CPU
    raise ConfigurationError("use_npu must be True, False or 'auto'")


def _tensor_map(tensors: Sequence[TensorMeta]) -> Dict[str, TensorMeta]:
    return {t.name: t for t in tensors}


def build_prefill_graph(
    model: ModelSpec,
    tensors: Sequence[TensorMeta],
    prompt_tokens: int,
    use_npu: Union[bool, str] = True,
    platform: Optional[PlatformSpec] = None,
) -> ComputationGraph:
    """The prefill chain over ``prompt_tokens`` tokens.

    ``tensors`` is the container's tensor table (so ops reference the
    *file's* tensor objects, offsets and all).
    """
    if prompt_tokens < 1:
        raise ConfigurationError("prompt must have at least one token")
    by_name = _tensor_map(tensors)
    T = prompt_tokens
    h = model.hidden
    ops: List[ComputeOp] = []

    def add(name, engine, layer, flops, bytes_touched, tensor_names):
        group = [by_name[n] for n in tensor_names]
        op = ComputeOp(
            op_id=len(ops),
            name=name,
            engine=engine,
            layer=layer,
            flops=flops,
            bytes_touched=bytes_touched,
            tensors=group,
            deps=[len(ops) - 1] if ops else [],
        )
        ops.append(op)
        return op

    embed = by_name["token_embd"]
    add("embed", Engine.CPU, -1, 2.0 * T * h, T * h, ["token_embd"])
    for layer in range(model.n_layers):
        norm_flops = 4.0 * T * h  # rmsnorm: square, mean, scale
        attn_tensor = by_name["blk.%d.attn" % layer]
        attn_flops = 2.0 * model.attn_params * T
        eng = _pick_engine(use_npu, attn_flops, attn_tensor.nominal_bytes, platform)
        add("blk.%d.attn_norm" % layer, Engine.CPU, layer, norm_flops, T * h, ["blk.%d.attn_norm" % layer])
        add("blk.%d.attn_proj" % layer, eng, layer, attn_flops, attn_tensor.nominal_bytes, ["blk.%d.attn" % layer])
        # Self-attention proper (softmax(QK^T)V): quadratic in T, CPU-resident.
        attn_core_flops = 4.0 * T * T * h
        add("blk.%d.attention" % layer, Engine.CPU, layer, attn_core_flops, T * model.kv_dim * 2, [])
        add("blk.%d.ffn_norm" % layer, Engine.CPU, layer, norm_flops, T * h, ["blk.%d.ffn_norm" % layer])
        if model.n_experts == 1:
            ffn_names = ["blk.%d.ffn" % layer]
        else:
            ffn_names = ["blk.%d.ffn.expert.%d" % (layer, e) for e in range(model.n_experts)]
        ffn_flops = 2.0 * model.ffn_params_per_expert * model.experts_per_token * T
        ffn_bytes = sum(by_name[n].nominal_bytes for n in ffn_names)
        eng = _pick_engine(use_npu, ffn_flops, ffn_bytes, platform)
        add("blk.%d.ffn_proj" % layer, eng, layer, ffn_flops, ffn_bytes, ffn_names)
    add("output_norm", Engine.CPU, -1, 4.0 * T * h, T * h, ["output_norm"])
    if not model.tied_embeddings:
        # Logits only for the final position during prefill.
        head = by_name["output"]
        head_flops = 2.0 * model.lm_head_params
        eng = _pick_engine(use_npu, head_flops, head.nominal_bytes, platform)
        add("lm_head", eng, -1, head_flops, head.nominal_bytes, ["output"])
    else:
        head_flops = 2.0 * model.embed_params
        eng = _pick_engine(use_npu, head_flops, embed.nominal_bytes, platform)
        add("lm_head", eng, -1, head_flops, embed.nominal_bytes, ["token_embd"])
    graph = ComputationGraph(model, ops)
    graph.validate()
    return graph


def build_chunked_prefill_graph(
    model: ModelSpec,
    tensors: Sequence[TensorMeta],
    chunk_tokens: int,
    context_tokens: int = 0,
    use_npu: Union[bool, str] = True,
    platform: Optional[PlatformSpec] = None,
) -> ComputationGraph:
    """Prefill ``chunk_tokens`` new tokens on top of ``context_tokens``
    of already-resident KV (shared-prefix hits, or earlier chunks).

    The matmul/norm work scales with the *chunk* (only new positions
    project), while self-attention attends from the chunk's queries over
    the full resident context — flops ``4 * chunk * (context + chunk) *
    hidden`` and KV bytes over ``context + chunk`` positions.  With
    ``context_tokens=0`` this degenerates exactly to
    :func:`build_prefill_graph` on ``chunk_tokens``, which is what makes
    the miss-suffix prefill of a shared prompt priceable as "a prompt
    that starts mid-stream"."""
    if chunk_tokens < 1:
        raise ConfigurationError("chunk must have at least one token")
    if context_tokens < 0:
        raise ConfigurationError("context_tokens must be >= 0")
    graph = build_prefill_graph(
        model, tensors, chunk_tokens, use_npu=use_npu, platform=platform
    )
    if context_tokens:
        total = context_tokens + chunk_tokens
        for op in graph.ops:
            if op.name.endswith(".attention"):
                op.flops = 4.0 * chunk_tokens * total * model.hidden
                op.bytes_touched = total * model.kv_dim * 2
    return graph


#: decode-graph op classification by name suffix: matmuls stream their
#: weights once per step regardless of how many sequences share it.
_WEIGHT_OP_SUFFIXES = (".attn_proj", ".ffn_proj", "lm_head")


def batched_attention_cost(model: ModelSpec, kv_token_counts: Sequence[int]):
    """(flops, bytes) of one fused step's attention: every sequence reads
    its own KV context, so both terms sum over the batch."""
    flops = sum(4.0 * t * model.hidden for t in kv_token_counts)
    nbytes = sum(t * model.kv_dim * 2 * model.kv_bytes_per_element for t in kv_token_counts)
    return flops, nbytes


def build_batched_decode_graph(
    model: ModelSpec,
    tensors: Sequence[TensorMeta],
    kv_token_counts: Sequence[int],
    use_npu: Union[bool, str] = "auto",
    platform: Optional[PlatformSpec] = None,
) -> ComputationGraph:
    """One *fused* decode iteration over a batch of sequences.

    ``kv_token_counts`` holds the per-sequence context length; the batch
    size is its length.  This is where batching pays: per step the
    weight matmuls stream their parameters **once** (the setup cost, a
    fixed per-step charge) while their flops scale with the batch (the
    per-token marginal cost) — decode is bandwidth-bound, so the roofline
    ``max(flops/rate, bytes/bandwidth)`` barely moves until the batch is
    large enough to make compute dominate.  Attention reads every
    sequence's own KV blocks, so both its flops and bytes are sums over
    the batch.  Activation-bound ops (embed, norms) scale in both terms.

    Engines are re-picked against the *batched* costs: a matmul that is
    CPU-cheapest for one token can cross the NPU's launch-latency
    break-even once four sequences share the launch (§7.1.2 inverted).
    """
    if not kv_token_counts:
        raise ConfigurationError("batch must contain at least one sequence")
    batch = len(kv_token_counts)
    graph = build_prefill_graph(model, tensors, 1, use_npu=False)
    kv_flops, kv_bytes = batched_attention_cost(model, kv_token_counts)
    for op in graph.ops:
        if op.name.endswith(".attention"):
            op.flops = kv_flops
            op.bytes_touched = kv_bytes
            op.engine = Engine.CPU
        elif op.name.endswith(_WEIGHT_OP_SUFFIXES):
            op.flops *= batch  # weights stream once; activations per sequence
            op.engine = _pick_engine(use_npu, op.flops, op.bytes_touched, platform)
        else:
            op.flops *= batch
            op.bytes_touched *= batch
            op.engine = Engine.CPU
    return graph
