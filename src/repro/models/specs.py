"""Full-size layer inventories of the paper's evaluation models.

The performance experiments (Figures 1, 3, 10, 11; Tables 4-8) depend
only on *layer sizes and order*, not on actual weights: what matters is
how many bytes each layer's gradient occupies, when the backward pass
produces it, and how much compute the layer contributes.  This module
captures exactly that, as :class:`ModelSpec` objects whose parameter
counts match the real architectures:

* ResNet50 (~25.6 M), VGG16 (~138 M), ViT-Base/16 (~86 M),
  Transformer-XL base with a tied WikiText-103 embedding (~188 M),
  BERT-Base (~109 M), GPT-2 small (~124 M).

Tensors are listed in *forward* order; the backward pass emits gradients
in reverse, which is why the paper's Appendix E observes that huge input
embeddings are synchronized last.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["TensorSpec", "ModelSpec", "build_spec", "SPEC_BUILDERS", "available_specs"]

FP32_BYTES = 4


@dataclass(frozen=True)
class TensorSpec:
    """One parameter tensor of a model.

    Attributes:
        name: dotted tensor name (PyTorch-style), used by layer filters.
        kind: one of ``conv | linear | embedding | norm | bias``.
        numel: number of elements.
        flops: per-item forward FLOPs attributed to this tensor's module
            (an "item" is one image for CNNs/ViT, one token for LMs).
        position: forward-order index of the owning module.
    """

    name: str
    kind: str
    numel: int
    flops: float
    position: int
    shape: tuple[int, ...] = ()

    @property
    def bytes_fp32(self) -> int:
        return self.numel * FP32_BYTES

    @property
    def matrix_shape(self) -> tuple[int, int]:
        """(rows, cols) view used by decomposition compressors."""
        if len(self.shape) < 2:
            return (1, self.numel)
        rows = self.shape[0]
        return (rows, self.numel // rows)


@dataclass
class ModelSpec:
    """Layer inventory plus workload metadata for one evaluation model."""

    name: str
    tensors: list[TensorSpec] = field(default_factory=list)
    item_unit: str = "imgs"          # what throughput counts: imgs or tokens
    items_per_sample: int = 1        # tokens per sequence for LM workloads
    default_batch_per_gpu: int = 32  # samples (sequences for LMs) per GPU
    model_class: str = "cnn"         # cnn | transformer (compute calibration)
    #: training-efficiency multiplier vs the class anchor.  The anchors
    #: (ResNet50 AMP, Transformer-XL fp16) run at high utilization; BERT-QA
    #: follows the paper's recipe of fp32 at batch 3/GPU (Appendix C),
    #: which runs the GPU far below its mixed-precision envelope.  The
    #: value is calibrated so a single V100 reaches ~3.6k tokens/s, the
    #: per-GPU rate implied by Table 4's AWS p3.8xlarge row.
    rate_scale: float = 1.0
    #: compute slowdown when forced to full fp32 (PowerSGD cannot run on
    #: fp16 gradients — Section 2.4).  Models whose recipes use AMP lose
    #: their tensor-core speedup; BERT's recipe is already fp32 (1.0).
    fp32_compute_factor: float = 1.0

    @property
    def num_parameters(self) -> int:
        return sum(t.numel for t in self.tensors)

    @property
    def gradient_bytes(self) -> int:
        return self.num_parameters * FP32_BYTES

    @property
    def flops_per_item(self) -> float:
        """Forward FLOPs per item (image or token)."""
        return sum(t.flops for t in self.tensors)

    def backward_order(self) -> list[TensorSpec]:
        """Tensors in the order their gradients become available."""
        return sorted(self.tensors, key=lambda t: -t.position)

    def layer_infos(self) -> list:
        """The engine's view of this model: one ``LayerInfo`` per tensor.

        Bridges the full-size inventories to everything that consumes
        :class:`~repro.core.filters.LayerInfo` — engine planning, the
        adaptive controller's filter, and the shape/dtype pipeline
        interpreter (``repro.analysis.shapes``), which symbolically
        pushes these layers through plan → encode → serialize → chunk
        without materializing any gradient.
        """
        from repro.core.filters import LayerInfo

        return [
            LayerInfo(t.name, t.numel, t.shape or (t.numel,), t.kind)
            for t in self.tensors
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ModelSpec({self.name}, params={self.num_parameters / 1e6:.1f}M, "
            f"tensors={len(self.tensors)})"
        )


class _SpecBuilder:
    """Accumulates tensors with automatic position numbering."""

    def __init__(self) -> None:
        self.tensors: list[TensorSpec] = []
        self._position = 0

    def add(self, name: str, kind: str, numel: int, flops: float = 0.0,
            shape: tuple[int, ...] = ()) -> None:
        self.tensors.append(
            TensorSpec(name, kind, int(numel), flops, self._position, shape)
        )
        self._position += 1

    def linear(self, name: str, fan_in: int, fan_out: int,
               tokens: float) -> None:
        flops = 2.0 * fan_in * fan_out * tokens
        self.add(f"{name}.weight", "linear", fan_in * fan_out, flops,
                 shape=(fan_out, fan_in))
        self.add(f"{name}.bias", "bias", fan_out, shape=(fan_out,))

    def conv(self, name: str, c_in: int, c_out: int, k: int, out_hw: int,
             bias: bool = False) -> None:
        numel = c_in * c_out * k * k
        flops = 2.0 * numel * out_hw * out_hw
        self.add(f"{name}.weight", "conv", numel, flops,
                 shape=(c_out, c_in, k, k))
        if bias:
            self.add(f"{name}.bias", "bias", c_out, shape=(c_out,))

    def norm(self, name: str, dim: int) -> None:
        self.add(f"{name}.weight", "norm", dim)
        self.add(f"{name}.bias", "bias", dim)


def _resnet50() -> ModelSpec:
    """ResNet50 on 224x224 ImageNet: 4 stages of bottleneck blocks."""
    b = _SpecBuilder()
    b.conv("conv1", 3, 64, 7, 112)
    b.norm("bn1", 64)
    stages = [  # (blocks, width, out_hw)
        (3, 64, 56),
        (4, 128, 28),
        (6, 256, 14),
        (3, 512, 7),
    ]
    c_in = 64
    for stage_idx, (blocks, width, out_hw) in enumerate(stages, start=1):
        expanded = width * 4
        for block in range(blocks):
            prefix = f"layer{stage_idx}.{block}"
            b.conv(f"{prefix}.conv1", c_in, width, 1, out_hw)
            b.norm(f"{prefix}.bn1", width)
            b.conv(f"{prefix}.conv2", width, width, 3, out_hw)
            b.norm(f"{prefix}.bn2", width)
            b.conv(f"{prefix}.conv3", width, expanded, 1, out_hw)
            b.norm(f"{prefix}.bn3", expanded)
            if block == 0:
                b.conv(f"{prefix}.downsample.0", c_in, expanded, 1, out_hw)
                b.norm(f"{prefix}.downsample.1", expanded)
            c_in = expanded
    b.linear("fc", 2048, 1000, tokens=1.0)
    return ModelSpec("resnet50", b.tensors, item_unit="imgs",
                     default_batch_per_gpu=32, model_class="cnn",
                     fp32_compute_factor=1.25)


def _vgg16() -> ModelSpec:
    """VGG16 on 224x224 ImageNet: plain conv stack + 3 FC layers."""
    b = _SpecBuilder()
    cfg = [  # (name, c_in, c_out, out_hw)
        ("features.0", 3, 64, 224), ("features.2", 64, 64, 224),
        ("features.5", 64, 128, 112), ("features.7", 128, 128, 112),
        ("features.10", 128, 256, 56), ("features.12", 256, 256, 56),
        ("features.14", 256, 256, 56),
        ("features.17", 256, 512, 28), ("features.19", 512, 512, 28),
        ("features.21", 512, 512, 28),
        ("features.24", 512, 512, 14), ("features.26", 512, 512, 14),
        ("features.28", 512, 512, 14),
    ]
    for name, c_in, c_out, out_hw in cfg:
        b.conv(name, c_in, c_out, 3, out_hw, bias=True)
    b.linear("classifier.0", 512 * 7 * 7, 4096, tokens=1.0)
    b.linear("classifier.3", 4096, 4096, tokens=1.0)
    b.linear("classifier.6", 4096, 1000, tokens=1.0)
    return ModelSpec("vgg16", b.tensors, item_unit="imgs",
                     default_batch_per_gpu=32, model_class="cnn",
                     fp32_compute_factor=1.25)


def _transformer_body(b: _SpecBuilder, depth: int, dim: int, ffn: int,
                      tokens: float, prefix: str = "blocks",
                      fused_qkv: bool = True) -> None:
    """Append ``depth`` standard transformer encoder/decoder blocks."""
    attn_flops_extra = 2.0 * 2.0 * dim * tokens  # QK^T and attn*V per token
    for layer in range(depth):
        p = f"{prefix}.{layer}"
        b.norm(f"{p}.ln1", dim)
        if fused_qkv:
            b.linear(f"{p}.attn.qkv", dim, 3 * dim, tokens)
        else:
            for proj in ("query", "key", "value"):
                b.linear(f"{p}.attn.{proj}", dim, dim, tokens)
        b.linear(f"{p}.attn.proj", dim, dim, tokens)
        # account attention score flops on the proj module (approximation)
        b.tensors[-2] = TensorSpec(
            b.tensors[-2].name, b.tensors[-2].kind, b.tensors[-2].numel,
            b.tensors[-2].flops + attn_flops_extra, b.tensors[-2].position,
        )
        b.norm(f"{p}.ln2", dim)
        b.linear(f"{p}.mlp.fc1", dim, ffn, tokens)
        b.linear(f"{p}.mlp.fc2", ffn, dim, tokens)


def _vit_base() -> ModelSpec:
    """ViT-Base/16 on 224x224 ImageNet (197 tokens per image)."""
    b = _SpecBuilder()
    tokens = 197.0
    b.conv("patch_embed.proj", 3, 768, 16, 14, bias=True)
    b.add("cls_token", "embedding", 768)
    b.add("pos_embed", "embedding", 197 * 768)
    _transformer_body(b, depth=12, dim=768, ffn=3072, tokens=tokens)
    b.norm("norm", 768)
    b.linear("head", 768, 1000, tokens=1.0)
    return ModelSpec("vit", b.tensors, item_unit="imgs",
                     default_batch_per_gpu=72, model_class="transformer",
                     fp32_compute_factor=1.8)


def _transformer_xl() -> ModelSpec:
    """Transformer-XL base on WikiText-103: 16 layers, d=512, tied embedding.

    The WikiText-103 vocabulary (267735 tokens) makes the embedding a
    single ~137 M-parameter tensor at the *input* of the model — the
    layer the paper's Appendix E identifies as the scaling limiter.
    """
    b = _SpecBuilder()
    vocab, dim, seq = 267_735, 512, 192
    b.add("word_emb.weight", "embedding", vocab * dim, flops=2.0 * dim,
          shape=(vocab, dim))
    _transformer_body(b, depth=16, dim=dim, ffn=2048, tokens=1.0,
                      prefix="layers", fused_qkv=True)
    b.norm("ln_f", dim)
    # tied adaptive softmax: projection clusters, small relative to embedding
    b.add("crit.cluster_weight", "linear", 4 * dim, flops=2.0 * vocab * dim)
    spec = ModelSpec("transformer_xl", b.tensors, item_unit="tokens",
                     items_per_sample=seq, default_batch_per_gpu=32,
                     model_class="transformer", fp32_compute_factor=1.9)
    return spec


def _bert_base() -> ModelSpec:
    """BERT-Base for SQuAD QA: 12 layers, d=768, 384-token sequences."""
    b = _SpecBuilder()
    dim, seq = 768, 384
    b.add("embeddings.word_embeddings.weight", "embedding", 30_522 * dim,
          flops=2.0 * dim, shape=(30_522, dim))
    b.add("embeddings.position_embeddings.weight", "embedding", 512 * dim)
    b.add("embeddings.token_type_embeddings.weight", "embedding", 2 * dim)
    b.norm("embeddings.LayerNorm", dim)
    _transformer_body(b, depth=12, dim=dim, ffn=3072, tokens=1.0,
                      prefix="encoder.layer", fused_qkv=False)
    b.linear("qa_outputs", dim, 2, tokens=1.0)
    return ModelSpec("bert", b.tensors, item_unit="tokens",
                     items_per_sample=seq, default_batch_per_gpu=3,
                     model_class="transformer", rate_scale=0.045)


def _gpt2() -> ModelSpec:
    """GPT-2 small on WikiText-2: 12 layers, d=768, 1024-token context."""
    b = _SpecBuilder()
    dim, seq = 768, 1024
    b.add("wte.weight", "embedding", 50_257 * dim, flops=2.0 * dim,
          shape=(50_257, dim))
    b.add("wpe.weight", "embedding", 1024 * dim)
    _transformer_body(b, depth=12, dim=dim, ffn=3072, tokens=1.0, prefix="h")
    b.norm("ln_f", dim)
    return ModelSpec("gpt2", b.tensors, item_unit="tokens",
                     items_per_sample=seq, default_batch_per_gpu=3,
                     model_class="transformer", rate_scale=0.6,
                     fp32_compute_factor=1.9)


SPEC_BUILDERS = {
    "resnet50": _resnet50,
    "vgg16": _vgg16,
    "vit": _vit_base,
    "transformer_xl": _transformer_xl,
    "bert": _bert_base,
    "gpt2": _gpt2,
}


def build_spec(name: str) -> ModelSpec:
    """Build the full-size :class:`ModelSpec` for a paper model."""
    if name not in SPEC_BUILDERS:
        raise KeyError(
            f"unknown model spec {name!r}; choose from {sorted(SPEC_BUILDERS)}"
        )
    return SPEC_BUILDERS[name]()


def available_specs() -> list[str]:
    return sorted(SPEC_BUILDERS)
