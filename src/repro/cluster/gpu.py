"""GPU compute envelopes, calibrated to the paper's Table 1.

Each :class:`GPUSpec` carries the architectural facts from Table 1 plus
two *measured* single-GPU training throughputs (ResNet50 images/s and
Transformer-XL tokens/s, from the NVIDIA Deep Learning Examples
benchmark).  From those anchors we derive effective training-FLOP rates
for the two model classes; all simulated compute times follow from them,
so simulated single-GPU throughput reproduces Table 1 by construction
and other models' throughputs are interpolated consistently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from repro.models import ModelSpec, build_spec

__all__ = ["GPUSpec", "GPUS", "get_gpu", "anchor_flops_per_item"]

#: forward+backward training FLOPs as a multiple of forward FLOPs
TRAIN_FLOP_FACTOR = 3.0

#: model class -> the Table 1 model its throughput anchor was measured on
ANCHOR_MODELS = {"cnn": "resnet50", "transformer": "transformer_xl"}

#: GPU memory the models' default local batches are tuned for (RTX 3090)
REFERENCE_MEMORY_GB = 24.0


@cache
def anchor_flops_per_item(model_class: str) -> float:
    """Forward FLOPs per item of a class's anchor model, built once.

    The anchors are constants of the catalog, so the spec is built on the
    first call per class and only its ``flops_per_item`` is kept.
    """
    if model_class not in ANCHOR_MODELS:
        raise ValueError(f"unknown model class {model_class!r}")
    return build_spec(ANCHOR_MODELS[model_class]).flops_per_item


@dataclass(frozen=True)
class GPUSpec:
    """Static GPU description plus Table 1 calibration anchors."""

    name: str
    arch: str
    sm_count: int
    tensor_cores: int
    gpu_direct: bool
    memory_gb: int
    tdp_watts: int
    resnet50_imgs_per_s: float      # Table 1 measured anchor
    txl_tokens_per_s: float         # Table 1 measured anchor

    def effective_rate(self, model_class: str) -> float:
        """Effective training FLOP/s for a model class (cnn | transformer)."""
        throughput = (self.resnet50_imgs_per_s if model_class == "cnn"
                      else self.txl_tokens_per_s)
        return anchor_flops_per_item(model_class) * TRAIN_FLOP_FACTOR \
            * throughput

    def step_compute_time(self, spec: ModelSpec, batch_per_gpu: int) -> float:
        """Seconds of forward+backward compute for one local batch."""
        items = batch_per_gpu * spec.items_per_sample
        flops = spec.flops_per_item * TRAIN_FLOP_FACTOR * items
        return flops / (self.effective_rate(spec.model_class)
                        * spec.rate_scale)

    def max_batch_per_gpu(self, spec: ModelSpec) -> int:
        """Scale the default batch by available GPU memory.

        The paper notes RTX 2080 Ti throughput suffers from its 10 GB
        limiting the local batch; we reproduce that by scaling the
        default (tuned-for-24GB) batch linearly in memory.
        """
        scaled = int(spec.default_batch_per_gpu
                     * min(1.0, self.memory_gb / REFERENCE_MEMORY_GB))
        return max(1, scaled)


GPUS: dict[str, GPUSpec] = {
    "V100": GPUSpec("V100", "Volta", 80, 640, True, 16, 250,
                    resnet50_imgs_per_s=1226.0, txl_tokens_per_s=37_000.0),
    "A6000": GPUSpec("A6000", "Ampere", 84, 336, True, 48, 300,
                     resnet50_imgs_per_s=566.0, txl_tokens_per_s=39_000.0),
    "RTX3090": GPUSpec("RTX3090", "Ampere", 82, 328, False, 24, 350,
                       resnet50_imgs_per_s=850.0, txl_tokens_per_s=39_000.0),
    "RTX2080Ti": GPUSpec("RTX2080Ti", "Turing", 68, 544, False, 10, 250,
                         resnet50_imgs_per_s=484.0, txl_tokens_per_s=13_000.0),
}


def get_gpu(name: str) -> GPUSpec:
    if name not in GPUS:
        raise KeyError(f"unknown GPU {name!r}; choose from {sorted(GPUS)}")
    return GPUS[name]
