"""Mini deep-learning framework: the training substrate CGX plugs into.

Public surface re-exports the pieces most users need; submodules hold the
rest (``repro.nn.functional``, ``repro.nn.data``, ``repro.nn.loss``).
"""

from .attention import MultiHeadSelfAttention, TransformerBlock
from .layers import (
    BatchNorm1d,
    BatchNorm2d,
    Conv2d,
    Dropout,
    Embedding,
    Flatten,
    GELU,
    GlobalAvgPool2d,
    LayerNorm,
    Linear,
    MaxPool2d,
    ReLU,
    Residual,
    Tanh,
)
from .models import (
    BertQA,
    MLPClassifier,
    MODEL_FAMILIES,
    TinyResNet,
    TinyVGG,
    TransformerLM,
    ViTClassifier,
    build_model,
)
from .module import Module, Parameter, Sequential
from .optim import SGD, Adam, clip_grad_norm, global_grad_norm

__all__ = [
    "Module",
    "Parameter",
    "Sequential",
    "Linear",
    "Embedding",
    "LayerNorm",
    "BatchNorm1d",
    "BatchNorm2d",
    "Dropout",
    "ReLU",
    "GELU",
    "Tanh",
    "Conv2d",
    "MaxPool2d",
    "GlobalAvgPool2d",
    "Flatten",
    "Residual",
    "MultiHeadSelfAttention",
    "TransformerBlock",
    "MLPClassifier",
    "TinyResNet",
    "TinyVGG",
    "ViTClassifier",
    "TransformerLM",
    "BertQA",
    "MODEL_FAMILIES",
    "build_model",
    "SGD",
    "Adam",
    "clip_grad_norm",
    "global_grad_norm",
]
