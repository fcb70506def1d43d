"""Gradient compression operators, one class per :data:`METHODS` entry —
identity (``none``), ``fp16``, ``qsgd``, ``nuq``, ``onebit``, ``topk``,
``dgc``, ``powersgd``, ``fake`` — each declaring the
:class:`CompressorContract` the certifier checks."""

from .base import METHODS, Compressed, CompressionSpec, Compressor, make_compressor, register
from .contracts import CompressorContract
from .dgc import DGCCompressor
from .fake import FakeCompressor
from .metrics import (
    LayerErrorStats,
    kernel_seconds,
    measure_error,
    model_wire_bytes,
    relative_error,
)
from .none import FP16Compressor, IdentityCompressor
from .nuq import NUQSGDCompressor, exponential_levels
from .onebit import OneBitCompressor
from .powersgd import PowerSGDCompressor, orthonormalize
from .qsgd import QSGDCompressor, pack_codes, unpack_codes
from .topk import ErrorFeedback, TopKCompressor

__all__ = [
    "Compressed", "CompressionSpec", "Compressor", "make_compressor",
    "METHODS", "register", "CompressorContract",
    "FakeCompressor", "FP16Compressor", "IdentityCompressor",
    "NUQSGDCompressor", "exponential_levels",
    "OneBitCompressor", "DGCCompressor",
    "PowerSGDCompressor", "orthonormalize",
    "QSGDCompressor", "pack_codes", "unpack_codes",
    "ErrorFeedback", "TopKCompressor",
    "LayerErrorStats", "measure_error", "relative_error",
    "model_wire_bytes", "kernel_seconds",
]
