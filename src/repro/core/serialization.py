"""Serialization: configuration JSON and the compressed wire format.

Two independent concerns live here:

* JSON (de)serialization for configurations — lets experiment
  configurations live in version-controlled files and be passed to the
  CLI (``--config``), and lets benchmark results record the exact
  configuration that produced them.
* :func:`serialize_payload` — the byte-exact wire encoding of one
  :class:`~repro.compression.base.Compressed` tensor.  This is the
  ground truth that :meth:`CompressionSpec.wire_bytes` claims to
  predict; the contract checker (CON003) and the wire-accounting
  property test compare the two.
"""

from __future__ import annotations

import dataclasses
import json

from repro.compression import METHODS, Compressed, CompressionSpec

from .config import CGXConfig

__all__ = ["spec_to_dict", "spec_from_dict", "config_to_dict",
           "config_from_dict", "dump_config", "load_config",
           "serialize_payload", "measured_wire_bytes"]


def spec_to_dict(spec: CompressionSpec) -> dict:
    """CompressionSpec -> plain dict (only non-default fields)."""
    defaults = CompressionSpec()
    out = {}
    for field in dataclasses.fields(spec):
        value = getattr(spec, field.name)
        if value != getattr(defaults, field.name):
            out[field.name] = value
    out.setdefault("method", spec.method)
    return out


def spec_from_dict(data: dict) -> CompressionSpec:
    """Plain dict -> CompressionSpec, rejecting unknown keys."""
    known = {f.name for f in dataclasses.fields(CompressionSpec)}
    unknown = set(data) - known
    if unknown:
        raise KeyError(f"unknown CompressionSpec fields: {sorted(unknown)}")
    return CompressionSpec(**data)


def config_to_dict(config: CGXConfig) -> dict:
    """CGXConfig -> JSON-safe dict."""
    return {
        "backend": config.backend,
        "scheme": config.scheme,
        "compression": spec_to_dict(config.compression),
        "filtered_keywords": list(config.filtered_keywords),
        "min_compress_numel": config.min_compress_numel,
        "per_layer": {name: spec_to_dict(spec)
                      for name, spec in config.per_layer.items()},
        "fusion_bytes": config.fusion_bytes,
        "chunk_streams": config.chunk_streams,
        "cross_barrier": config.cross_barrier,
        "overlap": config.overlap,
    }


def config_from_dict(data: dict) -> CGXConfig:
    """JSON-safe dict -> CGXConfig, rejecting unknown keys."""
    known = {f.name for f in dataclasses.fields(CGXConfig)}
    unknown = set(data) - known
    if unknown:
        raise KeyError(f"unknown CGXConfig fields: {sorted(unknown)}")
    payload = dict(data)
    if "compression" in payload:
        payload["compression"] = spec_from_dict(payload["compression"])
    if "per_layer" in payload:
        payload["per_layer"] = {
            name: spec_from_dict(spec)
            for name, spec in payload["per_layer"].items()
        }
    if "filtered_keywords" in payload:
        payload["filtered_keywords"] = tuple(payload["filtered_keywords"])
    return CGXConfig(**payload)


def dump_config(config: CGXConfig, path: str) -> None:
    """Write a config as pretty-printed JSON."""
    with open(path, "w") as handle:
        json.dump(config_to_dict(config), handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_config(path: str) -> CGXConfig:
    """Read a config written by :func:`dump_config`."""
    with open(path) as handle:
        return config_from_dict(json.load(handle))


# -- compressed wire format --------------------------------------------------

def serialize_payload(compressed: Compressed) -> bytes:
    """Byte-exact wire encoding of one compressed tensor's payload.

    The wire layout *is* the payload layout: the concatenated bytes of
    the arrays the operator class names in wire order — what
    :meth:`~repro.compression.base.CompressionSpec.wire_bytes` accounts
    for.  Shape/numel metadata is negotiated once at plan time and
    never travels per step, so it is deliberately not part of the
    encoding.
    """
    method = compressed.spec.method
    if method not in METHODS:
        raise ValueError(f"no wire encoding for method {method!r}")
    return b"".join(array.tobytes()
                    for array in METHODS[method].wire_arrays(compressed))


def measured_wire_bytes(compressed: Compressed) -> int:
    """Size of the actual serialized payload (vs. the spec's claim)."""
    return len(serialize_payload(compressed))
