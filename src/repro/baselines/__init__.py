"""Comparison baselines: GRACE.  PowerSGD, the PyTorch-native hook, is
the engine's ``powersgd`` compressor (:mod:`repro.compression.powersgd`)."""

from .grace import GRACE_NO_BUCKETING, grace_config, grace_spec

__all__ = ["grace_config", "grace_spec", "GRACE_NO_BUCKETING"]
