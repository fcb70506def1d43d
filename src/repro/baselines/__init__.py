"""Comparison baselines: GRACE.  PowerSGD, the PyTorch-native hook, is
the engine's ``powersgd`` compressor (:mod:`repro.compression.powersgd`)."""

from .grace import GRACE_NO_BUCKETING, grace_config

__all__ = ["grace_config", "GRACE_NO_BUCKETING"]
