"""NUQSGD: non-uniform (exponential-level) stochastic quantization.

Ramezani-Kebrya et al. (JMLR 2021) — cited by the paper as the line of
work that "reduces the variance of the compression by proposing improved
quantizers".  Instead of QSGD's uniform grid, levels are placed
geometrically (1, 1/2, 1/4, ... of the bucket scale), matching the
heavy-tailed distribution of normalized gradient values: most
coordinates are small relative to the bucket max, and exponential
spacing gives them finer resolution where the mass is.

Included as the paper's "extension to other compression methods"
direction; the ablation bench ``bench_ablation_quantizers.py`` measures
the variance advantage at equal bit-width.
"""

from __future__ import annotations

import numpy as np

from .base import CompressionSpec, register
from .contracts import CompressorContract
from .qsgd import BucketQuantizer

__all__ = ["NUQSGDCompressor", "exponential_levels"]


def exponential_levels(bits: int) -> np.ndarray:
    """Quantization levels in [0, 1]: 0 plus a geometric ladder.

    ``bits``-wide codes reserve one sign bit; the remaining
    ``2^(bits-1) - 1`` nonzero levels are ``2^-(k)`` for
    ``k = levels-1 .. 0`` — i.e. the top level is 1.0 (the bucket max)
    and each level below halves.
    """
    count = 2 ** (bits - 1) - 1
    if count < 1:
        raise ValueError(f"bits={bits} leaves no quantization levels")
    ladder = 2.0 ** -np.arange(count - 1, -1, -1, dtype=np.float64)
    return np.concatenate([[0.0], ladder])


@register
class NUQSGDCompressor(BucketQuantizer):
    """Bucketed stochastic quantizer over exponential levels.

    Fills the QSGD frame (same wire format: packed codes + one fp32
    scale per bucket, so the wire accounting carries over unchanged);
    only the level placement differs.
    """

    contract = CompressorContract("nuq", uses_rng=True,
                                  supported_bits=(2, 3, 4, 5, 6, 7, 8))

    def __init__(self, spec: CompressionSpec) -> None:
        # set first: the frame tabulates _dequantize when it is built
        self.levels = exponential_levels(spec.bits)
        super().__init__(spec)

    def _quantize(self, normalized: np.ndarray,
                  draws: np.ndarray) -> np.ndarray:
        # stochastic rounding between the surrounding exponential levels:
        # ceil(prob_up * 2^16) of the 2^16 draws round up, so the rounded
        # value overshoots by less than 2^-16 of the gap it rounds in
        idx_hi = np.searchsorted(self.levels, normalized, side="left")
        idx_hi = np.clip(idx_hi, 1, len(self.levels) - 1)
        lo = self.levels[idx_hi - 1]
        hi = self.levels[idx_hi]
        # the ladder strictly increases down to 2^-126, so no gap is 0
        prob_up = np.clip((normalized - lo) / (hi - lo), 0.0, 1.0)
        go_up = draws < prob_up * 65536.0
        return (idx_hi - 1 + go_up).astype(np.uint8)

    def _dequantize(self, level: np.ndarray) -> np.ndarray:
        return self.levels[level.astype(np.int64)].astype(np.float32)
