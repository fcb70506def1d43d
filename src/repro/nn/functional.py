"""Primitive numerical operations with explicit backward rules.

These functions are the computational core of the :mod:`repro.nn` layers.
Each ``*_backward`` takes the upstream gradient plus whatever the forward
pass cached, and returns gradients for the forward inputs.  Keeping the
math here lets the layer classes stay small and testable.

Everything computes in its input's dtype: a constant that enters array
arithmetic in :mod:`repro.nn` is a Python float or a float32 array, never
a numpy float64 scalar, which NumPy 2 (NEP 50) lets promote float32 arrays.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "relu",
    "relu_backward",
    "gelu",
    "gelu_tanh",
    "gelu_backward",
    "tanh",
    "tanh_backward",
    "sigmoid",
    "sigmoid_backward",
    "softmax",
    "softmax_backward",
    "log_softmax",
    "im2col",
    "col2im",
]

_GELU_C = math.sqrt(2.0 / math.pi)


def relu(x: np.ndarray) -> np.ndarray:
    """Rectified linear unit."""
    return np.maximum(x, 0.0)


def relu_backward(grad: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Gradient of :func:`relu` with respect to its input."""
    return grad * (x > 0.0)


def gelu_tanh(x: np.ndarray) -> np.ndarray:
    """tanh of GELU's inner polynomial; forward and backward share it."""
    return np.tanh(_GELU_C * (x + 0.044715 * (x * x * x)))


def gelu(x: np.ndarray, t: np.ndarray | None = None) -> np.ndarray:
    """Gaussian error linear unit (tanh approximation, as used by BERT/GPT)."""
    t = gelu_tanh(x) if t is None else t
    return 0.5 * x * (1.0 + t)


def gelu_backward(grad: np.ndarray, x: np.ndarray,
                  t: np.ndarray | None = None) -> np.ndarray:
    """Gradient of :func:`gelu`; ``t`` is the forward's :func:`gelu_tanh`."""
    t = gelu_tanh(x) if t is None else t
    dinner = _GELU_C * (1.0 + 3 * 0.044715 * (x * x))
    return grad * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner)


def tanh(x: np.ndarray) -> np.ndarray:
    """Hyperbolic tangent."""
    return np.tanh(x)


def tanh_backward(grad: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Gradient of :func:`tanh` given the forward *output*."""
    return grad * (1.0 - out**2)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic sigmoid."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid_backward(grad: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Gradient of :func:`sigmoid` given the forward *output*."""
    return grad * out * (1.0 - out)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax along ``axis`` with max-subtraction for stability."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def softmax_backward(grad: np.ndarray, out: np.ndarray, axis: int = -1) -> np.ndarray:
    """Gradient of :func:`softmax` given the forward *output*."""
    dot = np.sum(grad * out, axis=axis, keepdims=True)
    return out * (grad - dot)


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Log-softmax along ``axis``."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def im2col(
    x: np.ndarray, kh: int, kw: int, stride: int, padding: int
) -> tuple[np.ndarray, int, int]:
    """Unfold ``x`` of shape (B, C, H, W) into convolution columns.

    Returns ``(cols, out_h, out_w)`` where ``cols`` has shape
    ``(B, C * kh * kw, out_h * out_w)``.
    """
    batch, channels, height, width = x.shape
    out_h = (height + 2 * padding - kh) // stride + 1
    out_w = (width + 2 * padding - kw) // stride + 1
    if padding > 0:
        x = np.pad(
            x, ((0, 0), (0, 0), (padding, padding), (padding, padding)), mode="constant"
        )
    cols = np.empty((batch, channels, kh, kw, out_h, out_w), dtype=x.dtype)
    for i in range(kh):
        i_end = i + stride * out_h
        for j in range(kw):
            j_end = j + stride * out_w
            cols[:, :, i, j, :, :] = x[:, :, i:i_end:stride, j:j_end:stride]
    return cols.reshape(batch, channels * kh * kw, out_h * out_w), out_h, out_w


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Fold convolution columns back into an input-shaped gradient.

    Inverse scatter of :func:`im2col`: overlapping positions accumulate.
    """
    batch, channels, height, width = x_shape
    out_h = (height + 2 * padding - kh) // stride + 1
    out_w = (width + 2 * padding - kw) // stride + 1
    cols = cols.reshape(batch, channels, kh, kw, out_h, out_w)
    padded = np.zeros(
        (batch, channels, height + 2 * padding, width + 2 * padding), dtype=cols.dtype
    )
    for i in range(kh):
        i_end = i + stride * out_h
        for j in range(kw):
            j_end = j + stride * out_w
            padded[:, :, i:i_end:stride, j:j_end:stride] += cols[:, :, i, j, :, :]
    if padding > 0:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded
