"""Neural-network layers with explicit forward/backward passes.

Layer classes cache forward activations on the instance and implement
exact analytic gradients.  Parameter names follow PyTorch conventions
(``weight`` / ``bias``) so that CGX layer filters such as ``"bias"`` or
``"bn"`` match the way the paper's Listing 1 describes.
"""

from __future__ import annotations

import numpy as np

from . import functional as F
from .module import Module, Parameter

__all__ = [
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
]


def _kaiming_uniform(fan_in: int, shape: tuple[int, ...], rng: np.random.Generator):
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


class Linear(Module):
    """Affine layer ``y = x @ W.T + b`` over the last axis of ``x``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        *,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = self.register_parameter(
            "weight",
            Parameter(_kaiming_uniform(in_features, (out_features, in_features), rng)),
        )
        self.bias = None
        if bias:
            self.bias = self.register_parameter(
                "bias", Parameter(np.zeros(out_features, dtype=np.float32))
            )
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        out = x @ self.weight.data.T
        if self.bias is not None:
            out = out + self.bias.data
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        x = self._x
        flat_x = x.reshape(-1, self.in_features)
        flat_g = grad.reshape(-1, self.out_features)
        self.weight.accumulate_grad(flat_g.T @ flat_x)
        if self.bias is not None:
            self.bias.accumulate_grad(flat_g.sum(axis=0))
        return grad @ self.weight.data


class Embedding(Module):
    """Token-id lookup table; input is an integer array of any shape."""

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        *,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = self.register_parameter(
            "weight",
            Parameter(
                rng.normal(0.0, 0.02, size=(num_embeddings, embedding_dim)).astype(
                    np.float32
                )
            ),
        )
        self._ids: np.ndarray | None = None

    def forward(self, ids: np.ndarray) -> np.ndarray:
        self._ids = np.asarray(ids)
        return self.weight.data[self._ids]

    def backward(self, grad: np.ndarray) -> np.ndarray:
        dense = np.zeros_like(self.weight.data)
        np.add.at(dense, self._ids.reshape(-1), grad.reshape(-1, self.embedding_dim))
        self.weight.accumulate_grad(dense)
        return np.zeros(self._ids.shape, dtype=np.float32)


class LayerNorm(Module):
    """Layer normalization over the last dimension."""

    def __init__(self, dim: int, eps: float = 1e-5):
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.weight = self.register_parameter(
            "weight", Parameter(np.ones(dim, dtype=np.float32))
        )
        self.bias = self.register_parameter(
            "bias", Parameter(np.zeros(dim, dtype=np.float32))
        )
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        mean = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + self.eps)
        norm = (x - mean) * inv_std
        self._cache = (norm, inv_std)
        return norm * self.weight.data + self.bias.data

    def backward(self, grad: np.ndarray) -> np.ndarray:
        norm, inv_std = self._cache
        flat_g = grad.reshape(-1, self.dim)
        flat_n = norm.reshape(-1, self.dim)
        self.weight.accumulate_grad((flat_g * flat_n).sum(axis=0))
        self.bias.accumulate_grad(flat_g.sum(axis=0))
        g = grad * self.weight.data
        mean_g = g.mean(axis=-1, keepdims=True)
        mean_gn = (g * norm).mean(axis=-1, keepdims=True)
        return (g - mean_g - norm * mean_gn) * inv_std


class _BatchNormBase(Module):
    """Shared machinery for 1-D and 2-D batch normalization."""

    # Axes over which statistics are computed; set by subclasses.
    _axes: tuple[int, ...] = (0,)

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1):
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.weight = self.register_parameter(
            "weight", Parameter(np.ones(num_features, dtype=np.float32))
        )
        self.bias = self.register_parameter(
            "bias", Parameter(np.zeros(num_features, dtype=np.float32))
        )
        self.running_mean = np.zeros(num_features, dtype=np.float32)
        self.running_var = np.ones(num_features, dtype=np.float32)
        self._cache: tuple | None = None

    def _reshape_stats(self, stat: np.ndarray, ndim: int) -> np.ndarray:
        shape = [1] * ndim
        shape[1] = self.num_features
        return stat.reshape(shape)

    def forward(self, x: np.ndarray) -> np.ndarray:
        if self.training:
            mean = x.mean(axis=self._axes)
            var = x.var(axis=self._axes)
            self.running_mean += self.momentum * (mean - self.running_mean)
            self.running_var += self.momentum * (var - self.running_var)
        else:
            mean, var = self.running_mean, self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        mean_b = self._reshape_stats(mean, x.ndim)
        inv_b = self._reshape_stats(inv_std, x.ndim)
        norm = (x - mean_b) * inv_b
        self._cache = (norm, inv_std, x.ndim)
        w = self._reshape_stats(self.weight.data, x.ndim)
        b = self._reshape_stats(self.bias.data, x.ndim)
        return norm * w + b

    def backward(self, grad: np.ndarray) -> np.ndarray:
        norm, inv_std, ndim = self._cache
        self.weight.accumulate_grad((grad * norm).sum(axis=self._axes))
        self.bias.accumulate_grad(grad.sum(axis=self._axes))
        w = self._reshape_stats(self.weight.data, ndim)
        g = grad * w
        count = norm.size // self.num_features
        mean_g = self._reshape_stats(g.sum(axis=self._axes) / count, ndim)
        mean_gn = self._reshape_stats((g * norm).sum(axis=self._axes) / count, ndim)
        inv_b = self._reshape_stats(inv_std, ndim)
        return (g - mean_g - norm * mean_gn) * inv_b


class BatchNorm1d(_BatchNormBase):
    """Batch normalization over (B, C) inputs."""

    _axes = (0,)


class BatchNorm2d(_BatchNormBase):
    """Batch normalization over (B, C, H, W) inputs."""

    _axes = (0, 2, 3)


class Dropout(Module):
    """Inverted dropout; identity in eval mode."""

    def __init__(self, p: float = 0.1, *, rng: np.random.Generator | None = None):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self.rng = rng or np.random.default_rng(0)
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.training or self.p <= 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.p
        self._mask = (self.rng.random(x.shape) < keep).astype(np.float32) / keep
        return x * self._mask

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad
        return grad * self._mask


class ReLU(Module):
    def __init__(self):
        super().__init__()
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        return F.relu(x)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return F.relu_backward(grad, self._x)


class GELU(Module):
    """GELU; keeps the forward's tanh so backward evaluates no transcendental."""

    def __init__(self):
        super().__init__()
        self._x: np.ndarray | None = None
        self._t: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x, self._t = x, F.gelu_tanh(x)
        return F.gelu(x, self._t)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return F.gelu_backward(grad, self._x, self._t)


class Tanh(Module):
    def __init__(self):
        super().__init__()
        self._out: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._out = F.tanh(x)
        return self._out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return F.tanh_backward(grad, self._out)


class Conv2d(Module):
    """2-D convolution over (B, C, H, W) via im2col."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        *,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        fan_in = in_channels * kernel_size * kernel_size
        self.weight = self.register_parameter(
            "weight",
            Parameter(
                _kaiming_uniform(
                    fan_in, (out_channels, in_channels, kernel_size, kernel_size), rng
                )
            ),
        )
        self.bias = None
        if bias:
            self.bias = self.register_parameter(
                "bias", Parameter(np.zeros(out_channels, dtype=np.float32))
            )
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        k = self.kernel_size
        cols, out_h, out_w = F.im2col(x, k, k, self.stride, self.padding)
        w_mat = self.weight.data.reshape(self.out_channels, -1)
        out = np.einsum("oc,bcl->bol", w_mat, cols, optimize=True)
        if self.bias is not None:
            out = out + self.bias.data[None, :, None]
        self._cache = (x.shape, cols, out_h, out_w)
        return out.reshape(x.shape[0], self.out_channels, out_h, out_w)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        x_shape, cols, out_h, out_w = self._cache
        k = self.kernel_size
        grad_mat = grad.reshape(grad.shape[0], self.out_channels, out_h * out_w)
        w_grad = np.einsum("bol,bcl->oc", grad_mat, cols, optimize=True)
        self.weight.accumulate_grad(w_grad.reshape(self.weight.data.shape))
        if self.bias is not None:
            self.bias.accumulate_grad(grad_mat.sum(axis=(0, 2)))
        w_mat = self.weight.data.reshape(self.out_channels, -1)
        col_grad = np.einsum("oc,bol->bcl", w_mat, grad_mat, optimize=True)
        return F.col2im(col_grad, x_shape, k, k, self.stride, self.padding)


class MaxPool2d(Module):
    """Non-overlapping max pooling with ``kernel_size == stride``."""

    def __init__(self, kernel_size: int):
        super().__init__()
        self.kernel_size = kernel_size
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        k = self.kernel_size
        batch, channels, height, width = x.shape
        if height % k or width % k:
            raise ValueError(f"input {height}x{width} not divisible by pool size {k}")
        view = x.reshape(batch, channels, height // k, k, width // k, k)
        out = view.max(axis=(3, 5))
        mask = view == out[:, :, :, None, :, None]
        self._cache = (mask, x.shape)
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        mask, x_shape = self._cache
        k = self.kernel_size
        expanded = grad[:, :, :, None, :, None] * mask
        return expanded.reshape(x_shape)


class GlobalAvgPool2d(Module):
    """Mean over spatial dimensions: (B, C, H, W) -> (B, C)."""

    def __init__(self):
        super().__init__()
        self._shape: tuple | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        return x.mean(axis=(2, 3))

    def backward(self, grad: np.ndarray) -> np.ndarray:
        _, _, height, width = self._shape
        scale = 1.0 / (height * width)
        return np.broadcast_to(
            grad[:, :, None, None] * scale, self._shape
        ).astype(np.float32, copy=True)


class Flatten(Module):
    """Flatten all but the batch dimension."""

    def __init__(self):
        super().__init__()
        self._shape: tuple | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return grad.reshape(self._shape)


class Residual(Module):
    """Residual wrapper: ``y = x + inner(x)``."""

    def __init__(self, inner: Module):
        super().__init__()
        self.inner = inner

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x + self.inner(x)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return grad + self.inner.backward(grad)
