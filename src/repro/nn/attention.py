"""Multi-head self-attention and transformer blocks.

These power the scaled-down Transformer-XL-style language model, the
ViT-style classifier and the BERT-style QA model used in the accuracy
experiments (paper Table 3, Figure 4).
"""

from __future__ import annotations

import math

import numpy as np

from . import functional as F
from .layers import Dropout, GELU, LayerNorm, Linear
from .module import Module

__all__ = ["MultiHeadSelfAttention", "TransformerBlock"]


class MultiHeadSelfAttention(Module):
    """Standard scaled dot-product self-attention over (B, T, D) inputs.

    Args:
        dim: model width; must divide evenly by ``num_heads``.
        num_heads: number of attention heads.
        causal: apply an autoregressive mask (used by language models).
    """

    def __init__(
        self,
        dim: int,
        num_heads: int,
        causal: bool = False,
        *,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        if dim % num_heads:
            raise ValueError(f"dim {dim} not divisible by num_heads {num_heads}")
        self.dim = dim
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.causal = causal
        rng = rng or np.random.default_rng(0)
        self.qkv = Linear(dim, 3 * dim, rng=rng)
        self.proj = Linear(dim, dim, rng=rng)
        self._cache: tuple | None = None

    def _split_heads(self, x: np.ndarray) -> np.ndarray:
        batch, seq, _ = x.shape
        return x.reshape(batch, seq, self.num_heads, self.head_dim).transpose(
            0, 2, 1, 3
        )

    def _merge_heads(self, x: np.ndarray) -> np.ndarray:
        batch, _, seq, _ = x.shape
        return x.transpose(0, 2, 1, 3).reshape(batch, seq, self.dim)

    def forward(self, x: np.ndarray) -> np.ndarray:
        qkv = self.qkv(x)
        q, k, v = np.split(qkv, 3, axis=-1)
        q, k, v = self._split_heads(q), self._split_heads(k), self._split_heads(v)
        scale = 1.0 / math.sqrt(self.head_dim)   # a Python float keeps float32
        scores = np.einsum("bhqd,bhkd->bhqk", q, k, optimize=True) * scale
        if self.causal:
            seq = x.shape[1]
            mask = np.triu(np.ones((seq, seq), dtype=bool), k=1)
            scores = np.where(mask, -1e9, scores)
        attn = F.softmax(scores, axis=-1)
        out_heads = np.einsum("bhqk,bhkd->bhqd", attn, v, optimize=True)
        self._cache = (q, k, v, attn, scale)
        return self.proj(self._merge_heads(out_heads))

    def backward(self, grad: np.ndarray) -> np.ndarray:
        assert self._cache is not None, "backward before forward"
        q, k, v, attn, scale = self._cache
        grad_merged = self.proj.backward(grad)
        grad_heads = self._split_heads(grad_merged)
        grad_attn = np.einsum("bhqd,bhkd->bhqk", grad_heads, v, optimize=True)
        grad_v = np.einsum("bhqk,bhqd->bhkd", attn, grad_heads, optimize=True)
        grad_scores = F.softmax_backward(grad_attn, attn, axis=-1) * scale
        grad_q = np.einsum("bhqk,bhkd->bhqd", grad_scores, k, optimize=True)
        grad_k = np.einsum("bhqk,bhqd->bhkd", grad_scores, q, optimize=True)
        grad_qkv = np.concatenate(
            [self._merge_heads(grad_q), self._merge_heads(grad_k),
             self._merge_heads(grad_v)],
            axis=-1,
        )
        return self.qkv.backward(grad_qkv)


class TransformerBlock(Module):
    """Pre-LN transformer block: LN -> MHSA -> add, LN -> MLP -> add."""

    def __init__(
        self,
        dim: int,
        num_heads: int,
        mlp_ratio: int = 4,
        causal: bool = False,
        dropout: float = 0.0,
        *,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.ln1 = LayerNorm(dim)
        self.attn = MultiHeadSelfAttention(dim, num_heads, causal=causal, rng=rng)
        self.ln2 = LayerNorm(dim)
        self.fc1 = Linear(dim, mlp_ratio * dim, rng=rng)
        self.act = GELU()
        self.fc2 = Linear(mlp_ratio * dim, dim, rng=rng)
        self.drop = Dropout(dropout, rng=rng)

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = x + self.attn(self.ln1(x))
        x = x + self.drop(self.fc2(self.act(self.fc1(self.ln2(x)))))
        return x

    def backward(self, grad: np.ndarray) -> np.ndarray:
        mlp_grad = self.drop.backward(grad)
        mlp_grad = self.fc1.backward(self.act.backward(self.fc2.backward(mlp_grad)))
        grad = grad + self.ln2.backward(mlp_grad)
        attn_grad = self.attn.backward(grad)
        return grad + self.ln1.backward(attn_grad)
