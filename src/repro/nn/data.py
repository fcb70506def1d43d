"""Synthetic datasets standing in for ImageNet, WikiText and SQuAD.

Each dataset is deterministic given a seed, infinitely samplable, and
*learnable*: models trained on it converge to a stable optimum, so the
"accuracy gap vs uncompressed baseline" measured in the Table 3
reproduction is meaningful.  See DESIGN.md §2 for the substitution
rationale.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "SyntheticVectors",
    "SyntheticImages",
    "MarkovText",
    "SyntheticQA",
]

#: every dataset's held-out set is drawn from this seed, apart from
#: the training stream's
EVAL_SEED = 10_000


class SyntheticVectors:
    """Gaussian-mixture vector classification (for MLPs)."""

    def __init__(
        self,
        num_classes: int = 10,
        dim: int = 32,
        noise: float = 0.8,
        seed: int = 0,
    ):
        self.num_classes = num_classes
        self.dim = dim
        self.noise = noise
        rng = np.random.default_rng(seed)
        self.prototypes = rng.normal(size=(num_classes, dim)).astype(np.float32)

    def sample(
        self, batch_size: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        labels = rng.integers(0, self.num_classes, size=batch_size)
        noise = rng.normal(scale=self.noise, size=(batch_size, self.dim))
        x = self.prototypes[labels] + noise.astype(np.float32)
        return x.astype(np.float32), labels

    def eval_set(self, n: int):
        return self.sample(n, np.random.default_rng(EVAL_SEED))


class SyntheticImages:
    """Gaussian-mixture image classification (ImageNet stand-in).

    Class prototypes are smooth low-frequency images; samples add pixel
    noise and a random brightness shift, so conv models must learn
    spatially structured features.
    """

    def __init__(
        self,
        num_classes: int = 10,
        channels: int = 3,
        image_size: int = 16,
        noise: float = 0.5,
        seed: int = 0,
    ):
        self.num_classes = num_classes
        self.channels = channels
        self.image_size = image_size
        self.noise = noise
        rng = np.random.default_rng(seed)
        coarse = rng.normal(size=(num_classes, channels, 4, 4))
        reps = image_size // 4
        self.prototypes = np.kron(coarse, np.ones((1, 1, reps, reps))).astype(
            np.float32
        )

    def sample(
        self, batch_size: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        labels = rng.integers(0, self.num_classes, size=batch_size)
        x = self.prototypes[labels].copy()
        x += rng.normal(scale=self.noise, size=x.shape).astype(np.float32)
        x += rng.normal(scale=0.1, size=(batch_size, 1, 1, 1)).astype(np.float32)
        return x, labels

    def eval_set(self, n: int):
        return self.sample(n, np.random.default_rng(EVAL_SEED))


class MarkovText:
    """Order-2 Markov token stream (WikiText stand-in).

    A fixed random sparse transition table maps each token bigram to a
    skewed next-token distribution; language models reduce perplexity by
    learning the table.
    """

    def __init__(
        self,
        vocab_size: int = 64,
        seq_len: int = 32,
        branching: int = 4,
        seed: int = 0,
    ):
        self.vocab_size = vocab_size
        self.seq_len = seq_len
        rng = np.random.default_rng(seed)
        # successors[a, b] -> `branching` candidate next tokens for bigram (a, b)
        self.successors = rng.integers(
            0, vocab_size, size=(vocab_size, vocab_size, branching)
        )
        raw = rng.dirichlet(np.full(branching, 0.4), size=(vocab_size, vocab_size))
        self.probs = raw.astype(np.float64)

    def _roll(self, a: np.ndarray, b: np.ndarray, rng: np.random.Generator):
        probs = self.probs[a, b]
        cumulative = np.cumsum(probs, axis=-1)
        draws = rng.random(size=(a.shape[0], 1))
        idx = (draws > cumulative).sum(axis=-1)
        return self.successors[a, b, idx]

    def sample(
        self, batch_size: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(tokens, next_tokens)`` each of shape (B, seq_len)."""
        stream = np.empty((batch_size, self.seq_len + 1), dtype=np.int64)
        stream[:, 0] = rng.integers(0, self.vocab_size, size=batch_size)
        stream[:, 1] = rng.integers(0, self.vocab_size, size=batch_size)
        for t in range(2, self.seq_len + 1):
            stream[:, t] = self._roll(stream[:, t - 2], stream[:, t - 1], rng)
        return stream[:, :-1], stream[:, 1:]

    def eval_set(self, n: int):
        return self.sample(n, np.random.default_rng(EVAL_SEED))


class SyntheticQA:
    """Span extraction over token sequences (SQuAD stand-in).

    Sequences are random tokens with one answer span delimited by two
    reserved marker tokens; the model must output the span boundaries.
    """

    BEGIN = 1
    END = 2

    def __init__(self, vocab_size: int = 64, seq_len: int = 32, seed: int = 0):
        if vocab_size < 8:
            raise ValueError("vocab_size must be at least 8")
        self.vocab_size = vocab_size
        self.seq_len = seq_len
        del seed  # no fixed structure beyond the marker convention

    def sample(
        self, batch_size: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(tokens, starts, ends)``."""
        tokens = rng.integers(3, self.vocab_size, size=(batch_size, self.seq_len))
        starts = rng.integers(1, self.seq_len - 3, size=batch_size)
        lengths = rng.integers(1, 3, size=batch_size)
        ends = np.minimum(starts + lengths, self.seq_len - 1)
        rows = np.arange(batch_size)
        tokens[rows, starts] = self.BEGIN
        tokens[rows, ends] = self.END
        return tokens, starts, ends

    def eval_set(self, n: int):
        return self.sample(n, np.random.default_rng(EVAL_SEED))
