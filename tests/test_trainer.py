"""Tests for the data-parallel trainer, tasks, recipes and metrics."""

import numpy as np
import pytest

from repro.core import AdaptiveController, CGXConfig
from repro.nn import build_model
from repro.training import (
    DataParallelTrainer,
    RECIPES,
    get_recipe,
    lm_perplexity,
    make_task,
    span_f1,
    top1_accuracy,
    train_family,
)


# -- metrics ---------------------------------------------------------------------

def test_top1_accuracy_on_perfect_model():
    class Oracle:
        def eval(self):
            return self

        def train(self, mode=True):
            return self

        def __call__(self, x):
            logits = np.zeros((len(x), 3))
            logits[np.arange(len(x)), x.astype(int)] = 1.0
            return logits

    x = np.array([0, 1, 2, 1])
    assert top1_accuracy(Oracle(), x, x) == 1.0
    assert top1_accuracy(Oracle(), x, np.array([1, 1, 1, 1])) == 0.5


def test_span_f1_exact_and_partial():
    class SpanModel:
        def __init__(self, starts, ends, seq):
            self.starts, self.ends, self.seq = starts, ends, seq

        def eval(self):
            return self

        def train(self, mode=True):
            return self

        def __call__(self, tokens):
            logits = np.full((len(tokens), self.seq, 2), -10.0)
            for i, (s, e) in enumerate(zip(self.starts, self.ends)):
                logits[i, s, 0] = 10.0
                logits[i, e, 1] = 10.0
            return logits

    tokens = np.zeros((2, 8))
    model = SpanModel([2, 4], [3, 6], 8)
    # exact matches -> F1 = 1
    assert span_f1(model, tokens, np.array([2, 4]), np.array([3, 6])) == 1.0
    # half-overlapping span -> F1 between 0 and 1
    partial = span_f1(model, tokens, np.array([3, 4]), np.array([4, 6]))
    assert 0.0 < partial < 1.0
    # inverted prediction scores zero
    inverted = SpanModel([5, 5], [2, 2], 8)
    assert span_f1(inverted, tokens, np.array([1, 1]),
                   np.array([2, 2])) == 0.0


def test_lm_perplexity_uniform_model():
    class Uniform:
        def eval(self):
            return self

        def train(self, mode=True):
            return self

        def __call__(self, tokens):
            return np.zeros(tokens.shape + (16,))

    tokens = np.zeros((2, 4), dtype=np.int64)
    ppl = lm_perplexity(Uniform(), tokens, tokens)
    assert ppl == pytest.approx(16.0, rel=1e-3)


# -- tasks / recipes --------------------------------------------------------------

def test_recipes_cover_all_families():
    assert set(RECIPES) >= {"resnet50", "vgg16", "vit", "transformer_xl",
                            "gpt2", "bert", "mlp"}


def test_recipe_bucket_sizes_match_paper():
    """Section 6.1: 1024 for CNNs, 128 for Transformers."""
    assert get_recipe("resnet50").bucket_size == 1024
    assert get_recipe("vgg16").bucket_size == 1024
    assert get_recipe("transformer_xl").bucket_size == 128
    assert get_recipe("bert").bucket_size == 128


def test_unknown_recipe():
    with pytest.raises(KeyError):
        get_recipe("resnet18")


@pytest.mark.parametrize("family", ["mlp", "vit", "transformer_xl", "bert"])
def test_task_batches_and_eval(family):
    recipe = get_recipe(family)
    task = make_task(family, batch_size=8, **recipe.kwargs())
    batch = task.sample_batch(np.random.default_rng(0))
    model = task.build_model(0)
    logits = model(batch[0])
    loss, grad = task.loss_and_grad(logits, batch)
    assert np.isfinite(loss)
    assert grad.shape == logits.shape
    metric = task.evaluate(model)
    assert np.isfinite(metric)


def test_unknown_task():
    with pytest.raises(KeyError):
        make_task("segmentation")


# -- trainer ------------------------------------------------------------------------

def test_trainer_learns_and_stays_in_sync():
    result = train_family("mlp", world_size=4,
                          config=CGXConfig.cgx_default(), steps=60,
                          eval_every=30)
    assert result.final_metric > 0.9
    assert result.compression_ratio > 1.5
    assert len(result.history) == 2


def test_compressed_training_matches_baseline_within_tolerance():
    """Table 3 in miniature: 4-bit CGX recovers the baseline metric
    within the paper's 1% band (here: small tolerance on a synthetic
    task)."""
    base = train_family("mlp", world_size=2, config=None, steps=80)
    cgx = train_family("mlp", world_size=2,
                       config=CGXConfig.cgx_default(), steps=80)
    assert abs(base.final_metric - cgx.final_metric) < 0.02


def test_trainer_grad_clipping_path():
    recipe = get_recipe("transformer_xl")
    assert recipe.grad_clip > 0
    result = train_family("transformer_xl", world_size=2,
                          config=CGXConfig.cgx_default(), steps=20,
                          eval_every=20)
    assert np.isfinite(result.final_metric)


def test_trainer_with_adaptive_controller():
    config = CGXConfig.cgx_default()
    task = make_task("mlp", batch_size=16)
    controller = AdaptiveController(config, method="kmeans", period=5)
    trainer = DataParallelTrainer(task, world_size=2, config=config,
                                  recipe=get_recipe("mlp"),
                                  adaptive=controller)
    trainer.train(steps=12, eval_every=12)
    assert controller.reassign_count == 2
    assert trainer.in_sync()


def test_trainer_replicas_identical_after_training():
    task = make_task("mlp", batch_size=16)
    trainer = DataParallelTrainer(task, world_size=3,
                                  config=CGXConfig.cgx_default(),
                                  recipe=get_recipe("mlp"))
    trainer.train(steps=10, eval_every=10)
    assert trainer.in_sync()


def test_trainer_wire_accounting_grows():
    task = make_task("mlp", batch_size=16)
    trainer = DataParallelTrainer(task, world_size=2,
                                  config=CGXConfig.cgx_default(),
                                  recipe=get_recipe("mlp"))
    result = trainer.train(steps=5, eval_every=5)
    assert result.wire_bytes_total > 0
    assert result.steps == 5


@pytest.mark.parametrize("steps", [0, -3])
def test_trainer_rejects_fewer_than_one_step(steps):
    # 0 used to read as "train the recipe's steps" (``steps or ...``)
    task = make_task("mlp", batch_size=16)
    trainer = DataParallelTrainer(task, world_size=2,
                                  config=CGXConfig.cgx_default(),
                                  recipe=get_recipe("mlp"))
    with pytest.raises(ValueError, match="steps"):
        trainer.train(steps=steps)
    assert trainer._step_index == 0
