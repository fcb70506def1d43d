"""End-to-end integration tests crossing subsystem boundaries."""

import numpy as np

from repro.core import (
    AdaptiveController,
    CGXConfig,
    CGXDistributedDataParallel,
    CGXSession,
)
from repro.nn import Adam, build_model
from repro.nn.data import MarkovText
from repro.nn.loss import sequence_cross_entropy
from repro.training import DataParallelTrainer, get_recipe, make_task


def test_session_to_ddp_training_pipeline():
    """The full Listing-1 user journey: configure a session from the
    model layout, exclude sensitive layers, then train data-parallel."""
    model_kwargs = dict(vocab_size=32, max_len=16, dim=16, depth=1,
                        num_heads=2)
    probe = build_model("transformer_xl", seed=0, **model_kwargs)
    session = CGXSession()
    session.register_model([(n, p.numel)
                            for n, p in probe.named_parameters()])
    session.exclude_layer("pos")        # user-chosen extra exclusion
    session.set_quantization_bits(4, bucket_size=128)

    replicas = [build_model("transformer_xl", seed=0, **model_kwargs)
                for _ in range(2)]
    ddp = CGXDistributedDataParallel(replicas, session.config)
    opts = [Adam(r.parameters(), lr=2e-3) for r in replicas]
    data = MarkovText(vocab_size=32, seq_len=16)
    rng = np.random.default_rng(0)
    losses = []
    for _ in range(30):
        for r in replicas:
            r.zero_grad()
            x, y = data.sample(16, rng)
            loss, grad = sequence_cross_entropy(r(x), y)
            r.backward(grad)
        ddp.synchronize()
        for o in opts:
            o.step()
        losses.append(loss)
    assert ddp.check_in_sync()
    assert losses[-1] < losses[0]  # learning happened through compression
    # the user exclusion is honoured in the plan
    from repro.core import LayerInfo

    plan = ddp.engine.plan([LayerInfo(n, p.numel)
                            for n, p in replicas[0].named_parameters()])
    filtered = next(p for p in plan if p.name == "filtered")
    assert any("pos" in l.name for l in filtered.layers)


def test_multinode_hierarchical_training_converges():
    """16 simulated workers over 4 'nodes' with hierarchical reduction."""
    config = CGXConfig.cgx_default()
    config.scheme = "hier"
    task = make_task("mlp", batch_size=8)
    trainer = DataParallelTrainer(task, world_size=8, config=config,
                                  recipe=get_recipe("mlp"))
    trainer.ddp.engine.node_of = [0, 0, 1, 1, 2, 2, 3, 3]
    result = trainer.train(steps=40, eval_every=40)
    assert trainer.in_sync()
    assert result.final_metric > 0.85


def test_adaptive_training_changes_bits_and_keeps_accuracy():
    config = CGXConfig.cgx_default()
    controller = AdaptiveController(config, method="kmeans", period=10,
                                    alpha=2.5)
    task = make_task("mlp", batch_size=16)
    trainer = DataParallelTrainer(task, world_size=2, config=config,
                                  recipe=get_recipe("mlp"),
                                  adaptive=controller)
    result = trainer.train(steps=40, eval_every=40)
    assert controller.reassign_count >= 3
    assert config.per_layer  # per-layer bits were written
    assert result.final_metric > 0.85
    assert trainer.in_sync()


def test_powersgd_end_to_end_training():
    """The engine's PowerSGD (Table 6's config plus error feedback, as
    the CLI runs it) keeps replicas in sync and converges on the MLP
    task."""
    from repro.compression import CompressionSpec
    from repro.nn import SGD
    from repro.nn.data import SyntheticVectors
    from repro.nn.loss import softmax_cross_entropy

    replicas = [build_model("mlp", seed=4) for _ in range(2)]
    ddp = CGXDistributedDataParallel(replicas, CGXConfig(
        compression=CompressionSpec("powersgd", rank=4,
                                    error_feedback=True)))
    opts = [SGD(r.parameters(), lr=0.1, momentum=0.9) for r in replicas]
    data = SyntheticVectors(seed=0)
    rng = np.random.default_rng(5)
    for _ in range(60):
        for r in replicas:
            r.zero_grad()
            x, y = data.sample(32, rng)
            _, grad = softmax_cross_entropy(r(x), y)
            r.backward(grad)
        ddp.synchronize()
        for o in opts:
            o.step()
    xe, ye = data.eval_set(256)
    acc = float((replicas[0](xe).argmax(-1) == ye).mean())
    assert acc > 0.9
    assert ddp.check_in_sync()


def test_scheme_accuracy_equivalence_under_compression():
    """All reduction schemes recover the task; SRA/allgather at least as
    well as ring (error ordering carries to end metrics statistically,
    but all must pass the accuracy bar)."""
    metrics = {}
    for scheme in ["sra", "ring", "allgather"]:
        config = CGXConfig.cgx_default()
        config.scheme = scheme
        task = make_task("mlp", batch_size=16)
        trainer = DataParallelTrainer(task, world_size=2, config=config,
                                      recipe=get_recipe("mlp"), seed=3)
        metrics[scheme] = trainer.train(steps=60,
                                        eval_every=60).final_metric
    assert all(m > 0.9 for m in metrics.values()), metrics
