"""Tests for the QNCCL artifact configuration and the two frontends."""

import numpy as np
import pytest

from repro.core import (
    CGXSession,
    CommunicationEngine,
    EagerFrontend,
    GraphFrontend,
    LayerInfo,
    qnccl_config,
)
from repro.core.qnccl import QNCCL_KERNEL_OVERHEAD_FACTOR, QNCCL_PLAN_MODE
from repro.nn import build_model


def test_qnccl_config_shape():
    config = qnccl_config()
    assert config.scheme == "ring"
    assert config.backend == "nccl"
    assert config.filtered_keywords == ()
    assert config.compression.method == "qsgd"
    assert QNCCL_PLAN_MODE == "fused"
    assert QNCCL_KERNEL_OVERHEAD_FACTOR > 1.0


def test_qnccl_cannot_filter_layers():
    """Transport-level integration has no layer names: norm/bias tensors
    get quantized like everything else."""
    engine = CommunicationEngine(qnccl_config())
    layers = [LayerInfo("fc.weight", 100_000), LayerInfo("bn.weight", 64)]
    plan = engine.plan(layers, mode=QNCCL_PLAN_MODE)
    assert all(p.spec.method == "qsgd" for p in plan)
    member_names = {l.name for p in plan for l in p.layers}
    assert "bn.weight" in member_names


def test_qnccl_buckets_mix_layers_hurting_small_tensors():
    """Quantizing a fused blob shares bucket scales across layers: a tiny
    norm tensor next to a large-magnitude layer sees inflated error
    compared to CGX's layer-wise compression."""
    rng = np.random.default_rng(0)
    big = rng.normal(scale=5.0, size=4096).astype(np.float32)
    small = rng.normal(scale=0.05, size=64).astype(np.float32)

    from repro.compression import CompressionSpec, make_compressor

    comp = make_compressor(CompressionSpec("qsgd", bits=4, bucket_size=128))
    # CGX: small tensor quantized alone
    alone = comp.roundtrip(small, np.random.default_rng(1))
    err_alone = np.linalg.norm(alone - small)
    # QNCCL: small tensor rides in a blob whose bucket ends overlap big
    blob = np.concatenate([big[:96], small])  # shares a bucket with `big`
    blob_restored = comp.roundtrip(blob, np.random.default_rng(1))
    err_blob = np.linalg.norm(blob_restored[96:] - small)
    assert err_blob > 2 * err_alone


# -- frontends ---------------------------------------------------------------

def worker_grads(world=2, seed=0):
    model = build_model("mlp", seed=seed)
    out = []
    for w in range(world):
        rng = np.random.default_rng(seed + w)
        out.append({
            name: rng.normal(size=p.data.shape).astype(np.float32)
            for name, p in model.named_parameters()
        })
    return out


def test_eager_frontend_reduces():
    session = CGXSession()
    frontend = EagerFrontend(session)
    grads = worker_grads()
    reduced, report = frontend.reduce(grads)
    assert report.packages > 0
    assert set(reduced[0]) == set(grads[0])


def test_graph_frontend_requires_capture():
    session = CGXSession()
    frontend = GraphFrontend(session)
    with pytest.raises(RuntimeError):
        frontend.reduce(worker_grads())


def test_graph_frontend_matches_eager_results():
    grads = worker_grads()
    eager = EagerFrontend(CGXSession(), seed=9)
    graph = GraphFrontend(CGXSession(), model=build_model("mlp", seed=0),
                          seed=9)
    reduced_e, _ = eager.reduce(grads)
    reduced_g, _ = graph.reduce(grads)
    for name in reduced_e[0]:
        np.testing.assert_array_equal(reduced_e[0][name], reduced_g[0][name])


def _topk_ef_session():
    from repro.compression import CompressionSpec
    from repro.core import CGXConfig

    return CGXSession(CGXConfig(compression=CompressionSpec(
        "topk", density=0.1, error_feedback=True)))


def test_eager_frontend_keeps_compressor_state_across_steps():
    """A fresh engine per step threw the error-feedback residuals away:
    eager agreed with graph on step 0 and diverged from step 1."""
    eager = EagerFrontend(_topk_ef_session(), seed=9)
    graph = GraphFrontend(_topk_ef_session(),
                          model=build_model("mlp", seed=0), seed=9)
    for step in range(3):
        grads = worker_grads(seed=step)
        reduced_e, _ = eager.reduce(grads)
        reduced_g, _ = graph.reduce(grads)
        for name in reduced_e[0]:
            np.testing.assert_array_equal(reduced_e[0][name],
                                          reduced_g[0][name], err_msg=name)


def test_eager_frontend_follows_session_changes_between_steps():
    from repro.compression import CompressionSpec

    def exact(reduced, name):
        mean = (grads[0][name] + grads[1][name]) / 2
        return np.allclose(reduced[0][name], mean, rtol=1e-6)

    session = _topk_ef_session()
    eager = EagerFrontend(session)
    grads = worker_grads()
    reduced, _ = eager.reduce(grads)
    assert not exact(reduced, "2.weight") and not exact(reduced, "0.weight")
    # an in-place per-layer override, then a replaced config object
    session.set_layer_compression("2.weight", CompressionSpec("none"))
    reduced, _ = eager.reduce(grads)
    assert exact(reduced, "2.weight") and not exact(reduced, "0.weight")
    session.exclude_layer("0.weight")
    reduced, _ = eager.reduce(grads)
    assert exact(reduced, "2.weight") and exact(reduced, "0.weight")


def test_graph_frontend_rejects_layout_change():
    frontend = GraphFrontend(CGXSession(), model=build_model("mlp", seed=0))
    grads = worker_grads()
    for g in grads:
        g["new.layer"] = np.zeros(4, dtype=np.float32)
    with pytest.raises(ValueError):
        frontend.reduce(grads)


def test_graph_frontend_capture_from_layout():
    frontend = GraphFrontend(CGXSession())
    frontend.capture([("a.weight", 100), ("a.bias", 10)])
    grads = [{"a.weight": np.ones(100, dtype=np.float32),
              "a.bias": np.ones(10, dtype=np.float32)}] * 2
    reduced, _ = frontend.reduce(grads)
    assert set(reduced[0]) == {"a.weight", "a.bias"}
