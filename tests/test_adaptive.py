"""Tests for adaptive layer-wise compression (Algorithm 1 and friends)."""

import numpy as np
import pytest

from repro.compression import CompressionSpec, make_compressor
from repro.core import (
    ASSIGNERS,
    AdaptiveController,
    CGXConfig,
    LayerStat,
    assignment_error,
    assignment_wire_fraction,
    bayes_assign,
    estimate_relative_error,
    kmeans_assign,
    linear_assign,
    uniform_error,
)


def txl_like_stats():
    """Layer statistics shaped like Transformer-XL: one huge insensitive
    embedding, a blob of medium matrices, a few small sensitive layers."""
    rng = np.random.default_rng(0)
    stats = [LayerStat("embed", 137_000_000,
                       0.25 * float(np.sqrt(0.01 * 137e6)))]
    for i in range(32):
        n = 786_432
        stats.append(LayerStat(f"mat{i}", n, float(np.sqrt(0.01 * n))
                               * (1.0 + 0.05 * rng.random())))
    for i in range(8):
        stats.append(LayerStat(f"small{i}", 2048,
                               2.0 * float(np.sqrt(0.01 * 2048))))
    return stats


# -- error model ------------------------------------------------------------------

def test_error_model_constant_matches_measured_qsgd():
    """The analytic rel_err(b) = C/(2^(b-1)-1) must track the actual
    operator within ~15% — the adaptive solvers rely on it."""
    rng = np.random.default_rng(1)
    x = rng.normal(size=65_536).astype(np.float32)
    for bits in [3, 4, 6, 8]:
        comp = make_compressor(
            CompressionSpec("qsgd", bits=bits, bucket_size=128))
        restored = comp.roundtrip(x, np.random.default_rng(0))
        measured = float(np.linalg.norm(x - restored) / np.linalg.norm(x))
        predicted = estimate_relative_error(bits)
        assert measured == pytest.approx(predicted, rel=0.15), bits


def test_estimate_relative_error_monotone():
    errs = [estimate_relative_error(b) for b in range(2, 9)]
    assert errs == sorted(errs, reverse=True)
    with pytest.raises(ValueError):
        estimate_relative_error(1)


def test_uniform_error_definition():
    stats = txl_like_stats()
    bits = {s.name: 4 for s in stats}
    assert uniform_error(stats, 4) == pytest.approx(
        assignment_error(stats, bits))


# -- assignment algorithms -----------------------------------------------------------

@pytest.mark.parametrize("assigner", list(ASSIGNERS.values()),
                         ids=list(ASSIGNERS))
def test_assignments_respect_error_budget(assigner):
    stats = txl_like_stats()
    for alpha in [1.5, 2.0, 3.0]:
        bits = assigner(stats, alpha=alpha)
        assert set(bits) == {s.name for s in stats}
        assert assignment_error(stats, bits) <= alpha * uniform_error(stats, 4) \
            * (1 + 1e-9)


@pytest.mark.parametrize("assigner", list(ASSIGNERS.values()),
                         ids=list(ASSIGNERS))
def test_assignments_never_worse_than_static(assigner):
    stats = txl_like_stats()
    bits = assigner(stats, alpha=2.0)
    assert assignment_wire_fraction(stats, bits) <= 1.0 + 1e-9


def test_kmeans_compresses_the_embedding_hardest():
    """Algorithm 1's headline behaviour: large low-sensitivity layers
    (embeddings) get the lowest bit-widths."""
    stats = txl_like_stats()
    bits = kmeans_assign(stats, alpha=3.0)
    assert bits["embed"] <= min(bits[f"mat{i}"] for i in range(32))
    assert bits["embed"] <= 3


def test_kmeans_saves_bandwidth():
    stats = txl_like_stats()
    frac = assignment_wire_fraction(stats, kmeans_assign(stats, alpha=3.0))
    assert frac < 0.8  # paper Table 7: 0.68 for TXL


def test_kmeans_beats_linear_on_compression():
    """Table 7 ordering: kmeans >= bayes > linear in achieved savings."""
    stats = txl_like_stats()
    k = assignment_wire_fraction(stats, kmeans_assign(stats, alpha=2.5))
    l = assignment_wire_fraction(stats, linear_assign(stats, alpha=2.5))
    assert k <= l + 1e-9


def test_bayes_deterministic_given_seed():
    stats = txl_like_stats()
    a = bayes_assign(stats, alpha=2.0, seed=3)
    b = bayes_assign(stats, alpha=2.0, seed=3)
    assert a == b


def test_empty_stats():
    for assigner in ASSIGNERS.values():
        assert assigner([], alpha=2.0) == {}


def test_assignments_use_allowed_bitwidths_only():
    from repro.core.adaptive import BITWIDTHS

    stats = txl_like_stats()
    for assigner in ASSIGNERS.values():
        bits = assigner(stats, alpha=2.0)
        assert set(bits.values()) <= set(BITWIDTHS)


def test_small_sensitive_layers_get_high_bits_under_kmeans():
    stats = txl_like_stats()
    bits = kmeans_assign(stats, alpha=3.0)
    small_bits = [bits[f"small{i}"] for i in range(8)]
    assert min(small_bits) >= bits["embed"]


# -- controller -----------------------------------------------------------------

def fake_grads(rng):
    return {
        "embed.weight": rng.normal(scale=0.01,
                                   size=(2000, 16)).astype(np.float32),
        "fc.weight": rng.normal(size=(64, 64)).astype(np.float32),
        "fc.bias": rng.normal(size=64).astype(np.float32),
    }


def test_controller_reassigns_on_period():
    config = CGXConfig.cgx_default()
    controller = AdaptiveController(config, method="kmeans", period=3)
    rng = np.random.default_rng(0)
    assert not controller.observe(fake_grads(rng))
    assert not controller.observe(fake_grads(rng))
    assert controller.observe(fake_grads(rng))  # period hit
    assert controller.reassign_count == 1
    assert "embed.weight" in config.per_layer
    spec = config.per_layer["embed.weight"]
    assert spec.method == "qsgd"


def test_controller_skips_filtered_layers():
    config = CGXConfig.cgx_default()
    controller = AdaptiveController(config, period=1)
    rng = np.random.default_rng(1)
    controller.observe(fake_grads(rng))
    assert "fc.bias" not in controller.assignments
    assert "fc.bias" not in config.per_layer


def test_controller_clears_accumulators_after_reassign():
    config = CGXConfig.cgx_default()
    controller = AdaptiveController(config, period=1)
    controller.observe(fake_grads(np.random.default_rng(2)))
    assert not controller._accumulated


def test_controller_unknown_method():
    with pytest.raises(KeyError):
        AdaptiveController(CGXConfig.cgx_default(), method="simulated-annealing")


def test_controller_bucket_sizes_follow_bits():
    config = CGXConfig.cgx_default()
    controller = AdaptiveController(config, period=1, method="kmeans")
    controller.observe(fake_grads(np.random.default_rng(3)))
    for name, bits in controller.assignments.items():
        spec = config.per_layer[name]
        assert spec.bits == bits


# -- exact certification hooks (plan-certifier substrate) ---------------------

def test_exact_certification_agrees_with_float_budget():
    from repro.core import certify_assignment

    stats = txl_like_stats()
    for method, assign in ASSIGNERS.items():
        for alpha in (1.5, 2.0, 3.0):
            bits = assign(stats, alpha=alpha)
            assert certify_assignment(stats, bits, alpha), (method, alpha)


def test_exact_uniform_error_matches_float_model():
    from fractions import Fraction

    from repro.core import exact_uniform_error_sq

    stats = txl_like_stats()
    exact = exact_uniform_error_sq(stats, 4)
    approx = Fraction(uniform_error(stats, 4)) ** 2
    assert abs(float(exact - approx)) / float(exact) < 1e-9


def test_exact_relative_error_rejects_degenerate_bits():
    from repro.core import exact_relative_error_sq

    with pytest.raises(ValueError):
        exact_relative_error_sq(1)


# -- brute force --------------------------------------------------------------

def test_brute_force_beats_or_matches_every_heuristic():
    from repro.core import assignment_cost_bits, brute_force_assign

    stats = txl_like_stats()[:10]
    for alpha in (1.5, 2.0, 3.0):
        optimum = brute_force_assign(stats, alpha=alpha)
        opt_cost = assignment_cost_bits(stats, optimum)
        for method, assign in ASSIGNERS.items():
            cost = assignment_cost_bits(stats, assign(stats, alpha=alpha))
            assert opt_cost <= cost, (method, alpha)


def test_brute_force_optimum_is_feasible():
    from repro.core import brute_force_assign, certify_assignment

    stats = txl_like_stats()[:8]
    optimum = brute_force_assign(stats, alpha=1.5)
    assert certify_assignment(stats, optimum, 1.5)


def test_brute_force_rejects_oversized_instances():
    from repro.core import brute_force_assign

    stats = [LayerStat(f"l{i}", 100, 1.0) for i in range(17)]
    with pytest.raises(ValueError):
        brute_force_assign(stats, max_layers=16)


def test_brute_force_matches_exhaustive_enumeration():
    from itertools import product

    from repro.core import (assignment_cost_bits, brute_force_assign,
                            certify_assignment)

    rng = np.random.default_rng(11)
    stats = [LayerStat(f"l{i}", int(rng.integers(100, 100_000)),
                       float(rng.uniform(0.1, 5.0))) for i in range(5)]
    widths = (2, 4, 8)
    best, best_cost = None, None
    for combo in product(widths, repeat=len(stats)):
        bits = {s.name: b for s, b in zip(stats, combo)}
        if not certify_assignment(stats, bits, 2.0):
            continue
        cost = assignment_cost_bits(stats, bits)
        if best_cost is None or cost < best_cost:
            best, best_cost = bits, cost
    fast = brute_force_assign(stats, bitwidths=widths, alpha=2.0)
    assert assignment_cost_bits(stats, fast) == best_cost


# -- bits -> bucket resolution ------------------------------------------------

def test_resolve_bucket_known_widths_match_table():
    from repro.core import resolve_bucket
    from repro.core.adaptive import BUCKET_FOR_BITS

    for bits, bucket in BUCKET_FOR_BITS.items():
        assert resolve_bucket(bits) == bucket


def test_resolve_bucket_falls_back_to_nearest_defined():
    from repro.core import resolve_bucket

    assert resolve_bucket(7) == 512   # nearest defined is 8 (ties widen)
    assert resolve_bucket(10) == 512  # above the table: clamp to widest


def test_resolve_bucket_rejects_degenerate_bits():
    from repro.core import resolve_bucket

    for bits in (0, 1, -3):
        with pytest.raises(ValueError, match="quantization levels"):
            resolve_bucket(bits)


def test_finalize_rejects_sub_two_bit_assignments():
    from repro.core.adaptive import _finalize

    stats = txl_like_stats()[:4]
    with pytest.raises(ValueError, match="2-bit floor"):
        _finalize(stats, {s.name: 1 for s in stats}, 2.0)


def test_controller_buckets_resolve_for_every_default_width():
    from repro.core import resolve_bucket
    from repro.core.adaptive import BITWIDTHS

    for bits in BITWIDTHS:
        bucket = resolve_bucket(bits)
        CompressionSpec("qsgd", bits=bits, bucket_size=bucket)
