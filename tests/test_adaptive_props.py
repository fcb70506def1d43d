"""Property tests for the adaptive solvers (hypothesis).

The plan certifier (``repro.analysis.plans``) proves the budget and
structural invariants over a *fixed* seeded battery; these properties
hammer the same invariants over hypothesis-generated instances spanning
sizes 1..10^7, zero-norm layers, and single-layer models — the corners
a fixed battery can only sample.
"""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (ASSIGNERS, LayerStat, brute_force_assign,
                        certify_assignment, exact_assignment_error_sq,
                        exact_uniform_error_sq)
from repro.core.adaptive import BITWIDTHS


@st.composite
def layer_stats(draw):
    """A random instance: 1..12 layers, sizes 1..10^7, norms >= 0.

    Zero norms (dead layers) are generated explicitly — they are the
    degenerate corner where greedy error/byte trade-offs divide by zero
    if implemented carelessly.
    """
    count = draw(st.integers(min_value=1, max_value=12))
    stats = []
    for i in range(count):
        exponent = draw(st.floats(min_value=0.0, max_value=7.0))
        numel = max(1, int(10 ** exponent))
        norm = draw(st.one_of(
            st.just(0.0),
            st.floats(min_value=1e-6, max_value=1e3,
                      allow_nan=False, allow_infinity=False)))
        stats.append(LayerStat(f"layer{i}", numel, norm))
    return stats


ALPHAS = st.sampled_from((1.2, 1.5, 2.0, 3.0, 5.0))


@pytest.mark.parametrize("method", sorted(ASSIGNERS))
@given(stats=layer_stats(), alpha=ALPHAS)
@settings(max_examples=40, deadline=None)
def test_assigners_respect_exact_budget(method, stats, alpha):
    bits = ASSIGNERS[method](stats, alpha=alpha)
    assert certify_assignment(stats, bits, alpha)


@pytest.mark.parametrize("method", sorted(ASSIGNERS))
@given(stats=layer_stats(), alpha=ALPHAS)
@settings(max_examples=40, deadline=None)
def test_assigners_cover_layers_with_ladder_widths(method, stats, alpha):
    bits = ASSIGNERS[method](stats, alpha=alpha)
    assert set(bits) == {s.name for s in stats}
    assert set(bits.values()) <= set(BITWIDTHS)


@pytest.mark.parametrize("method", sorted(ASSIGNERS))
@given(alpha=ALPHAS,
       numel=st.integers(min_value=1, max_value=10_000_000),
       norm=st.floats(min_value=0.0, max_value=1e3,
                      allow_nan=False, allow_infinity=False))
@settings(max_examples=40, deadline=None)
def test_single_layer_instances(method, alpha, numel, norm):
    stats = [LayerStat("only", numel, norm)]
    bits = ASSIGNERS[method](stats, alpha=alpha)
    assert set(bits) == {"only"}
    assert bits["only"] in BITWIDTHS
    assert certify_assignment(stats, bits, alpha)


# -- exact arithmetic: the grouped / integer forms equal the definition --------

def rel_err_sq(bits):
    """Test-local squared relative error: the calibrated 1.12 / levels."""
    return (Fraction(1.12) / (2 ** (bits - 1) - 1)) ** 2


def per_layer_error_sq(stats, bits):
    return sum((Fraction(s.grad_norm) ** 2 * rel_err_sq(bits[s.name])
                for s in stats), Fraction(0))


NORMS = st.one_of(
    st.just(0.0),
    st.sampled_from((5e-324, 2.2250738585072014e-308, 1e-300, 1e300,
                     1.7976931348623157e308)),
    st.floats(min_value=0.0, max_value=1e300,
              allow_nan=False, allow_infinity=False))
WIDTHS = st.sampled_from((2, 3, 4, 5, 6, 7, 8))


@st.composite
def assigned_stats(draw, max_layers=24):
    count = draw(st.integers(min_value=0, max_value=max_layers))
    stats = [LayerStat(f"layer{i}", draw(st.integers(1, 10**7)), draw(NORMS))
             for i in range(count)]
    return stats, {s.name: draw(WIDTHS) for s in stats}


@given(case=assigned_stats())
@settings(max_examples=80, deadline=None)
def test_grouped_error_sum_equals_per_layer_sum(case):
    stats, bits = case
    assert exact_assignment_error_sq(stats, bits) == \
        per_layer_error_sq(stats, bits)
    for width in (2, 4, 8):
        assert exact_uniform_error_sq(stats, width) == per_layer_error_sq(
            stats, {s.name: width for s in stats})


@given(case=assigned_stats(), alpha=ALPHAS, reference=WIDTHS)
@settings(max_examples=80, deadline=None)
def test_certify_assignment_decides_as_per_layer_sums(case, alpha, reference):
    stats, bits = case
    budget = Fraction(alpha) ** 2 * per_layer_error_sq(
        stats, {s.name: reference for s in stats})
    assert certify_assignment(stats, bits, alpha, reference) == \
        (per_layer_error_sq(stats, bits) <= budget)


def exhaustive_optimum(stats, ladder, alpha):
    """Every assignment, in the search order of ``brute_force_assign``
    (largest layers first, narrow widths first): the first feasible one
    of minimal cost."""
    order = sorted(stats, key=lambda s: -s.numel)
    budget = Fraction(alpha) ** 2 * per_layer_error_sq(
        stats, {s.name: 4 for s in stats})
    options = [[(width * s.numel, Fraction(s.grad_norm) ** 2
                 * rel_err_sq(width)) for width in ladder] for s in order]
    # integers over a common denominator keep 4^8 sums fast
    scale = math.lcm(budget.denominator, *(err.denominator for row in options
                                           for _, err in row))
    options = [[(cost, int(err * scale)) for cost, err in row]
               for row in options]
    budget = int(budget * scale)
    best, best_cost = [len(ladder) - 1] * len(order), None
    for choice in itertools.product(range(len(ladder)), repeat=len(order)):
        cost = err = 0
        for row, level in zip(options, choice):
            cost += row[level][0]
            err += row[level][1]
        if err <= budget and (best_cost is None or cost < best_cost):
            best, best_cost = choice, cost
    return {s.name: ladder[level] for s, level in zip(order, best)}


@st.composite
def small_instances(draw):
    """1..8 layers; repeated sizes and norms make tied optima common."""
    sizes = st.one_of(st.sampled_from((1, 100, 4096)),
                      st.integers(min_value=1, max_value=10**7))
    norms = st.one_of(st.sampled_from((1.0, 3.0)), NORMS)
    return [LayerStat(f"layer{i}", draw(sizes), draw(norms))
            for i in range(draw(st.integers(min_value=1, max_value=8)))]


@given(stats=small_instances(), alpha=ALPHAS,
       ladder=st.sampled_from(((2, 3, 4, 8), (2, 4, 8), (3, 5, 7), (2, 8))))
@settings(max_examples=30, deadline=None)
def test_brute_force_equals_exhaustive_enumeration(stats, alpha, ladder):
    assert brute_force_assign(stats, bitwidths=ladder, alpha=alpha) == \
        exhaustive_optimum(stats, ladder, alpha)
