"""Adaptive layer-wise compression (paper Section 5, Algorithm 1).

The *adaptive compression problem*: choose per-layer bit-widths
``b_1..b_L`` minimizing the bandwidth objective ``sum_l b_l * size(L_l)``
subject to the total compression error not exceeding ``alpha * E4``,
where ``E4`` is the error of uniform 4-bit compression (known to recover
accuracy) and ``alpha`` is typically between 1.5 and 3.

Three solvers, as evaluated in Table 7:

* :func:`kmeans_assign` — Algorithm 1: cluster layers by
  ``(size, top-gradient norm)``, sort centroids by ``norm - size``, map
  bit-widths to clusters.  Best compression and speedup in the paper.
* :func:`bayes_assign` — surrogate-based optimization over a threshold
  family (stands in for the paper's Bayesian-optimization attempt,
  which they also found needed instance tuning).
* :func:`linear_assign` — sort by ``norm/size`` and interpolate
  bit-widths linearly.  Simplest, smallest gains.

The error model is calibrated to the QSGD operator in this repository:
max-scaled bucketed stochastic quantization at ``b`` bits has relative
error ``~ 1.12 / (2^(b-1) - 1)`` on dense gradients (measured; see
tests/test_adaptive.py which re-validates the constant).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "LayerStat",
    "estimate_relative_error",
    "assignment_error",
    "uniform_error",
    "assignment_wire_fraction",
    "exact_relative_error_sq",
    "exact_assignment_error_sq",
    "exact_uniform_error_sq",
    "certify_assignment",
    "assignment_cost_bits",
    "brute_force_assign",
    "resolve_bucket",
    "kmeans_assign",
    "linear_assign",
    "bayes_assign",
    "AdaptiveController",
    "ASSIGNERS",
    "synthetic_stats_for_spec",
]

#: calibrated QSGD error constant: rel_err(bits) = _QSGD_C / (2^(bits-1) - 1)
_QSGD_C = 1.12
#: the width ladder every assigner picks from, narrowest first
BITWIDTHS = (2, 3, 4, 8)
#: the reference width: ``E4``, the error of uniform 4-bit compression,
#: sets the budget ``alpha * E4`` and the static size never to exceed
REFERENCE_BITS = 4
#: bucket size paired with each bit-width when re-assigning
BUCKET_FOR_BITS = {2: 64, 3: 128, 4: 128, 5: 256, 6: 256, 8: 512}
#: share of a layer's accumulated-gradient values, largest magnitudes
#: first, whose L2 norm is its ``LayerStat.grad_norm``
_TOP_FRACTION = 0.01


@dataclass(frozen=True)
class LayerStat:
    """Per-layer statistics feeding the adaptive solvers.

    ``grad_norm`` is the L2 norm of the top-magnitude values of the
    accumulated gradient (Algorithm 1 input).
    """

    name: str
    numel: int
    grad_norm: float


def estimate_relative_error(bits: int) -> float:
    """Expected relative QSGD error at a bit-width."""
    levels = 2 ** (bits - 1) - 1
    if levels < 1:
        raise ValueError(f"bits={bits} has no quantization levels")
    return _QSGD_C / levels


def assignment_error(stats: list[LayerStat], bits: dict[str, int]) -> float:
    """Model-wide L2 compression error under a bit assignment."""
    total_sq = 0.0
    for stat in stats:
        err = stat.grad_norm * estimate_relative_error(bits[stat.name])
        total_sq += err * err
    return float(np.sqrt(total_sq))


def uniform_error(stats: list[LayerStat],
                  bits: int = REFERENCE_BITS) -> float:
    """E_b: error when every layer is compressed to ``bits`` bits."""
    return assignment_error(stats, {s.name: bits for s in stats})


def assignment_wire_fraction(stats: list[LayerStat],
                             bits: dict[str, int]) -> float:
    """Compressed size relative to the uniform static assignment."""
    assigned = sum(bits[s.name] * s.numel for s in stats)
    reference = sum(REFERENCE_BITS * s.numel for s in stats)
    return assigned / reference


# -- exact arithmetic --------------------------------------------------------
#
# The float error model above is what the solvers *optimize*; certifying
# that a solution actually satisfies ``error <= alpha * E4`` with float
# spot-checks would inherit their rounding.  The hooks below evaluate the
# same calibrated model over exact rationals: every float input (norms,
# alpha, the calibrated constant) is lifted to its exact binary value via
# ``Fraction``, and the budget comparison is done on *squared* errors so
# no irrational square root ever enters.  ``repro.analysis.plans``
# (rule BWP001) certifies every solver through these hooks.  A model-wide
# error is a sum over layers of ``norm^2 * rel_err(width)^2``; the widths
# are at most the seven of the quantizer ladder, so the squared norms are
# summed per width first and each sum meets its width constant once.

def _exact_relative_error_sq(bits: int) -> Fraction:
    levels = 2 ** (bits - 1) - 1
    if levels < 1:
        raise ValueError(f"bits={bits} has no quantization levels")
    return (Fraction(_QSGD_C) / levels) ** 2


_EXACT_REL_ERR_SQ = {bits: _exact_relative_error_sq(bits)
                     for bits in range(2, 9)}


def exact_relative_error_sq(bits: int) -> Fraction:
    """Squared relative QSGD error at a bit-width, as an exact rational."""
    known = _EXACT_REL_ERR_SQ.get(bits)
    return known if known is not None else _exact_relative_error_sq(bits)


def _norm_sq_per_width(stats: list[LayerStat],
                       bits: dict[str, int]) -> dict[int, Fraction]:
    """Exact sum of squared layer norms per assigned width.

    Each norm is lifted to its exact ratio once; a width's terms are
    summed as integers over their common denominator, so only one
    ``Fraction`` is built per width.
    """
    terms: dict[int, list[tuple[int, int]]] = {}
    for stat in stats:
        num, den = stat.grad_norm.as_integer_ratio()
        terms.setdefault(bits[stat.name], []).append((num * num, den * den))
    sums: dict[int, Fraction] = {}
    for width, squares in terms.items():
        common = math.lcm(*(den for _, den in squares))
        sums[width] = Fraction(sum(num * (common // den)
                                   for num, den in squares), common)
    return sums


def exact_assignment_error_sq(stats: list[LayerStat],
                              bits: dict[str, int]) -> Fraction:
    """Exact squared model-wide error under a bit assignment."""
    return sum((total * exact_relative_error_sq(width)
                for width, total in _norm_sq_per_width(stats, bits).items()),
               Fraction(0))


def exact_uniform_error_sq(stats: list[LayerStat],
                           bits: int = REFERENCE_BITS) -> Fraction:
    """Exact squared ``E_b``: every layer compressed to ``bits`` bits."""
    return exact_assignment_error_sq(stats, {s.name: bits for s in stats})


def certify_assignment(stats: list[LayerStat], bits: dict[str, int],
                       alpha: float,
                       reference_bits: int = REFERENCE_BITS) -> bool:
    """Exact proof that ``assignment_error <= alpha * E_ref`` holds.

    Compares squared errors as rationals, so the answer is not subject
    to float rounding: ``True`` means the budget constraint *provably*
    holds under the calibrated error model.
    """
    budget_sq = Fraction(alpha) ** 2 \
        * exact_uniform_error_sq(stats, reference_bits)
    return exact_assignment_error_sq(stats, bits) <= budget_sq


def assignment_cost_bits(stats: list[LayerStat], bits: dict[str, int]) -> int:
    """Exact transmitted payload bits under an assignment (the objective)."""
    return sum(bits[s.name] * s.numel for s in stats)


def brute_force_assign(
    stats: list[LayerStat],
    bitwidths: tuple[int, ...] = BITWIDTHS,
    alpha: float = 2.0,
    max_layers: int = 16,
) -> dict[str, int]:
    """Exact optimum of the adaptive compression problem (small instances).

    Branch-and-bound over per-layer bit choices: minimize transmitted
    bits subject to the exact squared-error budget.  Feasibility is
    decided in exact rational arithmetic (same model as
    :func:`certify_assignment`), so the result is the true optimum of
    the calibrated problem — the reference the heuristics are measured
    against (rule BWP003).  Exponential in the worst case; refuses
    instances above ``max_layers``.
    """
    if not stats:
        return {}
    if len(stats) > max_layers:
        raise ValueError(
            f"brute force limited to {max_layers} layers, got {len(stats)}")
    ladder = sorted(set(bitwidths))
    budget_sq = Fraction(alpha) ** 2 \
        * exact_uniform_error_sq(stats, REFERENCE_BITS)
    # large layers first: their cost dominates, so good bounds come early
    order = sorted(stats, key=lambda s: -s.numel)
    rel_sq = [exact_relative_error_sq(b) for b in ladder]
    exact = [[Fraction(s.grad_norm) ** 2 * r for r in rel_sq] for s in order]
    # per layer, per width: exact squared error contribution, scaled with
    # the budget to one common denominator so the search adds integers
    scale = math.lcm(budget_sq.denominator,
                     *(x.denominator for row in exact for x in row))
    budget = budget_sq.numerator * (scale // budget_sq.denominator)
    err_sq = [[x.numerator * (scale // x.denominator) for x in row]
              for row in exact]
    # suffix lower bounds: cheapest possible remaining cost / lowest
    # possible remaining error, used to prune dominated branches
    n = len(order)
    min_cost_suffix = [0] * (n + 1)
    min_err_suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        min_cost_suffix[i] = min_cost_suffix[i + 1] + ladder[0] * order[i].numel
        min_err_suffix[i] = min_err_suffix[i + 1] + err_sq[i][-1]

    best_cost = [assignment_cost_bits(stats, {s.name: ladder[-1]
                                              for s in stats}) + 1]
    best_choice: list[list[int]] = [[len(ladder) - 1] * n]
    choice = [0] * n

    def descend(i: int, cost: int, err: int) -> None:
        if cost + min_cost_suffix[i] >= best_cost[0]:
            return
        if err + min_err_suffix[i] > budget:
            return
        if i == n:
            best_cost[0] = cost
            best_choice[0] = choice.copy()
            return
        numel, row = order[i].numel, err_sq[i]
        for level, width in enumerate(ladder):
            choice[i] = level
            descend(i + 1, cost + width * numel, err + row[level])

    descend(0, 0, 0)
    return {layer.name: ladder[best_choice[0][i]]
            for i, layer in enumerate(order)}


def resolve_bucket(bits: int) -> int:
    """Bucket size paired with a bit-width, with a nearest-defined fallback.

    ``BUCKET_FOR_BITS`` only lists the widths the solvers emit today
    (2..6, 8); solver extensions can legally produce e.g. 7 bits.  An
    undefined width falls back to the nearest defined one (ties go to
    the wider width, matching its coarser bucket).  Widths below 2 have
    no quantization levels and are rejected outright.
    """
    if bits < 2:
        raise ValueError(
            f"bits={bits} has no quantization levels (need >= 2)")
    bucket = BUCKET_FOR_BITS.get(bits)
    if bucket is not None:
        return bucket
    nearest = min(BUCKET_FOR_BITS,
                  key=lambda known: (abs(known - bits), -known))
    return BUCKET_FOR_BITS[nearest]


def _enforce_constraint(stats: list[LayerStat], bits: dict[str, int],
                        alpha: float) -> dict[str, int]:
    """Raise bit-widths until the error budget is met, cheapest first.

    Each candidate bump is scored by squared-error reduction per added
    wire bit, so small noisy layers are promoted before paying the huge
    bandwidth cost of promoting an embedding.  The stopping test runs in
    exact rational arithmetic (:func:`exact_assignment_error_sq`), so a
    returned assignment is certifiably within the budget, never just
    within float rounding of it.
    """
    bits = dict(bits)
    budget_sq = Fraction(alpha) ** 2 \
        * exact_uniform_error_sq(stats, REFERENCE_BITS)
    err_sq = exact_assignment_error_sq(stats, bits)
    # (layer position, ladder level) -> float score of the bump from that
    # level, filled on first use: a bump's score never changes
    gains: dict[tuple[int, int], float] = {}
    for _ in range(len(stats) * len(BITWIDTHS)):
        if err_sq <= budget_sq:
            break
        best, best_gain = None, 0.0
        for pos, stat in enumerate(stats):
            idx = BITWIDTHS.index(bits[stat.name])
            if idx == len(BITWIDTHS) - 1:
                continue
            gain = gains.get((pos, idx))
            if gain is None:
                err_now = stat.grad_norm * estimate_relative_error(BITWIDTHS[idx])
                err_next = stat.grad_norm * estimate_relative_error(
                    BITWIDTHS[idx + 1])
                cost = (BITWIDTHS[idx + 1] - BITWIDTHS[idx]) * stat.numel
                gain = gains[pos, idx] = (err_now**2 - err_next**2) \
                    / max(1, cost)
            if gain > best_gain:
                best, best_gain = stat, gain
        if best is None:
            # float gains underflow to 0.0 for denormal norms; redo the
            # scoring in exact arithmetic before declaring infeasibility
            best_exact = Fraction(0)
            for stat in stats:
                idx = BITWIDTHS.index(bits[stat.name])
                if idx == len(BITWIDTHS) - 1:
                    continue
                drop = Fraction(stat.grad_norm) ** 2 * (
                    exact_relative_error_sq(BITWIDTHS[idx])
                    - exact_relative_error_sq(BITWIDTHS[idx + 1]))
                exact_gain = drop / ((BITWIDTHS[idx + 1] - BITWIDTHS[idx])
                                     * stat.numel)
                if exact_gain > best_exact:
                    best, best_exact = stat, exact_gain
        if best is None:
            break
        old = bits[best.name]
        bits[best.name] = BITWIDTHS[BITWIDTHS.index(old) + 1]
        err_sq += Fraction(best.grad_norm) ** 2 * (
            exact_relative_error_sq(bits[best.name])
            - exact_relative_error_sq(old))
    return bits


def _finalize(stats: list[LayerStat], bits: dict[str, int],
              alpha: float) -> dict[str, int]:
    """Enforce the error budget; never return worse-than-static size.

    Also guards the solver output structurally: any emitted width below
    2 bits has no quantization levels and cannot be realized by the
    quantizers, so it is rejected here rather than at encode time.
    """
    bad = sorted({b for b in bits.values() if b < 2})
    if bad:
        raise ValueError(
            f"assignment emits bit-width(s) {bad} below the 2-bit floor")
    bits = _enforce_constraint(stats, bits, alpha)
    if assignment_wire_fraction(stats, bits) > 1.0:
        return {s.name: REFERENCE_BITS for s in stats}
    return bits


def _features(stats: list[LayerStat]) -> np.ndarray:
    """2-D representation of each layer: (log10 size, log10 top-grad norm).

    Log scale keeps the features comparable across the 5 orders of
    magnitude separating embeddings from projection matrices; the raw
    (unstandardized) scale is deliberate — layer *size* is the dominant
    structural signal and standardizing would let the dense blob of
    near-identical transformer matrices dictate the geometry.
    """
    size = np.log10([max(1, s.numel) for s in stats])
    norm = np.log10([max(1e-12, s.grad_norm) for s in stats])
    return np.column_stack([size, norm])


#: Lloyd iterations :func:`_kmeans` runs at most
_KMEANS_ITERATIONS = 60


def _kmeans(points: np.ndarray, k: int) -> np.ndarray:
    """Deterministic Lloyd's k-means; returns a label per point.

    Initialized on quantiles of the (norm - size) score so repeated runs
    agree; empty clusters re-seed on the farthest point.
    """
    n = len(points)
    k = min(k, n)
    score = points[:, 1] - points[:, 0]
    order = np.argsort(score)
    seeds = [order[int(round(q * (n - 1)))] for q in np.linspace(0, 1, k)]
    centroids = points[seeds].astype(np.float64).copy()
    labels = np.zeros(n, dtype=np.int64)
    for _ in range(_KMEANS_ITERATIONS):
        distances = np.linalg.norm(points[:, None, :] - centroids[None], axis=2)
        new_labels = distances.argmin(axis=1)
        if np.array_equal(new_labels, labels) and _ > 0:
            break
        labels = new_labels
        for cluster in range(k):
            members = points[labels == cluster]
            if len(members):
                centroids[cluster] = members.mean(axis=0)
            else:
                farthest = distances.min(axis=1).argmax()
                centroids[cluster] = points[farthest]
    return labels


def kmeans_assign(stats: list[LayerStat],
                  alpha: float = 2.0) -> dict[str, int]:
    """Algorithm 1: k-means clustering of (size, norm) -> bit-widths.

    Clusters are sorted by ``norm(C) - size(C)``; the lowest-scoring
    cluster (large layers with small gradients — embeddings, giant FC
    layers) gets the lowest bit-width.  The ``alpha * E4`` constraint is
    enforced afterwards by raising bit-widths greedily.
    """
    if not stats:
        return {}
    points = _features(stats)
    labels = _kmeans(points, k=len(BITWIDTHS))
    used = sorted(set(labels.tolist()))
    centroids = {c: points[labels == c].mean(axis=0) for c in used}
    # sort clusters: score = norm - size, ascending -> lowest bits first
    ranked = sorted(used, key=lambda c: centroids[c][1] - centroids[c][0])
    ladder_for_cluster = {}
    for i, cluster in enumerate(ranked):
        if len(ranked) == 1:
            ladder_for_cluster[cluster] = BITWIDTHS[-1]
        else:
            idx = round(i * (len(BITWIDTHS) - 1) / (len(ranked) - 1))
            ladder_for_cluster[cluster] = BITWIDTHS[idx]
    bits = {stat.name: ladder_for_cluster[label]
            for stat, label in zip(stats, labels)}
    return _finalize(stats, bits, alpha)


def linear_assign(stats: list[LayerStat],
                  alpha: float = 2.0) -> dict[str, int]:
    """Sort by gradient-magnitude/size ratio; interpolate bit-widths."""
    if not stats:
        return {}
    ratio = sorted(stats, key=lambda s: s.grad_norm / max(1, s.numel))
    bits = {}
    for rank, stat in enumerate(ratio):
        position = rank / max(1, len(ratio) - 1)
        bits[stat.name] = BITWIDTHS[
            min(int(position * len(BITWIDTHS)), len(BITWIDTHS) - 1)
        ]
    return _finalize(stats, bits, alpha)


#: candidate threshold pairs :func:`bayes_assign` evaluates
_BAYES_SAMPLES = 80


def bayes_assign(stats: list[LayerStat], alpha: float = 2.0,
                 seed: int = 0) -> dict[str, int]:
    """Surrogate-based optimization over a two-threshold family.

    Candidate assignments map each layer's standardized score
    ``norm - size`` through two learned thresholds onto the bit ladder;
    the objective is transmitted bits with a hard error budget.  A
    random-search phase is followed by local refinement around the
    incumbent (the acquisition loop of a simplified Bayesian optimizer).
    """
    if not stats:
        return {}
    points = _features(stats)
    score = points[:, 1] - points[:, 0]
    rng = np.random.default_rng(seed)
    budget = alpha * uniform_error(stats, REFERENCE_BITS)

    def realize(t_low: float, t_high: float) -> dict[str, int]:
        lo, hi = min(t_low, t_high), max(t_low, t_high)
        bits = {}
        for stat, s in zip(stats, score):
            if s <= lo:
                level = 0
            elif s >= hi:
                level = len(BITWIDTHS) - 1
            else:
                frac = (s - lo) / max(1e-12, hi - lo)
                level = min(int(frac * len(BITWIDTHS)), len(BITWIDTHS) - 1)
            bits[stat.name] = BITWIDTHS[level]
        return bits

    def objective(bits: dict[str, int]) -> float:
        cost = sum(bits[s.name] * s.numel for s in stats)
        err = assignment_error(stats, bits)
        if err > budget:
            # budget underflows to 0.0 for denormal gradient norms; any
            # positive error is then infinitely over budget
            ratio = err / budget if budget > 0 else 1e18
            cost += 1e18 * ratio
        return cost

    lo0, hi0 = float(score.min()), float(score.max())
    best_params = (lo0, hi0)
    best_bits = realize(*best_params)
    best_cost = objective(best_bits)
    for trial in range(_BAYES_SAMPLES):
        if trial < _BAYES_SAMPLES // 2:
            candidate = tuple(rng.uniform(lo0 - 0.5, hi0 + 0.5, size=2))
        else:  # refine around incumbent
            candidate = tuple(np.asarray(best_params)
                              + rng.normal(scale=0.25, size=2))
        bits = realize(*candidate)
        cost = objective(bits)
        if cost < best_cost:
            best_params, best_bits, best_cost = candidate, bits, cost
    # the uniform static assignment is always feasible; never do worse
    uniform = {s.name: REFERENCE_BITS for s in stats}
    if objective(uniform) < best_cost:
        best_bits = uniform
    return _finalize(stats, best_bits, alpha)


ASSIGNERS = {
    "kmeans": kmeans_assign,
    "linear": linear_assign,
    "bayes": bayes_assign,
}


class AdaptiveController:
    """Collects gradient statistics during training and retunes bit-widths.

    Attach to a training loop: call :meth:`observe` after every
    synchronized step with the averaged gradients; every ``period``
    steps the controller recomputes the assignment and writes per-layer
    specs into the session/config.
    """

    def __init__(self, config, method: str = "kmeans",
                 alpha: float = 2.0, period: int = 20):
        if method not in ASSIGNERS:
            raise KeyError(f"unknown adaptive method {method!r}; "
                           f"choose from {sorted(ASSIGNERS)}")
        from .filters import LayerFilter, LayerInfo
        self._filter = LayerFilter(config.filtered_keywords,
                                   config.min_compress_numel)
        self._layer_info = LayerInfo
        self.config = config
        self.method = method
        self.alpha = alpha
        self.period = period
        self._accumulated: dict[str, np.ndarray] = {}
        self._steps = 0
        self.assignments: dict[str, int] = {}
        self.reassign_count = 0
        # elastic-membership hooks: fleet-relative error budget plus an
        # audit trail of every respec (certified by ELA004)
        self._alpha_scale = 1.0
        self.respec_history: list[dict] = []
        self._world = 0

    def observe(self, grads: dict[str, np.ndarray]) -> bool:
        """Feed one step's gradients; returns True if bits were retuned.

        Filtered layers (bias/norm, tiny tensors) are skipped — they are
        reduced in fp32 regardless, so they take no part in the
        assignment problem.
        """
        for name, grad in grads.items():
            if self._filter.excluded(self._layer_info(name, int(grad.size))):
                continue
            acc = self._accumulated.get(name)
            if acc is None:
                self._accumulated[name] = np.abs(grad).ravel().astype(np.float64)
            else:
                acc += np.abs(grad).ravel()
        self._steps += 1
        if self._steps % self.period:
            return False
        self.reassign()
        return True

    def _stats(self) -> list[LayerStat]:
        stats = []
        for name, acc in self._accumulated.items():
            k = max(1, int(acc.size * _TOP_FRACTION))
            top = np.partition(acc, acc.size - k)[-k:]
            stats.append(LayerStat(name, acc.size, float(np.linalg.norm(top))))
        return stats

    @property
    def effective_alpha(self) -> float:
        """Error budget actually handed to the assigner this respec.

        Heterogeneous fleets scale the budget: a fleet faster than the
        reference GPU can afford a tighter (smaller-alpha) assignment
        without slowing the step; a slower fleet loosens it.
        """
        return self.alpha * self._alpha_scale

    def reassign(self, trigger: str = "period") -> dict[str, int]:
        """Recompute the assignment from accumulated statistics."""
        stats = self._stats()
        if not stats:
            return {}
        alpha = self.effective_alpha
        self.assignments = ASSIGNERS[self.method](stats, alpha=alpha)
        base = self.config.compression
        for name, bits in self.assignments.items():
            self.config.per_layer[name] = base.with_bits(bits,
                                                         resolve_bucket(bits))
        self.respec_history.append({
            "trigger": trigger,
            "world": self._world,
            "alpha": alpha,
            "stats": stats,
            "assignment": dict(self.assignments),
        })
        self._accumulated.clear()
        self.reassign_count += 1
        return dict(self.assignments)

    def on_composition_change(self, world: int,
                              alpha_scale: float = 1.0) -> dict[str, int]:
        """Respec bit-widths after the training world grew or shrank.

        ``alpha_scale`` rescales the error budget for the new fleet mix
        (see :func:`repro.faults.elastic.fleet_alpha_scale`).  Returns
        the fresh assignment, or ``{}`` when no statistics have been
        accumulated yet (nothing to retune from — the next periodic
        respec picks up the new scale).
        """
        self._world = world
        self._alpha_scale = float(alpha_scale)
        if not self._accumulated:
            return {}
        return self.reassign(trigger=f"composition:world={world}")


def synthetic_stats_for_spec(spec) -> list[LayerStat]:
    """Layer statistics for a full-size ModelSpec, for perf experiments.

    Accuracy experiments collect real accumulated-gradient statistics;
    the performance benches need statistics for the *full-size* models,
    whose gradients we never materialize.  The generator reproduces the
    structure observed in our scaled training runs: the top-values norm
    grows with sqrt(_TOP_FRACTION * numel), scaled by a per-kind
    sensitivity factor (embeddings' gradients are sparse and small per
    element; norm/bias layers are the most sensitive but are filtered
    out of the assignment problem anyway).
    """
    factors = {"embedding": 0.25, "linear": 1.0, "conv": 1.2,
               "norm": 2.0, "bias": 2.0}
    stats = []
    for tensor in spec.tensors:
        if tensor.kind in ("norm", "bias"):
            continue
        base = float(np.sqrt(max(1.0, _TOP_FRACTION * tensor.numel)))
        stats.append(LayerStat(tensor.name, tensor.numel,
                               base * factors.get(tensor.kind, 1.0)))
    return stats
