"""Truth discovery over crowdsensed readings.

Paper §7 points at truth-discovery work (Meng et al., SenSys'15) for
collecting *reliable* data and notes it "can be incorporated as
another factor in our device selector".  This module supplies the
algorithmic half: CRH-style iterative truth discovery over continuous
readings — alternately estimating per-item truths as reliability-
weighted means and per-source weights from each source's distance to
the truths.  The weights rank the sources' reliability, and the truths
give an application a robust aggregate even with faulty or lying
sensors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable, List, Mapping

#: Claims shape: source -> {item -> claimed value}.
Claims = Mapping[Hashable, Mapping[Hashable, float]]


@dataclass(frozen=True)
class TruthDiscoveryResult:
    """Converged truths and source weights."""

    truths: Dict[Hashable, float]
    weights: Dict[Hashable, float]
    iterations: int

    def normalized_weights(self) -> Dict[Hashable, float]:
        """Weights scaled to sum to 1 (a reliability distribution)."""
        total = sum(self.weights.values())
        if total <= 0:
            n = len(self.weights)
            return {s: 1.0 / n for s in self.weights} if n else {}
        return {s: w / total for s, w in self.weights.items()}


#: CRH stops when no truth moves by this much, or after MAX_ITERATIONS.
TOLERANCE = 1e-6
MAX_ITERATIONS = 50


def discover_truth(claims: Claims) -> TruthDiscoveryResult:
    """Run CRH truth discovery on continuous claims.

    Each source claims values for some items.  Returns per-item truth
    estimates and per-source weights; a source whose claims sit far
    from consensus gets a low weight and barely influences the truths.
    """
    if not claims:
        raise ValueError("need at least one source")
    sources = list(claims)
    items: List[Hashable] = sorted(
        {item for source_claims in claims.values() for item in source_claims},
        key=repr,
    )
    if not items:
        raise ValueError("sources made no claims")

    weights = {s: 1.0 for s in sources}
    truths = _weighted_truths(claims, weights, items)
    iterations = 0
    for iterations in range(1, MAX_ITERATIONS + 1):
        weights = _crh_weights(claims, truths)
        new_truths = _weighted_truths(claims, weights, items)
        delta = max(
            abs(new_truths[item] - truths[item]) for item in items
        )
        truths = new_truths
        if delta < TOLERANCE:
            break
    return TruthDiscoveryResult(truths=truths, weights=weights, iterations=iterations)


def _weighted_truths(
    claims: Claims, weights: Mapping[Hashable, float], items: List[Hashable]
) -> Dict[Hashable, float]:
    truths: Dict[Hashable, float] = {}
    for item in items:
        numerator = 0.0
        denominator = 0.0
        for source, source_claims in claims.items():
            if item not in source_claims:
                continue
            w = weights[source]
            numerator += w * source_claims[item]
            denominator += w
        if denominator == 0.0:
            # All claiming sources have zero weight; fall back to the
            # unweighted mean so the item still gets an estimate.
            values = [c[item] for c in claims.values() if item in c]
            truths[item] = sum(values) / len(values)
        else:
            truths[item] = numerator / denominator
    return truths


def _crh_weights(
    claims: Claims, truths: Mapping[Hashable, float]
) -> Dict[Hashable, float]:
    # Per-source loss: mean squared distance to the current truths.
    losses: Dict[Hashable, float] = {}
    for source, source_claims in claims.items():
        if not source_claims:
            losses[source] = float("inf")
            continue
        losses[source] = sum(
            (value - truths[item]) ** 2 for item, value in source_claims.items()
        ) / len(source_claims)
    # CRH weight: w_s = log(sum of losses / own loss); clamp for
    # perfect sources (zero loss) and hopeless ones.
    floor = 1e-12
    total_loss = sum(min(l, 1e18) for l in losses.values()) + floor
    weights = {}
    for source, loss in losses.items():
        ratio = total_loss / max(loss, floor)
        weights[source] = max(math.log(ratio), floor)
    return weights


def reliability_scores(result: TruthDiscoveryResult) -> Dict[Hashable, float]:
    """Map weights to [0, 1] reliability scores (max weight -> 1.0)."""
    if not result.weights:
        return {}
    top = max(result.weights.values())
    if top <= 0:
        return {s: 0.0 for s in result.weights}
    return {s: w / top for s, w in result.weights.items()}
