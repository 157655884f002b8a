"""Tests for CRH truth discovery."""

from __future__ import annotations

import random

import pytest

from repro.analysis.truth import (
    MAX_ITERATIONS,
    TruthDiscoveryResult,
    discover_truth,
    reliability_scores,
)


def honest_and_liar_claims(n_items=10, n_honest=5, lie_offset=25.0, seed=3):
    rng = random.Random(seed)
    true_values = {f"item{i}": 1013.0 + rng.uniform(-3, 3) for i in range(n_items)}
    claims = {}
    for s in range(n_honest):
        claims[f"honest{s}"] = {
            item: value + rng.gauss(0.0, 0.2) for item, value in true_values.items()
        }
    claims["liar"] = {item: value + lie_offset for item, value in true_values.items()}
    return true_values, claims


class TestDiscovery:
    def test_liar_gets_low_weight(self):
        _, claims = honest_and_liar_claims()
        result = discover_truth(claims)
        normalized = result.normalized_weights()
        assert normalized["liar"] < min(
            v for k, v in normalized.items() if k != "liar"
        )
        assert normalized["liar"] < 0.05

    def test_truths_track_honest_sources(self):
        true_values, claims = honest_and_liar_claims()
        result = discover_truth(claims)
        for item, truth in result.truths.items():
            assert truth == pytest.approx(true_values[item], abs=0.5)

    def test_truth_beats_naive_mean(self):
        true_values, claims = honest_and_liar_claims()
        result = discover_truth(claims)
        for item in true_values:
            naive = sum(c[item] for c in claims.values()) / len(claims)
            robust_error = abs(result.truths[item] - true_values[item])
            naive_error = abs(naive - true_values[item])
            assert robust_error < naive_error

    def test_all_honest_no_source_dominates(self):
        """Without a liar, no source should dominate or be written off
        (CRH still spreads weights by residual noise, so exact equality
        is not expected)."""
        _, claims = honest_and_liar_claims(n_honest=4)
        del claims["liar"]
        result = discover_truth(claims)
        normalized = result.normalized_weights()
        assert max(normalized.values()) < 0.6
        assert min(normalized.values()) > 0.01

    def test_partial_claims_supported(self):
        claims = {
            "a": {"x": 10.0, "y": 20.0},
            "b": {"x": 10.2},
            "c": {"y": 19.8, "x": 9.9},
        }
        result = discover_truth(claims)
        assert set(result.truths) == {"x", "y"}
        assert result.truths["x"] == pytest.approx(10.0, abs=0.3)

    def test_single_source(self):
        result = discover_truth({"solo": {"x": 5.0}})
        assert result.truths["x"] == 5.0

    def test_converges(self):
        _, claims = honest_and_liar_claims()
        result = discover_truth(claims)
        assert result.iterations < MAX_ITERATIONS

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            discover_truth({})
        with pytest.raises(ValueError):
            discover_truth({"a": {}})

    def test_deterministic(self):
        _, claims = honest_and_liar_claims()
        a = discover_truth(claims)
        b = discover_truth(claims)
        assert a.truths == b.truths
        assert a.weights == b.weights


class TestReliabilityScores:
    def test_scores_in_unit_interval(self):
        _, claims = honest_and_liar_claims()
        scores = reliability_scores(discover_truth(claims))
        assert all(0.0 <= s <= 1.0 for s in scores.values())
        assert max(scores.values()) == 1.0

    def test_liar_scored_low(self):
        _, claims = honest_and_liar_claims()
        scores = reliability_scores(discover_truth(claims))
        assert scores["liar"] < 0.1

    def test_empty(self):
        assert reliability_scores(
            TruthDiscoveryResult(truths={}, weights={}, iterations=0)
        ) == {}
