"""The four-factor, fairness-aware device selector (paper §3.2).

Each qualified device gets a score::

    Score(i) = α·E_i + β·U_i + γ·(100 − CBL_i) + φ·TTL_i

where ``E`` is crowdsensing energy already spent, ``U`` the number of
times the device was selected, ``CBL`` the current battery level in
percent, and ``TTL`` the seconds since the device's most recent radio
communication (a small TTL means the radio tail is likely still open,
so the upload will be nearly free).  Devices with **lower** scores are
preferred.

Hard cutoffs apply before scoring: a device is ineligible once it has
exhausted its user-specified energy budget, once its battery falls to
the user's critical level, or after being marked unresponsive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.config import SelectorWeights
from repro.core.datastores import DeviceRecord

#: Bound on the TTL term, in seconds, so a long-quiet device cannot
#: out-score the fairness term.
TTL_CAP_S = 300.0


@dataclass(frozen=True)
class ScoredDevice:
    """A selector verdict for one candidate."""

    device_id: str
    score: float
    eligible: bool
    reason: str = ""


class DeviceSelector:
    """Scores and ranks qualified devices for a sensing request."""

    def __init__(self, weights: SelectorWeights) -> None:
        self._weights = weights

    @property
    def weights(self) -> SelectorWeights:
        return self._weights

    def score(self, record: DeviceRecord, now: float) -> float:
        """The paper's linear scoring function (lower is better)."""
        w = self._weights
        ttl = record.ttl_s(now)
        # A device that has never communicated gets the worst TTL: its
        # radio is certainly idle, so an upload would pay promotion.
        ttl_term = TTL_CAP_S if ttl is None else min(ttl, TTL_CAP_S)
        return (
            w.alpha * record.energy_used_j
            + w.beta * record.times_selected
            + w.gamma * (100.0 - record.battery_pct)
            + w.phi * ttl_term
        )

    def eligibility(self, record: DeviceRecord) -> ScoredDevice:
        """Apply the hard cutoffs; score is NaN-free only if eligible."""
        if not record.responsive:
            return ScoredDevice(record.device_id, float("inf"), False, "unresponsive")
        if record.over_budget():
            return ScoredDevice(record.device_id, float("inf"), False, "over_budget")
        if record.below_critical_battery():
            return ScoredDevice(
                record.device_id, float("inf"), False, "critical_battery"
            )
        return ScoredDevice(record.device_id, 0.0, True)

    def rank(
        self, candidates: Sequence[DeviceRecord], now: float
    ) -> List[ScoredDevice]:
        """Eligible candidates scored and sorted best-first.

        Ties break on device id so runs are deterministic.
        """
        scored = []
        for record in candidates:
            verdict = self.eligibility(record)
            if not verdict.eligible:
                continue
            scored.append(
                ScoredDevice(record.device_id, self.score(record, now), True)
            )
        scored.sort(key=lambda s: (s.score, s.device_id))
        return scored

    def select(
        self, candidates: Sequence[DeviceRecord], n: int, now: float
    ) -> Optional[List[str]]:
        """Choose the best ``n`` devices, or None if fewer are eligible.

        This implements the paper's satisfiability rule: if the
        request wants more devices than are available the request is
        *unsatisfiable* (the server then parks it on the wait queue).
        """
        if n <= 0:
            raise ValueError(f"n must be positive, got {n!r}")
        ranked = self.rank(candidates, now)
        if len(ranked) < n:
            return None
        return [s.device_id for s in ranked[:n]]

    def ineligible(
        self, candidates: Sequence[DeviceRecord]
    ) -> List[ScoredDevice]:
        """The candidates the cutoffs rejected, with reasons (debugging)."""
        return [
            verdict
            for verdict in (self.eligibility(r) for r in candidates)
            if not verdict.eligible
        ]
