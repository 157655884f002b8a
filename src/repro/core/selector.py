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

from typing import List, Optional, Sequence

from repro.core.config import SelectorWeights
from repro.core.datastores import DeviceRecord

#: Bound on the TTL term, in seconds, so a long-quiet device cannot
#: out-score the fairness term.
TTL_CAP_S = 300.0


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

    @staticmethod
    def cutoff(record: DeviceRecord) -> Optional[str]:
        """The hard cutoff that rules a device out, or None if it is
        eligible: ``"unresponsive"``, ``"over_budget"`` or
        ``"critical_battery"``, checked in that order."""
        if not record.responsive:
            return "unresponsive"
        if record.over_budget():
            return "over_budget"
        if record.below_critical_battery():
            return "critical_battery"
        return None

    def rank(self, candidates: Sequence[DeviceRecord], now: float) -> List[str]:
        """Ids of the eligible candidates, best score first.

        Ties break on device id so runs are deterministic: the sort is
        over plain ``(score, device_id)`` pairs.
        """
        cutoff, score = self.cutoff, self.score
        ranked = [
            (score(record, now), record.device_id)
            for record in candidates
            if cutoff(record) is None
        ]
        ranked.sort()
        return [device_id for _, device_id in ranked]

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
        return ranked[:n]
