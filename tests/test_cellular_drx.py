"""The flat LTE tail against the DRX structure it stands for.

Huang et al.'s LTE tail is continuous reception, then short DRX, then
long DRX until the inactivity timer fires.  The simulator costs the
whole tail as one flat power level; these checks hold that level to
the phases it abstracts.
"""

from __future__ import annotations

import pytest

from repro.cellular.power import LTE_POWER_PROFILE

# (seconds, on ms, cycle ms, on mW, sleep mW) per phase.
LTE_DRX_PHASES = (
    (1.0, 1.0, 1.0, 1210.0, 1210.0),
    (1.0, 45.0, 100.0, 1210.0, 900.0),
    (9.5, 60.0, 320.0, 1210.0, 1008.0),
)


def _phase_energy_j(seconds, on_ms, cycle_ms, on_mw, sleep_mw):
    duty = on_ms / cycle_ms
    return seconds * (duty * on_mw + (1.0 - duty) * sleep_mw) / 1000.0


class TestDerivation:
    def test_flat_tail_parameters_match_profile(self):
        """The flat-tail approximation used everywhere must equal the
        DRX phase structure it abstracts."""
        tail_s = sum(seconds for seconds, *_ in LTE_DRX_PHASES)
        tail_mw = sum(_phase_energy_j(*p) for p in LTE_DRX_PHASES) * 1000.0 / tail_s
        assert tail_s == pytest.approx(LTE_POWER_PROFILE.tail_s)
        assert tail_mw == pytest.approx(LTE_POWER_PROFILE.tail_mw, rel=0.005)

    def test_tail_energy_consistent(self):
        drx_energy = sum(_phase_energy_j(*p) for p in LTE_DRX_PHASES)
        flat_energy = LTE_POWER_PROFILE.tail_mw / 1000.0 * LTE_POWER_PROFILE.tail_s
        assert drx_energy == pytest.approx(flat_energy, rel=0.005)
