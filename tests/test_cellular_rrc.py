"""Unit tests for the RRC state machine and its energy attribution.

These are the most important tests in the suite: every experimental
result rests on this model behaving exactly as specified.
"""

from __future__ import annotations

import pytest

from repro.cellular.packets import TrafficCategory
from repro.cellular.power import LTE_POWER_PROFILE
from repro.cellular.rrc import RadioModem, RRCState, TailPolicy
from repro.sim.engine import Simulator

P = LTE_POWER_PROFILE


def make_modem(sim, policy=TailPolicy.RESET):
    modem = RadioModem(sim, P, "m0", policy)
    charges = []
    modem.add_energy_listener(
        lambda cat, joules, reason: charges.append((cat, joules, reason))
    )
    return modem, charges


def total_charged(charges, category=None):
    return sum(
        j for cat, j, _ in charges if category is None or cat is category
    )


class TestColdUpload:
    def test_state_sequence(self):
        sim = Simulator()
        modem, _ = make_modem(sim)
        states = []
        modem.add_state_listener(lambda old, new: states.append(new))
        modem.transmit(600, TrafficCategory.CROWDSENSING)
        sim.run(until=60.0)
        assert states == [
            RRCState.PROMOTING,
            RRCState.ACTIVE,
            RRCState.TAIL,
            RRCState.IDLE,
        ]

    def test_cold_upload_energy_matches_closed_form(self):
        sim = Simulator()
        modem, charges = make_modem(sim)
        modem.transmit(600, TrafficCategory.CROWDSENSING)
        sim.run(until=60.0)
        assert total_charged(charges) == pytest.approx(P.cold_upload_energy_j(600))

    def test_timing_of_transitions(self):
        sim = Simulator()
        modem, _ = make_modem(sim)
        modem.transmit(600, TrafficCategory.BACKGROUND)
        transfer = P.transfer_time(600)
        sim.run(until=P.promotion_s + transfer / 2)
        assert modem.state is RRCState.ACTIVE
        sim.run(until=P.promotion_s + transfer + 1.0)
        assert modem.state is RRCState.TAIL
        sim.run(until=P.promotion_s + transfer + P.tail_s + 0.1)
        assert modem.state is RRCState.IDLE

    def test_promotion_counted(self):
        sim = Simulator()
        modem, _ = make_modem(sim)
        modem.transmit(600, TrafficCategory.BACKGROUND)
        sim.run(until=60.0)
        modem.transmit(600, TrafficCategory.BACKGROUND)
        sim.run(until=120.0)
        assert modem.promotions == 2
        assert modem.transfers == 2


class TestTailUpload:
    def _into_tail(self, sim, modem):
        modem.transmit(10_000, TrafficCategory.BACKGROUND)
        sim.run(until=5.0)
        assert modem.state is RRCState.TAIL

    def test_reset_extends_tail(self):
        sim = Simulator()
        modem, _ = make_modem(sim, TailPolicy.RESET)
        self._into_tail(sim, modem)
        t_upload = sim.now
        modem.transmit(600, TrafficCategory.CROWDSENSING)
        transfer = P.transfer_time(600)
        # After the reset the radio must stay connected a full tail
        # beyond the transfer end.
        sim.run(until=t_upload + transfer + P.tail_s - 0.5)
        assert modem.state is RRCState.TAIL
        sim.run(until=t_upload + transfer + P.tail_s + 0.5)
        assert modem.state is RRCState.IDLE

    def test_no_reset_preserves_tail_deadline(self):
        sim = Simulator()
        modem, _ = make_modem(sim, TailPolicy.NO_RESET)
        modem.transmit(10_000, TrafficCategory.BACKGROUND)
        sim.run(until=5.0)
        original_deadline = sim.now + modem.tail_remaining()
        modem.transmit(600, TrafficCategory.CROWDSENSING)
        sim.run(until=original_deadline - 0.1)
        assert modem.state is RRCState.TAIL
        sim.run(until=original_deadline + 0.1)
        assert modem.state is RRCState.IDLE

    def test_reset_energy_is_transfer_plus_extension(self):
        sim = Simulator()
        modem, charges = make_modem(sim, TailPolicy.RESET)
        self._into_tail(sim, modem)
        remaining = modem.tail_remaining()
        charges.clear()
        modem.transmit(600, TrafficCategory.CROWDSENSING)
        sim.run(until=60.0)
        transfer = P.transfer_time(600)
        expected = P.active_energy_j(transfer, over_tail=True) + P.tail_energy_j(
            transfer + P.tail_s - remaining
        )
        assert total_charged(charges, TrafficCategory.CROWDSENSING) == pytest.approx(
            expected
        )

    def test_no_reset_energy_is_transfer_only(self):
        sim = Simulator()
        modem, charges = make_modem(sim, TailPolicy.NO_RESET)
        self._into_tail(sim, modem)
        charges.clear()
        modem.transmit(600, TrafficCategory.CROWDSENSING)
        sim.run(until=60.0)
        transfer = P.transfer_time(600)
        expected = P.active_energy_j(transfer, over_tail=True)
        assert total_charged(charges, TrafficCategory.CROWDSENSING) == pytest.approx(
            expected
        )

    def test_no_reset_costs_far_less_than_cold(self):
        sim = Simulator()
        modem, charges = make_modem(sim, TailPolicy.NO_RESET)
        self._into_tail(sim, modem)
        charges.clear()
        modem.transmit(600, TrafficCategory.CROWDSENSING)
        sim.run(until=60.0)
        upload = total_charged(charges, TrafficCategory.CROWDSENSING)
        assert upload < P.cold_upload_energy_j(600) / 100.0

    def test_background_always_resets_even_under_no_reset_policy(self):
        sim = Simulator()
        modem, _ = make_modem(sim, TailPolicy.NO_RESET)
        self._into_tail(sim, modem)
        t = sim.now
        modem.transmit(600, TrafficCategory.BACKGROUND)
        transfer = P.transfer_time(600)
        sim.run(until=t + transfer + P.tail_s - 0.5)
        assert modem.state is RRCState.TAIL


class TestPiggyback:
    def test_transfer_during_active_extends_active(self):
        sim = Simulator()
        modem, charges = make_modem(sim)
        modem.transmit(2_000_000, TrafficCategory.BACKGROUND)  # 8s transfer
        sim.run(until=P.promotion_s + 1.0)
        assert modem.state is RRCState.ACTIVE
        charges.clear()
        modem.transmit(600, TrafficCategory.CROWDSENSING)
        sim.run(until=60.0)
        transfer = P.transfer_time(600)
        assert total_charged(charges, TrafficCategory.CROWDSENSING) == pytest.approx(
            P.active_energy_j(transfer)
        )

    def test_transfer_during_promotion_queues(self):
        sim = Simulator()
        modem, _ = make_modem(sim)
        modem.transmit(600, TrafficCategory.BACKGROUND)
        sim.run(until=P.promotion_s / 2)
        assert modem.state is RRCState.PROMOTING
        completion = modem.transmit(600, TrafficCategory.CROWDSENSING)
        expected = P.promotion_s + 2 * P.transfer_time(600)
        assert completion == pytest.approx(expected)
        assert modem.promotions == 1


class TestIntrospection:
    def test_tail_remaining_zero_when_not_in_tail(self):
        sim = Simulator()
        modem, _ = make_modem(sim)
        assert modem.tail_remaining() == 0.0

    def test_tail_remaining_decreases(self):
        sim = Simulator()
        modem, _ = make_modem(sim)
        modem.transmit(600, TrafficCategory.BACKGROUND)
        sim.run(until=P.promotion_s + P.transfer_time(600) + 1.0)
        first = modem.tail_remaining()
        sim.run(until=sim.now + 2.0)
        assert modem.tail_remaining() == pytest.approx(first - 2.0)

    def test_seconds_since_last_comm(self):
        sim = Simulator()
        modem, _ = make_modem(sim)
        assert modem.seconds_since_last_comm() is None
        modem.transmit(600, TrafficCategory.BACKGROUND)
        end = P.promotion_s + P.transfer_time(600)
        sim.run(until=end + 5.0)
        assert modem.seconds_since_last_comm() == pytest.approx(5.0)

    def test_is_connected(self):
        sim = Simulator()
        modem, _ = make_modem(sim)
        assert not modem.is_connected
        modem.transmit(600, TrafficCategory.BACKGROUND)
        sim.run(until=2.0)
        assert modem.is_connected

    def test_on_complete_callback_fires_at_transfer_end(self):
        sim = Simulator()
        modem, _ = make_modem(sim)
        done = []
        modem.transmit(
            600, TrafficCategory.BACKGROUND, on_complete=lambda: done.append(sim.now)
        )
        sim.run(until=60.0)
        assert done == [pytest.approx(P.promotion_s + P.transfer_time(600))]


class TestTotalEnergyConsistency:
    def test_residency_energy_at_least_marginal_charges(self):
        """Total (residency-integrated) radio energy must be >= the sum
        of marginal attributions, since the idle baseline is extra."""
        sim = Simulator()
        modem, charges = make_modem(sim)
        modem.transmit(600, TrafficCategory.BACKGROUND)
        sim.run(until=30.0)
        modem.transmit(600, TrafficCategory.CROWDSENSING)
        sim.run(until=90.0)
        assert modem.total_energy_j() >= total_charged(charges)

    def test_residency_sums_to_elapsed_time(self):
        sim = Simulator()
        modem, _ = make_modem(sim)
        modem.transmit(600, TrafficCategory.BACKGROUND)
        sim.run(until=77.0)
        assert sum(modem.state_residency().values()) == pytest.approx(77.0)

    def test_residency_accumulates_per_state(self):
        sim = Simulator()
        modem, _ = make_modem(sim)
        sim.run(until=10.0)
        modem.transmit(600, TrafficCategory.BACKGROUND)
        sim.run(until=60.0)
        transfer = P.transfer_time(600)
        residency = modem.state_residency()
        assert residency[RRCState.PROMOTING] == pytest.approx(P.promotion_s)
        assert residency[RRCState.ACTIVE] == pytest.approx(transfer)
        assert residency[RRCState.TAIL] == pytest.approx(P.tail_s)
        assert residency[RRCState.IDLE] == pytest.approx(
            60.0 - P.promotion_s - transfer - P.tail_s
        )

    def test_residency_includes_open_occupancy(self):
        sim = Simulator()
        modem, _ = make_modem(sim)
        sim.run(until=7.0)
        assert modem.state_residency() == {RRCState.IDLE: 7.0}
        modem.transmit(600, TrafficCategory.BACKGROUND)
        sim.run(until=7.1)
        residency = modem.state_residency()
        assert list(residency) == [RRCState.IDLE, RRCState.PROMOTING]
        assert residency[RRCState.PROMOTING] == pytest.approx(0.1)

    def test_residency_keys_in_first_exit_order_then_current(self):
        sim = Simulator()
        modem, _ = make_modem(sim)
        modem.transmit(600, TrafficCategory.BACKGROUND)
        sim.run(until=P.promotion_s + P.transfer_time(600) + 1.0)
        assert modem.state is RRCState.TAIL
        assert list(modem.state_residency()) == [
            RRCState.IDLE,
            RRCState.PROMOTING,
            RRCState.ACTIVE,
            RRCState.TAIL,
        ]
        # Back in IDLE, the current state is already listed first.
        sim.run(until=60.0)
        assert modem.state is RRCState.IDLE
        assert list(modem.state_residency())[0] is RRCState.IDLE
        energy = sum(
            power / 1000.0 * seconds
            for power, seconds in zip(
                (P.idle_mw, P.promotion_mw, P.active_mw, P.tail_mw),
                modem.state_residency().values(),
            )
        )
        assert modem.total_energy_j() == energy


@pytest.mark.xfail(
    strict=True,
    reason=(
        "ROADMAP item 2: _active_done stores its _tail_done over the pending "
        "_active_done of an upload a TAIL-entry listener made; that orphaned "
        "event still fires, so the first tail's demotion can no longer be "
        "cancelled and drops the radio to IDLE at the old deadline"
    ),
)
@pytest.mark.parametrize("policy", list(TailPolicy))
def test_tail_entry_upload_leaves_no_stale_demotion(policy):
    """A listener that uploads on TAIL entry (the Sense-Aid client's
    tail upload) must not leave a demotion timer behind."""
    sim = Simulator()
    modem, _ = make_modem(sim, policy)
    uploads = []
    idle_at = []

    def on_state(old, new):
        if new is RRCState.TAIL and not uploads:
            uploads.append(sim.now)
            modem.transmit(600, TrafficCategory.CROWDSENSING)
        elif new is RRCState.IDLE:
            idle_at.append(sim.now)

    modem.add_state_listener(on_state)
    modem.transmit(600, TrafficCategory.BACKGROUND)
    sim.run(until=5.0)
    assert sim.pending_events == 1  # just the live tail's demotion
    sim.schedule_at(11.0, lambda: modem.transmit(40_000, TrafficCategory.BACKGROUND))
    # The first tail's deadline (about 11.81 s) has been superseded by
    # the 11.0 s transfer, whose tail runs until about 22.66 s.
    sim.run(until=11.9)
    assert modem.state is RRCState.TAIL
    sim.run(until=60.0)
    assert idle_at == [pytest.approx(11.0 + P.transfer_time(40_000) + P.tail_s)]
