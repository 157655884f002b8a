"""End-to-end tests of the user-protection hard cutoffs.

The paper: "Sense-Aid server never picks a device more than a certain
number of times, when that device has already expended a certain
amount of energy for crowdsensing tasks, or when its battery is
depleted beyond a level specified by the user."  The selection count
has no hard cutoff here: the selector's fairness term (β·U) rotates
picks through the qualified devices instead.
"""

from __future__ import annotations

import pytest

from repro.core.config import SenseAidConfig, ServerMode
from repro.devices.device import UserPreferences
from repro.sim.engine import Simulator
from tests.conftest import make_device
from tests.test_core_server import CENTER, make_setup, make_spec
from repro.cellular.enodeb import ENodeB, TowerRegistry
from repro.cellular.network import CellularNetwork
from repro.clientlib.client import SenseAidClient
from repro.core.server import SenseAidServer


def setup_with_preferences(sim, prefs_list, config=None):
    registry = TowerRegistry([ENodeB("t0", CENTER, coverage_radius_m=5000.0)])
    network = CellularNetwork(sim)
    server = SenseAidServer(
        sim, registry, network, config or SenseAidConfig(mode=ServerMode.COMPLETE)
    )
    devices, clients = [], []
    for i, prefs in enumerate(prefs_list):
        device = make_device(sim, f"d{i}", position=CENTER, preferences=prefs)
        client = SenseAidClient(sim, device, server, network)
        client.register()
        devices.append(device)
        clients.append(client)
    return server, devices, clients


class TestEnergyBudgetCutoff:
    def test_device_stops_being_selected_once_budget_spent(self):
        sim = Simulator()
        # One tiny-budget device, one normal.  Forced uploads cost
        # ~12.8 J, so the 10 J budget is blown after the first one.
        server, devices, _ = setup_with_preferences(
            sim,
            [
                UserPreferences(energy_budget_j=10.0),
                UserPreferences(energy_budget_j=496.0),
            ],
        )
        server.submit_task(
            make_spec(
                spatial_density=1,
                sampling_period_s=600.0,
                sampling_duration_s=4 * 600.0,
            ),
            lambda p: None,
        )
        sim.run(until=4 * 600.0 + 60.0)
        counts = server.selections_per_device()
        # d0 served at most once (its budget died with the first cold
        # upload); d1 carried the rest.
        assert counts.get("d0", 0) <= 1
        assert counts.get("d1", 0) >= 3

    def test_all_budgets_spent_waitlists_requests(self):
        sim = Simulator()
        server, devices, _ = setup_with_preferences(
            sim, [UserPreferences(energy_budget_j=10.0)]
        )
        server.submit_task(
            make_spec(
                spatial_density=1,
                sampling_period_s=600.0,
                sampling_duration_s=3 * 600.0,
            ),
            lambda p: None,
        )
        sim.run(until=3 * 600.0 + 60.0)
        assert server.stats.requests_scheduled <= 2
        assert (
            server.stats.requests_waitlisted + server.stats.requests_expired >= 1
        )

    def test_spent_energy_stays_near_budget(self):
        """A device may finish the upload that crosses the line, but is
        never selected again after."""
        sim = Simulator()
        budget = 10.0
        server, devices, _ = setup_with_preferences(
            sim, [UserPreferences(energy_budget_j=budget)]
        )
        server.submit_task(
            make_spec(
                spatial_density=1,
                sampling_period_s=600.0,
                sampling_duration_s=6 * 600.0,
            ),
            lambda p: None,
        )
        sim.run(until=6 * 600.0 + 60.0)
        cold = devices[0].modem.profile.cold_upload_energy_j(600)
        assert devices[0].crowdsensing_energy_j() <= budget + cold + 1.0


class TestCriticalBatteryCutoff:
    def test_low_battery_device_never_selected(self):
        sim = Simulator()
        registry = TowerRegistry([ENodeB("t0", CENTER, coverage_radius_m=5000.0)])
        network = CellularNetwork(sim)
        server = SenseAidServer(sim, registry, network)
        low = make_device(
            sim,
            "low",
            position=CENTER,
            initial_battery_pct=15.0,
            preferences=UserPreferences(critical_battery_pct=20.0),
        )
        ok = make_device(sim, "ok", position=CENTER)
        SenseAidClient(sim, low, server, network).register()
        SenseAidClient(sim, ok, server, network).register()
        server.submit_task(
            make_spec(
                spatial_density=1,
                sampling_period_s=600.0,
                sampling_duration_s=1800.0,
            ),
            lambda p: None,
        )
        sim.run(until=1900.0)
        counts = server.selections_per_device()
        assert "low" not in counts
        assert counts["ok"] == 3

    def test_user_can_raise_critical_level_mid_run(self):
        sim = Simulator()
        server, devices, clients = setup_with_preferences(
            sim, [UserPreferences(critical_battery_pct=20.0)] * 2
        )
        # Effectively opting out: any battery level is "too low".
        clients[0].update_preferences(critical_battery_pct=100.0)
        server.submit_task(
            make_spec(spatial_density=1, sampling_duration_s=600.0), lambda p: None
        )
        sim.run(until=660.0)
        counts = server.selections_per_device()
        assert "d0" not in counts  # opted out via critical level
        assert counts.get("d1") == 1
