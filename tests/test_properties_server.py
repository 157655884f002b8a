"""Property-based end-to-end invariants of the Sense-Aid server.

Each example builds a random small scenario (devices, positions,
density, period) and runs a full campaign, then checks the invariants
that must hold for *any* workload.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cellular.enodeb import ENodeB, TowerRegistry
from repro.cellular.network import CellularNetwork
from repro.cellular.packets import TrafficCategory
from repro.clientlib.client import SenseAidClient
from repro.core.config import SelectorWeights, SenseAidConfig, ServerMode
from repro.core.server import SenseAidServer
from repro.core.tasks import TaskSpec
from repro.devices.sensors import SensorType
from repro.environment.geometry import Point
from repro.sim.engine import Simulator
from tests.conftest import make_device

CENTER = Point(500.0, 500.0)
#: Selection by fairness alone: no α·E term, so the two modes' energy
#: cannot steer which devices are picked.
ENERGY_BLIND = SelectorWeights(alpha=0.0, beta=1.0, gamma=0.0, phi=0.0)

scenario_strategy = st.fixed_dictionaries(
    {
        "seed": st.integers(min_value=0, max_value=10_000),
        "n_devices": st.integers(min_value=1, max_value=8),
        "density": st.integers(min_value=1, max_value=4),
        "period_s": st.sampled_from([120.0, 300.0, 600.0]),
        "ticks": st.integers(min_value=1, max_value=4),
        "mode": st.sampled_from(list(ServerMode)),
        "spread_m": st.floats(min_value=0.0, max_value=1500.0),
        "with_traffic": st.booleans(),
    }
)


def run_scenario(params, weights=SelectorWeights()):
    sim = Simulator(seed=params["seed"])
    registry = TowerRegistry([ENodeB("t0", CENTER, coverage_radius_m=10_000.0)])
    network = CellularNetwork(sim)
    server = SenseAidServer(
        sim,
        registry,
        network,
        SenseAidConfig(mode=params["mode"], weights=weights),
    )
    rng = sim.rng.stream("scenario")
    devices, clients = [], []
    for i in range(params["n_devices"]):
        offset = params["spread_m"] * rng.random()
        angle = rng.random() * 6.283185
        import math

        position = Point(
            CENTER.x + offset * math.cos(angle),
            CENTER.y + offset * math.sin(angle),
        )
        device = make_device(sim, f"d{i}", position=position)
        client = SenseAidClient(sim, device, server, network)
        client.register()
        if params["with_traffic"]:
            device.traffic.start()
        devices.append(device)
        clients.append(client)
    duration = params["period_s"] * params["ticks"]
    task = TaskSpec(
        sensor_type=SensorType.BAROMETER,
        center=CENTER,
        area_radius_m=1000.0,
        spatial_density=params["density"],
        sampling_period_s=params["period_s"],
        sampling_duration_s=duration,
    )
    data = []
    server.submit_task(task, data.append)
    sim.run(until=duration + 60.0)
    server.shutdown()
    return server, devices, clients, data


@settings(max_examples=40, deadline=None)
@given(scenario_strategy)
def test_server_invariants(params):
    server, devices, clients, data = run_scenario(params)
    stats = server.stats

    # Request accounting balances.
    assert stats.requests_issued == params["ticks"]
    assert (
        stats.requests_scheduled + stats.requests_waitlisted
        >= stats.requests_issued
        - stats.requests_expired
        - stats.requests_lost_to_crash
    )

    # Every selection event picked exactly the density, only from
    # qualified devices, with no duplicates.
    for event in server.selection_log:
        assert len(event.selected) == params["density"]
        assert len(set(event.selected)) == len(event.selected)
        assert set(event.selected) <= set(event.qualified)

    # Data only from assigned devices; never more points than
    # assignments.
    assert stats.data_points <= stats.assignments

    # Energy sanity: every delivered point cost something, nothing is
    # negative, and the battery drained exactly what the ledger charged.
    for device in devices:
        assert device.crowdsensing_energy_j() >= 0.0
        ledger_total = device.ledger.grand_total_j()
        assert device.battery.drained_j >= ledger_total - 1e-6
    if stats.data_points:
        assert sum(d.crowdsensing_energy_j() for d in devices) > 0.0

    # Application data points carry plausible values and hashed ids.
    raw_ids = {d.device_id for d in devices}
    for point in data:
        assert 850.0 <= point.value <= 1100.0
        assert point.device_hash not in raw_ids


@settings(max_examples=15, deadline=None)
@given(scenario_strategy)
def test_scenario_determinism(params):
    first = run_scenario(params)
    second = run_scenario(params)
    assert first[0].stats == second[0].stats
    assert [d.crowdsensing_energy_j() for d in first[1]] == [
        d.crowdsensing_energy_j() for d in second[1]
    ]


def _mode_comparison(seed, n_devices, weights):
    """Run one world under Basic and under Complete; per mode, return
    the crowdsensing energy per device and the selections made."""
    runs = {}
    for mode in (ServerMode.BASIC, ServerMode.COMPLETE):
        params = {
            "seed": seed,
            "n_devices": n_devices,
            "density": min(2, n_devices),
            "period_s": 300.0,
            "ticks": 3,
            "mode": mode,
            "spread_m": 200.0,
            "with_traffic": True,
        }
        server, devices, _, _ = run_scenario(params, weights)
        runs[mode] = (
            {d.device_id: d.crowdsensing_energy_j() for d in devices},
            [(e.time, e.selected) for e in server.selection_log],
        )
    return runs[ServerMode.BASIC], runs[ServerMode.COMPLETE]


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=0, max_value=1000),
    st.integers(min_value=2, max_value=6),
)
@example(seed=137, n_devices=4)
def test_complete_never_costs_more_than_basic(seed, n_devices):
    """When energy cannot steer selection, both modes pick the same
    devices, and Complete's only difference is not resetting the tail:
    it never uses more crowdsensing energy than Basic."""
    (basic, basic_log), (complete, complete_log) = _mode_comparison(
        seed, n_devices, ENERGY_BLIND
    )
    assert complete_log == basic_log
    assert sum(complete.values()) <= sum(basic.values()) + 1e-6


def test_energy_aware_selection_can_make_complete_cost_more():
    """Under the default weights the claim above does not hold.  In
    this world Basic charges d3's tail-resetting upload at t = 300 s
    about 3.97 J and Complete about 0.03 J, so at t = 600 s the α·E
    term picks d1 under Basic and d3 under Complete.  d3 opens no tail
    before its deadline and force-uploads cold (about 12.45 J)."""
    (basic, basic_log), (complete, complete_log) = _mode_comparison(
        137, 4, SelectorWeights()
    )
    assert basic_log[:2] == complete_log[:2]
    assert basic_log[2] == (600.0, ("d2", "d1"))
    assert complete_log[2] == (600.0, ("d2", "d3"))
    assert sum(basic.values()) == pytest.approx(16.881, abs=1e-3)
    assert sum(complete.values()) == pytest.approx(25.155, abs=1e-3)
    assert complete["d3"] - basic["d3"] == pytest.approx(8.535, abs=1e-3)
