"""Scalability benchmark — paper §8 ongoing work.

"In ongoing work, we are looking at scalability of our framework to
large geographic regions."  This benchmark scales the world past the
user study in two tiers — 200 devices on the 3 km campus with a 3×3
tower grid (an order of magnitude past the study) and 2,000 devices
over a 9 km × 9 km city region with a 5×5 grid (two orders) — and
measures the simulation's event throughput, the server's scheduling
outcomes, and the control plane's per-query work.

The large tier is the scale-out gate (see ``docs/performance.md``):

- ``devices_within`` must stay sub-linear — the perf counters assert
  that the worst single query touched a bucket-bounded candidate set,
  a small fraction of the fleet, instead of scanning all 2,000
  devices;
- event throughput must clear a conservative floor, so an accidental
  O(fleet²) regression fails loudly rather than just running slowly;
- the scheduling outcome must be *bit-identical* to the brute-force
  scan implementation under the same seed (checked at the 200-device
  tier, where running the world twice is cheap).

Results land in ``benchmarks/artifacts/BENCH_scalability.json`` — all
tier tests merge into one scorecard via the module-level payload.
"""

from __future__ import annotations

from benchmarks.conftest import run_once, write_artifact
from repro.cellular.enodeb import TowerRegistry, grid_towers
from repro.cellular.network import CellularNetwork
from repro.clientlib import SenseAidClient
from repro.core.config import SenseAidConfig, ServerMode
from repro.core.server import SenseAidServer
from repro.devices.sensors import SensorType
from repro.environment.campus import STUDY_SITES, Campus, default_campus
from repro.environment.geometry import Point
from repro.environment.population import PopulationConfig, build_population
from repro.faults import reset_global_ids
from repro.serverlib import CrowdsensingAppServer
from repro.sim.engine import Simulator

DEVICES = 200
DURATION_S = 3600.0

LARGE_DEVICES = 2000
LARGE_TOWER_ROWS = 5
LARGE_DURATION_S = 1800.0
CITY_SIDE_M = 9000.0
#: Conservative CI floor; local runs exceed it by a wide margin.
LARGE_MIN_EVENTS_PER_S = 2000.0

#: All scalability tests merge their tier metrics here and rewrite the
#: single BENCH_scalability scorecard, so the artifact is complete
#: whichever test finishes last (write_artifact is atomic).
_PAYLOAD: dict = {"tiers": {}, "gates": {}}


def _write_merged(extra: dict) -> str:
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(_PAYLOAD.get(key), dict):
            _PAYLOAD[key].update(value)
        else:
            _PAYLOAD[key] = value
    return write_artifact("BENCH_scalability", _PAYLOAD)


def city_campus() -> Campus:
    """A 9 km × 9 km region — the "large geographic region" tier.

    The four study sites become four district centres far apart, and a
    grid of secondary waypoints spreads the population over the whole
    plane instead of clustering it on one campus core.
    """
    city = Campus(width_m=CITY_SIDE_M, height_m=CITY_SIDE_M)
    quarter, three_quarters = CITY_SIDE_M * 0.25, CITY_SIDE_M * 0.75
    for name, position in zip(
        STUDY_SITES,
        (
            Point(quarter, quarter),
            Point(three_quarters, quarter),
            Point(quarter, three_quarters),
            Point(three_quarters, three_quarters),
        ),
    ):
        city.add_site(name, position)
    step = CITY_SIDE_M / 6.0
    for row in range(1, 6):
        for col in range(1, 6):
            city.add_waypoint(Point(col * step, row * step))
    return city


def run_world(
    *,
    devices: int,
    tower_rows: int,
    duration_s: float,
    seed: int = 13,
    use_spatial_index: bool = True,
    campus: Campus | None = None,
    site_home_fraction: float = 0.6,
    sites=STUDY_SITES,
):
    reset_global_ids()
    sim = Simulator(seed=seed)
    if campus is None:
        campus = default_campus()
    registry = TowerRegistry(
        grid_towers(
            campus.width_m, campus.height_m, rows=tower_rows, cols=tower_rows
        ),
        use_spatial_index=use_spatial_index,
    )
    network = CellularNetwork(sim)
    fleet = build_population(
        sim,
        campus,
        PopulationConfig(size=devices, site_home_fraction=site_home_fraction),
    )
    server = SenseAidServer(
        sim, registry, network, SenseAidConfig(mode=ServerMode.COMPLETE)
    )
    for device in fleet:
        SenseAidClient(sim, device, server, network).register()
    app = CrowdsensingAppServer(server, "city-scale")
    for site in sites:
        app.task(
            SensorType.BAROMETER,
            campus.site(site).position,
            area_radius_m=800.0,
            spatial_density=5,
            sampling_period_s=300.0,
            sampling_duration_s=duration_s,
        )
    sim.run(until=duration_s + 60.0)
    server.shutdown()
    return sim, server, registry, fleet, app


def run_city_scale():
    return run_world(
        devices=LARGE_DEVICES,
        tower_rows=LARGE_TOWER_ROWS,
        duration_s=LARGE_DURATION_S,
        campus=city_campus(),
        site_home_fraction=0.2,
    )


def run_large_scale():
    return run_world(devices=DEVICES, tower_rows=3, duration_s=DURATION_S)


def test_scalability_200_devices(benchmark):
    sim, server, registry, devices, app = run_once(benchmark, run_large_scale)
    # The server kept up: nearly every request scheduled, with data.
    assert server.stats.requests_issued == 4 * 12
    scheduled_fraction = server.stats.requests_scheduled / server.stats.requests_issued
    assert scheduled_fraction > 0.9
    assert server.stats.data_points > 0.8 * server.stats.assignments
    total_energy = sum(d.crowdsensing_energy_j() for d in devices)
    benchmark.extra_info["devices"] = DEVICES
    benchmark.extra_info["events_processed"] = sim.events_processed
    benchmark.extra_info["requests_scheduled"] = server.stats.requests_scheduled
    benchmark.extra_info["data_points"] = server.stats.data_points
    benchmark.extra_info["total_energy_j"] = round(total_energy, 1)
    benchmark.extra_info["readings"] = len(app.readings)


def test_scalability_index_matches_scan():
    """Same seed, index on vs off: the scheduling outcome is one bit
    stream — selection log and aggregate stats are identical."""
    _, indexed, *_ = run_world(devices=DEVICES, tower_rows=3, duration_s=DURATION_S)
    _, scanned, *_ = run_world(
        devices=DEVICES, tower_rows=3, duration_s=DURATION_S, use_spatial_index=False
    )
    assert indexed.selection_log == scanned.selection_log
    assert indexed.stats == scanned.stats


def test_scalability_2000_devices(benchmark):
    sim, server, registry, devices, app = run_once(benchmark, run_city_scale)
    stats = benchmark.stats.stats  # pytest-benchmark timing for the round
    wall_s = stats.mean
    throughput = sim.events_processed / wall_s

    # Scheduling kept up at 10× the previous tier.
    assert server.stats.requests_issued == 4 * 6
    scheduled_fraction = (
        server.stats.requests_scheduled / server.stats.requests_issued
    )
    assert scheduled_fraction > 0.9
    assert server.stats.data_points > 0.8 * server.stats.assignments

    # --- The sub-linearity gate -------------------------------------
    # The worst devices_within query examined a bucket-bounded
    # candidate set, not the fleet: for an 800 m task circle on a
    # 500 m grid the candidate cells hold a minority of 2,000 devices
    # spread over a 3×3 km campus.
    query_probe = sim.perf.probe("registry.devices_within")
    assert query_probe.calls > 0
    assert query_probe.max_items < LARGE_DEVICES / 2
    # The perf block is the run's own work.  The server refreshes
    # positions only at instants that read them, so bring the grid to
    # the end-of-run instant before reading its occupancy: the stats
    # then describe a fixed instant, not the last one that was read.
    perf = sim.perf.snapshot()
    registry.refresh_positions()
    grid_stats = registry.grid_stats()
    # Bucket occupancy bounds the per-query work: a circle of radius r
    # intersects at most ceil(2r/cell + 1)^2 buckets.
    cells_across = int(2 * 800.0 / grid_stats["cell_size_m"] + 1) + 1
    assert query_probe.max_items <= cells_across**2 * grid_stats["max_bucket"]

    # Refreshes are incremental: paused devices are provably
    # stationary and skipped, and repeat queries at one instant hit
    # the memo instead of re-reading anything.  (Walking devices must
    # still be re-read, so the bound reflects the time users spend
    # paused, not a constant.)
    refresh = perf["registry.refresh_positions"]
    full_scan_cost = refresh["calls"] * LARGE_DEVICES
    assert refresh["items"] < 0.8 * full_scan_cost
    assert perf["registry.refresh_positions.memo_hit"]["calls"] > 0

    # Throughput floor: an O(fleet) control plane regression at this
    # scale would fall under it.
    assert throughput > LARGE_MIN_EVENTS_PER_S

    path = _write_merged(
        {
            "tiers": {
                "small": {"devices": DEVICES, "towers": 9},
                "large": {
                    "devices": LARGE_DEVICES,
                    "towers": LARGE_TOWER_ROWS**2,
                    "region_m": CITY_SIDE_M,
                    "duration_s": LARGE_DURATION_S,
                    "events_processed": sim.events_processed,
                    "wall_s": round(wall_s, 3),
                    "events_per_s": round(throughput, 1),
                    "requests_scheduled": server.stats.requests_scheduled,
                    "data_points": server.stats.data_points,
                    "readings": len(app.readings),
                },
            },
            "grid": grid_stats,
            "perf": perf,
            "gates": {
                "max_query_touched": query_probe.max_items,
                "max_query_touched_limit": LARGE_DEVICES / 2,
                "min_events_per_s": LARGE_MIN_EVENTS_PER_S,
            },
        }
    )
    benchmark.extra_info["devices"] = LARGE_DEVICES
    benchmark.extra_info["events_processed"] = sim.events_processed
    benchmark.extra_info["events_per_s"] = round(throughput, 1)
    benchmark.extra_info["max_query_touched"] = query_probe.max_items
    benchmark.extra_info["artifact"] = path

