"""Geographic edge deployment with device handoff and shard failover.

The paper's §3.2 deployment story: the logically-centralised Sense-Aid
server is physically many instances at the cellular edge, each close
to its devices.  This example runs two edge instances over one campus
as a `NearestSite` fleet, watches devices hand over as users walk
between regions, then crashes one instance mid-campaign and shows its
successor (hosted on the sibling) carrying the task on without losing
the rest of the campaign.

Run:  python examples/federated_edge.py
"""

from __future__ import annotations

from repro.cellular.network import CellularNetwork
from repro.clientlib import SenseAidClient
from repro.core.config import SenseAidConfig, ServerMode
from repro.core.sharding import NearestSite, ShardedSenseAid, ShardSpec
from repro.core.tasks import TaskSpec
from repro.devices.sensors import SensorType
from repro.environment.campus import CS_DEPARTMENT, UNIVERSITY_GYM, default_campus
from repro.environment.population import PopulationConfig, build_population
from repro.sim.engine import Simulator

DURATION_S = 5400.0


def main() -> None:
    sim = Simulator(seed=31)
    campus = default_campus()
    network = CellularNetwork(sim)
    devices = build_population(sim, campus, PopulationConfig(size=20))

    # Two edge instances: one near the academic core, one near the gym.
    fleet = ShardedSenseAid(
        sim,
        network,
        [
            ShardSpec("core", campus.site(CS_DEPARTMENT).position),
            ShardSpec("north", campus.site(UNIVERSITY_GYM).position),
        ],
        SenseAidConfig(mode=ServerMode.COMPLETE),
        placement=NearestSite(rebalance_period_s=120.0),
    )

    for device in devices:
        client = SenseAidClient(sim, device, fleet.instance("core"), network)
        fleet.register(client)
    print("initial devices per region:", fleet.devices_per_shard())

    core_data, north_data = [], []
    fleet.submit_task(
        TaskSpec(
            sensor_type=SensorType.BAROMETER,
            center=campus.site(CS_DEPARTMENT).position,
            area_radius_m=800.0,
            spatial_density=2,
            sampling_period_s=300.0,
            sampling_duration_s=DURATION_S,
            origin="core-weather",
        ),
        core_data.append,
    )
    fleet.submit_task(
        TaskSpec(
            sensor_type=SensorType.BAROMETER,
            center=campus.site(UNIVERSITY_GYM).position,
            area_radius_m=800.0,
            spatial_density=2,
            sampling_period_s=300.0,
            sampling_duration_s=DURATION_S,
            origin="north-weather",
        ),
        north_data.append,
    )

    # Run half the campaign, then lose the north instance.
    sim.run(until=DURATION_S / 2)
    north_before_crash = len(north_data)
    print(f"t={sim.now / 60:.0f} min: north instance crashes "
          f"({north_before_crash} north readings so far)")
    fleet.crash_shard("north")

    sim.run(until=DURATION_S + 120.0)
    fleet.shutdown()

    print(f"handoffs during the run : {fleet.handoffs}")
    print(f"failovers               : {fleet.failovers} "
          f"(north now hosted by {fleet.hosted_by('north')})")
    print(f"final devices per region: {fleet.devices_per_shard()}")
    print(f"core campaign readings  : {len(core_data)}")
    print(f"north campaign readings : {len(north_data)} "
          f"({len(north_data) - north_before_crash} after failover)")
    total = sum(d.crowdsensing_energy_j() for d in devices)
    print(f"total crowdsensing energy: {total:.1f} J")


if __name__ == "__main__":
    main()
