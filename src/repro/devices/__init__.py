"""Simulated mobile devices (UEs).

A :class:`SimDevice` composes a battery, a sensor suite, an LTE radio
modem, a background-traffic process, and a mobility model — everything
a framework client (Periodic, PCS, or Sense-Aid) needs to sense and
upload.  Energy is double-entry: the radio and sensors charge a
per-category :class:`EnergyLedger`, and the same Joules drain the
battery.
"""

from repro.devices.battery import Battery
from repro.devices.device import SimDevice
from repro.devices.energy import EnergyLedger
from repro.devices.profiles import DEVICE_PROFILES, DeviceProfile, GALAXY_S4
from repro.devices.sensors import SENSOR_SPECS, SensorReading, SensorSuite, SensorType
from repro.devices.traffic import BackgroundTraffic, TrafficPattern

__all__ = [
    "BackgroundTraffic",
    "Battery",
    "DEVICE_PROFILES",
    "DeviceProfile",
    "EnergyLedger",
    "GALAXY_S4",
    "SENSOR_SPECS",
    "SensorReading",
    "SensorSuite",
    "SensorType",
    "SimDevice",
    "TrafficPattern",
]
