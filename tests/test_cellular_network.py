"""Unit tests for the message transport layer."""

from __future__ import annotations

import pytest

from repro.cellular.network import CellularNetwork
from repro.cellular.packets import (
    Message,
    MessageKind,
    TrafficCategory,
    control_ping_message,
    sensor_data_message,
)
from repro.environment.geometry import Point
from repro.sim.engine import Simulator
from tests.conftest import make_device


class TestMessages:
    def test_sensor_data_message_defaults(self):
        msg = sensor_data_message("d1", {"value": 1013.0})
        assert msg.kind is MessageKind.SENSOR_DATA
        assert msg.category is TrafficCategory.CROWDSENSING
        assert msg.size_bytes == 600

    def test_control_ping_message(self):
        msg = control_ping_message("d1", {})
        assert msg.kind is MessageKind.CONTROL_PING
        assert msg.category is TrafficCategory.CONTROL

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            Message(MessageKind.APP_TRAFFIC, "d1", -1)

    def test_message_ids_unique(self):
        a = sensor_data_message("d1", {})
        b = sensor_data_message("d1", {})
        assert a.message_id != b.message_id


class TestRouting:
    def test_crowdsensing_takes_path2(self):
        sim = Simulator()
        network = CellularNetwork(sim)
        msg = sensor_data_message("d1", {})
        assert network.route_for(msg) == CellularNetwork.PATH_SENSE_AID

    def test_background_takes_path1(self):
        sim = Simulator()
        network = CellularNetwork(sim)
        msg = Message(MessageKind.APP_TRAFFIC, "d1", 100)
        assert network.route_for(msg) == CellularNetwork.PATH_DIRECT

    def test_failsafe_path1_when_sense_aid_down(self):
        """The paper's fail-safe: path 1 if the Sense-Aid server crashes."""
        sim = Simulator()
        network = CellularNetwork(sim)
        network.set_sense_aid_path_available(False)
        msg = sensor_data_message("d1", {})
        assert network.route_for(msg) == CellularNetwork.PATH_DIRECT
        network.set_sense_aid_path_available(True)
        assert network.route_for(msg) == CellularNetwork.PATH_SENSE_AID

    def test_path_counters(self):
        sim = Simulator()
        network = CellularNetwork(sim)
        device = make_device(sim, position=Point(0.0, 0.0))
        network.uplink(device, sensor_data_message("d1", {}))
        network.uplink(device, Message(MessageKind.APP_TRAFFIC, "d1", 100))
        assert network.path2_messages == 1
        assert network.path1_messages == 1


class TestUplink:
    def test_delivery_after_radio_and_latency(self):
        sim = Simulator()
        network = CellularNetwork(sim)
        device = make_device(sim, position=Point(0.0, 0.0))
        receipts = []
        network.uplink(
            device,
            sensor_data_message(device.device_id, {"value": 1.0}),
            on_delivered=lambda msg, r: receipts.append(r),
        )
        sim.run(until=30.0)
        assert len(receipts) == 1
        receipt = receipts[0]
        profile = device.modem.profile
        expected_radio = profile.promotion_s + profile.transfer_time(600)
        assert receipt.radio_complete_at == pytest.approx(expected_radio)
        assert receipt.delivered_at == pytest.approx(expected_radio + 0.05)
        assert receipt.path == CellularNetwork.PATH_SENSE_AID

    def test_uplink_charges_device_energy(self):
        sim = Simulator()
        network = CellularNetwork(sim)
        device = make_device(sim, position=Point(0.0, 0.0))
        network.uplink(device, sensor_data_message(device.device_id, {}))
        sim.run(until=30.0)
        assert device.crowdsensing_energy_j() > 0

    def test_uplink_without_callback(self):
        sim = Simulator()
        network = CellularNetwork(sim)
        device = make_device(sim, position=Point(0.0, 0.0))
        network.uplink(device, sensor_data_message(device.device_id, {}))
        sim.run(until=30.0)  # must not raise


class TestDownlink:
    def test_downlink_wakes_idle_radio(self):
        sim = Simulator()
        network = CellularNetwork(sim)
        device = make_device(sim, position=Point(0.0, 0.0))
        delivered = []
        network.downlink(
            device,
            Message(
                MessageKind.TASK_ASSIGNMENT,
                "server",
                128,
                category=TrafficCategory.CROWDSENSING,
            ),
            on_delivered=lambda msg, r: delivered.append(r),
        )
        sim.run(until=30.0)
        assert len(delivered) == 1
        assert device.modem.promotions == 1

    def test_downlink_sets_created_at(self):
        sim = Simulator()
        network = CellularNetwork(sim)
        device = make_device(sim, position=Point(0.0, 0.0))
        msg = Message(MessageKind.TASK_ASSIGNMENT, "server", 128)
        sim.run(until=5.0)
        network.downlink(device, msg)
        assert msg.created_at == 5.0
