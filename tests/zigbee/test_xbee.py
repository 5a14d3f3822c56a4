"""Tests for the XBee application payload formats."""

import pytest
from hypothesis import given, strategies as st

from repro.zigbee.xbee import (
    AppFrameType,
    AtCommand,
    RemoteAtCommand,
    SensorReading,
    XBEE_CHANNEL,
    XBEE_PAN_ID,
    XBEE_REMOTE_AT_ENABLED,
    parse_app_payload,
)


class TestDefaults:
    def test_remote_at_enabled_by_default(self):
        """The insecure factory default the attack relies on."""
        assert XBEE_REMOTE_AT_ENABLED

    def test_network_parameters(self):
        assert XBEE_CHANNEL == 14
        assert XBEE_PAN_ID == 0x1234


class TestSensorReading:
    def test_roundtrip(self):
        reading = SensorReading(counter=300, value=21)
        assert SensorReading.from_payload(reading.to_payload()) == reading

    def test_payload_layout(self):
        payload = SensorReading(counter=1, value=2).to_payload()
        assert payload[0] == AppFrameType.SENSOR_READING
        assert len(payload) == 5

    def test_counter_wraps(self):
        reading = SensorReading(counter=0x1FFFF, value=0)
        assert SensorReading.from_payload(reading.to_payload()).counter == 0xFFFF

    def test_wrong_type_rejected(self):
        with pytest.raises(ValueError):
            SensorReading.from_payload(b"\x17\x00\x00\x00\x00")

    @given(st.integers(0, 0xFFFF), st.integers(0, 0xFFFF))
    def test_roundtrip_property(self, counter, value):
        reading = SensorReading(counter=counter, value=value)
        assert SensorReading.from_payload(reading.to_payload()) == reading


class TestRemoteAtCommand:
    def test_roundtrip(self):
        cmd = RemoteAtCommand(command=AtCommand.CHANNEL, parameter=b"\x1a")
        back = RemoteAtCommand.from_payload(cmd.to_payload())
        assert back.command == b"CH"
        assert back.parameter == b"\x1a"
        assert back.apply_changes

    def test_apply_flag(self):
        cmd = RemoteAtCommand(command=b"ID", apply_changes=False)
        assert not RemoteAtCommand.from_payload(cmd.to_payload()).apply_changes

    def test_command_name_length(self):
        with pytest.raises(ValueError):
            RemoteAtCommand(command=b"CHX")

    def test_truncated_rejected(self):
        with pytest.raises(ValueError):
            RemoteAtCommand.from_payload(b"\x17\x01")


class TestDispatch:
    def test_parse_sensor(self):
        app = parse_app_payload(SensorReading(1, 2).to_payload())
        assert isinstance(app, SensorReading)

    def test_parse_remote_at(self):
        app = parse_app_payload(RemoteAtCommand(command=b"CH").to_payload())
        assert isinstance(app, RemoteAtCommand)

    def test_unknown_returns_none(self):
        assert parse_app_payload(b"\x99\x01") is None
        assert parse_app_payload(b"") is None

    def test_malformed_returns_none(self):
        assert parse_app_payload(b"\x10\x01") is None  # truncated reading
