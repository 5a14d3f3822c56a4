"""Generic BLE radio peripheral model.

Implements the :class:`~repro.core.radio_api.LowLevelRadio` interface in the
style of the nRF RADIO peripheral: the firmware programs frequency, access
address, whitening, CRC and data rate registers, then pushes raw payload
bits to TX or arms RX.  Capability gating (what a given chip's registers
actually allow) comes from :class:`~repro.chips.capabilities.ChipCapabilities`.

The same class also offers the *legitimate* BLE packet path
(:meth:`transmit_pdu` / PDU reception in tests) so chip models double as
ordinary BLE devices.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from repro.ble.channels import channel_for_frequency, channel_frequency_hz
from repro.ble.packets import (
    ADVERTISING_ACCESS_ADDRESS,
    PhyMode,
    access_address_bits,
    assemble_on_air_bits,
    preamble_bits,
)
from repro.ble.whitening import whiten
from repro.chips.capabilities import CapabilityError, ChipCapabilities
from repro.dsp.gfsk import FskDemodulator, FskModulator
from repro.dsp.signal import IQSignal
from repro.phy.ble_phy import ble_demodulator, ble_modulator
from repro.radio.medium import RfMedium, Transmission
from repro.radio.transceiver import Transceiver

__all__ = ["BleRadioPeripheral", "ESB_SNR_CAP_DB"]

#: Effective SNR ceiling of the ESB fallback receive chain — it was never
#: meant to demodulate foreign waveforms, and the paper notes "a direct
#: impact on the reception quality" (§VI-C).
ESB_SNR_CAP_DB = 14.0

RawBitsHandler = Callable[[np.ndarray], None]


class BleRadioPeripheral:
    """A BLE 5 radio with register-level control (where capabilities allow)."""

    def __init__(
        self,
        medium: RfMedium,
        capabilities: ChipCapabilities,
        name: Optional[str] = None,
        position: Tuple[float, float] = (0.0, 0.0),
        tx_power_dbm: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ):
        self.capabilities = capabilities
        self.name = name or capabilities.name
        self.transceiver = Transceiver(
            medium,
            name=self.name,
            position=position,
            bandwidth_hz=2e6,
            tx_power_dbm=tx_power_dbm,
            cfo_std_hz=capabilities.cfo_std_hz,
            rng=rng,
        )
        # Radio "registers".
        self._symbol_rate = 1e6
        self._esb_mode = False
        self._access_address = ADVERTISING_ACCESS_ADDRESS
        self._whitening_enabled = True
        self._whitening_channel = 37
        self._crc_enabled = True
        self._rx_handler: Optional[RawBitsHandler] = None
        self._rx_max_bits = 0
        # Modems are pure functions of (samples/symbol, symbol rate); keep
        # one of each per rate instead of rebuilding them per packet.
        self._modems: dict = {}

    @property
    def rng(self) -> np.random.Generator:
        """The radio's one random stream: its transceiver's CFO stream."""
        return self.transceiver.rng

    # ------------------------------------------------------------------
    # LowLevelRadio interface
    # ------------------------------------------------------------------
    def set_frequency(self, frequency_hz: float) -> None:
        if not self.capabilities.raw_radio_access:
            raise CapabilityError(
                f"{self.name}: no register-level access to the synthesiser"
            )
        if not self.capabilities.arbitrary_frequency:
            if channel_for_frequency(frequency_hz) is None:
                raise CapabilityError(
                    f"{self.name}: can only tune BLE channel frequencies, "
                    f"not {frequency_hz / 1e6:.1f} MHz"
                )
        self.transceiver.tune(frequency_hz)
        channel = channel_for_frequency(frequency_hz)
        if channel is not None:
            self._whitening_channel = channel

    def set_data_rate_2m(self) -> None:
        if self.capabilities.supports_le_2m:
            self._symbol_rate = 2e6
            self._esb_mode = False
        elif self.capabilities.supports_esb_2m:
            # Scenario B: no LE 2M, divert the proprietary ESB 2 Mbit/s mode
            # instead, paying a sensitivity penalty.
            self._symbol_rate = 2e6
            self._esb_mode = True
        else:
            raise CapabilityError(f"{self.name}: no 2 Mbit/s physical layer")

    def set_data_rate_1m(self) -> None:
        self._symbol_rate = 1e6
        self._esb_mode = False

    def set_access_address(self, access_address: int) -> None:
        if not self.capabilities.raw_radio_access:
            raise CapabilityError(f"{self.name}: access address not settable")
        if not 0 <= access_address <= 0xFFFFFFFF:
            raise ValueError("access address must be 32-bit")
        self._access_address = access_address

    def set_whitening(self, enabled: bool) -> None:
        if not enabled and not self.capabilities.can_disable_whitening:
            raise CapabilityError(f"{self.name}: whitening cannot be disabled")
        self._whitening_enabled = enabled

    def set_crc_enabled(self, enabled: bool) -> None:
        if not enabled and not self.capabilities.can_disable_crc:
            raise CapabilityError(f"{self.name}: CRC cannot be disabled")
        self._crc_enabled = enabled

    @property
    def whitening_enabled(self) -> bool:
        return self._whitening_enabled

    @property
    def whitening_channel(self) -> int:
        return self._whitening_channel

    # -- modem construction -------------------------------------------------
    @property
    def phy_mode(self) -> PhyMode:
        return PhyMode.LE_2M if self._symbol_rate == 2e6 else PhyMode.LE_1M

    def _samples_per_symbol(self) -> int:
        sps = self.transceiver.medium.sample_rate / self._symbol_rate
        if abs(sps - round(sps)) > 1e-9:
            raise ValueError(
                "medium sample rate must be an integer multiple of the "
                f"symbol rate (got {sps})"
            )
        return int(round(sps))

    def _modulator(self) -> FskModulator:
        key = ("mod", self._samples_per_symbol(), self._symbol_rate)
        modem = self._modems.get(key)
        if modem is None:
            modem = self._modems[key] = ble_modulator(self.phy_mode, key[1])
        return modem

    def _demodulator(self) -> FskDemodulator:
        key = ("demod", self._samples_per_symbol(), self._symbol_rate)
        modem = self._modems.get(key)
        if modem is None:
            modem = self._modems[key] = ble_demodulator(self.phy_mode, key[1])
        return modem

    # -- raw TX ------------------------------------------------------------
    def send_raw_bits(self, payload_bits: np.ndarray) -> Transmission:
        if not self.capabilities.raw_radio_access:
            raise CapabilityError(f"{self.name}: no raw transmit path")
        payload = np.asarray(payload_bits, dtype=np.uint8)
        if self._whitening_enabled:
            payload = whiten(payload, self._whitening_channel)
        bits = np.concatenate(
            [
                preamble_bits(self._access_address, self.phy_mode),
                access_address_bits(self._access_address),
                payload,
            ]
        )
        if self._crc_enabled:
            raise CapabilityError(
                f"{self.name}: raw bit transmission requires CRC disabled"
            )
        signal = self._modulator().modulate(bits)
        return self.transceiver.transmit(signal)

    # -- raw RX ---------------------------------------------------------------
    def arm_receiver(self, max_payload_bits: int, handler: RawBitsHandler) -> None:
        if not self.capabilities.raw_radio_access:
            raise CapabilityError(f"{self.name}: no raw receive path")
        self._rx_handler = handler
        self._rx_max_bits = max_payload_bits
        self.transceiver.start_rx(self._on_capture)

    def disarm_receiver(self) -> None:
        self._rx_handler = None
        self.transceiver.stop_rx()

    def _on_capture(self, capture: IQSignal, _tx: Transmission) -> None:
        if self._rx_handler is None:
            return
        demod = self._demodulator()
        if self._esb_mode:
            # The ESB receive chain is modelled as a noisier front end.
            capture = self._esb_degrade(capture)
        sync_bits = access_address_bits(self._access_address)
        result = demod.demodulate_packet(capture, sync_bits, self._rx_max_bits)
        if result is None:
            return
        bits, _sync = result
        if self._whitening_enabled:
            bits = whiten(bits, self._whitening_channel)
        if self._crc_enabled and not self._crc_passes(bits):
            # §VI-B: "received frames including a wrong CRC are dropped at
            # the controller level and are not delivered to the host" — the
            # reason the reception primitive needs the CRC check disabled.
            return
        self._rx_handler(bits)

    @staticmethod
    def _crc_passes(bits: np.ndarray) -> bool:
        """Hardware CRC filter: length-framed PDU followed by CRC-24."""
        from repro.ble.packets import parse_pdu_bits

        try:
            _pdu, crc_ok = parse_pdu_bits(bits, channel=0, whitening=False)
        except ValueError:
            return False
        return crc_ok

    def _esb_degrade(self, capture: IQSignal) -> IQSignal:
        # Cap the effective SNR of the fallback receive chain by injecting
        # noise proportional to the capture power.
        extra_power = capture.power() * 10.0 ** (
            -ESB_SNR_CAP_DB / 10.0
        )
        noise = np.sqrt(extra_power / 2.0) * (
            self.rng.standard_normal(len(capture))
            + 1j * self.rng.standard_normal(len(capture))
        )
        return IQSignal(
            capture.samples + noise, capture.sample_rate, capture.center_frequency
        )

    # ------------------------------------------------------------------
    # Legitimate BLE packet path
    # ------------------------------------------------------------------
    def transmit_pdu(
        self,
        pdu: bytes,
        channel: int,
        phy: Optional[PhyMode] = None,
        access_address: int = ADVERTISING_ACCESS_ADDRESS,
    ) -> Transmission:
        """Send a well-formed BLE packet (whitened, CRC appended)."""
        phy = phy or self.phy_mode
        self.transceiver.tune(channel_frequency_hz(channel))
        self._symbol_rate = phy.symbol_rate
        packet = assemble_on_air_bits(
            pdu,
            channel=channel,
            phy=phy,
            access_address=access_address,
        )
        signal = self._modulator().modulate(packet.bits)
        return self.transceiver.transmit(signal)
