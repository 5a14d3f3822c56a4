"""The low-level radio interface WazaBee needs from a compromised chip.

§IV-D lists four requirements: 2 Mbit/s data rate, Zigbee-channel centre
frequency, control of the modulator input, and access to the demodulator
output.  This module captures them as a structural interface so the
primitives can run on any chip model that exposes enough of its radio —
mirroring how the real attack is "not implementation dependent".

Chip models in :mod:`repro.chips` implement this interface; the smartphone
model deliberately does *not* (it only offers the high-level advertising
API), which is why Scenario A needs the whitening pre-inversion trick.
"""

from __future__ import annotations

from typing import Callable, Protocol, runtime_checkable

import numpy as np

from repro.chips.capabilities import CapabilityError
from repro.core.encoding import wazabee_access_address
from repro.dot15d4.channels import channel_frequency_hz

__all__ = ["LowLevelRadio", "RawBitsHandler", "configure_wazabee"]

RawBitsHandler = Callable[[np.ndarray], None]


@runtime_checkable
class LowLevelRadio(Protocol):
    """Register-level radio control, in the style of the nRF RADIO peripheral."""

    def set_frequency(self, frequency_hz: float) -> None:
        """Tune the synthesiser.  Chips without arbitrary tuning raise
        :class:`~repro.chips.capabilities.CapabilityError` for frequencies
        off the BLE channel grid."""

    def set_data_rate_2m(self) -> None:
        """Select the 2 Mbit/s physical layer (LE 2M, or the chip's
        proprietary 2 Mbit/s fallback)."""

    def set_access_address(self, access_address: int) -> None:
        """Program the sync word used for TX framing and RX correlation."""

    def set_whitening(self, enabled: bool) -> None:
        """Enable/disable whitening; the tuned BLE channel seeds the LFSR."""

    def set_crc_enabled(self, enabled: bool) -> None:
        """Enable/disable hardware CRC generation/checking."""

    def send_raw_bits(self, payload_bits: np.ndarray) -> None:
        """Transmit preamble + access address + *payload_bits* (whitened if
        whitening is enabled)."""

    def arm_receiver(self, max_payload_bits: int, handler: RawBitsHandler) -> None:
        """Enter RX; on each sync-word match deliver up to
        *max_payload_bits* demodulated payload bits (de-whitened if
        whitening is enabled) to *handler*."""

    def disarm_receiver(self) -> None:
        """Leave RX mode."""

    @property
    def whitening_enabled(self) -> bool:
        """Whether the whitener is currently active."""

    @property
    def whitening_channel(self) -> int:
        """Channel index currently seeding the whitening LFSR."""


def configure_wazabee(radio: LowLevelRadio, zigbee_channel: int) -> None:
    """Apply the §IV-D radio configuration for a Zigbee channel, shared by
    both primitives.

    * data rate 2 Mbit/s (chip rate of 802.15.4);
    * centre frequency of the target channel;
    * Access Address set to the MSK-encoded ``0000`` PN sequence — on
      transmission it acts as one extra 802.15.4 preamble symbol;
    * CRC generation and checking off (an appended CRC-24 would corrupt
      the chip stream);
    * whitening off when the chip allows.  A chip that forces it on keeps
      it enabled, and the primitives compensate: transmission pre-inverts
      the stream, reception undoes the de-whitening per capture.
    """
    radio.set_data_rate_2m()
    radio.set_frequency(channel_frequency_hz(zigbee_channel))
    radio.set_access_address(wazabee_access_address())
    radio.set_crc_enabled(False)
    try:
        radio.set_whitening(False)
    except CapabilityError:
        pass
